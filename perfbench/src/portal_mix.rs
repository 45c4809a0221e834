//! `portal_mix`: one closed-loop client sends a seeded mix of portal
//! requests — threshold searches, Fig. 4 panels and job-detail pages —
//! through a `QueryCache`, against a table of finished jobs and a tsdb
//! holding their Fig. 5 detail series. Every few requests a write batch
//! ingests newly finished jobs with their series and advances the
//! ingest watermark, which invalidates the cache.
//!
//! Specs are drawn with a skew from a set larger than the cache, and
//! detail pages span more jobs than the decoded-block caches hold. One
//! round rebuilds the fixture and sends a fixed request sequence; rounds
//! repeat until the run's time is spent.

use crate::harness::{
    begin, end, percentile, set_req, set_tracing, span, stamp, tracing, with_tracer, Checks,
};
use crate::{Layer, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tacc_core::pool::WorkerPool;
use tacc_jobdb::table::Table;
use tacc_jobdb::{Database, Value};
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::{CacheConfig, QueryCache};
use tacc_portal::detail::{render_job_detail, HostSeries, JobTimeSeries, PanelPoint};
use tacc_portal::search::SearchSpec;
use tacc_scheduler::job::{Job, JobStatus, QueueName};
use tacc_simnode::apps::{AppInstance, AppLibrary};
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimDuration, SimTime};
use tacc_tsdb::{SeriesKey, TsDb};

/// Fixture and request-mix shape.
#[derive(Clone, Copy)]
pub struct Cfg {
    /// Finished jobs in the table before the first request.
    pub base_jobs: usize,
    /// Newest jobs carrying Fig. 5 detail series.
    pub detail_jobs: usize,
    /// Points per detail series of a fixture job (≥ 512 seals a block).
    pub detail_points: usize,
    /// Points per detail series of a job a write batch adds.
    pub new_points: usize,
    /// Requests per round.
    pub requests: usize,
    /// A write batch runs before every this many requests.
    pub write_every: usize,
    /// Query-cache capacity (entries).
    pub cache_capacity: usize,
    /// Every this many requests the answer is checked; coprime with
    /// `PATTERN.len()`, so every request kind is checked.
    pub check_every: usize,
}

impl Cfg {
    /// The benchmark's shape.
    pub fn full() -> Cfg {
        Cfg {
            base_jobs: 2_000,
            detail_jobs: 160,
            detail_points: 520,
            new_points: 64,
            requests: 8_000,
            write_every: 64,
            cache_capacity: CacheConfig::default().capacity,
            check_every: 7,
        }
    }

    /// A seconds-long shape with the same checks.
    pub fn smoke() -> Cfg {
        Cfg {
            base_jobs: 600,
            detail_jobs: 24,
            detail_points: 520,
            new_points: 16,
            requests: 96,
            write_every: 24,
            cache_capacity: 16,
            check_every: 1,
        }
    }

    /// Jobs each write batch ingests: the jobs that finish, at
    /// Stampede's rate, in the simulated time `write_every` requests
    /// span.
    fn write_jobs(&self) -> usize {
        (jobs_per_hour() * self.write_every as f64 / REQUESTS_PER_HOUR).round() as usize
    }
}

/// Stampede's job rate in the paper's quarter: 404,002 jobs over Q4
/// 2015, the population `WorkloadConfig::q4_2015` is scaled from; about
/// 183 an hour.
fn jobs_per_hour() -> f64 {
    use tacc_simnode::clock::{Q4_2015_END_SECS, Q4_2015_START_SECS};
    404_002.0 * 3600.0 / (Q4_2015_END_SECS - Q4_2015_START_SECS) as f64
}

/// Portal requests per simulated hour. The paper gives no figure for
/// portal use, so this rate is an assumption: one request every 2.4 s.
const REQUESTS_PER_HOUR: f64 = 1_500.0;

/// Hot specs and hot detail jobs, and the share of draws they get.
/// Both are assumptions: the paper gives no figure for how portal
/// requests are spread.
const HOT: usize = 16;
const HOT_SHARE: f64 = 0.4;
/// Hosts per job with detail series.
const DETAIL_HOSTS: usize = 2;
/// Request kinds in a fixed repeating order, so every run has the same
/// kind proportions: 3/8 searches, 3/8 Fig. 4 panels, 2/8 detail pages.
/// The proportions are an assumption, like the skew above.
const PATTERN: [Kind; 8] = [
    Kind::Search,
    Kind::Fig4,
    Kind::Detail,
    Kind::Search,
    Kind::Fig4,
    Kind::Search,
    Kind::Detail,
    Kind::Fig4,
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Search,
    Fig4,
    Detail,
}

fn t0() -> SimTime {
    SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
}

/// Execs, apps and thresholds the fixture and the specs share.
struct Catalog {
    apps: Vec<AppInstance>,
}

impl Catalog {
    fn new(rng: &mut StdRng) -> Catalog {
        let topo = NodeTopology::stampede();
        let apps = AppLibrary::standard()
            .entries()
            .iter()
            .map(|(m, _)| m.instantiate(rng, 1, topo.n_cores(), &topo))
            .collect();
        Catalog { apps }
    }

    fn job(&self, id: u64, rng: &mut StdRng) -> (Job, JobMetrics) {
        let app = self.apps[rng.gen_range(0..self.apps.len())].clone();
        let n_nodes = 1usize << rng.gen_range(0..7u32);
        let submit = t0() + SimDuration::from_secs((id as f64 * 3600.0 / jobs_per_hour()) as u64);
        let start = submit + SimDuration::from_secs(rng.gen_range(0..7200));
        let runtime = SimDuration::from_secs(rng.gen_range(120..48 * 3600));
        let user = rng.gen_range(0..200u32);
        let job = Job {
            id,
            user: format!("user{user:04}"),
            uid: 5000 + user,
            account: format!("TG-{}", user % 37),
            job_name: "bench".into(),
            exec: app.exec_name().to_string(),
            queue: if rng.gen_bool(0.1) {
                QueueName::Development
            } else {
                QueueName::Normal
            },
            n_nodes,
            wayness: 16,
            submit,
            start,
            end: start + runtime,
            status: JobStatus::Completed,
            nodes: Vec::new(),
            idle_nodes: 0,
            app,
        };
        let mut m = JobMetrics::new();
        m.set(MetricId::MetaDataRate, 10f64.powf(rng.gen_range(0.0..5.0)));
        m.set(MetricId::CpuUsage, rng.gen_range(0.05..1.0));
        m.set(MetricId::VecPercent, rng.gen_range(0.0..100.0));
        m.set(MetricId::MemUsage, rng.gen_range(1.0..32.0));
        (job, m)
    }

    /// Every search spec of the universe: each exec, one metric
    /// threshold, and an optional runtime floor. Every spec filters on
    /// the exec, so the scan does the same work for each; which specs
    /// are hot is what the seed decides.
    fn universe(&self) -> Vec<SearchSpec> {
        let thresholds = [
            (
                MetricId::MetaDataRate,
                "gte",
                [10.0, 100.0, 1000.0, 10_000.0],
            ),
            (MetricId::CpuUsage, "lte", [0.2, 0.4, 0.6, 0.8]),
            (MetricId::VecPercent, "gte", [5.0, 25.0, 50.0, 75.0]),
            (MetricId::MemUsage, "gte", [4.0, 8.0, 16.0, 24.0]),
        ];
        let mut out = Vec::new();
        for app in &self.apps {
            for (id, op, vals) in thresholds {
                for v in vals {
                    for runtime in [None, Some(1800), Some(4 * 3600)] {
                        let s = SearchSpec {
                            exec: Some(app.exec_name().to_string()),
                            min_runtime_secs: runtime,
                            ..SearchSpec::default()
                        };
                        out.push(s.field(&format!("{}__{op}", id.label()), v));
                    }
                }
            }
        }
        out
    }
}

/// Fig. 5 series of one job: `DETAIL_HOSTS` hosts, `points` each.
fn detail_series(job: &Job, points: usize, rng: &mut StdRng) -> JobTimeSeries {
    let hosts = (0..DETAIL_HOSTS)
        .map(|h| {
            let base = rng.gen_range(0.5..2.0);
            HostSeries {
                hostname: format!("c5{:02}-{:03}", job.id % 97, h),
                points: (0..points)
                    .map(|k| {
                        let w = base * (1.0 + 0.3 * ((k as f64) * 0.05).sin());
                        PanelPoint {
                            t: job.start.as_secs() + 60 * k as u64,
                            gflops: 20.0 * w,
                            mbw_gbs: 8.0 * w,
                            mem_gb: 12.0 + w,
                            lustre_mbs: 50.0 * w,
                            ib_mbs: 300.0 * w,
                            cpu_user: (0.5 * w).min(1.0),
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    JobTimeSeries {
        jobid: job.id.to_string(),
        hosts,
    }
}

/// Metric thresholds of a spec, evaluated on one row directly.
fn row_matches(spec: &SearchSpec, table: &Table, row: &tacc_jobdb::table::Row) -> bool {
    let col = |name: &str| table.schema().index_of(name).map(|i| row.get(i));
    if let Some(e) = &spec.exec {
        if col("exec").and_then(Value::as_str) != Some(e.as_str()) {
            return false;
        }
    }
    if let Some(r) = spec.min_runtime_secs {
        if !col("run_time")
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= r as f64)
        {
            return false;
        }
    }
    spec.fields.iter().all(|(kw, thr)| {
        let Some((name, op)) = kw.rsplit_once("__") else {
            return false;
        };
        let Some(v) = col(name).and_then(Value::as_f64) else {
            return false;
        };
        match op {
            "gte" => v >= *thr,
            "lte" => v <= *thr,
            _ => false,
        }
    })
}

/// Bin counts of a linear 12-bin histogram, counted directly.
fn direct_counts(values: &[f64]) -> Vec<usize> {
    let mut counts = vec![0usize; 12];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        return counts;
    }
    let width = if hi > lo { (hi - lo) / 12.0 } else { 1.0 };
    for v in values {
        counts[(((v - lo) / width) as usize).min(11)] += 1;
    }
    counts
}

/// One round's fixture and client state.
struct Mix {
    rng: StdRng,
    catalog: Catalog,
    db: Database,
    tsdb: TsDb,
    rules: FlagRules,
    next_id: u64,
    /// Job ids carrying detail series, oldest first.
    detail_ids: Vec<u64>,
    specs: Vec<SearchSpec>,
    cache: QueryCache,
    pool: WorkerPool,
    watermark: u64,
}

impl Mix {
    fn build(cfg: Cfg, seed: u64) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::new(&mut rng);
        let mut specs = catalog.universe();
        crate::harness::shuffle(&mut specs, &mut rng);
        let mut mix = Mix {
            rng,
            catalog,
            db: Database::new(),
            tsdb: TsDb::new(),
            rules: FlagRules::default(),
            next_id: 1,
            detail_ids: Vec::new(),
            specs,
            cache: QueryCache::new(CacheConfig {
                capacity: cfg.cache_capacity,
                ..CacheConfig::default()
            }),
            // One worker: scans run on the client thread. With two, each
            // scan starts fresh threads, and their CPU time swung with
            // the host's steal share far more than single-threaded work.
            pool: WorkerPool::new(1),
            watermark: 0,
        };
        let first_detail = cfg.base_jobs.saturating_sub(cfg.detail_jobs);
        for i in 0..cfg.base_jobs {
            let points = if i >= first_detail {
                cfg.detail_points
            } else {
                0
            };
            mix.add_job(points);
        }
        mix
    }

    /// Ingest one finished job (and its detail series when `points > 0`).
    fn add_job(&mut self, points: usize) {
        let (job, m) = self.catalog.job(self.next_id, &mut self.rng);
        self.next_id += 1;
        span("jobdb.ingest", || {
            ingest_job(&mut self.db, &job, &m, &self.rules, 32.0)
        });
        if points > 0 {
            let series = detail_series(&job, points, &mut self.rng);
            span("tsdb.store", || series.store(&self.tsdb));
            self.detail_ids.push(job.id);
        }
        self.watermark += 1;
    }

    /// A skewed draw from `0..n`: a share `HOT_SHARE` of draws falls on
    /// the first `HOT` indices, the rest spread evenly over all `n`.
    fn skewed(&mut self, n: usize) -> usize {
        let hot = self.rng.gen_bool(HOT_SHARE);
        let top = if hot { HOT.min(n) } else { n };
        self.rng.gen_range(0..top.max(1))
    }
}

/// Per-kind latencies and counters of the measured requests.
#[derive(Default)]
struct Acc {
    window_ns: u64,
    /// Window plus the write batches and the `tsdb.range` probe, which
    /// spans cover.
    trace_window_ns: u64,
    attempted: u64,
    failed: u64,
    /// Requests answered.
    requests: u64,
    op_us: Vec<f64>,
    by_kind: [Vec<f64>; 3],
    store_points: u64,
    cache_hits: u64,
    cache_lookups: u64,
    block_hits: u64,
    block_lookups: u64,
}

/// The answer a request was served.
enum Served<'t> {
    Rows(tacc_portal::search::JobList<'t>),
    Panels(std::sync::Arc<tacc_portal::hist::Fig4Panels>),
    Page(std::sync::Arc<str>),
}

/// Check a served answer against a direct computation over the table
/// (searches, Fig. 4) or a fresh render from the tsdb (detail pages).
fn check_served(
    mix: &Mix,
    table: &Table,
    spec: &SearchSpec,
    jobid: &str,
    served: &Served<'_>,
    ck: &mut Checks,
) {
    let col = |name: &str| table.schema().index_of(name).unwrap_or(0);
    let rows: Vec<_> = table
        .rows()
        .iter()
        .filter(|r| row_matches(spec, table, r))
        .collect();
    let ids = |rows: &[&tacc_jobdb::table::Row]| -> Vec<i64> {
        rows.iter()
            .filter_map(|r| r.get(col("jobid")).as_i64())
            .collect()
    };
    match served {
        Served::Rows(list) => {
            let (got, want) = (ids(list.rows()), ids(&rows));
            ck.check(got == want, || {
                format!(
                    "portal_mix: search {:?} served {} rows, a direct filter matches {}",
                    spec.fields,
                    got.len(),
                    want.len()
                )
            });
        }
        Served::Panels(p) => {
            let nodes: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.get(col("nodes")).as_f64())
                .collect();
            let hours: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.get(col("run_time")).as_f64())
                .map(|s| s / 3600.0)
                .collect();
            ck.check(p.nodes.n == rows.len(), || {
                format!(
                    "portal_mix: Fig. 4 over {} jobs, a direct filter matches {}",
                    p.nodes.n,
                    rows.len()
                )
            });
            ck.check(p.nodes.counts == direct_counts(&nodes), || {
                format!(
                    "portal_mix: Fig. 4 node bins {:?} differ from a direct count",
                    p.nodes.counts
                )
            });
            ck.check(p.runtime.counts == direct_counts(&hours), || {
                format!(
                    "portal_mix: Fig. 4 runtime bins {:?} differ from a direct count",
                    p.runtime.counts
                )
            });
        }
        Served::Page(page) => {
            let fresh = render_job_detail(&mix.tsdb, jobid);
            ck.check(**page == *fresh, || {
                format!("portal_mix: served detail page of {jobid} differs from a fresh render")
            });
            ck.check(fresh.lines().count() > 6 * (1 + DETAIL_HOSTS), || {
                format!("portal_mix: detail page of {jobid} is missing series")
            });
        }
    }
}

/// Run whole rounds for at least `seconds` of wall time.
pub fn run(cfg: Cfg, seed: u64, seconds: f64, ck: &mut Checks) -> Phase {
    let mut acc = Acc::default();
    let mut setup_s = Vec::new();
    let mut rounds = 0u64;
    let t_run = std::time::Instant::now();
    while rounds == 0 || t_run.elapsed().as_secs_f64() < seconds {
        let traced = tracing();
        set_tracing(false);
        let t = stamp();
        let mut mix = Mix::build(cfg, seed);
        setup_s.push(t.secs());
        set_tracing(traced);
        // CPU time of the work between requests (write batches, the
        // `tsdb.range` probe, the checks), left out of the window, and
        // the block-cache lookups of the probe and the checks, left out
        // of the hit ratio. Spans cover the batches and the probe, so
        // they stay in the traced window.
        let (mut aside_ns, mut check_ns) = (0u64, 0u64);
        let (mut aside_hits, mut aside_lookups) = (0u64, 0u64);
        let block0 = mix.tsdb.cache_stats();
        let t_window = stamp();
        let write_jobs = cfg.write_jobs();
        for i in 0..cfg.requests {
            if i > 0 && i % cfg.write_every == 0 {
                let tw = stamp();
                for _ in 0..write_jobs {
                    mix.add_job(cfg.new_points);
                    acc.store_points += (DETAIL_HOSTS * 6 * cfg.new_points) as u64;
                }
                aside_ns += tw.ns();
            }
            set_req(i as u64);
            let kind = PATTERN[i % PATTERN.len()];
            let spec_idx = mix.skewed(mix.specs.len());
            let newest = mix.skewed(cfg.detail_jobs.min(mix.detail_ids.len()));
            let jobid = mix.detail_ids[mix.detail_ids.len() - 1 - newest].to_string();
            let now_secs = t0().as_secs() + (i as f64 * 3600.0 / REQUESTS_PER_HOUR) as u64;
            let Some(table) = mix.db.table(JOBS_TABLE) else {
                ck.check(false, || "portal_mix: no jobs table".into());
                break;
            };
            let (spec, wm) = (&mix.specs[spec_idx], mix.watermark);
            acc.attempted += 1;
            let t = stamp();
            begin("portal.request");
            let cache = &mut mix.cache;
            let pool = Some(&mix.pool);
            let served = match kind {
                Kind::Search => span("portal.search", || {
                    cache
                        .search(spec, table, pool, wm, now_secs)
                        .map(Served::Rows)
                }),
                Kind::Fig4 => span("portal.fig4", || {
                    cache
                        .fig4(spec, table, pool, wm, now_secs)
                        .map(Served::Panels)
                }),
                Kind::Detail => span("portal.detail", || {
                    Ok(Served::Page(
                        cache.job_detail(&mix.tsdb, &jobid, wm, now_secs),
                    ))
                }),
            };
            end();
            let us = t.us();
            let served = match served {
                Ok(s) => s,
                Err(e) => {
                    acc.failed += 1;
                    if acc.failed == 1 {
                        println!("# portal_mix: request {i} failed: {e}");
                    }
                    continue;
                }
            };
            acc.op_us.push(us);
            acc.by_kind[kind as usize].push(us);
            acc.requests += 1;
            let tp = stamp();
            let b0 = mix.tsdb.cache_stats();
            if kind == Kind::Detail {
                let host = format!("c5{:02}-000", jobid.parse::<u64>().unwrap_or(0) % 97);
                let key = SeriesKey::new(&host, "panel", &jobid, "gflops");
                let mut sum = 0.0;
                span("tsdb.range", || {
                    mix.tsdb.range_for_each(&key, 0, u64::MAX, |_, v| sum += v)
                });
                std::hint::black_box(sum);
            }
            aside_ns += tp.ns();
            let tc = stamp();
            if i % cfg.check_every == 0 {
                check_served(&mix, table, spec, &jobid, &served, ck);
            }
            let b1 = mix.tsdb.cache_stats();
            check_ns += tc.ns();
            aside_hits += b1.hits - b0.hits;
            aside_lookups += (b1.hits + b1.misses) - (b0.hits + b0.misses);
        }
        let loop_ns = t_window.ns().saturating_sub(check_ns);
        acc.trace_window_ns += loop_ns;
        acc.window_ns += loop_ns.saturating_sub(aside_ns);
        let s = mix.cache.stats();
        acc.cache_hits += s.hits;
        acc.cache_lookups += s.hits + s.misses;
        let b = mix.tsdb.cache_stats();
        acc.block_hits += b.hits - block0.hits - aside_hits;
        acc.block_lookups += (b.hits + b.misses) - (block0.hits + block0.misses) - aside_lookups;
        ck.check(s.rejected == 0, || {
            format!("portal_mix: {} cache inserts rejected", s.rejected)
        });
        rounds += 1;
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut layer: Layer = with_tracer(|t| {
        let store = t.agg("tsdb.store");
        vec![
            (
                "portal.allocs_per_query",
                t.allocs_total_per("portal.request"),
            ),
            ("jobdb.ingest_us", t.mean_us("jobdb.ingest")),
            ("tsdb.range_us", t.mean_us("tsdb.range")),
            (
                "tsdb.insert_us",
                store.total_ns as f64 / 1e3 / acc.store_points.max(1) as f64,
            ),
        ]
    });
    let request_p99 = percentile(&mut acc.op_us.clone(), 0.99);
    let [search, fig4, detail] = &mut acc.by_kind;
    layer.extend([
        ("portal.request_us_p99", request_p99),
        ("portal.search_us_p50", percentile(search, 0.5)),
        ("portal.fig4_us_p50", percentile(fig4, 0.5)),
        ("portal.detail_us_p50", percentile(detail, 0.5)),
        (
            "portal.cache_hit_ratio",
            ratio(acc.cache_hits, acc.cache_lookups),
        ),
        (
            "tsdb.block_cache_hit_ratio",
            ratio(acc.block_hits, acc.block_lookups),
        ),
    ]);
    Phase {
        setup_s,
        window_s: acc.window_ns as f64 / 1e9,
        trace_window_s: acc.trace_window_ns as f64 / 1e9,
        ops: acc.requests,
        op_us: acc.op_us,
        attempted: acc.attempted,
        failed: acc.failed,
        layer,
    }
}
