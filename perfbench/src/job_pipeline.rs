//! `job_pipeline`: the whole `MonitoringSystem` in daemon mode. A
//! seeded job stream runs through the scheduler on 64 nodes for a
//! simulated day, with online analysis, quantile sketches and the
//! tsdb mirror on, while one broker outage is ridden out by the spools.
//!
//! Beside it runs a replay probe on inputs that do not depend on the
//! seed: an idle 32-node system for a simulated day at a 0.5% ack-drop
//! rate. `core::system`'s chaos transport decides drops from `(seed,
//! host, seq)` alone, so every retransmission of a message whose ack was
//! dropped is dropped again and that host's in-order replay never gets
//! past it. The samples stranded this way are this workload's failed
//! operations, the same number in every round.
//!
//! Operations are the interval collections both systems schedule
//! (nodes × (intervals per day + 1)), a number fixed by the
//! configuration; prolog and epilog collections, which vary with the
//! seeded job stream, are delivered and counted in the throughput but
//! not as operations.

use crate::harness::{begin, end, percentile, set_req, stamp, Checks};
use crate::{Layer, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use tacc_core::config::{Mode, SystemConfig};
use tacc_core::online::OnlineConfig;
use tacc_core::system::{DeliveryReport, MonitoringSystem};
use tacc_jobdb::Value;
use tacc_metrics::accum::JobAccum;
use tacc_metrics::ingest::JOBS_TABLE;
use tacc_metrics::table1::MetricId;
use tacc_scheduler::workload::{WorkloadConfig, WorkloadGenerator};
use tacc_simnode::faults::{FaultPlan, Window};
use tacc_simnode::{SimDuration, SimTime};

/// System shape.
#[derive(Clone, Copy)]
pub struct Cfg {
    /// Nodes of the seeded system.
    pub nodes: usize,
    /// Jobs in the seeded stream.
    pub jobs: usize,
    /// Simulated hours each system runs.
    pub hours: u64,
    /// Of those, hours run before the measured window (set-up).
    pub warmup_hours: u64,
    /// Nodes of the replay probe.
    pub probe_nodes: usize,
    /// Finished jobs whose Table I row is recomputed from the archive.
    pub check_jobs: usize,
}

impl Cfg {
    /// The benchmark's shape.
    pub fn full() -> Cfg {
        Cfg {
            nodes: 64,
            jobs: 800,
            hours: 24,
            warmup_hours: 2,
            probe_nodes: 32,
            check_jobs: 6,
        }
    }

    /// A seconds-long shape with the same checks.
    pub fn smoke() -> Cfg {
        Cfg {
            nodes: 8,
            jobs: 6,
            hours: 6,
            warmup_hours: 1,
            probe_nodes: 4,
            check_jobs: 2,
        }
    }
}

/// The probe's fault-plan seed: fixed, so its stranded count is too.
const PROBE_SEED: u64 = 7;
const ACK_DROP: f64 = 0.005;
const INTERVALS_PER_HOUR: u64 = 6;

/// Time after an outage by which the spools have replayed their backlog
/// (the spool's backoff is capped at five minutes).
const REPLAY_MARGIN: SimDuration = SimDuration::from_secs(30 * 60);

fn t0() -> SimTime {
    SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
}

/// The seeded system's broker outage: one hour, a quarter into the run.
fn outage(cfg: Cfg) -> (SimTime, SimTime) {
    let start = t0() + SimDuration::from_secs(cfg.hours * 3600 / 4);
    (start, start + SimDuration::from_mins(60))
}

/// The seeded system and the number of jobs it was given.
fn seeded_system(cfg: Cfg, seed: u64) -> (MonitoringSystem, usize) {
    let mut sc = SystemConfig::small(cfg.nodes, Mode::daemon());
    sc.enable_tsdb = true;
    sc.seed = seed;
    let mut sys = MonitoringSystem::new(sc);
    sys.enable_online(OnlineConfig::default(), false);
    let (out_start, out_end) = outage(cfg);
    sys.set_fault_plan(FaultPlan {
        seed,
        broker_outages: vec![Window {
            start: out_start,
            end: out_end,
        }],
        ..FaultPlan::none()
    });
    let span = SimDuration::from_secs(cfg.hours * 3600 * 3 / 4);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        span,
        largemem_frac: 0.0,
        max_nodes: (cfg.nodes / 16).max(1),
        ..WorkloadConfig::q4_2015(seed, cfg.jobs)
    })
    .generate();
    let n = jobs.len();
    sys.enqueue_jobs(jobs);
    (sys, n)
}

fn probe_system(cfg: Cfg) -> MonitoringSystem {
    let mut sc = SystemConfig::small(cfg.probe_nodes, Mode::daemon());
    sc.seed = PROBE_SEED;
    let mut sys = MonitoringSystem::new(sc);
    sys.set_fault_plan(FaultPlan {
        seed: PROBE_SEED,
        drop_ack_prob: ACK_DROP,
        ..FaultPlan::none()
    });
    sys
}

/// What the measured steps of all rounds recorded.
#[derive(Default)]
struct Acc {
    window_ns: u64,
    steps: u64,
    /// Samples delivered in the measured windows.
    delivered: u64,
    /// Samples delivered over whole rounds, and in their warm-up hours.
    day_delivered: u64,
    warm_delivered: u64,
    step_us: Vec<f64>,
    peak_depth: usize,
    collect_ns: u64,
    collections: u64,
    duplicates: u64,
    stranded: u64,
    sealed: usize,
    archive_bytes: u64,
}

/// Step `sys` up to `end_t`, timing each step; step times of the seeded
/// system (`record_steps`) are the workload's operation latencies.
fn drive(sys: &mut MonitoringSystem, end_t: SimTime, acc: &mut Acc, record_steps: bool) {
    let queue = "tacc_stats";
    while sys.clock().now() < end_t {
        acc.steps += 1;
        set_req(acc.steps);
        let t = stamp();
        begin("core.step");
        sys.step_once();
        end();
        let ns = t.ns();
        acc.window_ns += ns;
        if record_steps {
            acc.step_us.push(ns as f64 / 1e3);
        }
        if let Some(lag) = sys.broker().and_then(|b| b.lag(queue)) {
            acc.peak_depth = acc.peak_depth.max(lag.depth);
        }
    }
}

fn balanced(r: &DeliveryReport) -> bool {
    r.collected == r.delivered + r.dropped + r.lost + r.in_spool
}

/// Table I values of one stored row against a batch recomputation.
fn check_table1(sys: &MonitoringSystem, cfg: Cfg, seed: u64, ck: &mut Checks) {
    let Some(table) = sys.db().table(JOBS_TABLE) else {
        ck.check(false, || "job_pipeline: no jobs table".into());
        return;
    };
    let raw = match sys.archive().parse_all() {
        Ok(r) => r,
        Err(e) => return ck.check(false, || format!("job_pipeline: archive parse failed: {e}")),
    };
    let Some(id_col) = table.schema().index_of("jobid") else {
        return ck.check(false, || "job_pipeline: no jobid column".into());
    };
    // A job that ends while its samples wait in the spools for the
    // broker is ingested before they arrive, so its stored row lacks
    // them; such jobs are left out of this check (see CHANGES.md).
    let (out_start, out_end) = outage(cfg);
    let end_col = table.schema().index_of("end");
    let mut rows: Vec<_> = table
        .rows()
        .iter()
        .filter(|r| {
            let end = end_col.and_then(|c| r.get(c).as_i64()).unwrap_or(0) as u64;
            end < out_start.as_secs() || end >= (out_end + REPLAY_MARGIN).as_secs()
        })
        .collect();
    crate::harness::shuffle(&mut rows, &mut StdRng::seed_from_u64(seed ^ 0x7ab1e));
    for row in rows.iter().take(cfg.check_jobs) {
        let Some(id) = row.get(id_col).as_i64() else {
            continue;
        };
        let batch = JobAccum::from_raw_files(&raw, &id.to_string()).finalize();
        for m in MetricId::ALL {
            let stored = table
                .schema()
                .index_of(m.label())
                .map(|i| row.get(i))
                .and_then(Value::as_f64);
            let want = batch.get(m);
            let same = match (stored, want) {
                (Some(a), Some(b)) => a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                (None, None) => true,
                _ => false,
            };
            ck.check(same, || {
                format!(
                    "job_pipeline: job {id} {} stored {stored:?}, batch recomputation {want:?}",
                    m.label()
                )
            });
        }
    }
}

fn check_round(
    sys: &MonitoringSystem,
    probe: &MonitoringSystem,
    n_jobs: usize,
    cfg: Cfg,
    seed: u64,
    full: bool,
    ck: &mut Checks,
) {
    let (r, p) = (sys.delivery_report(), probe.delivery_report());
    ck.check(balanced(&r) && balanced(&p), || {
        format!("job_pipeline: delivery ledger does not balance: {r:?} / {p:?}")
    });
    ck.check(r.in_spool + r.dropped + r.lost == 0, || {
        format!("job_pipeline: the outage was not ridden out: {r:?}")
    });
    ck.check(p.dropped + p.lost == 0, || {
        format!("job_pipeline: the probe lost samples outside its spools: {p:?}")
    });
    let periodic = cfg.nodes as u64 * (cfg.hours * INTERVALS_PER_HOUR + 1);
    ck.check(r.collected >= periodic, || {
        format!(
            "job_pipeline: {} samples collected, {periodic} intervals scheduled",
            r.collected
        )
    });
    // Finished jobs leave the scheduler when they are ingested, so
    // every job given to the system is either still known to the
    // scheduler or has exactly one jobdb row.
    let live: HashSet<i64> = sys.scheduler().jobs().map(|j| j.id as i64).collect();
    let rows: Vec<i64> = sys
        .db()
        .table(JOBS_TABLE)
        .map(|t| {
            let c = t.schema().index_of("jobid").unwrap_or(0);
            t.rows()
                .iter()
                .filter_map(|row| row.get(c).as_i64())
                .collect()
        })
        .unwrap_or_default();
    let distinct: HashSet<i64> = rows.iter().copied().collect();
    ck.check(
        !rows.is_empty()
            && distinct.len() == rows.len()
            && rows.len() + live.len() == n_jobs
            && distinct.is_disjoint(&live),
        || {
            format!(
                "job_pipeline: {n_jobs} jobs given, {} rows ({} distinct), {} still scheduled",
                rows.len(),
                distinct.len(),
                live.len()
            )
        },
    );
    if full {
        check_table1(sys, cfg, seed, ck);
    }
}

/// Run whole rounds for at least `seconds` of wall time.
pub fn run(cfg: Cfg, seed: u64, seconds: f64, ck: &mut Checks) -> Phase {
    let mut acc = Acc::default();
    let mut setup_s = Vec::new();
    let mut rounds = 0u64;
    let t_run = std::time::Instant::now();
    let end_t = t0() + SimDuration::from_secs(cfg.hours * 3600);
    while rounds == 0 || t_run.elapsed().as_secs_f64() < seconds {
        let t = stamp();
        let (mut sys, n_jobs) = seeded_system(cfg, seed);
        let mut probe = probe_system(cfg);
        let warm = t0() + SimDuration::from_secs(cfg.warmup_hours * 3600);
        sys.run_until(warm);
        probe.run_until(warm);
        setup_s.push(t.secs());
        let warm_delivered = sys.delivery_report().delivered + probe.delivery_report().delivered;
        drive(&mut sys, end_t, &mut acc, true);
        drive(&mut probe, end_t, &mut acc, false);
        check_round(&sys, &probe, n_jobs, cfg, seed, rounds == 0, ck);
        for s in [&sys, &probe] {
            let r = s.delivery_report();
            acc.day_delivered += r.delivered;
            acc.duplicates += r.duplicates;
            acc.stranded += r.in_spool;
            let o = s.overhead();
            acc.collect_ns += o.real_nanos;
            acc.collections += o.collections;
            let a = s.archive().retention_stats();
            acc.archive_bytes += a.stored_bytes as u64 + a.evicted_bytes;
        }
        acc.delivered = acc.day_delivered - acc.warm_delivered - warm_delivered;
        acc.warm_delivered += warm_delivered;
        acc.sealed = sys.tsdb().map_or(0, |t| t.n_sealed_blocks());
        rounds += 1;
    }
    let per_round = (cfg.nodes + cfg.probe_nodes) as u64 * (cfg.hours * INTERVALS_PER_HOUR + 1);
    let layer: Layer = vec![
        ("core.step_ms_p50", percentile(&mut acc.step_us, 0.5) / 1e3),
        ("core.step_ms_p99", percentile(&mut acc.step_us, 0.99) / 1e3),
        (
            "core.collect_real_us",
            acc.collect_ns as f64 / 1e3 / acc.collections.max(1) as f64,
        ),
        ("broker.peak_depth", acc.peak_depth as f64),
        ("consumer.duplicates", acc.duplicates as f64 / rounds as f64),
        ("spool.stranded", acc.stranded as f64 / rounds as f64),
        ("tsdb.sealed_blocks", acc.sealed as f64),
        (
            "archive.bytes_per_sample",
            acc.archive_bytes as f64 / acc.day_delivered.max(1) as f64,
        ),
    ];
    Phase {
        setup_s,
        window_s: acc.window_ns as f64 / 1e9,
        trace_window_s: acc.window_ns as f64 / 1e9,
        ops: acc.delivered,
        op_us: acc.step_us,
        attempted: rounds * per_round,
        failed: acc.stranded,
        layer,
    }
}
