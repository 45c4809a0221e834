//! `fleet_ingest`: a daemon-mode fleet of simulated Stampede nodes
//! publishing one sample per host per tick into one bounded broker
//! queue, drained every tick by the consumer into the archive and a
//! durable tsdb on an in-memory disk. No queries run.
//!
//! One round builds a fresh fleet and runs a fixed number of ticks,
//! enough for every mirrored series to seal a block; rounds repeat
//! until the run's time is spent, so every run does whole rounds of the
//! same samples.

use crate::harness::{
    begin, end, percentile, set_req, set_tracing, span, stamp, tracing, with_tracer, Checks,
};
use crate::{Layer, Phase};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tacc_broker::{Broker, ShedPolicy};
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::record::Sample;
use tacc_collect::{Archive, Sampler};
use tacc_simnode::apps::{AppInstance, AppLibrary};
use tacc_simnode::intern::Sym;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimClock, SimCluster, SimDuration, SimNode, SimTime};
use tacc_tsdb::{DurOptions, MemVfs, SeriesKey, TsDb, DEFAULT_SHARDS};

const QUEUE: &str = "stats";
const INTERVAL_SECS: u64 = 600;
/// Device types whose per-sample value sums are mirrored into the tsdb.
const MIRRORED: [DeviceType; 3] = [DeviceType::Cpustat, DeviceType::Mdc, DeviceType::Lnet];
/// Small enough that each round compacts every shard several times.
const DUR: DurOptions = DurOptions {
    sync_every: 128,
    compact_wal_bytes: 256 << 10,
};

/// Fleet shape.
#[derive(Clone, Copy)]
pub struct Cfg {
    /// Simulated hosts; half of them run a 16-process job. Below 32 so
    /// `SimCluster::advance_all` stays on the calling thread.
    pub nodes: usize,
    /// Measured ticks per round (≥ 512 so every series seals a block).
    pub ticks: u64,
    /// Unmeasured ticks at the start of each round.
    pub warmup: u64,
    /// Hosts whose mirrored series are recomputed from the archive.
    pub check_hosts: usize,
}

impl Cfg {
    /// The benchmark's shape.
    pub fn full() -> Cfg {
        Cfg {
            nodes: 30,
            ticks: 600,
            warmup: 32,
            check_hosts: 4,
        }
    }

    /// A seconds-long shape with the same checks.
    pub fn smoke() -> Cfg {
        Cfg {
            nodes: 4,
            ticks: 520,
            warmup: 2,
            check_hosts: 2,
        }
    }
}

/// Broker transport that counts payload bytes and times the publish.
struct BenchPublisher {
    broker: Broker,
    bytes: Arc<AtomicU64>,
}

impl Publisher for BenchPublisher {
    fn publish(&mut self, queue: &str, routing_key: &str, _seq: u64, payload: Bytes) -> bool {
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        span("broker.publish", || {
            self.broker.publish(queue, routing_key, payload)
        })
    }
}

fn start() -> SimTime {
    SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
}

/// Per-device-type value sums of one sample, as mirrored.
fn mirrored_values(sample: &Sample) -> [Option<f64>; 3] {
    MIRRORED.map(|dt| {
        let mut any = false;
        let mut sum = 0u64;
        for rec in sample.devices_of(dt) {
            any = true;
            sum = rec.values.iter().fold(sum, |a, v| a.wrapping_add(*v));
        }
        any.then_some(sum as f64)
    })
}

/// Read the pseudo-files the collectors read: the simulator's text
/// generation, timed apart from the collectors' parsing.
fn read_collector_files(fs: &NodeFs<'_>) -> usize {
    let mut n = 0;
    let mut rd = |p: &str| n += fs.read(p).map_or(0, |t| t.len());
    rd("/proc/stat");
    rd("/proc/net/dev");
    rd("/proc/sys/lnet/stats");
    for d in fs.list("/sys/devices/system/node") {
        rd(&format!("/sys/devices/system/node/{d}/meminfo"));
    }
    for h in fs.list("/sys/class/infiniband") {
        for c in [
            "port_xmit_data",
            "port_rcv_data",
            "port_xmit_pkts",
            "port_rcv_pkts",
        ] {
            rd(&format!("/sys/class/infiniband/{h}/ports/1/counters/{c}"));
        }
    }
    for kind in ["llite", "mdc", "osc"] {
        for d in fs.list(&format!("/proc/fs/lustre/{kind}")) {
            rd(&format!("/proc/fs/lustre/{kind}/{d}/stats"));
        }
    }
    for c in fs.list("/sys/class/mic") {
        rd(&format!("/sys/class/mic/{c}/stats"));
    }
    for p in fs.list("/proc") {
        rd(&format!("/proc/{p}/status"));
        rd(&format!("/proc/{p}/stat"));
    }
    n
}

/// One round's fleet and pipeline.
struct Fleet {
    cfg: Cfg,
    cluster: SimCluster,
    apps: Vec<Option<AppInstance>>,
    daemons: Vec<TaccStatsd>,
    broker: Broker,
    consumer: StatsConsumer,
    archive: Arc<Archive>,
    vfs: MemVfs,
    tsdb: TsDb,
    host_idx: HashMap<Sym, usize>,
    keys: Vec<[SeriesKey; 3]>,
    msg_bytes: Arc<AtomicU64>,
    /// Collection time of each host's sample in the current tick.
    collect_us: Vec<f64>,
    points: u64,
    insert_errors: u64,
}

/// What the measured ticks of all rounds recorded.
#[derive(Default)]
struct Acc {
    /// Samples the daemons collected.
    collected: u64,
    /// Samples received and stored in full in archive and tsdb.
    samples: u64,
    system_ns: u64,
    window_ns: u64,
    /// Per measured tick, the CPU µs of its samples' collect and
    /// consume ÷ samples. Half the hosts are busy and their samples
    /// cost about twice an idle host's, so a median over single samples
    /// would sit on the gap between the two kinds and jump with the
    /// seed; a median over ticks, each holding both kinds, does not.
    op_us: Vec<f64>,
    collect_us: Vec<f64>,
    consume_us: Vec<f64>,
    peak_depth: usize,
    node_ticks: u64,
}

impl Fleet {
    fn build(cfg: Cfg, seed: u64) -> Fleet {
        let topo = NodeTopology::stampede();
        let mut rng = StdRng::seed_from_u64(seed);
        let hostnames: Vec<String> = (0..cfg.nodes)
            .map(|i| format!("c{}-{:03}", 401 + i / 100, i % 100))
            .collect();
        let mut order: Vec<usize> = (0..cfg.nodes).collect();
        crate::harness::shuffle(&mut order, &mut rng);
        let mut busy = vec![false; cfg.nodes];
        for &i in order.iter().take(cfg.nodes / 2) {
            busy[i] = true;
        }
        let library = AppLibrary::standard();
        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut apps = Vec::with_capacity(cfg.nodes);
        let mut jobids = Vec::with_capacity(cfg.nodes);
        for (i, host) in hostnames.iter().enumerate() {
            let mut node = SimNode::new(host, topo.clone());
            if busy[i] {
                let model = library.sample(&mut rng).clone();
                let app = model.instantiate(&mut rng, 1, topo.n_cores(), &topo);
                for _ in 0..topo.n_cores() {
                    node.spawn_process(app.exec_name(), 5000 + i as u32, 1, u64::MAX);
                }
                apps.push(Some(app));
                jobids.push(vec![(7_000_000 + seed % 1000 * 100 + i as u64).to_string()]);
            } else {
                apps.push(None);
                jobids.push(Vec::new());
            }
            nodes.push(node);
        }
        let cluster = SimCluster::from_nodes(SimClock::starting_at(start()), nodes);
        let broker = Broker::new();
        broker.declare_bounded(QUEUE, 2 * cfg.nodes, ShedPolicy::DropOldest);
        let archive = Arc::new(Archive::new());
        let consumer =
            StatsConsumer::new(&broker, QUEUE, Arc::clone(&archive)).expect("queue declared above");
        let vfs = MemVfs::new();
        let (tsdb, _) = TsDb::recover(Arc::new(vfs.clone()), DEFAULT_SHARDS, DUR)
            .expect("an empty in-memory disk opens");
        let msg_bytes = Arc::new(AtomicU64::new(0));
        let mut daemons = Vec::with_capacity(cfg.nodes);
        for (node, ids) in cluster.nodes().iter().zip(jobids) {
            let guard = node.read();
            let fs = NodeFs::new(&guard);
            let ncfg = discover(&fs, BuildOptions::default()).expect("a fresh node discovers");
            let mut d = TaccStatsd::new(
                Sampler::new(&guard.hostname, &ncfg),
                SimDuration::from_secs(INTERVAL_SECS),
                QUEUE,
                Box::new(BenchPublisher {
                    broker: broker.clone(),
                    bytes: Arc::clone(&msg_bytes),
                }),
                start(),
            );
            d.set_jobs(ids);
            daemons.push(d);
        }
        let host_idx = hostnames
            .iter()
            .enumerate()
            .map(|(i, h)| (Sym::new(h), i))
            .collect();
        let keys = hostnames
            .iter()
            .map(|h| MIRRORED.map(|dt| SeriesKey::new(h, dt.name(), "all", "sum")))
            .collect();
        Fleet {
            cfg,
            cluster,
            apps,
            daemons,
            broker,
            consumer,
            archive,
            vfs,
            tsdb,
            host_idx,
            keys,
            msg_bytes,
            collect_us: vec![0.0; cfg.nodes],
            points: 0,
            insert_errors: 0,
        }
    }

    /// One tick: advance the simulator, collect every host, drain the
    /// queue. Timings go to `acc` when given.
    fn tick(&mut self, k: u64, mut acc: Option<&mut Acc>, probe_fs: bool) {
        let interval = SimDuration::from_secs(INTERVAL_SECS);
        let now = start() + SimDuration::from_secs(k * INTERVAL_SECS);
        let t_frac = (k as f64 / (self.cfg.ticks + self.cfg.warmup) as f64).min(1.0);
        let t_tick = stamp();
        set_req(k);

        let t = stamp();
        begin("simnode.advance");
        let apps = &self.apps;
        self.cluster
            .advance_all(interval, |i| apps[i].as_ref().map(|a| a.demand(0, t_frac)));
        end();
        let advance_ns = t.ns();

        let mut probe_ns = 0u64;
        for (i, d) in self.daemons.iter_mut().enumerate() {
            let node = &self.cluster.nodes()[i];
            let guard = node.read();
            let fs = NodeFs::new(&guard);
            let t = stamp();
            begin("collect.tick");
            d.tick(&fs, now);
            end();
            self.collect_us[i] = t.us();
            if probe_fs {
                let t = stamp();
                span("simnode.pseudofs", || {
                    std::hint::black_box(read_collector_files(&fs))
                });
                probe_ns += t.ns();
            }
        }
        let depth = self.broker.lag(QUEUE).map_or(0, |l| l.depth);

        let (mut tick_op_us, mut tick_ops) = (0.0, 0u32);
        loop {
            let t = stamp();
            begin("consumer.consume");
            begin("consumer.poll");
            let got = self.consumer.poll_once(now, Duration::ZERO);
            end();
            let Some((host, sample)) = got else {
                end();
                break;
            };
            let idx = self.host_idx.get(&host).copied();
            let mut stored = false;
            if let Some(keys) = idx.and_then(|i| self.keys.get(i)) {
                let ts = sample.time.as_secs();
                stored = true;
                for (key, v) in keys.iter().zip(mirrored_values(&sample)) {
                    if let Some(v) = v {
                        begin("tsdb.insert");
                        let r = self.tsdb.try_insert(key.clone(), ts, v);
                        end();
                        stored &= r.is_ok();
                        self.insert_errors += r.is_err() as u64;
                        self.points += 1;
                    }
                }
            }
            end();
            let consume_us = t.us();
            if let Some(acc) = acc.as_deref_mut().filter(|_| stored) {
                let collect = idx.map_or(0.0, |i| self.collect_us[i]);
                tick_op_us += collect + consume_us;
                tick_ops += 1;
                acc.consume_us.push(consume_us);
                acc.samples += 1;
            }
        }

        if let Some(acc) = acc {
            if tick_ops > 0 {
                acc.op_us.push(tick_op_us / f64::from(tick_ops));
            }
            let tick_ns = t_tick.ns();
            acc.window_ns += tick_ns;
            acc.system_ns += tick_ns.saturating_sub(advance_ns + probe_ns);
            acc.collect_us.extend_from_slice(&self.collect_us);
            acc.peak_depth = acc.peak_depth.max(depth);
            acc.node_ticks += self.cfg.nodes as u64;
        }
    }
}

/// Checks run after each round, outside the measured window.
fn check_round(f: &Fleet, seed: u64, full: bool, ck: &mut Checks) {
    let cfg = f.cfg;
    let expected = cfg.nodes as u64 * (cfg.ticks + cfg.warmup);
    let collected: u64 = f.daemons.iter().map(|d| d.collected).sum();
    let c = &f.consumer;
    ck.check(collected == expected, || {
        format!("fleet_ingest: collected {collected} != {expected}")
    });
    ck.check(c.received == collected, || {
        format!(
            "fleet_ingest: received {} != collected {collected}",
            c.received
        )
    });
    ck.check(
        c.duplicates == 0 && c.gap_events == 0 && c.parse_failures == 0,
        || {
            format!(
                "fleet_ingest: duplicates {} gaps {} parse failures {}",
                c.duplicates, c.gap_events, c.parse_failures
            )
        },
    );
    let q = f
        .broker
        .stats()
        .queues
        .get(QUEUE)
        .copied()
        .unwrap_or_default();
    ck.check(q.shed() == 0, || {
        format!("fleet_ingest: {} messages shed", q.shed())
    });
    ck.check(f.archive.total_samples() as u64 == expected, || {
        format!(
            "fleet_ingest: archive holds {} samples, expected {expected}",
            f.archive.total_samples()
        )
    });
    ck.check(f.insert_errors == 0, || {
        format!("fleet_ingest: {} tsdb inserts failed", f.insert_errors)
    });
    ck.check(f.tsdb.n_sealed_blocks() >= 3 * cfg.nodes, || {
        format!(
            "fleet_ingest: {} sealed blocks for {} series",
            f.tsdb.n_sealed_blocks(),
            3 * cfg.nodes
        )
    });
    let flushed = f.tsdb.flush();
    ck.check(flushed.is_ok(), || {
        format!("fleet_ingest: flush failed: {flushed:?}")
    });
    if !full {
        return;
    }
    // Mirrored series against sums recomputed from the archive's own
    // re-parse, on a seeded subset of hosts.
    let recovered = TsDb::recover(Arc::new(f.vfs.crash_image()), DEFAULT_SHARDS, DUR);
    let Ok((rdb, report)) = recovered else {
        ck.check(false, || "fleet_ingest: recovery failed".to_string());
        return;
    };
    ck.check(report.points_recovered == f.points, || {
        format!(
            "fleet_ingest: recovered {} of {} flushed points",
            report.points_recovered, f.points
        )
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut hosts: Vec<usize> = (0..cfg.nodes).collect();
    crate::harness::shuffle(&mut hosts, &mut rng);
    let keys = f.archive.keys();
    for &i in hosts.iter().take(cfg.check_hosts) {
        let host = f.keys[i][0].host;
        let mut days: Vec<SimTime> = keys
            .iter()
            .filter(|(h, _)| *h == host)
            .map(|(_, d)| *d)
            .collect();
        days.sort();
        let mut want: [Vec<(u64, u64)>; 3] = Default::default();
        for day in days {
            match f.archive.parse(host.as_str(), day) {
                Some(Ok(rf)) => {
                    for s in &rf.samples {
                        for (j, v) in mirrored_values(s).into_iter().enumerate() {
                            if let Some(v) = v {
                                want[j].push((s.time.as_secs(), v.to_bits()));
                            }
                        }
                    }
                }
                other => ck.check(false, || {
                    format!(
                        "fleet_ingest: archive parse of {host} failed: {:?}",
                        other.map(|r| r.err())
                    )
                }),
            }
        }
        for (j, key) in f.keys[i].iter().enumerate() {
            want[j].sort_unstable();
            for (db, which) in [(&f.tsdb, "live"), (&rdb, "recovered")] {
                let got: Vec<(u64, u64)> = db
                    .range(key, 0, u64::MAX)
                    .iter()
                    .map(|p| (p.t, p.v.to_bits()))
                    .collect();
                ck.check(got == want[j], || {
                    format!(
                        "fleet_ingest: {which} series {host}/{} differs from the archive ({} vs {} points)",
                        MIRRORED[j].name(),
                        got.len(),
                        want[j].len()
                    )
                });
            }
        }
    }
}

/// Run whole rounds for at least `seconds` of wall time.
pub fn run(cfg: Cfg, seed: u64, seconds: f64, ck: &mut Checks) -> Phase {
    let mut acc = Acc::default();
    let mut setup_s = Vec::new();
    let mut rounds = 0u64;
    let (mut stored, mut archive_bytes, mut disk_bytes, mut points) = (0u64, 0u64, 0u64, 0u64);
    let (mut sample_ns, mut collections, mut sealed) = (0u64, 0u64, 0usize);
    let (mut msg_bytes, mut duplicates) = (0u64, 0u64);
    let t_run = std::time::Instant::now();
    while rounds == 0 || t_run.elapsed().as_secs_f64() < seconds {
        let traced = tracing();
        set_tracing(false);
        let t = stamp();
        let mut f = Fleet::build(cfg, seed);
        for k in 0..cfg.warmup {
            f.tick(k, None, false);
        }
        setup_s.push(t.secs());
        set_tracing(traced);
        let collected = |f: &Fleet| f.daemons.iter().map(|d| d.collected).sum::<u64>();
        let before = collected(&f);
        for k in cfg.warmup..cfg.warmup + cfg.ticks {
            f.tick(k, Some(&mut acc), k % 8 == 0);
        }
        acc.collected += collected(&f) - before;
        check_round(&f, seed, rounds == 0, ck);
        let r = f.archive.retention_stats();
        let a = (r.stored_bytes as u64) + r.evicted_bytes;
        let d = f
            .tsdb
            .durability_stats()
            .map_or(0, |s| s.wal_bytes + s.segment_bytes);
        archive_bytes += a;
        disk_bytes += d;
        stored += a + d;
        points += f.points;
        for dmn in &f.daemons {
            let acct = dmn.sampler().account();
            sample_ns += acct.real_nanos;
            collections += acct.collections;
        }
        sealed = f.tsdb.n_sealed_blocks();
        msg_bytes += f.msg_bytes.load(Ordering::Relaxed);
        duplicates += f.consumer.duplicates;
        rounds += 1;
    }
    let total_samples = rounds * cfg.nodes as u64 * (cfg.ticks + cfg.warmup);
    let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
    let mut layer: Layer = with_tracer(|t| {
        vec![
            (
                "simnode.advance_us_per_node",
                t.agg("simnode.advance").self_ns as f64 / 1e3 / acc.node_ticks.max(1) as f64,
            ),
            (
                "simnode.pseudofs_us_per_sample",
                t.self_us("simnode.pseudofs"),
            ),
            (
                "collect.allocs_per_sample",
                t.allocs_total_per("collect.tick"),
            ),
            ("broker.publish_us", t.mean_us("broker.publish")),
            ("consumer.poll_us", t.mean_us("consumer.poll")),
            (
                "consumer.allocs_per_msg",
                t.allocs_total_per("consumer.poll"),
            ),
            ("tsdb.insert_us", t.mean_us("tsdb.insert")),
        ]
    });
    layer.extend([
        ("collect.tick_us_p50", percentile(&mut acc.collect_us, 0.5)),
        ("collect.tick_us_p99", percentile(&mut acc.collect_us, 0.99)),
        ("collect.sample_us", per(sample_ns, collections) / 1e3),
        ("collect.msg_bytes", per(msg_bytes, total_samples)),
        ("broker.peak_depth", acc.peak_depth as f64),
        (
            "consumer.consume_us_p50",
            percentile(&mut acc.consume_us, 0.5),
        ),
        (
            "consumer.consume_us_p99",
            percentile(&mut acc.consume_us, 0.99),
        ),
        ("consumer.duplicates", duplicates as f64),
        (
            "archive.bytes_per_sample",
            per(archive_bytes, total_samples),
        ),
        ("tsdb.disk_bytes_per_point", per(disk_bytes, points)),
        ("tsdb.sealed_blocks", sealed as f64),
        ("store.bytes_per_sample", per(stored, total_samples)),
    ]);
    Phase {
        setup_s,
        window_s: acc.system_ns as f64 / 1e9,
        trace_window_s: acc.window_ns as f64 / 1e9,
        ops: acc.samples,
        op_us: acc.op_us,
        attempted: acc.collected,
        failed: acc.collected.saturating_sub(acc.samples),
        layer,
    }
}
