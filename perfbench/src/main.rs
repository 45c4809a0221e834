//! End-to-end and per-layer benchmark of the monitoring pipeline.
//!
//! ```text
//! perfbench --workload <fleet_ingest|portal_mix|job_pipeline> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every time is process CPU time (all threads), which leaves out time
//! the hypervisor steals; `--seconds` bounds the run in wall time. The
//! process pins itself to one CPU before it starts any work, so no
//! thread of it contends with another for the host's cores.
//! With `--trace 0` the run measures the end-to-end metrics with no
//! spans recorded. With `--trace 1` it runs the workload untraced,
//! traced and untraced again for a third of the time each, reports the
//! per-layer metrics from the traced third and the throughput
//! difference as the tracing overhead, and writes the spans to
//! `$CARGO_TARGET_DIR/perfbench-traces/` (default `.bench_build`).
//! The last line of standard output is the result as one JSON object.
//! See README.md for the metrics and workloads.

mod fleet_ingest;
mod harness;
mod job_pipeline;
mod portal_mix;

use harness::{median, percentile, Checks, Metrics, Outcome};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// Per-layer values a workload measured, by metric name.
pub type Layer = Vec<(&'static str, f64)>;

/// What one measured phase of a workload produced.
pub struct Phase {
    /// CPU seconds of each round's set-up (construction, fixtures,
    /// warm-up).
    pub setup_s: Vec<f64>,
    /// CPU seconds of the measured window that throughput is over.
    pub window_s: f64,
    /// CPU seconds of everything the spans can cover (the window plus
    /// simulator time where the window excludes it).
    pub trace_window_s: f64,
    /// Operations completed in `window_s`.
    pub ops: u64,
    /// CPU µs of each operation (`fleet_ingest`: per sample, one value
    /// per tick).
    pub op_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Per-layer values.
    pub layer: Layer,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.window_s.max(1e-9)
    }
}

/// The per-layer metrics every traced run prints, with units. A
/// workload that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 34] = [
    ("simnode.advance_us_per_node", "us"),
    ("simnode.pseudofs_us_per_sample", "us"),
    ("collect.tick_us_p50", "us"),
    ("collect.tick_us_p99", "us"),
    ("collect.sample_us", "us"),
    ("collect.allocs_per_sample", "count"),
    ("collect.msg_bytes", "B"),
    ("broker.publish_us", "us"),
    ("broker.peak_depth", "count"),
    ("consumer.consume_us_p50", "us"),
    ("consumer.consume_us_p99", "us"),
    ("consumer.poll_us", "us"),
    ("consumer.allocs_per_msg", "count"),
    ("consumer.duplicates", "count"),
    ("spool.stranded", "count"),
    ("archive.bytes_per_sample", "B"),
    ("tsdb.insert_us", "us"),
    ("tsdb.disk_bytes_per_point", "B"),
    ("tsdb.sealed_blocks", "count"),
    ("tsdb.range_us", "us"),
    ("tsdb.block_cache_hit_ratio", "ratio"),
    ("store.bytes_per_sample", "B"),
    ("portal.search_us_p50", "us"),
    ("portal.fig4_us_p50", "us"),
    ("portal.detail_us_p50", "us"),
    ("portal.request_us_p99", "us"),
    ("portal.cache_hit_ratio", "ratio"),
    ("portal.allocs_per_query", "count"),
    ("jobdb.ingest_us", "us"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_p99", "ms"),
    ("core.collect_real_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.remainder_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run the seconds-long shapes the tests use.
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Run one phase of `workload`.
fn run_phase(a: &Args, seconds: f64, ck: &mut Checks) -> Result<Phase, String> {
    Ok(match a.workload.as_str() {
        "fleet_ingest" => {
            let cfg = if a.smoke {
                fleet_ingest::Cfg::smoke()
            } else {
                fleet_ingest::Cfg::full()
            };
            fleet_ingest::run(cfg, a.seed, seconds, ck)
        }
        "portal_mix" => {
            let cfg = if a.smoke {
                portal_mix::Cfg::smoke()
            } else {
                portal_mix::Cfg::full()
            };
            portal_mix::run(cfg, a.seed, seconds, ck)
        }
        "job_pipeline" => {
            let cfg = if a.smoke {
                job_pipeline::Cfg::smoke()
            } else {
                job_pipeline::Cfg::full()
            };
            job_pipeline::run(cfg, a.seed, seconds, ck)
        }
        w => return Err(format!("unknown workload {w:?}")),
    })
}

/// Run the benchmark as `a` asks.
fn run(a: &Args) -> Result<Outcome, String> {
    let mut ck = Checks::new();
    let mut metrics = Metrics::default();
    let (phase, attempted, failed) = if !a.trace {
        harness::trace_reset(false);
        let mut p = run_phase(a, a.seconds, &mut ck)?;
        println!(
            "# {} rounds, {} ops in a {:.3} s window",
            p.setup_s.len(),
            p.ops,
            p.window_s
        );
        metrics.put("setup_s", median(&mut p.setup_s), "s");
        metrics.put("peak_rss_mib", harness::peak_rss_mib(), "MiB");
        metrics.put("ops_per_cpu_s", p.throughput(), "1/s");
        metrics.put("op_cpu_us_p50", percentile(&mut p.op_us, 0.5), "us");
        let (at, fa) = (p.attempted, p.failed);
        (p, at, fa)
    } else {
        // Untraced, traced, untraced: the traced third sits between two
        // untraced ones, so warming up does not pass for tracing cost.
        let third = a.seconds / 3.0;
        harness::trace_reset(false);
        let before = run_phase(a, third, &mut ck)?;
        harness::trace_reset(true);
        let traced = run_phase(a, third, &mut ck)?;
        harness::set_tracing(false);
        let after = run_phase(a, third, &mut ck)?;
        let plain = (before.throughput() + after.throughput()) / 2.0;
        let overhead = (plain / traced.throughput() - 1.0) * 100.0;
        println!(
            "# untraced {:.1} and {:.1} ops per CPU second, traced {:.1}",
            before.throughput(),
            after.throughput(),
            traced.throughput()
        );
        let remainder = harness::with_tracer(|t| t.print_breakdown(traced.trace_window_s));
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-traces")
            .join(format!("{}-{}.tsv", a.workload, a.seed));
        match harness::with_tracer(|t| t.write(&path)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.overhead_pct" => overhead,
                "trace.remainder_pct" => remainder,
                _ => traced
                    .layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            metrics.put(name, v, unit);
        }
        let (at, fa) = (
            before.attempted + traced.attempted + after.attempted,
            before.failed + traced.failed + after.failed,
        );
        (traced, at, fa)
    };
    for (name, v) in &phase.layer {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            return Err(format!("workload reported unlisted metric {name}"));
        }
        println!("# {name} = {v}");
    }
    Ok(Outcome {
        correct: ck.ok(),
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    match harness::pin_to_one_cpu() {
        Some(cpu) => println!("# pinned to CPU {cpu}"),
        None => println!("# not pinned: CPU affinity unavailable"),
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_ingest|portal_mix|job_pipeline> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(o) => println!("{}", harness::result_line(&o)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let a = Args {
            workload: workload.into(),
            seed: 3,
            seconds: 0.01,
            trace,
            smoke: true,
        };
        run(&a).expect("the workload runs")
    }

    #[test]
    fn fleet_ingest_smoke_passes_its_checks() {
        let o = smoke("fleet_ingest", false);
        assert!(o.correct);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
    }

    #[test]
    fn portal_mix_smoke_passes_its_checks() {
        let o = smoke("portal_mix", false);
        assert!(o.correct);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
    }

    #[test]
    fn traced_smoke_prints_every_per_layer_metric() {
        let o = smoke("portal_mix", true);
        assert!(o.correct);
        for (name, unit) in PER_LAYER {
            assert!(
                o.metrics.0.iter().any(|(n, _, u)| *n == name && *u == unit),
                "{name} missing"
            );
        }
    }

    #[test]
    fn job_pipeline_smoke_passes_its_checks() {
        let o = smoke("job_pipeline", false);
        assert!(o.correct);
        assert!(o.attempted > o.failed);
    }
}
