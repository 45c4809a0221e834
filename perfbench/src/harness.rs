//! Measurement plumbing shared by the workloads: a counting global
//! allocator, an in-memory span recorder with self-time accounting,
//! percentiles, peak RSS, and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while [`COUNTING`] is set; otherwise it costs one
/// relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations counted so far (all threads).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values; sorts
/// in place. 0 for an empty slice.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of unsorted values.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// glibc's `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Confine the calling thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on; returns that CPU. Called before
/// any thread starts, this makes `available_parallelism` read 1, so the
/// program's own fan-outs (`SimCluster::advance_all`) run inline
/// instead of starting fresh threads on every call.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set = CpuSet([0; 16]);
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a valid, exclusively borrowed mask of `size`
    // bytes that the call only writes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid mask of `size` bytes that the call only
    // reads; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// CPU time consumed by this process (all threads) in ns. The kernel
/// leaves time stolen by the hypervisor out of it, so figures built on
/// it hold still while the host's steal share moves.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux) that the call only writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on the process CPU clock.
#[derive(Clone, Copy)]
pub struct Stamp(u64);

/// The process CPU clock now.
pub fn stamp() -> Stamp {
    Stamp(cpu_ns())
}

impl Stamp {
    /// CPU ns since this stamp.
    pub fn ns(self) -> u64 {
        cpu_ns().saturating_sub(self.0)
    }

    /// CPU µs since this stamp.
    pub fn us(self) -> f64 {
        self.ns() as f64 / 1e3
    }

    /// CPU seconds since this stamp.
    pub fn secs(self) -> f64 {
        self.ns() as f64 / 1e9
    }
}

/// One closed span as written to the trace file.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

struct Open {
    name: &'static str,
    idx: u32,
    start_ns: u64,
    child_ns: u64,
    allocs0: u64,
    child_allocs: u64,
}

/// Totals for one span name.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocations made inside the span, children excluded.
    pub self_allocs: u64,
    /// Allocations made inside the span, children included.
    pub allocs: u64,
}

const NO_PARENT: u32 = u32::MAX;
/// Spans kept for the trace file; spans past this are still aggregated.
const MAX_KEPT: usize = 1 << 20;

/// Span recorder on the process CPU clock. Spans nest through an
/// explicit stack, self time and allocations are folded per name as
/// spans close, and the first [`MAX_KEPT`] spans are kept for
/// [`Tracer::write`].
pub struct Tracer {
    stack: Vec<Open>,
    kept: Vec<Span>,
    next_idx: u32,
    /// Identifier shared by the spans of one operation.
    pub req: u64,
    agg: BTreeMap<&'static str, Agg>,
    root_ns: u64,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            stack: Vec::with_capacity(16),
            kept: Vec::new(),
            next_idx: 0,
            req: 0,
            agg: BTreeMap::new(),
            root_ns: 0,
        }
    }

    /// Open a span named `layer.call`.
    pub fn begin(&mut self, name: &'static str) {
        let idx = self.next_idx;
        self.next_idx = self.next_idx.wrapping_add(1);
        let start_ns = cpu_ns();
        self.stack.push(Open {
            name,
            idx,
            start_ns,
            child_ns: 0,
            allocs0: allocs(),
            child_allocs: 0,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = cpu_ns();
        let a1 = allocs();
        let Some(o) = self.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(o.start_ns);
        let span_allocs = a1.saturating_sub(o.allocs0);
        let e = self.agg.entry(o.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(o.child_ns);
        e.self_allocs += span_allocs.saturating_sub(o.child_allocs);
        e.allocs += span_allocs;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_allocs += span_allocs;
                p.idx
            }
            None => {
                self.root_ns += dur;
                NO_PARENT
            }
        };
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Span {
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
                parent,
                req: self.req,
            });
        }
    }

    /// Totals for one span name (zeros if it never closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Mean self time of `name` in µs.
    pub fn self_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.self_ns as f64 / 1e3 / a.count as f64
        }
    }

    /// Mean total time of `name` in µs.
    pub fn mean_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / 1e3 / a.count as f64
        }
    }

    /// Mean allocations of `name` per span, children included.
    pub fn allocs_total_per(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.allocs as f64 / a.count as f64
        }
    }

    /// Print self time per layer (the span-name prefix before the first
    /// `.`) against a measured window of `window_s` seconds, with the
    /// part of the window no span covers as the remainder. Returns the
    /// remainder as a percentage of the window.
    pub fn print_breakdown(&self, window_s: f64) -> f64 {
        let window_ns = window_s * 1e9;
        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        for (name, a) in &self.agg {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += a.self_ns;
        }
        println!("# self time by layer over a {window_s:.3} s window");
        for (layer, ns) in &layers {
            println!(
                "#   {layer:<10} {:>10.3} s {:>6.2}%",
                *ns as f64 / 1e9,
                100.0 * *ns as f64 / window_ns
            );
        }
        let remainder = (window_ns - self.root_ns as f64).max(0.0);
        println!(
            "#   {:<10} {:>10.3} s {:>6.2}%",
            "(untraced)",
            remainder / 1e9,
            100.0 * remainder / window_ns
        );
        for (name, a) in &self.agg {
            println!(
                "#   span {name:<28} n={:<9} self {:>10.3} us/op  {:>8.2} allocs/op",
                a.count,
                a.self_ns as f64 / 1e3 / a.count.max(1) as f64,
                a.self_allocs as f64 / a.count.max(1) as f64
            );
        }
        100.0 * remainder / window_ns
    }

    /// Write the kept spans as tab-separated `index name start_ns end_ns
    /// parent req` lines (`parent` is `-` for a root span).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.kept.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(
                    w,
                    "{i}\t{}\t{}\t{}\t-\t{}",
                    s.name, s.start_ns, s.end_ns, s.req
                )?;
            } else {
                writeln!(
                    w,
                    "{i}\t{}\t{}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.end_ns, s.parent, s.req
                )?;
            }
        }
        w.flush()
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Replace this thread's tracer with a fresh one, recording iff `on`.
pub fn trace_reset(on: bool) {
    set_tracing(on);
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Whether spans are being recorded.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Pause (`false`) or resume (`true`) recording on the current tracer,
/// e.g. around set-up work outside the measured window.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
    COUNTING.store(on, Ordering::Relaxed);
}

/// Open a span on this thread's tracer (no-op when tracing is off).
pub fn begin(name: &'static str) {
    if TRACING.load(Ordering::Relaxed) {
        TRACER.with(|t| t.borrow_mut().begin(name));
    }
}

/// Close the innermost span on this thread's tracer.
pub fn end() {
    if TRACING.load(Ordering::Relaxed) {
        TRACER.with(|t| t.borrow_mut().end());
    }
}

/// Run `f` inside a span on this thread's tracer.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    begin(name);
    let r = f();
    end();
    r
}

/// Set the operation identifier stamped on spans from now on.
pub fn set_req(req: u64) {
    if TRACING.load(Ordering::Relaxed) {
        TRACER.with(|t| t.borrow_mut().req = req);
    }
}

/// Read this thread's tracer.
pub fn with_tracer<R>(f: impl FnOnce(&Tracer) -> R) -> R {
    TRACER.with(|t| f(&t.borrow()))
}

/// Ordered `name → (value, unit)` map printed as the result line.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Record one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The outcome of one workload run.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics to print.
    pub metrics: Metrics,
}

/// The result line: one JSON object.
pub fn result_line(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        fields.join(", ")
    )
}

/// A failed correctness check: printed, and the run marked incorrect.
pub struct Checks {
    /// Failures seen so far.
    pub failures: Vec<String>,
}

impl Checks {
    /// No failures yet.
    pub fn new() -> Checks {
        Checks {
            failures: Vec::new(),
        }
    }

    /// Record `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("# CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("a.outer");
        t.begin("b.inner");
        let spin = stamp();
        while spin.ns() < 2_000_000 {
            std::hint::black_box(0);
        }
        t.end();
        t.end();
        let (outer, inner) = (t.agg("a.outer"), t.agg("b.inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.root_ns, outer.total_ns);
    }
}
