//! Metric names, summary statistics and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit; `BENCHMARK.json` lists the same names and units, and the smoke
//! tests check that the two agree.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One metric: its name, unit and which direction is an improvement.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("mine_gcycles", "Gcycles", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("colossal_recall", "ratio", "higher"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not pass through reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("io.parse_s", "s", "lower"),
    m("vertical.build_s", "s", "lower"),
    m("initial_pool.mine_s", "s", "lower"),
    m("initial_pool.rows", "count", "lower"),
    m("initial_pool.tid_mib", "MiB", "lower"),
    m("ball.build_s", "s", "lower"),
    m("ball.scan_s", "s", "lower"),
    m("ball.pairs", "count", "lower"),
    m("ball.exact_pairs", "count", "lower"),
    m("ball.members", "count", "lower"),
    m("ball.pruned_ratio", "ratio", "higher"),
    m("ball.hit_ratio", "ratio", "higher"),
    m("kernels.lane_bits", "bits", "higher"),
    m("kernels.ns_per_pair", "ns", "lower"),
    m("kernels.gib_moved", "GiB", "lower"),
    m("fusion.fuse_s", "s", "lower"),
    m("fusion.members_in", "count", "lower"),
    m("fusion.generated", "count", "lower"),
    m("closure.close_s", "s", "lower"),
    m("pool.intern_s", "s", "lower"),
    m("pool.materialize_s", "s", "lower"),
    m("algorithm.iterations", "count", "lower"),
    m("ball.maintain_s", "s", "lower"),
    m("ball.tombstoned", "count", "lower"),
    m("ball.inserted", "count", "lower"),
    m("ball.compactions", "count", "lower"),
    m("shard.partition_s", "s", "lower"),
    m("executor.shard_max_s", "s", "lower"),
    m("executor.shard_imbalance", "ratio", "lower"),
    m("executor.repair_iterations", "count", "lower"),
    m("delta.append_s", "s", "lower"),
    m("delta.dirty_items", "count", "lower"),
    m("delta.subtrees_remined", "count", "lower"),
    m("delta.rows_spliced", "count", "higher"),
    m("delta.index_carried", "ratio", "higher"),
    m("serve.read_p50_ms", "ms", "lower"),
    m("serve.read_p99_ms", "ms", "lower"),
    m("serve.topk_p50_ms", "ms", "lower"),
    m("serve.lookup_p50_ms", "ms", "lower"),
    m("serve.contain_p50_ms", "ms", "lower"),
    m("serve.similar_p50_ms", "ms", "lower"),
    m("serve.late_p99_ms", "ms", "lower"),
    m("serve.generation_build_s", "s", "lower"),
    m("serve.first_append_s", "s", "lower"),
    m("engine.mine_s", "s", "lower"),
    m("engine.cold_mine_s", "s", "lower"),
    m("trace.total_s", "s", "lower"),
    m("trace.unattributed_ratio", "ratio", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// Operation accounting: every mine and every request is one attempted
/// operation; a failed one records why.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Records one operation: `Ok` passes, `Err` fails with its reason.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.reasons.push(why);
                false
            }
        }
    }

    /// Folds another ledger (a second thread's) into this one.
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
    }
}

/// What a run measured and checked; [`Outcome::print`] renders it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub ledger: Ledger,
    /// Run-level checks that failed outside any one operation (pinned
    /// inputs, trace reconciliation).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0 && self.problems.is_empty() && self.ledger.attempted > 0
    }

    /// The result line for the given metric set. Metrics the run did not
    /// set are a bug in the benchmark, reported as a problem.
    pub fn result_line(&mut self, defs: &[MetricDef]) -> String {
        let mut metrics = String::new();
        for (i, def) in defs.iter().enumerate() {
            let value = match self.values.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {} is not finite ({v})", def.name));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {} was not measured", def.name));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.ledger.attempted.max(1),
            self.ledger.failed,
        )
    }

    /// Prints the notes, the failures and the result line (last).
    pub fn print(mut self, defs: &[MetricDef]) {
        let line = self.result_line(defs);
        for note in &self.notes {
            println!("{note}");
        }
        for why in self.ledger.reasons.iter().take(10) {
            println!("failed: {why}");
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        println!("{line}");
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The median of `values` (mean of the middle two for an even count); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`p` in 0..=100) of `values`; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size (`VmHWM`) of process `pid` in KiB, from
/// `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds on clock `clock`; `None` if it cannot be read.
fn clock_s(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the 64-bit Linux
    // layout, and clock_gettime writes only through that pointer.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return None;
    }
    Some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds process `pid` has used, all its threads, live and exited:
/// its process CPU-time clock (`clock_getcpuclockid`). Time the hypervisor
/// steals from the vCPUs is not in it. `None` once the process is gone.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let mut clock = 0;
    // SAFETY: `clock` is a live, writable clockid_t, the only memory
    // clock_getcpuclockid writes.
    if unsafe { clock_getcpuclockid(i32::try_from(pid).ok()?, &mut clock) } != 0 {
        return None;
    }
    clock_s(clock)
}

/// CPU seconds this process has used, all threads (see [`process_cpu_s`]).
pub fn own_cpu_s() -> f64 {
    process_cpu_s(std::process::id()).expect("a process can read its own CPU clock")
}

/// Seconds of CPU time the calling thread has used.
fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID).expect("a thread can read its CPU clock")
}

/// Steps of the clock probe's dependency chain: ~15 ms at 3 GHz.
const CLOCK_STEPS: u64 = 10_000_000;

/// Core cycles one step of the chain takes: a 64-bit multiply (3 cycles)
/// and an add that depends on it (1 cycle), on x86-64 cores of the last
/// decade. The chain cannot overlap steps, so it runs at this rate at any
/// clock speed and with any memory traffic around it.
const CYCLES_PER_STEP: f64 = 4.0;

/// The core clock in GHz, measured on the calling thread: the chain's
/// cycle count over the thread CPU time it took. The host moves the vCPUs'
/// clock by 10–20% as its own load changes; CPU seconds times the clock
/// gives the cycles a computation took, which that drift leaves alone.
pub fn clock_ghz() -> f64 {
    // Opaque to the compiler, so it can neither fold nor reassociate the
    // chain.
    let factor = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut x = std::hint::black_box(1u64);
    let t0 = thread_cpu_s();
    for i in 0..CLOCK_STEPS {
        x = x.wrapping_mul(factor).wrapping_add(i);
    }
    let s = thread_cpu_s() - t0;
    std::hint::black_box(x);
    CLOCK_STEPS as f64 * CYCLES_PER_STEP / s * 1e-9
}

/// Ids of the live threads of process `pid`, from `/proc/<pid>/task`.
pub fn thread_ids(pid: u32) -> BTreeSet<u32> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| task.file_name().to_str()?.parse().ok())
        .collect()
}

/// CPU nanoseconds live thread `tid` of process `pid` has used, from
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn thread_cpu_ns(pid: u32, tid: u32) -> Option<u64> {
    std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/schedstat"))
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds process `pid` has used outside the threads `excluded`: the
/// process total, exited threads included, less those threads' own. Work
/// counts whichever thread ran it, unless that thread is excluded. `None`
/// if the process or an excluded thread is gone.
pub fn net_cpu_s(pid: u32, excluded: &[u32]) -> Option<f64> {
    let excluded_ns: u64 = excluded
        .iter()
        .map(|&tid| thread_cpu_ns(pid, tid))
        .sum::<Option<u64>>()?;
    Some(process_cpu_s(pid)? - excluded_ns as f64 * 1e-9)
}

/// The host fingerprint stamped on every result: cores, kernel backend and
/// build profile.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = cfp_core::KernelBackend::active().name();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: nproc={nproc} kernel_backend={backend} profile={profile}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }

    #[test]
    fn result_line_reports_missing_metrics() {
        let mut out = Outcome::default();
        out.ledger.record(Ok(()));
        out.set("mine_gcycles", 1.25);
        let line = out.result_line(&END_TO_END[..2]);
        assert!(line.contains("\"mine_gcycles\": {\"value\": 1.25, \"unit\": \"Gcycles\"}"));
        assert!(!out.correct(), "setup_s was never set");
    }

    /// The calling thread's id, from `/proc/thread-self`.
    fn current_tid() -> u32 {
        std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse().ok())
            .expect("Linux names the calling thread")
    }

    /// Spins the calling thread for `d` of wall time; returns the CPU
    /// seconds the thread has used in all.
    fn spin(d: std::time::Duration) -> f64 {
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed() < d {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        thread_cpu_ns(std::process::id(), current_tid()).expect("own thread") as f64 * 1e-9
    }

    #[test]
    fn net_cpu_counts_exited_threads_and_leaves_out_excluded_ones() {
        let (pid, me) = (std::process::id(), current_tid());
        assert!(thread_ids(pid).contains(&me));
        let before = net_cpu_s(pid, &[me]).expect("own process");
        // Work on a thread that has exited by the second reading.
        let spent = std::thread::spawn(|| spin(std::time::Duration::from_millis(100)))
            .join()
            .expect("the spinning thread does not panic");
        let counted = net_cpu_s(pid, &[me]).expect("own process") - before;
        assert!(spent > 0.05, "{spent}");
        assert!(counted >= 0.9 * spent, "{counted} s counted of {spent} s");
        // Work on the excluded thread is left out.
        let mine = spin(std::time::Duration::from_millis(100));
        let net = net_cpu_s(pid, &[me]).expect("own process");
        let all = net_cpu_s(pid, &[]).expect("own process");
        assert!(all - net >= mine, "{} s left out of {mine} s", all - net);
    }

    #[test]
    fn clock_probe_reads_a_plausible_clock() {
        // A folded or vectorized chain would read far above any real clock.
        let ghz = clock_ghz();
        assert!((0.5..8.0).contains(&ghz), "{ghz} GHz");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }
}
