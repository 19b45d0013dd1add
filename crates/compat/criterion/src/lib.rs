//! Offline stand-in for the subset of the `criterion` API this workspace
//! uses.
//!
//! The build environment has no crates.io access; this crate implements a
//! small wall-clock benchmark harness with criterion's call surface:
//! [`Criterion::benchmark_group`], group `sample_size` / `warm_up_time` /
//! `measurement_time` builders, [`BenchmarkGroup::bench_function`] and
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`black_box`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurements: after warm-up, each of `sample_size` samples runs the
//! closure in a batch sized to fill `measurement_time / sample_size`, and the
//! reported statistics are the min / median / max of the per-iteration means.
//! [`BenchmarkGroup::bench_alternating`] (not in upstream criterion) times
//! two closures in alternating samples, so a change in the machine's speed
//! during the run lands on both sides of a ratio alike.
//! Results are also collected on the [`Criterion`] so callers (the ball-query
//! bench) can export machine-readable summaries.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A completed measurement of one benchmark.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Full benchmark id (`group/function/param`).
    pub id: String,
    /// Minimum per-iteration time across samples.
    pub min: Duration,
    /// Median per-iteration time across samples.
    pub median: Duration,
    /// Maximum per-iteration time across samples.
    pub max: Duration,
    /// Total iterations executed during measurement.
    pub iterations: u64,
}

/// Benchmark identifier: function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter rendered via `Display`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }

    /// An id from a parameter only.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            name: String::new(),
            parameter: parameter.to_string(),
        }
    }

    fn render(&self) -> String {
        if self.parameter.is_empty() {
            self.name.clone()
        } else if self.name.is_empty() {
            self.parameter.clone()
        } else {
            format!("{}/{}", self.name, self.parameter)
        }
    }
}

/// Per-iteration timing driver passed to benchmark closures.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    result: Option<(Vec<Duration>, u64)>,
}

impl Bencher {
    /// Times `f`, running it repeatedly to fill the configured measurement
    /// window.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let batch = self.warm_up(&mut f);
        let samples = (0..self.sample_size.max(1))
            .map(|_| time_batch(&mut f, batch))
            .collect::<Vec<_>>();
        self.result = Some((samples, batch * self.sample_size.max(1) as u64));
    }

    /// Runs `f` until the warm-up window elapses, and returns the batch size
    /// that fills one sample's share of the measurement window.
    fn warm_up<O>(&self, f: &mut impl FnMut() -> O) -> u64 {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() as u64 / warm_iters.max(1);
        let per_sample = self.measurement.as_nanos() as u64 / self.sample_size.max(1) as u64;
        (per_sample / per_iter.max(1)).max(1)
    }
}

/// The per-iteration mean of one batch of `batch` runs of `f`.
fn time_batch<O>(f: &mut impl FnMut() -> O, batch: u64) -> Duration {
    let t0 = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t0.elapsed() / batch as u32
}

/// A named group of benchmarks sharing timing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up window.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl IntoBenchmarkId, f: impl FnMut(&mut Bencher)) {
        let id = id.into_benchmark_id().render();
        self.run(&id, f);
    }

    /// Runs one benchmark with an input handle.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let id = id.render();
        self.run(&id, |b| f(b, input));
    }

    /// Times `a` and `b` in alternating samples — a, b, a, b, … — after
    /// warming each up, and records each under its own id. A slowdown of
    /// the machine mid-run then hits both sides alike instead of only the
    /// one that happened to be running, which keeps a ratio of the two
    /// honest.
    pub fn bench_alternating<A, B>(
        &mut self,
        id_a: impl IntoBenchmarkId,
        mut a: impl FnMut() -> A,
        id_b: impl IntoBenchmarkId,
        mut b: impl FnMut() -> B,
    ) {
        let bencher = self.bencher();
        let (batch_a, batch_b) = (bencher.warm_up(&mut a), bencher.warm_up(&mut b));
        let n = self.sample_size.max(1);
        let (mut samples_a, mut samples_b) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            samples_a.push(time_batch(&mut a, batch_a));
            samples_b.push(time_batch(&mut b, batch_b));
        }
        self.record(
            &id_a.into_benchmark_id().render(),
            samples_a,
            batch_a * n as u64,
        );
        self.record(
            &id_b.into_benchmark_id().render(),
            samples_b,
            batch_b * n as u64,
        );
    }

    fn bencher(&self) -> Bencher {
        Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            sample_size: self.sample_size,
            result: None,
        }
    }

    fn run(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = self.bencher();
        f(&mut bencher);
        let Some((samples, iterations)) = bencher.result else {
            return; // closure never called iter()
        };
        self.record(id, samples, iterations);
    }

    fn record(&mut self, id: &str, mut samples: Vec<Duration>, iterations: u64) {
        samples.sort_unstable();
        let m = Measurement {
            id: format!("{}/{}", self.name, id),
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
            iterations,
        };
        println!(
            "{:<60} time: [{:>12} {:>12} {:>12}]",
            m.id,
            fmt_ns(m.min),
            fmt_ns(m.median),
            fmt_ns(m.max)
        );
        self.criterion.measurements.push(m);
    }

    /// Ends the group (measurements were recorded eagerly).
    pub fn finish(self) {}
}

/// Accepted id arguments for [`BenchmarkGroup::bench_function`] and
/// [`Criterion::bench_function`].
pub trait IntoBenchmarkId {
    /// Converts to a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self.to_string(),
            parameter: String::new(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self,
            parameter: String::new(),
        }
    }
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    /// All measurements recorded so far (exposed for summary export).
    pub measurements: Vec<Measurement>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_millis(800),
            criterion: self,
        }
    }

    /// Runs one ungrouped benchmark with default timing.
    pub fn bench_function(&mut self, id: impl IntoBenchmarkId, f: impl FnMut(&mut Bencher)) {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, f);
        group.finish();
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        let mut group = c.benchmark_group("compat");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        group.bench_function("add", |b| b.iter(|| black_box(2u64) + black_box(3u64)));
        group.bench_with_input(BenchmarkId::new("scaled", 8), &8u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn alternating_pairs_record_both_sides() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("pair");
        group
            .sample_size(4)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let order = std::cell::RefCell::new(Vec::new());
        group.bench_alternating(
            "slow",
            || {
                order.borrow_mut().push('a');
                (0..2000u64).map(black_box).sum::<u64>()
            },
            "fast",
            || {
                order.borrow_mut().push('b');
                black_box(1u64)
            },
        );
        group.finish();
        let ids: Vec<&str> = c.measurements.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(ids, ["pair/slow", "pair/fast"]);
        assert!(c.measurements.iter().all(|m| m.iterations >= 4));
        // Each side warms up, then the sides take one batch each per
        // sample: 2 + 2 × 4 turns. Timing one side's samples after the
        // other's would show 2.
        let mut turns = order.into_inner();
        turns.dedup();
        assert_eq!(turns.len(), 10, "{turns:?}");
    }

    #[test]
    fn records_measurements() {
        let mut c = Criterion::default();
        quick(&mut c);
        assert_eq!(c.measurements.len(), 2);
        assert_eq!(c.measurements[0].id, "compat/add");
        assert_eq!(c.measurements[1].id, "compat/scaled/8");
        for m in &c.measurements {
            assert!(m.min <= m.median && m.median <= m.max);
            assert!(m.iterations > 0);
        }
    }
}
