//! Experiment harness for regenerating the paper's figures and tables.
//!
//! Each `exp_fig*` binary in `src/bin/` reproduces one artifact of the
//! paper's evaluation section (its header names the figure and the run
//! command) and prints the same rows/series the paper reports, plus a CSV
//! block for plotting. This module holds the shared plumbing: wall-clock
//! timing, budget-aware result formatting, aligned table printing, and a tiny
//! argument parser (`--fast` shrinks every experiment to smoke-test scale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cfp_core::{Pattern, RunStats};
use cfp_itemset::{Itemset, TidSet};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Runs `f`, returning its result and wall-clock duration.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a duration as seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a budgeted miner timing: the plain seconds when the run
/// completed, `>x.xxx (budget)` when it was capped — the analogue of the
/// paper's "did not finish in 10 hours" entries.
pub fn secs_capped(d: Duration, complete: bool) -> String {
    if complete {
        secs(d)
    } else {
        format!(">{} (budget)", secs(d))
    }
}

/// A fixed-width console table that doubles as CSV.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the same data as CSV (for plotting scripts).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the aligned table followed by a CSV block.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
        println!("\n--- csv ---");
        print!("{}", self.to_csv());
        println!("--- end csv ---");
    }
}

/// The clustered benchmark pool shared by the ball and shard benches: each
/// cluster derives its members from one base support set (the "core
/// patterns of a shared colossal pattern" shape Theorem 2 predicts), with
/// base densities spanning a wide support spectrum so the cardinality
/// prune has real range structure. Members keep 85–100% of their base, so
/// inside-cluster distances stay under r(0.75) = 0.4 and cross-cluster
/// distances stay far outside it.
///
/// Deterministic for a given `rng` state; callers share one seeded `StdRng`
/// stream so a bench's pool is reproducible run to run.
pub fn clustered_pool(
    rng: &mut StdRng,
    clusters: usize,
    per_cluster: usize,
    universe: usize,
) -> Vec<Pattern> {
    let mut pool = Vec::with_capacity(clusters * per_cluster);
    for c in 0..clusters {
        let density = 0.02 + 0.28 * (c as f64 / clusters as f64);
        let base: Vec<usize> = (0..universe).filter(|_| rng.gen_bool(density)).collect();
        for v in 0..per_cluster {
            let keep = 0.85 + 0.15 * rng.gen::<f64>();
            let tids: Vec<usize> = base
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(keep))
                .collect();
            pool.push(Pattern::new(
                Itemset::from_items(&[(c * per_cluster + v) as u32]),
                TidSet::from_tids(universe, tids),
            ));
        }
    }
    pool
}

/// The uniform engine-statistics line every `exp_*` binary prints: kernel
/// backend, iteration count, the shares of ball pairs pruned and accepted
/// by bound (the rest ran the exact kernel), the index-rebuild
/// aggregates, and the slab pool-store footprint — one schema
/// across all binaries, for sharded and unsharded runs alike. Sharded runs
/// append `shards=`/`repair_iters=`, and out-of-core runs append the
/// `oocore_*` spill/load counters ([`cfp_core::stats::OocoreStats`]).
pub fn engine_line(stats: &RunStats) -> String {
    let ball = stats.ball();
    let mut line = format!(
        "engine: backend={} iters={} pruned_pct={:.1} accepted_pct={:.1} tombstoned={} \
         inserted={} compactions={} pool_rows={} pool_kib={}",
        stats.kernel_backend.name(),
        stats.total_iterations(),
        ball.pruned_fraction() * 100.0,
        ball.accepted_fraction() * 100.0,
        stats.tombstoned(),
        stats.inserted(),
        stats.compactions(),
        stats.pool.rows,
        stats.pool.peak_bytes / 1024,
    );
    if stats.pool.mine_workers > 0 {
        line.push_str(&format!(" mine_workers={}", stats.pool.mine_workers));
    }
    if stats.sharded() {
        line.push_str(&format!(
            " shards={} repair_iters={}",
            stats.shards.len(),
            stats.repair_iterations
        ));
    }
    if stats.oocore.active() {
        let oo = &stats.oocore;
        line.push_str(&format!(
            " oocore_passes={} spill_mib={:.2} load_mib={:.2} peak_resident_mib={:.2} \
             bytes_touched_ratio={:.2}",
            oo.passes,
            oo.spill_bytes as f64 / MIB,
            oo.load_bytes as f64 / MIB,
            oo.peak_resident_bytes as f64 / MIB,
            oo.bytes_touched_ratio(),
        ));
    }
    line
}

const MIB: f64 = (1u64 << 20) as f64;

/// Whether a bare `--flag` is present in the process arguments.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses `--name value` from the process arguments, with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == name)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(vec!["n", "time"]);
        t.row(vec!["5", "0.001"]);
        t.row(vec!["4000", "12.5"]);
        let rendered = t.render();
        assert!(rendered.contains("n     time"));
        assert!(rendered.lines().count() == 4);
        assert_eq!(t.to_csv(), "n,time\n5,0.001\n4000,12.5\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn capped_formatting() {
        let d = Duration::from_millis(1500);
        assert_eq!(secs_capped(d, true), "1.500");
        assert_eq!(secs_capped(d, false), ">1.500 (budget)");
    }

    #[test]
    fn time_measures_something() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
