//! Ablation study: four design choices of the fusion engine.
//!
//! Sweeps, on the intro's Diag40+20 construction (one colossal pattern among
//! `C(40,20)` mid-sized ones):
//!
//! * **τ (ball radius)** — smaller τ widens the ball and speeds convergence
//!   but admits foreign members; larger τ narrows it toward exact-support
//!   cores.
//! * **attempts per seed** — more randomized agglomeration attempts per seed
//!   raise colossal-recovery probability at linear cost.
//! * **closure post-step** — closing fused patterns accelerates convergence
//!   on closed-lattice-rich data.
//! * **initial pool size bound** — pools of size ≤ 1, 2, 3.
//!
//! Each row reports whether the colossal pattern (41..79, size 39) was
//! recovered, the iteration count and the runtime, averaged over trials.
//!
//! Run: `cargo run --release -p cfp-bench --bin exp_ablation [--fast]`

use cfp_bench::{engine_line, flag, time, Table};
use cfp_core::{FusionConfig, PatternFusion};
use cfp_itemset::{Itemset, TransactionDb};

struct Outcome {
    recovered: f64,
    avg_iters: f64,
    avg_secs: f64,
    avg_max_size: f64,
    avg_pruned_pct: f64,
    avg_tombstoned: f64,
    avg_inserted: f64,
    avg_compactions: f64,
}

impl Outcome {
    /// The engine columns every ablation table reports — the same
    /// pruning/maintenance schema the fig8/fig9 binaries print, so all
    /// engine-running binaries share one stats vocabulary.
    fn engine_cells(&self) -> Vec<String> {
        vec![
            format!("{:.1}", self.avg_pruned_pct),
            format!("{:.0}", self.avg_tombstoned),
            format!("{:.0}", self.avg_inserted),
            format!("{:.1}", self.avg_compactions),
        ]
    }

    fn engine_headers() -> [&'static str; 4] {
        [
            "avg_pruned_pct",
            "avg_tombstoned",
            "avg_inserted",
            "avg_compactions",
        ]
    }
}

fn run_trials(
    db: &TransactionDb,
    target: &Itemset,
    make: impl Fn(u64) -> FusionConfig,
    trials: u64,
) -> Outcome {
    let mut recovered = 0u64;
    let mut iters = 0usize;
    let mut total = 0.0;
    let mut max_size = 0usize;
    let mut pruned = 0.0;
    let mut tombstoned = 0u64;
    let mut inserted = 0u64;
    let mut compactions = 0usize;
    let mut last_line = String::new();
    for t in 0..trials {
        let config = make(t);
        let (result, d) = time(|| PatternFusion::new(db, config).run());
        if result.patterns.iter().any(|p| &p.items == target) {
            recovered += 1;
        }
        iters += result.stats.total_iterations();
        max_size += result.max_pattern_len();
        total += d.as_secs_f64();
        pruned += result.stats.ball().pruned_fraction() * 100.0;
        tombstoned += result.stats.tombstoned();
        inserted += result.stats.inserted();
        compactions += result.stats.compactions();
        last_line = engine_line(&result.stats);
    }
    eprintln!("{last_line}");
    Outcome {
        recovered: recovered as f64 / trials as f64,
        avg_iters: iters as f64 / trials as f64,
        avg_secs: total / trials as f64,
        avg_max_size: max_size as f64 / trials as f64,
        avg_pruned_pct: pruned / trials as f64,
        avg_tombstoned: tombstoned as f64 / trials as f64,
        avg_inserted: inserted as f64 / trials as f64,
        avg_compactions: compactions as f64 / trials as f64,
    }
}

/// One ablation-table schema for every sweep: the varied knob first, then
/// the outcome columns, then the engine pruning/maintenance columns shared
/// with the fig8/fig9 binaries.
fn ablation_headers(knob: &'static str) -> Vec<String> {
    let mut h = vec![
        knob.to_string(),
        "recovery_rate".to_string(),
        "avg_iters".to_string(),
        "avg_secs".to_string(),
        "avg_max_size".to_string(),
    ];
    h.extend(Outcome::engine_headers().map(String::from));
    h
}

fn ablation_row(knob: String, o: &Outcome) -> Vec<String> {
    let mut r = vec![
        knob,
        format!("{:.2}", o.recovered),
        format!("{:.1}", o.avg_iters),
        format!("{:.3}", o.avg_secs),
        format!("{:.1}", o.avg_max_size),
    ];
    r.extend(o.engine_cells());
    r
}

fn main() {
    let fast = flag("--fast");
    let trials: u64 = if fast { 2 } else { 5 };
    let (n, extra_rows, extra_items, minsup) = if fast {
        (16u32, 8u32, 12u32, 8usize)
    } else {
        (40, 20, 39, 20)
    };
    let db = cfp_datagen::diag_plus(n, extra_rows, extra_items);
    let colossal: Vec<u32> = (n + 1..=n + extra_items)
        .map(|i| db.item_map().internal(i).unwrap())
        .collect();
    let target = Itemset::from_items(&colossal);
    let k = 20usize;

    // --- τ sweep -----------------------------------------------------------
    // τ sets the ball radius, which drives how much the engine's cardinality
    // + pivot layers can prune — hence the avg_pruned_pct column here.
    let mut t1 = Table::new(ablation_headers("tau"));
    for tau in [0.3, 0.5, 0.7, 0.9] {
        let o = run_trials(
            &db,
            &target,
            |t| {
                FusionConfig::new(k, minsup)
                    .with_pool_max_len(2)
                    .with_tau(tau)
                    .with_seed(0xAB1 + t)
            },
            trials,
        );
        t1.row(ablation_row(format!("{tau:.1}"), &o));
    }
    t1.print("Ablation 1: core ratio tau");

    // --- attempts per seed --------------------------------------------------
    let mut t2 = Table::new(ablation_headers("attempts"));
    for attempts in [1usize, 2, 4, 8, 16] {
        let o = run_trials(
            &db,
            &target,
            |t| {
                FusionConfig::new(k, minsup)
                    .with_pool_max_len(2)
                    .with_attempts_per_seed(attempts)
                    .with_seed(0xAB2 + t)
            },
            trials,
        );
        t2.row(ablation_row(attempts.to_string(), &o));
    }
    t2.print("Ablation 2: agglomeration attempts per seed");

    // --- closure post-step ---------------------------------------------------
    let mut t3 = Table::new(ablation_headers("closure_step"));
    for on in [false, true] {
        let o = run_trials(
            &db,
            &target,
            |t| {
                FusionConfig::new(k, minsup)
                    .with_pool_max_len(2)
                    .with_closure_step(on)
                    .with_seed(0xAB3 + t)
            },
            trials,
        );
        t3.row(ablation_row(on.to_string(), &o));
    }
    t3.print("Ablation 3: closure post-step");

    // --- result archive (survival lottery) -----------------------------------
    // Without the archive, the final answer is the last pool only (the
    // paper's literal Algorithm 1); a colossal pattern found in iteration 0
    // can die later merely by never being drawn as a seed.
    let mut t5 = Table::new(ablation_headers("archive"));
    let lottery_trials = trials * 4; // the effect is probabilistic; more trials
    for on in [true, false] {
        let o = run_trials(
            &db,
            &target,
            |t| {
                FusionConfig::new(k, minsup)
                    .with_pool_max_len(2)
                    .with_archive(on)
                    .with_seed(0xAB5 + t)
            },
            lottery_trials,
        );
        t5.row(ablation_row(on.to_string(), &o));
    }
    t5.print("Ablation 5: cross-iteration result archive");

    // --- initial pool bound ---------------------------------------------------
    let mut t4 = Table::new(ablation_headers("pool_max_len/pool_size"));
    for len in [1usize, 2, 3] {
        let probe = PatternFusion::new(&db, FusionConfig::new(k, minsup).with_pool_max_len(len));
        let pool_size = probe.mine_initial_pool().len();
        let o = run_trials(
            &db,
            &target,
            |t| {
                FusionConfig::new(k, minsup)
                    .with_pool_max_len(len)
                    .with_seed(0xAB4 + t)
            },
            trials,
        );
        t4.row(ablation_row(format!("{len}/{pool_size}"), &o));
    }
    t4.print("Ablation 4: initial pool size bound");
}
