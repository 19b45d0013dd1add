//! Figure 10: run time on ALL with decreasing minimum support —
//! LCM_maximal-style and TFP-style baselines vs Pattern-Fusion.
//!
//! On the ALL-like dataset the quasi-clique block makes the closed/maximal
//! layer grow like `C(27, 27−σ)` once σ drops below 27, so both exhaustive
//! baselines blow up exponentially while Pattern-Fusion's runtime levels
//! off — the paper's Figure 10 story. Baselines run under a wall-clock
//! budget; capped rows print as `>t (budget)`.
//!
//! The TFP baseline mirrors the paper's usage (hunting colossal patterns):
//! top-k closed patterns with a minimum-length constraint of 70, which keeps
//! its dynamic threshold low and forces it through the exploding closed
//! layer.
//!
//! Run: `cargo run --release -p cfp-bench --bin exp_fig10 [--fast]
//!       [--budget-secs N] [--k N]`

use cfp_bench::{arg_usize, engine_line, flag, secs, secs_capped, time, Table};
use cfp_core::{FusionConfig, PatternFusion};
use cfp_miners::{maximal, top_k_closed, Budget};
use std::time::Duration;

fn main() {
    let fast = flag("--fast");
    let budget_secs = arg_usize("--budget-secs", if fast { 2 } else { 20 }) as u64;
    let k = arg_usize("--k", 100);

    let (cfg, supports, min_len): (_, Vec<usize>, usize) = if fast {
        (
            cfp_datagen::AllLikeConfig::tiny(0xF1A),
            (9..=15).rev().collect(),
            20,
        )
    } else {
        (
            cfp_datagen::AllLikeConfig::default(),
            (21..=31).rev().collect(),
            70,
        )
    };
    let data = cfp_datagen::all_like(&cfg);
    let db = &data.db;
    println!(
        "all-like: {} transactions, {} distinct items; block slots {} (explosion below support {})",
        db.len(),
        db.num_items(),
        cfg.block_slots,
        cfg.block_slots
    );

    let mut table = Table::new(vec![
        "minsup",
        "lcm_maximal_secs",
        "lcm_complete",
        "tfp_secs",
        "tfp_complete",
        "pattern_fusion_secs",
        "pf_patterns",
        "pf_max_size",
        "pf_pruned_pct",
    ]);

    // Every Pattern-Fusion run is timed before the first baseline run, as
    // in exp_fig6: a run timed after a capped baseline absorbs allocator
    // stalls left by the baseline's heap.
    let pf_runs: Vec<_> = supports
        .iter()
        .map(|&minsup| {
            let config = FusionConfig::new(k, minsup)
                .with_pool_max_len(2)
                .with_seed(0xF1A0 + minsup as u64);
            let (pf, d_pf) = time(|| PatternFusion::new(db, config).run());
            eprintln!("minsup={minsup} {}", engine_line(&pf.stats));
            (pf, d_pf)
        })
        .collect();

    for (&minsup, (pf, d_pf)) in supports.iter().zip(pf_runs) {
        let budget = Budget::unlimited().with_time(Duration::from_secs(budget_secs));
        let (mx, d_mx) = time(|| maximal(db, minsup, &budget));

        let budget = Budget::unlimited().with_time(Duration::from_secs(budget_secs));
        let (tfp, d_tfp) = time(|| top_k_closed(db, k, min_len, minsup, &budget));

        table.row(vec![
            minsup.to_string(),
            secs_capped(d_mx, mx.complete),
            mx.complete.to_string(),
            secs_capped(d_tfp, tfp.complete),
            tfp.complete.to_string(),
            secs(d_pf),
            pf.patterns.len().to_string(),
            pf.max_pattern_len().to_string(),
            format!("{:.1}", pf.stats.ball().pruned_fraction() * 100.0),
        ]);
        eprintln!(
            "minsup={minsup} done (lcm {}, tfp {}, pf {})",
            secs(d_mx),
            secs(d_tfp),
            secs(d_pf)
        );
    }
    table.print("Figure 10: run time on ALL vs minimum support (seconds)");
    println!(
        "shape check: both baselines' runtimes explode as minsup decreases (and\n\
         hit the budget), while Pattern-Fusion levels off."
    );
}
