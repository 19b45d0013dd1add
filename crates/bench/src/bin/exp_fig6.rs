//! Figure 6: run time on Diagn — LCM_maximal-style baseline vs
//! Pattern-Fusion.
//!
//! The paper sweeps the matrix size n from 5 to 45 with minimum support n/2.
//! The maximal miner's output is `C(n, n/2)` patterns, so its runtime grows
//! exponentially (the paper's original LCM/FPClose runs "could not finish
//! within 10 hours" at n = 40), while Pattern-Fusion levels off. We cap the
//! baseline with a wall-clock budget and print `>t (budget)` rows where the
//! paper reports non-termination.
//!
//! Run: `cargo run --release -p cfp-bench --bin exp_fig6 [--fast]
//!       [--budget-secs N] [--k N]`

use cfp_bench::{arg_usize, engine_line, flag, secs, secs_capped, time, Table};
use cfp_core::{FusionConfig, PatternFusion};
use cfp_miners::{maximal, Budget};
use std::time::Duration;

fn main() {
    let fast = flag("--fast");
    let budget_secs = arg_usize("--budget-secs", if fast { 2 } else { 20 }) as u64;
    let k = arg_usize("--k", 20);
    let sizes: &[u32] = if fast {
        &[5, 10, 15, 20, 22]
    } else {
        &[5, 10, 15, 20, 22, 24, 26, 28, 30, 32, 34, 40, 45]
    };

    let mut table = Table::new(vec![
        "n",
        "minsup",
        "lcm_maximal_secs",
        "lcm_patterns",
        "lcm_complete",
        "pattern_fusion_secs",
        "pf_patterns",
        "pf_max_size",
        "pf_iters",
        "pf_pruned_pct",
    ]);

    // Every Pattern-Fusion run is timed before the first baseline run. A
    // capped baseline at n ≥ 26 leaves millions of patterns' worth of
    // allocations in the process heap, and a run timed after it — even
    // after the baseline's result is dropped — absorbs allocator stalls of
    // up to a second at whichever n they happen to hit.
    let dbs: Vec<_> = sizes.iter().map(|&n| cfp_datagen::diag(n)).collect();
    let minsup_of = |n: u32| (n / 2).max(1) as usize;
    let pf_runs: Vec<_> = sizes
        .iter()
        .zip(&dbs)
        .map(|(&n, db)| {
            let config = FusionConfig::new(k, minsup_of(n))
                .with_pool_max_len(2)
                .with_seed(0xF166 + n as u64);
            let (result, d_pf) = time(|| PatternFusion::new(db, config).run());
            eprintln!("n={n} {}", engine_line(&result.stats));
            (result, d_pf)
        })
        .collect();

    for ((&n, db), (result, d_pf)) in sizes.iter().zip(&dbs).zip(pf_runs) {
        let minsup = minsup_of(n);
        let budget = Budget::unlimited().with_time(Duration::from_secs(budget_secs));
        let (out, d_lcm) = time(|| maximal(db, minsup, &budget));

        table.row(vec![
            n.to_string(),
            minsup.to_string(),
            secs_capped(d_lcm, out.complete),
            out.patterns.len().to_string(),
            out.complete.to_string(),
            secs(d_pf),
            result.patterns.len().to_string(),
            result.max_pattern_len().to_string(),
            result.stats.iterations.len().to_string(),
            format!("{:.1}", result.stats.ball().pruned_fraction() * 100.0),
        ]);
        eprintln!("n={n} done (lcm {}, pf {})", secs(d_lcm), secs(d_pf));
    }
    table.print("Figure 6: run time on Diagn (seconds)");
    println!(
        "shape check: lcm_maximal grows exponentially with n (C(n, n/2) maximal\n\
         patterns) and hits the budget; Pattern-Fusion stays near-flat.\n\
         pf_pruned_pct = pairwise distance evaluations skipped by the ball\n\
         engine's cardinality + pivot prunes (RunStats::ball)."
    );
}
