//! Figure 8: approximation error on Replace — Δ(AP_Q) by pattern-size
//! threshold for K ∈ {50, 100, 200}.
//!
//! The Replace trace data is simulated by `cfp_datagen::replace_like` (its
//! module docs give the substitution rationale): 4 395 transactions, 66 items
//! (57 frequent at σ = 0.03), three colossal patterns of size 44. The
//! complete closed set is mined exactly with the LCM-style closed miner;
//! Pattern-Fusion starts from the complete set of patterns of size ≤ 3 and
//! its result is compared against the complete set restricted to sizes ≥ x
//! for x in 39..=45.
//!
//! Run: `cargo run --release -p cfp-bench --bin exp_fig8 [--fast]`

use cfp_bench::{engine_line, flag, secs, time, Table};
use cfp_core::{FusionConfig, PatternFusion};
use cfp_itemset::Itemset;
use cfp_miners::{closed, Budget};
use cfp_quality::error_by_min_size;

fn main() {
    let fast = flag("--fast");
    let cfg = if fast {
        // Scaled-down instance with the same structure (threshold 18).
        cfp_datagen::ReplaceConfig::tiny(0xF18)
    } else {
        cfp_datagen::ReplaceConfig::default()
    };
    let minsup = if fast { 18 } else { 132 }; // ceil(0.03 · |D|)
    let data = cfp_datagen::replace_like(&cfg);
    let db = &data.db;
    println!(
        "replace-like: {} transactions, {} items, {} profiles of size {}",
        db.len(),
        db.num_items(),
        data.profiles.len(),
        cfg.profile_size()
    );

    let (ground, d_closed) = time(|| closed(db, minsup, &Budget::unlimited()));
    assert!(ground.complete, "ground truth must be complete");
    let q: Vec<Itemset> = ground.patterns.iter().map(|p| p.items.clone()).collect();
    let max_size = q.iter().map(Itemset::len).max().unwrap_or(0);
    println!(
        "complete closed set: {} patterns (mined in {} s), largest size {max_size}",
        q.len(),
        secs(d_closed)
    );

    let thresholds: Vec<usize> = if fast {
        (cfg.profile_size().saturating_sub(5)..=cfg.profile_size() + 1).collect()
    } else {
        (39..=45).collect()
    };
    let ks: &[usize] = &[50, 100, 200];

    let mut table = Table::new(vec![
        "min_size",
        "complete_count",
        "K=50_found",
        "K=50_error",
        "K=100_found",
        "K=100_error",
        "K=200_found",
        "K=200_error",
    ]);

    // One Pattern-Fusion run per K.
    let mut sweeps = Vec::new();
    for &k in ks {
        let config = FusionConfig::new(k, minsup)
            .with_pool_max_len(3)
            .with_seed(0xF180 + k as u64);
        let pf = PatternFusion::new(db, config);
        let (result, d_pf) = time(|| pf.run());
        let ball = result.stats.ball();
        eprintln!(
            "K={k}: mined {} patterns in {} s (pool {}, {} iterations; ball \
             pruned {:.1}%, index: {} tombstoned, {} inserted, {} compactions)",
            result.patterns.len(),
            secs(d_pf),
            result.stats.initial_pool_size,
            result.stats.iterations.len(),
            ball.pruned_fraction() * 100.0,
            result.stats.tombstoned(),
            result.stats.inserted(),
            result.stats.compactions(),
        );
        eprintln!("K={k} {}", engine_line(&result.stats));
        let p: Vec<Itemset> = result.patterns.iter().map(|pt| pt.items.clone()).collect();
        sweeps.push(error_by_min_size(&p, &q, &thresholds));
    }

    for (row_idx, &x) in thresholds.iter().enumerate() {
        let complete = sweeps[0][row_idx].complete_count;
        let mut cells = vec![x.to_string(), complete.to_string()];
        for sweep in &sweeps {
            let pt = &sweep[row_idx];
            cells.push(pt.result_count.to_string());
            cells.push(
                pt.error
                    .map_or_else(|| "-".to_string(), |e| format!("{e:.4}")),
            );
        }
        table.row(cells);
    }
    table.print("Figure 8: approximation error on Replace by size threshold");
    println!(
        "shape check: errors are small (<~0.05) and shrink as K grows; the three\n\
         size-{} colossal patterns are never missed at any K.",
        cfg.profile_size()
    );
}
