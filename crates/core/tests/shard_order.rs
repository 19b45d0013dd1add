//! A dumped pool reproduces a fresh sharded mine. A sharded run deals its
//! pool in stratified `(support, itemset)` order whatever row order the
//! caller supplied, so fusing the plain mined slab (`Source::Slab`, what
//! `cfp dump` writes) returns exactly what mining the transactions does —
//! patterns, support sets and per-shard counters — on the in-thread and
//! the out-of-core backends, for both partition strategies.

use cfp_core::{
    ExecutorKind, FusionConfig, FusionResult, OocoreConfig, ShardStats, ShardStrategy, Source,
};
use cfp_itemset::TransactionDb;

/// Per-shard counters with wall-clock times zeroed.
fn shard_counters(r: &FusionResult) -> Vec<ShardStats> {
    r.stats
        .shards
        .iter()
        .map(|s| ShardStats {
            elapsed: Default::default(),
            ..s.clone()
        })
        .collect()
}

fn assert_same_run(fresh: &FusionResult, dumped: &FusionResult, label: &str) {
    assert_eq!(
        fresh.patterns.len(),
        dumped.patterns.len(),
        "{label}: sizes"
    );
    for (a, b) in fresh.patterns.iter().zip(&dumped.patterns) {
        assert_eq!(a.items, b.items, "{label}: itemset drift");
        assert_eq!(a.tids, b.tids, "{label}: support-set drift");
    }
    assert_eq!(
        shard_counters(fresh),
        shard_counters(dumped),
        "{label}: per-shard counters drifted"
    );
}

fn check(db: &TransactionDb, k: usize, min_count: usize, seed: u64, name: &str) {
    let (slab, _) = cfp_miners::initial_pool_slab(db, min_count, 2, 2);
    for strategy in ShardStrategy::ALL {
        for shards in [2usize, 4] {
            let cfg = FusionConfig::new(k, min_count)
                .with_pool_max_len(2)
                .with_seed(seed)
                .with_shards(shards)
                .with_shard_strategy(strategy)
                .with_threads(2);
            for executor in [
                ExecutorKind::InThread,
                ExecutorKind::OutOfCore(OocoreConfig::new(0)),
            ] {
                let label = format!("{name} {strategy:?} shards={shards} {}", executor.name());
                let engine = cfg.engine(db).with_executor(executor);
                let fresh = engine.mine(Source::Transactions).expect("fresh mine");
                let dumped = engine
                    .mine(Source::Slab(slab.clone()))
                    .expect("dumped pool");
                assert_same_run(&fresh, &dumped, &label);
            }
        }
    }
}

#[test]
fn a_plain_pool_slab_reproduces_a_fresh_sharded_mine() {
    let planted = cfp_datagen::planted(&cfp_datagen::PlantedConfig {
        n_rows: 40,
        pattern_sizes: vec![9, 7, 6],
        pattern_support: 12,
        max_row_overlap: 4,
        row_len: 0,
        filler_rows_lo: 2,
        filler_rows_hi: 3,
        seed: 5,
    });
    check(&planted.db, 12, 12, 99, "planted");
    // Diag40 at the CLI smoke run's settings (`cfp generate diag40`).
    check(&cfp_datagen::diag(40), 8, 20, 42, "diag40");
}
