//! Incremental delta-mining benchmark: absorbing a 1% transaction append
//! through [`cfp_core::DeltaEngine::append`] vs re-mining the grown
//! database from scratch through the engine front door.
//!
//! **Workload.** 4 000 base transactions over 12 288 items (48 clusters ×
//! 256), each item placed in ~80 random transactions, `min_count = 60`,
//! `pool_max_len = 2`: every item is frequent, no pair is (expected joint
//! support ≈ 80²/4000 ≈ 1.6), so the initial pool is exactly 12 288
//! singleton rows and the pairwise mine — 75 M tid-row intersections — is
//! the dominant cost both ways. The append is 40 transactions (1% of the
//! base), each containing all 256 labels of cluster 0: 256 dirty items →
//! 256 re-mined first-item subtrees, ~12 000 rows spliced, and pair
//! supports inside cluster 0 grow by 40 to ≈ 42, still under `min_count`,
//! so the grown pool keeps the same 12 288-singleton shape. The universe
//! grows 4 000 → 4 040 transactions, which stays inside the 64-word padded
//! lane width — the same-width fast splice path.
//!
//! **Identity is gated before any timing**: a scaled-down replica of the
//! workload is checked bit-for-bit (itemsets, support sets, and per-shard
//! counters) across threads 1/2/8 × both shard strategies, then the
//! full-scale append itself is checked against a from-scratch re-mine.
//!
//! **Timing is manual** (`Instant` over whole operations, min of several
//! reps): the delta side must clone a pre-mined engine per rep, and that
//! clone — pure setup — has to stay outside the timed region, which a
//! `Bencher::iter` closure cannot express.
//!
//! Exports `BENCH_delta.json`; the acceptance gate is
//! `delta_speedup >= 5` (the append costs at most a fifth of the
//! from-scratch re-mine).

use cfp_core::{DeltaEngine, FusionConfig, FusionResult, ShardStrategy, Source};
use cfp_itemset::{DbDelta, Itemset, TransactionDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

// --- Full-scale workload. --------------------------------------------------
const UNIVERSE: usize = 4000; // base transactions
const CLUSTERS: usize = 48;
const PER_CLUSTER: usize = 256; // 12 288 items = 12 288 singleton pool rows
const ITEM_SUPPORT: usize = 80; // transactions per item
const MIN_COUNT: usize = 60;
const APPEND_TXNS: usize = 40; // 1% of the base
const K: usize = 8;
const SEED: u64 = 42;
const SCRATCH_REPS: usize = 3;
const DELTA_REPS: usize = 5;

// --- Scaled-down replica for the identity grid. ----------------------------
const S_UNIVERSE: usize = 400;
const S_CLUSTERS: usize = 6;
const S_PER_CLUSTER: usize = 32;
const S_ITEM_SUPPORT: usize = 30;
const S_MIN_COUNT: usize = 22;
const S_APPEND_TXNS: usize = 4;

/// Builds the clustered-append database shape: `clusters * per_cluster`
/// items, each present in `item_support` distinct random transactions out
/// of `universe`. Deterministic for a given `rng` state.
fn build_db(
    rng: &mut StdRng,
    universe: usize,
    clusters: usize,
    per_cluster: usize,
    item_support: usize,
) -> TransactionDb {
    let mut txns: Vec<Vec<u32>> = vec![Vec::new(); universe];
    for item in 0..(clusters * per_cluster) as u32 {
        let mut placed = 0usize;
        let mut taken = vec![false; universe];
        while placed < item_support {
            let t = rng.gen_range(0..universe);
            if !taken[t] {
                taken[t] = true;
                txns[t].push(item);
                placed += 1;
            }
        }
    }
    TransactionDb::from_dense(txns.iter().map(|t| Itemset::from_items(t)).collect())
}

/// The append batch: `n` transactions, each containing every label of
/// cluster 0 (items `0..per_cluster`) — all of cluster 0 turns dirty,
/// nothing else does.
fn cluster_zero_delta(n: usize, per_cluster: usize) -> DbDelta {
    let txn: Vec<u32> = (0..per_cluster as u32).collect();
    DbDelta::from_transactions(vec![txn; n])
}

fn config(min_count: usize) -> FusionConfig {
    FusionConfig::new(K, min_count)
        .with_pool_max_len(2)
        .with_seed(SEED)
}

/// Panics unless the two results carry identical patterns (itemsets and
/// support sets, in order).
fn assert_same_patterns(a: &FusionResult, b: &FusionResult, label: &str) {
    assert_eq!(a.patterns.len(), b.patterns.len(), "{label}: pattern count");
    for (x, y) in a.patterns.iter().zip(&b.patterns) {
        assert_eq!(x.items, y.items, "{label}: itemset drift");
        assert_eq!(x.tids, y.tids, "{label}: support-set drift");
    }
}

/// Sharded runs must replay the cold partitioned run's per-shard
/// trajectory exactly — counters included, wall-clock excluded.
fn assert_same_shards(a: &FusionResult, b: &FusionResult, label: &str) {
    assert_eq!(
        a.stats.shards.len(),
        b.stats.shards.len(),
        "{label}: shard count"
    );
    for (x, y) in a.stats.shards.iter().zip(&b.stats.shards) {
        let mut x = x.clone();
        x.elapsed = y.elapsed;
        assert_eq!(&x, y, "{label}: per-shard trajectory drift");
    }
}

/// The pre-timing identity gate: the scaled-down workload across threads
/// 1/2/8 × {unsharded, 3 shards × both strategies}, then one full-scale
/// check on the exact database and delta the timing loops use.
fn gate_identity(base: &TransactionDb, delta: &DbDelta, engine: &DeltaEngine) {
    let s_rng = &mut StdRng::seed_from_u64(SEED ^ 0x5eed);
    let s_base = build_db(s_rng, S_UNIVERSE, S_CLUSTERS, S_PER_CLUSTER, S_ITEM_SUPPORT);
    let s_delta = cluster_zero_delta(S_APPEND_TXNS, S_PER_CLUSTER);
    let mut s_grown = s_base.clone();
    s_grown.append_delta(&s_delta);
    let shardings = [
        (1usize, ShardStrategy::SupportStratum),
        (3, ShardStrategy::SupportStratum),
        (3, ShardStrategy::MinhashBucket),
    ];
    for threads in [1usize, 2, 8] {
        for (shards, strategy) in shardings {
            let cfg = config(S_MIN_COUNT)
                .with_threads(threads)
                .with_shards(shards)
                .with_shard_strategy(strategy);
            let mut eng = DeltaEngine::new(s_base.clone(), cfg.clone());
            eng.mine();
            let incremental = eng.append(&s_delta);
            let scratch = cfg.engine(&s_grown).mine(Source::Transactions).unwrap();
            let label = format!(
                "identity grid threads={threads} shards={shards} strategy={}",
                strategy.name()
            );
            assert_same_patterns(&incremental, &scratch, &label);
            assert_same_shards(&incremental, &scratch, &label);
        }
    }
    println!("identity grid: threads 1/2/8 x both shard strategies bit-identical");

    let mut full = engine.clone();
    let incremental = full.append(delta);
    let mut grown = base.clone();
    grown.append_delta(delta);
    let cfg = config(MIN_COUNT);
    let scratch = cfg.engine(&grown).mine(Source::Transactions).unwrap();
    assert_same_patterns(&incremental, &scratch, "full-scale identity");
    println!(
        "full-scale identity: {} patterns bit-identical to the from-scratch re-mine",
        incremental.patterns.len()
    );
}

fn main() {
    let rng = &mut StdRng::seed_from_u64(SEED);
    println!(
        "building the clustered-append database: {UNIVERSE} transactions, {} items x {ITEM_SUPPORT} tids",
        CLUSTERS * PER_CLUSTER
    );
    let base = build_db(rng, UNIVERSE, CLUSTERS, PER_CLUSTER, ITEM_SUPPORT);
    let delta = cluster_zero_delta(APPEND_TXNS, PER_CLUSTER);
    let mut grown = base.clone();
    grown.append_delta(&delta);
    let cfg = config(MIN_COUNT);

    println!("pre-mining the base generation (untimed)");
    let mut engine = DeltaEngine::new(base.clone(), cfg.clone());
    let base_result = engine.mine();
    println!("base generation: {} patterns", base_result.patterns.len());

    gate_identity(&base, &delta, &engine);

    let mut scratch_ns: Vec<u128> = Vec::with_capacity(SCRATCH_REPS);
    let mut scratch_patterns = 0usize;
    for rep in 0..SCRATCH_REPS {
        let t0 = Instant::now();
        let result = cfg.engine(&grown).mine(Source::Transactions).unwrap();
        let dt = t0.elapsed();
        scratch_patterns = result.patterns.len();
        scratch_ns.push(dt.as_nanos());
        println!("scratch re-mine rep {rep}: {:.3}s", dt.as_secs_f64());
    }

    let mut delta_ns: Vec<u128> = Vec::with_capacity(DELTA_REPS);
    let mut last_stats = engine.last_append().clone();
    for rep in 0..DELTA_REPS {
        // The per-rep engine clone is setup, not the measured operation —
        // the reason this bench times manually instead of via Bencher.
        let mut eng = engine.clone();
        let t0 = Instant::now();
        let result = eng.append(&delta);
        let dt = t0.elapsed();
        assert_eq!(result.patterns.len(), scratch_patterns, "rep {rep} drift");
        last_stats = eng.last_append().clone();
        delta_ns.push(dt.as_nanos());
        println!("delta append rep {rep}: {:.3}s", dt.as_secs_f64());
    }

    let scratch_min = *scratch_ns.iter().min().unwrap();
    let delta_min = *delta_ns.iter().min().unwrap();
    let speedup = if delta_min == 0 {
        0.0
    } else {
        scratch_min as f64 / delta_min as f64
    };
    println!(
        "\ndelta append {:.3}s vs from-scratch {:.3}s -> {speedup:.1}x \
         ({} dirty items, {} subtrees re-mined, {} of {} rows spliced)",
        delta_min as f64 / 1e9,
        scratch_min as f64 / 1e9,
        last_stats.dirty_items,
        last_stats.subtrees_remined,
        last_stats.rows_spliced,
        last_stats.pool_rows,
    );

    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"benchmark\": \"incremental delta mining: 1% transaction append vs from-scratch re-mine\",\n  \
         \"base_transactions\": {UNIVERSE},\n  \"append_transactions\": {APPEND_TXNS},\n  \
         \"items\": {},\n  \"item_support\": {ITEM_SUPPORT},\n  \"min_count\": {MIN_COUNT},\n  \
         \"pool_rows\": {},\n  \"patterns\": {scratch_patterns},\n  \
         \"threads_available\": {threads_available},\n  \"speedup_estimator\": \"min\",\n  \
         \"scratch_min_ns\": {scratch_min},\n  \"delta_min_ns\": {delta_min},\n  \
         \"delta_speedup\": {speedup:.2},\n  \"meets_5x_target\": {},\n  \
         \"dirty_items\": {},\n  \"subtrees_remined\": {},\n  \"rows_spliced\": {},\n  \
         \"gate\": \"append bit-identical to a from-scratch re-mine (itemsets, support sets, \
         per-shard counters) across threads 1/2/8 x both shard strategies on the scaled \
         replica, and at full scale, before any timing\",\n  \
         \"note\": \"the append dirties one 256-item cluster of the 12288-item universe; the \
         other ~12k first-item subtrees splice through without re-mining, and the universe \
         growth 4000 -> 4040 transactions stays inside the 64-word padded lane width (the \
         same-width fast splice path); the speedup is a work ratio, thread-independent\"\n}}\n",
        CLUSTERS * PER_CLUSTER,
        last_stats.pool_rows,
        speedup >= 5.0,
        last_stats.dirty_items,
        last_stats.subtrees_remined,
        last_stats.rows_spliced,
    );
    let path = format!("{}/../../BENCH_delta.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
