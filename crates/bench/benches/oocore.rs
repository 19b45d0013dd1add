//! Out-of-core fusion benchmark: the spill/evict/load driver
//! ([`cfp_core::ExecutorKind::OutOfCore`] through the engine facade)
//! against the in-memory sharded engine on the 12 288-pattern clustered
//! pool, at a memory budget
//! of **one quarter of the pool's resident tid bytes** — small enough that
//! every pass genuinely evicts and reloads.
//!
//! Each measured unit is one complete run: for the in-memory baseline,
//! partition + per-shard fusion + merge; for the out-of-core engine,
//! additionally the per-shard slab spill, the budgeted load passes, and the
//! spill-directory lifecycle. The pool (12 288 rows) is above
//! `FULL_REPAIR_POOL_LIMIT`, so neither engine runs the full-pool repair
//! round — the big-pool regime out-of-core mining exists for.
//!
//! Headline numbers, exported to `BENCH_oocore.json`:
//!
//! * `overhead_vs_inmemory` — out-of-core wall clock over in-memory wall
//!   clock at the quarter budget; target ≤ 2× (the disk round-trip must
//!   not dominate the fusion work it makes memory-feasible);
//! * `bytes_touched_ratio` — spilled + loaded bytes over the pool's
//!   in-memory resident footprint (~2.0 here: each byte crosses the disk
//!   boundary once out, once back);
//! * spill / load throughput in MiB/s from the driver's own accounting.
//!
//! Output bit-identity with the in-memory engine is gated before anything
//! is timed.

use cfp_core::{ExecutorKind, FusionConfig, OocoreConfig, ShardStrategy, Source};
use cfp_itemset::PatternPool;
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const UNIVERSE: usize = 4096;
const CLUSTERS: usize = 48;
const PER_CLUSTER: usize = 256; // pool = 12 288 patterns, > FULL_REPAIR_POOL_LIMIT
const TAU: f64 = 0.75;
const K: usize = 256;
const MAX_BALL: usize = 96;
const SHARDS: usize = 4;

fn config() -> FusionConfig {
    FusionConfig::new(K, 1)
        .with_tau(TAU)
        .with_seed(42)
        .with_max_ball_size(MAX_BALL)
        .with_shards(SHARDS)
        .with_shard_strategy(ShardStrategy::SupportStratum)
}

fn bench_oocore(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2007);
    let pool = cfp_bench::clustered_pool(&mut rng, CLUSTERS, PER_CLUSTER, UNIVERSE);
    let mut slab = PatternPool::with_capacity(UNIVERSE, pool.len());
    for p in &pool {
        slab.push_tidset(p.items.items(), &p.tids);
    }
    let db = cfp_datagen::diag(4); // closure step is off: the db is never consulted
    let budget = (slab.tid_bytes() as u64 / 4).max(1);

    // --- Correctness gate, before anything is timed ------------------------
    // The out-of-core run at the quarter budget is bit-identical to the
    // in-memory sharded engine.
    let inm_engine = config().engine(&db).partitioned();
    let oo_engine = config()
        .engine(&db)
        .with_executor(ExecutorKind::OutOfCore(OocoreConfig::new(budget)));
    let inm = inm_engine.mine(Source::Slab(slab.clone())).unwrap();
    let oo = oo_engine
        .mine(Source::Slab(slab.clone()))
        .expect("out-of-core run");
    assert_eq!(
        inm.patterns.len(),
        oo.patterns.len(),
        "out-of-core bit-identity violated (sizes)"
    );
    for (a, b) in inm.patterns.iter().zip(&oo.patterns) {
        assert_eq!(a.items, b.items, "bit-identity violated (itemsets)");
        assert_eq!(a.tids, b.tids, "bit-identity violated (supports)");
    }
    let oostats = oo.stats.oocore;
    assert!(
        oostats.passes >= 2,
        "quarter budget must force multiple passes (got {})",
        oostats.passes
    );
    assert!(
        oostats.peak_resident_bytes < oostats.in_memory_resident_bytes,
        "eviction did not reduce residency"
    );

    let mut group = c.benchmark_group("oocore");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4));
    // The two sides of the overhead ratio run in alternating samples, so a
    // slowdown of a shared box mid-run hits both alike.
    group.bench_alternating(
        "run_inmemory_k4",
        || {
            let r = inm_engine
                .mine(Source::Slab(black_box(slab.clone())))
                .unwrap();
            (r.patterns.len(), r.stats.shards.len())
        },
        "run_oocore_k4_quarter_budget",
        || {
            let r = oo_engine
                .mine(Source::Slab(black_box(slab.clone())))
                .expect("out-of-core run");
            (r.patterns.len(), r.stats.oocore.passes)
        },
    );
    group.finish();

    export_summary(c, &oostats, pool.len(), budget);
}

fn min_ns(c: &Criterion, needle: &str) -> u128 {
    c.measurements
        .iter()
        .find(|m| m.id.contains(needle))
        .map(|m| m.min.as_nanos())
        .unwrap_or(0)
}

fn median_ns(c: &Criterion, needle: &str) -> u128 {
    c.measurements
        .iter()
        .find(|m| m.id.contains(needle))
        .map(|m| m.median.as_nanos())
        .unwrap_or(0)
}

fn mib_per_s(bytes: u64, t: Duration) -> f64 {
    let secs = t.as_secs_f64();
    if secs == 0.0 {
        return 0.0;
    }
    bytes as f64 / (1u64 << 20) as f64 / secs
}

/// Writes `BENCH_oocore.json` at the workspace root: wall-clock for both
/// engines (min + median; `min` is the exported estimator, as in the other
/// benches on this shared box), the overhead ratio with its ≤ 2× target,
/// the bytes-touched ratio, and spill/load throughput.
fn export_summary(c: &Criterion, oo: &cfp_core::OocoreStats, pool_len: usize, budget: u64) {
    let inm_min = min_ns(c, "run_inmemory_k4");
    let oo_min = min_ns(c, "run_oocore_k4_quarter_budget");
    let overhead = if inm_min == 0 {
        0.0
    } else {
        oo_min as f64 / inm_min as f64
    };
    let json = format!(
        "{{\n  \"benchmark\": \"out-of-core fusion vs in-memory sharded engine on the clustered \
         pool\",\n  \
         \"pool_patterns\": {pool_len},\n  \"universe_tids\": {UNIVERSE},\n  \
         \"tau\": {TAU},\n  \"seed_budget_k\": {K},\n  \"shards\": {SHARDS},\n  \
         \"mem_budget_bytes\": {budget},\n  \
         \"budget_rule\": \"resident tid bytes / 4\",\n  \
         \"inmemory_min_ns\": {inm_min},\n  \"inmemory_median_ns\": {},\n  \
         \"oocore_min_ns\": {oo_min},\n  \"oocore_median_ns\": {},\n  \
         \"overhead_vs_inmemory\": {overhead:.3},\n  \"meets_2x_overhead_target\": {},\n  \
         \"passes\": {},\n  \"spill_bytes\": {},\n  \"load_bytes\": {},\n  \
         \"peak_resident_bytes\": {},\n  \"in_memory_resident_bytes\": {},\n  \
         \"bytes_touched_ratio\": {:.3},\n  \
         \"spill_mib_per_s\": {:.1},\n  \"load_mib_per_s\": {:.1},\n  \
         \"gate\": \"out-of-core output bit-identical to the in-memory sharded engine at the \
         quarter budget (checked before timing)\"\n}}\n",
        median_ns(c, "run_inmemory_k4"),
        median_ns(c, "run_oocore_k4_quarter_budget"),
        overhead <= 2.0,
        oo.passes,
        oo.spill_bytes,
        oo.load_bytes,
        oo.peak_resident_bytes,
        oo.in_memory_resident_bytes,
        oo.bytes_touched_ratio(),
        mib_per_s(oo.spill_bytes, oo.spill_time),
        mib_per_s(oo.load_bytes, oo.load_time),
    );
    let path = format!("{}/../../BENCH_oocore.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_oocore(&mut criterion);
}
