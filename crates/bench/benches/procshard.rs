//! Subprocess shard-executor benchmark: the OS-process fan-out
//! ([`ExecutorKind::Subprocess`], real `cfp shard-host --stdio` children)
//! against the in-thread sharded engine on the 12 288-pattern clustered
//! pool at 4 shards.
//!
//! Each measured unit is one complete run. For the in-thread baseline:
//! partition + per-shard fusion + merge. For the subprocess executor:
//! additionally the per-shard CFPSLAB spill (the fallback's input), one
//! process spawn per non-empty shard, the worker conversation over
//! each child's pipes (sub-pool frames in; stats record and archive frames
//! out, every frame CRC-checked on both ends), and the work-directory
//! lifecycle.
//!
//! Headline number, exported to `BENCH_procshard.json`:
//!
//! * `overhead_vs_inthread` — subprocess wall clock over in-thread wall
//!   clock; target ≤ 2.5× (process spawn + slab interchange must stay in
//!   the same league as the fusion work it isolates). The gate is
//!   meaningless without real parallelism, so `threads_available` is
//!   exported alongside and the regression gate self-skips below 2 cores.
//!
//! Output bit-identity with the in-thread engine — itemsets, support
//! sets, AND per-shard counters — is gated before anything is timed.

use cfp_core::{ExecutorKind, FusionConfig, ShardStrategy, Source, SubprocessConfig};
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

/// The `cfp` binary the workers run as. The bench harness only builds the
/// bench target, so the binary must already exist from the release build
/// that precedes benches in CI (and in any sane local workflow).
fn worker_binary() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for profile in ["release", "debug"] {
        let p = root.join("target").join(profile).join("cfp");
        if p.is_file() {
            return p;
        }
    }
    panic!(
        "no cfp binary under target/{{release,debug}}: run `cargo build --release` first \
         (this bench spawns real `cfp shard-host --stdio` children)"
    );
}

fn subprocess() -> ExecutorKind {
    ExecutorKind::Subprocess(SubprocessConfig::new().with_worker_cmd(worker_binary()))
}

fn bench_procshard(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2007);
    let pool = cfp_bench::clustered_pool(&mut rng, CLUSTERS, PER_CLUSTER, UNIVERSE);
    let mut slab = PatternPool::with_capacity(UNIVERSE, pool.len());
    for p in &pool {
        slab.push_tidset(p.items.items(), &p.tids);
    }
    let db = cfp_datagen::diag(4); // closure step is off: the db is never consulted

    // --- Correctness gate, before anything is timed ------------------------
    // The subprocess run is bit-identical to the in-thread sharded engine,
    // per-shard counters included.
    let inm_engine = config().engine(&db).partitioned();
    let proc_engine = config().engine(&db).with_executor(subprocess());
    let inm = inm_engine.mine(Source::Slab(slab.clone())).unwrap();
    let proc = proc_engine
        .mine(Source::Slab(slab.clone()))
        .expect("subprocess run");
    assert_eq!(
        inm.patterns.len(),
        proc.patterns.len(),
        "subprocess bit-identity violated (sizes)"
    );
    for (a, b) in inm.patterns.iter().zip(&proc.patterns) {
        assert_eq!(a.items, b.items, "bit-identity violated (itemsets)");
        assert_eq!(a.tids, b.tids, "bit-identity violated (supports)");
    }
    let strip = |stats: &cfp_core::RunStats| -> Vec<cfp_core::ShardStats> {
        stats
            .shards
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.elapsed = Duration::default();
                s
            })
            .collect()
    };
    assert_eq!(
        strip(&inm.stats),
        strip(&proc.stats),
        "bit-identity violated (per-shard counters)"
    );

    let mut group = c.benchmark_group("procshard");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4));
    group.bench_function("run_inthread_k4", |b| {
        b.iter(|| {
            let r = inm_engine
                .mine(Source::Slab(black_box(slab.clone())))
                .unwrap();
            (r.patterns.len(), r.stats.shards.len())
        })
    });
    group.bench_function("run_subprocess_k4", |b| {
        b.iter(|| {
            let r = proc_engine
                .mine(Source::Slab(black_box(slab.clone())))
                .expect("subprocess run");
            (r.patterns.len(), r.stats.shards.len())
        })
    });
    group.finish();

    export_summary(c, pool.len());
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

/// Writes `BENCH_procshard.json` at the workspace root: wall-clock for
/// both engines (min + median; `min` is the exported estimator, as in the
/// other benches on this shared box), the process fan-out overhead ratio
/// with its ≤ 2.5× target, and the core count the gate's skip rule reads.
fn export_summary(c: &Criterion, pool_len: usize) {
    let inm_min = min_ns(c, "run_inthread_k4");
    let proc_min = min_ns(c, "run_subprocess_k4");
    let overhead = if inm_min == 0 {
        0.0
    } else {
        proc_min as f64 / inm_min as f64
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"subprocess shard executor vs in-thread sharded engine on the \
         clustered pool\",\n  \
         \"pool_patterns\": {pool_len},\n  \"universe_tids\": {UNIVERSE},\n  \
         \"tau\": {TAU},\n  \"seed_budget_k\": {K},\n  \"shards\": {SHARDS},\n  \
         \"threads_available\": {threads},\n  \
         \"inthread_min_ns\": {inm_min},\n  \"inthread_median_ns\": {},\n  \
         \"subprocess_min_ns\": {proc_min},\n  \"subprocess_median_ns\": {},\n  \
         \"overhead_vs_inthread\": {overhead:.3},\n  \"meets_2p5x_overhead_target\": {},\n  \
         \"gate\": \"subprocess output bit-identical to the in-thread sharded engine, per-shard \
         counters included (checked before timing); overhead gate self-skips below 2 cores\"\n}}\n",
        median_ns(c, "run_inthread_k4"),
        median_ns(c, "run_subprocess_k4"),
        overhead <= 2.5,
    );
    let path = format!("{}/../../BENCH_procshard.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_procshard(&mut criterion);
}
