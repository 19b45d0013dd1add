//! Networked shard-executor benchmark: the TCP fan-out
//! ([`ExecutorKind::Remote`], two in-process `serve` hosts on loopback)
//! against the in-thread sharded engine on the 12 288-pattern clustered
//! pool at 4 shards.
//!
//! Each measured unit is one complete run. For the in-thread baseline:
//! partition + per-shard fusion + merge. For the remote executor:
//! additionally the per-shard CFPSLAB spill, one TCP dial per non-empty
//! shard, the framed sub-pool upload (chunked + CRC'd), the
//! host's slab decode, mine, stats record, and the framed archive-slab
//! download — the full wire round trip, amortized across a 2-host fleet.
//!
//! Headline number, exported to `BENCH_netshard.json`:
//!
//! * `overhead_vs_inthread` — remote wall clock over in-thread wall
//!   clock; target ≤ 3× (loopback framing + CRC + the extra slab decode
//!   must stay in the same league as the fusion work it distributes).
//!   The gate is meaningless without real parallelism, so
//!   `threads_available` is exported alongside and the regression gate
//!   self-skips below 2 cores.
//!
//! Output bit-identity with the in-thread engine — itemsets, support
//! sets, AND per-shard counters — is gated before anything is timed, and
//! the timed runs must complete with zero retries and zero fallbacks
//! (a silent in-thread fallback would fake a low overhead).

use cfp_core::{
    spawn_host, ExecutorKind, FusionConfig, HostOptions, RemoteConfig, ShardStrategy, Source,
};
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
const HOSTS: usize = 2;

fn config() -> FusionConfig {
    FusionConfig::new(K, 1)
        .with_tau(TAU)
        .with_seed(42)
        .with_max_ball_size(MAX_BALL)
        .with_shards(SHARDS)
        .with_shard_strategy(ShardStrategy::SupportStratum)
}

/// Spins up the loopback worker fleet and returns the remote executor
/// pointed at it. The hosts live in this process (detached serve threads),
/// so the bench measures the wire protocol and the dispatch machinery —
/// not process spawn, which `procshard` already prices.
fn remote_fleet() -> ExecutorKind {
    let workers: Vec<String> = (0..HOSTS)
        .map(|_| {
            let (addr, _handle) =
                spawn_host(HostOptions::default().with_heartbeat(Duration::from_millis(250)))
                    .expect("bind a loopback shard host");
            addr.to_string()
        })
        .collect();
    ExecutorKind::Remote(
        RemoteConfig::default()
            .with_workers(workers)
            .with_timeout(Duration::from_secs(60))
            .with_fallback_in_thread(false),
    )
}

fn bench_netshard(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2007);
    let pool = cfp_bench::clustered_pool(&mut rng, CLUSTERS, PER_CLUSTER, UNIVERSE);
    let mut slab = PatternPool::with_capacity(UNIVERSE, pool.len());
    for p in &pool {
        slab.push_tidset(p.items.items(), &p.tids);
    }
    let db = cfp_datagen::diag(4); // closure step is off: the db is never consulted

    let remote = remote_fleet();

    // --- Correctness gate, before anything is timed ------------------------
    // The remote run is bit-identical to the in-thread sharded engine,
    // per-shard counters included, and it got there over the wire — no
    // retries, no in-thread fallbacks.
    let inm_engine = config().engine(&db).partitioned();
    let net_engine = config().engine(&db).with_executor(remote);
    let inm = inm_engine.mine(Source::Slab(slab.clone())).unwrap();
    let net = net_engine
        .mine(Source::Slab(slab.clone()))
        .expect("remote run");
    assert_eq!(
        inm.patterns.len(),
        net.patterns.len(),
        "remote bit-identity violated (sizes)"
    );
    for (a, b) in inm.patterns.iter().zip(&net.patterns) {
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
        strip(&net.stats),
        "bit-identity violated (per-shard counters)"
    );
    assert_eq!(net.stats.net.retries, 0, "timed runs must not retry");
    assert_eq!(net.stats.net.fallbacks, 0, "timed runs must stay remote");

    let mut group = c.benchmark_group("netshard");
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
    group.bench_function("run_remote_k4", |b| {
        b.iter(|| {
            let r = net_engine
                .mine(Source::Slab(black_box(slab.clone())))
                .expect("remote run");
            assert_eq!(r.stats.net.fallbacks, 0, "timed run fell back in-thread");
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

/// Writes `BENCH_netshard.json` at the workspace root: wall-clock for
/// both engines (min + median; `min` is the exported estimator, as in the
/// other benches on this shared box), the networked fan-out overhead ratio
/// with its ≤ 3× target, and the core count the gate's skip rule reads.
fn export_summary(c: &Criterion, pool_len: usize) {
    let inm_min = min_ns(c, "run_inthread_k4");
    let net_min = min_ns(c, "run_remote_k4");
    let overhead = if inm_min == 0 {
        0.0
    } else {
        net_min as f64 / inm_min as f64
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"networked shard executor (loopback TCP, 2 hosts) vs in-thread \
         sharded engine on the clustered pool\",\n  \
         \"pool_patterns\": {pool_len},\n  \"universe_tids\": {UNIVERSE},\n  \
         \"tau\": {TAU},\n  \"seed_budget_k\": {K},\n  \"shards\": {SHARDS},\n  \
         \"hosts\": {HOSTS},\n  \
         \"threads_available\": {threads},\n  \
         \"inthread_min_ns\": {inm_min},\n  \"inthread_median_ns\": {},\n  \
         \"remote_min_ns\": {net_min},\n  \"remote_median_ns\": {},\n  \
         \"overhead_vs_inthread\": {overhead:.3},\n  \"meets_3x_overhead_target\": {},\n  \
         \"gate\": \"remote output bit-identical to the in-thread sharded engine, per-shard \
         counters included, zero retries and zero fallbacks (checked before timing); overhead \
         gate self-skips below 2 cores\"\n}}\n",
        median_ns(c, "run_inthread_k4"),
        median_ns(c, "run_remote_k4"),
        overhead <= 3.0,
    );
    let path = format!("{}/../../BENCH_netshard.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_netshard(&mut criterion);
}
