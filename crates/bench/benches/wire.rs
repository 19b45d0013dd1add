//! Wire shard-executor benchmark: the two backends that ship shards over
//! the worker protocol, each against the in-thread sharded engine on the
//! 12 288-pattern clustered pool at 4 shards. Each measured unit is one
//! complete run. In-thread: partition + per-shard fusion + merge. A wire
//! run adds the per-shard CFPSLAB spill (the fallback's input) and, per
//! non-empty shard, the framed sub-pool upload, the worker's decode, mine
//! and stats record, and the framed archive download — over the pipes of
//! a spawned `cfp shard-host --stdio` child ([`ExecutorKind::Subprocess`])
//! or over loopback TCP to two in-process hosts ([`ExecutorKind::Remote`]).
//! The two sides of each ratio run in alternating samples, so a slowdown
//! of a shared box mid-run hits both alike.
//!
//! Headline numbers, each `overhead_vs_inthread` (wire wall clock over
//! in-thread wall clock): `BENCH_procshard.json` with target ≤ 2.5× and
//! `BENCH_netshard.json` with target ≤ 3×. Without real parallelism the
//! ratios mean nothing, so `threads_available` is exported alongside and
//! both gates self-skip below 2 cores. Before anything is timed, each
//! executor's output is checked bit-identical to the in-thread engine —
//! itemsets, support sets, AND per-shard counters — with zero retries and
//! zero fallbacks; a timed run that falls back fails too (a silent
//! fallback would fake a low overhead).

use cfp_core::{
    spawn_host, Engine, ExecutorKind, FusionConfig, FusionResult, HostOptions, RemoteConfig,
    RunStats, ShardStats, ShardStrategy, Source, SubprocessConfig,
};
use cfp_itemset::PatternPool;
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

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

/// The sources the `cfp` binary is built from.
const CFP_SOURCES: &str = "src crates/core/src crates/itemset/src crates/miners/src \
                           crates/datagen/src crates/quality/src";

/// The `cfp` binary the process workers run as. The bench harness builds
/// only the bench target, so the binary must come from a release build of
/// the current source: one older than any `.rs` file it is built from is
/// refused, since it would time old worker code or fail the handshake.
fn worker_binary() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let build = "run `cargo build --release --bin cfp` first (this bench spawns real \
                 `cfp shard-host --stdio` children)";
    let bin = ["release", "debug"]
        .map(|profile| root.join("target").join(profile).join("cfp"))
        .into_iter()
        .find(|p| p.is_file())
        .unwrap_or_else(|| panic!("no cfp binary under target/{{release,debug}}: {build}"));
    let sources = CFP_SOURCES.split_whitespace();
    let newest = sources.filter_map(|d| newest_rs(&root.join(d))).max();
    if let Some((_, source)) = newest.filter(|(t, _)| *t > modified(&bin)) {
        panic!(
            "{} is older than {}: {build}",
            bin.display(),
            source.display()
        );
    }
    bin
}

fn modified(path: &Path) -> SystemTime {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .unwrap_or(SystemTime::UNIX_EPOCH)
}

/// The most recently modified `.rs` file under `dir`, with its time.
fn newest_rs(dir: &Path) -> Option<(SystemTime, PathBuf)> {
    let mut newest = None;
    for path in std::fs::read_dir(dir).ok()?.flatten().map(|e| e.path()) {
        let found = if path.is_dir() {
            newest_rs(&path)
        } else {
            let rs = path.extension().is_some_and(|e| e == "rs");
            rs.then(|| (modified(&path), path))
        };
        newest = newest.max(found);
    }
    newest
}

/// The loopback fleet the remote side dials. The hosts live in this
/// process (detached serve threads).
fn remote_fleet() -> ExecutorKind {
    let workers: Vec<String> = (0..HOSTS)
        .map(|_| {
            let opts = HostOptions::default().with_heartbeat(Duration::from_millis(250));
            let (addr, _handle) = spawn_host(opts).expect("bind a loopback shard host");
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

/// One wire executor: its bench group (and summary file stem), its side of
/// the ratio, and what its summary records besides the shared fields.
struct Wire {
    group: &'static str,
    side: &'static str,
    executor: ExecutorKind,
    benchmark: &'static str,
    extra: String,
    target: f64,
    target_field: &'static str,
}

/// Per-shard counters with the wall-clock times zeroed.
fn counters(stats: &RunStats) -> Vec<ShardStats> {
    let zero = |s: &ShardStats| ShardStats {
        elapsed: Duration::ZERO,
        ..s.clone()
    };
    stats.shards.iter().map(zero).collect()
}

/// One run of a fresh copy of `slab` through `engine`, which must not fall
/// back in-process.
fn run(engine: &Engine, slab: &PatternPool, side: &str) -> FusionResult {
    let r = engine.mine(Source::Slab(black_box(slab.clone())));
    let r = r.unwrap_or_else(|e| panic!("{side} run: {e}"));
    assert_eq!(r.stats.net.fallbacks, 0, "{side} run fell back");
    r
}

fn main() {
    let mut c = Criterion::default();
    let mut rng = StdRng::seed_from_u64(2007);
    let pool = cfp_bench::clustered_pool(&mut rng, CLUSTERS, PER_CLUSTER, UNIVERSE);
    let mut slab = PatternPool::with_capacity(UNIVERSE, pool.len());
    for p in &pool {
        slab.push_tidset(p.items.items(), &p.tids);
    }
    let db = cfp_datagen::diag(4); // closure step is off: the db is never consulted
    let inm_engine = config().engine(&db).partitioned();
    let inm = run(&inm_engine, &slab, "in-thread");
    let wires = [
        Wire {
            group: "procshard",
            side: "subprocess",
            executor: ExecutorKind::Subprocess(
                SubprocessConfig::new().with_worker_cmd(worker_binary()),
            ),
            benchmark: "subprocess shard executor",
            extra: String::new(),
            target: 2.5,
            target_field: "meets_2p5x_overhead_target",
        },
        Wire {
            group: "netshard",
            side: "remote",
            executor: remote_fleet(),
            benchmark: "networked shard executor (loopback TCP, 2 hosts)",
            extra: format!("\"hosts\": {HOSTS},\n  "),
            target: 3.0,
            target_field: "meets_3x_overhead_target",
        },
    ];
    for wire in &wires {
        let side = wire.side;
        let engine = config().engine(&db).with_executor(wire.executor.clone());
        let checked = run(&engine, &slab, side);
        assert_eq!(inm.patterns, checked.patterns, "{side}: bit-identity");
        let shards = (counters(&inm.stats), counters(&checked.stats));
        assert_eq!(shards.0, shards.1, "{side}: per-shard counters");
        assert_eq!(checked.stats.net.retries, 0, "{side}: timed runs retried");

        let mut group = c.benchmark_group(wire.group);
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(4));
        group.bench_alternating(
            "run_inthread_k4",
            || run(&inm_engine, &slab, "in-thread").patterns.len(),
            format!("run_{side}_k4"),
            || run(&engine, &slab, side).patterns.len(),
        );
        group.finish();
        export_summary(&c, wire, pool.len());
    }
}

/// `(min, median)` nanoseconds of the measurement `group/id`.
fn times(c: &Criterion, group: &str, id: &str) -> (u128, u128) {
    let id = format!("{group}/{id}");
    let m = c.measurements.iter().find(|m| m.id == id);
    m.map_or((0, 0), |m| (m.min.as_nanos(), m.median.as_nanos()))
}

/// Writes `BENCH_<group>.json` at the workspace root: wall clock for both
/// sides (min + median; `min` is the exported estimator, as in the other
/// benches on this shared box), the overhead ratio with its target, and
/// the core count the gate's skip rule reads.
fn export_summary(c: &Criterion, wire: &Wire, pool_len: usize) {
    let Wire { group, side, .. } = *wire;
    let (inm_min, inm_median) = times(c, group, "run_inthread_k4");
    let (wire_min, wire_median) = times(c, group, &format!("run_{side}_k4"));
    let overhead = wire_min as f64 / inm_min.max(1) as f64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"{} vs in-thread sharded engine on the clustered pool\",\n  \
         \"pool_patterns\": {pool_len},\n  \"universe_tids\": {UNIVERSE},\n  \
         \"tau\": {TAU},\n  \"seed_budget_k\": {K},\n  \"shards\": {SHARDS},\n  {}\
         \"threads_available\": {threads},\n  \
         \"inthread_min_ns\": {inm_min},\n  \"inthread_median_ns\": {inm_median},\n  \
         \"{side}_min_ns\": {wire_min},\n  \"{side}_median_ns\": {wire_median},\n  \
         \"overhead_vs_inthread\": {overhead:.3},\n  \"{}\": {},\n  \
         \"gate\": \"{side} output bit-identical to the in-thread sharded engine, per-shard \
         counters included, zero retries and zero fallbacks (checked before timing); overhead \
         gate self-skips below 2 cores\"\n}}\n",
        wire.benchmark,
        wire.extra,
        wire.target_field,
        overhead <= wire.target,
    );
    let path = format!("{}/../../BENCH_{group}.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
