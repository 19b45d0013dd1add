//! Contracts of the remote shard executor
//! (`cfp_core::executor::ExecutorKind::Remote`), driven against real
//! localhost TCP hosts (`cfp_core::net::spawn_host` — the same serve loop
//! `cfp shard-host` runs):
//!
//! 1. **bit-identity** — the remote executor returns bit-for-bit the
//!    in-thread sharded engine's output for both partition strategies at
//!    1–4 shards and 1/2/8 coordinator threads, itemsets AND support sets
//!    plus the per-shard counters shipped back in the stats frame;
//! 2. **the fault matrix converges** — every injected fault (connection
//!    drop, mid-frame truncation, corrupt CRC, stalled mine, worker kill)
//!    ends in either a successful deterministic retry or a clean
//!    in-thread fallback, with output identical to the fault-free run —
//!    no hangs, no panics, no partial merges;
//! 3. **failures are typed** — retry exhaustion without fallback is
//!    [`ExecutorError::Net`] naming the shard, the attempt count, and the
//!    last per-phase failure; configuration edges (no workers,
//!    `closure_step`) are rejected up front;
//! 4. **proptest** — random fault schedules never change the answer.

use colossal::fusion::net::{self, FaultPlan, HostOptions, NetError, NetPhase, RemoteConfig};
use colossal::fusion::{
    EngineError, ExecutorError, ExecutorKind, FusionConfig, FusionResult, Pattern, PatternFusion,
    RunStats, ShardStats, ShardStrategy, Source,
};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::time::Duration;

/// Spawns an in-process host fleet with a test-friendly heartbeat.
fn fleet(n: usize, fault: &FaultPlan) -> Vec<String> {
    (0..n)
        .map(|_| {
            let opts = HostOptions::default()
                .with_heartbeat(Duration::from_millis(50))
                .with_fault(fault.clone());
            let (addr, _handle): (SocketAddr, _) = net::spawn_host(opts).expect("spawn host");
            addr.to_string()
        })
        .collect()
}

/// A remote executor over `workers` with snappy test pacing.
fn remote(workers: Vec<String>) -> RemoteConfig {
    RemoteConfig::default()
        .with_workers(workers)
        .with_timeout(Duration::from_millis(2_000))
        .with_backoff_base(Duration::from_millis(2))
}

/// The remote backend through the unified engine entry, with the engine's
/// wrapper peeled back off so the typed-error contracts below keep
/// matching on [`ExecutorError`] directly.
fn run_remote(
    db: &colossal::itemset::TransactionDb,
    cfg: FusionConfig,
    rc: RemoteConfig,
) -> Result<FusionResult, ExecutorError> {
    cfg.engine(db)
        .with_executor(ExecutorKind::Remote(rc))
        .mine(Source::Transactions)
        .map_err(|e| match e {
            EngineError::Executor(inner) => inner,
            other => panic!("the transactions source cannot fail to load: {other}"),
        })
}

/// Full bit-identity of two results: itemsets AND support sets, in order.
fn assert_identical(a: &[Pattern], b: &[Pattern], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: result sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.items, y.items, "{label}: itemset drift");
        assert_eq!(x.tids, y.tids, "{label}: support-set drift");
    }
}

/// Per-shard counters with wall-clock times (which legitimately vary)
/// zeroed out.
fn shards_without_time(stats: &RunStats) -> Vec<ShardStats> {
    stats
        .shards
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.elapsed = std::time::Duration::default();
            s
        })
        .collect()
}

fn planted_db() -> colossal::datagen::PlantedData {
    colossal::datagen::planted(&colossal::datagen::PlantedConfig {
        n_rows: 40,
        pattern_sizes: vec![9, 7, 6],
        pattern_support: 12,
        max_row_overlap: 4,
        row_len: 0,
        filler_rows_lo: 2,
        filler_rows_hi: 3,
        seed: 5,
    })
}

fn config(shards: usize, strategy: ShardStrategy, threads: usize) -> FusionConfig {
    FusionConfig::new(12, 12)
        .with_pool_max_len(2)
        .with_seed(99)
        .with_shards(shards)
        .with_shard_strategy(strategy)
        .with_threads(threads)
}

#[test]
fn remote_is_bit_identical_to_in_thread_including_counters() {
    let data = planted_db();
    let workers = fleet(2, &FaultPlan::default());
    for strategy in ShardStrategy::ALL {
        for shards in [1usize, 2, 4] {
            let inm = PatternFusion::new(&data.db, config(shards, strategy, 1)).run();
            for threads in [1usize, 2, 8] {
                let rem = run_remote(
                    &data.db,
                    config(shards, strategy, threads),
                    remote(workers.clone()),
                )
                .expect("remote run");
                let label = format!("{strategy:?} shards={shards} threads={threads}");
                assert_identical(&inm.patterns, &rem.patterns, &label);
                assert_eq!(inm.stats.converged, rem.stats.converged, "{label}");
                if shards > 1 {
                    assert_eq!(
                        shards_without_time(&inm.stats),
                        shards_without_time(&rem.stats),
                        "{label}: per-shard counters drifted"
                    );
                }
                assert_eq!(
                    rem.stats.net.fallbacks, 0,
                    "{label}: fault-free run fell back"
                );
                assert_eq!(rem.stats.net.retries, 0, "{label}: fault-free run retried");
            }
        }
    }
}

#[test]
fn every_host_side_fault_is_recovered_by_a_deterministic_retry() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(2, ShardStrategy::SupportStratum, 1)).run();
    // Each fault fires on attempt 0 of every shard; the retry (attempt 1)
    // must land clean. Fallback is OFF so success proves the retry alone.
    for fault in [
        "stall-mine",
        "corrupt-frame",
        "truncate-frame",
        "kill-worker",
    ] {
        let plan = FaultPlan::parse(&format!("{fault}:attempt0")).expect("plan");
        let workers = fleet(1, &plan);
        let rc = remote(workers)
            .with_timeout(Duration::from_millis(800))
            .with_fallback_in_thread(false);
        let rem = run_remote(&data.db, config(2, ShardStrategy::SupportStratum, 2), rc)
            .unwrap_or_else(|e| panic!("{fault}: retry did not recover: {e}"));
        assert_identical(&inm.patterns, &rem.patterns, fault);
        assert_eq!(
            shards_without_time(&inm.stats),
            shards_without_time(&rem.stats),
            "{fault}: per-shard counters drifted"
        );
        assert!(rem.stats.net.retries >= 1, "{fault}: retry never fired");
        assert_eq!(rem.stats.net.fallbacks, 0, "{fault}");
    }
}

#[test]
fn a_dropped_connection_is_recovered_by_a_deterministic_retry() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(2, ShardStrategy::SupportStratum, 1)).run();
    // Coordinator-side drop before dialing, attempt 0 only.
    let workers = fleet(1, &FaultPlan::default());
    let rc = remote(workers)
        .with_fault(FaultPlan::parse("drop-conn:attempt0").expect("plan"))
        .with_fallback_in_thread(false);
    let rem = run_remote(&data.db, config(2, ShardStrategy::SupportStratum, 2), rc)
        .expect("retry after drop-conn");
    assert_identical(&inm.patterns, &rem.patterns, "drop-conn");
    assert!(rem.stats.net.retries >= 1);
    assert_eq!(rem.stats.net.fallbacks, 0);
}

#[test]
fn retry_exhaustion_falls_back_in_thread_bit_identically() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(3, ShardStrategy::MinhashBucket, 1)).run();
    // Every attempt of every shard is dropped: the whole fleet is dead
    // from the coordinator's point of view. Fallback (the default) must
    // converge to the single-machine answer.
    let workers = fleet(1, &FaultPlan::default());
    let rc = remote(workers)
        .with_fault(FaultPlan::parse("drop-conn").expect("plan"))
        .with_attempts(2);
    let rem =
        run_remote(&data.db, config(3, ShardStrategy::MinhashBucket, 2), rc).expect("fallback run");
    assert_identical(&inm.patterns, &rem.patterns, "fallback");
    assert_eq!(
        shards_without_time(&inm.stats),
        shards_without_time(&rem.stats),
        "fallback: per-shard counters drifted"
    );
    let net = &rem.stats.net;
    assert_eq!(
        net.fallbacks, net.shards_dispatched,
        "every shard fell back"
    );
    assert_eq!(
        net.attempts,
        net.shards_dispatched * 2,
        "both attempts burned"
    );
    assert!(
        net.backoff_total > Duration::ZERO,
        "retries paused deterministically"
    );
}

#[test]
fn retry_exhaustion_without_fallback_is_a_typed_net_error() {
    let data = planted_db();
    let workers = fleet(1, &FaultPlan::default());
    let rc = remote(workers)
        .with_fault(FaultPlan::parse("drop-conn").expect("plan"))
        .with_attempts(3)
        .with_fallback_in_thread(false);
    match run_remote(&data.db, config(2, ShardStrategy::SupportStratum, 1), rc) {
        Err(ExecutorError::Net(nf)) => {
            assert_eq!(nf.shard, 0, "failures surface in shard order");
            assert_eq!(nf.attempts, 3, "{nf}");
            assert!(matches!(nf.last, NetError::Connect(_)), "{nf}");
        }
        other => panic!("expected a typed net failure, got {other:?}"),
    }
}

#[test]
fn a_stalled_mine_times_out_typed_not_hangs() {
    let data = planted_db();
    // The host accepts the shard, then sleeps without heartbeating; the
    // mine-phase deadline must fire (bounded wait), typed as a timeout.
    let plan = FaultPlan::parse("stall-mine").expect("plan");
    let workers = fleet(1, &plan);
    let rc = remote(workers)
        .with_timeout(Duration::from_millis(300))
        .with_attempts(1)
        .with_fallback_in_thread(false);
    let t0 = std::time::Instant::now();
    match run_remote(&data.db, config(1, ShardStrategy::SupportStratum, 1), rc) {
        Err(ExecutorError::Net(nf)) => {
            assert!(
                matches!(
                    nf.last,
                    NetError::Timeout {
                        phase: NetPhase::Mine
                    }
                ),
                "{nf}"
            );
        }
        other => panic!("expected a mine-phase timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the deadline bounded the wait"
    );
}

#[test]
fn connection_refused_is_typed_and_counted() {
    let data = planted_db();
    // Port 1 on localhost: nothing listens there (binding it needs root).
    let rc = remote(vec!["127.0.0.1:1".into()])
        .with_attempts(2)
        .with_fallback_in_thread(false);
    match run_remote(&data.db, config(2, ShardStrategy::SupportStratum, 1), rc) {
        Err(ExecutorError::Net(nf)) => {
            assert_eq!(nf.attempts, 2, "{nf}");
            assert!(matches!(nf.last, NetError::Connect(_)), "{nf}");
        }
        other => panic!("expected a typed connect failure, got {other:?}"),
    }
}

#[test]
fn no_workers_and_closure_step_are_rejected_up_front() {
    let data = planted_db();
    match run_remote(
        &data.db,
        config(2, ShardStrategy::SupportStratum, 1),
        RemoteConfig::default(),
    ) {
        Err(ExecutorError::Unsupported(why)) => assert!(why.contains("--workers"), "{why}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let cfg = config(2, ShardStrategy::SupportStratum, 1).with_closure_step(true);
    let rc = remote(vec!["127.0.0.1:1".into()]);
    match run_remote(&data.db, cfg, rc) {
        Err(ExecutorError::Unsupported(why)) => assert!(why.contains("closure_step"), "{why}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn empty_pool_dials_nothing_and_returns_empty() {
    let db = colossal::datagen::diag(4);
    let cfg = FusionConfig::new(4, 2).with_shards(2);
    // A worker address that would instantly refuse proves no connection
    // is ever attempted for an empty pool.
    let rc = remote(vec!["127.0.0.1:1".into()]);
    let r = cfg
        .engine(&db)
        .with_executor(ExecutorKind::Remote(rc))
        .mine(Source::Slab(colossal::fusion::PatternPool::new(4)))
        .expect("empty pool run");
    assert!(r.patterns.is_empty());
    assert!(r.stats.shards.is_empty());
    assert!(!r.stats.net.active());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever deterministic fault schedule hits the fleet, the answer
    /// never diverges from the fault-free in-thread run: each shard either
    /// retries through or falls back, both bit-identical.
    #[test]
    fn random_fault_schedules_never_change_the_answer(
        rules in proptest::collection::vec((0usize..5, 0usize..3, 0usize..2), 0..4),
    ) {
        const ACTIONS: [&str; 5] =
            ["drop-conn", "stall-mine", "corrupt-frame", "truncate-frame", "kill-worker"];
        let spec: Vec<String> = rules
            .iter()
            .map(|&(a, s, at)| format!("{}:shard{s}:attempt{at}", ACTIONS[a]))
            .collect();
        let plan = FaultPlan::parse(&spec.join(",")).expect("generated plan");

        let data = planted_db();
        let inm = PatternFusion::new(&data.db, config(3, ShardStrategy::SupportStratum, 1)).run();
        // The same plan arms both sides: the coordinator honors drop-conn,
        // the hosts honor the rest. Attempts exceed the targeted range
        // (0..2), so attempt 2 is always clean; fallback stays on anyway.
        let workers = fleet(2, &plan);
        let rc = remote(workers)
            .with_fault(plan)
            .with_timeout(Duration::from_millis(400))
            .with_attempts(3);
        let rem = run_remote(&data.db, config(3, ShardStrategy::SupportStratum, 2), rc)
            .expect("faulted run converges");
        assert_identical(&inm.patterns, &rem.patterns, &spec.join(","));
        prop_assert_eq!(
            shards_without_time(&inm.stats),
            shards_without_time(&rem.stats),
            "{}: per-shard counters drifted",
            spec.join(",")
        );
    }
}
