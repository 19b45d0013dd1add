//! Contracts of the subprocess shard executor
//! (`cfp_core::executor::ExecutorKind::Subprocess`), driven against the
//! real `cfp` binary (`cfp shard-host --stdio` children speaking wire
//! version 4 over their pipes):
//!
//! 1. **bit-identity** — the subprocess executor returns bit-for-bit the
//!    in-thread sharded engine's output for both partition strategies at
//!    1–4 shards and 1/2/8 worker threads — itemsets AND support sets,
//!    plus the per-shard counters shipped back in the stats frame — and a
//!    closure-step run matches the in-thread closure run;
//! 2. **worker failure is typed** — a worker that dies, stalls, never
//!    spawns, or breaks the wire (corrupt or truncated frame, killed
//!    mid-conversation) surfaces as
//!    [`colossal::fusion::ExecutorError::Worker`] with the shard index,
//!    never a hang or a partial merge; with `fallback_in_process` the
//!    failed worker's shard is re-mined in-process and the run still
//!    returns the bit-identical result;
//! 3. **configuration edges** — `closure_step` without a dataset path is
//!    rejected up front, and empty pools never spawn anything.

use colossal::fusion::{
    EngineError, ExecutorError, ExecutorKind, FusionConfig, FusionResult, Pattern, PatternFusion,
    RunStats, ShardStats, ShardStrategy, Source, SubprocessConfig,
};

/// The real worker binary: the `cfp` executable this test suite builds.
fn worker_cmd() -> &'static str {
    env!("CARGO_BIN_EXE_cfp")
}

fn subprocess() -> ExecutorKind {
    ExecutorKind::Subprocess(SubprocessConfig::new().with_worker_cmd(worker_cmd()))
}

/// The subprocess backend through the unified engine entry, with the
/// engine's wrapper peeled back off so the typed-error contracts below
/// keep matching on [`ExecutorError`] directly.
fn run_proc(
    db: &colossal::itemset::TransactionDb,
    cfg: FusionConfig,
    ex: ExecutorKind,
    source: Source,
) -> Result<FusionResult, ExecutorError> {
    cfg.engine(db)
        .with_executor(ex)
        .mine(source)
        .map_err(|e| match e {
            EngineError::Executor(inner) => inner,
            other => panic!("in-memory sources cannot fail to load: {other}"),
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
fn subprocess_is_bit_identical_to_in_thread_including_counters() {
    let data = planted_db();
    for strategy in ShardStrategy::ALL {
        for shards in [1usize, 2, 4] {
            let inm = PatternFusion::new(&data.db, config(shards, strategy, 1)).run();
            for threads in [1usize, 2, 8] {
                let proc = run_proc(
                    &data.db,
                    config(shards, strategy, threads),
                    subprocess(),
                    Source::Transactions,
                )
                .expect("subprocess run");
                let label = format!("{strategy:?} shards={shards} threads={threads}");
                assert_identical(&inm.patterns, &proc.patterns, &label);
                assert_eq!(inm.stats.converged, proc.stats.converged, "{label}");
                if shards > 1 {
                    // The in-thread baseline routed through the sharded
                    // engine: every per-shard counter — pool sizes,
                    // iterations, ball-query pruning, index maintenance —
                    // must survive the stats-record round trip bit-exactly.
                    assert_eq!(
                        shards_without_time(&inm.stats),
                        shards_without_time(&proc.stats),
                        "{label}: per-shard counters drifted"
                    );
                }
            }
        }
    }
}

#[test]
fn with_slab_entry_matches_in_thread_sharded_with_slab() {
    let db = colossal::datagen::diag_plus(12, 6, 9);
    let cfg = FusionConfig::new(8, 6)
        .with_seed(7)
        .with_shards(3)
        .with_shard_strategy(ShardStrategy::MinhashBucket);
    let engine = cfg.engine(&db);
    let slab = engine.fusion().mine_initial_slab();
    let inm = cfg
        .engine(&db)
        .partitioned()
        .mine(Source::Slab(slab.clone()))
        .unwrap();
    let proc = run_proc(&db, cfg, subprocess(), Source::Slab(slab)).expect("subprocess run");
    assert_identical(&inm.patterns, &proc.patterns, "with_slab");
    assert_eq!(
        shards_without_time(&inm.stats),
        shards_without_time(&proc.stats)
    );
}

#[test]
fn dead_worker_surfaces_as_a_typed_error() {
    let data = planted_db();
    let cfg = config(2, ShardStrategy::SupportStratum, 1);
    // `false` exits 1 immediately without speaking the protocol — the
    // run must fail typed (naming the shard and exit code), never hang
    // on the other worker or merge partial state.
    let ex = ExecutorKind::Subprocess(SubprocessConfig::new().with_worker_cmd("false"));
    match run_proc(&data.db, cfg, ex, Source::Transactions) {
        Err(ExecutorError::Worker(wf)) => {
            assert_eq!(wf.shard, 0, "failures collect in shard order");
            assert_eq!(wf.exit, Some(1), "{wf}");
            assert!(wf.detail.contains("worker died"), "{wf}");
        }
        other => panic!("expected a typed worker failure, got {other:?}"),
    }
}

#[test]
fn unspawnable_worker_surfaces_as_a_typed_error() {
    let data = planted_db();
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new().with_worker_cmd("/nonexistent/cfp-worker-binary"),
    );
    match run_proc(
        &data.db,
        config(2, ShardStrategy::SupportStratum, 1),
        ex,
        Source::Transactions,
    ) {
        Err(ExecutorError::Worker(wf)) => {
            assert_eq!(wf.exit, None, "{wf}");
            assert!(wf.detail.contains("failed to spawn"), "{wf}");
        }
        other => panic!("expected a typed spawn failure, got {other:?}"),
    }
}

#[test]
fn in_process_fallback_recovers_dead_workers_bit_identically() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(4, ShardStrategy::SupportStratum, 1)).run();
    // Every worker is dead on arrival; with the fallback enabled each
    // shard re-mines in-process from its spilled slab — the run succeeds
    // and stays bit-identical.
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new()
            .with_worker_cmd("false")
            .with_fallback_in_process(true),
    );
    let rec = run_proc(
        &data.db,
        config(4, ShardStrategy::SupportStratum, 2),
        ex,
        Source::Transactions,
    )
    .expect("fallback run");
    assert_identical(&inm.patterns, &rec.patterns, "fallback");
    assert_eq!(
        shards_without_time(&inm.stats),
        shards_without_time(&rec.stats),
        "fallback: per-shard counters drifted"
    );
}

#[test]
fn stalled_worker_is_killed_at_the_deadline_and_surfaces_typed() {
    let data = planted_db();
    // The worker's own CFP_FAULT (forwarded on its child environment)
    // stalls shard 0 before mining; historically `wait_with_output`
    // blocked forever here. The deadline must kill it and surface a
    // timed-out worker failure — a bounded wait, never a hang.
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new()
            .with_worker_cmd(worker_cmd())
            .with_fault("stall-mine:shard0")
            .with_timeout(std::time::Duration::from_millis(400)),
    );
    let t0 = std::time::Instant::now();
    match run_proc(
        &data.db,
        config(2, ShardStrategy::SupportStratum, 1),
        ex,
        Source::Transactions,
    ) {
        Err(ExecutorError::Worker(wf)) => {
            assert_eq!(wf.shard, 0, "{wf}");
            assert!(wf.timed_out, "{wf}");
            assert!(wf.to_string().contains("[timeout]"), "{wf}");
        }
        other => panic!("expected a timed-out worker failure, got {other:?}"),
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "the deadline bounded the wait"
    );
}

#[test]
fn fallback_recovers_a_stalled_worker_bit_identically() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(2, ShardStrategy::SupportStratum, 1)).run();
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new()
            .with_worker_cmd(worker_cmd())
            .with_fault("stall-mine:shard0")
            .with_timeout(std::time::Duration::from_millis(400))
            .with_fallback_in_process(true),
    );
    let rec = run_proc(
        &data.db,
        config(2, ShardStrategy::SupportStratum, 2),
        ex,
        Source::Transactions,
    )
    .expect("fallback run");
    assert_identical(&inm.patterns, &rec.patterns, "stall fallback");
    assert_eq!(
        shards_without_time(&inm.stats),
        shards_without_time(&rec.stats),
        "stall fallback: per-shard counters drifted"
    );
}

#[test]
fn closure_step_requires_a_dataset_path() {
    let data = planted_db();
    let cfg = config(2, ShardStrategy::SupportStratum, 1).with_closure_step(true);
    match run_proc(&data.db, cfg, subprocess(), Source::Transactions) {
        Err(ExecutorError::Unsupported(why)) => {
            assert!(why.contains("db_path"), "{why}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn empty_pool_spawns_nothing_and_returns_empty() {
    let db = colossal::datagen::diag(4);
    let cfg = FusionConfig::new(4, 2).with_shards(2);
    // A worker command that would fail instantly proves no child is ever
    // spawned for an empty pool.
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new().with_worker_cmd("/nonexistent/never-spawned"),
    );
    let r = run_proc(
        &db,
        cfg,
        ex,
        Source::Slab(colossal::fusion::PatternPool::new(4)),
    )
    .expect("empty pool run");
    assert!(r.patterns.is_empty());
    assert!(r.stats.shards.is_empty());
}

#[test]
fn host_side_faults_fail_typed_and_fall_back_bit_identically() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(2, ShardStrategy::SupportStratum, 1)).run();
    // Faults the worker host injects into its own half of the
    // conversation: a corrupt archive chunk, an archive chunk cut off
    // mid-frame, and a worker that dies right after reading its sub-pool.
    for fault in [
        "corrupt-frame:shard0",
        "truncate-frame:shard0",
        "kill-worker:shard0",
    ] {
        let sp = SubprocessConfig::new()
            .with_worker_cmd(worker_cmd())
            .with_fault(fault);
        match run_proc(
            &data.db,
            config(2, ShardStrategy::SupportStratum, 1),
            ExecutorKind::Subprocess(sp.clone()),
            Source::Transactions,
        ) {
            Err(ExecutorError::Worker(wf)) => {
                assert_eq!(wf.shard, 0, "{fault}: {wf}");
                assert!(!wf.timed_out, "{fault}: {wf}");
            }
            other => panic!("{fault}: expected a typed worker failure, got {other:?}"),
        }
        let rec = run_proc(
            &data.db,
            config(2, ShardStrategy::SupportStratum, 1),
            ExecutorKind::Subprocess(sp.with_fallback_in_process(true)),
            Source::Transactions,
        )
        .expect("fallback run");
        assert_identical(&inm.patterns, &rec.patterns, fault);
        assert_eq!(
            shards_without_time(&inm.stats),
            shards_without_time(&rec.stats),
            "{fault}: per-shard counters drifted"
        );
    }
}

#[test]
fn closure_step_workers_match_the_in_thread_closure_run() {
    // Workers rebuild the vertical index from the dataset file, so both
    // sides mine the database as read back from that file.
    let dir = std::env::temp_dir().join(format!("cfp-procshard-closure-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planted.dat");
    let mut file = std::fs::File::create(&path).unwrap();
    colossal::itemset::write_fimi(&planted_db().db, &mut file).unwrap();
    drop(file);
    let db = colossal::itemset::read_fimi(&path).unwrap();

    let cfg = config(2, ShardStrategy::SupportStratum, 1).with_closure_step(true);
    let inm = PatternFusion::new(&db, cfg.clone()).run();
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new()
            .with_worker_cmd(worker_cmd())
            .with_db_path(&path),
    );
    let proc = run_proc(&db, cfg, ex, Source::Transactions).expect("closure run");
    assert_identical(&inm.patterns, &proc.patterns, "closure");
    assert_eq!(
        shards_without_time(&inm.stats),
        shards_without_time(&proc.stats),
        "closure: per-shard counters drifted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workers_without_the_closure_step_never_read_the_dataset() {
    let data = planted_db();
    let inm = PatternFusion::new(&data.db, config(2, ShardStrategy::SupportStratum, 1)).run();
    // The dataset goes only to closure-step workers: a path that does not
    // exist is never opened by a run without the closure step.
    let ex = ExecutorKind::Subprocess(
        SubprocessConfig::new()
            .with_worker_cmd(worker_cmd())
            .with_db_path("/nonexistent/cfp-dataset.dat"),
    );
    let proc = run_proc(
        &data.db,
        config(2, ShardStrategy::SupportStratum, 1),
        ex,
        Source::Transactions,
    )
    .expect("a non-closure run never loads the dataset");
    assert_identical(&inm.patterns, &proc.patterns, "no closure");
}
