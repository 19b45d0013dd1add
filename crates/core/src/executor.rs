//! The `ShardExecutor` seam: one driver owns partition → execute →
//! deterministic merge; *where* the shards run is a pluggable backend.
//!
//! [`crate::shard`] proved the pool partitionable (balls are local, so a
//! shard mines its slice independently) and [`crate::oocore`] proved the
//! shard interchange serializable (a CFPSLAB file round-trips a sub-pool
//! bit-exactly). This module is the layer both were converging on: the
//! partition arithmetic (content-keyed assignment, proportional seed
//! budgets, per-shard config derivation) and the deterministic merge +
//! boundary repair run **once, here**, while the middle — "run these n
//! shard configs over these n sub-pools and give me each archive with its
//! counters" — is an [`ExecutorKind`]:
//!
//! * [`ExecutorKind::InThread`] — shards as tasks on the in-process
//!   work-stealing pool, reading the shared frozen slab through forks
//!   (zero copies);
//! * [`ExecutorKind::OutOfCore`] — shards as spilled slab files mined in
//!   budgeted batches with the pool evicted (the [`crate::oocore`]
//!   driver);
//! * [`ExecutorKind::Subprocess`] — shards as `cfp shard-host --stdio`
//!   child processes speaking the worker protocol ([`crate::net`]) over
//!   their pipes, with an opt-in in-process fallback
//!   ([`SubprocessConfig::fallback_in_process`]);
//! * [`ExecutorKind::Remote`] — the same protocol over TCP to
//!   `cfp shard-host` processes, with deterministic retry and, by default,
//!   in-thread fallback.
//!
//! A run with more than one shard deals its pool in stratified
//! `(support, itemset)` order — a sorted row list over the one mined slab
//! — so any caller-supplied pool order partitions as a fresh mine does.
//!
//! # Bit-identity across backends
//!
//! Every backend returns the same per-shard data for the same config:
//! shard assignment is a pure function of pool content, a spilled or
//! streamed shard slab preserves the sub-pool's row order, each shard runs
//! the identical derived per-shard config over identical content, and
//! archives travel as owned patterns whose interning restores row identity
//! in the merge store. `tests/oocore_equivalence.rs` proves it for the
//! out-of-core backend and `tests/procshard.rs` / `tests/netshard.rs`
//! (workspace root) for the process and remote backends: itemsets, support
//! sets, AND per-shard counters are bit-equal to the in-thread engine for
//! both partition strategies at any shard and thread count.
//!
//! # One shard body, one wire dispatcher
//!
//! Every shard mined in this process over the resident pool — an in-thread
//! shard, or a wire shard that is empty or whose worker failed — runs one
//! body (`mine_shard_in_thread`): fork the store and run the plain loop
//! under the shard's derived config. Only the out-of-core backend, which
//! exists to bound memory, writes the pool to disk ([`crate::oocore`]).
//! The process and remote backends share one dispatcher
//! (`execute_wire`): a scoped thread per shard makes the attempts, with a
//! deterministic backoff before each retry, then falls back or returns the
//! typed error. Only the *link* each attempt runs the one conversation
//! over differs. A **child** link spawns `cfp shard-host --stdio`, talks
//! over its pipes, kills it at its deadline from spawn and fails as a
//! [`WorkerFailure`]; a child gets one attempt. A **socket** link dials the
//! next worker address with per-phase deadlines and fails as a
//! [`NetFailure`] after [`RemoteConfig::attempts`].

use crate::algorithm::{threads_for, PatternFusion};
use crate::config::FusionConfig;
use crate::net::{converse, remote_attempt, retry_backoff, NetError, NetRequest, RemoteConfig};
use crate::oocore::{OocoreConfig, OocoreError};
use crate::parallel::run_tasks;
use crate::pool::PoolStore;
use crate::shard::{apportion_seeds, partition, shard_seed, MergePattern, Sharding};
use crate::stats::{NetStats, RunStats, ShardStats};
use cfp_itemset::{PatternPool, SlabIoError};
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Which backend executes the shards of a partitioned run.
#[derive(Debug, Clone)]
pub enum ExecutorKind {
    /// Shards as tasks on the in-process work-stealing pool over the
    /// shared slab — the default engine.
    InThread,
    /// Shards as spilled slab files mined in memory-budgeted batches
    /// (the [`crate::oocore`] driver).
    OutOfCore(OocoreConfig),
    /// Shards as `cfp shard-host --stdio` child processes speaking the
    /// worker protocol over their pipes.
    Subprocess(SubprocessConfig),
    /// Shards as remote `cfp shard-host` workers over TCP (see
    /// [`crate::net`]). The worker list must be non-empty.
    Remote(RemoteConfig),
}

impl ExecutorKind {
    /// Stable lowercase name (used in the CLI and env parsing).
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::InThread => "thread",
            ExecutorKind::OutOfCore(_) => "oocore",
            ExecutorKind::Subprocess(_) => "process",
            ExecutorKind::Remote(_) => "remote",
        }
    }

    /// Parses an executor name (`thread` / `oocore` / `process` / `remote`,
    /// with a few aliases; case-insensitive) into a default-configured
    /// kind. Unknown names are `None` — callers surface a hard error, never
    /// a silent default.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "thread" | "in-thread" | "inthread" | "threads" => Some(ExecutorKind::InThread),
            "oocore" | "out-of-core" | "ooc" => Some(ExecutorKind::OutOfCore(OocoreConfig::new(0))),
            "process" | "subprocess" | "proc" => {
                Some(ExecutorKind::Subprocess(SubprocessConfig::default()))
            }
            "remote" | "net" | "tcp" => Some(ExecutorKind::Remote(RemoteConfig::default())),
            _ => None,
        }
    }
}

/// Configuration of the subprocess executor.
#[derive(Debug, Clone, Default)]
pub struct SubprocessConfig {
    /// The worker executable. `None` → the current executable
    /// (`std::env::current_exe`), which is how the `cfp` binary re-invokes
    /// itself as `cfp shard-host --stdio`.
    pub worker_cmd: Option<PathBuf>,
    /// Re-mine a shard in-process over the resident pool, exactly as the
    /// in-thread engine mines it, when its worker fails, instead of
    /// failing the run.
    pub fallback_in_process: bool,
    /// Dataset path handed to workers (`--db`) so they can rebuild the
    /// vertical index. Required, and passed on, only when `closure_step`
    /// is on; the fusion loop itself never consults the database.
    pub db_path: Option<PathBuf>,
    /// Deadline for one worker, measured from its spawn. A worker still
    /// running past it is killed and surfaced as a timed-out
    /// [`ExecutorError::Worker`] — a stalled child can never hang the
    /// parent. `None` → `CFP_NET_TIMEOUT` (milliseconds) if set, else a
    /// generous default ([`DEFAULT_WORKER_DEADLINE`]).
    pub timeout: Option<Duration>,
    /// Fault-injection spec forwarded to workers via their `CFP_FAULT`
    /// environment (see [`crate::net::FaultPlan`]); only honored by
    /// workers built with the `fault-inject` feature (or under test).
    pub fault: Option<String>,
}

impl SubprocessConfig {
    /// The default configuration: self-exec worker, no fallback.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker executable.
    pub fn with_worker_cmd(mut self, cmd: impl Into<PathBuf>) -> Self {
        self.worker_cmd = Some(cmd.into());
        self
    }

    /// Enables the in-process fallback for dead workers.
    pub fn with_fallback_in_process(mut self, fallback: bool) -> Self {
        self.fallback_in_process = fallback;
        self
    }

    /// Hands a dataset path to closure-step workers (required for
    /// `closure_step`).
    pub fn with_db_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.db_path = Some(path.into());
        self
    }

    /// Overrides the per-worker deadline.
    pub fn with_timeout(mut self, deadline: Duration) -> Self {
        self.timeout = Some(deadline);
        self
    }

    /// Forwards a fault-injection spec to workers (testing only).
    pub fn with_fault(mut self, spec: impl Into<String>) -> Self {
        self.fault = Some(spec.into());
        self
    }

    /// The effective per-worker deadline: the explicit override, else
    /// `CFP_NET_TIMEOUT` milliseconds, else [`DEFAULT_WORKER_DEADLINE`].
    pub fn deadline(&self) -> Duration {
        self.timeout
            .or_else(crate::net::timeout_from_env)
            .unwrap_or(DEFAULT_WORKER_DEADLINE)
    }
}

/// The default deadline for one shard worker (subprocess executor) when
/// neither [`SubprocessConfig::timeout`] nor `CFP_NET_TIMEOUT` is set:
/// generous enough for real mining, finite so a wedged child can never
/// hang the parent forever.
pub const DEFAULT_WORKER_DEADLINE: Duration = Duration::from_secs(600);

/// A shard worker that did not deliver: spawn failure, death (killed or
/// non-zero exit), a blown deadline, or a protocol violation (corrupt
/// frame, stats record that does not parse, archive that does not match
/// it).
#[derive(Debug)]
pub struct WorkerFailure {
    /// Which shard's worker failed.
    pub shard: usize,
    /// The worker's exit code, when it ran and exited (killed workers and
    /// spawn failures have none).
    pub exit: Option<i32>,
    /// Human-readable detail (spawn error, captured stderr, protocol
    /// violation).
    pub detail: String,
    /// The worker blew its deadline and was killed by the parent — a
    /// stalled worker, not a dead one (distinguishable so callers and
    /// tests can tell "hung" from "crashed").
    pub timed_out: bool,
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let marker = if self.timed_out { " [timeout]" } else { "" };
        write!(f, "shard {} worker failed{marker}", self.shard)?;
        if let Some(code) = self.exit {
            write!(f, " (exit {code})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A remote shard that exhausted its retry budget (see [`crate::net`]):
/// which shard, how many attempts were made, and the final attempt's typed
/// failure.
#[derive(Debug)]
pub struct NetFailure {
    /// Which shard's remote dispatch failed.
    pub shard: usize,
    /// Connection attempts made before giving up.
    pub attempts: usize,
    /// The last attempt's failure (earlier attempts may have failed
    /// differently; the last one is what exhausted the budget).
    pub last: NetError,
}

impl fmt::Display for NetFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} remote dispatch failed after {} attempt(s): {}",
            self.shard, self.attempts, self.last
        )
    }
}

/// What went wrong driving a partitioned run through an executor.
#[derive(Debug)]
pub enum ExecutorError {
    /// Disk-side failure: the out-of-core backend's spill directory or
    /// slab I/O (its driver's error type), or the process backend failing
    /// to locate its own executable as the worker.
    Disk(OocoreError),
    /// A shard worker process failed and the in-process fallback was off.
    Worker(WorkerFailure),
    /// A remote shard exhausted its retry budget and the in-thread
    /// fallback was off.
    Net(NetFailure),
    /// The configuration cannot be shipped over the worker protocol (e.g.
    /// `closure_step` without [`SubprocessConfig::db_path`]).
    Unsupported(String),
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disk(e) => write!(f, "shard executor: {e}"),
            Self::Worker(w) => write!(f, "shard executor: {w}"),
            Self::Net(n) => write!(f, "shard executor: {n}"),
            Self::Unsupported(why) => write!(f, "shard executor: {why}"),
        }
    }
}

impl std::error::Error for ExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OocoreError> for ExecutorError {
    fn from(e: OocoreError) -> Self {
        Self::Disk(e)
    }
}

impl From<SlabIoError> for ExecutorError {
    fn from(e: SlabIoError) -> Self {
        Self::Disk(OocoreError::Slab(e))
    }
}

/// The partition a driver hands its backend: shard member lists
/// (positions into `rows`), the pool row-id list, and the per-shard seed
/// budgets.
pub(crate) struct ShardPlan<'a> {
    /// Shard count (≥ 1).
    pub n: usize,
    /// Per-shard position lists into `rows` (from [`partition`]).
    pub assignment: &'a [Vec<u32>],
    /// The pool as **base-slab** row ids (what the wire and out-of-core
    /// backends stream from), in the order the shards deal them.
    pub rows: &'a [u32],
    /// Per-shard seed budgets (from [`apportion_seeds`]).
    pub seed_budget: &'a [usize],
}

impl ShardPlan<'_> {
    /// Shard `s`'s sub-pool as base row ids, in pool order.
    pub fn sub_rows(&self, s: usize) -> Vec<u32> {
        self.assignment[s]
            .iter()
            .map(|&i| self.rows[i as usize])
            .collect()
    }
}

/// One shard's contribution back to the driver: its archive (as merge
/// inputs, in the shard's output order) and its counters.
pub(crate) struct ShardRun {
    /// The shard's archived patterns, ready for the deterministic merge.
    pub outputs: Vec<MergePattern>,
    /// The shard's counters (the `shard` index and `elapsed` stamped by
    /// the backend).
    pub stats: ShardStats,
}

/// What a backend returns: the store the merge runs in, the pool rows
/// valid in that store (for boundary repair's full-pool round; empty when
/// the pool was evicted and stays evicted), and the per-shard runs in
/// shard order.
pub(crate) struct ShardExecution {
    /// The merge store (the parent store for resident backends, a fresh
    /// store for the out-of-core backend).
    pub store: PoolStore,
    /// Pool rows valid in `store` (see [`PatternFusion::merge_shard_outputs`]).
    pub pool_rows: Vec<u32>,
    /// Per-shard results, in shard order.
    pub runs: Vec<ShardRun>,
}

/// The per-shard config derivation shared by every backend: single-shard
/// sharding, this shard's seed budget as K, the `(master seed, shard)`
/// derived RNG seed, and — for more than one shard — a widened archive cap
/// (local top-K truncation must not drop a pattern the global re-rank
/// would keep) and a single-threaded private loop (the coarse-grained
/// split replaces the fine-grained one).
pub(crate) fn shard_config(
    cfg: &FusionConfig,
    seed_budget: usize,
    shard: usize,
    shards: usize,
) -> FusionConfig {
    let mut scfg = cfg.clone();
    scfg.sharding = Sharding::single();
    scfg.k = seed_budget;
    scfg.seed = shard_seed(cfg.seed, shard, shards);
    if shards > 1 {
        scfg.archive_cap = Some(cfg.archive_cap.unwrap_or(cfg.k).max(scfg.k));
        scfg.threads = Some(1);
    }
    scfg
}

impl PatternFusion<'_> {
    /// The unified partitioned driver: partition the pool, derive per-shard
    /// seed budgets, hand the plan to the backend, then run the shared
    /// deterministic merge + boundary repair over whatever store the
    /// backend returned. Every partitioned run — whatever its source and
    /// backend — funnels through here.
    pub(crate) fn run_partitioned(
        &self,
        store: PoolStore,
        mut rows: Vec<u32>,
        executor: &ExecutorKind,
    ) -> Result<(PoolStore, Vec<u32>, RunStats), ExecutorError> {
        let cfg = self.config();
        let n = cfg.sharding.shards.max(1);
        let mut stats = RunStats {
            initial_pool_size: rows.len(),
            kernel_backend: cfp_itemset::kernels::Backend::active(),
            ..Default::default()
        };
        if rows.is_empty() {
            return Ok((store, rows, stats));
        }
        if n > 1 {
            // Deal the pool in stratified `(support, itemset)` order (ties
            // keep pool order): a sorted row list over the one slab, so any
            // caller-supplied pool order partitions as a fresh mine does.
            rows.sort_by(|&a, &b| {
                store
                    .support(a)
                    .cmp(&store.support(b))
                    .then_with(|| store.items_of(a).cmp(store.items_of(b)))
            });
        }
        let assignment = partition(&store, &rows, n, cfg.sharding.strategy);
        let sizes: Vec<usize> = assignment.iter().map(Vec::len).collect();
        let seed_budget = apportion_seeds(cfg.k, &sizes);
        let plan = ShardPlan {
            n,
            assignment: &assignment,
            rows: &rows,
            seed_budget: &seed_budget,
        };
        let execution = match executor {
            ExecutorKind::InThread => self.execute_in_thread(store, &plan),
            ExecutorKind::OutOfCore(oo) => {
                self.execute_out_of_core(store, &plan, oo, &mut stats)?
            }
            ExecutorKind::Subprocess(sp) => {
                self.execute_wire(store, &plan, &Link::child(cfg, sp)?, &mut stats)?
            }
            ExecutorKind::Remote(rc) => {
                self.execute_wire(store, &plan, &Link::socket(cfg, rc)?, &mut stats)?
            }
        };
        let ShardExecution {
            mut store,
            pool_rows,
            runs,
        } = execution;
        // Shard results merge in shard order (not completion order).
        let mut per_shard: Vec<Vec<MergePattern>> = Vec::with_capacity(runs.len());
        for run in runs {
            stats.shards.push(run.stats);
            per_shard.push(run.outputs);
        }
        let merged = self.merge_shard_outputs(&mut store, &pool_rows, per_shard, &mut stats);
        stats.converged = stats.shards.iter().all(|s| s.converged) && merged.len() <= cfg.k.max(1);
        Ok((store, merged, stats))
    }

    /// The in-thread backend: every shard a task on the work-stealing
    /// pool, each running [`PatternFusion::mine_shard_in_thread`].
    fn execute_in_thread(&self, store: PoolStore, plan: &ShardPlan) -> ShardExecution {
        let runs = run_tasks(plan.n, threads_for(self.config()), |s| {
            self.mine_shard_in_thread(&store, plan, s)
        });
        ShardExecution {
            pool_rows: plan.rows.to_vec(),
            store,
            runs,
        }
    }

    /// Mines shard `s` in this thread over the resident store — an
    /// in-thread shard, or a wire shard that is empty or whose worker
    /// failed: fork the store (shared frozen base, private overlay) and run
    /// the plain loop under the shard's derived config (`elapsed`
    /// stamped). Base-slab rows carry over as merge rows; overlay rows —
    /// the only patterns that exist nowhere else — travel as owned patterns
    /// to intern.
    fn mine_shard_in_thread(&self, store: &PoolStore, plan: &ShardPlan, s: usize) -> ShardRun {
        let t0 = Instant::now();
        let mut shard_store = store.fork();
        let scfg = shard_config(self.config(), plan.seed_budget[s], s, plan.n);
        let (out_rows, mut stats) =
            self.mine_sub_pool(&mut shard_store, plan.sub_rows(s), &scfg, s);
        stats.elapsed = t0.elapsed();
        let base_len = store.base_len() as u32;
        let outputs = out_rows
            .into_iter()
            .map(|r| {
                if r < base_len {
                    MergePattern::Row(r)
                } else {
                    MergePattern::Owned(shard_store.pattern(r))
                }
            })
            .collect();
        ShardRun { outputs, stats }
    }

    /// The process and remote backends: [`PatternFusion::wire_shard`] for
    /// each shard on its own scoped thread. The parent store stays
    /// resident, so the merge interns worker archives straight into it —
    /// identical row identity to the in-thread engine. Every shard's
    /// counters merge, in shard order, before the first failure returns.
    fn execute_wire(
        &self,
        store: PoolStore,
        plan: &ShardPlan,
        link: &Link,
        stats: &mut RunStats,
    ) -> Result<ShardExecution, ExecutorError> {
        let results: Vec<(Result<ShardRun, ExecutorError>, NetStats)> = thread::scope(|scope| {
            let store = &store;
            let shards: Vec<_> = (0..plan.n)
                .map(|s| scope.spawn(move || self.wire_shard(s, plan, link, store)))
                .collect();
            shards
                .into_iter()
                .map(|h| h.join().expect("shard dispatch thread panicked"))
                .collect()
        });
        for (_, net) in &results {
            stats.net.merge(net);
        }
        Ok(ShardExecution {
            pool_rows: plan.rows.to_vec(),
            store,
            runs: results
                .into_iter()
                .map(|(run, _)| run)
                .collect::<Result<_, _>>()?,
        })
    }

    /// One shard's dispatch: an empty shard mines here; otherwise the
    /// link's attempts, with a deterministic backoff before each retry,
    /// then the fallback here or the last attempt's typed error.
    fn wire_shard(
        &self,
        s: usize,
        plan: &ShardPlan,
        link: &Link,
        store: &PoolStore,
    ) -> (Result<ShardRun, ExecutorError>, NetStats) {
        let mut net = NetStats::default();
        if plan.assignment[s].is_empty() {
            return (Ok(self.mine_shard_in_thread(store, plan, s)), net);
        }
        let t0 = Instant::now();
        net.shards_dispatched = 1;
        let cfg = self.config();
        let (attempts, backoff_base, fallback) = match link {
            Link::Child(sp, _) => (1, Duration::ZERO, sp.fallback_in_process),
            Link::Socket(rc) => (rc.attempts.max(1), rc.backoff_base, rc.fallback_in_thread),
        };
        let mut req = NetRequest {
            shard: s,
            shards: plan.n,
            attempt: 0,
            config: shard_config(cfg, plan.seed_budget[s], s, plan.n),
        };
        let sub_rows = plan.sub_rows(s);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                net.retries += 1;
                let pause = retry_backoff(cfg.seed, s, attempt, backoff_base);
                net.backoff_total += pause;
                thread::sleep(pause);
            }
            net.attempts += 1;
            req.attempt = attempt;
            match link.attempt(&req, store.base_pool(), &sub_rows, &mut net) {
                Ok(mut run) => {
                    run.stats.elapsed = t0.elapsed();
                    return (Ok(run), net);
                }
                Err(e) => last = Some(e),
            }
        }
        if fallback {
            net.fallbacks += 1;
            return (Ok(self.mine_shard_in_thread(store, plan, s)), net);
        }
        (Err(last.expect("every link makes an attempt")), net)
    }

    /// Runs shard `s`'s loop over its sub-pool slab, rows in slab order —
    /// the body behind a worker host's mine phase ([`crate::net`]) and an
    /// out-of-core shard loaded from its spill file ([`crate::oocore`]).
    /// Returns the shard's store with [`PatternFusion::mine_sub_pool`]'s
    /// output.
    pub(crate) fn mine_shard_slab(
        &self,
        slab: PatternPool,
        scfg: &FusionConfig,
        s: usize,
    ) -> (PoolStore, Vec<u32>, ShardStats) {
        let rows = (0..slab.len() as u32).collect();
        let mut store = PoolStore::new(slab);
        let (out_rows, stats) = self.mine_sub_pool(&mut store, rows, scfg, s);
        (store, out_rows, stats)
    }

    /// The one per-shard body: shard `s`'s loop over `sub_rows` of `store`
    /// under its derived config `scfg`, returning the output rows and the
    /// shard's counters (`elapsed` left for the caller to stamp). An empty
    /// shard trivially converged on an empty archive.
    pub(crate) fn mine_sub_pool(
        &self,
        store: &mut PoolStore,
        sub_rows: Vec<u32>,
        scfg: &FusionConfig,
        s: usize,
    ) -> (Vec<u32>, ShardStats) {
        let pool_size = sub_rows.len();
        let (out_rows, run) = if sub_rows.is_empty() {
            let empty = RunStats {
                converged: true,
                ..Default::default()
            };
            (Vec::new(), empty)
        } else {
            self.run_rows_with(store, sub_rows, scfg)
        };
        let stats = ShardStats {
            shard: s,
            pool_size,
            patterns: out_rows.len(),
            iterations: run.iterations.len(),
            converged: run.converged,
            ball: run.ball(),
            tombstoned: run.tombstoned(),
            inserted: run.inserted(),
            compactions: run.compactions(),
            elapsed: Duration::ZERO,
        };
        (out_rows, stats)
    }
}

/// Where a wire shard's attempts run — the only per-backend part of
/// [`PatternFusion::execute_wire`].
enum Link<'a> {
    /// A `cfp shard-host --stdio` child per attempt, spawned from the
    /// resolved worker binary.
    Child(&'a SubprocessConfig, PathBuf),
    /// A `cfp shard-host` over TCP, the next worker address per attempt.
    Socket(&'a RemoteConfig),
}

impl<'a> Link<'a> {
    /// The child link; a closure run needs a dataset to hand its workers.
    fn child(cfg: &FusionConfig, sp: &'a SubprocessConfig) -> Result<Self, ExecutorError> {
        if cfg.closure_step && sp.db_path.is_none() {
            return Err(ExecutorError::Unsupported(
                "closure_step needs SubprocessConfig::db_path: workers rebuild the vertical \
                 index from the dataset file"
                    .into(),
            ));
        }
        let worker = match &sp.worker_cmd {
            Some(cmd) => cmd.clone(),
            None => std::env::current_exe().map_err(|e| ExecutorError::Disk(e.into()))?,
        };
        Ok(Link::Child(sp, worker))
    }

    /// The socket link; it needs a worker, and its hosts have no dataset.
    fn socket(cfg: &FusionConfig, rc: &'a RemoteConfig) -> Result<Self, ExecutorError> {
        if rc.workers.is_empty() {
            return Err(ExecutorError::Unsupported(
                "the remote executor needs at least one worker address \
                 (--workers host:port,... or CFP_WORKERS)"
                    .into(),
            ));
        }
        if cfg.closure_step {
            return Err(ExecutorError::Unsupported(
                "closure_step is not supported by the remote executor: hosts have no \
                 dataset to rebuild the vertical index from"
                    .into(),
            ));
        }
        Ok(Link::Socket(rc))
    }

    /// One attempt at `req`'s shard over a fresh child or connection, its
    /// failure typed for the backend.
    fn attempt(
        &self,
        req: &NetRequest,
        base: &PatternPool,
        sub_rows: &[u32],
        net: &mut NetStats,
    ) -> Result<ShardRun, ExecutorError> {
        match self {
            Link::Child(sp, worker) => {
                child_attempt(sp, worker, req, base, sub_rows, net).map_err(ExecutorError::Worker)
            }
            Link::Socket(rc) => remote_attempt(req, base, sub_rows, rc, net).map_err(|last| {
                ExecutorError::Net(NetFailure {
                    shard: req.shard,
                    attempts: req.attempt + 1,
                    last,
                })
            }),
        }
    }
}

/// A spawned worker child, killed and reaped when dropped: whichever path
/// leaves the attempt, no child outlives it (killing one that has already
/// exited is a no-op).
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The child link's attempt: spawn `cfp shard-host --stdio`, converse over
/// its pipes on a scoped thread, and wait for the conversation to end and
/// the child to exit, bounded by its deadline from spawn — a child still
/// running past it is killed, which ends the conversation. A completed
/// conversation is the shard's run: its frames were CRC-checked and its
/// archive matched its stats record, however the child exits afterwards. A
/// failed one is a typed [`WorkerFailure`]: timed out, died (non-zero
/// exit, with its stderr), or — for a child that exited cleanly — the
/// wire error.
fn child_attempt(
    sp: &SubprocessConfig,
    worker: &Path,
    req: &NetRequest,
    base: &PatternPool,
    sub_rows: &[u32],
    net: &mut NetStats,
) -> Result<ShardRun, WorkerFailure> {
    let failure = |exit, detail, timed_out| WorkerFailure {
        shard: req.shard,
        exit,
        detail,
        timed_out,
    };
    let mut cmd = Command::new(worker);
    cmd.args(["shard-host", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let (true, Some(db)) = (req.config.closure_step, &sp.db_path) {
        // Only the closure step reads the dataset; any other worker would
        // parse the whole file for nothing.
        cmd.arg("--db").arg(db);
    }
    if let Some(spec) = &sp.fault {
        // Forwarded on the child's environment only — never set on the
        // parent process (tests run concurrently).
        cmd.env("CFP_FAULT", spec);
    }
    let spawn_failed = |e: io::Error| {
        failure(
            None,
            format!("failed to spawn {}: {e}", worker.display()),
            false,
        )
    };
    let mut child = Reaped(cmd.spawn().map_err(spawn_failed)?);
    let (spawned, deadline) = (Instant::now(), sp.deadline());
    let (stdin, stdout, stderr) = (
        child.0.stdin.take().expect("piped stdin"),
        child.0.stdout.take().expect("piped stdout"),
        child.0.stderr.take().expect("piped stderr"),
    );
    thread::scope(|scope| {
        let talk = scope.spawn(move || {
            let mut r = io::BufReader::new(stdout);
            let talked = converse(&mut r, io::BufWriter::new(stdin), req, base, sub_rows, net);
            if talked.is_err() {
                // Read the child out to its exit, so it never dies of the
                // parent hanging up: its exit status and stderr then name
                // the failure.
                let _ = io::copy(&mut r, &mut io::sink());
            }
            talked
        });
        // Drained on its own thread: a chatty child must never block on a
        // full stderr pipe.
        let errs = scope.spawn(move || {
            let mut buf = Vec::new();
            let _ = { stderr }.read_to_end(&mut buf);
            buf
        });
        let mut timed_out = false;
        let status = loop {
            if talk.is_finished() {
                if let Some(status) = child.0.try_wait().transpose() {
                    break status;
                }
            }
            if spawned.elapsed() >= deadline {
                let _ = child.0.kill();
                timed_out = true;
                break child.0.wait();
            }
            thread::sleep(Duration::from_millis(1));
        };
        let err = match talk.join().expect("worker conversation panicked") {
            Ok(run) => return Ok(run),
            Err(e) => e,
        };
        let stderr = errs.join().unwrap_or_default();
        let stderr = String::from_utf8_lossy(&stderr);
        let with_stderr = |head: String| match stderr.trim() {
            "" => head,
            msg => format!("{head}: {msg}"),
        };
        let (exit, detail) = match status {
            _ if timed_out => (
                None,
                with_stderr(format!("worker timed out after {deadline:?} (killed)")),
            ),
            Ok(status) if !status.success() => (
                status.code(),
                with_stderr(format!("worker died ({status})")),
            ),
            Ok(status) => (status.code(), err.to_string()),
            Err(e) => (None, format!("wait failed: {e}")),
        };
        Err(failure(exit, detail, timed_out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_names_parse_case_insensitively() {
        assert!(matches!(
            ExecutorKind::parse("thread"),
            Some(ExecutorKind::InThread)
        ));
        assert!(matches!(
            ExecutorKind::parse(" OOCORE "),
            Some(ExecutorKind::OutOfCore(_))
        ));
        assert!(matches!(
            ExecutorKind::parse("Process"),
            Some(ExecutorKind::Subprocess(_))
        ));
        assert!(matches!(
            ExecutorKind::parse("subprocess"),
            Some(ExecutorKind::Subprocess(_))
        ));
        assert!(matches!(
            ExecutorKind::parse("Remote"),
            Some(ExecutorKind::Remote(_))
        ));
        assert!(matches!(
            ExecutorKind::parse("tcp"),
            Some(ExecutorKind::Remote(_))
        ));
        assert!(ExecutorKind::parse("gpu").is_none());
        assert!(ExecutorKind::parse("").is_none());
    }
}
