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
//! * [`ExecutorKind::Subprocess`] — shards as **OS processes**: one
//!   `cfp shard-host --stdio` child per non-empty shard, spoken to in
//!   worker interchange protocol v2 ([`crate::net`]) over its stdin and
//!   stdout — the sub-pool streams in as CRC-checked frames, the stats
//!   record and the archive slab stream back. Crash isolation per shard:
//!   a dead or stalled worker surfaces as a typed
//!   [`ExecutorError::Worker`], never a hang or a corrupt merge, with an
//!   opt-in in-process fallback
//!   ([`SubprocessConfig::fallback_in_process`]);
//! * [`ExecutorKind::Remote`] — the same protocol over TCP to
//!   `cfp shard-host` processes, with per-phase deadlines, deterministic
//!   retry/backoff, and in-thread fallback when a shard exhausts its
//!   attempts (see [`crate::net`]).
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
//! # One spill-and-mine path
//!
//! The disk-backed backends spill every sub-pool, empty ones included, to
//! a CFPSLAB file (`spill_sub_pools`), and every shard mined here from disk
//! — out-of-core, empty, or a failed worker's fallback — goes through
//! `fallback_shard`. The process-based backends both speak protocol v2
//! (the *worker interchange protocol* section of [`cfp_itemset::store`]'s
//! module docs) and differ only in transport and supervision: the
//! subprocess executor talks over a child's pipes and kills a child that
//! outlives its deadline; the remote executor dials a socket with
//! per-phase deadlines and retries.

use crate::algorithm::{threads_for, PatternFusion};
use crate::config::FusionConfig;
use crate::net::{converse, NetError, NetRequest, RemoteConfig};
use crate::oocore::{OocoreConfig, OocoreError};
use crate::parallel::run_tasks;
use crate::pool::PoolStore;
use crate::shard::{apportion_seeds, partition, shard_seed, MergePattern, Sharding};
use crate::stats::{NetStats, RunStats, ShardStats};
use cfp_itemset::{slab_io, PatternPool, SlabIoError};
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Distinguishes concurrently running executors' spill directories within
/// one parent process (the name also carries the pid).
static WORK_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which backend executes the shards of a partitioned run.
#[derive(Debug, Clone)]
pub enum ExecutorKind {
    /// Shards as tasks on the in-process work-stealing pool over the
    /// shared slab — the default engine.
    InThread,
    /// Shards as spilled slab files mined in memory-budgeted batches
    /// (the [`crate::oocore`] driver).
    OutOfCore(OocoreConfig),
    /// Shards as `cfp shard-host --stdio` child processes speaking
    /// protocol v2 over their pipes.
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
    /// Where the shard slabs are spilled (the fallback's input); `None` →
    /// a unique directory under the system temp dir, removed when the run
    /// finishes. A user-supplied directory must be empty (same contract as
    /// [`OocoreConfig::spill_dir`]).
    pub work_dir: Option<PathBuf>,
    /// Keep the work directory after the run (for inspection).
    pub keep_work: bool,
    /// Re-run a shard in-process (bit-identically, from its spilled slab)
    /// when its worker fails, instead of failing the run.
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
    /// The default configuration: self-exec worker, temp work dir, no
    /// fallback.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker executable.
    pub fn with_worker_cmd(mut self, cmd: impl Into<PathBuf>) -> Self {
        self.worker_cmd = Some(cmd.into());
        self
    }

    /// Overrides the work directory (must be empty if it exists).
    pub fn with_work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.work_dir = Some(dir.into());
        self
    }

    /// Keeps the work directory after the run.
    pub fn with_keep_work(mut self, keep: bool) -> Self {
        self.keep_work = keep;
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
        match self.exit {
            Some(code) => write!(
                f,
                "shard {} worker failed{marker} (exit {code}): {}",
                self.shard, self.detail
            ),
            None => write!(
                f,
                "shard {} worker failed{marker}: {}",
                self.shard, self.detail
            ),
        }
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
    /// Disk-side failure: spill/work directory management or slab I/O
    /// (shared with the out-of-core driver's error type).
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
    /// The pool as **base-slab** row ids (what disk-backed executors
    /// stream from), in the order the shards deal them.
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

/// Creates `dir` if needed and — for a **user-supplied** directory —
/// refuses one that already contains files: the run's cleanup guard
/// deletes the directory afterwards (unless `keep`), and silently reusing
/// then deleting a caller's populated directory destroys their data.
/// Auto-generated temp directories are unique per process and sequence
/// number and skip the check.
fn prepare_spill_dir(dir: &Path, user_supplied: bool) -> Result<(), OocoreError> {
    std::fs::create_dir_all(dir)?;
    if user_supplied && std::fs::read_dir(dir)?.next().is_some() {
        return Err(OocoreError::SpillDirNotEmpty(dir.to_path_buf()));
    }
    Ok(())
}

/// Removes the spill/work directory when dropped (best-effort), unless
/// asked to keep it — covers both the success path and every early `?`
/// return.
pub(crate) struct SpillDirGuard {
    /// The directory to remove.
    pub dir: PathBuf,
    /// Leave the directory behind.
    pub keep: bool,
}

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
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
            ExecutorKind::Subprocess(sp) => self.execute_subprocess(store, &plan, sp)?,
            ExecutorKind::Remote(rc) => self.execute_remote(store, &plan, rc, &mut stats)?,
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

    /// The in-thread backend: shards as tasks on the work-stealing pool,
    /// each forking the shared store (shared frozen base, private overlay)
    /// and running the plain loop under its derived config. Base-slab rows
    /// carry over as merge rows; overlay rows — the only patterns that
    /// exist nowhere else — travel as owned patterns to intern.
    fn execute_in_thread(&self, store: PoolStore, plan: &ShardPlan) -> ShardExecution {
        let cfg = self.config();
        let shard_runs = {
            let parent: &PoolStore = &store;
            run_tasks(plan.n, threads_for(cfg), |s| {
                let t0 = Instant::now();
                let mut shard_store = parent.fork();
                let scfg = shard_config(cfg, plan.seed_budget[s], s, plan.n);
                let (out_rows, mut stats) =
                    self.mine_sub_pool(&mut shard_store, plan.sub_rows(s), &scfg, s);
                stats.elapsed = t0.elapsed();
                (shard_store, out_rows, stats)
            })
        };
        let base_len = store.base_len() as u32;
        let runs = shard_runs
            .into_iter()
            .map(|(shard_store, out_rows, stats)| ShardRun {
                stats,
                outputs: out_rows
                    .into_iter()
                    .map(|r| {
                        if r < base_len {
                            MergePattern::Row(r)
                        } else {
                            MergePattern::Owned(shard_store.pattern(r))
                        }
                    })
                    .collect(),
            })
            .collect();
        ShardExecution {
            pool_rows: plan.rows.to_vec(),
            store,
            runs,
        }
    }

    /// The subprocess backend: spill the sub-pools (the fallback's input),
    /// spawn one `cfp shard-host --stdio` child per non-empty shard, and
    /// run the protocol v2 conversation over each child's pipes on a scoped
    /// thread — the same conversation the remote backend runs over TCP.
    /// Workers are collected in shard order, each bounded by its deadline
    /// from spawn. The parent store stays resident, so the merge interns
    /// worker archives straight into it — identical row identity to the
    /// in-thread engine.
    fn execute_subprocess(
        &self,
        store: PoolStore,
        plan: &ShardPlan,
        sp: &SubprocessConfig,
    ) -> Result<ShardExecution, ExecutorError> {
        let cfg = self.config();
        if cfg.closure_step && sp.db_path.is_none() {
            return Err(ExecutorError::Unsupported(
                "closure_step needs SubprocessConfig::db_path: workers rebuild the vertical \
                 index from the dataset file"
                    .into(),
            ));
        }
        let (spill, sub_rows, _) = spill_sub_pools(
            &store,
            plan,
            sp.work_dir.as_deref(),
            sp.keep_work,
            "cfp-procshard",
        )?;
        let worker = match &sp.worker_cmd {
            Some(cmd) => cmd.clone(),
            None => std::env::current_exe().map_err(|e| ExecutorError::Disk(e.into()))?,
        };
        let deadline = sp.deadline();
        let base = store.base_pool();
        let runs = thread::scope(|scope| {
            // Per shard: no worker (an empty shard, mined here from its
            // spilled slab), a running one, or a spawn failure — surfaced
            // at collection time so earlier shards still collect (or fall
            // back) first.
            let launches: Vec<Result<Option<Worker>, WorkerFailure>> = (0..plan.n)
                .map(|s| {
                    if sub_rows[s].is_empty() {
                        return Ok(None);
                    }
                    let mut cmd = Command::new(&worker);
                    cmd.args(["shard-host", "--stdio"])
                        .stdin(Stdio::piped())
                        .stdout(Stdio::piped())
                        .stderr(Stdio::piped());
                    if let (true, Some(db)) = (cfg.closure_step, &sp.db_path) {
                        // Only the closure step reads the dataset; any
                        // other worker would parse the whole file for
                        // nothing.
                        cmd.arg("--db").arg(db);
                    }
                    if let Some(spec) = &sp.fault {
                        // Forwarded on the child's environment only — never
                        // set on the parent process (tests run concurrently).
                        cmd.env("CFP_FAULT", spec);
                    }
                    let mut child = match cmd.spawn() {
                        Ok(child) => Reaped(child),
                        Err(e) => {
                            return Err(WorkerFailure {
                                shard: s,
                                exit: None,
                                detail: format!("failed to spawn {}: {e}", worker.display()),
                                timed_out: false,
                            })
                        }
                    };
                    let spawned = Instant::now();
                    let (stdin, stdout, stderr) = (
                        child.0.stdin.take().expect("piped stdin"),
                        child.0.stdout.take().expect("piped stdout"),
                        child.0.stderr.take().expect("piped stderr"),
                    );
                    let req = NetRequest {
                        shard: s,
                        shards: plan.n,
                        attempt: 0,
                        config: shard_config(cfg, plan.seed_budget[s], s, plan.n),
                    };
                    let sub_rows = &sub_rows[s];
                    let talk = scope.spawn(move || {
                        let mut r = io::BufReader::new(stdout);
                        let w = io::BufWriter::new(stdin);
                        let talked =
                            converse(&mut r, w, &req, base, sub_rows, &mut NetStats::default());
                        if talked.is_err() {
                            // Read the child out to its exit, so it never
                            // dies of the parent hanging up: its exit
                            // status and stderr then name the failure.
                            let _ = io::copy(&mut r, &mut io::sink());
                        }
                        (talked, spawned.elapsed())
                    });
                    // Drained on its own thread: a chatty child must never
                    // block on a full stderr pipe.
                    let errs = scope.spawn(move || {
                        let mut buf = Vec::new();
                        let _ = { stderr }.read_to_end(&mut buf);
                        buf
                    });
                    Ok(Some(Worker {
                        child,
                        spawned,
                        talk,
                        errs,
                    }))
                })
                .collect();
            // Collect in shard order. Returning early — the first failure
            // without fallback, or a fallback that cannot load its slab —
            // drops the remaining launches, which kills their children: a
            // dead worker never leaves the parent waiting on the others.
            let mut runs = Vec::with_capacity(plan.n);
            for (s, launch) in launches.into_iter().enumerate() {
                let outcome = match launch {
                    Ok(None) => {
                        runs.push(self.fallback_shard(s, plan, &spill.dir)?.0);
                        continue;
                    }
                    Ok(Some(worker)) => worker.finish(s, deadline),
                    Err(wf) => Err(wf),
                };
                match outcome {
                    Ok(run) => runs.push(run),
                    // Bit-identical recovery: the shard's slab is on disk;
                    // mine it here under the same derived config.
                    Err(_) if sp.fallback_in_process => {
                        runs.push(self.fallback_shard(s, plan, &spill.dir)?.0)
                    }
                    Err(wf) => return Err(ExecutorError::Worker(wf)),
                }
            }
            Ok(runs)
        })?;
        Ok(ShardExecution {
            pool_rows: plan.rows.to_vec(),
            store,
            runs,
        })
    }

    /// Mines shard `s` in this process from its spilled slab — an
    /// out-of-core shard, an empty shard, or a failed worker's fallback:
    /// the same sub-pool content and order under the same derived config,
    /// so the run is bit-identical to any other backend's. Returns the run
    /// (`elapsed` stamped, load included) and the slab's load time.
    pub(crate) fn fallback_shard(
        &self,
        s: usize,
        plan: &ShardPlan,
        dir: &Path,
    ) -> Result<(ShardRun, Duration), ExecutorError> {
        let t0 = Instant::now();
        let slab = slab_io::load_slab_path(shard_slab_path(dir, s))?;
        let load_time = t0.elapsed();
        let scfg = shard_config(self.config(), plan.seed_budget[s], s, plan.n);
        let (shard_store, out_rows, mut stats) = self.mine_shard_slab(slab, &scfg, s);
        stats.elapsed = t0.elapsed();
        let outputs = out_rows
            .iter()
            .map(|&r| MergePattern::Owned(shard_store.pattern(r)))
            .collect();
        Ok((ShardRun { stats, outputs }, load_time))
    }

    /// Runs shard `s`'s loop over its sub-pool slab, rows in slab order —
    /// the body behind a worker host's mine phase ([`crate::net`]) and
    /// [`PatternFusion::fallback_shard`]. Returns the shard's store with
    /// [`PatternFusion::mine_sub_pool`]'s output.
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

/// Spills every shard's sub-pool, empty ones included, as a CFPSLAB file
/// streamed row-wise from the base slab — the input of every shard mined
/// from disk. The directory is `work_dir`, which must be empty, or a fresh
/// `<prefix>-<pid>-<seq>` under the system temp dir. Returns its cleanup
/// guard, each shard's sub-pool as base row ids, and the bytes written.
pub(crate) fn spill_sub_pools(
    store: &PoolStore,
    plan: &ShardPlan,
    work_dir: Option<&Path>,
    keep: bool,
    prefix: &str,
) -> Result<(SpillDirGuard, Vec<Vec<u32>>, u64), ExecutorError> {
    let dir = match work_dir {
        Some(d) => d.to_path_buf(),
        None => std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            WORK_SEQ.fetch_add(1, Ordering::Relaxed)
        )),
    };
    prepare_spill_dir(&dir, work_dir.is_some())?;
    let guard = SpillDirGuard { dir, keep };
    let base = store.base_pool();
    let mut sub_rows = Vec::with_capacity(plan.n);
    let mut bytes = 0;
    for s in 0..plan.n {
        let sub = plan.sub_rows(s);
        bytes += slab_io::dump_slab_rows_path(base, &sub, shard_slab_path(&guard.dir, s))?;
        sub_rows.push(sub);
    }
    Ok((guard, sub_rows, bytes))
}

/// The slab [`spill_sub_pools`] writes for shard `s`, and
/// [`PatternFusion::fallback_shard`] loads.
pub(crate) fn shard_slab_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.slab"))
}

/// A spawned worker child, killed and reaped when dropped: whichever path
/// leaves the executor, no child outlives the run (killing one that has
/// already exited is a no-op).
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// What a worker's conversation thread returns: the shard's run (or the
/// typed wire failure) and the time from spawn to the end of the
/// conversation.
type Talk = (Result<ShardRun, NetError>, Duration);

/// One running worker: the child, its spawn time, the thread conversing
/// over its pipes, and the thread draining its stderr.
struct Worker<'scope> {
    child: Reaped,
    spawned: Instant,
    talk: ScopedJoinHandle<'scope, Talk>,
    errs: ScopedJoinHandle<'scope, Vec<u8>>,
}

impl Worker<'_> {
    /// Waits for the conversation to end and the child to exit, bounded by
    /// `deadline` from spawn: a child still running past it is killed,
    /// which ends the conversation. A completed conversation is the
    /// shard's run — its frames were CRC-checked and its archive matched
    /// its stats record, however the child exits afterwards. A failed one
    /// is a typed [`WorkerFailure`]: timed out, died (non-zero exit, with
    /// its stderr), or — for a child that exited cleanly — the wire error.
    fn finish(mut self, s: usize, deadline: Duration) -> Result<ShardRun, WorkerFailure> {
        let mut timed_out = false;
        let status: io::Result<ExitStatus> = loop {
            if self.talk.is_finished() {
                match self.child.0.try_wait() {
                    Ok(Some(status)) => break Ok(status),
                    Ok(None) => {}
                    Err(e) => break Err(e),
                }
            }
            if self.spawned.elapsed() >= deadline {
                let _ = self.child.0.kill();
                timed_out = true;
                break self.child.0.wait();
            }
            thread::sleep(Duration::from_millis(1));
        };
        let (talked, elapsed) = self.talk.join().expect("worker conversation panicked");
        let err = match talked {
            Ok(mut run) => {
                run.stats.elapsed = elapsed;
                return Ok(run);
            }
            Err(e) => e,
        };
        let stderr = self.errs.join().unwrap_or_default();
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
        Err(WorkerFailure {
            shard: s,
            exit,
            detail,
            timed_out,
        })
    }
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

    #[test]
    fn spill_dir_guard_and_preparation() {
        let base = std::env::temp_dir().join(format!("cfp-executor-test-{}", std::process::id()));
        let fresh = base.join("fresh");
        // Fresh (even pre-created empty) user dirs pass.
        prepare_spill_dir(&fresh, true).expect("fresh dir");
        prepare_spill_dir(&fresh, true).expect("existing empty dir");
        // Non-empty user dirs are refused with the typed error...
        std::fs::write(fresh.join("precious.txt"), b"do not delete").unwrap();
        match prepare_spill_dir(&fresh, true) {
            Err(OocoreError::SpillDirNotEmpty(d)) => assert_eq!(d, fresh),
            other => panic!("expected SpillDirNotEmpty, got {other:?}"),
        }
        // ...and the caller's file survives the refusal.
        assert!(fresh.join("precious.txt").is_file());
        // Auto-generated dirs skip the emptiness check.
        prepare_spill_dir(&fresh, false).expect("auto dir reuse");
        let _ = std::fs::remove_dir_all(&base);
    }
}
