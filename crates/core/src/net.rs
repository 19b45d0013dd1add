//! The worker interchange protocol: the coordinator + host pair behind
//! both wire shard executors —
//! [`ExecutorKind::Subprocess`](crate::executor::ExecutorKind) over a
//! child's pipes and [`ExecutorKind::Remote`](crate::executor::ExecutorKind)
//! over TCP.
//!
//! The partitioned driver and the one wire dispatcher both backends share
//! live in [`crate::executor`]; this module supplies what they speak. Each
//! non-empty shard's sub-pool streams to a `cfp shard-host` process as
//! CRC-checked frames, the host mines it with the per-shard loop, and the
//! stats record plus the archive slab come back the same way. The frames,
//! the message codec behind the request and the stats record, the error
//! frame and the host's accept loop are the wire shared with `cfp serve`
//! ([`crate::wire`]; spec in [`cfp_itemset::store`]'s module docs). Both
//! halves of a conversation take any [`Read`]/[`Write`] pair: the
//! coordinator's `converse` runs over a socket or a child's pipes, and
//! [`serve_session`] is what a TCP host runs per connection and
//! `cfp shard-host --stdio` runs once on its stdin and stdout.
//! Bit-identity is the contract: the host runs the identical derived
//! config over identical sub-pool bytes, so a worker's archives match the
//! in-thread engine's exactly.
//!
//! # Failure model
//!
//! Every wait is bounded and every failure is typed ([`NetError`]):
//!
//! * **Deadlines** — over a socket, connect/send/mine/receive each run
//!   under the socket timeout ([`RemoteConfig::timeout`]). During the mine
//!   phase the host emits heartbeat frames, so a *slow* worker keeps the
//!   read alive while a *hung* one times out. A child has one deadline
//!   from its spawn instead
//!   ([`SubprocessConfig::timeout`](crate::executor::SubprocessConfig::timeout)),
//!   and is killed when it outlives it. The library reads no environment:
//!   `cfp` sets both deadlines, and the daemons' socket timeout, from
//!   `CFP_NET_TIMEOUT`.
//! * **Deterministic retry** — a socket shard gets bounded attempts with
//!   a backoff schedule derived from `(seed, shard, attempt)`
//!   ([`retry_backoff`]): no wall-clock randomness, so a given fault
//!   schedule replays identically. Consecutive attempts rotate to the next
//!   worker address. A child gets one attempt.
//! * **Graceful degradation** — a shard whose attempts all failed is
//!   re-mined in this process over the resident pool, by the in-thread
//!   engine's own shard body (on by default for remote runs, opt-in for
//!   process runs), so a dying fleet converges to the single-machine answer
//!   instead of erroring. No wire run writes a file.
//! * **Fault injection** — [`FaultPlan`] (`CFP_FAULT`) makes each failure
//!   path deterministically reachable from tests; compiled out of release
//!   builds unless the `fault-inject` feature is on.

use crate::algorithm::{splitmix64, PatternFusion};
use crate::ball::{BallQueryStats, MAX_PIVOTS};
use crate::config::FusionConfig;
use crate::executor::ShardRun;
use crate::pattern::Pattern;
use crate::shard::{MergePattern, Sharding};
use crate::stats::{NetStats, ShardStats};
use crate::wire::{
    accept_loop, bad_value, dial, field, head, is_timeout, spawn_local, DaemonOptions, ErrorFrame,
    Message, WireError,
};
pub use crate::wire::{
    read_frame, write_frame, FrameError, FrameSink, FrameSource, FRAME_BYE, FRAME_ERROR,
    FRAME_HEARTBEAT, FRAME_REQUEST, FRAME_SLAB_CHUNK, FRAME_SLAB_END, FRAME_STATS,
    MAX_FRAME_PAYLOAD, SLAB_CHUNK_BYTES,
};
use cfp_itemset::slab_io;
use cfp_itemset::{PatternPool, SlabIoError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// The worker request's handshake magic.
const REQUEST_MAGIC: &str = "cfp-net";
/// The stats record's handshake magic.
const STATS_MAGIC: &str = "cfp-stats";

/// How long an injected `stall-mine` fault sleeps — far beyond any test
/// deadline, far below forever (the enclosing process is always killed or
/// exits first).
const STALL_SLEEP: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------------
// Request and stats record
// ---------------------------------------------------------------------------

/// The request frame's contents: the shard's indices and its fully derived
/// config, one `key=value` field each in a `cfp-net` [`Message`].
/// [`NetRequest::to_text`] and [`NetRequest::parse`] are exact inverses.
#[derive(Debug, Clone)]
pub struct NetRequest {
    /// This shard's index.
    pub shard: usize,
    /// Total shard count of the parent run.
    pub shards: usize,
    /// Which attempt this is (0-based) — lets the host's fault plan
    /// target "fail the first attempt only".
    pub attempt: usize,
    /// The fully derived per-shard config.
    pub config: FusionConfig,
}

impl NetRequest {
    /// Serializes the request frame payload. Destructuring the config makes
    /// a new config field a compile error until the wire carries it;
    /// `sharding` stays home, as a worker runs one shard.
    pub fn to_text(&self) -> String {
        let FusionConfig {
            k,
            min_count,
            tau,
            pool_max_len,
            attempts_per_seed,
            max_results_per_seed,
            max_iterations,
            max_ball_size,
            closure_step,
            archive_cap,
            archive,
            parallel,
            threads,
            ball_pivots,
            sharding: _,
            seed,
        } = &self.config;
        let mut text = head(REQUEST_MAGIC);
        field(&mut text, "shard", self.shard);
        field(&mut text, "shards", self.shards);
        field(&mut text, "attempt", self.attempt);
        field(&mut text, "k", k);
        field(&mut text, "min_count", min_count);
        field(&mut text, "tau", tau);
        field(&mut text, "pool_max_len", pool_max_len);
        field(&mut text, "attempts_per_seed", attempts_per_seed);
        field(&mut text, "max_results_per_seed", max_results_per_seed);
        field(&mut text, "max_iterations", max_iterations);
        field(&mut text, "max_ball_size", max_ball_size);
        field(&mut text, "closure_step", closure_step);
        if let Some(cap) = archive_cap {
            field(&mut text, "archive_cap", cap);
        }
        field(&mut text, "archive", archive);
        field(&mut text, "parallel", parallel);
        if let Some(threads) = threads {
            field(&mut text, "threads", threads);
        }
        field(&mut text, "ball_pivots", ball_pivots);
        field(&mut text, "seed", seed);
        text
    }

    /// Parses a request frame payload. Every field but `archive_cap` and
    /// `threads` is required and no other is allowed, so version skew can
    /// never mine with a half-applied config.
    pub fn parse(payload: &[u8]) -> Result<Self, WireError> {
        let mut m = Message::decode(payload, REQUEST_MAGIC)?;
        let request = Self {
            shard: m.parse("shard")?,
            shards: m.parse("shards")?,
            attempt: m.parse("attempt")?,
            config: FusionConfig {
                k: m.parse("k")?,
                min_count: m.parse("min_count")?,
                tau: m.parse("tau")?,
                pool_max_len: m.parse("pool_max_len")?,
                attempts_per_seed: m.parse("attempts_per_seed")?,
                max_results_per_seed: m.parse("max_results_per_seed")?,
                max_iterations: m.parse("max_iterations")?,
                max_ball_size: m.parse("max_ball_size")?,
                closure_step: m.parse("closure_step")?,
                archive_cap: m.parse_opt("archive_cap")?,
                archive: m.parse("archive")?,
                parallel: m.parse("parallel")?,
                threads: m.parse_opt("threads")?,
                ball_pivots: m.parse("ball_pivots")?,
                sharding: Sharding::single(),
                seed: m.parse("seed")?,
            },
        };
        m.finish(&[])?;
        Ok(request)
    }
}

/// Serializes a shard's counters as the stats frame's payload, a
/// `cfp-stats` [`Message`] with one field per counter. Wall-clock
/// `elapsed` stays off the wire: the coordinator stamps its own.
pub(crate) fn stats_record(st: &ShardStats) -> String {
    let b = &st.ball;
    let mut text = head(STATS_MAGIC);
    field(&mut text, "shard", st.shard);
    field(&mut text, "pool_size", st.pool_size);
    field(&mut text, "patterns", st.patterns);
    field(&mut text, "iterations", st.iterations);
    field(&mut text, "converged", st.converged);
    field(&mut text, "tombstoned", st.tombstoned);
    field(&mut text, "inserted", st.inserted);
    field(&mut text, "compactions", st.compactions);
    field(&mut text, "ball.pairs_total", b.pairs_total);
    field(&mut text, "ball.cardinality_pruned", b.cardinality_pruned);
    field(&mut text, "ball.pivot_pruned", b.pivot_pruned);
    field(&mut text, "ball.exact_checked", b.exact_checked);
    field(&mut text, "ball.ball_members", b.ball_members);
    field(&mut text, "ball.accepted_by_bound", b.accepted_by_bound);
    field(&mut text, "ball.pivots_active", b.pivots_active);
    for (i, count) in b.pivot_prune_counts.iter().enumerate() {
        field(&mut text, &format!("ball.pivot_prune_counts.{i}"), count);
    }
    text
}

/// Parses `shard`'s stats record. Every counter is required and a record
/// for another shard is refused: a half-dead or skewed worker must fail
/// typed, not load zeros into the merge. `elapsed` comes back zero.
pub(crate) fn parse_stats_record(payload: &[u8], shard: usize) -> Result<ShardStats, WireError> {
    let mut m = Message::decode(payload, STATS_MAGIC)?;
    let from = m.require("shard")?;
    if from != shard.to_string() {
        return Err(bad_value("shard", from));
    }
    let mut ball = BallQueryStats {
        pairs_total: m.parse("ball.pairs_total")?,
        cardinality_pruned: m.parse("ball.cardinality_pruned")?,
        pivot_pruned: m.parse("ball.pivot_pruned")?,
        exact_checked: m.parse("ball.exact_checked")?,
        ball_members: m.parse("ball.ball_members")?,
        accepted_by_bound: m.parse("ball.accepted_by_bound")?,
        pivot_prune_counts: [0; MAX_PIVOTS],
        pivots_active: m.parse("ball.pivots_active")?,
    };
    for (i, count) in ball.pivot_prune_counts.iter_mut().enumerate() {
        *count = m.parse(&format!("ball.pivot_prune_counts.{i}"))?;
    }
    let stats = ShardStats {
        shard,
        pool_size: m.parse("pool_size")?,
        patterns: m.parse("patterns")?,
        iterations: m.parse("iterations")?,
        converged: m.parse("converged")?,
        ball,
        tombstoned: m.parse("tombstoned")?,
        inserted: m.parse("inserted")?,
        compactions: m.parse("compactions")?,
        elapsed: Duration::ZERO,
    };
    m.finish(&[])?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Failure taxonomy
// ---------------------------------------------------------------------------

/// Which deadline-bounded phase of a remote attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetPhase {
    /// Resolving or establishing the TCP connection.
    Connect,
    /// Shipping the request frame and the sub-pool slab.
    Send,
    /// Waiting for the stats record (heartbeats keep this phase alive).
    Mine,
    /// Reading the archive slab back.
    Receive,
}

impl NetPhase {
    /// The phase's lowercase wire/debug name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Connect => "connect",
            Self::Send => "send",
            Self::Mine => "mine",
            Self::Receive => "receive",
        }
    }
}

/// One remote attempt's typed failure — every variant is retryable; the
/// variant that survives retry exhaustion is what
/// [`NetFailure`](crate::executor::NetFailure) carries to the caller.
#[derive(Debug, Clone)]
pub enum NetError {
    /// Could not resolve or connect to the worker address.
    Connect(String),
    /// A phase deadline expired ([`RemoteConfig::timeout`]); during the mine
    /// phase this means the worker stopped heartbeating — hung, not slow.
    Timeout {
        /// The phase whose deadline fired.
        phase: NetPhase,
    },
    /// The byte stream broke: CRC mismatch, mid-frame close, protocol
    /// violation, or any non-timeout I/O failure.
    FrameCorrupt(String),
    /// The worker itself reported a typed failure (its would-be exit code
    /// plus its message).
    WorkerRemote {
        /// The worker's protocol exit code, if it sent one.
        exit: Option<i32>,
        /// The worker's failure message.
        stderr: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(m) => write!(f, "connect: {m}"),
            Self::Timeout { phase } => write!(f, "{} phase timed out", phase.name()),
            Self::FrameCorrupt(m) => write!(f, "frame corrupt: {m}"),
            Self::WorkerRemote { exit, stderr } => {
                write!(f, "worker failed")?;
                if let Some(code) = exit {
                    write!(f, " (exit {code})")?;
                }
                if !stderr.is_empty() {
                    write!(f, ": {stderr}")?;
                }
                Ok(())
            }
        }
    }
}

/// Maps a raw I/O failure in `phase` to the taxonomy.
fn io_error(phase: NetPhase, e: io::Error) -> NetError {
    if is_timeout(e.kind()) {
        NetError::Timeout { phase }
    } else {
        NetError::FrameCorrupt(format!("{} phase: {e}", phase.name()))
    }
}

/// Maps a frame-level failure in `phase` to the taxonomy.
fn frame_error(phase: NetPhase, e: FrameError) -> NetError {
    match e {
        FrameError::TimedOut => NetError::Timeout { phase },
        FrameError::Closed => {
            NetError::FrameCorrupt(format!("connection closed during {} phase", phase.name()))
        }
        FrameError::Corrupt(m) => NetError::FrameCorrupt(m),
        FrameError::Io(e) => io_error(phase, e),
    }
}

/// Maps a slab decode failure in `phase`: a timeout stays a timeout,
/// everything else (bad magic, CRC, truncation) is stream corruption.
fn slab_error(phase: NetPhase, what: &str, e: SlabIoError) -> NetError {
    match e {
        SlabIoError::Io(ioe) => match io_error(phase, ioe) {
            NetError::FrameCorrupt(m) => NetError::FrameCorrupt(format!("{what}: {m}")),
            other => other,
        },
        other => NetError::FrameCorrupt(format!("{what}: {other}")),
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// An injectable fault (the `CFP_FAULT` action names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Coordinator side: fail the attempt before connecting.
    DropConn,
    /// Worker side: sleep without heartbeating before mining (reaches the
    /// remote mine-phase deadline, and the subprocess executor's deadline
    /// from spawn).
    StallMine,
    /// Worker side: flip a payload byte in the first archive chunk after
    /// computing its CRC (reaches the CRC check).
    CorruptFrame,
    /// Worker side: die halfway through an archive chunk's payload
    /// (reaches the mid-frame-close path).
    TruncateFrame,
    /// Worker side: end the session with no response right after reading
    /// the sub-pool (reaches the closed-while-mining path).
    KillWorker,
}

impl FaultAction {
    /// Parses a `CFP_FAULT` action name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "drop-conn" => Self::DropConn,
            "stall-mine" => Self::StallMine,
            "corrupt-frame" => Self::CorruptFrame,
            "truncate-frame" => Self::TruncateFrame,
            "kill-worker" => Self::KillWorker,
            _ => return None,
        })
    }
}

/// One parsed `CFP_FAULT` entry: an action plus optional shard / attempt
/// selectors (omitted = fire on every shard / attempt).
#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    action: FaultAction,
    shard: Option<usize>,
    attempt: Option<usize>,
}

/// A deterministic fault schedule
/// (`CFP_FAULT=drop-conn:shard1:attempt0,stall-mine:shard2,...`). Faults
/// only exist under `cfg(any(test, feature = "fault-inject"))`; a release
/// build's plan is always empty and [`FaultPlan::fires`] is always
/// `false` — zero branches survive in the hot path.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    #[cfg(any(test, feature = "fault-inject"))]
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Whether this build can inject faults at all.
    pub const fn compiled_in() -> bool {
        cfg!(any(test, feature = "fault-inject"))
    }

    /// Parses a `CFP_FAULT` spec: comma-separated
    /// `action[:shard<N>][:attempt<M>]` entries.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let mut parts = entry.split(':');
            let action = parts.next().unwrap_or("");
            let action = FaultAction::parse(action)
                .ok_or_else(|| format!("unknown fault action '{action}' in '{entry}'"))?;
            let mut rule = FaultRule {
                action,
                shard: None,
                attempt: None,
            };
            for sel in parts {
                if let Some(n) = sel.strip_prefix("shard") {
                    rule.shard = Some(
                        n.parse()
                            .map_err(|_| format!("bad shard selector '{sel}' in '{entry}'"))?,
                    );
                } else if let Some(n) = sel.strip_prefix("attempt") {
                    rule.attempt = Some(
                        n.parse()
                            .map_err(|_| format!("bad attempt selector '{sel}' in '{entry}'"))?,
                    );
                } else {
                    return Err(format!("unknown fault selector '{sel}' in '{entry}'"));
                }
            }
            rules.push(rule);
        }
        Ok(Self { rules })
    }

    /// Fault injection is compiled out of this build.
    #[cfg(not(any(test, feature = "fault-inject")))]
    pub fn parse(_spec: &str) -> Result<Self, String> {
        Err("fault injection not compiled in (build with --features fault-inject)".into())
    }

    /// Whether `action` fires for `(shard, attempt)`.
    pub fn fires(&self, action: FaultAction, shard: usize, attempt: usize) -> bool {
        #[cfg(any(test, feature = "fault-inject"))]
        {
            self.rules.iter().any(|r| {
                r.action == action
                    && r.shard.unwrap_or(shard) == shard
                    && r.attempt.unwrap_or(attempt) == attempt
            })
        }
        #[cfg(not(any(test, feature = "fault-inject")))]
        {
            let _ = (action, shard, attempt);
            false
        }
    }

    /// Sleeps far past any deadline if `stall-mine` fires — how tests
    /// reach the mine-phase timeout (and the subprocess deadline) without
    /// a slow shard.
    pub(crate) fn maybe_stall(&self, shard: usize, attempt: usize) {
        if self.fires(FaultAction::StallMine, shard, attempt) {
            thread::sleep(STALL_SLEEP);
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator configuration
// ---------------------------------------------------------------------------

/// Configuration of the remote executor's coordinator side.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Worker addresses (`host:port`). Shard `s`'s attempt `a` goes to
    /// `workers[(s + a) % len]` — deterministic placement, and a retry
    /// rotates to the next worker.
    pub workers: Vec<String>,
    /// Per-phase socket deadline; `cfp` sets it from `CFP_NET_TIMEOUT`
    /// (milliseconds).
    pub timeout: Duration,
    /// Attempts per shard before fallback / typed failure (min 1); `cfp`
    /// sets it from `CFP_NET_ATTEMPTS`.
    pub attempts: usize,
    /// Backoff base: attempt `a`'s pause is drawn deterministically from
    /// `[base·2^a / 2, base·2^a]` by [`retry_backoff`].
    pub backoff_base: Duration,
    /// Re-mine a retry-exhausted shard in-thread over the resident pool,
    /// exactly as the in-thread engine mines it (on by default — graceful
    /// degradation is the point).
    pub fallback_in_thread: bool,
    /// Coordinator-side fault schedule (tests only).
    pub fault: FaultPlan,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            timeout: Duration::from_secs(30),
            attempts: 3,
            backoff_base: Duration::from_millis(25),
            fallback_in_thread: true,
            fault: FaultPlan::default(),
        }
    }
}

impl RemoteConfig {
    /// Sets the worker address list.
    pub fn with_workers(mut self, workers: Vec<String>) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-phase socket deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the per-shard attempt budget (min 1).
    pub fn with_attempts(mut self, attempts: usize) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Sets the deterministic backoff base.
    pub fn with_backoff_base(mut self, base: Duration) -> Self {
        self.backoff_base = base;
        self
    }

    /// Enables or disables the in-thread fallback.
    pub fn with_fallback_in_thread(mut self, fallback: bool) -> Self {
        self.fallback_in_thread = fallback;
        self
    }

    /// Sets the coordinator-side fault schedule.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// The deterministic retry pause before attempt `attempt` (≥ 1) of
/// `shard`: an exponential window `base·2^min(attempt,10)` jittered into
/// `[window/2, window]` by a `splitmix64` hash of
/// `(seed, shard, attempt)` — no wall-clock randomness, so a given fault
/// schedule replays with identical pacing.
pub fn retry_backoff(seed: u64, shard: usize, attempt: usize, base: Duration) -> Duration {
    let base_ms = (base.as_millis() as u64).max(1);
    let window = base_ms.saturating_mul(1 << attempt.min(10));
    let h = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15 ^ ((shard as u64) << 32) ^ attempt as u64);
    let span = window - window / 2 + 1;
    Duration::from_millis(window / 2 + h % span)
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// The socket link's attempt (see [`crate::executor`]): dial
/// `workers[(shard + attempt) % len]` under the deadline, then run the
/// conversation over the socket. Any failure is typed and
/// leaves no state behind (the connection drops).
pub(crate) fn remote_attempt(
    req: &NetRequest,
    base: &PatternPool,
    sub_rows: &[u32],
    rc: &RemoteConfig,
    net: &mut NetStats,
) -> Result<ShardRun, NetError> {
    if rc
        .fault
        .fires(FaultAction::DropConn, req.shard, req.attempt)
    {
        return Err(NetError::Connect("injected drop-conn".into()));
    }
    let addr = &rc.workers[(req.shard + req.attempt) % rc.workers.len()];
    let stream = match dial(addr, rc.timeout) {
        Ok(stream) => stream,
        Err(e) if is_timeout(e.kind()) => return Err(io_error(NetPhase::Connect, e)),
        Err(e) => return Err(NetError::Connect(format!("{addr}: {e}"))),
    };
    converse(
        io::BufReader::new(&stream),
        io::BufWriter::new(&stream),
        req,
        base,
        sub_rows,
        net,
    )
}

/// The coordinator's half of one conversation, over any byte pipe pair (a
/// socket, or a child's stdout and stdin): stream the request and the
/// sub-pool, wait out the mine phase on heartbeats, read the stats record
/// and the archive back, cross-checking every declared count, then say
/// bye. The archive comes back as owned merge patterns with the shard's
/// counters (`elapsed` left for the caller to stamp).
pub(crate) fn converse<R: Read, W: Write>(
    mut r: R,
    mut w: W,
    req: &NetRequest,
    base: &PatternPool,
    sub_rows: &[u32],
    net: &mut NetStats,
) -> Result<ShardRun, NetError> {
    // Send: the request frame, then the sub-pool streamed row-wise from
    // the shared base slab through the chunking sink — no whole-slab
    // buffer on this side of the wire.
    let text = req.to_text();
    write_frame(&mut w, FRAME_REQUEST, text.as_bytes()).map_err(|e| io_error(NetPhase::Send, e))?;
    net.bytes_sent += text.len() as u64;
    let mut sink = FrameSink::new(&mut w);
    slab_io::write_slab_rows(base, sub_rows, &mut sink)
        .map_err(|e| slab_error(NetPhase::Send, "sub-pool slab", e))?;
    net.bytes_sent += sink.finish().map_err(|e| io_error(NetPhase::Send, e))?;

    // Mine: heartbeats keep the read deadline alive until the stats
    // record (or a typed worker error) arrives.
    let stats = loop {
        match read_frame(&mut r) {
            Ok((FRAME_HEARTBEAT, _)) => net.heartbeats += 1,
            Ok((FRAME_STATS, payload)) => {
                net.bytes_received += payload.len() as u64;
                break parse_stats_record(&payload, req.shard)
                    .map_err(|e| NetError::FrameCorrupt(format!("stats record: {e}")))?;
            }
            Ok((FRAME_ERROR, payload)) => {
                let frame = ErrorFrame::decode(&payload);
                return Err(NetError::WorkerRemote {
                    exit: frame.exit,
                    stderr: frame.message,
                });
            }
            Ok((k, _)) => {
                return Err(NetError::FrameCorrupt(format!(
                    "unexpected frame kind {k} while waiting for stats"
                )))
            }
            Err(e) => return Err(frame_error(NetPhase::Mine, e)),
        }
    };
    if stats.pool_size != sub_rows.len() {
        return Err(NetError::FrameCorrupt(format!(
            "worker mined {} rows but {} were shipped",
            stats.pool_size,
            sub_rows.len()
        )));
    }

    // Receive: the archive slab, decoded straight off the frame stream.
    let mut source = FrameSource::new(&mut r);
    let slab = slab_io::read_slab(&mut source)
        .map_err(|e| slab_error(NetPhase::Receive, "archive slab", e))?;
    let (bytes, beats) = source
        .finish()
        .map_err(|e| io_error(NetPhase::Receive, e))?;
    net.bytes_received += bytes;
    net.heartbeats += beats;
    if slab.len() != stats.patterns {
        return Err(NetError::FrameCorrupt(format!(
            "archive slab has {} patterns but the stats record declared {}",
            slab.len(),
            stats.patterns
        )));
    }
    // Best-effort teardown; the host may already be gone.
    let _ = write_frame(&mut w, FRAME_BYE, &[]).and_then(|()| w.flush());
    // Archive rows intern into the merge store as owned patterns.
    let outputs = (0..slab.len() as u32)
        .map(|r| MergePattern::Owned(Pattern::new(slab.itemset(r), slab.tidset(r))))
        .collect();
    Ok(ShardRun { outputs, stats })
}

// ---------------------------------------------------------------------------
// Host (worker side)
// ---------------------------------------------------------------------------

/// `cfp shard-host` behavior knobs.
#[derive(Debug, Clone)]
pub struct HostOptions {
    /// The settings shared with `cfp serve`.
    pub daemon: DaemonOptions,
    /// Mine-phase heartbeat cadence.
    pub heartbeat: Duration,
    /// Host-side fault schedule (tests only).
    pub fault: FaultPlan,
}

impl Default for HostOptions {
    fn default() -> Self {
        Self {
            daemon: DaemonOptions::default(),
            heartbeat: Duration::from_millis(500),
            fault: FaultPlan::default(),
        }
    }
}

impl HostOptions {
    /// Sets the heartbeat cadence.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Sets the host-side fault schedule.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// The host: [`accept_loop`] with one [`serve_session`] per connection,
/// each serving a single shard request then closing. TCP hosts have no
/// dataset, so closure requests are refused.
pub fn serve(listener: TcpListener, opts: &HostOptions) -> io::Result<()> {
    accept_loop(listener, &opts.daemon, "cfp shard-host", |stream| {
        serve_session(
            io::BufReader::new(stream),
            io::BufWriter::new(stream),
            None,
            opts,
        )
    });
    Ok(())
}

/// Binds a host on an OS-assigned localhost port and serves on a
/// background thread — the in-process fixture tests and benches build
/// their worker fleets from.
pub fn spawn_host(
    opts: HostOptions,
) -> io::Result<(SocketAddr, thread::JoinHandle<io::Result<()>>)> {
    spawn_local(move |listener| serve(listener, &opts))
}

/// Why a host session ended without serving its shard.
#[derive(Debug)]
pub struct SessionError {
    /// The exit code a `cfp shard-host --stdio` process ends with: the
    /// error frame's code when one was sent (2 = slab, 3 = request or
    /// dataset), else 1.
    pub exit: i32,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for SessionError {}

/// The host's half of one conversation, over any byte pipe pair — what a
/// TCP host runs per connection and `cfp shard-host --stdio` runs once on
/// its stdin and stdout: request frame → sub-pool slab → (faults) → mine
/// with heartbeats → stats frame → archive slab → await the coordinator's
/// teardown. `db` is the dataset a closure request's vertical index is
/// built from; it is read only for such a request, and a closure request
/// without one is refused. Failures before mining are answered with a
/// typed error frame (exit codes: 2 = slab, 3 = request or dataset) so the
/// coordinator distinguishes "worker rejected this" from "wire broke".
pub fn serve_session<R: Read, W: Write>(
    mut r: R,
    mut w: W,
    db: Option<&Path>,
    opts: &HostOptions,
) -> Result<(), SessionError> {
    let fail = |reason: String| SessionError { exit: 1, reason };
    let req = match read_frame(&mut r) {
        Ok((FRAME_REQUEST, payload)) => NetRequest::parse(&payload)
            .map_err(|e| reject(&mut w, 3, format!("bad request: {e}")))?,
        Ok((k, _)) => return Err(fail(format!("expected a request frame, got kind {k}"))),
        Err(e) => return Err(fail(format!("reading request: {e}"))),
    };

    let mut source = FrameSource::new(&mut r);
    let slab = match slab_io::read_slab(&mut source) {
        Ok(slab) => slab,
        Err(e) => return Err(reject(&mut w, 2, format!("input slab: {e}"))),
    };
    if let Err(e) = source.finish() {
        return Err(reject(&mut w, 2, format!("input slab stream: {e}")));
    }

    if opts
        .fault
        .fires(FaultAction::KillWorker, req.shard, req.attempt)
    {
        // Injected worker death: end with no response at all — the
        // coordinator must see a closed stream, not a hang.
        return Err(fail("injected kill-worker: dropping the connection".into()));
    }
    opts.fault.maybe_stall(req.shard, req.attempt);

    let dataset = match (req.config.closure_step, db) {
        (false, _) => cfp_itemset::DbBuilder::new().build(),
        (true, None) => {
            let why =
                "closure request, but this host has no dataset (shard-host --stdio --db FILE)";
            return Err(reject(&mut w, 3, why.into()));
        }
        (true, Some(path)) => cfp_itemset::read_fimi(path)
            .map_err(|e| reject(&mut w, 3, format!("dataset {}: {e}", path.display())))?,
    };

    // Mine on a scoped thread while this one heartbeats — a long shard
    // must look alive, a hung one must not. A heartbeat write failure
    // means the coordinator is gone; stop beating but still wait for the
    // miner (its result is simply discarded with the conversation).
    let pf = PatternFusion::new(&dataset, req.config.clone());
    let universe = slab.universe();
    let (pf, shard) = (&pf, req.shard);
    let (store, out_rows, stats) = thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            let _ = tx.send(pf.mine_shard_slab(slab, pf.config(), shard));
        });
        let mut beating = true;
        loop {
            match rx.recv_timeout(opts.heartbeat) {
                Ok(done) => break done,
                Err(RecvTimeoutError::Timeout) => {
                    beating = beating
                        && write_frame(&mut w, FRAME_HEARTBEAT, &[])
                            .and_then(|()| w.flush())
                            .is_ok();
                }
                Err(RecvTimeoutError::Disconnected) => panic!("miner thread panicked"),
            }
        }
    });

    // The archive slab, in output order — the one materialization on the
    // host side (≤ archive-cap patterns).
    let mut archive = PatternPool::new(universe);
    for &r in &out_rows {
        let p = store.pattern(r);
        archive.push_tidset(p.items.items(), &p.tids);
    }
    write_frame(&mut w, FRAME_STATS, stats_record(&stats).as_bytes())
        .map_err(|e| fail(format!("sending stats: {e}")))?;
    let sabotage = [FaultAction::CorruptFrame, FaultAction::TruncateFrame]
        .into_iter()
        .find(|&a| opts.fault.fires(a, req.shard, req.attempt));
    let mut sink = FrameSink::new(&mut w).with_sabotage(sabotage);
    slab_io::write_slab(&archive, &mut sink).map_err(|e| fail(format!("sending archive: {e}")))?;
    sink.finish()
        .map_err(|e| fail(format!("sending archive: {e}")))?;
    // Best-effort teardown: wait for the coordinator's Bye (or its
    // hang-up); nothing to do with the result either way.
    let _ = read_frame(&mut r);
    Ok(())
}

/// Sends a typed error frame and returns the matching session error.
fn reject(w: &mut impl Write, exit: i32, reason: String) -> SessionError {
    ErrorFrame::send(w, exit, &reason);
    SessionError { exit, reason }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_old_version_request_gets_an_exit_3_error_frame() {
        let mut input = Vec::new();
        let old = b"cfp-net 2 shard=0 shards=1 attempt=0\n--k\n3";
        write_frame(&mut input, FRAME_REQUEST, old).unwrap();
        let mut output = Vec::new();
        let err = serve_session(&input[..], &mut output, None, &HostOptions::default());
        assert_eq!(err.unwrap_err().exit, 3);
        let (kind, payload) = read_frame(&mut &output[..]).unwrap();
        assert_eq!(kind, FRAME_ERROR);
        let frame = ErrorFrame::decode(&payload);
        assert_eq!(frame.exit, Some(3));
        assert!(
            frame.message.contains("protocol version 2 not supported"),
            "{}",
            frame.message
        );
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(25);
        for shard in 0..4 {
            for attempt in 1..6 {
                let a = retry_backoff(99, shard, attempt, base);
                let b = retry_backoff(99, shard, attempt, base);
                assert_eq!(a, b, "same inputs, same pause");
                let window = 25u64 << attempt.min(10);
                assert!(a.as_millis() as u64 >= window / 2);
                assert!(a.as_millis() as u64 <= window);
            }
        }
        // Different shards draw different jitter (near-certain for this
        // seed; a fixed expectation keeps the test deterministic).
        assert_ne!(retry_backoff(99, 0, 3, base), retry_backoff(99, 1, 3, base));
    }

    #[test]
    fn fault_plans_parse_and_target_selectors() {
        assert!(FaultPlan::compiled_in());
        let plan = FaultPlan::parse("drop-conn:shard1:attempt0, stall-mine:shard2 ,corrupt-frame")
            .expect("parse");
        assert!(plan.fires(FaultAction::DropConn, 1, 0));
        assert!(!plan.fires(FaultAction::DropConn, 1, 1));
        assert!(!plan.fires(FaultAction::DropConn, 0, 0));
        assert!(plan.fires(FaultAction::StallMine, 2, 7));
        assert!(!plan.fires(FaultAction::StallMine, 1, 0));
        // No selectors = every shard, every attempt.
        assert!(plan.fires(FaultAction::CorruptFrame, 3, 2));
        assert!(!plan.fires(FaultAction::KillWorker, 3, 2));
        assert!(FaultPlan::parse("fry-disk").is_err());
        assert!(FaultPlan::parse("drop-conn:shardx").is_err());
        assert!(FaultPlan::parse("drop-conn:node3").is_err());
        assert!(FaultPlan::parse("").expect("empty spec").rules.is_empty());
    }
}
