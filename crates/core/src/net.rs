//! Worker interchange protocol v2: the coordinator + host pair behind
//! both process-based shard executors —
//! [`ExecutorKind::Subprocess`](crate::executor::ExecutorKind) over a
//! child's pipes and [`ExecutorKind::Remote`](crate::executor::ExecutorKind)
//! over TCP.
//!
//! The partitioned driver ([`crate::executor`]) stays untouched: this
//! module only supplies the middle of partition → execute → merge. Each
//! non-empty shard's sub-pool streams to a `cfp shard-host` process as
//! CRC-checked frames (spec in [`cfp_itemset::store`]'s module docs), the
//! host mines it with the per-shard loop, and the stats record plus the
//! archive slab come back the same way. The frame codec and both halves of
//! a conversation take any [`Read`]/[`Write`] pair: the coordinator's
//! `converse` runs over a socket or a child's pipes, and [`serve_session`]
//! is what a TCP host runs per connection and `cfp shard-host --stdio`
//! runs once on its stdin and stdout. Bit-identity is the contract: the
//! host runs the identical derived config over identical sub-pool bytes,
//! so a worker's archives match the in-thread engine's exactly.
//!
//! # Failure model (remote executor)
//!
//! Every wait is bounded and every failure is typed ([`NetError`]):
//!
//! * **Deadlines per phase** — connect/send/mine/receive each run under
//!   the socket timeout ([`RemoteConfig::timeout`], `CFP_NET_TIMEOUT`).
//!   During the mine phase the host emits heartbeat frames, so a *slow*
//!   worker keeps the read alive while a *hung* one times out.
//! * **Deterministic retry** — bounded attempts with a backoff schedule
//!   derived from `(seed, shard, attempt)` ([`retry_backoff`]): no
//!   wall-clock randomness, so a given fault schedule replays identically.
//!   Consecutive attempts rotate to the next worker address.
//! * **Graceful degradation** — a shard that exhausts its attempts is
//!   re-mined in-thread from its already-spilled slab (the fallback path
//!   shared with the subprocess executor), so a dying fleet converges to
//!   the single-machine answer instead of erroring.
//! * **Fault injection** — [`FaultPlan`] (`CFP_FAULT`) makes each failure
//!   path deterministically reachable from tests; compiled out of release
//!   builds unless the `fault-inject` feature is on.
//!
//! The subprocess executor has no socket deadlines: it bounds each child
//! by one deadline from spawn and kills a child that outlives it, which
//! ends the conversation (see [`crate::executor`]).

use crate::algorithm::{splitmix64, PatternFusion};
use crate::ball::MAX_PIVOTS;
use crate::config::FusionConfig;
use crate::executor::{
    shard_config, spill_sub_pools, ExecutorError, NetFailure, ShardExecution, ShardPlan, ShardRun,
};
use crate::pattern::Pattern;
use crate::pool::PoolStore;
use crate::shard::MergePattern;
use crate::stats::{NetStats, RunStats, ShardStats};
use cfp_itemset::slab_io::{self, Crc32};
use cfp_itemset::{PatternPool, SlabIoError};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Worker interchange protocol version spoken by this build (the request
/// and stats-record handshake lines).
pub const NET_PROTOCOL_VERSION: u32 = 2;

/// Frame kinds (the `kind` byte of every frame).
pub const FRAME_REQUEST: u8 = 1;
/// A run of slab-image bytes (request direction: sub-pool; response
/// direction: archive).
pub const FRAME_SLAB_CHUNK: u8 = 2;
/// End of a slab stream; payload is the total chunk-payload byte count
/// (`u64` LE) for cross-checking.
pub const FRAME_SLAB_END: u8 = 3;
/// Mine-phase liveness beacon (empty payload).
pub const FRAME_HEARTBEAT: u8 = 4;
/// The worker's per-shard stats record (UTF-8 text).
pub const FRAME_STATS: u8 = 5;
/// Typed remote failure: payload is `exit=<code>\n<message>` (UTF-8).
pub const FRAME_ERROR: u8 = 6;
/// Coordinator's best-effort teardown notice (empty payload).
pub const FRAME_BYE: u8 = 7;

/// Hard cap on a single frame's payload — a corrupt length field must
/// never trigger an outsized allocation.
pub const MAX_FRAME_PAYLOAD: usize = 8 << 20;

/// Slab bytes buffered per [`FRAME_SLAB_CHUNK`] frame.
pub const SLAB_CHUNK_BYTES: usize = 128 << 10;

/// How long an injected `stall-mine` fault sleeps — far beyond any test
/// deadline, far below forever (the enclosing process is always killed or
/// exits first).
const STALL_SLEEP: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------------
// Frame primitives
// ---------------------------------------------------------------------------

/// Writes one frame: `kind:u8 | len:u32 LE | payload | crc:u32 LE`, the
/// CRC (CFPSLAB's CRC-32, [`Crc32`]) covering header **and** payload so a
/// flipped kind or length is caught too.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut head = [0u8; 5];
    head[0] = kind;
    head[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&head);
    crc.update(payload);
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&crc.finish().to_le_bytes())
}

/// Why a frame read failed — the reader distinguishes a peer that closed
/// cleanly between frames from one that died mid-frame or sent garbage.
#[derive(Debug)]
pub enum FrameError {
    /// The socket deadline expired (`set_read_timeout`).
    TimedOut,
    /// EOF on a frame boundary: the peer closed the connection cleanly.
    Closed,
    /// Mid-frame EOF, an oversized length, or a CRC mismatch.
    Corrupt(String),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TimedOut => write!(f, "frame read timed out"),
            Self::Closed => write!(f, "connection closed"),
            Self::Corrupt(m) => write!(f, "{m}"),
            Self::Io(e) => write!(f, "{e}"),
        }
    }
}

/// `true` for the error kinds a socket deadline surfaces as (`TimedOut`
/// on Unix, `WouldBlock` on some platforms).
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
}

/// `read_exact` for frame bodies: EOF here means the peer died mid-frame.
fn read_exact_frame(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Corrupt(
            "connection closed mid-frame".to_string(),
        )),
        Err(e) if is_timeout(e.kind()) => Err(FrameError::TimedOut),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Reads one frame, verifying length cap and CRC. EOF on the first header
/// byte is [`FrameError::Closed`] (a clean close); EOF anywhere later is
/// [`FrameError::Corrupt`].
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
    let mut head = [0u8; 5];
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => return Err(FrameError::TimedOut),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    head[0] = first[0];
    read_exact_frame(r, &mut head[1..])?;
    let kind = head[0];
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_frame(r, &mut payload)?;
    let mut crc_bytes = [0u8; 4];
    read_exact_frame(r, &mut crc_bytes)?;
    let got = u32::from_le_bytes(crc_bytes);
    let mut crc = Crc32::new();
    crc.update(&head);
    crc.update(&payload);
    let want = crc.finish();
    if got != want {
        return Err(FrameError::Corrupt(format!(
            "frame CRC mismatch (kind {kind}, {len} bytes): got {got:#010x}, computed {want:#010x}"
        )));
    }
    Ok((kind, payload))
}

/// A [`Write`] adapter that chunks a byte stream into
/// [`FRAME_SLAB_CHUNK`] frames — `write_slab_rows` streams a sub-pool
/// straight from the shared base slab through this, so **no whole-slab
/// copy is ever materialized to send**. [`FrameSink::finish`] emits the
/// trailing [`FRAME_SLAB_END`] with the total payload byte count.
pub struct FrameSink<W: Write> {
    w: W,
    buf: Vec<u8>,
    total: u64,
    /// One-shot sabotage consumed on the first emitted chunk
    /// (fault-injection; `None` in production).
    sabotage: Option<FaultAction>,
}

impl<W: Write> FrameSink<W> {
    /// Wraps `w`; chunks buffer up to [`SLAB_CHUNK_BYTES`].
    pub fn new(w: W) -> Self {
        Self {
            w,
            buf: Vec::with_capacity(SLAB_CHUNK_BYTES),
            total: 0,
            sabotage: None,
        }
    }

    /// Arms a one-shot frame sabotage (corrupt or truncate), fired on the
    /// first emitted chunk.
    pub(crate) fn with_sabotage(mut self, action: Option<FaultAction>) -> Self {
        self.sabotage = action;
        self
    }

    /// Emits the buffered bytes as one chunk frame (no-op when empty).
    fn emit(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        match self.sabotage.take() {
            Some(FaultAction::CorruptFrame) => {
                // CRC computed over the clean payload, then one payload
                // byte flipped: the receiver must detect the mismatch.
                let mut head = [0u8; 5];
                head[0] = FRAME_SLAB_CHUNK;
                head[1..].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
                let mut crc = Crc32::new();
                crc.update(&head);
                crc.update(&self.buf);
                self.buf[0] ^= 0x40;
                self.w.write_all(&head)?;
                self.w.write_all(&self.buf)?;
                self.w.write_all(&crc.finish().to_le_bytes())?;
            }
            Some(FaultAction::TruncateFrame) => {
                // Header promises a full payload; the stream dies halfway
                // through it (mid-frame close on the receiver).
                let mut head = [0u8; 5];
                head[0] = FRAME_SLAB_CHUNK;
                head[1..].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
                self.w.write_all(&head)?;
                self.w.write_all(&self.buf[..self.buf.len() / 2])?;
                self.w.flush()?;
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected truncate-frame",
                ));
            }
            _ => write_frame(&mut self.w, FRAME_SLAB_CHUNK, &self.buf)?,
        }
        self.total += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the remainder, emits [`FRAME_SLAB_END`] with the total
    /// chunk-payload byte count, and returns that total.
    pub fn finish(mut self) -> io::Result<u64> {
        self.emit()?;
        write_frame(&mut self.w, FRAME_SLAB_END, &self.total.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.total)
    }
}

impl<W: Write> Write for FrameSink<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let take = (SLAB_CHUNK_BYTES - self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == SLAB_CHUNK_BYTES {
                self.emit()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.emit()?;
        self.w.flush()
    }
}

/// A [`Read`] adapter over a chunked slab stream: pulls
/// [`FRAME_SLAB_CHUNK`] frames on demand, transparently counting and
/// skipping interleaved heartbeats, and stops at [`FRAME_SLAB_END`].
/// `read_slab` consumes the image straight out of this — no intermediate
/// whole-slab buffer. Frame failures surface as `io::Error`s:
/// `TimedOut` for deadline expiry, `InvalidData` for corruption.
pub struct FrameSource<R: Read> {
    r: R,
    buf: Vec<u8>,
    pos: usize,
    total: u64,
    heartbeats: u64,
    done: bool,
    end_total: Option<u64>,
}

impl<R: Read> FrameSource<R> {
    /// Wraps `r`, positioned at the first frame of a slab stream.
    pub fn new(r: R) -> Self {
        Self {
            r,
            buf: Vec::new(),
            pos: 0,
            total: 0,
            heartbeats: 0,
            done: false,
            end_total: None,
        }
    }

    /// Advances to the next chunk (or the end marker), skipping
    /// heartbeats.
    fn next_frame(&mut self) -> io::Result<()> {
        loop {
            match read_frame(&mut self.r) {
                Ok((FRAME_HEARTBEAT, _)) => self.heartbeats += 1,
                Ok((FRAME_SLAB_CHUNK, payload)) => {
                    self.total += payload.len() as u64;
                    self.buf = payload;
                    self.pos = 0;
                    return Ok(());
                }
                Ok((FRAME_SLAB_END, p)) => {
                    let bytes: [u8; 8] = p.as_slice().try_into().map_err(|_| {
                        invalid_data(format!("SlabEnd payload is {} bytes, expected 8", p.len()))
                    })?;
                    self.end_total = Some(u64::from_le_bytes(bytes));
                    self.done = true;
                    return Ok(());
                }
                Ok((FRAME_ERROR, p)) => {
                    return Err(invalid_data(format!(
                        "error frame in slab stream: {}",
                        String::from_utf8_lossy(&p)
                    )))
                }
                Ok((k, _)) => return Err(invalid_data(format!("frame kind {k} in slab stream"))),
                Err(FrameError::TimedOut) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "slab stream timed out",
                    ))
                }
                Err(FrameError::Closed) => {
                    return Err(invalid_data("connection closed before SlabEnd"))
                }
                Err(FrameError::Corrupt(m)) => return Err(invalid_data(m)),
                Err(FrameError::Io(e)) => return Err(e),
            }
        }
    }

    /// Validates the stream's tail after the image has been read: no
    /// leftover bytes, a [`FRAME_SLAB_END`] whose declared total matches
    /// the bytes streamed. Returns `(payload bytes, heartbeats seen)`.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        if self.pos != self.buf.len() {
            return Err(invalid_data(
                "slab bytes left over after the image was read",
            ));
        }
        while !self.done {
            self.next_frame()?;
            if !self.done && !self.buf.is_empty() {
                return Err(invalid_data("slab chunk after the image was fully read"));
            }
        }
        if let Some(end) = self.end_total {
            if end != self.total {
                return Err(invalid_data(format!(
                    "SlabEnd declared {end} bytes but {} were streamed",
                    self.total
                )));
            }
        }
        Ok((self.total, self.heartbeats))
    }
}

impl<R: Read> Read for FrameSource<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            if self.done {
                return Ok(0);
            }
            self.next_frame()?;
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// The request frame's contents: the v2 handshake line plus the derived
/// per-shard config as a flag list, one token per line.
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
    /// Serializes the request frame payload.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "cfp-net {NET_PROTOCOL_VERSION} shard={} shards={} attempt={}\n",
            self.shard, self.shards, self.attempt
        );
        s.push_str(&config_flag_args(&self.config).join("\n"));
        s
    }

    /// Parses and validates a request frame payload: handshake (magic +
    /// version + indices), then the flag tokens applied onto the
    /// env-independent base config. Strict: an unknown flag or version is
    /// an error, never silently ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty request")?;
        let fields: Vec<&str> = head.split(' ').collect();
        if fields.len() != 5 || fields[0] != "cfp-net" {
            return Err(format!("bad handshake '{head}'"));
        }
        let version: u32 = fields[1]
            .parse()
            .map_err(|_| format!("non-numeric protocol version in '{head}'"))?;
        if version != NET_PROTOCOL_VERSION {
            return Err(format!(
                "protocol version {version} not supported (this host speaks {NET_PROTOCOL_VERSION})"
            ));
        }
        let index = |field: &str, prefix: &str| -> Result<usize, String> {
            field
                .strip_prefix(prefix)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad handshake field '{field}' (expected {prefix}<n>)"))
        };
        let shard = index(fields[2], "shard=")?;
        let shards = index(fields[3], "shards=")?;
        let attempt = index(fields[4], "attempt=")?;
        let mut config = base_worker_config();
        while let Some(flag) = lines.next() {
            match flag {
                "--no-archive" => config.archive = false,
                "--no-parallel" => config.parallel = false,
                "--closure" => config.closure_step = true,
                _ => {
                    let v = lines
                        .next()
                        .ok_or_else(|| format!("flag {flag} is missing its value"))?;
                    apply_config_value(&mut config, flag, v)?;
                }
            }
        }
        Ok(Self {
            shard,
            shards,
            attempt,
            config,
        })
    }
}

/// Serializes a per-shard [`FusionConfig`] as the request's flag list —
/// the one home of the shipped config field set.
fn config_flag_args(c: &FusionConfig) -> Vec<String> {
    let mut args = vec![
        "--k".into(),
        c.k.to_string(),
        "--mincount".into(),
        c.min_count.to_string(),
        "--tau".into(),
        c.tau.to_string(),
        "--pool-len".into(),
        c.pool_max_len.to_string(),
        "--attempts".into(),
        c.attempts_per_seed.to_string(),
        "--max-results".into(),
        c.max_results_per_seed.to_string(),
        "--max-iterations".into(),
        c.max_iterations.to_string(),
        "--max-ball-size".into(),
        c.max_ball_size.to_string(),
        "--ball-pivots".into(),
        c.ball_pivots.to_string(),
        "--seed".into(),
        c.seed.to_string(),
    ];
    if let Some(cap) = c.archive_cap {
        args.push("--archive-cap".into());
        args.push(cap.to_string());
    }
    if !c.archive {
        args.push("--no-archive".into());
    }
    if !c.parallel {
        args.push("--no-parallel".into());
    }
    if let Some(t) = c.threads {
        args.push("--threads".into());
        args.push(t.to_string());
    }
    if c.closure_step {
        args.push("--closure".into());
    }
    args
}

/// Applies one valued config flag from the request's flag list; an unknown
/// flag or an unparsable value is an error.
fn apply_config_value(cfg: &mut FusionConfig, flag: &str, v: &str) -> Result<(), String> {
    let bad = |what: &str| format!("invalid {flag} value '{v}' ({what})");
    match flag {
        "--k" => cfg.k = v.parse().map_err(|_| bad("usize"))?,
        "--mincount" => cfg.min_count = v.parse().map_err(|_| bad("usize"))?,
        "--tau" => cfg.tau = v.parse().map_err(|_| bad("f64"))?,
        "--pool-len" => cfg.pool_max_len = v.parse().map_err(|_| bad("usize"))?,
        "--attempts" => cfg.attempts_per_seed = v.parse().map_err(|_| bad("usize"))?,
        "--max-results" => cfg.max_results_per_seed = v.parse().map_err(|_| bad("usize"))?,
        "--max-iterations" => cfg.max_iterations = v.parse().map_err(|_| bad("usize"))?,
        "--max-ball-size" => cfg.max_ball_size = v.parse().map_err(|_| bad("usize"))?,
        "--ball-pivots" => cfg.ball_pivots = v.parse().map_err(|_| bad("usize"))?,
        "--seed" => cfg.seed = v.parse().map_err(|_| bad("u64"))?,
        "--archive-cap" => cfg.archive_cap = Some(v.parse().map_err(|_| bad("usize"))?),
        "--threads" => cfg.threads = Some(v.parse().map_err(|_| bad("usize"))?),
        _ => return Err(format!("unknown config flag '{flag}'")),
    }
    Ok(())
}

/// The env-independent base config a request's flag list applies onto:
/// single-shard sharding, every other field shipped explicitly.
fn base_worker_config() -> FusionConfig {
    FusionConfig::new(1, 1).with_shards(1)
}

// ---------------------------------------------------------------------------
// Stats record
// ---------------------------------------------------------------------------

/// Serializes a shard's counters as the stats frame's payload: the
/// `cfp-stats <version> shard=<s>` handshake line, one `key value` line per
/// counter (the pivot-prune counts as one space-separated row), and a
/// terminating `end`. Wall-clock `elapsed` stays off the wire: the
/// coordinator stamps its own.
fn stats_record(st: &ShardStats) -> String {
    let b = &st.ball;
    let pivots: Vec<String> = b.pivot_prune_counts.iter().map(u64::to_string).collect();
    format!(
        "cfp-stats {NET_PROTOCOL_VERSION} shard={}\n\
         pool_size {}\npatterns {}\niterations {}\nconverged {}\n\
         tombstoned {}\ninserted {}\ncompactions {}\n\
         ball.pairs_total {}\nball.cardinality_pruned {}\nball.pivot_pruned {}\n\
         ball.exact_checked {}\nball.ball_members {}\nball.accepted_by_bound {}\n\
         ball.pivots_active {}\nball.pivot_prune_counts {}\nend\n",
        st.shard,
        st.pool_size,
        st.patterns,
        st.iterations,
        st.converged as u8,
        st.tombstoned,
        st.inserted,
        st.compactions,
        b.pairs_total,
        b.cardinality_pruned,
        b.pivot_pruned,
        b.exact_checked,
        b.ball_members,
        b.accepted_by_bound,
        b.pivots_active,
        pivots.join(" "),
    )
}

/// Parses a stats record, validating the handshake (version AND shard
/// index) and the terminator. Strict on every field: a truncated record,
/// or one with a missing, repeated or unknown key, from a half-dead or
/// skewed worker must fail typed, not load zeros into the merge.
/// `elapsed` comes back zero.
fn parse_stats_record(text: &str, shard: usize) -> Result<ShardStats, String> {
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty stats record")?;
    let want = format!("cfp-stats {NET_PROTOCOL_VERSION} shard={shard}");
    if head != want {
        return Err(format!("bad handshake '{head}' (expected '{want}')"));
    }
    let mut fields: HashMap<&str, &str> = HashMap::new();
    let mut ended = false;
    for line in lines {
        if line == "end" {
            ended = true;
            break;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed line '{line}'"))?;
        if fields.insert(key, value).is_some() {
            return Err(format!("repeated stats key '{key}'"));
        }
    }
    if !ended {
        return Err("stats record not terminated by 'end' (worker died mid-write?)".into());
    }
    let mut take = |key: &str| -> Result<&str, String> {
        fields
            .remove(key)
            .ok_or_else(|| format!("stats record lacks key '{key}'"))
    };
    let num = |key: &str, v: &str| -> Result<u64, String> {
        v.parse::<u64>()
            .map_err(|_| format!("non-numeric value '{v}' for {key}"))
    };
    let mut int = |key: &str| num(key, take(key)?);
    let mut out = ShardStats {
        shard,
        pool_size: int("pool_size")? as usize,
        patterns: int("patterns")? as usize,
        iterations: int("iterations")? as usize,
        converged: int("converged")? != 0,
        tombstoned: int("tombstoned")?,
        inserted: int("inserted")?,
        compactions: int("compactions")? as usize,
        ..Default::default()
    };
    let b = &mut out.ball;
    b.pairs_total = int("ball.pairs_total")?;
    b.cardinality_pruned = int("ball.cardinality_pruned")?;
    b.pivot_pruned = int("ball.pivot_pruned")?;
    b.exact_checked = int("ball.exact_checked")?;
    b.ball_members = int("ball.ball_members")?;
    b.accepted_by_bound = int("ball.accepted_by_bound")?;
    b.pivots_active = int("ball.pivots_active")?;
    let key = "ball.pivot_prune_counts";
    let counts: Vec<u64> = take(key)?
        .split(' ')
        .map(|v| num(key, v))
        .collect::<Result<Vec<u64>, String>>()?;
    if counts.len() != MAX_PIVOTS {
        return Err(format!(
            "pivot_prune_counts has {} entries, expected {MAX_PIVOTS}",
            counts.len()
        ));
    }
    b.pivot_prune_counts.copy_from_slice(&counts);
    if let Some(other) = fields.keys().next() {
        return Err(format!("unknown stats key '{other}'"));
    }
    Ok(out)
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
/// [`NetFailure`] carries to the caller.
#[derive(Debug, Clone)]
pub enum NetError {
    /// Could not resolve or connect to the worker address.
    Connect(String),
    /// A phase deadline expired (`CFP_NET_TIMEOUT`); during the mine
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
    /// The action's `CFP_FAULT` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::DropConn => "drop-conn",
            Self::StallMine => "stall-mine",
            Self::CorruptFrame => "corrupt-frame",
            Self::TruncateFrame => "truncate-frame",
            Self::KillWorker => "kill-worker",
        }
    }

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

    /// The process's own plan from `CFP_FAULT` (empty when unset, not
    /// compiled in, or unparseable — the CLI validates loudly up front;
    /// library code stays quiet).
    pub fn from_env() -> Self {
        #[cfg(any(test, feature = "fault-inject"))]
        if let Ok(spec) = std::env::var("CFP_FAULT") {
            if let Ok(plan) = Self::parse(&spec) {
                return plan;
            }
        }
        Self::default()
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
    /// Per-phase socket deadline (`CFP_NET_TIMEOUT` overrides, in ms).
    pub timeout: Duration,
    /// Attempts per shard before fallback / typed failure
    /// (`CFP_NET_ATTEMPTS` overrides; min 1).
    pub attempts: usize,
    /// Backoff base: attempt `a`'s pause is drawn deterministically from
    /// `[base·2^a / 2, base·2^a]` by [`retry_backoff`].
    pub backoff_base: Duration,
    /// Re-mine a retry-exhausted shard in-thread from its spilled slab
    /// (on by default — graceful degradation is the point).
    pub fallback_in_thread: bool,
    /// Spill directory override (must be empty; kept on `keep_work`).
    pub work_dir: Option<PathBuf>,
    /// Keep the spill directory after the run.
    pub keep_work: bool,
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
            work_dir: None,
            keep_work: false,
            fault: FaultPlan::default(),
        }
    }
}

impl RemoteConfig {
    /// Defaults with the `CFP_NET_TIMEOUT` / `CFP_NET_ATTEMPTS`
    /// environment overrides applied.
    pub fn new() -> Self {
        let mut c = Self::default();
        if let Some(t) = timeout_from_env() {
            c.timeout = t;
        }
        if let Some(a) = attempts_from_env() {
            c.attempts = a;
        }
        c
    }

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

    /// Overrides the spill directory.
    pub fn with_work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.work_dir = Some(dir.into());
        self
    }

    /// Keeps the spill directory after the run.
    pub fn with_keep_work(mut self, keep: bool) -> Self {
        self.keep_work = keep;
        self
    }

    /// Sets the coordinator-side fault schedule.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// `CFP_NET_TIMEOUT` (milliseconds, ≥ 1 ms), if set and valid — the quiet
/// library-side reader over [`crate::env::net_timeout`]; the CLI validates
/// the environment strictly up front ([`crate::env::validate_all`]).
pub fn timeout_from_env() -> Option<Duration> {
    crate::env::net_timeout().ok().flatten()
}

/// `CFP_NET_ATTEMPTS` (≥ 1), if set and valid — quiet reader over
/// [`crate::env::net_attempts`].
pub fn attempts_from_env() -> Option<usize> {
    crate::env::net_attempts().ok().flatten()
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

impl PatternFusion<'_> {
    /// The remote backend: spill every shard's sub-pool (the retry-proof
    /// fallback source), then dispatch each non-empty shard to a worker on
    /// its own thread — stream the sub-pool over TCP, collect the stats
    /// record and archive slab, retry with deterministic backoff on any
    /// typed failure, and fall back to in-thread mining from the spilled
    /// slab when the attempt budget runs out. Empty shards mine here from
    /// their slabs. Results land in shard order regardless of completion
    /// order.
    pub(crate) fn execute_remote(
        &self,
        store: PoolStore,
        plan: &ShardPlan,
        rc: &RemoteConfig,
        stats: &mut RunStats,
    ) -> Result<ShardExecution, ExecutorError> {
        let cfg = self.config();
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
        // Spill up front: the slab file is the fallback's input, written
        // once whether or not any attempt fails. (The network send
        // streams from the base slab directly, not from this file.)
        let (spill, sub_rows_all, _) = spill_sub_pools(
            &store,
            plan,
            rc.work_dir.as_deref(),
            rc.keep_work,
            "cfp-netshard",
        )?;
        let base = store.base_pool();
        let results: Vec<(Result<ShardRun, ExecutorError>, NetStats)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.n)
                .map(|s| {
                    let sub_rows = &sub_rows_all[s];
                    let dir = &spill.dir;
                    scope.spawn(move || self.remote_shard(s, plan, rc, base, sub_rows, dir))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("remote shard thread panicked"))
                .collect()
        });
        let mut runs = Vec::with_capacity(plan.n);
        let mut first_err: Option<ExecutorError> = None;
        for (res, net) in results {
            stats.net.merge(&net);
            match res {
                Ok(run) => runs.push(run),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(ShardExecution {
            pool_rows: plan.rows.to_vec(),
            store,
            runs,
        })
    }

    /// One shard's dispatch loop: bounded attempts over the rotating
    /// worker list with deterministic backoff between them, then either
    /// the in-thread fallback or a typed [`NetFailure`].
    fn remote_shard(
        &self,
        s: usize,
        plan: &ShardPlan,
        rc: &RemoteConfig,
        base: &PatternPool,
        sub_rows: &[u32],
        dir: &Path,
    ) -> (Result<ShardRun, ExecutorError>, NetStats) {
        let mut net = NetStats::default();
        if sub_rows.is_empty() {
            return (self.fallback_shard(s, plan, dir).map(|(run, _)| run), net);
        }
        let t0 = Instant::now();
        net.shards_dispatched = 1;
        let cfg = self.config();
        let scfg = shard_config(cfg, plan.seed_budget[s], s, plan.n);
        let max_attempts = rc.attempts.max(1);
        let mut last = NetError::Connect("no attempt made".into());
        for attempt in 0..max_attempts {
            if attempt > 0 {
                net.retries += 1;
                let pause = retry_backoff(cfg.seed, s, attempt, rc.backoff_base);
                net.backoff_total += pause;
                thread::sleep(pause);
            }
            net.attempts += 1;
            let addr = &rc.workers[(s + attempt) % rc.workers.len()];
            let req = NetRequest {
                shard: s,
                shards: plan.n,
                attempt,
                config: scfg.clone(),
            };
            match remote_attempt(addr, &req, base, sub_rows, rc, &mut net) {
                Ok(mut run) => {
                    run.stats.elapsed = t0.elapsed();
                    return (Ok(run), net);
                }
                Err(e) => last = e,
            }
        }
        if rc.fallback_in_thread {
            net.fallbacks += 1;
            (self.fallback_shard(s, plan, dir).map(|(run, _)| run), net)
        } else {
            (
                Err(ExecutorError::Net(NetFailure {
                    shard: s,
                    attempts: net.attempts,
                    last,
                })),
                net,
            )
        }
    }
}

/// One attempt against one worker: dial under the deadline, then run the
/// conversation over the socket. Any failure is typed and leaves no state
/// behind (the connection drops).
fn remote_attempt(
    addr: &str,
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
    let timeout = rc.timeout.max(Duration::from_millis(1));
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| NetError::Connect(format!("{addr}: {e}")))?
        .collect();
    let mut stream = None;
    let mut last_err = None;
    for a in addrs {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) if is_timeout(e.kind()) => {
                return Err(NetError::Timeout {
                    phase: NetPhase::Connect,
                })
            }
            Err(e) => last_err = Some(e),
        }
    }
    let stream = stream.ok_or_else(|| {
        NetError::Connect(match last_err {
            Some(e) => format!("{addr}: {e}"),
            None => format!("{addr}: no addresses resolved"),
        })
    })?;
    let _ = stream.set_nodelay(true);
    let sock = |e: io::Error| NetError::Connect(format!("socket deadline: {e}"));
    stream.set_read_timeout(Some(timeout)).map_err(sock)?;
    stream.set_write_timeout(Some(timeout)).map_err(sock)?;
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
    net.bytes_sent += stream_slab_rows(base, sub_rows, FrameSink::new(&mut w))?;

    // Mine: heartbeats keep the read deadline alive until the stats
    // record (or a typed worker error) arrives.
    let stats = loop {
        match read_frame(&mut r) {
            Ok((FRAME_HEARTBEAT, _)) => net.heartbeats += 1,
            Ok((FRAME_STATS, payload)) => {
                let text = String::from_utf8(payload)
                    .map_err(|_| NetError::FrameCorrupt("stats record is not UTF-8".into()))?;
                net.bytes_received += text.len() as u64;
                break parse_stats_record(&text, req.shard).map_err(NetError::FrameCorrupt)?;
            }
            Ok((FRAME_ERROR, payload)) => return Err(parse_error_frame(&payload)),
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

/// Streams `rows` of `base` through a [`FrameSink`], folding slab-encode
/// and send-phase failures into the taxonomy. Returns payload bytes sent.
fn stream_slab_rows<W: Write>(
    base: &PatternPool,
    rows: &[u32],
    mut sink: FrameSink<W>,
) -> Result<u64, NetError> {
    slab_io::write_slab_rows(base, rows, &mut sink)
        .map_err(|e| slab_error(NetPhase::Send, "sub-pool slab", e))?;
    sink.finish().map_err(|e| io_error(NetPhase::Send, e))
}

/// Decodes a [`FRAME_ERROR`] payload (`exit=<code>\n<message>`).
fn parse_error_frame(payload: &[u8]) -> NetError {
    let text = String::from_utf8_lossy(payload);
    let (head, rest) = text.split_once('\n').unwrap_or((text.as_ref(), ""));
    NetError::WorkerRemote {
        exit: head.strip_prefix("exit=").and_then(|v| v.parse().ok()),
        stderr: rest.trim_end().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Host (worker side)
// ---------------------------------------------------------------------------

/// `cfp shard-host` behavior knobs.
#[derive(Debug, Clone)]
pub struct HostOptions {
    /// Mine-phase heartbeat cadence.
    pub heartbeat: Duration,
    /// Socket deadline for reading the request / sub-pool and writing the
    /// response — the host must never hang on a dead coordinator either.
    pub io_timeout: Duration,
    /// Serve at most this many connections, then return (tests and the
    /// CI smoke job; `None` = serve forever).
    pub max_conns: Option<usize>,
    /// Log per-connection failures to stderr.
    pub verbose: bool,
    /// Host-side fault schedule (tests only).
    pub fault: FaultPlan,
}

impl Default for HostOptions {
    fn default() -> Self {
        Self {
            heartbeat: Duration::from_millis(500),
            io_timeout: Duration::from_secs(60),
            max_conns: None,
            verbose: false,
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

    /// Sets the host's socket deadline.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Caps the number of connections served.
    pub fn with_max_conns(mut self, max: usize) -> Self {
        self.max_conns = Some(max);
        self
    }

    /// Enables per-connection stderr logging.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Sets the host-side fault schedule.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// The host's accept loop: one thread per connection, each serving a
/// single shard request then closing. With
/// [`HostOptions::max_conns`] set, returns after that many connections
/// have been accepted **and** their handlers joined.
pub fn serve(listener: TcpListener, opts: &HostOptions) -> io::Result<()> {
    let mut served = 0usize;
    let mut handles = Vec::new();
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                if opts.verbose {
                    eprintln!("cfp shard-host: accept failed: {e}");
                }
                continue;
            }
        };
        let o = opts.clone();
        let handle = thread::spawn(move || {
            if let Err(e) = handle_conn(stream, &o) {
                if o.verbose {
                    eprintln!("cfp shard-host: {e}");
                }
            }
        });
        served += 1;
        match opts.max_conns {
            Some(max) => {
                // Bounded serving joins its handlers so "serve N then
                // exit" cannot strand a half-written response.
                handles.push(handle);
                if served >= max {
                    break;
                }
            }
            // Unbounded serving detaches handlers: a daemon's handle list
            // must not grow without bound.
            None => drop(handle),
        }
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// Binds a host on an OS-assigned localhost port and serves on a
/// background thread — the in-process fixture tests and benches build
/// their worker fleets from.
pub fn spawn_host(
    opts: HostOptions,
) -> io::Result<(SocketAddr, thread::JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let handle = thread::spawn(move || serve(listener, &opts));
    Ok((addr, handle))
}

/// Serves one connection: socket deadlines, then one [`serve_session`]
/// over the socket (TCP hosts have no dataset, so closure requests are
/// refused).
fn handle_conn(stream: TcpStream, opts: &HostOptions) -> Result<(), SessionError> {
    let _ = stream.set_nodelay(true);
    let io_timeout = opts.io_timeout.max(Duration::from_millis(1));
    let sock = |e: io::Error| SessionError {
        exit: 1,
        reason: format!("socket deadline: {e}"),
    };
    stream.set_read_timeout(Some(io_timeout)).map_err(sock)?;
    stream.set_write_timeout(Some(io_timeout)).map_err(sock)?;
    serve_session(
        io::BufReader::new(&stream),
        io::BufWriter::new(&stream),
        None,
        opts,
    )
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
        Ok((FRAME_REQUEST, payload)) => {
            let parsed = String::from_utf8(payload)
                .map_err(|_| "request frame is not UTF-8".to_string())
                .and_then(|text| NetRequest::parse(&text));
            match parsed {
                Ok(req) => req,
                Err(e) => return Err(reject(&mut w, 3, format!("bad request: {e}"))),
            }
        }
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
    send_error_frame(w, exit, &reason);
    SessionError { exit, reason }
}

/// Sends a typed [`FRAME_ERROR`] (best-effort — the peer may be gone).
/// Shared with the v3 query service ([`crate::serve`]), whose error frames
/// carry the same `exit=<code>\n<message>` payload shape.
pub(crate) fn send_error_frame(mut w: impl Write, exit: i32, msg: &str) {
    let payload = format!("exit={exit}\n{msg}");
    let _ = write_frame(&mut w, FRAME_ERROR, payload.as_bytes()).and_then(|()| w.flush());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_STATS, b"hello").unwrap();
        write_frame(&mut buf, FRAME_HEARTBEAT, b"").unwrap();
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Ok((FRAME_STATS, p)) if p == b"hello"));
        assert!(matches!(read_frame(&mut r), Ok((FRAME_HEARTBEAT, p)) if p.is_empty()));
        // Clean EOF between frames is Closed, not Corrupt.
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn corrupt_and_truncated_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_SLAB_CHUNK, b"payload").unwrap();
        // Flip one payload byte: CRC must catch it.
        let mut flipped = buf.clone();
        flipped[6] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &flipped[..]),
            Err(FrameError::Corrupt(m)) if m.contains("CRC")
        ));
        // Flip the kind byte (covered by the CRC too).
        let mut kind_flip = buf.clone();
        kind_flip[0] = FRAME_STATS;
        assert!(matches!(
            read_frame(&mut &kind_flip[..]),
            Err(FrameError::Corrupt(_))
        ));
        // Mid-frame EOF is Corrupt, not Closed.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &cut[..]),
            Err(FrameError::Corrupt(m)) if m.contains("mid-frame")
        ));
        // An oversized declared length is rejected before allocating.
        let mut huge = vec![FRAME_SLAB_CHUNK];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(FrameError::Corrupt(m)) if m.contains("cap")
        ));
    }

    #[test]
    fn sink_and_source_round_trip_with_heartbeats() {
        // Bytes spanning several chunks.
        let body: Vec<u8> = (0..(3 * SLAB_CHUNK_BYTES + 177)).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        // A heartbeat may precede the stream (mine phase bleed-over).
        write_frame(&mut wire, FRAME_HEARTBEAT, b"").unwrap();
        let mut sink = FrameSink::new(&mut wire);
        sink.write_all(&body).unwrap();
        let total = sink.finish().unwrap();
        assert_eq!(total, body.len() as u64);

        let mut source = FrameSource::new(&wire[..]);
        let mut got = Vec::new();
        source.read_to_end(&mut got).unwrap();
        assert_eq!(got, body);
        let (bytes, beats) = source.finish().unwrap();
        assert_eq!(bytes, body.len() as u64);
        assert_eq!(beats, 1);
    }

    #[test]
    fn source_rejects_a_lying_slab_end() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_SLAB_CHUNK, b"abcdef").unwrap();
        write_frame(&mut wire, FRAME_SLAB_END, &99u64.to_le_bytes()).unwrap();
        let mut source = FrameSource::new(&wire[..]);
        let mut got = Vec::new();
        source.read_to_end(&mut got).unwrap();
        let err = source.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("SlabEnd declared"));
    }

    #[test]
    fn sink_sabotage_reaches_the_crc_check_and_the_truncation_path() {
        let mut wire = Vec::new();
        let mut sink = FrameSink::new(&mut wire).with_sabotage(Some(FaultAction::CorruptFrame));
        sink.write_all(b"some slab bytes").unwrap();
        sink.finish().unwrap();
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::Corrupt(m)) if m.contains("CRC")
        ));

        let mut wire = Vec::new();
        let mut sink = FrameSink::new(&mut wire).with_sabotage(Some(FaultAction::TruncateFrame));
        sink.write_all(b"some slab bytes").unwrap();
        let err = sink.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::Corrupt(m)) if m.contains("mid-frame")
        ));
    }

    #[test]
    fn requests_round_trip_and_reject_other_versions() {
        let mut config = base_worker_config();
        config.k = 17;
        config.min_count = 4;
        config.tau = 0.85;
        config.pool_max_len = 5;
        config.attempts_per_seed = 4;
        config.max_results_per_seed = 11;
        config.max_iterations = 9;
        config.max_ball_size = 48;
        config.ball_pivots = 6;
        config.seed = 1234;
        config.archive_cap = Some(99);
        config.archive = false;
        config.threads = Some(1);
        config.parallel = false;
        config.closure_step = true;
        let req = NetRequest {
            shard: 2,
            shards: 4,
            attempt: 1,
            config,
        };
        let parsed = NetRequest::parse(&req.to_text()).expect("round trip");
        assert_eq!(parsed.shard, 2);
        assert_eq!(parsed.shards, 4);
        assert_eq!(parsed.attempt, 1);
        assert_eq!(parsed.config, req.config);

        let other = req.to_text().replacen("cfp-net 2", "cfp-net 1", 1);
        let err = NetRequest::parse(&other).unwrap_err();
        assert!(err.contains("version 1 not supported"), "{err}");
        assert!(NetRequest::parse("garbage\n--k 3").is_err());
        assert!(NetRequest::parse("cfp-net 2 shard=0 shards=1 attempt=0\n--no-such-flag").is_err());
    }

    #[test]
    fn stats_record_round_trips() {
        let mut stats = ShardStats {
            shard: 2,
            pool_size: 12,
            patterns: 3,
            iterations: 5,
            converged: true,
            tombstoned: 77,
            inserted: 9,
            compactions: 1,
            ..Default::default()
        };
        stats.ball.pairs_total = 1_000_000;
        stats.ball.pivot_pruned = 123_456;
        stats.ball.pivot_prune_counts[0] = 100_000;
        stats.ball.pivot_prune_counts[3] = 23_456;
        stats.ball.accepted_by_bound = 4_242;
        stats.ball.pivots_active = 6;
        let record = stats_record(&stats);
        assert!(record.starts_with("cfp-stats 2 shard=2\n"));
        assert!(record.ends_with("end\n"));
        let parsed = parse_stats_record(&record, 2).expect("round trip");
        assert_eq!(parsed, stats);
    }

    #[test]
    fn stats_record_rejects_corruption() {
        let record = stats_record(&ShardStats::default());
        // Wrong shard in the handshake.
        assert!(parse_stats_record(&record, 1).is_err());
        // Truncated (no `end`): a worker that died mid-write.
        let cut = record.trim_end_matches("end\n");
        assert!(parse_stats_record(cut, 0).unwrap_err().contains("end"));
        // Garbage value.
        let bad = record.replace("pool_size 0", "pool_size zero");
        assert!(parse_stats_record(&bad, 0).is_err());
        // Unknown key.
        let unk = record.replace("pool_size", "pool_sizes");
        assert!(parse_stats_record(&unk, 0).is_err());
        let extra = record.replace("end\n", "ball.bogus 0\nend\n");
        assert!(parse_stats_record(&extra, 0)
            .unwrap_err()
            .contains("unknown stats key 'ball.bogus'"));
        // A key line missing from a terminated record must not read as 0.
        for key in ["ball.exact_checked", "ball.accepted_by_bound"] {
            let missing = record.replace(&format!("{key} 0\n"), "");
            assert!(parse_stats_record(&missing, 0).unwrap_err().contains(key));
        }
        // A repeated key must not overwrite the first.
        let repeated = record.replace("inserted 0\n", "inserted 0\ninserted 5\n");
        assert!(parse_stats_record(&repeated, 0)
            .unwrap_err()
            .contains("repeated"));
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

    #[test]
    fn error_frames_carry_exit_and_message() {
        let err = parse_error_frame(b"exit=3\nbad request: unknown config flag '--x'");
        match err {
            NetError::WorkerRemote { exit, stderr } => {
                assert_eq!(exit, Some(3));
                assert!(stderr.contains("unknown config flag"));
            }
            other => panic!("expected WorkerRemote, got {other:?}"),
        }
        // A mangled payload still produces a typed error, just without a code.
        assert!(matches!(
            parse_error_frame(b"whatever"),
            NetError::WorkerRemote { exit: None, .. }
        ));
    }
}
