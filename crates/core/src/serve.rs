//! `cfp serve` — a long-lived concurrent pattern query service.
//!
//! The miner's batch entry points answer one question and exit; this module
//! keeps a mined result *resident* and answers many. A std-TCP daemon
//! ([`serve_queries`]) holds the engine's output as an immutable
//! **generation** — the ranked pattern slab ([`PoolStore`]), its row order,
//! and a [`BallIndex`] over the whole pool — and serves concurrent read
//! traffic against it:
//!
//! * top-K colossal patterns (the global result ranking, streamed),
//! * exact-itemset support lookup and containment scans,
//! * "patterns similar to this tid-set": a metric **ball query** for an
//!   external support set, through [`BallIndex::ball_external`] — the same
//!   pruning layers and the same exact kernel the mining loop uses, so the
//!   service's similarity answers are bit-identical to what the engine
//!   itself would compute.
//!
//! # Wire protocol (v3)
//!
//! The service reuses the CRC-checked length-prefixed frame layer of
//! [`crate::net`] verbatim (`kind | len:u32 LE | payload | crc32 LE`), with
//! a request/response text protocol on top — the full byte-level spec lives
//! with the other interchange formats in [`cfp_itemset::store`]'s module
//! docs. In short: a client sends [`FRAME_REQUEST`] frames whose payload is
//! a `cfp-serve 3 <verb>` handshake line plus `key=value` lines
//! ([`ServeRequest`]); the server streams the response text through
//! [`FrameSink`] chunk frames terminated by a byte-counted end frame, or
//! answers with a typed [`FRAME_ERROR`] (`exit=<code>` + message) that never
//! tears down the frame boundary — a rejected request leaves the connection
//! usable. Connections are long-lived: many requests per connection, ended
//! by a `bye` verb, a [`FRAME_BYE`], or a clean close.
//!
//! # Generations and epoch swaps
//!
//! The resident state is an `Arc<Generation>` behind an [`RwLock`] used
//! only as a pointer cell: readers clone the `Arc` (microseconds) and then
//! work lock-free on an immutable snapshot, so a query observes exactly one
//! generation end to end — never a torn mix. A `reload` request enqueues a
//! re-mine on a dedicated builder thread; the build runs entirely off-lock
//! (through the [`crate::engine`] facade, optionally with a new RNG seed)
//! and the finished generation is swapped in with one brief write lock.
//! Readers never block on a build, and `reload wait=1` lets admin callers
//! observe the swap synchronously.
//!
//! The served database itself evolves through the same machinery: an
//! `append` request stages a batch of new transactions (`txns=`,
//! `;`-separated transactions of `,`-separated external labels) onto the
//! builder thread, which owns the evolving database inside a
//! [`DeltaEngine`] — the delta is absorbed at sublinear cost (clean
//! first-item subtrees spliced, the ball index carried across the
//! generation; see [`crate::delta`]) and the resulting generation is
//! **bit-identical** to what a cold daemon over the grown database would
//! serve. `append wait=1` blocks until the new epoch is swapped in; a
//! later `reload` re-mines the *grown* database from scratch (seed
//! overrides still apply to that build only).
//!
//! # Sessions
//!
//! Multi-tenant isolation rides on the slab's fork semantics
//! ([`PoolStore::fork`]): a request carrying `session=<name>` resolves to a
//! per-session overlay store — the shared base slab plus a private
//! append-only overlay — so `put` patterns are visible to that session's
//! `topk`/`lookup`/`contain` and to nobody else, with zero copies of the
//! base. When the generation epoch moves under a session, the overlay is
//! re-forked from the new base and the session's patterns are re-interned,
//! so tenant state survives a reload.

use crate::ball::{BallIndex, BallQueryStats};
use crate::config::FusionConfig;
use crate::delta::DeltaEngine;
use crate::distance::ball_radius;
use crate::engine::Source;
use crate::net::{
    read_frame, send_error_frame, write_frame, FrameError, FrameSink, FRAME_BYE, FRAME_ERROR,
    FRAME_HEARTBEAT, FRAME_REQUEST, FRAME_SLAB_CHUNK, FRAME_SLAB_END,
};
use crate::pattern::Pattern;
use crate::pool::{rank_rows, PoolStore};
use cfp_itemset::{kernels, DbDelta, Item, Itemset, TidSet, TransactionDb};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::Duration;

/// Version tag of the query-service request/response protocol. Bumped on
/// any incompatible change to the request text, response text, or framing
/// (version 2 is the worker interchange protocol of [`crate::net`]; version
/// 1 was its retired subprocess predecessor).
pub const SERVE_PROTOCOL_VERSION: u32 = 3;

/// Default `k` for a `topk` request that does not specify one.
const DEFAULT_TOPK: usize = 10;
/// Default cap on `contain` scan output rows.
const DEFAULT_CONTAIN_LIMIT: usize = 32;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Tuning knobs for [`serve_queries`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Socket deadline for reading a request / writing a response. An idle
    /// connection that sends nothing for this long is dropped.
    pub io_timeout: Duration,
    /// Serve at most this many connections, then return (tests and the CI
    /// smoke job; `None` = serve forever).
    pub max_conns: Option<usize>,
    /// Log per-connection failures to stderr.
    pub verbose: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(60),
            max_conns: None,
            verbose: false,
        }
    }
}

impl ServeOptions {
    /// Sets the per-socket read/write deadline.
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
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// A parsed v3 request: the handshake verb plus its `key=value` fields.
/// [`ServeRequest::to_text`] and [`ServeRequest::parse`] are exact inverses
/// (fields serialize in insertion order; parse is order-preserving).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The request verb (`topk`, `lookup`, `contain`, `similar`, `put`,
    /// `stats`, `reload`, `append`, `bye`).
    pub verb: String,
    /// The `key=value` field lines, in wire order.
    pub fields: Vec<(String, String)>,
}

impl ServeRequest {
    /// Builds a request from a verb and field pairs.
    pub fn new(verb: &str, fields: &[(&str, &str)]) -> Self {
        Self {
            verb: verb.to_string(),
            fields: fields
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Serializes the request frame payload.
    pub fn to_text(&self) -> String {
        let mut s = format!("cfp-serve {SERVE_PROTOCOL_VERSION} {}\n", self.verb);
        for (k, v) in &self.fields {
            s.push_str(k);
            s.push('=');
            s.push_str(v);
            s.push('\n');
        }
        s
    }

    /// Parses and validates a request frame payload: handshake (magic +
    /// version + verb), then `key=value` lines. Strict: a bad handshake, an
    /// unsupported version, a malformed line, or a duplicate key is an
    /// error, never silently ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty request")?;
        let parts: Vec<&str> = head.split(' ').collect();
        if parts.len() != 3 || parts[0] != "cfp-serve" {
            return Err(format!("bad handshake '{head}'"));
        }
        let version: u32 = parts[1]
            .parse()
            .map_err(|_| format!("non-numeric protocol version in '{head}'"))?;
        if version != SERVE_PROTOCOL_VERSION {
            return Err(format!(
                "protocol version {version} not supported (this server speaks \
                 {SERVE_PROTOCOL_VERSION})"
            ));
        }
        let verb = parts[2];
        if verb.is_empty() {
            return Err(format!("bad handshake '{head}' (empty verb)"));
        }
        let mut fields: Vec<(String, String)> = Vec::new();
        for line in lines {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("bad field line '{line}' (expected key=value)"))?;
            if k.is_empty() {
                return Err(format!("bad field line '{line}' (empty key)"));
            }
            if fields.iter().any(|(seen, _)| seen == k) {
                return Err(format!("duplicate field '{k}'"));
            }
            fields.push((k.to_string(), v.to_string()));
        }
        Ok(Self {
            verb: verb.to_string(),
            fields,
        })
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The `key=value` fields each verb accepts — the dispatch layer rejects
/// anything outside this table (and unknown verbs) with a typed error, so
/// a misspelled field can never be silently ignored.
fn allowed_fields(verb: &str) -> Option<&'static [&'static str]> {
    Some(match verb {
        "topk" => &["k", "session", "tids"],
        "lookup" => &["items", "session"],
        "contain" => &["items", "session", "limit"],
        "similar" => &["tids"],
        "put" => &["session", "items", "tids"],
        "stats" => &[],
        "reload" => &["seed", "wait"],
        "append" => &["txns", "wait"],
        "bye" => &[],
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Generations
// ---------------------------------------------------------------------------

/// One immutable epoch of resident state: the mined pool as a slab, the
/// global result ranking, and a ball index over the whole pool. Shared as
/// `Arc<Generation>`; a query snapshots the `Arc` once and reads lock-free.
struct Generation {
    /// Monotonic epoch number, stamped into every response.
    epoch: u64,
    /// The mined patterns as a frozen base slab.
    store: PoolStore,
    /// All rows in the global result ranking (size desc, support desc,
    /// itemset) — `topk` streams a prefix, `similar` maps ball positions
    /// through it.
    rows: Vec<u32>,
    /// Ball index over `rows` (in ranked order, so a pool position from a
    /// query indexes straight into `rows`).
    index: BallIndex,
    /// The metric ball radius `r(τ)` the index was built with.
    radius: f64,
}

impl Generation {
    /// Mines the database through the engine facade and freezes the result
    /// as epoch `epoch`.
    fn build(db: &TransactionDb, config: &FusionConfig, epoch: u64) -> Self {
        let result = config
            .engine(db)
            .mine(Source::Transactions)
            .expect("the transactions source cannot fail to load");
        Self::from_patterns(&result.patterns, config, epoch)
    }

    /// Freezes an already-mined result as epoch `epoch` (the `append` path:
    /// the [`DeltaEngine`] did the mining incrementally).
    fn from_patterns(patterns: &[Pattern], config: &FusionConfig, epoch: u64) -> Self {
        let store = PoolStore::from_patterns(patterns);
        let mut rows: Vec<u32> = (0..store.len_rows() as u32).collect();
        rank_rows(&store, &mut rows);
        let radius = ball_radius(config.tau);
        let index = BallIndex::build(&store, &rows, radius, config.ball_pivots);
        Self {
            epoch,
            store,
            rows,
            index,
            radius,
        }
    }
}

/// A tenant's private overlay: a fork of the current generation's store
/// plus the rows (and owned patterns) this session has `put`. Re-forked
/// from the new base whenever the generation epoch moves.
struct Session {
    /// Epoch of the generation this overlay was forked from.
    epoch: u64,
    /// Shared base + private overlay (see [`PoolStore::fork`]).
    store: PoolStore,
    /// Overlay rows interned by this session, in arrival order.
    local_rows: Vec<u32>,
    /// Owned copies of the session's patterns — what survives a re-fork.
    patterns: Vec<Pattern>,
}

impl Session {
    fn new(gen: &Generation) -> Self {
        Self {
            epoch: gen.epoch,
            store: gen.store.fork(),
            local_rows: Vec::new(),
            patterns: Vec::new(),
        }
    }

    /// Catches the overlay up with the current generation: re-fork from
    /// the new base and re-intern the session's own patterns. A pattern
    /// the new base now contains stops being overlay-local (it is in the
    /// shared ranking already) but remains owned by the session.
    fn refresh(&mut self, gen: &Generation) {
        if self.epoch == gen.epoch {
            return;
        }
        self.epoch = gen.epoch;
        self.store = gen.store.fork();
        self.local_rows.clear();
        let base_len = self.store.base_len() as u32;
        let patterns = std::mem::take(&mut self.patterns);
        for p in &patterns {
            let row = self.store.intern(p);
            if row >= base_len {
                self.local_rows.push(row);
            }
        }
        self.patterns = patterns;
    }
}

/// A queued build for the dedicated builder thread. For `wait=1` requests
/// the builder acks the freshly swapped epoch on `ack`.
enum BuilderJob {
    /// A `reload`: re-mine the current (possibly grown) database from
    /// scratch, with an optional seed override for this build only.
    Reload {
        seed: Option<u64>,
        ack: Option<mpsc::Sender<u64>>,
    },
    /// An `append`: absorb a transaction delta into the evolving database
    /// and re-mine incrementally through the builder's [`DeltaEngine`].
    Append {
        delta: DbDelta,
        ack: Option<mpsc::Sender<u64>>,
    },
}

/// Everything the connection handlers share, borrowed into the scoped
/// per-connection threads.
struct ServerState<'a> {
    db: &'a TransactionDb,
    config: FusionConfig,
    /// Pointer cell for the current generation — held only long enough to
    /// clone or replace the `Arc`, never across a build or a query.
    generation: RwLock<Arc<Generation>>,
    /// Epoch numbers are allocated here, by the builder thread only.
    next_epoch: AtomicU64,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    connections: AtomicU64,
    requests: AtomicU64,
}

impl ServerState<'_> {
    /// Snapshot of the current generation (an `Arc` clone; the read lock
    /// is held for the pointer copy only).
    fn generation(&self) -> Arc<Generation> {
        self.generation.read().expect("generation lock").clone()
    }

    /// The named session's overlay, created against `gen` on first use and
    /// refreshed to `gen`'s epoch before it is returned.
    fn session(&self, name: &str, gen: &Generation) -> Arc<Mutex<Session>> {
        let cell = {
            let mut map = self.sessions.lock().expect("session map lock");
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(Session::new(gen))))
                .clone()
        };
        cell.lock().expect("session lock").refresh(gen);
        cell
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Mines `db` once, then serves v3 query traffic on `listener` until the
/// connection cap (if any) is reached: one handler thread per connection,
/// all reading the same epoch-swappable generation. See the module docs
/// for the protocol and concurrency model.
pub fn serve_queries(
    listener: TcpListener,
    db: &TransactionDb,
    config: FusionConfig,
    opts: &ServeOptions,
) -> io::Result<()> {
    let state = ServerState {
        db,
        generation: RwLock::new(Arc::new(Generation::build(db, &config, 0))),
        config,
        next_epoch: AtomicU64::new(1),
        sessions: Mutex::new(HashMap::new()),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
    };
    thread::scope(|scope| {
        let (reload_tx, reload_rx) = mpsc::channel::<BuilderJob>();
        let st = &state;
        scope.spawn(move || builder_loop(reload_rx, st));
        let mut served = 0usize;
        for conn in listener.incoming() {
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    if opts.verbose {
                        eprintln!("cfp serve: accept failed: {e}");
                    }
                    continue;
                }
            };
            state.connections.fetch_add(1, Ordering::Relaxed);
            let tx = reload_tx.clone();
            scope.spawn(move || {
                if let Err(e) = handle_conn(stream, st, &tx, opts) {
                    if opts.verbose {
                        eprintln!("cfp serve: {e}");
                    }
                }
            });
            served += 1;
            if opts.max_conns.is_some_and(|max| served >= max) {
                break;
            }
        }
        // Dropping the sender ends the builder once the last handler's
        // clone goes away; the scope then joins every thread, so bounded
        // serving cannot strand a half-written response.
        drop(reload_tx);
    });
    Ok(())
}

/// Binds on an OS-assigned localhost port and serves on a background
/// thread that owns the database — the fixture tests, benches, and the
/// `cfp serve` smoke job build their clients against this.
pub fn spawn_query_server(
    db: TransactionDb,
    config: FusionConfig,
    opts: ServeOptions,
) -> io::Result<(SocketAddr, thread::JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let handle = thread::spawn(move || serve_queries(listener, &db, config, &opts));
    Ok((addr, handle))
}

/// The dedicated builder thread: drains `reload` / `append` jobs one at a
/// time (so concurrent build requests serialize naturally), builds each new
/// generation entirely off-lock, and swaps it in with one brief write.
///
/// The builder is the sole owner of the *evolving* database: the first
/// `append` clones the launch database into a [`DeltaEngine`], and every
/// later append is absorbed incrementally there. A `reload` re-mines
/// whatever the database currently is — grown or not — from scratch, so a
/// seed override always sees the appended transactions too.
fn builder_loop(rx: mpsc::Receiver<BuilderJob>, state: &ServerState<'_>) {
    let mut engine: Option<DeltaEngine> = None;
    while let Ok(job) = rx.recv() {
        let epoch = state.next_epoch.fetch_add(1, Ordering::SeqCst);
        let (gen, ack) = match job {
            BuilderJob::Reload { seed, ack } => {
                let config = match seed {
                    Some(seed) => state.config.clone().with_seed(seed),
                    None => state.config.clone(),
                };
                let db = engine.as_ref().map_or(state.db, DeltaEngine::db);
                (Arc::new(Generation::build(db, &config, epoch)), ack)
            }
            BuilderJob::Append { delta, ack } => {
                let engine = engine.get_or_insert_with(|| {
                    DeltaEngine::new(state.db.clone(), state.config.clone())
                });
                let result = engine.append(&delta);
                let gen = Generation::from_patterns(&result.patterns, &state.config, epoch);
                (Arc::new(gen), ack)
            }
        };
        *state.generation.write().expect("generation lock") = gen;
        if let Some(ack) = ack {
            let _ = ack.send(epoch);
        }
    }
}

/// Serves one connection: a loop of request frames, each answered with
/// streamed response chunks or a typed error frame. Request-level failures
/// (bad verb, bad field, bad values) keep the connection alive; transport
/// failures (corrupt frame, timeout, mid-frame close) end it.
fn handle_conn(
    stream: TcpStream,
    state: &ServerState<'_>,
    reload: &mpsc::Sender<BuilderJob>,
    opts: &ServeOptions,
) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    let io_timeout = opts.io_timeout.max(Duration::from_millis(1));
    let sock = |e: io::Error| format!("socket deadline: {e}");
    stream.set_read_timeout(Some(io_timeout)).map_err(sock)?;
    stream.set_write_timeout(Some(io_timeout)).map_err(sock)?;
    let mut r = BufReader::new(&stream);
    loop {
        let payload = match read_frame(&mut r) {
            Ok((FRAME_REQUEST, payload)) => payload,
            Ok((FRAME_BYE, _)) => return Ok(()),
            Ok((kind, _)) => {
                send_error_frame(&stream, 3, &format!("unexpected frame kind {kind}"));
                return Err(format!("unexpected frame kind {kind}"));
            }
            Err(FrameError::Closed) => return Ok(()),
            Err(e @ FrameError::Corrupt(_)) => {
                // The stream position is unreliable after a corrupt frame;
                // answer with a typed error, then drop the connection.
                send_error_frame(&stream, 3, &format!("bad frame: {e}"));
                return Err(format!("bad frame: {e}"));
            }
            Err(e) => return Err(format!("reading request: {e}")),
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let text = match String::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => {
                send_error_frame(&stream, 3, "request frame is not UTF-8");
                continue;
            }
        };
        let req = match ServeRequest::parse(&text) {
            Ok(req) => req,
            Err(e) => {
                send_error_frame(&stream, 3, &e);
                continue;
            }
        };
        let closing = req.verb == "bye";
        match dispatch(state, reload, &req) {
            Ok(body) => {
                let mut w = BufWriter::new(&stream);
                let mut sink = FrameSink::new(&mut w);
                sink.write_all(body.as_bytes())
                    .map_err(|e| format!("sending response: {e}"))?;
                sink.finish()
                    .map_err(|e| format!("sending response: {e}"))?;
                w.flush().map_err(|e| format!("flush: {e}"))?;
            }
            Err((exit, msg)) => send_error_frame(&stream, exit, &msg),
        }
        if closing {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Protocol exit codes: 3 = the request is at fault (unknown verb/field,
/// bad value, unknown tid), 2 = the server failed to answer it.
type Fault = (i32, String);

fn bad_request(msg: impl Into<String>) -> Fault {
    (3, msg.into())
}

/// Routes one parsed request to its verb handler and renders the response
/// text (handshake line carrying the answering epoch, then verb-specific
/// `key=value` / `pattern ...` lines).
fn dispatch(
    state: &ServerState<'_>,
    reload: &mpsc::Sender<BuilderJob>,
    req: &ServeRequest,
) -> Result<String, Fault> {
    let allowed = allowed_fields(&req.verb)
        .ok_or_else(|| bad_request(format!("unknown verb '{}'", req.verb)))?;
    for (k, _) in &req.fields {
        if !allowed.contains(&k.as_str()) {
            return Err(bad_request(format!(
                "verb '{}' does not accept field '{k}'",
                req.verb
            )));
        }
    }
    let gen = state.generation();
    let (epoch, body) = match req.verb.as_str() {
        "topk" => (gen.epoch, topk(state, &gen, req)?),
        "lookup" => (gen.epoch, lookup(state, &gen, req)?),
        "contain" => (gen.epoch, contain(state, &gen, req)?),
        "similar" => (gen.epoch, similar(&gen, req)?),
        "put" => (gen.epoch, put(state, &gen, req)?),
        "stats" => (gen.epoch, server_stats(state, &gen)),
        "reload" => {
            let (epoch, body) = trigger_reload(&gen, reload, req)?;
            (epoch, body)
        }
        "append" => {
            let (epoch, body) = trigger_append(&gen, reload, req)?;
            (epoch, body)
        }
        "bye" => (gen.epoch, "closing=1\n".to_string()),
        _ => unreachable!("allowed_fields() vetted the verb"),
    };
    Ok(format!(
        "cfp-serve {SERVE_PROTOCOL_VERSION} ok {} epoch={epoch}\n{body}",
        req.verb
    ))
}

/// Parses a required comma-separated item list into a canonical itemset.
fn parse_items(req: &ServeRequest) -> Result<Itemset, Fault> {
    let raw = req
        .get("items")
        .ok_or_else(|| bad_request("missing required field 'items'"))?;
    let mut items: Vec<Item> = Vec::new();
    for tok in raw.split(',').filter(|t| !t.is_empty()) {
        items.push(
            tok.parse()
                .map_err(|_| bad_request(format!("bad item '{tok}' in items list")))?,
        );
    }
    if items.is_empty() {
        return Err(bad_request("empty items list"));
    }
    Ok(Itemset::from_items(&items))
}

/// Parses a required comma-separated tid list (sorted, deduplicated),
/// validating every tid against the generation's universe.
fn parse_tids(req: &ServeRequest, universe: usize) -> Result<Vec<usize>, Fault> {
    let raw = req
        .get("tids")
        .ok_or_else(|| bad_request("missing required field 'tids'"))?;
    let mut tids: Vec<usize> = Vec::new();
    for tok in raw.split(',').filter(|t| !t.is_empty()) {
        let t: usize = tok
            .parse()
            .map_err(|_| bad_request(format!("bad tid '{tok}' in tids list")))?;
        if t >= universe {
            return Err(bad_request(format!(
                "tid {t} is outside the universe of {universe} transactions"
            )));
        }
        tids.push(t);
    }
    if tids.is_empty() {
        return Err(bad_request("empty tids list"));
    }
    tids.sort_unstable();
    tids.dedup();
    Ok(tids)
}

fn parse_num<T: std::str::FromStr>(req: &ServeRequest, key: &str) -> Result<Option<T>, Fault> {
    match req.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| bad_request(format!("bad value '{v}' for field '{key}'"))),
    }
}

/// One `pattern ...` response line: the row's itemset and support, plus
/// its tid list when asked for. Reads borrow straight from the slab.
fn pattern_line(store: &PoolStore, row: u32, with_tids: bool, out: &mut String) {
    out.push_str("pattern items=");
    for (i, item) in store.items_of(row).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item.to_string());
    }
    out.push_str(&format!(" support={}", store.support(row)));
    if with_tids {
        out.push_str(" tids=");
        let words = store.words_of(row);
        let mut first = true;
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let tid = w * 64 + bits.trailing_zeros() as usize;
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&tid.to_string());
                bits &= bits - 1;
            }
        }
    }
    out.push('\n');
}

/// `topk`: the first `k` rows of the result ranking. With a session, the
/// tenant's overlay rows compete in the same ranking.
fn topk(state: &ServerState<'_>, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let k = parse_num::<usize>(req, "k")?.unwrap_or(DEFAULT_TOPK);
    let with_tids = req.get("tids") == Some("1");
    let render = |store: &PoolStore, rows: &[u32]| {
        let mut out = format!("count={} total={}\n", k.min(rows.len()), rows.len());
        for &row in rows.iter().take(k) {
            pattern_line(store, row, with_tids, &mut out);
        }
        out
    };
    match req.get("session") {
        None => Ok(render(&gen.store, &gen.rows)),
        Some(name) => {
            let cell = state.session(name, gen);
            let sess = cell.lock().expect("session lock");
            let mut rows: Vec<u32> = gen.rows.iter().chain(&sess.local_rows).copied().collect();
            rank_rows(&sess.store, &mut rows);
            Ok(render(&sess.store, &rows))
        }
    }
}

/// `lookup`: exact-itemset support lookup through the interning table —
/// O(1) against base and overlay, no scan.
fn lookup(state: &ServerState<'_>, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let items = parse_items(req)?;
    let render = |store: &PoolStore| match store.lookup(items.items()) {
        None => "found=0\n".to_string(),
        Some(row) => {
            let mut out = format!("found=1 row={row}\n");
            pattern_line(store, row, true, &mut out);
            out
        }
    };
    match req.get("session") {
        None => Ok(render(&gen.store)),
        Some(name) => {
            let cell = state.session(name, gen);
            let sess = cell.lock().expect("session lock");
            Ok(render(&sess.store))
        }
    }
}

/// `contain`: every ranked pattern whose itemset contains the query items,
/// in ranking order, capped at `limit` output rows (the match count is
/// exact either way).
fn contain(state: &ServerState<'_>, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let items = parse_items(req)?;
    let limit = parse_num::<usize>(req, "limit")?.unwrap_or(DEFAULT_CONTAIN_LIMIT);
    let render = |store: &PoolStore, rows: &[u32]| {
        let mut matched = 0usize;
        let mut lines = String::new();
        for &row in rows {
            if contains_all(store.items_of(row), items.items()) {
                matched += 1;
                if matched <= limit {
                    pattern_line(store, row, false, &mut lines);
                }
            }
        }
        format!(
            "count={} matched={matched} scanned={}\n{lines}",
            matched.min(limit),
            rows.len()
        )
    };
    match req.get("session") {
        None => Ok(render(&gen.store, &gen.rows)),
        Some(name) => {
            let cell = state.session(name, gen);
            let sess = cell.lock().expect("session lock");
            let mut rows: Vec<u32> = gen.rows.iter().chain(&sess.local_rows).copied().collect();
            rank_rows(&sess.store, &mut rows);
            Ok(render(&sess.store, &rows))
        }
    }
}

/// Sorted-slice subset test: is every item of `needle` in `hay`?
fn contains_all(hay: &[Item], needle: &[Item]) -> bool {
    let mut h = hay.iter();
    needle.iter().all(|n| h.any(|x| x == n))
}

/// `similar`: the metric ball of radius `r(τ)` around an external support
/// set, through the generation's [`BallIndex`] — identical pruning and
/// kernels to the mining loop's own ball queries. Sessions do not
/// participate: the index covers the shared generation only.
fn similar(gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let universe = gen.store.universe();
    let tids = parse_tids(req, universe)?;
    let mut words = vec![0u64; gen.store.words_per_row()];
    for &t in &tids {
        words[t / 64] |= 1u64 << (t % 64);
    }
    let mut sufs = Vec::new();
    kernels::suffix_cards_into(&words, &mut sufs);
    let mut stats = BallQueryStats::default();
    let members = gen
        .index
        .ball_external(&gen.store, &words, &sufs, tids.len(), &mut stats);
    let mut out = format!(
        "count={} card={} radius={} pairs={} pruned={}\n",
        members.len(),
        tids.len(),
        gen.radius,
        stats.pairs_total,
        stats.cardinality_pruned + stats.pivot_pruned,
    );
    for pos in members {
        pattern_line(&gen.store, gen.rows[pos], false, &mut out);
    }
    Ok(out)
}

/// `put`: interns a pattern into the named session's private overlay. The
/// shared generation and every other session are unaffected.
fn put(state: &ServerState<'_>, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let name = req
        .get("session")
        .ok_or_else(|| bad_request("put requires a session"))?;
    let items = parse_items(req)?;
    let universe = gen.store.universe();
    let tids = parse_tids(req, universe)?;
    let pattern = Pattern::new(items, TidSet::from_tids(universe, tids.iter().copied()));
    let cell = state.session(name, gen);
    let mut sess = cell.lock().expect("session lock");
    let before = sess.store.len_rows();
    let row = sess.store.intern(&pattern);
    let fresh = sess.store.len_rows() > before;
    if fresh {
        sess.local_rows.push(row);
        sess.patterns.push(pattern);
    }
    Ok(format!(
        "row={row} fresh={} session_rows={}\n",
        fresh as u8,
        sess.local_rows.len()
    ))
}

/// `stats`: one `key=value` line per counter.
fn server_stats(state: &ServerState<'_>, gen: &Generation) -> String {
    let sessions = state.sessions.lock().expect("session map lock").len();
    format!(
        "epoch={}\nrows={}\nuniverse={}\nradius={}\nsessions={sessions}\n\
         connections={}\nrequests={}\n",
        gen.epoch,
        gen.rows.len(),
        gen.store.universe(),
        gen.radius,
        state.connections.load(Ordering::Relaxed),
        state.requests.load(Ordering::Relaxed),
    )
}

/// `reload`: enqueues a re-mine on the builder thread. With `wait=1` the
/// response reports the freshly swapped epoch; without it, the epoch that
/// answered and `scheduled=1`.
fn trigger_reload(
    gen: &Generation,
    reload: &mpsc::Sender<BuilderJob>,
    req: &ServeRequest,
) -> Result<(u64, String), Fault> {
    let seed = parse_num::<u64>(req, "seed")?;
    let wait = req.get("wait") == Some("1");
    let (ack_tx, ack_rx) = mpsc::channel();
    let job = BuilderJob::Reload {
        seed,
        ack: wait.then(|| ack_tx.clone()),
    };
    reload
        .send(job)
        .map_err(|_| (2, "the generation builder has shut down".to_string()))?;
    if wait {
        drop(ack_tx);
        let epoch = ack_rx
            .recv()
            .map_err(|_| (2, "the generation builder died mid-build".to_string()))?;
        Ok((epoch, "waited=1\n".to_string()))
    } else {
        Ok((gen.epoch, "scheduled=1\n".to_string()))
    }
}

/// Parses an `append` request's `txns=` field: `;`-separated transactions,
/// each a `,`-separated list of external item labels. Strict like every
/// other field parser: an empty batch, an empty transaction segment, or a
/// malformed label is a typed error.
fn parse_txns(raw: &str) -> Result<DbDelta, Fault> {
    let mut delta = DbDelta::new();
    for seg in raw.split(';') {
        if seg.is_empty() {
            return Err(bad_request("empty transaction in txns list"));
        }
        let mut txn: Vec<u32> = Vec::new();
        for tok in seg.split(',').filter(|t| !t.is_empty()) {
            txn.push(
                tok.parse()
                    .map_err(|_| bad_request(format!("bad item label '{tok}' in txns list")))?,
            );
        }
        delta.push(&txn);
    }
    if delta.is_empty() {
        return Err(bad_request("missing or empty field 'txns'"));
    }
    Ok(delta)
}

/// `append`: stages a transaction delta onto the builder thread, which
/// absorbs it incrementally (see [`crate::delta`]) and swaps in a new
/// generation bit-identical to a cold mine of the grown database. `wait=1`
/// reports the freshly swapped epoch, mirroring `reload`.
fn trigger_append(
    gen: &Generation,
    reload: &mpsc::Sender<BuilderJob>,
    req: &ServeRequest,
) -> Result<(u64, String), Fault> {
    let raw = req
        .get("txns")
        .ok_or_else(|| bad_request("missing required field 'txns'"))?;
    let delta = parse_txns(raw)?;
    let appended = delta.len();
    let wait = req.get("wait") == Some("1");
    let (ack_tx, ack_rx) = mpsc::channel();
    let job = BuilderJob::Append {
        delta,
        ack: wait.then(|| ack_tx.clone()),
    };
    reload
        .send(job)
        .map_err(|_| (2, "the generation builder has shut down".to_string()))?;
    if wait {
        drop(ack_tx);
        let epoch = ack_rx
            .recv()
            .map_err(|_| (2, "the generation builder died mid-build".to_string()))?;
        Ok((epoch, format!("appended={appended} waited=1\n")))
    } else {
        Ok((gen.epoch, format!("appended={appended} scheduled=1\n")))
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Why a client-side request failed.
#[derive(Debug)]
pub enum ServeError {
    /// Transport-level failure: socket or frame layer.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Server {
        /// Protocol exit code (3 = the request was at fault, 2 = the
        /// server failed internally).
        exit: i32,
        /// The server's human-readable explanation.
        message: String,
    },
    /// The reply arrived intact but violated the v3 protocol shape.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "transport: {e}"),
            Self::Server { exit, message } => write!(f, "server error (exit {exit}): {message}"),
            Self::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        Self::Frame(FrameError::Io(e))
    }
}

/// A parsed v3 reply: the answering epoch plus the verb-specific body
/// lines (handshake line already consumed and validated).
#[derive(Debug)]
pub struct ServeReply {
    /// The generation epoch that answered.
    pub epoch: u64,
    /// The verb echoed by the server.
    pub verb: String,
    /// The response body, one entry per line.
    pub lines: Vec<String>,
}

impl ServeReply {
    /// The value of the first `key=...` token across the body lines —
    /// enough for the scalar fields (`count=`, `found=`, `row=`, ...).
    pub fn field(&self, key: &str) -> Option<&str> {
        let prefix = format!("{key}=");
        self.lines
            .iter()
            .flat_map(|l| l.split(' '))
            .find_map(|tok| tok.strip_prefix(&prefix))
    }

    /// The body's `pattern ...` lines.
    pub fn patterns(&self) -> impl Iterator<Item = &str> {
        self.lines
            .iter()
            .filter(|l| l.starts_with("pattern "))
            .map(|l| l.as_str())
    }
}

/// A blocking v3 client over one long-lived connection: send a request
/// frame, collect the chunked reply. Used by the `cfp query` subcommand
/// and the service tests.
pub struct QueryClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl QueryClient {
    /// Connects and applies `timeout` to every subsequent socket
    /// operation.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")
        })?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Sends one request and reads its complete reply.
    pub fn request(
        &mut self,
        verb: &str,
        fields: &[(&str, &str)],
    ) -> Result<ServeReply, ServeError> {
        let text = ServeRequest::new(verb, fields).to_text();
        write_frame(&mut &self.stream, FRAME_REQUEST, text.as_bytes())?;
        let mut body = Vec::new();
        loop {
            match read_frame(&mut self.reader)? {
                (FRAME_SLAB_CHUNK, chunk) => body.extend_from_slice(&chunk),
                (FRAME_HEARTBEAT, _) => continue,
                (FRAME_SLAB_END, tail) => {
                    let declared = u64::from_le_bytes(
                        tail.try_into()
                            .map_err(|_| ServeError::Protocol("malformed end frame".into()))?,
                    );
                    if declared != body.len() as u64 {
                        return Err(ServeError::Protocol(format!(
                            "reply declared {declared} bytes but {} arrived",
                            body.len()
                        )));
                    }
                    break;
                }
                (FRAME_ERROR, payload) => return Err(parse_error_frame(&payload)),
                (kind, _) => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected frame kind {kind}"
                    )))
                }
            }
        }
        let text = String::from_utf8(body)
            .map_err(|_| ServeError::Protocol("reply is not UTF-8".into()))?;
        parse_reply(&text, verb)
    }

    /// Ends the connection with a [`FRAME_BYE`] (best-effort).
    pub fn bye(self) {
        let _ = write_frame(&mut &self.stream, FRAME_BYE, &[]);
    }
}

/// Decodes a [`FRAME_ERROR`] payload (`exit=<code>\n<message>`).
fn parse_error_frame(payload: &[u8]) -> ServeError {
    let text = String::from_utf8_lossy(payload);
    let (head, message) = text.split_once('\n').unwrap_or((text.as_ref(), ""));
    let exit = head
        .strip_prefix("exit=")
        .and_then(|v| v.parse().ok())
        .unwrap_or(-1);
    ServeError::Server {
        exit,
        message: message.to_string(),
    }
}

/// Validates the reply handshake line and splits out the body.
fn parse_reply(text: &str, want_verb: &str) -> Result<ServeReply, ServeError> {
    let bad = |m: String| ServeError::Protocol(m);
    let mut lines = text.lines();
    let head = lines.next().ok_or_else(|| bad("empty reply".into()))?;
    let parts: Vec<&str> = head.split(' ').collect();
    if parts.len() != 5 || parts[0] != "cfp-serve" || parts[2] != "ok" {
        return Err(bad(format!("bad reply handshake '{head}'")));
    }
    if parts[1] != SERVE_PROTOCOL_VERSION.to_string() {
        return Err(bad(format!(
            "reply speaks protocol {}, not {SERVE_PROTOCOL_VERSION}",
            parts[1]
        )));
    }
    if parts[3] != want_verb {
        return Err(bad(format!(
            "reply answers verb '{}', expected '{want_verb}'",
            parts[3]
        )));
    }
    let epoch = parts[4]
        .strip_prefix("epoch=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(format!("bad epoch field in '{head}'")))?;
    Ok(ServeReply {
        epoch,
        verb: want_verb.to_string(),
        lines: lines.map(str::to_string).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_text_round_trips() {
        let req = ServeRequest::new("topk", &[("k", "5"), ("session", "alice")]);
        let parsed = ServeRequest::parse(&req.to_text()).unwrap();
        assert_eq!(parsed.verb, "topk");
        assert_eq!(parsed.get("k"), Some("5"));
        assert_eq!(parsed.get("session"), Some("alice"));
        assert_eq!(parsed.to_text(), req.to_text());
    }

    #[test]
    fn request_parse_is_strict() {
        for bad in [
            "",
            "cfp-net 2 topk",
            "cfp-serve x topk",
            "cfp-serve 2 topk",
            "cfp-serve 3",
            "cfp-serve 3 topk extra",
            "cfp-serve 3 topk\nnot-a-field",
            "cfp-serve 3 topk\n=5",
            "cfp-serve 3 topk\nk=5\nk=6",
        ] {
            assert!(ServeRequest::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unknown_verbs_and_fields_are_rejected_by_the_table() {
        assert!(allowed_fields("frobnicate").is_none());
        assert!(allowed_fields("topk").is_some_and(|a| !a.contains(&"seed")));
        assert!(allowed_fields("append").is_some_and(|a| a.contains(&"txns")));
    }

    #[test]
    fn txns_fields_parse_strictly() {
        let delta = parse_txns("1,2,3;4;9,12").unwrap();
        assert_eq!(delta.transactions(), &[vec![1, 2, 3], vec![4], vec![9, 12]]);
        for bad in ["", "1,2;;3", "1,2;", "1,x,3"] {
            assert!(parse_txns(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn contains_all_is_a_sorted_subset_test() {
        assert!(contains_all(&[1, 3, 5, 9], &[3, 9]));
        assert!(contains_all(&[1, 3, 5, 9], &[]));
        assert!(!contains_all(&[1, 3, 5, 9], &[3, 4]));
        assert!(!contains_all(&[], &[1]));
    }

    #[test]
    fn error_frame_payloads_decode() {
        match parse_error_frame(b"exit=3\nno such verb") {
            ServeError::Server { exit, message } => {
                assert_eq!(exit, 3);
                assert_eq!(message, "no such verb");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn reply_handshakes_are_validated() {
        assert!(parse_reply("cfp-serve 3 ok topk epoch=4\ncount=0 total=0\n", "topk").is_ok());
        for bad in [
            "",
            "cfp-serve 3 err topk epoch=4\n",
            "cfp-serve 2 ok topk epoch=4\n",
            "cfp-serve 3 ok stats epoch=4\n",
            "cfp-serve 3 ok topk epoch=x\n",
        ] {
            assert!(parse_reply(bad, "topk").is_err(), "accepted {bad:?}");
        }
    }
}
