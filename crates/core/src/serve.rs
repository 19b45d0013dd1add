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
//! # Wire protocol
//!
//! The service speaks the wire it shares with the worker protocol
//! ([`crate::wire`]; byte-level spec in [`cfp_itemset::store`]'s module
//! docs). A request is a `cfp-serve` [`Message`] ([`ServeRequest`]); the
//! reply — a head with the verb and the epoch, an empty line, the body —
//! streams back as [`FrameSink`] chunk frames, or a rejected request gets a
//! typed [`ErrorFrame`] that leaves the connection usable. Connections are
//! long-lived: many requests each, ended by a `bye` verb, a [`FRAME_BYE`],
//! or a clean close; each runs on its own thread of the shared
//! [`accept_loop`].
//!
//! # Generations and epoch swaps
//!
//! The resident state is an `Arc<Generation>` behind an [`RwLock`] used
//! only as a pointer cell: readers clone the `Arc` (microseconds) and then
//! work lock-free on an immutable snapshot, so a query observes exactly one
//! generation end to end — never a torn mix. Every generation is built on
//! one dedicated builder thread, which owns a [`DeltaEngine`] over the
//! served database from launch: it mines generation 0 before the daemon
//! accepts its first connection. A `reload` request enqueues a re-mine on
//! the builder; the build runs entirely off-lock (through the
//! [`crate::engine`] facade, optionally with a new RNG seed) and the
//! finished generation is swapped in with one brief write lock. Readers
//! never block on a build, and `reload wait=1` lets admin callers observe
//! the swap synchronously.
//!
//! The served database itself evolves through the same machinery: an
//! `append` request stages a batch of new transactions (`txns=`,
//! `;`-separated transactions of `,`-separated external labels) onto the
//! builder thread, whose engine absorbs the delta at sublinear cost (clean
//! first-item subtrees spliced; see [`crate::delta`]) — the first append
//! included, since generation 0 was mined by the same engine. The
//! resulting generation is **bit-identical** to what a cold daemon over the
//! grown database would serve. `append wait=1` blocks until the new epoch
//! is swapped in; a later `reload` re-mines the *grown* database from
//! scratch (seed overrides still apply to that build only).
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
use crate::pattern::Pattern;
use crate::pool::{rank_rows, PoolStore};
use crate::wire::{
    accept_loop, bad_value, dial, field, head, is_timeout, read_frame, spawn_local, write_frame,
    DaemonOptions, ErrorFrame, FrameError, FrameSink, FrameSource, Message, WireError, FRAME_BYE,
    FRAME_REQUEST,
};
use cfp_itemset::{kernels, DbDelta, Item, Itemset, TidSet, TransactionDb};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::Duration;

/// The handshake magic of every serve message.
const SERVE_MAGIC: &str = "cfp-serve";

/// Default `k` for a `topk` request that does not specify one.
const DEFAULT_TOPK: usize = 10;
/// Default cap on `contain` scan output rows.
const DEFAULT_CONTAIN_LIMIT: usize = 32;

/// Tuning knobs for [`serve_queries`]: the settings every daemon shares.
pub type ServeOptions = DaemonOptions;

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// A parsed request: its verb plus the `key=value` fields the verb
/// admits. On the wire it is a `cfp-serve` [`Message`] whose `verb` field
/// comes first. [`ServeRequest::to_text`] and [`ServeRequest::parse`] are
/// exact inverses (fields keep their wire order).
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
        let mut text = head(SERVE_MAGIC);
        field(&mut text, "verb", &self.verb);
        for (k, v) in &self.fields {
            field(&mut text, k, v);
        }
        text
    }

    /// Parses and validates a request frame payload: an unknown verb, or a
    /// field the verb does not admit, is a typed error like any other.
    pub fn parse(payload: &[u8]) -> Result<Self, WireError> {
        let mut m = Message::decode(payload, SERVE_MAGIC)?;
        let verb = m.require("verb")?;
        let admitted = allowed_fields(verb).ok_or_else(|| WireError::Unknown {
            what: "verb",
            name: verb.to_string(),
        })?;
        Ok(Self::new(verb, &m.finish(admitted)?))
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The `key=value` fields each verb accepts — [`ServeRequest::parse`]
/// rejects anything outside this table (and unknown verbs) with a typed
/// error, so a misspelled field can never be silently ignored.
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
    /// as epoch `epoch` (the `reload` path).
    fn build(db: &TransactionDb, config: &FusionConfig, epoch: u64) -> Self {
        let result = config
            .engine(db)
            .mine(Source::Transactions)
            .expect("the transactions source cannot fail to load");
        Self::from_patterns(&result.patterns, config, epoch)
    }

    /// Freezes an already-mined result as epoch `epoch` (generation 0 and
    /// the `append` path: the builder's [`DeltaEngine`] did the mining).
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
    /// the new base and re-intern the session's own patterns, their
    /// tid-sets first widened to the new universe (an `append` grows it). A
    /// pattern the new base now contains stops being overlay-local (it is
    /// in the shared ranking already) but remains owned by the session.
    fn refresh(&mut self, gen: &Generation) {
        if self.epoch == gen.epoch {
            return;
        }
        self.epoch = gen.epoch;
        self.store = gen.store.fork();
        self.local_rows.clear();
        let base_len = self.store.base_len() as u32;
        let mut patterns = std::mem::take(&mut self.patterns);
        for p in &mut patterns {
            p.tids.grow_universe(gen.store.universe());
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

/// Pointer cell for the current generation, shared by the builder (the
/// only writer) and the connection handlers — held only long enough to
/// clone or replace the `Arc`, never across a build or a query.
type GenerationCell = Arc<RwLock<Arc<Generation>>>;

/// Everything the connection handlers share (borrowed by each scoped
/// per-connection thread).
struct ServerState {
    generation: GenerationCell,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    connections: AtomicU64,
    requests: AtomicU64,
}

impl ServerState {
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

/// Mines `db` once, then serves query traffic on `listener` through the
/// shared [`accept_loop`] until the connection cap (if any) is reached:
/// one handler thread per connection, all reading the same
/// epoch-swappable generation. See the module docs for the protocol and
/// concurrency model.
///
/// The builder thread mines generation 0 before the first connection is
/// accepted; if that build fails, the builder's panic propagates out of
/// this call and nothing is served.
pub fn serve_queries(
    listener: TcpListener,
    db: &TransactionDb,
    config: FusionConfig,
    opts: &ServeOptions,
) -> io::Result<()> {
    thread::scope(|scope| {
        let (jobs, job_rx) = mpsc::channel::<BuilderJob>();
        let (cell_tx, cell_rx) = mpsc::channel::<GenerationCell>();
        scope.spawn(move || builder_loop(db, config, job_rx, cell_tx));
        // A builder that failed to build generation 0 dropped `cell_tx`
        // unwinding; the scope re-raises its panic when it joins it.
        let Ok(generation) = cell_rx.recv() else {
            return;
        };
        let state = ServerState {
            generation,
            sessions: Mutex::new(HashMap::new()),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        };
        accept_loop(listener, opts, "cfp serve", |stream| {
            state.connections.fetch_add(1, Ordering::Relaxed);
            handle_conn(stream, &state, &jobs)
        });
        // Every handler has finished; dropping `jobs` here ends the
        // builder, and the scope joins it.
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
    spawn_local(move |listener| serve_queries(listener, &db, config, &opts))
}

/// The dedicated builder thread: owns the [`DeltaEngine`] from launch,
/// mines generation 0 itself and publishes it on `publish` as the shared
/// generation cell, then drains `reload` / `append` jobs one at a time (so
/// concurrent build requests serialize naturally), builds each new
/// generation entirely off-lock, and swaps it in with one brief write.
///
/// The builder is the sole owner of the *evolving* database: every append
/// is absorbed incrementally by the engine that mined generation 0, so the
/// first append costs a delta, not a re-mine of the launch database. A
/// `reload` re-mines whatever the database currently is — grown or not —
/// from scratch, so a seed override always sees the appended transactions
/// too. Epoch numbers are allocated here, and only here.
fn builder_loop(
    db: &TransactionDb,
    config: FusionConfig,
    rx: mpsc::Receiver<BuilderJob>,
    publish: mpsc::Sender<GenerationCell>,
) {
    let mut engine = DeltaEngine::new(db.clone(), config);
    let base = engine.mine();
    let gen = Generation::from_patterns(&base.patterns, engine.config(), 0);
    let cell: GenerationCell = Arc::new(RwLock::new(Arc::new(gen)));
    if publish.send(Arc::clone(&cell)).is_err() {
        return;
    }
    let mut epoch = 0u64;
    while let Ok(job) = rx.recv() {
        epoch += 1;
        let (gen, ack) = match job {
            BuilderJob::Reload { seed, ack } => {
                let config = match seed {
                    Some(seed) => engine.config().clone().with_seed(seed),
                    None => engine.config().clone(),
                };
                (Generation::build(engine.db(), &config, epoch), ack)
            }
            BuilderJob::Append { delta, ack } => {
                let result = engine.append(&delta);
                let gen = Generation::from_patterns(&result.patterns, engine.config(), epoch);
                (gen, ack)
            }
        };
        *cell.write().expect("generation lock") = Arc::new(gen);
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
    stream: &TcpStream,
    state: &ServerState,
    jobs: &mpsc::Sender<BuilderJob>,
) -> Result<(), String> {
    let mut r = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut r) {
            Ok((FRAME_REQUEST, payload)) => payload,
            Ok((FRAME_BYE, _)) | Err(FrameError::Closed) => return Ok(()),
            Ok((kind, _)) => return refuse(stream, format!("unexpected frame kind {kind}")),
            // The stream position is unreliable after a corrupt frame.
            Err(e @ FrameError::Corrupt(_)) => return refuse(stream, format!("bad frame: {e}")),
            Err(e) => return Err(format!("reading request: {e}")),
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let req = ServeRequest::parse(&payload).map_err(|e| bad_request(e.to_string()));
        let closing = req.as_ref().is_ok_and(|req| req.verb == "bye");
        match req.and_then(|req| dispatch(state, jobs, &req)) {
            Ok(text) => {
                let mut sink = FrameSink::new(BufWriter::new(stream));
                sink.write_all(text.as_bytes())
                    .and_then(|()| sink.finish())
                    .map_err(|e| format!("sending response: {e}"))?;
            }
            Err((exit, msg)) => ErrorFrame::send(stream, exit, &msg),
        }
        if closing {
            return Ok(());
        }
    }
}

/// Answers a transport fault with a typed error frame; the caller then
/// drops the connection.
fn refuse(stream: &TcpStream, why: String) -> Result<(), String> {
    ErrorFrame::send(stream, 3, &why);
    Err(why)
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

/// Routes one parsed request to its verb handler and renders the reply
/// ([`reply_text`]: the answering epoch, then verb-specific `key=value` /
/// `pattern ...` lines).
fn dispatch(
    state: &ServerState,
    jobs: &mpsc::Sender<BuilderJob>,
    req: &ServeRequest,
) -> Result<String, Fault> {
    let gen = state.generation();
    let (epoch, body) = match req.verb.as_str() {
        "topk" => (gen.epoch, topk(state, &gen, req)?),
        "lookup" => (gen.epoch, lookup(state, &gen, req)?),
        "contain" => (gen.epoch, contain(state, &gen, req)?),
        "similar" => (gen.epoch, similar(&gen, req)?),
        "put" => (gen.epoch, put(state, &gen, req)?),
        "stats" => (gen.epoch, server_stats(state, &gen)),
        "reload" => {
            let seed = parse_num::<u64>(req, "seed")?;
            let (epoch, how) = enqueue(&gen, jobs, req, |ack| BuilderJob::Reload { seed, ack })?;
            (epoch, format!("{how}\n"))
        }
        "append" => {
            let raw = req
                .get("txns")
                .ok_or_else(|| bad_request("missing required field 'txns'"))?;
            let delta = parse_txns(raw)?;
            let appended = delta.len();
            let (epoch, how) = enqueue(&gen, jobs, req, |ack| BuilderJob::Append { delta, ack })?;
            (epoch, format!("appended={appended} {how}\n"))
        }
        "bye" => (gen.epoch, "closing=1\n".to_string()),
        _ => unreachable!("ServeRequest::parse vetted the verb"),
    };
    Ok(reply_text(&req.verb, epoch, &body))
}

/// A reply's text: a `cfp-serve` head with the verb and the answering
/// epoch, an empty line, then the verb's body.
pub(crate) fn reply_text(verb: &str, epoch: u64, body: &str) -> String {
    let mut text = head(SERVE_MAGIC);
    field(&mut text, "verb", verb);
    field(&mut text, "epoch", epoch);
    text.push('\n');
    text.push_str(body);
    text
}

/// Parses required field `key` as a non-empty comma-separated list.
fn parse_list<T: std::str::FromStr>(req: &ServeRequest, key: &str) -> Result<Vec<T>, Fault> {
    let raw = req
        .get(key)
        .ok_or_else(|| bad_request(format!("missing required field '{key}'")))?;
    let list = raw
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|tok| {
            tok.parse()
                .map_err(|_| bad_request(format!("bad value '{tok}' in {key} list")))
        })
        .collect::<Result<Vec<T>, Fault>>()?;
    if list.is_empty() {
        return Err(bad_request(format!("empty {key} list")));
    }
    Ok(list)
}

/// Parses a required item list into a canonical itemset.
fn parse_items(req: &ServeRequest) -> Result<Itemset, Fault> {
    Ok(Itemset::from_items(&parse_list::<Item>(req, "items")?))
}

/// Parses a required tid list (sorted, deduplicated), validating every tid
/// against the generation's universe.
fn parse_tids(req: &ServeRequest, universe: usize) -> Result<Vec<usize>, Fault> {
    let mut tids: Vec<usize> = parse_list(req, "tids")?;
    if let Some(t) = tids.iter().find(|&&t| t >= universe) {
        return Err(bad_request(format!(
            "tid {t} is outside the universe of {universe} transactions"
        )));
    }
    tids.sort_unstable();
    tids.dedup();
    Ok(tids)
}

fn parse_num<T: std::str::FromStr>(req: &ServeRequest, key: &str) -> Result<Option<T>, Fault> {
    let bad = |v| bad_request(format!("bad value '{v}' for field '{key}'"));
    req.get(key)
        .map(|v| v.parse().map_err(|_| bad(v)))
        .transpose()
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

/// Runs `render` over the rows a request sees, in ranking order: the
/// shared generation's, or — with a session — the session's overlay rows
/// ranked in among them (the session stays locked while `render` runs).
fn ranked_view(
    state: &ServerState,
    gen: &Generation,
    req: &ServeRequest,
    render: impl FnOnce(&PoolStore, &[u32]) -> String,
) -> String {
    match req.get("session") {
        None => render(&gen.store, &gen.rows),
        Some(name) => {
            let cell = state.session(name, gen);
            let sess = cell.lock().expect("session lock");
            let mut rows: Vec<u32> = gen.rows.iter().chain(&sess.local_rows).copied().collect();
            rank_rows(&sess.store, &mut rows);
            render(&sess.store, &rows)
        }
    }
}

/// `topk`: the first `k` rows of the result ranking. With a session, the
/// tenant's overlay rows compete in the same ranking.
fn topk(state: &ServerState, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let k = parse_num::<usize>(req, "k")?.unwrap_or(DEFAULT_TOPK);
    let with_tids = req.get("tids") == Some("1");
    Ok(ranked_view(state, gen, req, |store, rows| {
        let mut out = format!("count={} total={}\n", k.min(rows.len()), rows.len());
        for &row in rows.iter().take(k) {
            pattern_line(store, row, with_tids, &mut out);
        }
        out
    }))
}

/// `lookup`: exact-itemset support lookup through the interning table —
/// O(1) against base and overlay, no scan.
fn lookup(state: &ServerState, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
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
fn contain(state: &ServerState, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
    let items = parse_items(req)?;
    let limit = parse_num::<usize>(req, "limit")?.unwrap_or(DEFAULT_CONTAIN_LIMIT);
    Ok(ranked_view(state, gen, req, |store, rows| {
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
    }))
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
fn put(state: &ServerState, gen: &Generation, req: &ServeRequest) -> Result<String, Fault> {
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
fn server_stats(state: &ServerState, gen: &Generation) -> String {
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

/// `reload` and `append`: queues the builder job `job` builds around its
/// ack channel (an append is absorbed incrementally, see [`crate::delta`]).
/// With `wait=1` the reply reports the freshly swapped epoch and
/// `waited=1`; without it, the epoch that answered and `scheduled=1`.
fn enqueue(
    gen: &Generation,
    jobs: &mpsc::Sender<BuilderJob>,
    req: &ServeRequest,
    job: impl FnOnce(Option<mpsc::Sender<u64>>) -> BuilderJob,
) -> Result<(u64, &'static str), Fault> {
    let wait = req.get("wait") == Some("1");
    let (ack_tx, ack_rx) = mpsc::channel();
    jobs.send(job(wait.then_some(ack_tx)))
        .map_err(|_| (2, "the generation builder has shut down".to_string()))?;
    if !wait {
        return Ok((gen.epoch, "scheduled=1"));
    }
    let epoch = ack_rx
        .recv()
        .map_err(|_| (2, "the generation builder died mid-build".to_string()))?;
    Ok((epoch, "waited=1"))
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
    Ok(delta)
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
    /// The reply arrived intact but its head is not a valid reply to the
    /// request.
    Protocol(WireError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "transport: {e}"),
            Self::Server { exit, message } => write!(f, "server error (exit {exit}): {message}"),
            Self::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A reply read through [`FrameSource`] fails with an `io::Error`: one that
/// wraps an [`ErrorFrame`] is the server's typed error.
impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        match e.downcast::<ErrorFrame>() {
            Ok(frame) => Self::Server {
                exit: frame.exit.unwrap_or(-1),
                message: frame.message,
            },
            Err(e) if is_timeout(e.kind()) => Self::Frame(FrameError::TimedOut),
            Err(e) => Self::Frame(FrameError::Io(e)),
        }
    }
}

/// A parsed reply: the answering epoch plus the verb-specific body lines
/// (the head already consumed and validated).
#[derive(Debug)]
pub struct ServeReply {
    /// The generation epoch that answered.
    pub epoch: u64,
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

/// Decodes a reply to `verb`: its head must answer that verb, and the body
/// lines follow the empty line.
pub(crate) fn parse_reply(payload: &[u8], verb: &str) -> Result<ServeReply, WireError> {
    let (mut m, body) = Message::decode_head(payload, SERVE_MAGIC)?;
    let answered = m.require("verb")?;
    if answered != verb {
        return Err(bad_value("verb", answered));
    }
    let epoch = m.parse("epoch")?;
    m.finish(&[])?;
    Ok(ServeReply {
        epoch,
        lines: body.lines().map(str::to_string).collect(),
    })
}

/// A blocking client over one long-lived connection: send a request
/// frame, collect the chunked reply. Used by the `cfp query` subcommand
/// and the service tests.
pub struct QueryClient {
    conn: BufReader<TcpStream>,
}

impl QueryClient {
    /// Connects ([`dial`]) and applies `timeout` to every subsequent socket
    /// operation.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let conn = BufReader::new(dial(addr, timeout)?);
        Ok(Self { conn })
    }

    /// Sends one request and reads its complete reply.
    pub fn request(
        &mut self,
        verb: &str,
        fields: &[(&str, &str)],
    ) -> Result<ServeReply, ServeError> {
        let text = ServeRequest::new(verb, fields).to_text();
        write_frame(&mut self.conn.get_ref(), FRAME_REQUEST, text.as_bytes())?;
        let mut source = FrameSource::new(&mut self.conn);
        let mut reply = Vec::new();
        source.read_to_end(&mut reply)?;
        source.finish()?;
        parse_reply(&reply, verb).map_err(ServeError::Protocol)
    }

    /// Ends the connection with a [`FRAME_BYE`] (best-effort).
    pub fn bye(self) {
        let _ = write_frame(&mut self.conn.get_ref(), FRAME_BYE, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
