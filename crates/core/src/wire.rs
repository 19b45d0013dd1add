//! The wire shared by `cfp shard-host` ([`crate::net`]) and `cfp serve`
//! ([`mod@crate::serve`]): CRC-checked frames ([`write_frame`], [`read_frame`],
//! chunked by [`FrameSink`] and [`FrameSource`]); one text codec
//! ([`Message`]: a `<magic> <version>` handshake line, then unique
//! `key=value` lines, every fault a typed [`WireError`]) behind the worker
//! request, the stats record, the serve request and the serve reply head;
//! one error frame ([`ErrorFrame`]); and one daemon skeleton
//! ([`accept_loop`] under [`DaemonOptions`], and [`dial`]). The byte-level
//! spec lives in [`cfp_itemset::store`]'s module docs.

use crate::net::FaultAction;
use cfp_itemset::slab_io::Crc32;
use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::str::FromStr;
use std::thread;
use std::time::Duration;

/// The version in every handshake this build speaks (before the one
/// `key=value` grammar, the worker protocol was 2 and the query protocol 3).
pub const PROTOCOL_VERSION: u32 = 4;

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
pub(crate) fn is_timeout(kind: io::ErrorKind) -> bool {
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
            Some(action @ (FaultAction::CorruptFrame | FaultAction::TruncateFrame)) => {
                let mut frame = Vec::new();
                write_frame(&mut frame, FRAME_SLAB_CHUNK, &self.buf)?;
                if action == FaultAction::CorruptFrame {
                    // One payload byte flipped under the clean payload's
                    // CRC: the receiver must detect the mismatch.
                    frame[5] ^= 0x40;
                    self.w.write_all(&frame)?;
                } else {
                    // The header promises a full payload; the stream dies
                    // halfway through it (mid-frame close on the receiver).
                    self.w.write_all(&frame[..5 + self.buf.len() / 2])?;
                    self.w.flush()?;
                    let why = "injected truncate-frame";
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, why));
                }
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
/// `TimedOut` for deadline expiry, `InvalidData` for corruption, and an
/// error frame as an `io::Error` wrapping its [`ErrorFrame`].
pub struct FrameSource<R: Read> {
    r: R,
    buf: Vec<u8>,
    pos: usize,
    total: u64,
    heartbeats: u64,
    /// The slab-end frame's declared total, once it has arrived.
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
                    return Ok(());
                }
                Ok((FRAME_ERROR, p)) => return Err(io::Error::other(ErrorFrame::decode(&p))),
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
        while self.end_total.is_none() {
            self.next_frame()?;
            if self.end_total.is_none() && !self.buf.is_empty() {
                return Err(invalid_data("slab chunk after the image was fully read"));
            }
        }
        match self.end_total {
            Some(end) if end != self.total => Err(invalid_data(format!(
                "SlabEnd declared {end} bytes but {} were streamed",
                self.total
            ))),
            _ => Ok((self.total, self.heartbeats)),
        }
    }
}

impl<R: Read> Read for FrameSource<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            if self.end_total.is_some() {
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
// Messages
// ---------------------------------------------------------------------------

/// Why a text message failed to decode. Each way a payload can be wrong has
/// its own variant, so no reader ever falls back to a default value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload is not UTF-8.
    NotUtf8,
    /// The first line is not `<magic> <version>` (carries the line).
    Handshake(String),
    /// The peer speaks another protocol version.
    Version(u32),
    /// A field line that is not `key=value` with a non-empty key.
    Malformed(String),
    /// A required key is absent.
    Missing(String),
    /// A key appears twice.
    Repeated(String),
    /// A name this message kind does not define.
    Unknown {
        /// What kind of name: `"field"`, or `"verb"` for a serve request.
        what: &'static str,
        /// The name itself.
        name: String,
    },
    /// A value that does not parse as its field's type, or is unexpected.
    BadValue {
        /// The field.
        key: String,
        /// Its value.
        value: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotUtf8 => write!(f, "payload is not UTF-8"),
            Self::Handshake(line) => write!(f, "bad handshake '{}'", clip(line)),
            Self::Version(v) => write!(
                f,
                "protocol version {v} not supported (this build speaks {PROTOCOL_VERSION})"
            ),
            Self::Malformed(line) => {
                write!(f, "bad field line '{}' (expected key=value)", clip(line))
            }
            Self::Missing(key) => write!(f, "missing field '{key}'"),
            Self::Repeated(key) => write!(f, "repeated field '{}'", clip(key)),
            Self::Unknown { what, name } => write!(f, "unknown {what} '{}'", clip(name)),
            Self::BadValue { key, value } => {
                write!(f, "bad value '{}' for field '{key}'", clip(value))
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The first 64 characters of `s`: all an error message quotes of a peer.
fn clip(s: &str) -> &str {
    s.char_indices().nth(64).map_or(s, |(at, _)| &s[..at])
}

/// A decoded text message: its fields in wire order. A reader takes the
/// fields it defines, then [`Message::finish`] rejects whatever is left.
/// [`head`] and [`field`] write the same grammar.
#[derive(Debug)]
pub struct Message<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Message<'a> {
    /// Decodes a whole payload as one message.
    pub fn decode(payload: &'a [u8], magic: &str) -> Result<Self, WireError> {
        Self::parse_text(utf8(payload)?, magic)
    }

    /// Decodes a message head that ends at the first empty line, and
    /// returns the free-form body after it (the serve reply's shape).
    pub fn decode_head(payload: &'a [u8], magic: &str) -> Result<(Self, &'a str), WireError> {
        let text = utf8(payload)?;
        let (head, body) = text.split_once("\n\n").unwrap_or((text, ""));
        Ok((Self::parse_text(head, magic)?, body))
    }

    fn parse_text(text: &'a str, magic: &str) -> Result<Self, WireError> {
        let mut lines = text.lines();
        let handshake = lines.next().unwrap_or_default();
        let bad = || WireError::Handshake(handshake.to_string());
        let mut words = handshake.split(' ');
        if words.next() != Some(magic) {
            return Err(bad());
        }
        // The version is checked before the word count, so an older peer's
        // longer handshake still gets the typed version error.
        let version: u32 = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version(version));
        }
        if words.next().is_some() {
            return Err(bad());
        }
        let mut seen = HashSet::new();
        let mut fields = Vec::new();
        for line in lines {
            let (key, value) = line
                .split_once('=')
                .filter(|(key, _)| !key.is_empty())
                .ok_or_else(|| WireError::Malformed(line.to_string()))?;
            if !seen.insert(key) {
                return Err(WireError::Repeated(key.to_string()));
            }
            fields.push((key, value));
        }
        Ok(Self { fields })
    }

    /// Takes an optional field's raw value.
    pub fn take(&mut self, key: &str) -> Option<&'a str> {
        let at = self.fields.iter().position(|&(k, _)| k == key)?;
        Some(self.fields.remove(at).1)
    }

    /// Takes a required field's raw value.
    pub fn require(&mut self, key: &str) -> Result<&'a str, WireError> {
        self.take(key)
            .ok_or_else(|| WireError::Missing(key.to_string()))
    }

    /// Takes and parses a required field.
    pub fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, WireError> {
        let value = self.require(key)?;
        value.parse().map_err(|_| bad_value(key, value))
    }

    /// Takes and parses an optional field.
    pub fn parse_opt<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, WireError> {
        self.take(key)
            .map(|value| value.parse().map_err(|_| bad_value(key, value)))
            .transpose()
    }

    /// Ends the read. A field left over that is not in `known` is an
    /// unknown key; the known ones left are returned in wire order.
    pub fn finish(self, known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, WireError> {
        match self.fields.iter().find(|(key, _)| !known.contains(key)) {
            Some(&(key, _)) => Err(WireError::Unknown {
                what: "field",
                name: key.to_string(),
            }),
            None => Ok(self.fields),
        }
    }
}

fn utf8(payload: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(payload).map_err(|_| WireError::NotUtf8)
}

/// The [`WireError::BadValue`] for `key`'s `value`.
pub(crate) fn bad_value(key: &str, value: &str) -> WireError {
    WireError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
    }
}

/// Starts a message's text: its handshake line.
pub fn head(magic: &str) -> String {
    format!("{magic} {PROTOCOL_VERSION}\n")
}

/// Appends one `key=value` line to a message's text.
pub fn field(text: &mut String, key: &str, value: impl fmt::Display) {
    writeln!(text, "{key}={value}").expect("writing to a String cannot fail");
}

// ---------------------------------------------------------------------------
// Error frames
// ---------------------------------------------------------------------------

/// A peer's typed failure, the `exit=<code>\n<message>` payload of a
/// [`FRAME_ERROR`] frame in both daemons. The decoder is total: a mangled
/// payload keeps its text and loses its code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The exit code, when the payload carried a readable one.
    pub exit: Option<i32>,
    /// The failure text.
    pub message: String,
}

impl ErrorFrame {
    /// Decodes an error-frame payload.
    pub fn decode(payload: &[u8]) -> Self {
        let text = String::from_utf8_lossy(payload);
        let coded = text.split_once('\n').and_then(|(head, message)| {
            Some((Some(head.strip_prefix("exit=")?.parse().ok()?), message))
        });
        let (exit, message) = coded.unwrap_or((None, &text));
        let message = message.trim_end().to_string();
        Self { exit, message }
    }

    /// Sends an error frame (best-effort: the peer may be gone).
    pub fn send(mut w: impl Write, exit: i32, message: &str) {
        let payload = format!("exit={exit}\n{message}");
        let _ = write_frame(&mut w, FRAME_ERROR, payload.as_bytes()).and_then(|()| w.flush());
    }
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer failed")?;
        if let Some(code) = self.exit {
            write!(f, " (exit {code})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for ErrorFrame {}

// ---------------------------------------------------------------------------
// The daemon skeleton
// ---------------------------------------------------------------------------

/// The settings both daemons share.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Socket deadline for every read and write.
    pub io_timeout: Duration,
    /// Serve at most this many connections, then return (tests and the CI
    /// smoke jobs; `None` = serve forever).
    pub max_conns: Option<usize>,
    /// Log per-connection failures to stderr.
    pub verbose: bool,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(60),
            max_conns: None,
            verbose: false,
        }
    }
}

impl DaemonOptions {
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
}

/// The accept loop of both daemons: each connection gets `TCP_NODELAY` and
/// its io deadlines, and `handle` serves it on its own scoped thread. It
/// stops accepting after [`DaemonOptions::max_conns`], and returns only
/// once every handler has finished, so bounded serving cannot strand a
/// half-written response. `name` prefixes the verbose log lines.
pub fn accept_loop<E: fmt::Display>(
    listener: TcpListener,
    opts: &DaemonOptions,
    name: &str,
    handle: impl Fn(&TcpStream) -> Result<(), E> + Sync,
) {
    let timeout = opts.io_timeout.max(Duration::from_millis(1));
    let log = |what: &dyn fmt::Display| {
        if opts.verbose {
            eprintln!("{name}: {what}");
        }
    };
    let (handle, log) = (&handle, &log);
    thread::scope(|scope| {
        let mut served = 0usize;
        for conn in listener.incoming() {
            let stream = match conn {
                Ok(stream) => stream,
                Err(e) => {
                    log(&format_args!("accept failed: {e}"));
                    continue;
                }
            };
            scope.spawn(move || match arm(&stream, timeout) {
                Err(e) => log(&format_args!("socket deadline: {e}")),
                Ok(()) => {
                    if let Err(e) = handle(&stream) {
                        log(&e);
                    }
                }
            });
            served += 1;
            if opts.max_conns.is_some_and(|max| served >= max) {
                break;
            }
        }
    });
}

/// Runs `serve` on an OS-assigned localhost port on a background thread.
pub(crate) fn spawn_local(
    serve: impl FnOnce(TcpListener) -> io::Result<()> + Send + 'static,
) -> io::Result<(SocketAddr, thread::JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    Ok((addr, thread::spawn(move || serve(listener))))
}

/// Dials `addr` within `timeout`, trying each resolved address in turn,
/// and arms the socket with the same deadline. A connect that runs out of
/// time fails at once with a timeout kind; otherwise the last address's
/// error is returned.
pub fn dial(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<TcpStream> {
    let timeout = timeout.max(Duration::from_millis(1));
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved");
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(stream) => return arm(&stream, timeout).map(|()| stream),
            Err(e) if is_timeout(e.kind()) => return Err(e),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Sets `TCP_NODELAY` and `timeout` as the read and write deadline.
fn arm(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FusionConfig;
    use crate::net::{parse_stats_record, stats_record, NetRequest};
    use crate::serve::{parse_reply, reply_text, ServeRequest};
    use crate::shard::Sharding;
    use crate::stats::ShardStats;
    use proptest::prelude::*;

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
    fn source_rejects_a_lying_slab_end_and_types_an_error_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_SLAB_CHUNK, b"abcdef").unwrap();
        write_frame(&mut wire, FRAME_SLAB_END, &99u64.to_le_bytes()).unwrap();
        let mut source = FrameSource::new(&wire[..]);
        let mut got = Vec::new();
        source.read_to_end(&mut got).unwrap();
        let err = source.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("SlabEnd declared"));

        let mut wire = Vec::new();
        ErrorFrame::send(&mut wire, 3, "no such verb");
        let err = FrameSource::new(&wire[..])
            .read_to_end(&mut Vec::new())
            .unwrap_err();
        let frame = err.downcast::<ErrorFrame>().expect("a typed error frame");
        assert_eq!(frame.exit, Some(3));
        assert_eq!(frame.message, "no such verb");
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

    /// Rewrites a message's text line by line; the reply body after the
    /// empty line rides along untouched.
    fn edit(text: &str, f: impl FnOnce(&mut Vec<String>)) -> Vec<u8> {
        let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        f(&mut lines);
        lines.join("\n").into_bytes()
    }

    /// Every message kind against every way its head can be wrong. Each
    /// kind is (name, a valid payload, the version its peers spoke before
    /// this one, its decoder).
    #[test]
    fn every_message_kind_rejects_bad_input_with_a_typed_error() {
        type Decode = fn(&[u8]) -> Result<(), WireError>;
        let request = NetRequest {
            shard: 1,
            shards: 2,
            attempt: 0,
            config: FusionConfig::new(5, 2),
        };
        let stats = ShardStats {
            shard: 1,
            ..Default::default()
        };
        let kinds: [(&str, String, u32, Decode); 4] = [
            ("worker request", request.to_text(), 2, |p| {
                NetRequest::parse(p).map(drop)
            }),
            ("stats record", stats_record(&stats), 2, |p| {
                parse_stats_record(p, 1).map(drop)
            }),
            (
                "serve request",
                ServeRequest::new("topk", &[("k", "5")]).to_text(),
                3,
                |p| ServeRequest::parse(p).map(drop),
            ),
            (
                "reply head",
                reply_text("topk", 7, "count=0 total=0\n"),
                3,
                |p| parse_reply(p, "topk").map(drop),
            ),
        ];
        for (name, text, old, decode) in kinds {
            assert_eq!(decode(text.as_bytes()), Ok(()), "{name}: {text}");
            let magic = text.split(' ').next().unwrap().to_string();
            let first = text.lines().nth(1).unwrap().to_string();
            let key = first.split_once('=').unwrap().0.to_string();
            let cases: Vec<(&str, Vec<u8>, WireError)> = vec![
                (
                    "missing key",
                    edit(&text, |l| drop(l.remove(1))),
                    WireError::Missing(key.clone()),
                ),
                (
                    "repeated key",
                    edit(&text, |l| l.insert(2, first.clone())),
                    WireError::Repeated(key.clone()),
                ),
                (
                    "unknown key",
                    edit(&text, |l| l.insert(1, "bogus=1".into())),
                    WireError::Unknown {
                        what: "field",
                        name: "bogus".into(),
                    },
                ),
                (
                    "bad handshake",
                    edit(&text, |l| l[0] = "cfp-bogus 4".into()),
                    WireError::Handshake("cfp-bogus 4".into()),
                ),
                (
                    "trailing handshake word",
                    edit(&text, |l| l[0].push_str(" extra")),
                    WireError::Handshake(format!("{magic} {PROTOCOL_VERSION} extra")),
                ),
                (
                    "old version",
                    edit(&text, |l| l[0] = format!("{magic} {old} shard=1")),
                    WireError::Version(old),
                ),
                (
                    "not a field line",
                    edit(&text, |l| l.insert(1, "not-a-field".into())),
                    WireError::Malformed("not-a-field".into()),
                ),
                (
                    "empty key",
                    edit(&text, |l| l.insert(1, "=5".into())),
                    WireError::Malformed("=5".into()),
                ),
                (
                    "empty payload",
                    Vec::new(),
                    WireError::Handshake(String::new()),
                ),
            ];
            for (what, bytes, want) in cases {
                assert_eq!(decode(&bytes), Err(want), "{name}: {what}");
            }
            let mut not_utf8 = text.clone().into_bytes();
            not_utf8.insert(magic.len() + 4, 0xff);
            assert_eq!(decode(&not_utf8), Err(WireError::NotUtf8), "{name}");
        }

        // Values are typed too: an unparsable number, a shard record for
        // another shard, an unknown verb, a reply to another verb.
        let bad = |p: &str| NetRequest::parse(request.to_text().replace("k=5", p).as_bytes());
        assert_eq!(bad("k=five").map(drop), Err(bad_value("k", "five")));
        assert_eq!(
            parse_stats_record(stats_record(&stats).as_bytes(), 2).map(drop),
            Err(bad_value("shard", "1"))
        );
        let zero = stats_record(&stats).replace("pool_size=0", "pool_size=zero");
        assert_eq!(
            parse_stats_record(zero.as_bytes(), 1).map(drop),
            Err(bad_value("pool_size", "zero"))
        );
        assert_eq!(
            ServeRequest::parse(ServeRequest::new("frobnicate", &[]).to_text().as_bytes())
                .map(drop),
            Err(WireError::Unknown {
                what: "verb",
                name: "frobnicate".into(),
            })
        );
        let seed = ServeRequest::new("topk", &[("seed", "1")]).to_text();
        assert!(matches!(
            ServeRequest::parse(seed.as_bytes()),
            Err(WireError::Unknown { what: "field", .. })
        ));
        let stats_reply = reply_text("stats", 7, "rows=0\n");
        assert_eq!(
            parse_reply(stats_reply.as_bytes(), "topk").map(drop),
            Err(bad_value("verb", "stats"))
        );
        let epoch = reply_text("topk", 7, "").replace("epoch=7", "epoch=x");
        assert_eq!(
            parse_reply(epoch.as_bytes(), "topk").map(drop),
            Err(bad_value("epoch", "x"))
        );
        // Each old-version message is quoted back with this build's own.
        let err = NetRequest::parse(b"cfp-net 2 shard=0 shards=1 attempt=0\n--k\n3").unwrap_err();
        assert!(err.to_string().contains("version 2 not supported"), "{err}");
    }

    #[test]
    fn error_frames_decode_every_payload_to_a_typed_error() {
        let decoded = |p: &[u8]| {
            let f = ErrorFrame::decode(p);
            (f.exit, f.message)
        };
        let msg = |s: &str| s.to_string();
        let mut wire = Vec::new();
        ErrorFrame::send(&mut wire, 3, "bad request: x");
        let (kind, payload) = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(kind, FRAME_ERROR);
        assert_eq!(
            payload, b"exit=3\nbad request: x",
            "the payload is unchanged"
        );
        assert_eq!(decoded(&payload), (Some(3), msg("bad request: x")));
        // A payload without a readable code keeps its whole text.
        for text in [
            "bad request: x",
            "code=3\nx",
            "exit=three\nx",
            "garbage",
            "",
        ] {
            assert_eq!(decoded(text.as_bytes()), (None, msg(text)), "{text:?}");
        }
        assert_eq!(decoded(b"exit=3\nexit=2\nx\n"), (Some(3), msg("exit=2\nx")));
        assert_eq!(
            decoded(b"exit=2\nslab \xff"),
            (Some(2), msg("slab \u{fffd}"))
        );
    }

    #[test]
    fn stats_records_round_trip() {
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
        assert!(record.starts_with(&format!("cfp-stats {PROTOCOL_VERSION}\nshard=2\n")));
        assert_eq!(parse_stats_record(record.as_bytes(), 2), Ok(stats));
    }

    #[test]
    fn serve_requests_and_replies_round_trip() {
        let req = ServeRequest::new("topk", &[("k", "5"), ("session", "alice")]);
        let parsed = ServeRequest::parse(req.to_text().as_bytes()).unwrap();
        assert_eq!(parsed.verb, "topk");
        assert_eq!(parsed.get("k"), Some("5"));
        assert_eq!(parsed.get("session"), Some("alice"));
        assert_eq!(parsed.to_text(), req.to_text());
        let reply = parse_reply(
            reply_text("topk", 4, "count=0 total=0\n").as_bytes(),
            "topk",
        );
        let reply = reply.unwrap();
        assert_eq!(
            (reply.epoch, reply.lines),
            (4, vec!["count=0 total=0".to_string()])
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every shipped config field survives the worker request, `tau`
        /// bit for bit and both optional fields present and absent.
        #[test]
        fn worker_requests_round_trip_every_shipped_field(
            ids in (any::<usize>(), any::<usize>(), any::<usize>()),
            sizes in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
            more in (any::<usize>(), any::<usize>(), any::<usize>(), any::<u64>(), any::<u64>()),
            optional in (any::<bool>(), any::<usize>(), any::<bool>(), any::<usize>()),
            flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        ) {
            let (k, min_count, pool_max_len, attempts_per_seed, max_results_per_seed) = sizes;
            let (max_iterations, max_ball_size, ball_pivots, seed, tau_bits) = more;
            let (has_cap, cap, has_threads, threads) = optional;
            let (closure_step, archive, parallel) = flags;
            let config = FusionConfig {
                k,
                min_count,
                // Any finite f64: the top exponent bit cleared.
                tau: f64::from_bits(tau_bits & !(1 << 62)),
                pool_max_len,
                attempts_per_seed,
                max_results_per_seed,
                max_iterations,
                max_ball_size,
                closure_step,
                archive_cap: has_cap.then_some(cap),
                archive,
                parallel,
                threads: has_threads.then_some(threads),
                ball_pivots,
                sharding: Sharding::single(),
                seed,
            };
            let req = NetRequest { shard: ids.0, shards: ids.1, attempt: ids.2, config };
            let back = NetRequest::parse(req.to_text().as_bytes()).expect("round trip");
            prop_assert_eq!((back.shard, back.shards, back.attempt), ids);
            prop_assert_eq!(back.config.tau.to_bits(), req.config.tau.to_bits());
            prop_assert_eq!(back.config, req.config);
        }
    }
}
