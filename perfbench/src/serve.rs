//! The `serve` workload: a daemon over Replace, with open-loop reads beside
//! back-to-back appends.
//!
//! The daemon is a fresh child process (`perfbench daemon`) running the
//! library's serve front door, `serve_queries`, with every config field
//! pinned — its builder on one thread, so the readers keep the other core.
//! One connection reads in an open loop at [`READ_RATE`] requests/s, equal
//! shares of `topk k=10`, `lookup`, `contain` and `similar`; a second
//! connection appends the held-out rows back to back with `wait=1`. The
//! builder is busy for the whole window, which steadies read latency.

use crate::batch::{set_times, zero_unmeasured, PassTime};
use crate::oracle::{self, ReplyPattern};
use crate::report::{
    clock_ghz, fingerprint, median, net_cpu_s, percentile, process_cpu_s, thread_ids, vm_hwm_kib,
    Ledger, Outcome,
};
use crate::trace::Tracer;
use crate::workload::{self, Scale, Workload};
use crate::RunOpts;
use cfp_core::ball::BallIndex;
use cfp_core::pool::{rank_rows, PoolStore};
use cfp_core::{
    ball_radius, serve_queries, DeltaEngine, FusionConfig, QueryClient, ServeOptions, ServeReply,
    Source,
};
use cfp_itemset::{DbDelta, TransactionDb, VerticalIndex};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Daemon launches per untraced run for `setup_s`; the last one serves the
/// measured window.
pub const SETUP_LAUNCHES: usize = 3;

/// Open-loop read rate, requests per second.
pub const READ_RATE: f64 = 2000.0;

/// Appends after the first whose times the metrics take — a fixed amount
/// of work, however many more fit in `--seconds`. Peak memory is read after
/// the first of them: the launch, the builder's lazy base re-mine and one
/// steady append, well before the ~15 MiB step the peak takes around the
/// sixth append.
const TIMED_APPENDS: usize = 5;

/// Socket deadline of the read connection: a read slower than this fails.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket deadline of the append connection.
const APPEND_TIMEOUT: Duration = Duration::from_secs(120);

/// Read variants per verb, drawn from the launch epoch's result.
const VARIANTS: usize = 8;

/// The read verbs, in mix order.
const VERBS: [&str; 4] = ["topk", "lookup", "contain", "similar"];

/// A running daemon child. Dropping it kills the process and waits.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    launched: Instant,
}

impl Daemon {
    /// Launches `perfbench daemon` over the input file and waits for its
    /// `listening` line.
    fn launch(opts: &RunOpts, fimi: &Path) -> Result<Self, String> {
        let launched = Instant::now();
        let mut child = Command::new(crate::self_exe()?)
            .arg("daemon")
            .args(["--seed", &opts.seed.to_string()])
            .args(["--scale", opts.scale.name()])
            .arg("--fimi")
            .arg(fimi)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launching the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            launched,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("the daemon did not announce an address: '{}'", line.trim()))?;
        Ok(daemon)
    }

    /// Connects and waits for the first answered read; returns the wall
    /// time from launch to that answer, the CPU time the daemon spent by
    /// then (every thread, exited ones included), and the connection.
    fn first_read(&self) -> Result<(PassTime, QueryClient), String> {
        let mut client = QueryClient::connect(self.addr, APPEND_TIMEOUT)
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        client
            .request("topk", &[("k", "10")])
            .map_err(|e| format!("first read: {e}"))?;
        let wall = self.launched.elapsed().as_secs_f64();
        let cpu = process_cpu_s(self.child.id()).ok_or("the daemon exited")?;
        Ok((PassTime { wall, cpu }, client))
    }

    /// Opens a connection once the daemon is idle, and returns it with the
    /// id of the daemon thread that handles it: the one thread that
    /// appeared by the time a first read on it was answered.
    fn connect_handler(&self, timeout: Duration) -> Result<(QueryClient, u32), String> {
        let pid = self.child.id();
        let before = thread_ids(pid);
        let mut client = QueryClient::connect(self.addr, timeout)
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        client
            .request("topk", &[("k", "1")])
            .map_err(|e| format!("first read on a new connection: {e}"))?;
        let new: Vec<u32> = thread_ids(pid).difference(&before).copied().collect();
        match new[..] {
            [tid] => Ok((client, tid)),
            _ => Err(format!(
                "expected one new daemon thread for a connection, found {}",
                new.len()
            )),
        }
    }

    /// Closes the daemon's stdin (it exits on EOF) and waits for it.
    fn stop(mut self) {
        self.stdin = None;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills what did not exit.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `perfbench daemon` child: serves the input file until its stdin
/// closes.
pub fn daemon_main(scale: Scale, seed: u64, fimi: &Path) -> Result<(), String> {
    let cfg = workload::config(Workload::Serve, scale, seed);
    let db =
        cfp_itemset::read_fimi(fimi).map_err(|e| format!("reading {}: {e}", fimi.display()))?;
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("binding: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    let opts = ServeOptions::default().with_io_timeout(APPEND_TIMEOUT);
    serve_queries(listener, &db, cfg, &opts).map_err(|e| format!("serve: {e}"))
}

/// The read requests of one run, drawn from the launch epoch's result.
struct Reads {
    lookup: Vec<String>,
    contain: Vec<String>,
    similar: Vec<String>,
}

fn join<T: ToString>(v: &[T]) -> String {
    v.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

impl Reads {
    fn from_result(result: &[ReplyPattern]) -> Self {
        let picks: Vec<&ReplyPattern> = result.iter().take(VARIANTS).collect();
        Self {
            lookup: picks.iter().map(|p| join(&p.items)).collect(),
            contain: picks
                .iter()
                .map(|p| join(&p.items[..p.items.len().min(2)]))
                .collect(),
            similar: picks.iter().map(|p| join(&p.tids)).collect(),
        }
    }

    /// The `i`-th request of the mix.
    fn request(&self, i: usize) -> (&'static str, Vec<(&'static str, &str)>) {
        let verb = VERBS[i % VERBS.len()];
        let v = (i / VERBS.len()) % self.lookup.len().max(1);
        let fields = match verb {
            "topk" => vec![("k", "10")],
            "lookup" => vec![("items", self.lookup[v].as_str())],
            "contain" => vec![("items", self.contain[v].as_str())],
            _ => vec![("tids", self.similar[v].as_str())],
        };
        (verb, fields)
    }
}

/// Structural checks of one read reply (exact answers change with every
/// epoch; the final epoch is checked exactly).
fn check_read(
    verb: &str,
    fields: &[(&str, &str)],
    reply: &ServeReply,
    min_count: usize,
) -> Result<Vec<ReplyPattern>, String> {
    let patterns: Vec<ReplyPattern> = reply
        .patterns()
        .map(oracle::parse_pattern_line)
        .collect::<Result<_, _>>()?;
    let count: Option<usize> = reply.field("count").and_then(|c| c.parse().ok());
    let query: Vec<u32> = fields
        .first()
        .filter(|(k, _)| *k == "items")
        .map(|(_, v)| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    let ok = match verb {
        "topk" => {
            count == Some(patterns.len())
                && patterns.len() <= 10
                && patterns.iter().all(|p| p.support >= min_count)
                && patterns
                    .windows(2)
                    .all(|w| (w[0].items.len(), w[0].support) >= (w[1].items.len(), w[1].support))
        }
        "lookup" => match reply.field("found") {
            Some("0") => patterns.is_empty(),
            Some("1") => patterns.len() == 1 && patterns[0].items == query,
            _ => false,
        },
        "contain" => {
            count == Some(patterns.len())
                && patterns
                    .iter()
                    .all(|p| query.iter().all(|q| p.items.contains(q)))
        }
        _ => count == Some(patterns.len()),
    };
    if ok {
        Ok(patterns)
    } else {
        Err(format!("{verb}: malformed or inconsistent reply"))
    }
}

/// One timed read.
struct ReadSample {
    verb: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
}

/// What the read connection saw.
#[derive(Default)]
struct ReadLog {
    samples: Vec<ReadSample>,
    ledger: Ledger,
    /// The first `topk k=10` answer of each epoch (traced runs check them
    /// against the replay).
    topk_by_epoch: BTreeMap<u64, Vec<ReplyPattern>>,
}

/// The open-loop reader: request `i` is due at `start + i / READ_RATE`,
/// sent when due (or as soon as the previous reply arrives, if late), and
/// timed from its due time.
fn read_loop(
    client: &mut QueryClient,
    reads: &Reads,
    min_count: usize,
    stop: &AtomicBool,
) -> ReadLog {
    let mut log = ReadLog::default();
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let start = Instant::now();
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let (verb, fields) = reads.request(i);
        let sent = Instant::now();
        let reply = client.request(verb, &fields);
        let done = Instant::now();
        let outcome = reply.map_err(|e| format!("{verb}: {e}")).and_then(|r| {
            let patterns = check_read(verb, &fields, &r, min_count)?;
            if verb == "topk" {
                log.topk_by_epoch.entry(r.epoch).or_insert(patterns);
            }
            Ok(())
        });
        let failed = outcome.is_err();
        log.ledger.record(outcome);
        log.samples.push(ReadSample {
            verb: i % VERBS.len(),
            due,
            sent,
            done,
        });
        if failed && log.ledger.failed > 100 {
            break; // the connection is gone; the run is already failed
        }
        i += 1;
    }
    log
}

/// One timed append.
struct AppendSample {
    sent: Instant,
    done: Instant,
    epoch: u64,
    /// CPU seconds the daemon spent outside the read and append
    /// connections' handler threads during the append: the builder's work,
    /// on whichever threads ran it.
    builder_cpu: f64,
    /// The core clock in GHz, sampled just before the append was sent,
    /// while the builder was idle.
    clock_ghz: f64,
    /// The daemon's `VmHWM` right after the append, KiB.
    hwm_kib: u64,
}

impl AppendSample {
    fn time(&self) -> PassTime {
        PassTime {
            wall: (self.done - self.sent).as_secs_f64(),
            cpu: self.builder_cpu,
        }
    }
}

/// The append connection: batches back to back with `wait=1` until the
/// window after the first append has lasted `seconds` (and at least
/// [`TIMED_APPENDS`] followed it), or the batches run out. `handlers` are
/// the daemon threads serving the two connections, whose CPU time is left
/// out of each append's.
fn append_loop(
    client: &mut QueryClient,
    daemon_pid: u32,
    handlers: &[u32],
    batches: &[Vec<Vec<u32>>],
    seconds: Duration,
    ledger: &mut Ledger,
) -> Vec<AppendSample> {
    let mut samples: Vec<AppendSample> = Vec::new();
    let mut window: Option<Instant> = None;
    for batch in batches {
        let txns = batch.iter().map(|t| join(t)).collect::<Vec<_>>().join(";");
        let clock_ghz = clock_ghz();
        let cpu0 = net_cpu_s(daemon_pid, handlers);
        let sent = Instant::now();
        let reply = client.request("append", &[("txns", &txns), ("wait", "1")]);
        let done = Instant::now();
        let cpu = cpu0.zip(net_cpu_s(daemon_pid, handlers));
        let prev = samples.last().map_or(0, |s| s.epoch);
        let outcome = reply.map_err(|e| format!("append: {e}")).and_then(|r| {
            let appended = r.field("appended").and_then(|v| v.parse::<usize>().ok());
            if appended != Some(batch.len()) || r.field("waited") != Some("1") || r.epoch <= prev {
                return Err("append: reply does not acknowledge the batch".to_string());
            }
            let (c0, c1) = cpu.ok_or("append: the daemon's CPU time could not be read")?;
            Ok((r.epoch, c1 - c0))
        });
        match outcome {
            Ok((epoch, builder_cpu)) => {
                ledger.record(Ok(()));
                samples.push(AppendSample {
                    sent,
                    done,
                    epoch,
                    builder_cpu,
                    clock_ghz,
                    hwm_kib: vm_hwm_kib(&daemon_pid.to_string()).unwrap_or(0),
                });
            }
            Err(e) => {
                ledger.record(Err(e));
                break;
            }
        }
        let start = *window.get_or_insert(done);
        if samples.len() > TIMED_APPENDS && start.elapsed() >= seconds {
            break;
        }
    }
    samples
}

/// The appends the metrics time: the [`TIMED_APPENDS`] after the first.
fn timed_appends(appends: &[AppendSample]) -> &[AppendSample] {
    &appends[1.min(appends.len())..(1 + TIMED_APPENDS).min(appends.len())]
}

/// `topk` over the whole current result, tids included.
fn full_result(client: &mut QueryClient) -> Result<(u64, Vec<ReplyPattern>), String> {
    let reply = client
        .request("topk", &[("k", "100000"), ("tids", "1")])
        .map_err(|e| format!("full topk: {e}"))?;
    let patterns = reply
        .patterns()
        .map(oracle::parse_pattern_line)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((reply.epoch, patterns))
}

/// The launch database, and the grown one after `applied` batches — the
/// daemon's databases, rebuilt the same way (same parse, same appends).
fn databases(
    fimi: &[u8],
    batches: &[Vec<Vec<u32>>],
    applied: usize,
) -> Result<(TransactionDb, TransactionDb), String> {
    let base = crate::parse(fimi)?;
    let mut grown = base.clone();
    for batch in &batches[..applied] {
        grown.append_delta(&DbDelta::from_transactions(batch.clone()));
    }
    Ok((base, grown))
}

/// Everything one measured daemon window produced.
struct Window {
    reads: ReadLog,
    appends: Vec<AppendSample>,
    final_epoch: u64,
    final_result: Vec<ReplyPattern>,
}

/// Runs the measured window on `daemon` over two fresh connections, then
/// fetches the final result on `admin` and stops the daemon.
fn window(
    daemon: Daemon,
    mut admin: QueryClient,
    reads: &Reads,
    batches: &[Vec<Vec<u32>>],
    seconds: Duration,
    min_count: usize,
    ledger: &mut Ledger,
) -> Result<Window, String> {
    let (mut reader, read_tid) = daemon.connect_handler(READ_TIMEOUT)?;
    let (mut writer, write_tid) = daemon.connect_handler(APPEND_TIMEOUT)?;
    let stop = AtomicBool::new(false);
    let (mut log, appends) = std::thread::scope(|s| {
        let r = s.spawn(|| read_loop(&mut reader, reads, min_count, &stop));
        let mut append_ledger = Ledger::default();
        let appends = append_loop(
            &mut writer,
            daemon.child.id(),
            &[read_tid, write_tid],
            batches,
            seconds,
            &mut append_ledger,
        );
        stop.store(true, Ordering::Release);
        let mut log = r.join().expect("the read loop does not panic");
        log.ledger.absorb(append_ledger);
        (log, appends)
    });
    ledger.absorb(std::mem::take(&mut log.ledger));
    let fetched = full_result(&mut admin);
    for client in [admin, reader, writer] {
        client.bye();
    }
    daemon.stop();
    let (final_epoch, final_result) = fetched?;
    Ok(Window {
        reads: log,
        appends,
        final_epoch,
        final_result,
    })
}

/// Checks the final served result against a cold `Engine::mine` of the
/// grown database; returns the recall of the planted profiles in it.
fn final_check(
    input: &workload::Input,
    cfg: &FusionConfig,
    w: &Window,
    ledger: &mut Ledger,
) -> Result<f64, String> {
    let applied = w.appends.len();
    let (_, grown) = databases(&input.fimi, &input.batches, applied)?;
    // The oracle mines on both cores; results do not depend on threads.
    let mut cold_cfg = cfg.clone();
    cold_cfg.threads = Some(2);
    let cold = cold_cfg
        .engine(&grown)
        .mine(Source::Transactions)
        .map_err(|e| format!("oracle mine: {e}"))?;
    let vindex = VerticalIndex::new(&grown);
    let want = oracle::canon(&grown, &cold.patterns);
    let served = oracle::canon_reply(&grown, &w.final_result);
    let check = oracle::verify(&vindex, &cold.patterns, cfg.min_count)
        .and_then(|()| served.clone())
        .and_then(|got| {
            if w.final_epoch != applied as u64 {
                Err(format!(
                    "final epoch {} after {applied} appends",
                    w.final_epoch
                ))
            } else if got != want {
                Err("final served result differs from a cold mine of the grown database".into())
            } else {
                Ok(())
            }
        });
    ledger.record(check);
    Ok(oracle::recall(&input.planted, &served.unwrap_or_default()))
}

/// Checks the launch epoch's full result: exact support sets, and the
/// pinned digest when the seed is pinned. Returns the read mix built
/// from it.
fn check_launch(
    client: &mut QueryClient,
    base: &TransactionDb,
    pin: Option<workload::Pin>,
    min_count: usize,
    ledger: &mut Ledger,
) -> Result<Reads, String> {
    let (epoch, result) = full_result(client)?;
    let vindex = VerticalIndex::new(base);
    let check = oracle::verify_reply(&vindex, &result, min_count)
        .and_then(|()| oracle::canon_reply(base, &result))
        .and_then(|c| match pin {
            Some(pin) if pin.result != oracle::digest(&c) => Err(format!(
                "launch result digest {:016x} differs from the pinned {:016x}",
                oracle::digest(&c),
                pin.result
            )),
            _ if epoch != 0 => Err(format!("launch answered from epoch {epoch}")),
            _ => Ok(()),
        });
    ledger.record(check);
    if result.is_empty() {
        return Err("the launch result is empty".into());
    }
    Ok(Reads::from_result(&result))
}

/// The untraced `serve` run: the end-to-end metrics.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(fingerprint());
    let w = Workload::Serve;
    let input = workload::generate(w, opts.scale, opts.seed);
    let cfg = workload::config(w, opts.scale, opts.seed);
    let pin = crate::batch::pinned(w, opts, &input)?;
    let fimi_path = opts.work_dir.join("serve.dat");
    std::fs::write(&fimi_path, &input.fimi).map_err(|e| format!("writing the input: {e}"))?;
    let (base, _) = databases(&input.fimi, &input.batches, 0)?;

    let mut setup = Vec::new();
    let mut main = None;
    for launch in 0..SETUP_LAUNCHES {
        let daemon = Daemon::launch(opts, &fimi_path)?;
        let first = daemon.first_read();
        if out
            .ledger
            .record(first.as_ref().map(|_| ()).map_err(Clone::clone))
        {
            let (time, client) = first.expect("checked above");
            setup.push(time);
            if launch + 1 == SETUP_LAUNCHES {
                main = Some((daemon, client));
                continue;
            }
        }
        daemon.stop();
    }
    let (daemon, mut reader) = main.ok_or("the measured daemon did not answer")?;
    let reads = check_launch(&mut reader, &base, pin, cfg.min_count, &mut out.ledger)?;
    let win = window(
        daemon,
        reader,
        &reads,
        &input.batches,
        opts.seconds,
        cfg.min_count,
        &mut out.ledger,
    )?;
    let recall = final_check(&input, &cfg, &win, &mut out.ledger)?;

    let appends: Vec<PassTime> = timed_appends(&win.appends)
        .iter()
        .map(AppendSample::time)
        .collect();
    let read_ms: Vec<f64> = win
        .reads
        .samples
        .iter()
        .map(|r| (r.done - r.due).as_secs_f64() * 1e3)
        .collect();
    let hwm_mib: Vec<String> = win
        .appends
        .iter()
        .map(|a| format!("{:.1}", a.hwm_kib as f64 / 1024.0))
        .collect();
    let builder_cpu: Vec<String> = win
        .appends
        .iter()
        .map(|a| format!("{:.3}", a.builder_cpu))
        .collect();
    out.notes.push(format!(
        "serve: {} appends ({} timed), {} reads, read p50 {:.3} ms p99 {:.3} ms, first append {:.3} s, \
         builder CPU per append {} s, VmHWM after each append {} MiB",
        win.appends.len(),
        appends.len(),
        read_ms.len(),
        percentile(&read_ms, 50.0),
        percentile(&read_ms, 99.0),
        win.appends.first().map_or(0.0, |a| (a.done - a.sent).as_secs_f64()),
        builder_cpu.join(" "),
        hwm_mib.join(" "),
    ));
    let clock: Vec<f64> = win.appends.iter().map(|a| a.clock_ghz).collect();
    set_times(&mut out, &appends, &clock, &setup);
    out.set(
        "peak_rss_mib",
        timed_appends(&win.appends)
            .first()
            .map_or(0.0, |a| a.hwm_kib as f64 / 1024.0),
    );
    out.set("colossal_recall", recall);
    Ok(out)
}

/// The traced `serve` run: request spans on both connections, then an
/// in-process replay of the same appends through `DeltaEngine::append`
/// and the generation build.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(fingerprint());
    let w = Workload::Serve;
    let input = workload::generate(w, opts.scale, opts.seed);
    let cfg = workload::config(w, opts.scale, opts.seed);
    let pin = crate::batch::pinned(w, opts, &input)?;
    let fimi_path = opts.work_dir.join("serve.dat");
    std::fs::write(&fimi_path, &input.fimi).map_err(|e| format!("writing the input: {e}"))?;
    let (base, _) = databases(&input.fimi, &input.batches, 0)?;

    let daemon = Daemon::launch(opts, &fimi_path)?;
    let (_, mut reader) = daemon.first_read()?;
    out.ledger.record(Ok(()));
    let reads = check_launch(&mut reader, &base, pin, cfg.min_count, &mut out.ledger)?;
    let win = window(
        daemon,
        reader,
        &reads,
        &input.batches,
        opts.seconds,
        cfg.min_count,
        &mut out.ledger,
    )?;
    final_check(&input, &cfg, &win, &mut out.ledger)?;

    // Request spans, per verb, from their send times (service time) and
    // from their due times (what an open-loop user sees).
    let mut requests = Tracer::new();
    for r in &win.reads.samples {
        requests.record(
            [
                "serve.topk",
                "serve.lookup",
                "serve.contain",
                "serve.similar",
            ][r.verb],
            r.sent,
            r.done,
        );
    }
    for a in &win.appends {
        requests.record("serve.append", a.sent, a.done);
    }
    for (i, verb) in VERBS.iter().enumerate() {
        let ms: Vec<f64> = win
            .reads
            .samples
            .iter()
            .filter(|r| r.verb == i)
            .map(|r| (r.done - r.sent).as_secs_f64() * 1e3)
            .collect();
        let name = match *verb {
            "topk" => "serve.topk_p50_ms",
            "lookup" => "serve.lookup_p50_ms",
            "contain" => "serve.contain_p50_ms",
            _ => "serve.similar_p50_ms",
        };
        out.set(name, median(&ms));
    }
    let read_ms: Vec<f64> = win
        .reads
        .samples
        .iter()
        .map(|r| (r.done - r.due).as_secs_f64() * 1e3)
        .collect();
    let late_ms: Vec<f64> = win
        .reads
        .samples
        .iter()
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    out.set("serve.read_p50_ms", percentile(&read_ms, 50.0));
    out.set("serve.read_p99_ms", percentile(&read_ms, 99.0));
    out.set("serve.late_p99_ms", percentile(&late_ms, 99.0));
    out.set(
        "serve.first_append_s",
        win.appends
            .first()
            .map_or(0.0, |a| (a.done - a.sent).as_secs_f64()),
    );
    let later: Vec<f64> = timed_appends(&win.appends)
        .iter()
        .map(|a| a.time().wall)
        .collect();
    out.set("engine.mine_s", median(&later));

    // The launch database's layers, as the daemon's first mine meets them.
    let mut t = Tracer::with_origin(requests.origin());
    t.span("serve.base", |t| -> Result<(), String> {
        let db = t.span("io.parse", |_| crate::parse(&input.fimi))?;
        t.span("vertical.build", |_| VerticalIndex::new(&db));
        let (slab, _) = t.span("initial_pool.mine", |_| {
            cfp_miners::initial_pool_slab(&db, cfg.min_count, cfg.pool_max_len, 1)
        });
        let store = PoolStore::new(slab);
        let rows: Vec<u32> = (0..store.base_len() as u32).collect();
        t.span("ball.build", |_| {
            BallIndex::build_with_threads(&store, &rows, ball_radius(cfg.tau), cfg.ball_pivots, 1)
        });
        out.set("initial_pool.rows", rows.len() as f64);
        out.set(
            "initial_pool.tid_mib",
            store.tid_bytes() as f64 / (1u64 << 20) as f64,
        );
        Ok(())
    })?;
    for (metric, span) in [
        ("io.parse_s", "io.parse"),
        ("vertical.build_s", "vertical.build"),
        ("initial_pool.mine_s", "initial_pool.mine"),
        ("ball.build_s", "ball.build"),
    ] {
        out.set(metric, t.total(span));
    }

    // The replay: the daemon's builder work on the same batches, one span
    // per append and per generation build; each result must match what
    // the daemon served for that epoch.
    let applied = win.appends.len();
    let mut engine = DeltaEngine::new(base.clone(), cfg.clone());
    let mut append_stats = Vec::new();
    t.span("delta.replay", |t| {
        for (k, batch) in input.batches[..applied].iter().enumerate() {
            let delta = DbDelta::from_transactions(batch.clone());
            let result = t.span("delta.append", |_| engine.append(&delta));
            append_stats.push(engine.last_append().clone());
            t.span("serve.generation_build", |_| {
                let store = PoolStore::from_patterns(&result.patterns);
                let mut rows: Vec<u32> = (0..store.len_rows() as u32).collect();
                rank_rows(&store, &mut rows);
                BallIndex::build(&store, &rows, ball_radius(cfg.tau), cfg.ball_pivots)
            });
            let epoch = k as u64 + 1;
            if let Some(served) = win.reads.topk_by_epoch.get(&epoch) {
                let want: Vec<(Vec<u32>, usize)> = result
                    .patterns
                    .iter()
                    .take(10)
                    .map(|p| (p.items.items().to_vec(), p.support()))
                    .collect();
                let got: Vec<(Vec<u32>, usize)> = served
                    .iter()
                    .map(|p| (p.items.clone(), p.support))
                    .collect();
                out.ledger.record(if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "epoch {epoch}: served topk differs from the replayed append"
                    ))
                });
            }
        }
    });
    let spans = |name: &str| -> Vec<f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect()
    };
    let appends = spans("delta.append");
    out.set("delta.append_s", median(&appends[1.min(appends.len())..]));
    out.set(
        "serve.generation_build_s",
        median(&spans("serve.generation_build")),
    );
    let later = &append_stats[1.min(append_stats.len())..];
    let med = |f: &dyn Fn(&cfp_core::AppendStats) -> f64| {
        median(&later.iter().map(f).collect::<Vec<_>>())
    };
    out.set("delta.dirty_items", med(&|s| s.dirty_items as f64));
    out.set(
        "delta.subtrees_remined",
        med(&|s| s.subtrees_remined as f64),
    );
    out.set("delta.rows_spliced", med(&|s| s.rows_spliced as f64));
    out.set(
        "delta.index_carried",
        med(&|s| f64::from(u8::from(s.index_carried))),
    );

    let root = t
        .root("delta.replay")
        .expect("the replay span was recorded");
    let (total, unattributed) = t.reconcile(root);
    out.set("trace.total_s", total);
    out.set("trace.unattributed_ratio", unattributed);
    if unattributed > 0.05 {
        out.problems.push(format!(
            "replay: {:.1}% unattributed (limit 5%)",
            unattributed * 100.0
        ));
    }
    // No untraced twin exists for a daemon window; the overhead is the
    // recorder's own measured cost over the spans this run recorded.
    let per_span = recorder_cost();
    let spans_recorded = (requests.spans().len() + t.spans().len()) as f64;
    let traced = win
        .appends
        .last()
        .map_or(0.0, |a| (a.done - win.appends[0].sent).as_secs_f64())
        + total;
    let overhead = if traced > 0.0 {
        per_span * spans_recorded / traced
    } else {
        0.0
    };
    out.set("trace.overhead_ratio", overhead);
    out.notes.push(format!(
        "trace: {spans_recorded} spans at {:.0} ns each, overhead {:.3}%{}",
        per_span * 1e9,
        overhead * 100.0,
        if overhead > 0.05 {
            " (FLAG: above 5%)"
        } else {
            ""
        }
    ));
    let path = opts
        .trace_dir
        .join(format!("serve-seed{}.jsonl", opts.seed));
    let mut all = requests.to_jsonl();
    all.push_str(&t.to_jsonl());
    if std::fs::write(&path, all).is_ok() {
        out.notes.push(format!("spans: {}", path.display()));
    }
    zero_unmeasured(&mut out);
    Ok(out)
}

/// Seconds one recorded span costs (two clock reads and a push).
fn recorder_cost() -> f64 {
    let mut t = Tracer::new();
    let n = 100_000;
    let t0 = Instant::now();
    for _ in 0..n {
        let a = Instant::now();
        t.record("calibrate", a, Instant::now());
    }
    t0.elapsed().as_secs_f64() / n as f64
}
