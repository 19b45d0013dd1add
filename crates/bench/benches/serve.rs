//! Query-service benchmark: the pattern query daemon (`cfp_core::serve`)
//! under concurrent loopback load.
//!
//! The server mines Diag16+8 once at startup (untimed), then the measured
//! units are pure service work: framed request → generation snapshot →
//! borrow-only render from the slab → chunked reply. Two shapes are timed
//! per-request under criterion (a `topk` and a ball-query `similar`), and a
//! multi-client hammer measures aggregate throughput and tail latency —
//! the two numbers the regression gate watches:
//!
//! * `queries_per_sec` — total mixed requests served per wall-clock second
//!   across `min(4, cores)` concurrent clients; target ≥ 1000/s (loopback
//!   TCP with a CRC-checked frame layer leaves orders of magnitude of
//!   headroom — the gate catches a serialized read path or a per-request
//!   slab copy, not noise).
//! * `p99_latency_ms` — 99th-percentile request latency across the same
//!   run; target ≤ 50 ms (readers must never block behind a lock or a
//!   build; a reader stalled by a write lock blows this immediately).
//!
//! Both gates are meaningless without real concurrency, so
//! `threads_available` is exported alongside and the regression gate
//! self-skips below 2 cores. Reply bit-identity between concurrent clients
//! and a serial client is gated before anything is timed.
//!
//! Exports `BENCH_serve.json` at the workspace root.

use cfp_core::{spawn_query_server, FusionConfig, QueryClient, ServeOptions};
use criterion::Criterion;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests each hammer client issues (3 topk : 1 similar).
const PER_CLIENT: usize = 400;

fn config() -> FusionConfig {
    FusionConfig::new(16, 8).with_seed(7)
}

fn connect(addr: SocketAddr) -> QueryClient {
    QueryClient::connect(addr, Duration::from_secs(30)).expect("connect")
}

fn bench_serve(c: &mut Criterion) {
    let (addr, _handle) = spawn_query_server(
        cfp_datagen::diag_plus(16, 8, 12),
        config(),
        ServeOptions::default(),
    )
    .expect("spawn server");

    // --- Correctness gate, before anything is timed ------------------------
    // Concurrent clients get the serial client's exact bytes.
    let mut serial = connect(addr);
    let reference = serial
        .request("topk", &[("k", "8"), ("tids", "1")])
        .unwrap();
    let want = format!("{}|{}", reference.epoch, reference.lines.join("\n"));
    let top = reference
        .patterns()
        .next()
        .expect("a top pattern")
        .to_string();
    let tids = top
        .split(' ')
        .find_map(|t| t.strip_prefix("tids="))
        .unwrap()
        .to_string();
    serial.bye();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut cl = connect(addr);
                for _ in 0..8 {
                    let r = cl.request("topk", &[("k", "8"), ("tids", "1")]).unwrap();
                    let got = format!("{}|{}", r.epoch, r.lines.join("\n"));
                    assert_eq!(got, want, "concurrent reply drifted from serial");
                }
                cl.bye();
            });
        }
    });

    // --- Per-request latency under criterion -------------------------------
    let mut group = c.benchmark_group("serve");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4));
    group.bench_function("request_topk8", |b| {
        let mut cl = connect(addr);
        b.iter(|| cl.request("topk", &[("k", "8")]).unwrap().lines.len())
    });
    group.bench_function("request_similar", |b| {
        let mut cl = connect(addr);
        b.iter(|| {
            cl.request("similar", &[("tids", &tids)])
                .unwrap()
                .lines
                .len()
        })
    });
    group.finish();

    // --- Throughput + tail latency hammer ----------------------------------
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = threads.clamp(1, 4);
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut cl = connect(addr);
                    let mut lats = Vec::with_capacity(PER_CLIENT);
                    for i in 0..PER_CLIENT {
                        let q0 = Instant::now();
                        if i % 4 == 3 {
                            cl.request("similar", &[("tids", &tids)]).unwrap();
                        } else {
                            cl.request("topk", &[("k", "8")]).unwrap();
                        }
                        lats.push(q0.elapsed().as_nanos() as u64);
                    }
                    cl.bye();
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = t0.elapsed();
    latencies.sort_unstable();
    let total = latencies.len();
    let qps = total as f64 / wall.as_secs_f64();
    let pct = |p: f64| latencies[((total as f64 * p).ceil() as usize).clamp(1, total) - 1];
    let p50_ms = pct(0.50) as f64 / 1e6;
    let p99_ms = pct(0.99) as f64 / 1e6;

    export_summary(c, threads, clients, total, qps, p50_ms, p99_ms);
}

fn min_ns(c: &Criterion, needle: &str) -> u128 {
    c.measurements
        .iter()
        .find(|m| m.id.contains(needle))
        .map(|m| m.min.as_nanos())
        .unwrap_or(0)
}

fn median_ns(c: &Criterion, needle: &str) -> u128 {
    c.measurements
        .iter()
        .find(|m| m.id.contains(needle))
        .map(|m| m.median.as_nanos())
        .unwrap_or(0)
}

/// Writes `BENCH_serve.json` at the workspace root: aggregate throughput
/// and tail latency from the hammer (what the regression gate reads), plus
/// per-request criterion times (min + median, as in the other benches on
/// this shared box) and the core count the gate's skip rule consults.
#[allow(clippy::too_many_arguments)]
fn export_summary(
    c: &Criterion,
    threads: usize,
    clients: usize,
    total: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
) {
    let json = format!(
        "{{\n  \"benchmark\": \"pattern query service: concurrent loopback clients vs one \
         generation\",\n  \
         \"threads_available\": {threads},\n  \"clients\": {clients},\n  \
         \"requests_total\": {total},\n  \"request_mix\": \"3 topk : 1 similar\",\n  \
         \"queries_per_sec\": {qps:.1},\n  \"meets_1000qps_target\": {},\n  \
         \"p50_latency_ms\": {p50_ms:.3},\n  \
         \"p99_latency_ms\": {p99_ms:.3},\n  \"meets_50ms_p99_target\": {},\n  \
         \"request_topk8_min_ns\": {},\n  \"request_topk8_median_ns\": {},\n  \
         \"request_similar_min_ns\": {},\n  \"request_similar_median_ns\": {},\n  \
         \"gate\": \"concurrent replies bit-identical to a serial client (checked before \
         timing); both gates self-skip below 2 cores\"\n}}\n",
        qps >= 1000.0,
        p99_ms <= 50.0,
        min_ns(c, "request_topk8"),
        median_ns(c, "request_topk8"),
        min_ns(c, "request_similar"),
        median_ns(c, "request_similar"),
    );
    let path = format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_serve(&mut criterion);
}
