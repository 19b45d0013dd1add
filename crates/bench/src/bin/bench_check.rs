//! Benchmark-regression gate: parses the `BENCH_*.json` summaries the
//! criterion benches export at the workspace root and fails (exit 1) when a
//! speedup drops below its documented target.
//!
//! Targets (documented in ROADMAP.md):
//!
//! | file                  | field                 | target  |
//! |-----------------------|-----------------------|---------|
//! | `BENCH_ball.json`     | `speedup`             | ≥ 4.5×  |
//! | `BENCH_kernels.json`  | `batched_hot_speedup` | ≥ 2×    |
//! | `BENCH_shard.json`    | `speedup_k4`          | ≥ 1.3×  |
//! | `BENCH_pool.json`     | `mine_speedup`        | ≥ 2×    |
//! | `BENCH_delta.json`    | `delta_speedup`       | ≥ 5×    |
//! | `BENCH_oocore.json`   | `overhead_vs_inmemory`| ≤ 2×    |
//! | `BENCH_procshard.json`| `overhead_vs_inthread`| ≤ 2.5×  |
//! | `BENCH_netshard.json` | `overhead_vs_inthread`| ≤ 3×    |
//! | `BENCH_serve.json`    | `queries_per_sec`     | ≥ 1000  |
//! | `BENCH_serve.json`    | `p99_latency_ms`      | ≤ 50 ms |
//!
//! A 10% measurement-noise allowance is applied (a ≥-gate trips below
//! 0.9 × target, a ≤-gate above target / 0.9): these are *regression* gates
//! for shared CI boxes, not benchmark attestations — a real regression (a
//! lost SIMD path, a broken prune, a serialized shard pipeline, a spill
//! loop copying slabs) lands far outside the allowance, while run-to-run
//! noise on a busy runner does not. The kernels gate is skipped when the
//! box detected no SIMD backend (`best_backend == "scalar"`), where a 1.0×
//! "speedup" is the expected truth, not a regression; the pool gate
//! (parallel mine at 4 threads) is likewise skipped when the box has fewer
//! than 4 cores (`threads_available`), where the queue cannot scale by
//! definition; the procshard gate (4 worker processes) and the netshard
//! gate (a 2-host loopback fleet) are skipped on single-core boxes, where
//! fan-out buys nothing to amortize its spawn / wire-framing cost
//! against; both serve gates (concurrent clients against one daemon) are
//! skipped on single-core boxes for the same reason. The delta gate is a
//! work ratio (rows spliced vs re-mined), thread-independent — it never
//! self-skips.
//!
//! The environment fields the skip rules read (`best_backend`,
//! `threads_available`) describe the box that **generated** the checked-in
//! summary, not the box running this check — so a skip also means the
//! checked-in number was measured somewhere it is not meaningful, and the
//! skip message says so: regenerate on a capable box before trusting (or
//! quoting) the stored value.
//!
//! Besides the ratio gates, the check reads `BENCH_ball.json`'s pair
//! counters and fails unless they are consistent: the pruning layers and
//! the exact decisions partition the pairs (`pairs_total =
//! cardinality_pruned + pivot_pruned + exact_checked`), and the pairs
//! accepted by bound are exact decisions and members (`accepted_by_bound
//! ≤ exact_checked`, `accepted_by_bound ≤ ball_members`). A summary that
//! breaks them was written by a broken scan, whatever its speedup.
//!
//! Every gate is evaluated every run — missing summary files are all
//! reported together (with the `cargo bench` invocation that regenerates
//! each) instead of failing one file at a time — and a final summary table
//! prints every gate's measured value against its target, passes included,
//! so a green run still shows the margins it passed with.
//!
//! Run: `cargo run --release -p cfp-bench --bin bench_check -- --check`
//! (without `--check` it reports without failing; `--root DIR` overrides
//! the workspace root).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Fractional allowance under the documented target before the gate trips.
const NOISE_ALLOWANCE: f64 = 0.9;

/// Which side of the target is healthy.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    /// A speedup: the gate trips when the value falls below the floor.
    AtLeast,
    /// An overhead: the gate trips when the value rises above the ceiling.
    AtMost,
}

struct Gate {
    file: &'static str,
    field: &'static str,
    target: f64,
    direction: Direction,
    what: &'static str,
    /// The invocation that regenerates the summary file.
    bench: &'static str,
}

const GATES: [Gate; 10] = [
    Gate {
        file: "BENCH_ball.json",
        field: "speedup",
        target: 4.5,
        direction: Direction::AtLeast,
        what: "ball-query engine vs brute-force scan",
        bench: "cargo bench -p cfp-bench --bench ball",
    },
    Gate {
        file: "BENCH_kernels.json",
        field: "batched_hot_speedup",
        target: 2.0,
        direction: Direction::AtLeast,
        what: "SIMD kernel backend vs scalar (cache-hot gather Jaccard, jaccard_rows)",
        bench: "cargo bench -p cfp-bench --bench ball",
    },
    Gate {
        file: "BENCH_shard.json",
        field: "speedup_k4",
        target: 1.3,
        direction: Direction::AtLeast,
        what: "sharded fusion engine, K=4 vs K=1",
        bench: "cargo bench -p cfp-bench --bench shard",
    },
    Gate {
        file: "BENCH_pool.json",
        field: "mine_speedup",
        target: 2.0,
        direction: Direction::AtLeast,
        what: "parallel initial-pool slab mine, 4 threads vs serial",
        bench: "cargo bench -p cfp-bench --bench pool",
    },
    Gate {
        file: "BENCH_delta.json",
        field: "delta_speedup",
        target: 5.0,
        direction: Direction::AtLeast,
        what: "incremental delta append (1% of transactions) vs from-scratch re-mine",
        bench: "cargo bench -p cfp-bench --bench delta",
    },
    Gate {
        file: "BENCH_oocore.json",
        field: "overhead_vs_inmemory",
        target: 2.0,
        direction: Direction::AtMost,
        what: "out-of-core fusion at quarter budget vs in-memory sharded engine",
        bench: "cargo bench -p cfp-bench --bench oocore",
    },
    Gate {
        file: "BENCH_procshard.json",
        field: "overhead_vs_inthread",
        target: 2.5,
        direction: Direction::AtMost,
        what: "subprocess shard executor (4 workers) vs in-thread sharded engine",
        bench: "cargo bench -p cfp-bench --bench wire",
    },
    Gate {
        file: "BENCH_netshard.json",
        field: "overhead_vs_inthread",
        target: 3.0,
        direction: Direction::AtMost,
        what: "networked shard executor (loopback TCP, 2 hosts) vs in-thread sharded engine",
        bench: "cargo bench -p cfp-bench --bench wire",
    },
    Gate {
        file: "BENCH_serve.json",
        field: "queries_per_sec",
        target: 1000.0,
        direction: Direction::AtLeast,
        what: "pattern query service throughput, concurrent loopback clients",
        bench: "cargo bench -p cfp-bench --bench serve",
    },
    Gate {
        file: "BENCH_serve.json",
        field: "p99_latency_ms",
        target: 50.0,
        direction: Direction::AtMost,
        what: "pattern query service p99 request latency under concurrent load",
        bench: "cargo bench -p cfp-bench --bench serve",
    },
];

/// Pulls `"field": <number>` out of our own benches' JSON (flat objects
/// with numeric and string fields only — no general JSON parser needed,
/// and the container has no serde).
fn field_f64(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// Why a gate's summary file exempts itself from its target, when it does:
/// the environment recorded in the file (the **generating** box) cannot
/// express the behaviour the gate measures. Returns the skip reason, and
/// what a capable box looks like (for the regeneration warning).
fn self_skip(gate: &Gate, json: &str) -> Option<(&'static str, &'static str)> {
    let threads = field_f64(json, "threads_available");
    match gate.file {
        "BENCH_kernels.json" if field_str(json, "best_backend") == Some("scalar") => Some((
            "no SIMD backend detected on this box (scalar vs scalar is 1x by definition)",
            "a box with an SSE2/AVX2 backend",
        )),
        "BENCH_pool.json" if threads.is_some_and(|t| t < 4.0) => Some((
            "fewer than 4 cores on this box (a 4-thread mine cannot scale here)",
            "a box with >= 4 cores",
        )),
        "BENCH_procshard.json" if threads.is_some_and(|t| t < 2.0) => Some((
            "single core on this box (process fan-out cannot amortize its spawn cost)",
            "a box with >= 2 cores",
        )),
        "BENCH_netshard.json" if threads.is_some_and(|t| t < 2.0) => Some((
            "single core on this box (networked fan-out cannot amortize its wire cost)",
            "a box with >= 2 cores",
        )),
        "BENCH_serve.json" if threads.is_some_and(|t| t < 2.0) => Some((
            "single core on this box (server and clients would timeshare one core)",
            "a box with >= 2 cores",
        )),
        _ => None,
    }
}

/// Checks the pair counters `BENCH_ball.json` records (see the module
/// docs); a missing file is reported by the speedup gate instead.
fn check_ball_counters(root: &Path) -> Result<(), String> {
    let Ok(json) = std::fs::read_to_string(root.join("BENCH_ball.json")) else {
        return Ok(());
    };
    let count = |field: &str| field_f64(&json, field).ok_or(format!("no \"{field}\" field"));
    let pairs = count("pairs_total")?;
    let (card, pivot) = (count("cardinality_pruned")?, count("pivot_pruned")?);
    let (exact, members) = (count("exact_checked")?, count("ball_members")?);
    let accepted = count("accepted_by_bound")?;
    if pairs != card + pivot + exact {
        return Err(format!(
            "pairs_total {pairs} != cardinality_pruned {card} + pivot_pruned {pivot} \
             + exact_checked {exact}"
        ));
    }
    if accepted > exact || accepted > members {
        return Err(format!(
            "accepted_by_bound {accepted} exceeds exact_checked {exact} or ball_members {members}"
        ));
    }
    Ok(())
}

/// One line of the end-of-run summary table.
struct Row {
    file: &'static str,
    field: &'static str,
    measured: Option<f64>,
    target: f64,
    direction: Direction,
    status: &'static str,
}

fn workspace_root() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    if let Some(w) = args.windows(2).find(|w| w[0] == "--root") {
        return PathBuf::from(&w[1]);
    }
    // The binary lives in crates/bench; the summaries live two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let enforce = std::env::args().any(|a| a == "--check");
    let root = workspace_root();
    let mut failures = 0usize;
    let mut missing: Vec<&Gate> = Vec::new();
    let mut rows: Vec<Row> = Vec::with_capacity(GATES.len());
    println!(
        "bench gate over {} (allowance {:.0}% of target{})",
        root.display(),
        NOISE_ALLOWANCE * 100.0,
        if enforce {
            ", enforcing"
        } else {
            ", report only"
        }
    );
    for gate in &GATES {
        let path = root.join(gate.file);
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) => {
                println!("FAIL {:<22} missing ({e})", gate.file);
                failures += 1;
                missing.push(gate);
                rows.push(Row {
                    file: gate.file,
                    field: gate.field,
                    measured: None,
                    target: gate.target,
                    direction: gate.direction,
                    status: "missing",
                });
                continue;
            }
        };
        let measured = field_f64(&json, gate.field);
        if let Some((reason, capable)) = self_skip(gate, &json) {
            println!("SKIP {:<22} {reason}", gate.file);
            if let Some(value) = measured {
                println!(
                    "     {:<22} warning: the checked-in {} was generated on a box that \
                     skips this gate — {} = {value:.2} is evidence of neither a regression \
                     nor health; regenerate on {capable} before trusting it",
                    "", gate.file, gate.field
                );
            }
            rows.push(Row {
                file: gate.file,
                field: gate.field,
                measured,
                target: gate.target,
                direction: gate.direction,
                status: "SKIP",
            });
            continue;
        }
        let Some(value) = measured else {
            println!("FAIL {:<22} field \"{}\" not found", gate.file, gate.field);
            failures += 1;
            rows.push(Row {
                file: gate.file,
                field: gate.field,
                measured: None,
                target: gate.target,
                direction: gate.direction,
                status: "FAIL",
            });
            continue;
        };
        let (ok, bound, kind) = match gate.direction {
            Direction::AtLeast => {
                let floor = gate.target * NOISE_ALLOWANCE;
                (value >= floor, floor, "floor")
            }
            Direction::AtMost => {
                let ceiling = gate.target / NOISE_ALLOWANCE;
                (value <= ceiling, ceiling, "ceiling")
            }
        };
        println!(
            "{} {:<22} {} = {value:.2} (target {}{:.2}, {kind} {bound:.2}) — {}",
            if ok { "ok  " } else { "FAIL" },
            gate.file,
            gate.field,
            match gate.direction {
                Direction::AtLeast => "≥ ",
                Direction::AtMost => "≤ ",
            },
            gate.target,
            gate.what
        );
        if !ok {
            failures += 1;
        }
        rows.push(Row {
            file: gate.file,
            field: gate.field,
            measured: Some(value),
            target: gate.target,
            direction: gate.direction,
            status: if ok { "ok" } else { "FAIL" },
        });
    }

    if let Err(why) = check_ball_counters(&root) {
        println!("FAIL {:<22} counters: {why}", "BENCH_ball.json");
        failures += 1;
    } else {
        println!(
            "ok   {:<22} counters partition the pairs",
            "BENCH_ball.json"
        );
    }

    // The measured-vs-target summary: every gate, passes included, so a
    // green run still shows its margins at a glance.
    println!(
        "\n{:<22} {:<22} {:>10} {:>10}  status",
        "file", "field", "measured", "target"
    );
    for row in &rows {
        let measured = row
            .measured
            .map_or_else(|| "—".to_string(), |v| format!("{v:.2}"));
        let target = format!(
            "{}{:.2}",
            match row.direction {
                Direction::AtLeast => "≥ ",
                Direction::AtMost => "≤ ",
            },
            row.target
        );
        println!(
            "{:<22} {:<22} {measured:>10} {target:>10}  {}",
            row.file, row.field, row.status
        );
    }

    if !missing.is_empty() {
        println!(
            "\n{} summary file(s) missing — regenerate with:",
            missing.len()
        );
        let mut benches: Vec<&str> = missing.iter().map(|g| g.bench).collect();
        benches.dedup();
        for bench in benches {
            println!("  {bench}");
        }
    }
    if failures > 0 {
        println!("{failures} bench gate(s) failed");
        if enforce {
            return ExitCode::FAILURE;
        }
    } else {
        println!("all bench gates passed");
    }
    ExitCode::SUCCESS
}
