//! The batch workloads: `all`, `replace` and `replace_shards4`.
//!
//! The untraced run times a closed loop of front-door mines — FIMI bytes →
//! parse → engine → `Engine::mine` → materialized patterns — after one
//! discarded warm-up pass, and takes set-up time and peak memory from
//! fresh child processes that each run one cold mine. The traced run
//! replays the mine through the layer pieces ([`crate::trace`]).

use crate::oracle::{self, CanonPattern};
use crate::report::{clock_ghz, fingerprint, median, own_cpu_s, Outcome, PER_LAYER};
use crate::trace::{fusion_loop, replica_mine, BallCounts, LoopCounts, ReplicaMine, Tracer};
use crate::workload::{self, Input, Scale, Workload};
use crate::RunOpts;
use cfp_core::pool::PoolStore;
use cfp_core::shard::{apportion_seeds, partition, shard_seed};
use cfp_core::{FusionConfig, FusionResult, Pattern, RunStats, Sharding, Source};
use cfp_itemset::{TransactionDb, VerticalIndex};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fresh processes launched per run for the cold start (`setup_s`) and
/// peak memory (`peak_rss_mib`); the median is reported.
pub const COLD_LAUNCHES: usize = 5;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One front-door mine: FIMI bytes → parse → engine → patterns.
pub fn mine_once(fimi: &[u8], cfg: &FusionConfig) -> Result<(TransactionDb, FusionResult), String> {
    let db = crate::parse(fimi)?;
    let result = cfg
        .engine(&db)
        .mine(Source::Transactions)
        .map_err(|e| format!("mining: {e}"))?;
    Ok((db, result))
}

/// The generated input plus its reference result, checked against the
/// pins: what every later mine of the run must reproduce.
struct Prepared {
    input: Input,
    cfg: FusionConfig,
    vindex: VerticalIndex,
    expected: Vec<CanonPattern>,
    /// Wall clock of the first (reference) pass — the process's first mine.
    first_s: f64,
}

/// Generates the workload's input and mines it once as the reference.
fn prepare(w: Workload, opts: &RunOpts, out: &mut Outcome) -> Result<Prepared, String> {
    let input = workload::generate(w, opts.scale, opts.seed);
    let cfg = workload::config(w, opts.scale, opts.seed);
    let pin = pinned(w, opts, &input)?;
    let t0 = Instant::now();
    let (db, result) = mine_once(&input.fimi, &cfg)?;
    let first_s = t0.elapsed().as_secs_f64();
    let vindex = VerticalIndex::new(&db);
    let expected = oracle::canon(&db, &result.patterns);
    let check = oracle::verify(&vindex, &result.patterns, cfg.min_count).and_then(|()| match pin {
        Some(pin) if pin.result != oracle::digest(&expected) => Err(format!(
            "result digest {:016x} differs from the pinned {:016x}",
            oracle::digest(&expected),
            pin.result
        )),
        _ => Ok(()),
    });
    out.ledger.record(check);
    Ok(Prepared {
        input,
        cfg,
        vindex,
        expected,
        first_s,
    })
}

/// Checks the generated input against its pin (paper scale, pinned seeds)
/// and returns the pin. A mismatch means the generator changed under the
/// benchmark: the run stops instead of timing a different workload.
pub fn pinned(w: Workload, opts: &RunOpts, input: &Input) -> Result<Option<workload::Pin>, String> {
    if opts.scale != Scale::Paper {
        return Ok(None);
    }
    let pin = workload::pinned(w, opts.seed);
    if let Some(pin) = pin {
        let got = workload::input_digest(input);
        if got != pin.input {
            return Err(format!(
                "{} seed {}: input digest {got:016x} differs from the pinned {:016x}; \
                 the dataset generator changed",
                w.name(),
                opts.seed,
                pin.input
            ));
        }
    }
    Ok(pin)
}

/// One timed pass: wall clock, and CPU seconds of this process.
#[derive(Debug, Clone, Copy)]
pub struct PassTime {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds, all threads.
    pub cpu: f64,
}

/// One pass: times `mine` in wall clock and process CPU time, then judges
/// its output with the clocks stopped. Records the operation; returns the
/// time if it passed.
fn pass<T>(
    out: &mut Outcome,
    mine: impl FnOnce() -> Result<T, String>,
    judge: impl FnOnce(T) -> Result<(), String>,
) -> Option<PassTime> {
    let (w0, c0) = (Instant::now(), own_cpu_s());
    let result = mine();
    let time = PassTime {
        wall: w0.elapsed().as_secs_f64(),
        cpu: own_cpu_s() - c0,
    };
    out.ledger.record(result.and_then(judge)).then_some(time)
}

/// Calls `f` until `seconds` have elapsed and it ran at least
/// [`MIN_PASSES`] times.
fn time_box(seconds: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut made = 0;
    while made < MIN_PASSES || start.elapsed() < seconds {
        f();
        made += 1;
    }
}

/// The oracle's verdict on one mine of the prepared input.
fn judge(p: &Prepared, db: &TransactionDb, patterns: &[Pattern]) -> Result<(), String> {
    oracle::judge_mine(db, &p.vindex, patterns, p.cfg.min_count, &p.expected)
}

/// The untraced run of a batch workload: the end-to-end metrics.
pub fn run(w: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(fingerprint());
    let p = prepare(w, opts, &mut out)?;
    let fimi_path = opts.work_dir.join(format!("{}.dat", w.name()));
    std::fs::write(&fimi_path, &p.input.fimi).map_err(|e| format!("writing the input: {e}"))?;

    let expected_digest = oracle::digest(&p.expected);
    let mut cold = Vec::new();
    let mut rss_mib = Vec::new();
    for _ in 0..COLD_LAUNCHES {
        match cold_launch(w, opts, &fimi_path) {
            Ok(c) => {
                let check = if c.digest != expected_digest {
                    Err(format!(
                        "cold mine: result digest {:016x} differs",
                        c.digest
                    ))
                } else {
                    c.verified.clone()
                };
                if out.ledger.record(check) {
                    cold.push(c.time);
                    rss_mib.push(c.hwm_kib as f64 / 1024.0);
                }
            }
            Err(e) => {
                out.ledger.record(Err(e));
            }
        }
    }

    let (mut times, mut clock) = (Vec::new(), Vec::new());
    time_box(opts.seconds, || {
        times.extend(pass(
            &mut out,
            || mine_once(&p.input.fimi, &p.cfg),
            |(db, result)| judge(&p, &db, &result.patterns),
        ));
        clock.push(clock_ghz());
    });
    out.notes.push(format!(
        "{}: {} timed mines, {} cold launches, threads {}",
        w.name(),
        times.len(),
        cold.len(),
        p.cfg.threads.unwrap_or(1)
    ));
    set_times(&mut out, &times, &clock, &cold);
    out.set("peak_rss_mib", median(&rss_mib));
    out.set(
        "colossal_recall",
        oracle::recall(&p.input.planted, &p.expected),
    );
    Ok(out)
}

/// Wall-clock seconds of each pass.
fn walls(times: &[PassTime]) -> Vec<f64> {
    times.iter().map(|t| t.wall).collect()
}

/// CPU seconds of each pass.
fn cpus(times: &[PassTime]) -> Vec<f64> {
    times.iter().map(|t| t.cpu).collect()
}

/// Sets the time metrics and notes the medians behind them:
/// `mine_gcycles`, the CPU-time median of the timed operations times the
/// median of the core clock samples taken between them, and `setup_s`, the
/// CPU-time median of the set-ups.
pub fn set_times(out: &mut Outcome, ops: &[PassTime], clock: &[f64], setups: &[PassTime]) {
    let (cpu, ghz) = (median(&cpus(ops)), median(clock));
    out.set("mine_gcycles", cpu * ghz);
    out.set("setup_s", median(&cpus(setups)));
    out.notes.push(format!(
        "timing: mine_cpu_s={cpu} clock_ghz={ghz} mine_wall_s={} setup_wall_s={}",
        median(&walls(ops)),
        median(&walls(setups))
    ));
}

/// What a cold child process reported.
struct Cold {
    time: PassTime,
    digest: u64,
    hwm_kib: u64,
    verified: Result<(), String>,
}

/// Launches `perfbench cold` on the written input and times it from the
/// spawn to its `done` line (the first result in a fresh process).
fn cold_launch(w: Workload, opts: &RunOpts, fimi: &Path) -> Result<Cold, String> {
    let t0 = Instant::now();
    let mut child = Command::new(crate::self_exe()?)
        .arg("cold")
        .args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale", opts.scale.name()])
        .arg("--fimi")
        .arg(fimi)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("launching a cold mine: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut next = || -> Result<String, String> {
        lines
            .next()
            .ok_or("the cold mine exited early")?
            .map_err(|e| format!("reading the cold mine: {e}"))
    };
    let done = next();
    let wall = t0.elapsed().as_secs_f64();
    let mut cpu = 0.0;
    let report = done.and_then(|d| match d.strip_prefix("done ").map(str::parse) {
        Some(Ok(c)) => {
            cpu = c;
            next()
        }
        _ => Err(d),
    });
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the cold mine: {e}"))?;
    let report = report?;
    if !status.success() {
        return Err(format!("the cold mine exited with {status}"));
    }
    let f: Vec<&str> = report.split(' ').collect();
    let bad = || format!("malformed cold report '{report}'");
    if f.len() < 4 || f[0] != "result" {
        return Err(bad());
    }
    Ok(Cold {
        time: PassTime { wall, cpu },
        digest: u64::from_str_radix(f[1], 16).map_err(|_| bad())?,
        hwm_kib: f[2].parse().map_err(|_| bad())?,
        verified: match f[3] {
            "ok" => Ok(()),
            _ => Err(format!("cold mine: {}", f[3..].join(" "))),
        },
    })
}

/// The `perfbench cold` child: one front-door mine of the input file in a
/// fresh process. Prints `done <CPU seconds>` the moment the patterns
/// exist, then
/// `result <digest> <VmHWM KiB> ok|<why>`.
pub fn cold_main(w: Workload, scale: Scale, seed: u64, fimi: &Path) -> Result<(), String> {
    let cfg = workload::config(w, scale, seed);
    let bytes = std::fs::read(fimi).map_err(|e| format!("reading {}: {e}", fimi.display()))?;
    let (db, result) = mine_once(&bytes, &cfg)?;
    println!("done {}", own_cpu_s());
    let hwm = crate::report::vm_hwm_kib("self").unwrap_or(0);
    let digest = oracle::digest(&oracle::canon(&db, &result.patterns));
    let verdict = match oracle::verify(&VerticalIndex::new(&db), &result.patterns, cfg.min_count) {
        Ok(()) => "ok".to_string(),
        Err(e) => e,
    };
    println!("result {digest:016x} {hwm} {verdict}");
    Ok(())
}

/// Sets every per-layer metric the run did not measure to 0: the
/// workload does not pass through that layer.
pub fn zero_unmeasured(out: &mut Outcome) {
    for def in PER_LAYER {
        out.values.entry(def.name).or_insert(0.0);
    }
}

/// Per-name median of several passes' self times.
fn median_by_name(passes: &[std::collections::BTreeMap<&'static str, f64>], name: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .map(|m| m.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&v)
}

/// The layer times a traced batch run reports, by span name.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("io.parse_s", "io.parse"),
    ("vertical.build_s", "vertical.build"),
    ("initial_pool.mine_s", "initial_pool.mine"),
    ("ball.build_s", "ball.build"),
    ("ball.scan_s", "ball.scan"),
    ("fusion.fuse_s", "fusion.fuse"),
    ("closure.close_s", "closure.close"),
    ("pool.intern_s", "pool.intern"),
    ("pool.materialize_s", "pool.materialize"),
    ("ball.maintain_s", "ball.maintain"),
    ("shard.partition_s", "shard.partition"),
];

/// Reports the loop counters and the kernel figures derived from them.
fn set_loop_counts(out: &mut Outcome, c: &LoopCounts, row_bytes: usize) {
    let BallCounts {
        pairs,
        exact,
        members,
    } = c.ball;
    out.set("ball.pairs", pairs as f64);
    out.set("ball.exact_pairs", exact as f64);
    out.set("ball.members", members as f64);
    out.set(
        "ball.pruned_ratio",
        if pairs > 0 {
            1.0 - exact as f64 / pairs as f64
        } else {
            0.0
        },
    );
    out.set(
        "ball.hit_ratio",
        if exact > 0 {
            members as f64 / exact as f64
        } else {
            0.0
        },
    );
    out.set("fusion.members_in", c.members_in as f64);
    out.set("fusion.generated", c.generated as f64);
    out.set("algorithm.iterations", c.iterations as f64);
    out.set("ball.tombstoned", c.tombstoned as f64);
    out.set("ball.inserted", c.inserted as f64);
    out.set("ball.compactions", c.compactions as f64);
    out.set(
        "kernels.gib_moved",
        exact as f64 * row_bytes as f64 / (1u64 << 30) as f64,
    );
    let scan_s = out.values.get("ball.scan_s").copied().unwrap_or(0.0);
    out.set(
        "kernels.ns_per_pair",
        if exact > 0 {
            scan_s * 1e9 / exact as f64
        } else {
            0.0
        },
    );
    let lane_bits = match cfp_core::KernelBackend::active() {
        cfp_core::KernelBackend::Scalar => 64.0,
        cfp_core::KernelBackend::Sse2 => 128.0,
        cfp_core::KernelBackend::Avx2 => 256.0,
    };
    out.set("kernels.lane_bits", lane_bits);
}

/// Writes a tracer's spans to the trace directory.
fn write_spans(opts: &RunOpts, w: Workload, t: &Tracer, out: &mut Outcome) {
    let path = opts
        .trace_dir
        .join(format!("{}-seed{}.jsonl", w.name(), opts.seed));
    match std::fs::write(&path, t.to_jsonl()) {
        Ok(()) => out.notes.push(format!("spans: {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

/// Reconciles root `root` of every traced pass: the worst unattributed
/// share becomes `trace.unattributed_ratio`, a problem above 5%.
fn reconcile(out: &mut Outcome, tracers: &[Tracer], root: &str) -> Vec<f64> {
    let mut totals = Vec::new();
    let mut worst: f64 = 0.0;
    for t in tracers {
        if let Some(r) = t.root(root) {
            let (total, unattributed) = t.reconcile(r);
            totals.push(total);
            worst = worst.max(unattributed);
        }
    }
    out.set("trace.unattributed_ratio", worst);
    if worst > 0.05 {
        out.problems.push(format!(
            "layer self times leave {:.1}% of the traced total unattributed (limit 5%)",
            worst * 100.0
        ));
    }
    totals
}

/// Reports the tracing overhead: the traced total against the untraced
/// front-door mine, flagged above 5%.
fn set_overhead(
    out: &mut Outcome,
    traced_total_s: f64,
    traced: &[PassTime],
    untraced: &[PassTime],
) {
    let (traced_cpu, untraced_cpu) = (median(&cpus(traced)), median(&cpus(untraced)));
    let overhead = if untraced_cpu > 0.0 {
        (traced_cpu - untraced_cpu) / untraced_cpu
    } else {
        0.0
    };
    out.set("trace.total_s", traced_total_s);
    out.set("trace.overhead_ratio", overhead);
    out.notes.push(format!(
        "trace: traced total {traced_total_s:.4} s wall; CPU {traced_cpu:.4} s traced against \
         {untraced_cpu:.4} s untraced, overhead {:.1}%{}",
        overhead * 100.0,
        if overhead > 0.05 {
            " (FLAG: above 5%)"
        } else {
            ""
        }
    ));
}

/// The traced pass of `replace_shards4`: the front door under a `mine`
/// root, split into parse, engine build (the vertical index) and mine.
fn traced_front_door(
    t: &mut Tracer,
    p: &Prepared,
) -> Result<(TransactionDb, FusionResult), String> {
    t.span("mine", |t| {
        let db = t.span("io.parse", |_| crate::parse(&p.input.fimi))?;
        let engine = t.span("vertical.build", |_| p.cfg.engine(&db));
        let result = t
            .span("engine.mine", |_| engine.mine(Source::Transactions))
            .map_err(|e| format!("mining: {e}"))?;
        Ok((db, result))
    })
}

/// The traced run of a batch workload: the per-layer metrics.
pub fn run_traced(w: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes.push(fingerprint());
    let p = prepare(w, opts, &mut out)?;
    out.set("engine.cold_mine_s", p.first_s);
    let sharded = w == Workload::ReplaceShards4;

    let mut stats: Option<RunStats> = None;
    let mut replica: Option<ReplicaMine> = None;
    let mut tracers: Vec<Tracer> = Vec::new();
    // A traced pass: the replica on `all` and `replace`, judged like any
    // mine; the spanned front door on `replace_shards4`. The first one is
    // discarded: it pays the replica's own warm-up.
    let mut warm = true;
    let mut traced_pass = |out: &mut Outcome| {
        let mut t = Tracer::new();
        let time = if sharded {
            pass(
                out,
                || traced_front_door(&mut t, &p),
                |(db, result)| judge(&p, &db, &result.patterns),
            )
        } else {
            pass(
                out,
                || replica_mine(&mut t, &p.input.fimi, &p.cfg),
                |r| {
                    judge(&p, &r.db, &r.patterns)
                        .map(|()| replica = Some(r))
                        .map_err(|e| format!("traced replica: {e}"))
                },
            )
        };
        if !std::mem::take(&mut warm) {
            tracers.push(t);
        }
        time
    };
    traced_pass(&mut out);
    // Untraced and traced passes alternate, so drift in the host's speed
    // hits both alike.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    time_box(opts.seconds, || {
        untraced.extend(pass(
            &mut out,
            || mine_once(&p.input.fimi, &p.cfg),
            |(db, result)| {
                let verdict = judge(&p, &db, &result.patterns);
                stats = Some(result.stats);
                verdict
            },
        ));
        traced.extend(traced_pass(&mut out));
    });

    let by_name: Vec<_> = tracers
        .iter()
        .filter_map(|t| t.root("mine").map(|r| t.self_time_by_name(r)))
        .collect();
    let totals = reconcile(&mut out, &tracers, "mine");
    out.set("engine.mine_s", median(&walls(&untraced)));
    set_overhead(&mut out, median(&totals), &traced, &untraced);
    if sharded {
        out.set("io.parse_s", median_by_name(&by_name, "io.parse"));
        out.set(
            "vertical.build_s",
            median_by_name(&by_name, "vertical.build"),
        );
        let stats = stats.ok_or("no untraced mine succeeded")?;
        shard_replay(&p, &stats, &mut out, &mut tracers)?;
    } else {
        let f = replica.ok_or("no traced replica pass succeeded")?;
        for (metric, span) in LAYER_SPANS {
            out.set(metric, median_by_name(&by_name, span));
        }
        out.set("initial_pool.rows", f.pool_rows as f64);
        out.set(
            "initial_pool.tid_mib",
            f.tid_bytes as f64 / (1u64 << 20) as f64,
        );
        set_loop_counts(&mut out, &f.counts, f.row_bytes);
    }
    if let Some(t) = tracers.last() {
        write_spans(opts, w, t, &mut out);
    }
    zero_unmeasured(&mut out);
    Ok(out)
}

/// The shard replay of `replace_shards4`, under its own `shard.replay`
/// root: the stratified pool, `shard::partition`, and each shard's fusion
/// loop run on its own thread budget. Its counters must match the
/// engine's per-shard ones.
fn shard_replay(
    p: &Prepared,
    stats: &RunStats,
    out: &mut Outcome,
    tracers: &mut Vec<Tracer>,
) -> Result<(), String> {
    let db = crate::parse(&p.input.fimi)?;
    let cfg = &p.cfg;
    let shards = cfg.sharding.shards;
    let mut t = Tracer::new();
    let replay = t.span("shard.replay", |t| {
        let (slab, _) = t.span("initial_pool.mine", |_| {
            cfp_miners::initial_pool_slab_stratified(
                &db,
                cfg.min_count,
                cfg.pool_max_len,
                cfg.threads.unwrap_or(1),
            )
        });
        let store = PoolStore::new(slab);
        let rows: Vec<u32> = (0..store.base_len() as u32).collect();
        let assignment = t.span("shard.partition", |_| {
            partition(&store, &rows, shards, cfg.sharding.strategy)
        });
        let sizes: Vec<usize> = assignment.iter().map(Vec::len).collect();
        let budget = apportion_seeds(cfg.k, &sizes);
        let mut per_shard = Vec::new();
        for (s, members) in assignment.iter().enumerate() {
            let sub_rows: Vec<u32> = members.iter().map(|&i| rows[i as usize]).collect();
            let mut scfg = cfg.clone();
            scfg.sharding = Sharding::single();
            scfg.k = budget[s];
            scfg.seed = shard_seed(cfg.seed, s, shards);
            scfg.archive_cap = Some(cfg.archive_cap.unwrap_or(cfg.k).max(scfg.k));
            scfg.threads = Some(1);
            let mut shard_store = store.fork();
            let (_, counts) = t.span("executor.shard", |t| {
                fusion_loop(t, &mut shard_store, sub_rows, &scfg, &p.vindex)
            });
            per_shard.push(counts);
        }
        (
            store.base_len(),
            store.tid_bytes(),
            store.words_per_row() * 8,
            per_shard,
        )
    });
    let (pool_rows, tid_bytes, row_bytes, per_shard) = replay;

    // The replay must agree with the engine's own per-shard counters.
    let mut total = LoopCounts::default();
    for (s, c) in per_shard.iter().enumerate() {
        let agree = stats.shards.get(s).is_some_and(|e| {
            let b = e.ball;
            e.patterns as u64 == c.patterns
                && e.iterations as u64 == c.iterations
                && e.tombstoned == c.tombstoned
                && e.inserted == c.inserted
                && e.compactions as u64 == c.compactions
                && (b.pairs_total, b.exact_checked, b.ball_members)
                    == (c.ball.pairs, c.ball.exact, c.ball.members)
        });
        out.ledger.record(if agree {
            Ok(())
        } else {
            Err(format!(
                "shard replay {s}: counters differ from the engine's"
            ))
        });
        total.iterations += c.iterations;
        total.ball.pairs += c.ball.pairs;
        total.ball.exact += c.ball.exact;
        total.ball.members += c.ball.members;
        total.members_in += c.members_in;
        total.generated += c.generated;
        total.tombstoned += c.tombstoned;
        total.inserted += c.inserted;
        total.compactions += c.compactions;
    }
    let root = t
        .root("shard.replay")
        .expect("the replay span was recorded");
    let by_name = t.self_time_by_name(root);
    for (metric, span) in &LAYER_SPANS[2..] {
        out.set(metric, by_name.get(span).copied().unwrap_or(0.0));
    }
    let (_, unattributed) = t.reconcile(root);
    let worst = out.values["trace.unattributed_ratio"].max(unattributed);
    out.set("trace.unattributed_ratio", worst);
    if unattributed > 0.05 {
        out.problems.push(format!(
            "shard replay: {:.1}% of the replay is unattributed (limit 5%)",
            unattributed * 100.0
        ));
    }
    out.set("initial_pool.rows", pool_rows as f64);
    out.set(
        "initial_pool.tid_mib",
        tid_bytes as f64 / (1u64 << 20) as f64,
    );
    set_loop_counts(out, &total, row_bytes);
    // The engine's own view of the shard phase and the repair loop.
    let shard_s: Vec<f64> = stats
        .shards
        .iter()
        .map(|s| s.elapsed.as_secs_f64())
        .collect();
    let max = shard_s.iter().copied().fold(0.0, f64::max);
    let mean = shard_s.iter().sum::<f64>() / shard_s.len().max(1) as f64;
    out.set("executor.shard_max_s", max);
    out.set(
        "executor.shard_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    out.set("executor.repair_iterations", stats.repair_iterations as f64);
    tracers.push(t);
    Ok(())
}
