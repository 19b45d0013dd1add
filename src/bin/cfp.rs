//! `cfp` — command-line colossal-pattern mining on FIMI `.dat` files.
//!
//! ```text
//! cfp mine <file.dat> [--minsup FRAC | --mincount N] [--k N] [--tau T]
//!          [--pool-len L] [--seed S] [--closure] [--stats]
//!          [--shards N] [--shard-strategy stratum|minhash]
//!          [--mem-budget BYTES] [--pool SLAB] [--append FILE]
//! cfp dump <file.dat> --out <pool.slab> [--minsup FRAC | --mincount N]
//!          [--pool-len L] [--threads N]
//! cfp load <pool.slab>
//! cfp stats <file.dat>
//! cfp generate <diag|diag-plus|replace|all|quest> [--out FILE] [--seed S]
//! ```
//!
//! `mine` runs Pattern-Fusion and prints the mined patterns (external item
//! labels) with sizes and supports; `--mem-budget` (or `CFP_MEM_BUDGET`)
//! routes it through the out-of-core driver, and `--executor` (or
//! `CFP_EXECUTOR`) picks the shard execution backend — `thread` (default),
//! `oocore`, `process` (one `cfp shard-host --stdio` child per shard), or
//! `remote` (`cfp shard-host` workers over TCP); bit-identical output
//! either way. `dump` mines just the initial
//! pool and persists it as a `CFPSLAB` binary slab; `load` validates a slab
//! and summarizes it; `mine --pool` starts fusion from a dumped slab
//! instead of re-mining. `stats` summarizes a dataset. `generate` writes
//! one of the paper's workloads in FIMI format.
//!
//! `shard-host` is the worker half of both process-based executors
//! (the worker interchange protocol; see the wire spec in
//! `cfp_itemset::store`): over TCP it serves remote coordinators, and with
//! `--stdio` it serves one shard on stdin/stdout for the `process`
//! executor that spawned it.

use colossal::fusion::env::{self as cfp_env, OptEnv};
use colossal::fusion::net;
use colossal::fusion::oocore::OocoreConfig;
use colossal::fusion::{
    serve_queries, BallQueryStats, DaemonOptions, EnvError, ExecutorKind, FusionConfig,
    FusionResult, HostOptions, QueryClient, RemoteConfig, Source, SubprocessConfig,
};
use colossal::itemset::slab_io;
use colossal::itemset::{read_fimi, write_fimi, TransactionDb};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Validate every CFP_* variable up front: a malformed CFP_SHARDS /
    // CFP_MEM_BUDGET / CFP_NET_TIMEOUT / ... is a clean typed error here,
    // not a library panic halfway into a mine (or, worse, a silently
    // ignored knob) — in particular, CFP_FAULT on a build without the
    // fault-inject feature is an error, never a silently honored no-op.
    if let Err(e) = cfp_env::validate_all() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "mine" => cmd_mine(&args[1..]),
        "dump" => cmd_dump(&args[1..]),
        "load" => cmd_load(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        // One shard on stdin/stdout, with the protocol's exit codes (0 ok,
        // 2 slab I/O, 3 request/dataset, 1 anything else).
        "shard-host" if parse_flag(&args[1..], "--stdio") => {
            return cmd_shard_host_stdio(&args[1..])
        }
        "shard-host" => cmd_shard_host(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "cfp — colossal frequent pattern mining (Pattern-Fusion, ICDE 2007)

usage:
  cfp mine <file.dat> [options]      mine colossal patterns from a FIMI file
      --minsup FRAC    relative minimum support in (0,1]   [default 0.05]
      --mincount N     absolute minimum support (overrides --minsup)
      --k N            maximum number of patterns          [default 50]
      --tau T          core ratio τ in (0,1]               [default 0.5]
      --pool-len L     initial pool size bound             [default 3]
      --seed S         RNG seed                            [default 2007]
      --closure        close fused patterns (report closed patterns)
      --shards N       sharded engine: partition the pool into N shards
                       (overrides CFP_SHARDS; 1 = unsharded)  [default 1]
      --shard-strategy stratum|minhash
                       partition strategy (overrides CFP_SHARD_STRATEGY)
      --mem-budget B   mine out of core, bounding resident slab bytes per
                       fusion pass to B (suffixes k/m/g; 0 = spill but one
                       pass; overrides CFP_MEM_BUDGET; bit-identical output)
      --executor E     shard execution backend: thread | oocore | process
                       | remote (overrides CFP_EXECUTOR; process spawns
                       one cfp shard-host --stdio per shard, remote streams
                       each shard to a cfp shard-host over TCP; bit-identical
                       output; CFP_EXECUTOR_FALLBACK=1 re-runs a dead
                       worker's shard in-process instead of failing, =0
                       disables the remote executor's default fallback)
      --workers LIST   remote executor worker addresses, comma-separated
                       host:port (overrides CFP_WORKERS); deadlines and
                       retries via CFP_NET_TIMEOUT (ms) / CFP_NET_ATTEMPTS
      --spill-dir D    out-of-core runs only: the spill directory (must
                       be empty; kept only with --keep-spill)
      --keep-spill     out-of-core runs only: keep the spill directory
                       after the run
      --pool SLAB      start from a dumped CFPSLAB pool instead of re-mining
      --append FILE    mine <file.dat>, then absorb FILE (FIMI, one appended
                       transaction per line) incrementally — bit-identical
                       to re-mining the concatenation, at delta cost. A
                       relative --minsup resolves against the *base* file
                       (appends must not re-price old patterns; use
                       --mincount for an explicit absolute threshold)
      --stats          print per-iteration (and per-shard) statistics,
                       ball-query counters included
  cfp dump <file.dat> --out <pool.slab>
                       mine the initial pool and persist it as a binary slab
      --minsup/--mincount/--pool-len as for mine; --threads N mine workers
  cfp load <pool.slab>               validate a dumped slab and summarize it
  cfp stats <file.dat>               dataset summary
  cfp serve <file.dat> [options]     mine once, then serve pattern queries
                                     over TCP (protocol v4; concurrent
                                     long-lived connections; `reload` re-mines
                                     in the background and swaps epochs
                                     without blocking readers)
      --minsup/--mincount/--k/--tau/--pool-len/--seed/--closure as for mine
      --bind ADDR      listen address                 [default 127.0.0.1:0]
      --max-conns N    serve N connections, then exit [default: forever]
      --io-timeout MS  socket deadline (also CFP_NET_TIMEOUT) [default 60000]
      --verbose        log per-connection failures to stderr
      (prints the bound address on stdout once listening)
  cfp query <host:port> <verb> [key=value ...]
                                     one v4 request against a cfp serve
                                     daemon; body lines print on stdout
      verbs: topk [k=N] [tids=1] [session=S]      top-K colossal patterns
             lookup items=a,b,c [session=S]       exact support lookup
             contain items=a,b,c [limit=N]        patterns containing items
             similar tids=t1,t2,...               ball query for a tid-set
             put session=S items=... tids=...     intern into a session
             append txns=1,2;3,4 [wait=1]         absorb appended transactions
                                                  (incremental re-mine; the new
                                                  epoch is bit-identical to a
                                                  cold mine of the grown data)
             stats | reload [seed=N] [wait=1] | bye
      --timeout MS     socket deadline             [default 10000]
  cfp shard-host [options]           serve shards to remote coordinators
      --bind ADDR      listen address                 [default 127.0.0.1:0]
      --max-conns N    serve N connections, then exit [default: forever]
      --heartbeat MS   mine-phase heartbeat cadence   [default 500]
      --io-timeout MS  socket deadline (also CFP_NET_TIMEOUT) [default 60000]
      --verbose        log per-connection failures to stderr
      (prints the bound address on stdout once listening)
      --stdio          serve one shard on stdin/stdout instead, with the
                       default heartbeat (how --executor process runs its
                       workers; stdout carries protocol frames only; the
                       TCP options above do not apply)
      --db FILE        with --stdio: the dataset a --closure shard's
                       vertical index is built from
  cfp generate <kind> [--out FILE] [--seed S]
      kinds: diag40, diag-plus (the intro's Diag40+20), replace, all, quest";

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    for w in args.windows(2) {
        if w[0] == name {
            return w[1]
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value '{}' for {name}", w[1]));
        }
    }
    Ok(None)
}

/// A setting a flag shares with the `CFP_*` variable it overrides: the
/// flag, parsed by the variable's own `env::parse_*` grammar so that it
/// accepts exactly what the variable accepts, else the variable.
fn setting<T>(
    args: &[String],
    flag: &str,
    parse: fn(&str) -> Result<T, EnvError>,
    var: fn() -> OptEnv<T>,
) -> Result<Option<T>, String> {
    match parse_value::<String>(args, flag)? {
        Some(raw) => parse(&raw)
            .map(Some)
            .map_err(|e| format!("invalid {flag} '{raw}': expected {}", e.expected)),
        None => var().map_err(|e| e.to_string()),
    }
}

/// A `CFP_*` variable with no flag ([`cfp_env::validate_all`] has already
/// vetted it, so this only fails if the environment changed since).
fn env<T>(var: fn() -> OptEnv<T>) -> Result<Option<T>, String> {
    var().map_err(|e| e.to_string())
}

fn load(path: &str) -> Result<TransactionDb, String> {
    read_fimi(path).map_err(|e| format!("reading {path}: {e}"))
}

/// The support threshold `mine`, `serve` and `dump` share: `--mincount`,
/// else `--minsup` (default 0.05) against `db`.
fn min_count(args: &[String], db: &TransactionDb) -> Result<usize, String> {
    match parse_value::<usize>(args, "--mincount")? {
        Some(c) => Ok(c),
        None => {
            let frac = parse_value::<f64>(args, "--minsup")?.unwrap_or(0.05);
            Ok(db.min_support(frac).map_err(|e| e.to_string())?.count())
        }
    }
}

/// The mining flags `mine` and `serve` share: the support threshold
/// ([`min_count`]), `--k`, `--tau`, `--pool-len`, `--seed` and
/// `--closure`.
fn mining_config(args: &[String], db: &TransactionDb) -> Result<FusionConfig, String> {
    let min_count = min_count(args, db)?;
    let k = parse_value::<usize>(args, "--k")?.unwrap_or(50);
    let tau = parse_value::<f64>(args, "--tau")?.unwrap_or(0.5);
    let pool_len = parse_value::<usize>(args, "--pool-len")?.unwrap_or(3);
    let seed = parse_value::<u64>(args, "--seed")?.unwrap_or(2007);
    if !(tau > 0.0 && tau <= 1.0) {
        return Err(format!("--tau {tau} outside (0, 1]"));
    }
    Ok(FusionConfig::new(k, min_count)
        .with_tau(tau)
        .with_pool_max_len(pool_len)
        .with_seed(seed)
        .with_closure_step(parse_flag(args, "--closure")))
}

/// The listener flags `serve` and `shard-host` share: binds `--bind`
/// (default 127.0.0.1:0) and reads `--max-conns`, `--verbose` and
/// `--io-timeout` (else `CFP_NET_TIMEOUT`).
fn listen(args: &[String]) -> Result<(std::net::TcpListener, DaemonOptions), String> {
    let bind = parse_value::<String>(args, "--bind")?.unwrap_or_else(|| "127.0.0.1:0".into());
    let listener =
        std::net::TcpListener::bind(&bind).map_err(|e| format!("binding {bind}: {e}"))?;
    let mut opts = DaemonOptions {
        verbose: parse_flag(args, "--verbose"),
        ..DaemonOptions::default()
    };
    if let Some(n) = parse_value::<usize>(args, "--max-conns")? {
        opts = opts.with_max_conns(n);
    }
    let io_timeout = setting(
        args,
        "--io-timeout",
        cfp_env::parse_net_timeout,
        cfp_env::net_timeout,
    )?;
    if let Some(t) = io_timeout {
        opts = opts.with_io_timeout(t);
    }
    Ok((listener, opts))
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("mine: missing <file.dat>".into());
    };
    // Every flag that needs no dataset is resolved before the dataset is
    // read, so a mistyped one costs no parse. `--shards N` /
    // `--shard-strategy stratum|minhash` override CFP_SHARDS /
    // CFP_SHARD_STRATEGY; `--pool SLAB` starts from a dumped pool slab of
    // the same dataset.
    let shards = setting(args, "--shards", cfp_env::parse_shards, cfp_env::shards)?;
    let strategy = setting(
        args,
        "--shard-strategy",
        cfp_env::parse_shard_strategy,
        cfp_env::shard_strategy,
    )?;
    let executor = executor(args, path)?;
    let source = match parse_value::<String>(args, "--pool")? {
        Some(p) => Source::SlabFile(p.into()),
        None => Source::Transactions,
    };
    let append = parse_value::<String>(args, "--append")?;
    if append.is_some() && matches!(source, Source::SlabFile(_)) {
        return Err("--append cannot start from a dumped --pool slab".into());
    }
    if append.is_some() && executor.is_some() {
        return Err("--append runs in-process (drop --executor / --mem-budget)".into());
    }

    let db = load(path)?;
    if db.is_empty() {
        return Err("dataset has no transactions".into());
    }
    let mut config = mining_config(args, &db)?;
    eprintln!(
        "mining {path}: {} transactions, {} items, min support {}, K={}, τ={}",
        db.len(),
        db.num_items(),
        config.min_count,
        config.k,
        config.tau
    );
    if let Some(n) = shards {
        config = config.with_shards(n);
    }
    if let Some(strategy) = strategy {
        config = config.with_shard_strategy(strategy);
    }

    // `--append FILE` routes through the incremental delta driver
    // (`cfp_core::delta`): the base file is mined, the appended
    // transactions absorbed at delta cost, and the printed result is
    // bit-identical to mining the concatenated file from scratch.
    if let Some(delta_path) = append {
        let delta = colossal::itemset::DbDelta::read_fimi(&delta_path)
            .map_err(|e| format!("reading {delta_path}: {e}"))?;
        let mut engine = colossal::fusion::DeltaEngine::new(db, config);
        let t0 = std::time::Instant::now();
        let result = engine.append(&delta);
        let s = engine.last_append();
        eprintln!(
            "mined {} patterns in {:.3}s (pool {}, {} iterations)",
            result.patterns.len(),
            t0.elapsed().as_secs_f64(),
            result.stats.initial_pool_size,
            result.stats.total_iterations()
        );
        eprintln!(
            "  append: {} transactions from {delta_path}, {} dirty item(s), \
             {} subtree(s) re-mined, {} of {} pool rows spliced ({:.3}s incremental)",
            s.appended_transactions,
            s.dirty_items,
            s.subtrees_remined,
            s.rows_spliced,
            s.pool_rows,
            s.elapsed.as_secs_f64(),
        );
        for p in &result.patterns {
            let labels = engine.db().item_map().externalize(p.items.items());
            let rendered: Vec<String> = labels.iter().map(u32::to_string).collect();
            println!("{}\t{}\t{}", p.len(), p.support(), rendered.join(" "));
        }
        return Ok(());
    }

    let mut engine = config.engine(&db);
    if let Some(ex) = executor {
        engine = engine.with_executor(ex);
    }
    let t0 = std::time::Instant::now();
    let result: FusionResult = engine.mine(source).map_err(|e| e.to_string())?;
    eprintln!(
        "mined {} patterns in {:.3}s (pool {}, {} iterations)",
        result.patterns.len(),
        t0.elapsed().as_secs_f64(),
        result.stats.initial_pool_size,
        result.stats.total_iterations()
    );
    if parse_flag(args, "--stats") {
        let pool = &result.stats.pool;
        eprintln!(
            "  pool: {} rows ({} mined), {:.1} KiB tids / {:.1} KiB peak slab, \
             mined on {} worker(s) in {:.3}s (+{:.3}s splice)",
            pool.rows,
            pool.initial_rows,
            pool.tid_bytes as f64 / 1024.0,
            pool.peak_bytes as f64 / 1024.0,
            pool.mine_workers,
            pool.mine_time.as_secs_f64(),
            pool.splice_time.as_secs_f64()
        );
        for (i, it) in result.stats.iterations.iter().enumerate() {
            eprintln!(
                "  iter {i}: pool {} → {} patterns (sizes {}..{}) in {:.3}s",
                it.pool_size,
                it.generated,
                it.min_pattern_len,
                it.max_pattern_len,
                it.elapsed.as_secs_f64()
            );
            eprintln!("{}", ball_line(&it.ball));
        }
        for s in &result.stats.shards {
            eprintln!(
                "  shard {}: pool {} → {} patterns, {} iterations{} in {:.3}s",
                s.shard,
                s.pool_size,
                s.patterns,
                s.iterations,
                if s.converged { "" } else { " (cap)" },
                s.elapsed.as_secs_f64()
            );
            eprintln!("{}", ball_line(&s.ball));
        }
        if result.stats.sharded() {
            eprintln!(
                "  merge: {} boundary-repair iterations",
                result.stats.repair_iterations
            );
            eprintln!("{}", ball_line(&result.stats.repair_ball));
        }
        let netstats = &result.stats.net;
        if netstats.active() {
            eprintln!(
                "  net: {} shard(s) dispatched in {} attempt(s) ({} retried, {} fell back \
                 in-thread), {:.1} KiB sent / {:.1} KiB received, {} heartbeat(s), \
                 {:.3}s backoff",
                netstats.shards_dispatched,
                netstats.attempts,
                netstats.retries,
                netstats.fallbacks,
                netstats.bytes_sent as f64 / 1024.0,
                netstats.bytes_received as f64 / 1024.0,
                netstats.heartbeats,
                netstats.backoff_total.as_secs_f64(),
            );
        }
        let oo = &result.stats.oocore;
        if oo.active() {
            eprintln!(
                "  oocore: {} pass(es) over {} spilled shard(s), {:.1} KiB spilled in \
                 {:.3}s, {:.1} KiB loaded in {:.3}s, peak resident {:.1} KiB \
                 (budget {}), bytes touched {:.2}x the in-memory slab",
                oo.passes,
                oo.shards_spilled,
                oo.spill_bytes as f64 / 1024.0,
                oo.spill_time.as_secs_f64(),
                oo.load_bytes as f64 / 1024.0,
                oo.load_time.as_secs_f64(),
                oo.peak_resident_bytes as f64 / 1024.0,
                if oo.budget_bytes == 0 {
                    "unlimited".to_string()
                } else {
                    format!("{:.1} KiB", oo.budget_bytes as f64 / 1024.0)
                },
                oo.bytes_touched_ratio(),
            );
        }
    }
    for p in &result.patterns {
        let labels = db.item_map().externalize(p.items.items());
        let rendered: Vec<String> = labels.iter().map(u32::to_string).collect();
        println!("{}\t{}\t{}", p.len(), p.support(), rendered.join(" "));
    }
    Ok(())
}

/// The shard execution backend of a `mine` run, if not the default engine:
/// `--executor` (else CFP_EXECUTOR), configured from its flags and the
/// `CFP_*` variables, or `--mem-budget` (else CFP_MEM_BUDGET) alone as
/// sugar for the out-of-core backend. An explicit executor wins over that
/// routing; the budget still feeds the out-of-core backend's config.
fn executor(args: &[String], path: &str) -> Result<Option<ExecutorKind>, String> {
    let budget = setting(
        args,
        "--mem-budget",
        cfp_env::parse_mem_budget,
        cfp_env::mem_budget,
    )?;
    let spill_dir = parse_value::<String>(args, "--spill-dir")?;
    let keep_spill = parse_flag(args, "--keep-spill");
    let make_oo = |b: u64| {
        let mut oo = OocoreConfig::new(b).with_keep_spill(keep_spill);
        if let Some(d) = &spill_dir {
            oo = oo.with_spill_dir(d);
        }
        ExecutorKind::OutOfCore(oo)
    };
    let parsed = match parse_value::<String>(args, "--executor")? {
        Some(name) => Some(ExecutorKind::parse(&name).ok_or_else(|| {
            format!("unknown --executor '{name}' (thread|oocore|process|remote)")
        })?),
        None => env(cfp_env::executor)?,
    };
    let fallback = env(cfp_env::executor_fallback)?;
    let timeout = env(cfp_env::net_timeout)?;
    let executor = match parsed {
        Some(ExecutorKind::OutOfCore(_)) => Some(make_oo(budget.unwrap_or(0))),
        Some(ExecutorKind::Subprocess(_)) => {
            // Closure-step workers rebuild the vertical index from the
            // dataset (the executor hands it to no others); a failed worker
            // falls back in-process when CFP_EXECUTOR_FALLBACK=1. Workers
            // inherit CFP_FAULT with the rest of the environment.
            let mut sp = SubprocessConfig::new()
                .with_db_path(path)
                .with_fallback_in_process(fallback == Some(true));
            sp.timeout = timeout;
            Some(ExecutorKind::Subprocess(sp))
        }
        Some(ExecutorKind::Remote(_)) => {
            // Fallback is on by default for remote: CFP_EXECUTOR_FALLBACK=0
            // turns a retry-exhausted shard into a typed error instead.
            let workers = setting(args, "--workers", cfp_env::parse_workers, cfp_env::workers)?
                .ok_or("--executor remote needs --workers host:port,... or CFP_WORKERS")?;
            let mut rc = RemoteConfig::default()
                .with_workers(workers)
                .with_fallback_in_thread(fallback != Some(false))
                .with_fault(env(cfp_env::fault_plan)?.unwrap_or_default());
            if let Some(t) = timeout {
                rc = rc.with_timeout(t);
            }
            if let Some(n) = env(cfp_env::net_attempts)? {
                rc = rc.with_attempts(n);
            }
            Some(ExecutorKind::Remote(rc))
        }
        Some(ExecutorKind::InThread) => Some(ExecutorKind::InThread),
        None => budget.map(make_oo),
    };
    // Only the out-of-core backend writes to disk: a spill flag on any
    // other run would do nothing, so it is refused rather than ignored.
    if !matches!(executor, Some(ExecutorKind::OutOfCore(_))) {
        if let Some(flag) = ["--spill-dir", "--keep-spill"]
            .into_iter()
            .find(|flag| args.iter().any(|a| a == flag))
        {
            return Err(format!(
                "{flag} applies only to out-of-core runs (--mem-budget, CFP_MEM_BUDGET, \
                 or the oocore executor); this run writes no spill files"
            ));
        }
    }
    Ok(executor)
}

/// The `--stats` ball-query line of one iteration, one shard or the
/// boundary repair: how the pairs split between the pruning layers and the
/// exact decisions, and how many of those an accepting bound settled
/// without a kernel call.
fn ball_line(b: &BallQueryStats) -> String {
    format!(
        "    ball: {} pairs, {} cardinality-pruned, {} pivot-pruned, \
         {} exact ({} accepted by bound), {} members",
        b.pairs_total,
        b.cardinality_pruned,
        b.pivot_pruned,
        b.exact_checked,
        b.accepted_by_bound,
        b.ball_members
    )
}

fn cmd_dump(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("dump: missing <file.dat>".into());
    };
    let out = parse_value::<String>(args, "--out")?.ok_or("dump: missing --out <pool.slab>")?;
    let db = load(path)?;
    if db.is_empty() {
        return Err("dataset has no transactions".into());
    }
    let min_count = min_count(args, &db)?;
    let pool_len = parse_value::<usize>(args, "--pool-len")?.unwrap_or(3);
    let threads = match parse_value::<usize>(args, "--threads")? {
        Some(t) => t.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let t0 = std::time::Instant::now();
    let (pool, stats) = colossal::miners::initial_pool_slab(&db, min_count, pool_len, threads);
    let bytes = slab_io::dump_slab_path(&pool, &out).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "dumped {} pool patterns (size ≤ {pool_len}, min support {min_count}) to {out}: \
         {:.1} KiB in {:.3}s ({} mine workers)",
        pool.len(),
        bytes as f64 / 1024.0,
        t0.elapsed().as_secs_f64(),
        stats.workers,
    );
    Ok(())
}

fn cmd_load(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("load: missing <pool.slab>".into());
    };
    let pool = slab_io::load_slab_path(path).map_err(|e| format!("loading {path}: {e}"))?;
    println!("pool rows:         {}", pool.len());
    println!("universe (txns):   {}", pool.universe());
    println!("resident bytes:    {}", pool.resident_bytes());
    println!("tid bytes:         {}", pool.tid_bytes());
    if !pool.is_empty() {
        let supports: Vec<usize> = (0..pool.len() as u32).map(|r| pool.support(r)).collect();
        let sizes: Vec<usize> = (0..pool.len() as u32)
            .map(|r| pool.items(r).len())
            .collect();
        println!(
            "support range:     {}..={}",
            supports.iter().min().unwrap(),
            supports.iter().max().unwrap()
        );
        println!(
            "pattern sizes:     {}..={}",
            sizes.iter().min().unwrap(),
            sizes.iter().max().unwrap()
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("stats: missing <file.dat>".into());
    };
    let db = load(path)?;
    println!("transactions:      {}", db.len());
    println!("distinct items:    {}", db.num_items());
    println!("item occurrences:  {}", db.total_occurrences());
    println!("avg txn length:    {:.2}", db.avg_transaction_len());
    let idx = colossal::itemset::VerticalIndex::new(&db);
    let mut supports = idx.item_supports();
    supports.sort_unstable_by(|a, b| b.cmp(a));
    if !supports.is_empty() {
        println!("max item support:  {}", supports[0]);
        println!("median support:    {}", supports[supports.len() / 2]);
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let Some(kind) = args.first() else {
        return Err("generate: missing <kind>".into());
    };
    let seed = parse_value::<u64>(args, "--seed")?.unwrap_or(1);
    let db = match kind.as_str() {
        "diag40" => colossal::datagen::diag(40),
        "diag-plus" => colossal::datagen::diag_plus(40, 20, 39),
        "replace" => {
            let cfg = colossal::datagen::ReplaceConfig {
                seed,
                ..Default::default()
            };
            colossal::datagen::replace_like(&cfg).db
        }
        "all" => {
            let cfg = colossal::datagen::AllLikeConfig {
                seed,
                ..Default::default()
            };
            colossal::datagen::all_like(&cfg).db
        }
        "quest" => {
            let cfg = colossal::datagen::QuestConfig {
                seed,
                ..Default::default()
            };
            colossal::datagen::quest(&cfg)
        }
        other => return Err(format!("unknown kind '{other}' (see --help)")),
    };
    match parse_value::<String>(args, "--out")? {
        Some(path) => {
            let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            write_fimi(&db, &mut f).map_err(|e| e.to_string())?;
            eprintln!("wrote {} transactions to {path}", db.len());
        }
        None => {
            let mut out = std::io::stdout();
            write_fimi(&db, &mut out).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The `serve` subcommand — mines the dataset once through the engine
/// facade, then serves pattern-query traffic on long-lived connections
/// (see `cfp_core::serve`). Announces the bound address on stdout so
/// scripts can scrape an OS-assigned port.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("serve: missing <file.dat>".into());
    };
    let db = load(path)?;
    if db.is_empty() {
        return Err("dataset has no transactions".into());
    }
    let config = mining_config(args, &db)?;
    let (listener, opts) = listen(args)?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "serving {path}: {} transactions, {} items, min support {}, K={}, τ={}",
        db.len(),
        db.num_items(),
        config.min_count,
        config.k,
        config.tau
    );
    println!("cfp serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve_queries(listener, &db, config, &opts).map_err(|e| format!("serve: {e}"))
}

/// The `query` subcommand — one request against a `cfp serve` daemon.
/// Fields are the trailing `key=value` arguments; the reply's body lines
/// print on stdout (the answering epoch goes to stderr).
fn cmd_query(args: &[String]) -> Result<(), String> {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("query: missing <host:port>".into());
    };
    let Some(verb) = args.get(1).filter(|a| !a.starts_with("--")) else {
        return Err("query: missing <verb>".into());
    };
    let timeout = parse_value::<u64>(args, "--timeout")?.unwrap_or(10_000);
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for arg in &args[2..] {
        if arg.starts_with("--") {
            continue;
        }
        // Fields always contain '='; a bare token here is the value that
        // trails a --flag (e.g. --timeout 5000), not a field.
        if let Some((k, v)) = arg.split_once('=') {
            fields.push((k, v));
        }
    }
    let mut client = QueryClient::connect(
        addr.as_str(),
        std::time::Duration::from_millis(timeout.max(1)),
    )
    .map_err(|e| format!("connecting {addr}: {e}"))?;
    let reply = client.request(verb, &fields).map_err(|e| e.to_string())?;
    eprintln!("epoch={}", reply.epoch);
    for line in &reply.lines {
        println!("{line}");
    }
    client.bye();
    Ok(())
}

/// `shard-host --stdio` — the worker half of the subprocess executor:
/// serves one shard conversation (the worker interchange protocol) on
/// stdin/stdout, which carries frames only, then exits with the session's
/// code (0 ok, 2 slab I/O, 3 malformed request or dataset, 1 otherwise).
fn cmd_shard_host_stdio(args: &[String]) -> ExitCode {
    // A `String` value always parses, and `main` has validated CFP_FAULT.
    let db = parse_value::<String>(args, "--db").ok().flatten();
    let fault = cfp_env::fault_plan().ok().flatten().unwrap_or_default();
    let session = net::serve_session(
        std::io::stdin().lock(),
        std::io::BufWriter::with_capacity(net::SLAB_CHUNK_BYTES, std::io::stdout().lock()),
        db.as_deref().map(std::path::Path::new),
        &HostOptions::default().with_fault(fault),
    );
    match session {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cfp shard-host: {e}");
            ExitCode::from(u8::try_from(e.exit).unwrap_or(1))
        }
    }
}

/// The `shard-host` subcommand — the worker half of the remote executor
/// (the worker interchange protocol). Binds, announces the bound address on
/// stdout (an OS-assigned `:0` port is the fixture-friendly default), and
/// serves one shard request per connection until `--max-conns` runs out.
fn cmd_shard_host(args: &[String]) -> Result<(), String> {
    if parse_flag(args, "--db") {
        return Err("shard-host: --db needs --stdio (TCP hosts serve no dataset)".into());
    }
    let (listener, daemon) = listen(args)?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut opts = HostOptions {
        daemon,
        ..HostOptions::default()
    }
    .with_fault(env(cfp_env::fault_plan)?.unwrap_or_default());
    if let Some(ms) = parse_value::<u64>(args, "--heartbeat")? {
        opts = opts.with_heartbeat(std::time::Duration::from_millis(ms.max(1)));
    }
    // Announce on stdout (flushed) so scripts can scrape the port even
    // when it was OS-assigned.
    println!("cfp shard-host listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    net::serve(listener, &opts).map_err(|e| format!("serve: {e}"))
}
