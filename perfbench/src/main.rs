//! `perfbench` — the benchmark's executable.
//!
//! ```text
//! perfbench run --workload <all|replace|replace_shards4|serve> --seed N
//!               --seconds S --trace <0|1> [--scale paper|tiny] [--state-dir D]
//! perfbench pin                      print pins.txt (seeds 0-31)
//! perfbench cold|daemon ...          child processes `run` launches
//! ```
//!
//! `run` prints informational lines, then one JSON result line (last):
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. `run.py` builds this executable and forwards to `run`.

use cfp_perfbench::report::{END_TO_END, PER_LAYER};
use cfp_perfbench::workload::{self, Scale, Workload, WORKLOADS};
use cfp_perfbench::{batch, oracle, serve, RunOpts};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A run that has not finished by now is abandoned, inside the 180 s a
/// run may take.
const DEADLINE: Duration = Duration::from_secs(170);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("cold") => cmd_cold(rest),
        Some("daemon") => cmd_daemon(rest),
        Some("pin") => cmd_pin(),
        _ => Err("usage: perfbench run|pin|cold|daemon [options] (see src/main.rs)".into()),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// The value after `--name`, if given.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    let v = required(args, name)?;
    v.parse()
        .map_err(|_| format!("{name} wants a whole number, not '{v}'"))
}

fn scale(args: &[String]) -> Result<Scale, String> {
    let v = flag(args, "--scale").unwrap_or("paper");
    Scale::parse(v).ok_or_else(|| format!("unknown --scale '{v}'"))
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let v = required(args, "--workload")?;
    Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))
}

/// The engine reads `CFP_*` variables (shard count, kernel backend,
/// timeouts); a run under any of them would measure another
/// configuration.
fn refuse_cfp_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CFP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    refuse_cfp_env()?;
    let w = workload_arg(args)?;
    let seed = number(args, "--seed")?;
    let seconds = number(args, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace wants 0 or 1, not '{v}'")),
    };
    let state = PathBuf::from(flag(args, "--state-dir").unwrap_or(".bench_build/perfbench"));
    let opts = RunOpts {
        seed,
        seconds: Duration::from_secs(seconds),
        work_dir: state.join(format!("work-{}", std::process::id())),
        trace_dir: state.join("traces"),
        scale: scale(args)?,
    };
    for dir in [&opts.work_dir, &opts.trace_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // Children end on their own when this process exits: the daemon on
    // stdin EOF, a cold mine when it finishes.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!(
            "perfbench: run exceeded {} s; abandoning it",
            DEADLINE.as_secs()
        );
        std::process::exit(2);
    });
    let outcome = match (w, trace) {
        (Workload::Serve, false) => serve::run(&opts),
        (Workload::Serve, true) => serve::run_traced(&opts),
        (_, false) => batch::run(w, &opts),
        (_, true) => batch::run_traced(w, &opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    outcome?.print(if trace { PER_LAYER } else { END_TO_END });
    Ok(())
}

fn cmd_cold(args: &[String]) -> Result<(), String> {
    let fimi = Path::new(required(args, "--fimi")?);
    batch::cold_main(
        workload_arg(args)?,
        scale(args)?,
        number(args, "--seed")?,
        fimi,
    )
}

fn cmd_daemon(args: &[String]) -> Result<(), String> {
    let fimi = Path::new(required(args, "--fimi")?);
    serve::daemon_main(scale(args)?, number(args, "--seed")?, fimi)
}

/// Prints one `pins.txt` line per workload and pinned seed: the input
/// digest and the digest of `Engine::mine` over the (launch) database.
fn cmd_pin() -> Result<(), String> {
    refuse_cfp_env()?;
    for w in WORKLOADS {
        for seed in workload::PINNED_SEEDS {
            let input = workload::generate(w, Scale::Paper, seed);
            let mut cfg = workload::config(w, Scale::Paper, seed);
            cfg.threads = Some(2);
            let (db, result) = batch::mine_once(&input.fimi, &cfg)?;
            let result = oracle::digest(&oracle::canon(&db, &result.patterns));
            println!(
                "{} {seed} {:016x} {result:016x}",
                w.name(),
                workload::input_digest(&input)
            );
        }
    }
    Ok(())
}
