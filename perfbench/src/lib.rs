//! End-to-end benchmark of the Pattern-Fusion workspace.
//!
//! Four workloads — `all`, `replace`, `replace_shards4` and `serve` (see
//! [`workload`]) — run against the release build through the program's
//! front doors only: `FusionConfig::engine(..).mine(Source::Transactions)`
//! for the batch mines and the v3 serve protocol through `QueryClient` for
//! the daemon. A separate traced run ([`trace`]) replays each workload
//! through the public layer pieces and attributes its wall clock to the
//! crate modules it passes through. `README.md` beside this crate explains
//! the choices; `run.py` builds this crate and runs one workload.

pub mod batch;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::Duration;

/// What one invocation of `perfbench run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload's seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: Duration,
    /// Scratch directory for the input files the child processes read.
    pub work_dir: PathBuf,
    /// Directory the traced run writes its spans to.
    pub trace_dir: PathBuf,
    /// Input size: the paper-scale datasets, or the scaled-down smoke
    /// instances.
    pub scale: workload::Scale,
}

/// Parses FIMI bytes — the program's input format — into a database.
pub fn parse(fimi: &[u8]) -> Result<cfp_itemset::TransactionDb, String> {
    let text = std::str::from_utf8(fimi).map_err(|e| format!("parsing the input: {e}"))?;
    cfp_itemset::parse_fimi(text).map_err(|e| format!("parsing the input: {e}"))
}

/// The benchmark's own executable, for the cold-start and daemon child
/// processes it launches.
pub fn self_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("locating the benchmark executable: {e}"))
}
