//! The one reader of every `CFP_*` environment variable.
//!
//! Each variable has exactly one decoder, here, and the library takes its
//! settings as config values: the `cfp` CLI reads the environment through
//! this module and applies what it finds to the configs it builds
//! (`CFP_NET_TIMEOUT`, `CFP_NET_ATTEMPTS` and `CFP_FAULT` included), so a
//! daemon and a batch run given the same environment cannot disagree about
//! what it means, and no input can mean two things. Two reads sit below the
//! CLI, for CI's determinism legs, which push the whole test suite through
//! one setting without touching a call site:
//!
//! * [`crate::FusionConfig::new`] takes its sharding from [`sharding`]
//!   (`CFP_SHARDS`, `CFP_SHARD_STRATEGY`);
//! * [`KernelBackend::detect`] reads `CFP_KERNEL_BACKEND` through
//!   [`KernelBackend::parse`], the grammar [`parse_kernel_backend`] shares
//!   (the kernel layer sits below this crate).
//!
//! Both panic on a malformed value. Rule 14 of
//! `scripts/check_no_pool_clone.sh` keeps any other reader out.
//!
//! The contract, shared by every variable:
//!
//! * **unset, or empty after trimming, means the default** — an empty
//!   string can come from shell quoting accidents and must never be an
//!   error;
//! * **set but malformed is a hard [`EnvError`]** — never a silent
//!   fallback. `CFP_SHARDS=fuor` quietly running unsharded would
//!   invalidate exactly the determinism sweep the knob exists for, and
//!   `CFP_MEM_BUDGET=1x` quietly mining in-memory would fake an
//!   out-of-core result.
//!
//! Each variable has a pure `parse_*` function (tested without touching
//! the process environment, which is shared mutable state across the
//! parallel test harness) plus a thin process-environment reader. The
//! `cfp` CLI calls [`validate_all`] once at startup so every malformed
//! variable fails loudly before any work starts, and its flags parse
//! through the `parse_*` function of the variable they override.

use crate::executor::ExecutorKind;
use crate::net::FaultPlan;
use crate::oocore;
use crate::shard::{ShardStrategy, Sharding};
use crate::KernelBackend;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A set-but-malformed `CFP_*` environment variable. The message names the
/// variable, echoes the rejected value verbatim, and says what would have
/// parsed — the same shape for all variables, so a failed CI sweep reads
/// the same no matter which knob was mistyped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// Which variable was malformed.
    pub var: &'static str,
    /// The rejected value, verbatim.
    pub value: String,
    /// What would have parsed.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}='{}': expected {} (unset or empty means the default)",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// An environment variable that is set, non-empty after trimming, and
/// readable — the only state that can carry a malformed value.
pub fn var_set(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|v| !v.trim().is_empty())
}

/// Reads and strictly parses one variable: unset/empty → `Ok(None)`,
/// malformed → `Err`, otherwise `Ok(Some(parsed))`.
fn read<T>(var: &'static str, parse: impl Fn(&str) -> Result<T, EnvError>) -> OptEnv<T> {
    match var_set(var) {
        Some(v) => parse(&v).map(Some),
        None => Ok(None),
    }
}

/// `Ok(None)` = unset (use the default); `Err` = set but malformed.
pub type OptEnv<T> = Result<Option<T>, EnvError>;

// ---------------------------------------------------------------------------
// Pure parsers — one per variable, each returning the typed EnvError that
// names its variable.
// ---------------------------------------------------------------------------

/// `parsed`, or the typed error naming `var` and echoing `raw`.
fn named<T>(
    parsed: Option<T>,
    var: &'static str,
    raw: &str,
    expected: &'static str,
) -> Result<T, EnvError> {
    parsed.ok_or_else(|| EnvError {
        var,
        value: raw.to_string(),
        expected,
    })
}

/// A trimmed decimal of at least 1.
fn at_least_one<T: FromStr + Ord + From<u8>>(raw: &str) -> Option<T> {
    raw.trim().parse().ok().filter(|n| *n >= T::from(1))
}

/// `CFP_SHARDS`: a shard count, trimmed decimal ≥ 1.
pub fn parse_shards(raw: &str) -> Result<usize, EnvError> {
    let expected = "a shard count of at least 1";
    named(at_least_one(raw), "CFP_SHARDS", raw, expected)
}

/// `CFP_SHARD_STRATEGY`: `stratum` / `minhash` (case-insensitive, with
/// aliases; see [`ShardStrategy::parse`]).
pub fn parse_shard_strategy(raw: &str) -> Result<ShardStrategy, EnvError> {
    let expected = "'stratum' or 'minhash'";
    named(
        ShardStrategy::parse(raw),
        "CFP_SHARD_STRATEGY",
        raw,
        expected,
    )
}

/// `CFP_MEM_BUDGET`: a byte count with optional binary-magnitude suffix
/// (`k`/`kb`/`kib`, `m`/…, `g`/…; see [`oocore::parse_budget`]).
pub fn parse_mem_budget(raw: &str) -> Result<u64, EnvError> {
    let expected = "a byte count with optional k/m/g suffix (binary multiples)";
    named(oocore::parse_budget(raw), "CFP_MEM_BUDGET", raw, expected)
}

/// `CFP_NET_TIMEOUT`: whole milliseconds, at least 1.
pub fn parse_net_timeout(raw: &str) -> Result<Duration, EnvError> {
    let expected = "a timeout in whole milliseconds, at least 1";
    let ms = at_least_one(raw).map(Duration::from_millis);
    named(ms, "CFP_NET_TIMEOUT", raw, expected)
}

/// `CFP_NET_ATTEMPTS`: a per-shard attempt budget, at least 1.
pub fn parse_net_attempts(raw: &str) -> Result<usize, EnvError> {
    let expected = "an attempt count of at least 1";
    named(at_least_one(raw), "CFP_NET_ATTEMPTS", raw, expected)
}

/// `CFP_FAULT`: a deterministic fault schedule ([`FaultPlan::parse`]). Any
/// set value is an error in a build without fault injection compiled in.
pub fn parse_fault_plan(raw: &str) -> Result<FaultPlan, EnvError> {
    let expected = "a fault schedule like 'drop-conn:shard1:attempt0,stall-mine:shard0' \
                    in a build with --features fault-inject";
    named(FaultPlan::parse(raw).ok(), "CFP_FAULT", raw, expected)
}

/// `CFP_EXECUTOR`: a backend name (`thread` / `oocore` / `process` /
/// `remote`, with aliases; see [`ExecutorKind::parse`]), returned
/// default-configured — callers layer flags and the other `CFP_*`
/// variables on top.
pub fn parse_executor(raw: &str) -> Result<ExecutorKind, EnvError> {
    let expected = "one of thread|oocore|process|remote";
    named(ExecutorKind::parse(raw), "CFP_EXECUTOR", raw, expected)
}

/// `CFP_EXECUTOR_FALLBACK`: exactly `1` (fall back) or `0` (hard error),
/// trimmed. A typo'd `CFP_EXECUTOR_FALLBACK=yes` silently keeping the
/// default fallback policy would be indistinguishable from the knob
/// working.
pub fn parse_executor_fallback(raw: &str) -> Result<bool, EnvError> {
    let fallback = match raw.trim() {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    };
    let expected = "'1' (fall back) or '0' (hard error)";
    named(fallback, "CFP_EXECUTOR_FALLBACK", raw, expected)
}

/// `CFP_WORKERS`: a comma-separated list of `host:port` worker addresses,
/// at least one non-empty entry after trimming.
pub fn parse_workers(raw: &str) -> Result<Vec<String>, EnvError> {
    let workers: Vec<String> = raw
        .split(',')
        .map(|w| w.trim().to_string())
        .filter(|w| !w.is_empty())
        .collect();
    let expected = "a comma-separated list of host:port worker addresses";
    named(
        Some(workers).filter(|w| !w.is_empty()),
        "CFP_WORKERS",
        raw,
        expected,
    )
}

/// `CFP_KERNEL_BACKEND`: a kernel ceiling, `scalar` | `sse2` | `avx2`
/// (trimmed, case-insensitive; see [`KernelBackend::parse`]).
pub fn parse_kernel_backend(raw: &str) -> Result<KernelBackend, EnvError> {
    let expected = "one of scalar|sse2|avx2";
    named(
        KernelBackend::parse(raw),
        "CFP_KERNEL_BACKEND",
        raw,
        expected,
    )
}

// ---------------------------------------------------------------------------
// Process-environment readers.
// ---------------------------------------------------------------------------

/// `CFP_SHARDS`, strictly parsed.
pub fn shards() -> OptEnv<usize> {
    read("CFP_SHARDS", parse_shards)
}

/// `CFP_SHARD_STRATEGY`, strictly parsed.
pub fn shard_strategy() -> OptEnv<ShardStrategy> {
    read("CFP_SHARD_STRATEGY", parse_shard_strategy)
}

/// The full sharding default from `CFP_SHARDS` + `CFP_SHARD_STRATEGY`,
/// which [`crate::FusionConfig::new`] starts from.
pub fn sharding() -> Result<Sharding, EnvError> {
    let mut out = Sharding::default();
    if let Some(n) = shards()? {
        out.shards = n;
    }
    if let Some(s) = shard_strategy()? {
        out.strategy = s;
    }
    Ok(out)
}

/// `CFP_MEM_BUDGET`, strictly parsed.
pub fn mem_budget() -> OptEnv<u64> {
    read("CFP_MEM_BUDGET", parse_mem_budget)
}

/// `CFP_NET_TIMEOUT`, strictly parsed.
pub fn net_timeout() -> OptEnv<Duration> {
    read("CFP_NET_TIMEOUT", parse_net_timeout)
}

/// `CFP_NET_ATTEMPTS`, strictly parsed.
pub fn net_attempts() -> OptEnv<usize> {
    read("CFP_NET_ATTEMPTS", parse_net_attempts)
}

/// `CFP_FAULT`, strictly parsed.
pub fn fault_plan() -> OptEnv<FaultPlan> {
    read("CFP_FAULT", parse_fault_plan)
}

/// `CFP_EXECUTOR`, strictly parsed to a default-configured kind.
pub fn executor() -> OptEnv<ExecutorKind> {
    read("CFP_EXECUTOR", parse_executor)
}

/// `CFP_EXECUTOR_FALLBACK`, strictly parsed.
pub fn executor_fallback() -> OptEnv<bool> {
    read("CFP_EXECUTOR_FALLBACK", parse_executor_fallback)
}

/// `CFP_WORKERS`, strictly parsed.
pub fn workers() -> OptEnv<Vec<String>> {
    read("CFP_WORKERS", parse_workers)
}

/// `CFP_KERNEL_BACKEND`, strictly parsed.
pub fn kernel_backend() -> OptEnv<KernelBackend> {
    read("CFP_KERNEL_BACKEND", parse_kernel_backend)
}

/// Validates every `CFP_*` variable this module owns, reporting the first
/// malformed one. `cfp mine` and `cfp serve` call this before any work so
/// a typo'd knob is a clean startup error, not a mid-run surprise (or,
/// worse, a silently ignored setting).
pub fn validate_all() -> Result<(), EnvError> {
    shards()?;
    shard_strategy()?;
    mem_budget()?;
    net_timeout()?;
    net_attempts()?;
    fault_plan()?;
    executor()?;
    executor_fallback()?;
    workers()?;
    kernel_backend()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // One parse-error test per variable, all through the pure parsers so
    // the suite never mutates the shared process environment.

    #[test]
    fn shards_rejects_garbage() {
        for bad in ["fuor", "0", "-2", "4x", "1.5", ""] {
            let e = parse_shards(bad).unwrap_err();
            assert_eq!(e.var, "CFP_SHARDS");
            assert!(e.to_string().contains("CFP_SHARDS"), "{e}");
        }
        assert_eq!(parse_shards(" 4 ").unwrap(), 4);
        assert_eq!(parse_shards("1").unwrap(), 1);
        assert_eq!(parse_shards(" 8 ").unwrap(), 8);
    }

    #[test]
    fn shard_strategy_rejects_garbage() {
        let e = parse_shard_strategy("round-robin").unwrap_err();
        assert_eq!(e.var, "CFP_SHARD_STRATEGY");
        assert_eq!(
            parse_shard_strategy("MinHash").unwrap(),
            ShardStrategy::MinhashBucket
        );
    }

    #[test]
    fn mem_budget_rejects_garbage() {
        for bad in ["1x", "k", "99999999999999999999g", "nope"] {
            let e = parse_mem_budget(bad).unwrap_err();
            assert_eq!(e.var, "CFP_MEM_BUDGET", "value {bad:?}");
        }
        assert_eq!(parse_mem_budget("256k").unwrap(), 256 << 10);
    }

    #[test]
    fn net_timeout_rejects_garbage() {
        for bad in ["0", "fast", "-5", "1s"] {
            let e = parse_net_timeout(bad).unwrap_err();
            assert_eq!(e.var, "CFP_NET_TIMEOUT", "value {bad:?}");
        }
        assert_eq!(
            parse_net_timeout(" 250 ").unwrap(),
            Duration::from_millis(250)
        );
    }

    #[test]
    fn net_attempts_rejects_garbage() {
        for bad in ["0", "many", "-1"] {
            let e = parse_net_attempts(bad).unwrap_err();
            assert_eq!(e.var, "CFP_NET_ATTEMPTS", "value {bad:?}");
        }
        assert_eq!(parse_net_attempts("3").unwrap(), 3);
    }

    #[test]
    fn fault_plan_rejects_garbage() {
        // Without fault-inject compiled in, any set value is an error; with
        // it, a bogus action name is. Either way the typed error names the
        // variable.
        let e = parse_fault_plan("explode-everything:shard0").unwrap_err();
        assert_eq!(e.var, "CFP_FAULT");
        // The plan it returns is the one the coordinator and hosts run.
        let plan = parse_fault_plan("drop-conn:shard1:attempt0").unwrap();
        assert!(plan.fires(crate::FaultAction::DropConn, 1, 0));
        assert!(!plan.fires(crate::FaultAction::DropConn, 1, 1));
    }

    #[test]
    fn executor_rejects_garbage() {
        let e = parse_executor("gpu").unwrap_err();
        assert_eq!(e.var, "CFP_EXECUTOR");
        assert!(matches!(
            parse_executor("Process").unwrap(),
            ExecutorKind::Subprocess(_)
        ));
    }

    #[test]
    fn executor_fallback_rejects_garbage() {
        for bad in ["yes", "true", "2", "on"] {
            let e = parse_executor_fallback(bad).unwrap_err();
            assert_eq!(e.var, "CFP_EXECUTOR_FALLBACK", "value {bad:?}");
        }
        assert!(parse_executor_fallback(" 1 ").unwrap());
        assert!(!parse_executor_fallback("0").unwrap());
    }

    #[test]
    fn workers_rejects_garbage() {
        for bad in [",", " , ,", ""] {
            let e = parse_workers(bad).unwrap_err();
            assert_eq!(e.var, "CFP_WORKERS", "value {bad:?}");
        }
        assert_eq!(
            parse_workers(" a:1 , b:2 ").unwrap(),
            vec!["a:1".to_string(), "b:2".to_string()]
        );
    }

    #[test]
    fn kernel_backend_rejects_garbage() {
        for bad in ["scalr", "avx512", "scalar sse2", "-"] {
            let e = parse_kernel_backend(bad).unwrap_err();
            assert_eq!(e.var, "CFP_KERNEL_BACKEND", "value {bad:?}");
            assert_eq!(e.value, bad);
        }
        for (raw, want) in [
            ("scalar", KernelBackend::Scalar),
            (" SCALAR ", KernelBackend::Scalar),
            ("Sse2", KernelBackend::Sse2),
            ("\tavx2", KernelBackend::Avx2),
        ] {
            assert_eq!(parse_kernel_backend(raw).unwrap(), want, "value {raw:?}");
        }
        // Every backend's own name parses back to it.
        for b in KernelBackend::available() {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn error_message_shape_is_shared() {
        let e = parse_shards("fuor").unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid CFP_SHARDS='fuor': expected a shard count of at least 1 \
             (unset or empty means the default)"
        );
        assert_eq!(e.value, "fuor");
    }
}
