//! Out-of-core partitioned mining: bound resident slab bytes by spilling
//! shard sub-pools to disk and mining them in budgeted batches.
//!
//! The paper's premise is that colossal-pattern databases are the ones too
//! big to enumerate — and the columnar [`PatternPool`] slab is a file
//! format in all but name ([`cfp_itemset::slab_io`]). Like Grahne & Zhu's
//! secondary-memory miner, this backend mines each on-disk partition with
//! the ordinary in-memory machinery: it spills every shard sub-pool
//! (streamed row-by-row from the base slab, never materialized as an
//! in-memory copy), drops the pool, and mines the shards one budget-full at
//! a time through the same slab-mining routine a worker host runs — each
//! shard loaded, fused, archived as owned patterns, and evicted before the
//! next batch. The archives then run through the shared deterministic
//! merge + boundary repair (`PatternFusion::merge_shard_outputs`).
//!
//! This is the only backend that writes the pool to disk. The in-thread,
//! process and remote backends keep it resident; the two wire backends
//! mine an empty or fallen-back shard over it in-thread.
//!
//! # The memory budget
//!
//! `CFP_MEM_BUDGET` (or [`OocoreConfig::new`]) bounds the **summed resident
//! slab bytes of each fusion pass**: consecutive shards are greedily
//! batched while their loaded sub-pool slabs fit the budget, with a floor
//! of one shard per pass (a single shard larger than the budget still has
//! to be mined). Budget 0 means unlimited — one pass over all shards,
//! which still exercises the full spill/evict/load cycle.
//!
//! Two phases necessarily hold more than a batch:
//!
//! * the **mine phase** builds the full pool slab in memory once before it
//!   is spilled (mining the initial pool itself out-of-core is future
//!   work);
//! * the **merge phase** holds the per-shard archives (≤ ~shards·K owned
//!   patterns) in a merge store. When boundary repair's full-pool round
//!   will read the pool (more than one shard, pool within
//!   [`FULL_REPAIR_POOL_LIMIT`]; the bit-identity contract requires that
//!   round), the store's base is the pool rebuilt from the shard slabs,
//!   loaded back in shard order — the shards partition the pool, so no
//!   second copy of it is spilled. Otherwise the base is empty.
//!
//! [`OocoreStats`] reports all of it: passes, spill/load bytes and times,
//! the peak per-pass residency the budget actually bounded, and the
//! bytes-touched-vs-in-memory ratio.
//!
//! # Bit-identity with the in-memory sharded engine
//!
//! The output is **bit-identical** to [`PatternFusion::run`] at the same
//! K, seed, shard count, and strategy (proven in
//! `tests/oocore_equivalence.rs`, at any thread count): a spilled shard
//! slab holds exactly the shard's rows in sub-pool order, archives travel
//! as owned patterns whose interning makes row identity itemset identity,
//! and every downstream pass is keyed on pattern content and list order,
//! never on row id values. The contract assumes the pool's itemsets are
//! distinct (guaranteed for mined pools).

use crate::algorithm::{threads_for, PatternFusion};
use crate::executor::{shard_config, ExecutorError, ShardExecution, ShardPlan, ShardRun};
use crate::parallel::run_tasks;
use crate::pool::PoolStore;
use crate::shard::{MergePattern, FULL_REPAIR_POOL_LIMIT};
use crate::stats::{OocoreStats, RunStats};
use cfp_itemset::{slab_io, PatternPool, SlabIoError};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinguishes concurrently running out-of-core runs' spill directories
/// within one process (the name also carries the pid).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Configuration of an out-of-core run (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct OocoreConfig {
    /// Resident-slab-bytes bound per fusion pass. 0 = unlimited (one pass).
    pub mem_budget: u64,
    /// Where spill files go; `None` → a unique directory under the system
    /// temp dir, removed when the run finishes.
    pub spill_dir: Option<PathBuf>,
    /// Keep the spill directory after the run (for inspection).
    pub keep_spill: bool,
}

impl OocoreConfig {
    /// A config with the given per-pass resident-bytes budget.
    pub fn new(mem_budget: u64) -> Self {
        Self {
            mem_budget,
            ..Default::default()
        }
    }

    /// Overrides the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Keeps spill files after the run.
    pub fn with_keep_spill(mut self, keep: bool) -> Self {
        self.keep_spill = keep;
        self
    }
}

/// Parses a byte-count string: a plain integer, optionally suffixed with a
/// binary magnitude (`k`, `kb`, `kib`, `m`, `mb`, `mib`, `g`, `gb`, `gib`;
/// case-insensitive). `None` on anything else or on overflow.
pub fn parse_budget(s: &str) -> Option<u64> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = SUFFIXES
        .iter()
        .find_map(|&(suf, mult)| t.strip_suffix(suf).map(|d| (d, mult)))
        .unwrap_or((t.as_str(), 1));
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// Magnitude suffixes, longest-first so `strip_suffix` never truncates
/// `kib` to `b`-less `k` early.
const SUFFIXES: [(&str, u64); 9] = [
    ("kib", 1 << 10),
    ("mib", 1 << 20),
    ("gib", 1 << 30),
    ("kb", 1 << 10),
    ("mb", 1 << 20),
    ("gb", 1 << 30),
    ("k", 1 << 10),
    ("m", 1 << 20),
    ("g", 1 << 30),
];

/// What went wrong driving an out-of-core run.
#[derive(Debug)]
pub enum OocoreError {
    /// A spill file failed to write, read back, or validate.
    Slab(SlabIoError),
    /// Spill-directory management failed.
    Io(std::io::Error),
    /// A user-supplied spill directory already contains files. The
    /// run's cleanup guard would delete the directory afterwards (unless
    /// `keep_spill` is set), so a populated directory is refused up front
    /// rather than silently reused and destroyed.
    SpillDirNotEmpty(PathBuf),
}

impl fmt::Display for OocoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Slab(e) => write!(f, "out-of-core spill slab: {e}"),
            Self::Io(e) => write!(f, "out-of-core spill dir: {e}"),
            Self::SpillDirNotEmpty(dir) => write!(
                f,
                "spill dir {} is not empty: refusing to reuse (and later delete) \
                 an existing directory's contents — point --spill-dir at an empty \
                 or new directory",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for OocoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Slab(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::SpillDirNotEmpty(_) => None,
        }
    }
}

impl From<SlabIoError> for OocoreError {
    fn from(e: SlabIoError) -> Self {
        Self::Slab(e)
    }
}

impl From<std::io::Error> for OocoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Resident bytes the selected rows will occupy once loaded as a
/// standalone slab — the batching currency (identical to the loaded
/// slab's `resident_bytes()`).
fn rows_resident_bytes(pool: &PatternPool, rows: &[u32]) -> u64 {
    let items: u64 = rows.iter().map(|&r| pool.items(r).len() as u64).sum();
    let per_row = pool.words_per_row() as u64 * 8 + pool.suf_stride() as u64 * 4 + 4 + 4;
    rows.len() as u64 * per_row + 4 + items * 4
}

impl PatternFusion<'_> {
    /// The out-of-core executor backend (see [`crate::executor`]): spill
    /// every shard sub-pool, **evict the resident store**, mine the shards
    /// in budget-bounded batches, and hand back owned archives with a merge
    /// store whose base is the pool rebuilt from the shard slabs when
    /// boundary repair's full-pool round will read it. Stamps
    /// [`RunStats::oocore`].
    pub(crate) fn execute_out_of_core(
        &self,
        store: PoolStore,
        plan: &ShardPlan<'_>,
        oo: &OocoreConfig,
        stats: &mut RunStats,
    ) -> Result<ShardExecution, ExecutorError> {
        let n = plan.n;
        let mut oostats = OocoreStats {
            budget_bytes: oo.mem_budget,
            in_memory_resident_bytes: store.resident_bytes() as u64,
            shards_spilled: n,
            ..Default::default()
        };
        let t_spill = Instant::now();
        let (spill, sub_rows, shard_bytes) = spill_sub_pools(&store, plan, oo)?;
        let base = store.base_pool();
        let shard_resident: Vec<u64> = sub_rows
            .iter()
            .map(|rows| rows_resident_bytes(base, rows))
            .collect();
        let reload_pool = n > 1 && plan.rows.len() <= FULL_REPAIR_POOL_LIMIT;
        oostats.spill_bytes = shard_bytes;
        oostats.spill_time = t_spill.elapsed();
        // Every shard slab is loaded back once to be mined, and once more
        // when it rebuilds the merge base.
        oostats.load_bytes = if reload_pool {
            2 * shard_bytes
        } else {
            shard_bytes
        };
        let universe = store.universe();

        // Evict the full pool: from here on, only spilled slabs exist.
        drop(store);

        // Fusion passes: greedy consecutive batches under the budget
        // (floor one shard), each shard loaded and mined on the
        // work-stealing pool and dropped on return.
        let mut runs = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            let mut sum = shard_resident[start];
            while end < n && (oo.mem_budget == 0 || sum + shard_resident[end] <= oo.mem_budget) {
                sum += shard_resident[end];
                end += 1;
            }
            oostats.peak_resident_bytes = oostats.peak_resident_bytes.max(sum);
            oostats.passes += 1;
            let mined = run_tasks(end - start, threads_for(self.config()), |i| {
                self.mine_spilled_shard(start + i, plan, &spill.dir)
            });
            for shard in mined {
                let (run, load_time) = shard?;
                oostats.load_time += load_time;
                runs.push(run);
            }
            start = end;
        }

        // The merge store's base is the pool rebuilt from the shard slabs
        // in shard order; `pool_rows` lists its rows in plan order, the
        // order repair's full-pool round reads and draws from. Row ids
        // differ from the in-memory run's, but interning makes row identity
        // itemset identity, so every comparison downstream is content-equal.
        let mut pool = PatternPool::new(universe);
        let mut pool_rows = Vec::new();
        if reload_pool {
            let t0 = Instant::now();
            for s in 0..n {
                pool.append_pool(&slab_io::load_slab_path(shard_slab_path(&spill.dir, s))?);
            }
            oostats.load_time += t0.elapsed();
            pool_rows = vec![0; plan.rows.len()];
            for (row, &i) in (0u32..).zip(plan.assignment.iter().flatten()) {
                pool_rows[i as usize] = row;
            }
        }
        // `peak_resident_bytes` reports the fusion-pass peak — the quantity
        // the budget bounds; the merge phase is outside it by design.
        stats.oocore = oostats;
        Ok(ShardExecution {
            pool_rows,
            store: PoolStore::new(pool),
            runs,
        })
    }

    /// Loads shard `s`'s spilled slab and mines it: the same sub-pool
    /// content and order under the same derived config as any other
    /// backend's shard, so the run is bit-identical. Returns the run
    /// (`elapsed` stamped, load included) and the slab's load time.
    fn mine_spilled_shard(
        &self,
        s: usize,
        plan: &ShardPlan,
        dir: &Path,
    ) -> Result<(ShardRun, Duration), OocoreError> {
        let t0 = Instant::now();
        let slab = slab_io::load_slab_path(shard_slab_path(dir, s))?;
        let load_time = t0.elapsed();
        let scfg = shard_config(self.config(), plan.seed_budget[s], s, plan.n);
        let (shard_store, out_rows, mut stats) = self.mine_shard_slab(slab, &scfg, s);
        stats.elapsed = t0.elapsed();
        let outputs = out_rows
            .iter()
            .map(|&r| MergePattern::Owned(shard_store.pattern(r)))
            .collect();
        Ok((ShardRun { stats, outputs }, load_time))
    }
}

/// Spills every shard's sub-pool, empty ones included, as a CFPSLAB file
/// streamed row-wise from the base slab. The directory is
/// [`OocoreConfig::spill_dir`], which must be empty, or a fresh
/// `cfp-oocore-<pid>-<seq>` under the system temp dir. Returns its cleanup
/// guard, each shard's sub-pool as base row ids, and the bytes written.
fn spill_sub_pools(
    store: &PoolStore,
    plan: &ShardPlan,
    oo: &OocoreConfig,
) -> Result<(SpillDirGuard, Vec<Vec<u32>>, u64), OocoreError> {
    let dir = match &oo.spill_dir {
        Some(d) => d.clone(),
        None => std::env::temp_dir().join(format!(
            "cfp-oocore-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        )),
    };
    prepare_spill_dir(&dir, oo.spill_dir.is_some())?;
    let guard = SpillDirGuard {
        dir,
        keep: oo.keep_spill,
    };
    let base = store.base_pool();
    let mut sub_rows = Vec::with_capacity(plan.n);
    let mut bytes = 0;
    for s in 0..plan.n {
        let sub = plan.sub_rows(s);
        bytes += slab_io::dump_slab_rows_path(base, &sub, shard_slab_path(&guard.dir, s))?;
        sub_rows.push(sub);
    }
    Ok((guard, sub_rows, bytes))
}

/// The slab [`spill_sub_pools`] writes for shard `s`.
fn shard_slab_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.slab"))
}

/// Creates `dir` if needed and — for a **user-supplied** directory —
/// refuses one that already contains files: the run's cleanup guard
/// deletes the directory afterwards (unless `keep`), and silently reusing
/// then deleting a caller's populated directory destroys their data.
/// Auto-generated temp directories are unique per process and sequence
/// number and skip the check.
fn prepare_spill_dir(dir: &Path, user_supplied: bool) -> Result<(), OocoreError> {
    std::fs::create_dir_all(dir)?;
    if user_supplied && std::fs::read_dir(dir)?.next().is_some() {
        return Err(OocoreError::SpillDirNotEmpty(dir.to_path_buf()));
    }
    Ok(())
}

/// Removes the spill directory when dropped (best-effort), unless asked to
/// keep it — covers both the success path and every early `?` return.
struct SpillDirGuard {
    /// The directory to remove.
    dir: PathBuf,
    /// Leave the directory behind.
    keep: bool,
}

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parsing_accepts_suffixes_and_rejects_junk() {
        assert_eq!(parse_budget("4096"), Some(4096));
        assert_eq!(parse_budget(" 64k "), Some(64 << 10));
        assert_eq!(parse_budget("64K"), Some(64 << 10));
        assert_eq!(parse_budget("2mb"), Some(2 << 20));
        assert_eq!(parse_budget("3MiB"), Some(3 << 20));
        assert_eq!(parse_budget("1g"), Some(1 << 30));
        assert_eq!(parse_budget("1GB"), Some(1 << 30));
        assert_eq!(parse_budget("0"), Some(0));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("fast"), None);
        assert_eq!(parse_budget("12q"), None);
        assert_eq!(parse_budget("99999999999999999999g"), None);
    }

    /// Boundary repair's merge base is rebuilt from the shard slabs: a run
    /// whose repair reads the whole pool spills each pool row once, in the
    /// shard slabs, and loads each slab twice (to mine it, then to rebuild
    /// the base). The output is the in-memory engine's.
    #[test]
    fn spill_holds_only_the_shard_slabs() {
        use crate::{ExecutorKind, FusionConfig, Source};
        let db = cfp_datagen::diag(40);
        let cfg = FusionConfig::new(8, 20)
            .with_pool_max_len(2)
            .with_seed(7)
            .with_shards(3);
        let dir = std::env::temp_dir().join(format!("cfp-oocore-spill-{}", std::process::id()));
        let oo = OocoreConfig::new(64 << 10)
            .with_spill_dir(&dir)
            .with_keep_spill(true);
        let result = cfg
            .engine(&db)
            .with_executor(ExecutorKind::OutOfCore(oo))
            .mine(Source::Transactions)
            .expect("out-of-core run");
        assert!(result.stats.initial_pool_size <= FULL_REPAIR_POOL_LIMIT);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["shard-0.slab", "shard-1.slab", "shard-2.slab"]);
        let spilled: u64 = names
            .iter()
            .map(|name| std::fs::metadata(dir.join(name)).unwrap().len())
            .sum();
        let oos = &result.stats.oocore;
        assert_eq!(oos.spill_bytes, spilled);
        assert_eq!(oos.load_bytes, 2 * spilled);
        let _ = std::fs::remove_dir_all(&dir);

        let inm = cfg.engine(&db).mine(Source::Transactions).unwrap();
        assert_eq!(result.patterns, inm.patterns);
    }

    #[test]
    fn spill_dir_guard_and_preparation() {
        let base =
            std::env::temp_dir().join(format!("cfp-oocore-prep-test-{}", std::process::id()));
        let fresh = base.join("fresh");
        // Fresh (even pre-created empty) user dirs pass.
        prepare_spill_dir(&fresh, true).expect("fresh dir");
        prepare_spill_dir(&fresh, true).expect("existing empty dir");
        // Non-empty user dirs are refused with the typed error...
        std::fs::write(fresh.join("precious.txt"), b"do not delete").unwrap();
        match prepare_spill_dir(&fresh, true) {
            Err(OocoreError::SpillDirNotEmpty(d)) => assert_eq!(d, fresh),
            other => panic!("expected SpillDirNotEmpty, got {other:?}"),
        }
        // ...and the caller's file survives the refusal.
        assert!(fresh.join("precious.txt").is_file());
        // Auto-generated dirs skip the emptiness check.
        prepare_spill_dir(&fresh, false).expect("auto dir reuse");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn resident_estimate_matches_loaded_slab() {
        use cfp_itemset::TidSet;
        let mut pool = PatternPool::new(200);
        for r in 0..20u32 {
            let items: Vec<u32> = (0..=(r % 4)).map(|i| r * 8 + i).collect();
            let tids: Vec<usize> = (0..200).step_by(r as usize + 2).collect();
            pool.push_tidset(&items, &TidSet::from_tids(200, tids));
        }
        for rows in [vec![0u32, 5, 9, 13], (0..20u32).collect::<Vec<_>>(), vec![]] {
            let mut buf = Vec::new();
            slab_io::write_slab_rows(&pool, &rows, &mut buf).unwrap();
            let loaded = slab_io::read_slab(&mut &buf[..]).unwrap();
            assert_eq!(
                rows_resident_bytes(&pool, &rows),
                loaded.resident_bytes() as u64,
                "rows={rows:?}"
            );
        }
    }
}
