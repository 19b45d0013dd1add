//! Out-of-core partitioned mining: bound resident slab bytes by spilling
//! shard sub-pools to disk and mining them in budgeted batches.
//!
//! The paper's premise is that colossal-pattern databases are the ones too
//! big to enumerate — and the columnar [`PatternPool`] slab is a file
//! format in all but name ([`cfp_itemset::slab_io`]). This driver closes
//! the loop: the existing content-keyed shard partitioner
//! ([`crate::shard::partition`]) cuts the initial pool into sub-pools, each
//! sub-pool is **spilled as an on-disk shard slab** (streamed row-by-row,
//! never materialized as an in-memory copy), the full pool slab is dropped,
//! and shards are mined one budget-full at a time — loaded, fused, archived
//! as owned patterns, and evicted before the next batch. The per-shard
//! archives then run through the *same* deterministic merge + boundary
//! repair as the in-memory sharded engine
//! (`PatternFusion::merge_shard_outputs`).
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
//!   patterns) plus — only when the pool is within
//!   [`FULL_REPAIR_POOL_LIMIT`] — a one-shot reload of the pool slab for
//!   boundary repair's full-pool round, which the bit-identity contract
//!   requires. Beyond that limit the repair round never touches pool rows,
//!   so nothing is reloaded.
//!
//! [`OocoreStats`] reports all of it: passes, spill/load bytes and times,
//! the peak per-pass residency the budget actually bounded, and the
//! bytes-touched-vs-in-memory ratio.
//!
//! # Bit-identity with the in-memory sharded engine
//!
//! The output is **bit-identical** to [`PatternFusion::run`] at the same
//! K, seed, shard count, and strategy (proven in
//! `tests/oocore_equivalence.rs`, at any thread count). The argument:
//!
//! * shard assignment is a pure function of pool content, and a spilled
//!   shard slab holds exactly the shard's rows in pool order, so each
//!   shard's fusion loop sees the same sub-pool content in the same order
//!   — ball-index tie-breaks are by pool *position*, never by row id;
//! * per-shard archives travel as owned patterns; under interning, row
//!   identity is itemset identity, so first-occurrence dedup in shard
//!   order resolves identically in a fresh merge store;
//! * every downstream pass (rank, boundary repair, subsumption pruning,
//!   fusion itself) is keyed on pattern content and list order, not on row
//!   id values.
//!
//! The contract assumes the pool's itemsets are distinct (guaranteed for
//! mined pools; a hand-built slab with duplicate rows would dedup here but
//! not in memory).

use crate::algorithm::{threads_for, FusionResult, PatternFusion};
use crate::executor::{
    prepare_spill_dir, shard_stats_of, ExecutorError, ExecutorKind, ShardExecution, ShardPlan,
    ShardRun, SpillDirGuard,
};
use crate::parallel::run_tasks;
use crate::pattern::Pattern;
use crate::pool::{materialize, PoolStore};
use crate::shard::{MergePattern, FULL_REPAIR_POOL_LIMIT};
use crate::stats::{OocoreStats, PoolStats, RunStats};
use cfp_itemset::{slab_io, PatternPool, SlabIoError};
use cfp_miners::PoolMineStats;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinguishes concurrently running drivers' spill directories within one
/// process (the directory name also carries the pid).
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

    /// Reads `CFP_MEM_BUDGET` (a byte count, optionally suffixed `k`/`m`/`g`
    /// — also `kb`/`kib` forms — in binary multiples): `Some` config when
    /// the variable is set and parses, `None` when unset, and a hard
    /// [`crate::env::EnvError`] when set but malformed — a typo'd budget
    /// silently mining in-memory would fake an out-of-core result.
    pub fn try_from_env() -> Result<Option<Self>, crate::env::EnvError> {
        Ok(crate::env::mem_budget()?.map(Self::new))
    }

    /// [`OocoreConfig::try_from_env`] for quiet library call sites: a
    /// malformed value reads as unset. The `cfp` CLI validates the
    /// environment up front ([`crate::env::validate_all`]) so it never
    /// reaches this leniency.
    pub fn from_env() -> Option<Self> {
        Self::try_from_env().ok().flatten()
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
    /// A user-supplied spill/work directory already contains files. The
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

/// One mined shard, carried between the fusion passes and the merge as
/// owned data — the backing slab is evicted the moment the task returns.
struct ShardOutcome {
    patterns: Vec<Pattern>,
    run: RunStats,
    pool_size: usize,
    elapsed: Duration,
    load_bytes: u64,
    load_time: Duration,
}

impl PatternFusion<'_> {
    /// The out-of-core tail behind [`Engine::mine`](crate::Engine::mine):
    /// spill the pool as per-shard slabs, evict it, and mine/fuse the
    /// shards in batches bounded by `oo.mem_budget` — bit-identical to the
    /// in-memory engine at the same config (see the module docs). Stamps its
    /// own pool statistics, because the pool it reports on is evicted.
    pub(crate) fn run_oocore_store(
        &self,
        store: PoolStore,
        mine: PoolMineStats,
        oo: &OocoreConfig,
    ) -> Result<FusionResult, OocoreError> {
        let cfg = self.config();
        let n = cfg.sharding.shards.max(1);
        let pool_len = store.base_len();
        let base_tid_bytes = store.tid_bytes();
        let base_resident = store.resident_bytes();

        if pool_len == 0 {
            let mut stats = RunStats {
                initial_pool_size: 0,
                kernel_backend: cfp_itemset::kernels::Backend::active(),
                ..Default::default()
            };
            stats.oocore = OocoreStats {
                budget_bytes: oo.mem_budget,
                in_memory_resident_bytes: base_resident as u64,
                ..Default::default()
            };
            stats.pool = PoolStats {
                mine_workers: mine.workers,
                mine_time: mine.mine_time,
                splice_time: mine.splice_time,
                ..Default::default()
            };
            return Ok(FusionResult {
                patterns: Vec::new(),
                stats,
            });
        }

        // The identity row list over the base slab: the shape the spill
        // path requires (it streams shard sub-pools straight from base
        // rows).
        let rows: Vec<u32> = (0..pool_len as u32).collect();
        let (merge_store, merged, mut stats) = self
            .run_partitioned(store, rows, &ExecutorKind::OutOfCore(oo.clone()))
            .map_err(|e| match e {
                ExecutorError::Disk(d) => d,
                other => OocoreError::Io(std::io::Error::other(other.to_string())),
            })?;

        // Rows the backend re-interned into its fresh merge store before
        // the shard archives (the boundary-repair pool reload, when it
        // happened).
        let pool_reinterned = if n > 1 && pool_len <= FULL_REPAIR_POOL_LIMIT {
            pool_len
        } else {
            0
        };
        stats.pool = PoolStats {
            // Distinct rows across the run: the (evicted) initial pool plus
            // the merge store's overlay beyond any pool re-interns.
            rows: pool_len + merge_store.len_rows().saturating_sub(pool_reinterned),
            initial_rows: pool_len,
            tid_bytes: base_tid_bytes,
            peak_bytes: base_resident,
            mine_workers: mine.workers,
            mine_time: mine.mine_time,
            splice_time: mine.splice_time,
        };
        Ok(FusionResult {
            patterns: materialize(&merge_store, &merged),
            stats,
        })
    }

    /// The out-of-core executor backend (see [`crate::executor`]): spill
    /// every shard sub-pool (plus the pool slab itself when boundary
    /// repair's full-pool round will need it back), **evict the resident
    /// store**, mine the shards in budget-bounded batches, and hand back
    /// owned archives with a fresh merge store holding the re-interned
    /// pool. Stamps [`RunStats::oocore`] — the only backend with disk
    /// traffic to account for on both sides of the mine.
    pub(crate) fn execute_out_of_core(
        &self,
        store: PoolStore,
        plan: &ShardPlan<'_>,
        oo: &OocoreConfig,
        stats: &mut RunStats,
    ) -> Result<ShardExecution, ExecutorError> {
        let cfg = self.config();
        let n = plan.n;
        let threads = threads_for(cfg);
        let universe = store.universe();
        let mut oostats = OocoreStats {
            budget_bytes: oo.mem_budget,
            in_memory_resident_bytes: store.resident_bytes() as u64,
            ..Default::default()
        };

        // Spill: one slab file per shard, streamed row-by-row from the base
        // slab's borrows.
        let dir = match &oo.spill_dir {
            Some(d) => d.clone(),
            None => std::env::temp_dir().join(format!(
                "cfp-oocore-{}-{}",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
            )),
        };
        prepare_spill_dir(&dir, oo.spill_dir.is_some())?;
        let _cleanup = SpillDirGuard {
            dir: dir.clone(),
            keep: oo.keep_spill,
        };

        let base = store.base_pool();
        let mut shard_paths = Vec::with_capacity(n);
        let mut shard_file_bytes = Vec::with_capacity(n);
        let mut shard_resident = Vec::with_capacity(n);
        let t_spill = Instant::now();
        for s in 0..n {
            let sub_rows = plan.sub_rows(s);
            let path = crate::executor::shard_slab_path(&dir, s);
            let bytes =
                slab_io::dump_slab_rows_path(base, &sub_rows, &path).map_err(OocoreError::from)?;
            shard_resident.push(rows_resident_bytes(base, &sub_rows));
            shard_file_bytes.push(bytes);
            shard_paths.push(path);
        }
        let reload_pool = n > 1 && plan.rows.len() <= FULL_REPAIR_POOL_LIMIT;
        let pool_path = dir.join("pool.slab");
        let mut pool_file_bytes = 0u64;
        if reload_pool {
            pool_file_bytes = slab_io::dump_slab_rows_path(base, plan.rows, &pool_path)
                .map_err(OocoreError::from)?;
        }
        oostats.spill_time = t_spill.elapsed();
        oostats.spill_bytes = shard_file_bytes.iter().sum::<u64>() + pool_file_bytes;
        oostats.shards_spilled = n;

        // Evict the full pool: from here on, only spilled slabs exist.
        drop(store);

        // Greedy consecutive batching under the budget, floor one shard.
        let mut batches: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            let mut sum = shard_resident[start];
            while end < n && (oo.mem_budget == 0 || sum + shard_resident[end] <= oo.mem_budget) {
                sum += shard_resident[end];
                end += 1;
            }
            oostats.peak_resident_bytes = oostats.peak_resident_bytes.max(sum);
            batches.push(start..end);
            start = end;
        }

        // Fusion passes: load a batch, mine every shard in it on the
        // work-stealing pool (each task loads its own slab — parallel I/O —
        // and drops it on return), archive owned patterns, move on.
        let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(n);
        for batch in batches {
            oostats.passes += 1;
            let results = {
                let shard_paths = &shard_paths;
                let shard_file_bytes = &shard_file_bytes;
                run_tasks(
                    batch.len(),
                    threads,
                    move |i| -> Result<ShardOutcome, SlabIoError> {
                        let s = batch.start + i;
                        let t0 = Instant::now();
                        let slab = slab_io::load_slab_path(&shard_paths[s])?;
                        let load_time = t0.elapsed();
                        let pool_size = slab.len();
                        let mut shard_store = PoolStore::new(slab);
                        if pool_size == 0 {
                            // An empty shard trivially converged on an empty
                            // archive (mirrors the in-memory engine).
                            return Ok(ShardOutcome {
                                patterns: Vec::new(),
                                run: RunStats {
                                    converged: true,
                                    ..Default::default()
                                },
                                pool_size,
                                elapsed: t0.elapsed(),
                                load_bytes: shard_file_bytes[s],
                                load_time,
                            });
                        }
                        let sub_rows: Vec<u32> = (0..pool_size as u32).collect();
                        // Exactly the shared per-shard config derivation —
                        // the spilled slab preserved sub-pool order, so the
                        // loop sees the in-thread engine's exact input.
                        let scfg = crate::executor::shard_config(cfg, plan.seed_budget[s], s, n);
                        let (out_rows, run) = self.run_rows_with(&mut shard_store, sub_rows, &scfg);
                        let patterns = materialize(&shard_store, &out_rows);
                        Ok(ShardOutcome {
                            patterns,
                            run,
                            pool_size,
                            elapsed: t0.elapsed(),
                            load_bytes: shard_file_bytes[s],
                            load_time,
                        })
                    },
                )
            };
            for r in results {
                outcomes.push(r.map_err(OocoreError::from)?);
            }
        }

        // Merge in a fresh store: intern the reloaded pool first (row ids
        // differ from the in-memory run's, but interning makes row identity
        // itemset identity, so every comparison downstream is content-equal),
        // then hand the owned shard archives to the shared merge + repair.
        let mut merge_store = PoolStore::new(PatternPool::new(universe));
        let mut pool_rows: Vec<u32> = Vec::new();
        if reload_pool {
            let t0 = Instant::now();
            let pool_slab = slab_io::load_slab_path(&pool_path).map_err(OocoreError::from)?;
            oostats.load_time += t0.elapsed();
            oostats.load_bytes += pool_file_bytes;
            for r in 0..pool_slab.len() as u32 {
                let p = Pattern::new(pool_slab.itemset(r), pool_slab.tidset(r));
                pool_rows.push(merge_store.intern(&p));
            }
        }
        let runs = outcomes
            .into_iter()
            .enumerate()
            .map(|(s, outcome)| {
                oostats.load_bytes += outcome.load_bytes;
                oostats.load_time += outcome.load_time;
                ShardRun {
                    stats: shard_stats_of(
                        s,
                        outcome.pool_size,
                        outcome.patterns.len(),
                        &outcome.run,
                        outcome.elapsed,
                    ),
                    outputs: outcome
                        .patterns
                        .into_iter()
                        .map(MergePattern::Owned)
                        .collect(),
                }
            })
            .collect();

        // `peak_resident_bytes` reports the fusion-pass peak — the quantity
        // the budget bounds. The merge phase's own residency (archives +
        // the optional pool reload, bounded by FULL_REPAIR_POOL_LIMIT) is
        // outside the budget by design; see the module docs.
        stats.oocore = oostats;
        Ok(ShardExecution {
            store: merge_store,
            pool_rows,
            runs,
        })
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
