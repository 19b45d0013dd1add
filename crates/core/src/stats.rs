//! Per-iteration run statistics.

use crate::ball::BallQueryStats;
use cfp_itemset::kernels::Backend;
use std::time::Duration;

/// What one index-maintenance step did: either the full (re)build that
/// produced the iteration's [`crate::ball::BallIndex`], or the incremental
/// tombstone/insert update that carried it over from the previous
/// iteration. See the lifecycle notes in [`crate::ball`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMaintenance {
    /// Whether this step was a full build (the initial construction or a
    /// compaction rebuild) rather than an incremental update.
    pub rebuilt: bool,
    /// Main-arena patterns newly tombstoned by this step.
    pub tombstoned: u64,
    /// Patterns inserted (into the side buffer, or carried into the rebuild)
    /// by this step.
    pub inserted: u64,
    /// Live patterns indexed after the step (= the pool size).
    pub live: usize,
    /// Main-arena slots after the step, tombstones included.
    pub arena: usize,
    /// Side-buffer length after the step (0 right after a rebuild).
    pub side: usize,
    /// Wall-clock time of the step (delta computation + index update).
    pub elapsed: Duration,
}

/// What one fusion iteration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationStats {
    /// Pool size entering the iteration.
    pub pool_size: usize,
    /// Seeds drawn (≤ K, and ≤ pool size).
    pub seeds: usize,
    /// Distinct super-patterns generated (the next pool's size).
    pub generated: usize,
    /// Smallest pattern size in the generated pool.
    pub min_pattern_len: usize,
    /// Largest pattern size in the generated pool.
    pub max_pattern_len: usize,
    /// Wall-clock time of the iteration.
    pub elapsed: Duration,
    /// Ball-query pruning counters for this iteration's seed queries.
    pub ball: BallQueryStats,
    /// The maintenance step that produced this iteration's ball index
    /// (initial build for iteration 0, otherwise the update or compaction
    /// performed at the end of the previous iteration).
    pub index: IndexMaintenance,
}

/// What one shard of a sharded run did (see [`crate::shard`]): the summary
/// of its private fusion loop, recorded in shard-index order so the roll-up
/// is deterministic at any thread count. Process-based workers ship it
/// back in the stats frame ([`crate::net`]), all but `elapsed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based, stable for a given pool + strategy).
    pub shard: usize,
    /// Initial-pool patterns assigned to this shard.
    pub pool_size: usize,
    /// Patterns the shard's fusion run returned (pre-merge).
    pub patterns: usize,
    /// Fusion iterations the shard ran.
    pub iterations: usize,
    /// Whether the shard's loop converged to ≤ its per-shard K.
    pub converged: bool,
    /// Ball-query pruning counters aggregated over the shard's run.
    pub ball: BallQueryStats,
    /// Patterns tombstoned by the shard's persistent index.
    pub tombstoned: u64,
    /// Patterns inserted into the shard index's side buffer.
    pub inserted: u64,
    /// Compaction rebuilds of the shard's index.
    pub compactions: usize,
    /// Wall-clock time of the shard task (sub-pool copy + fusion run).
    pub elapsed: Duration,
}

/// What the slab pattern store held and how it was mined (see
/// [`crate::pool::PoolStore`] and [`cfp_miners::initial_pool_slab`]): the
/// pool's resident footprint and the parallel initial-pool mine's
/// evidence. The store is append-only, so end-of-run sizes are peaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total slab rows at the end of the run (initial pool + every distinct
    /// pattern fused; rows are never dropped, only pools shrink).
    pub rows: usize,
    /// Rows mined into the initial pool (the frozen base slab).
    pub initial_rows: usize,
    /// Bytes of the shared tid-set region (the dominant column).
    pub tid_bytes: usize,
    /// Peak resident slab bytes across all columns (tids + suffix tables +
    /// itemset spans + supports).
    pub peak_bytes: usize,
    /// Worker threads the parallel initial-pool DFS used (0 when the pool
    /// was supplied pre-mined).
    pub mine_workers: usize,
    /// Wall-clock time of the parallel subtree mining phase.
    pub mine_time: Duration,
    /// Wall-clock time splicing worker segments (plus the stratified
    /// permutation for sharded runs).
    pub splice_time: Duration,
}

/// What an out-of-core run did (see [`crate::oocore`]): how the memory
/// budget translated into spill/load traffic and batched fusion passes.
/// All-zero (`passes == 0`) for in-memory runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocoreStats {
    /// Fusion passes (shard batches mined between evictions). ≥ 2 means the
    /// budget actually forced the pool out of core.
    pub passes: usize,
    /// Shard slabs spilled to disk.
    pub shards_spilled: usize,
    /// Bytes written to spill files (shard slabs + the repair pool slab).
    pub spill_bytes: u64,
    /// Bytes read back from spill files across all passes.
    pub load_bytes: u64,
    /// The configured resident-bytes budget (0 = unlimited: one pass).
    pub budget_bytes: u64,
    /// Peak resident slab bytes in any single fusion pass (the loaded shard
    /// batch) — the number the budget actually bounds.
    pub peak_resident_bytes: u64,
    /// What the full pool's slab would have kept resident in memory — the
    /// denominator of [`OocoreStats::bytes_touched_ratio`].
    pub in_memory_resident_bytes: u64,
    /// Wall-clock time writing spill files.
    pub spill_time: Duration,
    /// Wall-clock time reading spill files back.
    pub load_time: Duration,
}

impl OocoreStats {
    /// Whether this run actually went through the out-of-core driver.
    pub fn active(&self) -> bool {
        self.passes > 0
    }

    /// Total disk bytes touched (spilled + loaded) relative to the pool's
    /// in-memory resident footprint: how much I/O the partitioned passes
    /// cost per byte of memory saved. 1.0 would mean the pool crossed the
    /// disk boundary exactly once in each direction combined.
    pub fn bytes_touched_ratio(&self) -> f64 {
        if self.in_memory_resident_bytes == 0 {
            return 0.0;
        }
        (self.spill_bytes + self.load_bytes) as f64 / self.in_memory_resident_bytes as f64
    }
}

/// What a networked run did (see [`crate::net`]): dispatch, retry, and
/// fallback evidence from the remote shard executor. All-zero for local
/// runs. Deliberately **excluded from bit-identity gates**: heartbeat
/// counts and byte totals depend on wall-clock interleaving, while the
/// mined output does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Non-empty shards dispatched to remote workers.
    pub shards_dispatched: usize,
    /// Total connection attempts across all shards (≥ `shards_dispatched`).
    pub attempts: usize,
    /// Attempts beyond each shard's first (`attempts - shards completed
    /// first-try`): how often the deterministic retry policy fired.
    pub retries: usize,
    /// Shards that exhausted their retry budget and were re-mined in-thread
    /// from the spilled slab (graceful degradation).
    pub fallbacks: usize,
    /// Mine-phase heartbeat frames received from workers.
    pub heartbeats: u64,
    /// Request + sub-pool slab bytes shipped to workers (frame payloads).
    pub bytes_sent: u64,
    /// Stats + archive slab bytes received back (frame payloads).
    pub bytes_received: u64,
    /// Total deterministic backoff slept between retries.
    pub backoff_total: Duration,
}

impl NetStats {
    /// Whether this run actually dispatched over the network (or tried to).
    pub fn active(&self) -> bool {
        self.shards_dispatched > 0 || self.attempts > 0
    }

    /// Accumulates another shard's counters (the coordinator rolls its
    /// per-shard threads' counters into the run total in shard order).
    pub fn merge(&mut self, o: &NetStats) {
        self.shards_dispatched += o.shards_dispatched;
        self.attempts += o.attempts;
        self.retries += o.retries;
        self.fallbacks += o.fallbacks;
        self.heartbeats += o.heartbeats;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.backoff_total += o.backoff_total;
    }
}

/// Statistics for a whole Pattern-Fusion run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// One entry per fusion iteration, in order. Empty for a sharded run
    /// (each shard's loop is summarized in [`RunStats::shards`] instead).
    pub iterations: Vec<IterationStats>,
    /// Whether the run ended because the pool shrank to ≤ K (`true`) or
    /// because it hit the iteration cap / stagnated (`false`). For a sharded
    /// run: every shard converged and the merged archive fit in K.
    pub converged: bool,
    /// Size of the initial pool.
    pub initial_pool_size: usize,
    /// The tid-set kernel backend active when the run started (see
    /// [`cfp_itemset::kernels::Backend`]). Informational only: all backends
    /// produce bit-identical results, so this never explains an output
    /// difference — it explains a timing difference.
    pub kernel_backend: Backend,
    /// Per-shard summaries of a sharded run, in shard order. Empty for an
    /// unsharded run. The aggregate accessors below ([`RunStats::ball`],
    /// [`RunStats::tombstoned`], …) roll these into the run totals.
    pub shards: Vec<ShardStats>,
    /// Ball-query counters of the cross-shard boundary-repair pass (zeroed
    /// for unsharded and single-shard runs).
    pub repair_ball: BallQueryStats,
    /// Fusion iterations the boundary-repair pass ran (0 when no repair).
    pub repair_iterations: usize,
    /// Slab pattern-store sizes and parallel-mine evidence.
    pub pool: PoolStats,
    /// Out-of-core spill/load evidence (all-zero for in-memory runs; see
    /// [`crate::oocore`]).
    pub oocore: OocoreStats,
    /// Remote-dispatch evidence (all-zero for local runs; see
    /// [`crate::net`]).
    pub net: NetStats,
}

impl RunStats {
    /// Total patterns generated across iterations.
    pub fn total_generated(&self) -> usize {
        self.iterations.iter().map(|i| i.generated).sum()
    }

    /// Ball-query pruning counters aggregated over the whole run — the
    /// evidence for how much of the O(K·|Pool|) distance work the
    /// cardinality and pivot prunes skipped. Derived from the
    /// per-iteration records (plus, for sharded runs, the per-shard
    /// summaries and the boundary-repair pass), which stay the single
    /// source of truth.
    pub fn ball(&self) -> BallQueryStats {
        let mut total = BallQueryStats::default();
        for it in &self.iterations {
            total.merge(&it.ball);
        }
        for s in &self.shards {
            total.merge(&s.ball);
        }
        total.merge(&self.repair_ball);
        total
    }

    /// Whether this run went through the sharded engine.
    pub fn sharded(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Fusion iterations across the run: the unsharded loop's iteration
    /// count, or the per-shard total plus the boundary-repair iterations
    /// for a sharded run.
    pub fn total_iterations(&self) -> usize {
        self.iterations.len()
            + self.shards.iter().map(|s| s.iterations).sum::<usize>()
            + self.repair_iterations
    }

    /// Full index builds across the run: the initial construction plus
    /// every compaction rebuild.
    pub fn index_rebuilds(&self) -> usize {
        self.iterations.iter().filter(|i| i.index.rebuilt).count()
    }

    /// Compaction rebuilds only (full builds beyond the initial one),
    /// including every shard's compactions for a sharded run.
    pub fn compactions(&self) -> usize {
        self.index_rebuilds().saturating_sub(1)
            + self.shards.iter().map(|s| s.compactions).sum::<usize>()
    }

    /// Patterns tombstoned across the run's incremental updates (all shards
    /// for a sharded run).
    pub fn tombstoned(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.index.tombstoned)
            .sum::<u64>()
            + self.shards.iter().map(|s| s.tombstoned).sum::<u64>()
    }

    /// Patterns inserted into the side buffer across the run (all shards
    /// for a sharded run).
    pub fn inserted(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.index.inserted)
            .sum::<u64>()
            + self.shards.iter().map(|s| s.inserted).sum::<u64>()
    }

    /// Wall-clock time spent in full index (re)builds.
    pub fn index_time_rebuild(&self) -> Duration {
        self.iterations
            .iter()
            .filter(|i| i.index.rebuilt)
            .map(|i| i.index.elapsed)
            .sum()
    }

    /// Wall-clock time spent in incremental index updates.
    pub fn index_time_incremental(&self) -> Duration {
        self.iterations
            .iter()
            .filter(|i| !i.index.rebuilt)
            .map(|i| i.index.elapsed)
            .sum()
    }

    /// Lemma 5 check: the minimum pattern size per iteration never shrinks.
    pub fn min_sizes_non_decreasing(&self) -> bool {
        self.iterations
            .windows(2)
            .all(|w| w[0].min_pattern_len <= w[1].min_pattern_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(min: usize, generated: usize) -> IterationStats {
        IterationStats {
            pool_size: 10,
            seeds: 5,
            generated,
            min_pattern_len: min,
            max_pattern_len: min + 3,
            elapsed: Duration::from_millis(1),
            ball: BallQueryStats::default(),
            index: IndexMaintenance::default(),
        }
    }

    #[test]
    fn totals_and_monotonicity() {
        let stats = RunStats {
            iterations: vec![iter(2, 7), iter(4, 5), iter(4, 3)],
            converged: true,
            initial_pool_size: 100,
            ..RunStats::default()
        };
        assert_eq!(stats.total_generated(), 15);
        assert!(stats.min_sizes_non_decreasing());

        let bad = RunStats {
            iterations: vec![iter(4, 7), iter(2, 5)],
            converged: false,
            initial_pool_size: 10,
            ..RunStats::default()
        };
        assert!(!bad.min_sizes_non_decreasing());
    }

    #[test]
    fn maintenance_aggregates() {
        let mut a = iter(2, 7);
        a.index = IndexMaintenance {
            rebuilt: true,
            live: 100,
            arena: 100,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let mut b = iter(3, 5);
        b.index = IndexMaintenance {
            rebuilt: false,
            tombstoned: 40,
            inserted: 6,
            live: 66,
            arena: 100,
            side: 6,
            elapsed: Duration::from_millis(2),
        };
        let mut c = iter(3, 4);
        c.index = IndexMaintenance {
            rebuilt: true,
            tombstoned: 30,
            inserted: 2,
            live: 38,
            arena: 38,
            side: 0,
            elapsed: Duration::from_millis(4),
        };
        let stats = RunStats {
            iterations: vec![a, b, c],
            converged: true,
            initial_pool_size: 100,
            ..RunStats::default()
        };
        assert_eq!(stats.index_rebuilds(), 2);
        assert_eq!(stats.compactions(), 1);
        assert_eq!(stats.tombstoned(), 70);
        assert_eq!(stats.inserted(), 8);
        assert_eq!(stats.index_time_rebuild(), Duration::from_millis(14));
        assert_eq!(stats.index_time_incremental(), Duration::from_millis(2));
    }

    #[test]
    fn empty_run_is_vacuously_monotone() {
        let stats = RunStats::default();
        assert_eq!(stats.total_generated(), 0);
        assert!(stats.min_sizes_non_decreasing());
        assert_eq!(stats.index_rebuilds(), 0);
        assert_eq!(stats.compactions(), 0);
    }
}
