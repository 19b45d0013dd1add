//! Per-iteration run statistics.

use crate::ball::BallQueryStats;
use cfp_itemset::kernels::Backend;
use std::time::Duration;

/// What one index-maintenance step did: the build of an iteration's
/// [`crate::ball::BallIndex`] — over the initial pool for iteration 0,
/// otherwise over the pool the previous iteration generated
/// ([`crate::ball::BallIndex::apply_delta`]). See the lifecycle notes in
/// [`crate::ball`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMaintenance {
    /// Whether this step built the index from scratch. Always `true`:
    /// every pool gets a fresh index.
    pub rebuilt: bool,
    /// Patterns of the previous pool absent from this one (0 for the
    /// initial build).
    pub tombstoned: u64,
    /// Patterns of this pool absent from the previous one (0 for the
    /// initial build).
    pub inserted: u64,
    /// Patterns indexed after the step (= the pool size).
    pub live: usize,
    /// Wall-clock time of the step (delta computation + build).
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
    /// The build that produced this iteration's ball index (the initial
    /// build for iteration 0, otherwise the rebuild at the end of the
    /// previous iteration).
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
    /// Patterns that left the shard's pool between its iterations.
    pub tombstoned: u64,
    /// Patterns that entered the shard's pool between its iterations.
    pub inserted: u64,
    /// Index rebuilds after the shard's initial build: one per iteration
    /// beyond the first.
    pub compactions: usize,
    /// Wall-clock time of the shard task (sub-pool copy + fusion run).
    pub elapsed: Duration,
}

/// What the slab pattern store held and how it was mined (see
/// [`crate::pool::PoolStore`] and [`cfp_miners::delta_pool_slab`]): the
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
    /// Wall-clock time splicing worker segments into the one pool slab.
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
    /// Bytes written to spill files: the shard slabs, which together hold
    /// each pool row once.
    pub spill_bytes: u64,
    /// Bytes read back from spill files: every shard slab once to mine it,
    /// and once more to rebuild the merge base when boundary repair reads
    /// the whole pool.
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

/// What a wire run did: dispatch, retry, and fallback evidence from the
/// two executors that ship shards over the worker protocol, process and
/// remote (see [`crate::executor`]). All-zero for in-thread and
/// out-of-core runs. Deliberately **excluded from bit-identity gates**:
/// heartbeat counts and byte totals depend on wall-clock interleaving,
/// while the mined output does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Non-empty shards dispatched to workers.
    pub shards_dispatched: usize,
    /// Total attempts across all shards (≥ `shards_dispatched`; a process
    /// run makes one per shard).
    pub attempts: usize,
    /// Attempts beyond each shard's first (`attempts - shards completed
    /// first-try`): how often the deterministic retry policy fired.
    pub retries: usize,
    /// Shards whose attempts all failed and were re-mined in-process from
    /// the spilled slab (graceful degradation).
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
    /// Whether this run actually dispatched over the wire (or tried to).
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
    /// Wire-dispatch evidence, filled by the process and remote executors
    /// (all-zero for in-thread and out-of-core runs; see [`NetStats`]).
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

    /// Index builds across the unsharded loop: one per iteration (the
    /// initial build plus one rebuild per pool step).
    pub fn index_rebuilds(&self) -> usize {
        self.iterations.iter().filter(|i| i.index.rebuilt).count()
    }

    /// Index rebuilds beyond the initial build — one per pool step —
    /// including every shard's for a sharded run.
    pub fn compactions(&self) -> usize {
        self.index_rebuilds().saturating_sub(1)
            + self.shards.iter().map(|s| s.compactions).sum::<usize>()
    }

    /// Patterns that left the pool across the run's pool steps (all shards
    /// for a sharded run).
    pub fn tombstoned(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.index.tombstoned)
            .sum::<u64>()
            + self.shards.iter().map(|s| s.tombstoned).sum::<u64>()
    }

    /// Patterns that entered the pool across the run's pool steps (all
    /// shards for a sharded run).
    pub fn inserted(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.index.inserted)
            .sum::<u64>()
            + self.shards.iter().map(|s| s.inserted).sum::<u64>()
    }

    /// Wall-clock time spent building the unsharded loop's ball indexes.
    pub fn index_time_rebuild(&self) -> Duration {
        self.iterations.iter().map(|i| i.index.elapsed).sum()
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
        let step = |tombstoned, inserted, live, ms| IndexMaintenance {
            rebuilt: true,
            tombstoned,
            inserted,
            live,
            elapsed: Duration::from_millis(ms),
        };
        let mut a = iter(2, 7);
        a.index = step(0, 0, 100, 10);
        let mut b = iter(3, 5);
        b.index = step(40, 6, 66, 2);
        let mut c = iter(3, 4);
        c.index = step(30, 2, 38, 4);
        let stats = RunStats {
            iterations: vec![a, b, c],
            converged: true,
            initial_pool_size: 100,
            ..RunStats::default()
        };
        assert_eq!(stats.index_rebuilds(), 3);
        assert_eq!(stats.compactions(), 2);
        assert_eq!(stats.tombstoned(), 70);
        assert_eq!(stats.inserted(), 8);
        assert_eq!(stats.index_time_rebuild(), Duration::from_millis(16));
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
