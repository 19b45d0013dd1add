//! The Pattern-Fusion main loop (paper Algorithms 1 and 2).
//!
//! ```text
//! Algorithm 1 (Main):             Algorithm 2 (Pattern_Fusion):
//!   do                              draw K seeds at random
//!     S ← Pattern_Fusion(Pool)      for each seed α:
//!     Pool ← S                        CoreList ← {β : Dist(α,β) ≤ r(τ)}
//!   while |S| > K                     S ← S ∪ Fusion(α.CoreList)
//!   return S                        return S
//! ```
//!
//! Termination is driven by Lemma 1 (fused support sets only shrink) and
//! Lemma 5 (the minimum pattern size in the pool is non-decreasing); a
//! stagnation check and an iteration cap guard degenerate configurations.
//!
//! # The slab data plane
//!
//! The pool is not a `Vec<Pattern>`: the engine mines the initial pool **in
//! parallel straight into a columnar slab**
//! ([`cfp_miners::initial_pool_slab`] → [`cfp_itemset::PatternPool`]) and
//! from then on every pool, archive, and delta is a `Vec<u32>` of row ids
//! into one [`PoolStore`] (frozen base slab + append-only overlay; see
//! [`crate::pool`]). Fused patterns are interned — one row per distinct
//! itemset, ever — so pool-identity questions (dedup, survivorship,
//! stagnation) are row-id comparisons instead of itemset hashing, and the
//! ball index borrows slab rows instead of copying tid-sets.
//! [`Pattern`] remains the public view type: results materialize once, at
//! the end of the run.
//!
//! Seed processing is embarrassingly parallel; each seed's RNG is derived
//! from the master seed and the seed's position, so results are bit-for-bit
//! identical at any thread count.
//!
//! Ball queries go through the metric-pruned [`crate::ball::BallIndex`]
//! (cardinality range + pivot triangle-inequality prunes over the shared
//! slab) instead of a brute-force O(K·|Pool|) distance scan, and both the
//! ball scans and the per-seed fusions are distributed over a work-stealing
//! task queue ([`crate::parallel`]) rather than fixed per-thread chunks.
//!
//! The index is **persistent across iterations**: it is built once from the
//! initial pool and then advanced via [`BallIndex::apply_delta`] —
//! survivors keep their arena slots, departures are tombstoned, new fused
//! patterns enter a sorted side buffer (row ids only), and a deterministic
//! compaction policy rebuilds only when the arena decays (see the lifecycle
//! notes in [`crate::ball`]). The [`PoolDelta`] between consecutive pools
//! is plain row membership — interning makes row equality itemset equality.
//! None of this changes results — balls stay exactly brute-force over the
//! live pool.

use crate::ball::{BallIndex, BallQueryStats, PoolDelta};
use crate::config::FusionConfig;
use crate::distance::ball_radius;
use crate::executor::{ExecutorError, ExecutorKind};
use crate::fusion::fuse_ball;
use crate::parallel::run_tasks;
use crate::pattern::Pattern;
use crate::pool::{materialize, rank_rows, PoolStore};
use crate::stats::{IndexMaintenance, IterationStats, PoolStats, RunStats};
use cfp_itemset::{ClosureOperator, TransactionDb, VerticalIndex};
use cfp_miners::PoolMineStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Live candidates per ball-scan task: small enough that one seed's
/// oversized ball spreads across workers, large enough to amortize task
/// claiming. Segmentation counts *live* candidates
/// ([`crate::ball::BallQuery::segments`]) so tombstone-riddled windows don't
/// produce skewed tasks.
const SCAN_TASK_CANDIDATES: usize = 2048;

/// A configured Pattern-Fusion run over one database.
pub struct PatternFusion<'a> {
    db: &'a TransactionDb,
    index: std::borrow::Cow<'a, VerticalIndex>,
    config: FusionConfig,
}

/// The outcome of a run: the approximation to the colossal patterns, plus
/// run statistics.
#[derive(Debug, Clone)]
pub struct FusionResult {
    /// Mined patterns, sorted by (size desc, support desc, itemset).
    pub patterns: Vec<Pattern>,
    /// Per-iteration statistics.
    pub stats: RunStats,
}

impl FusionResult {
    /// The largest pattern size mined (0 when empty).
    pub fn max_pattern_len(&self) -> usize {
        self.patterns.iter().map(Pattern::len).max().unwrap_or(0)
    }

    /// Patterns of size ≥ `len` (the colossal slice of the result).
    pub fn patterns_of_len_at_least(&self, len: usize) -> Vec<&Pattern> {
        self.patterns.iter().filter(|p| p.len() >= len).collect()
    }
}

impl<'a> PatternFusion<'a> {
    /// Prepares a run (builds the vertical index).
    pub fn new(db: &'a TransactionDb, config: FusionConfig) -> Self {
        Self {
            db,
            index: std::borrow::Cow::Owned(VerticalIndex::new(db)),
            config,
        }
    }

    /// Prepares a run over a database whose vertical index the caller
    /// already maintains — the incremental driver ([`crate::delta`]) absorbs
    /// transaction appends into one long-lived index and re-mines many
    /// times, so rebuilding it per run would reintroduce an O(|D|) cost the
    /// delta path exists to avoid. `index` must describe exactly `db`.
    pub fn with_vertical_index(
        db: &'a TransactionDb,
        index: &'a VerticalIndex,
        config: FusionConfig,
    ) -> Self {
        debug_assert_eq!(
            index.num_transactions(),
            db.len(),
            "vertical index out of sync with the database"
        );
        Self {
            db,
            index: std::borrow::Cow::Borrowed(index),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Mines the initial pool straight into the slab store: the complete
    /// set of frequent patterns of size ≤ `pool_max_len` with their support
    /// sets (paper §2.3, phase 1), fanned out over the run's thread budget.
    ///
    /// Sharded runs mine the pool in support-stratified emit order
    /// ([`cfp_miners::initial_pool_slab_stratified`]): shard assignment is
    /// keyed on pattern content either way, but the stratified order keeps
    /// each shard's sub-pool support-contiguous, which is what its private
    /// ball index sorts by anyway.
    pub(crate) fn mine_store(&self) -> (PoolStore, PoolMineStats) {
        let threads = threads_for(&self.config);
        let (slab, mine) = if self.config.sharding.shards > 1 {
            cfp_miners::initial_pool_slab_stratified(
                self.db,
                self.config.min_count,
                self.config.pool_max_len,
                threads,
            )
        } else {
            cfp_miners::initial_pool_slab(
                self.db,
                self.config.min_count,
                self.config.pool_max_len,
                threads,
            )
        };
        (PoolStore::new(slab), mine)
    }

    /// The initial pool as a columnar slab — what the engine mines and
    /// runs on. Pair with [`Source::Slab`](crate::Source::Slab) to sweep many
    /// configurations over one mined pool without ever materializing
    /// `Vec<Pattern>`.
    pub fn mine_initial_slab(&self) -> cfp_itemset::PatternPool {
        let (store, _) = self.mine_store();
        store.into_base()
    }

    /// The initial pool as owned patterns — a materialized view of
    /// [`PatternFusion::mine_initial_slab`], for harnesses and tests. The
    /// engine itself never takes this copy.
    pub fn mine_initial_pool(&self) -> Vec<Pattern> {
        let (store, _) = self.mine_store();
        let rows: Vec<u32> = (0..store.base_len() as u32).collect();
        materialize(&store, &rows)
    }

    /// Runs the full algorithm: mines the initial pool into the slab, then
    /// iterates fusion until at most K patterns remain.
    pub fn run(&self) -> FusionResult {
        let (store, mine) = self.mine_store();
        self.run_from_store(store, mine, None)
    }

    /// The in-thread tail: [`PatternFusion::run_from_store_on`] on the
    /// in-process backend, which cannot fail. The incremental driver
    /// ([`crate::delta`]) passes a `prebuilt` ball index carried across
    /// database generations via [`BallIndex::apply_generation_delta`], so
    /// only delta-sized index work is paid per append.
    pub(crate) fn run_from_store(
        &self,
        store: PoolStore,
        mine: PoolMineStats,
        prebuilt: Option<BallIndex>,
    ) -> FusionResult {
        self.run_from_store_on(store, mine, prebuilt, &ExecutorKind::InThread, false)
            .unwrap_or_else(|e| unreachable!("in-thread executor is infallible: {e}"))
    }

    /// The one tail behind every pool-resident run — [`PatternFusion::run`],
    /// [`Engine::mine`](crate::Engine::mine) and the incremental driver:
    /// route, stamp pool statistics from the live store, materialize. The
    /// run is partitioned — through the partitioned driver, on `executor` —
    /// when it has more than one shard, when `partitioned` forces it, or
    /// when `executor` is not the in-thread backend; otherwise it is the
    /// plain loop, over the `prebuilt` ball index if one is given (sharded
    /// runs build one index per shard and must not pass one). The
    /// out-of-core backend evicts the pool and stamps its own statistics
    /// instead (`run_oocore_store`).
    pub(crate) fn run_from_store_on(
        &self,
        mut store: PoolStore,
        mine: PoolMineStats,
        prebuilt: Option<BallIndex>,
        executor: &ExecutorKind,
        partitioned: bool,
    ) -> Result<FusionResult, ExecutorError> {
        let rows: Vec<u32> = (0..store.base_len() as u32).collect();
        let partitioned = partitioned
            || self.config.sharding.shards > 1
            || !matches!(executor, ExecutorKind::InThread);
        let (store, final_rows, mut stats) = if partitioned {
            debug_assert!(prebuilt.is_none(), "sharded runs build one index per shard");
            self.run_partitioned(store, rows, executor)?
        } else {
            let (final_rows, stats) =
                self.run_rows_with_index(&mut store, rows, &self.config, prebuilt);
            (store, final_rows, stats)
        };
        stats.pool = PoolStats {
            rows: store.len_rows(),
            initial_rows: store.base_len(),
            tid_bytes: store.tid_bytes(),
            peak_bytes: store.resident_bytes(),
            mine_workers: mine.workers,
            mine_time: mine.mine_time,
            splice_time: mine.splice_time,
        };
        Ok(FusionResult {
            patterns: materialize(&store, &final_rows),
            stats,
        })
    }

    /// The unsharded fusion loop over row-id pools, under an explicit
    /// configuration — the sharded engine calls this once per shard with a
    /// per-shard K, seed, and thread budget (and a forked store).
    pub(crate) fn run_rows_with(
        &self,
        store: &mut PoolStore,
        rows: Vec<u32>,
        cfg: &FusionConfig,
    ) -> (Vec<u32>, RunStats) {
        self.run_rows_with_index(store, rows, cfg, None)
    }

    /// [`PatternFusion::run_rows_with`] with an optional pre-built
    /// [`BallIndex`] mirroring exactly `rows` over `store` — the generation
    /// carry seam. Results are identical with and without a prebuilt index
    /// (balls are exact either way); only the index-build cost and the
    /// maintenance counters differ.
    pub(crate) fn run_rows_with_index(
        &self,
        store: &mut PoolStore,
        mut rows: Vec<u32>,
        cfg: &FusionConfig,
        prebuilt: Option<BallIndex>,
    ) -> (Vec<u32>, RunStats) {
        let mut stats = RunStats {
            initial_pool_size: rows.len(),
            // Resolved once here (first kernel call of the process detects
            // it); recorded so perf numbers can be attributed to a backend.
            kernel_backend: cfp_itemset::kernels::Backend::active(),
            ..Default::default()
        };
        if rows.is_empty() {
            return (rows, stats);
        }
        let radius = ball_radius(cfg.tau);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let threads = threads_for(cfg);
        // Cross-iteration archive of the largest patterns seen (see
        // `FusionConfig::archive`): protects already-found colossal patterns
        // from the seed-drawing survival lottery. Row ids — archiving a
        // pattern costs 4 bytes, not a clone.
        let mut archive: Vec<u32> = Vec::new();

        // The long-lived ball index: built once here, then advanced by
        // pool deltas (tombstones + side-buffer inserts) at the end of each
        // iteration instead of being rebuilt from scratch.
        let t_build = Instant::now();
        let (mut index, mut maintenance) = match prebuilt {
            Some(index) => {
                debug_assert_eq!(index.len(), rows.len(), "prebuilt index out of sync");
                let maintenance = IndexMaintenance {
                    rebuilt: false,
                    live: index.len(),
                    arena: index.arena_slots(),
                    side: index.side_len(),
                    elapsed: t_build.elapsed(),
                    ..Default::default()
                };
                (index, maintenance)
            }
            None => {
                let index =
                    BallIndex::build_with_threads(store, &rows, radius, cfg.ball_pivots, threads);
                let maintenance = IndexMaintenance {
                    rebuilt: true,
                    live: index.len(),
                    arena: index.arena_slots(),
                    elapsed: t_build.elapsed(),
                    ..Default::default()
                };
                (index, maintenance)
            }
        };

        for iteration in 0..cfg.max_iterations {
            let t0 = Instant::now();
            let n_seeds = cfg.k.min(rows.len()).max(1);
            let seed_positions: Vec<usize> =
                rand::seq::index::sample(&mut rng, rows.len(), n_seeds).into_vec();

            let (per_seed, ball_stats) = self.process_seeds(
                cfg,
                store,
                &rows,
                &index,
                &seed_positions,
                iteration,
                threads,
            );

            // Merge, deduplicating through the store's interner: every
            // fused pattern resolves to its row (appending the overlay's
            // first sighting), and first row occurrence wins — the same
            // first-itemset-occurrence rule as before, without building a
            // borrow set.
            let mut next: Vec<u32> = Vec::new();
            {
                let mut seen: HashSet<u32> = HashSet::new();
                for p in per_seed.into_iter().flatten() {
                    let row = store.intern(&p);
                    if seen.insert(row) {
                        next.push(row);
                    }
                }
            }

            if cfg.archive {
                archive.extend(next.iter().copied());
                rank_rows(store, &mut archive);
                archive.truncate(cfg.archive_cap.unwrap_or(cfg.k));
            }

            let (min_len, max_len) = next.iter().fold((usize::MAX, 0), |(lo, hi), &r| {
                let l = store.items_of(r).len();
                (lo.min(l), hi.max(l))
            });
            stats.iterations.push(IterationStats {
                pool_size: rows.len(),
                seeds: n_seeds,
                generated: next.len(),
                min_pattern_len: if next.is_empty() { 0 } else { min_len },
                max_pattern_len: max_len,
                elapsed: t0.elapsed(),
                ball: ball_stats,
                index: maintenance,
            });

            // Stagnation check: the pool reproduces itself exactly. Row ids
            // are itemset identity, so this is a sorted-id comparison — the
            // fingerprint/hash-set machinery the `Vec<Pattern>` pipeline
            // needed is gone.
            let stagnated = next.len() == rows.len() && {
                let mut a = rows.clone();
                let mut b = next.clone();
                a.sort_unstable();
                b.sort_unstable();
                a == b
            };
            let continuing = next.len() > cfg.k && !stagnated && iteration + 1 < cfg.max_iterations;
            if continuing {
                // Let the measured prune rates steer the pivot count the
                // next compaction rebuild will request — never the live
                // table, so results stay bit-identical (satellite of the
                // incremental-mining work).
                index.adapt_pivot_target(&ball_stats);
                // Advance the index to the next pool while both pools are
                // still alive: survivors keep their slots, departures are
                // tombstoned, fresh fusions enter the side buffer.
                let t_update = Instant::now();
                let delta = PoolDelta::compute(&rows, &next, store.len_rows());
                maintenance = index.apply_delta(store, &next, &delta, threads);
                maintenance.elapsed = t_update.elapsed();
            }
            rows = next;
            if rows.len() <= cfg.k {
                stats.converged = true;
                break;
            }
            if stagnated {
                // The pool reproduces itself exactly; the paper's loop would
                // spin forever. Return it as the answer.
                break;
            }
        }

        if cfg.archive {
            let cap = rows.len().max(cfg.archive_cap.unwrap_or(cfg.k));
            rows.extend(archive);
            rank_rows(store, &mut rows);
            rows.truncate(cap);
        } else {
            rank_rows(store, &mut rows);
        }
        (rows, stats)
    }

    /// Ball query + fusion for each seed, optionally in parallel. Every seed
    /// position gets an RNG derived from (master seed, iteration, position),
    /// making the output independent of the thread schedule.
    ///
    /// Two work-stealing phases per iteration:
    ///
    /// 1. **Ball scans** — against the caller's long-lived [`BallIndex`],
    ///    every seed's pruned candidate window is cut into segments holding
    ///    ≈[`SCAN_TASK_CANDIDATES`] live candidates that workers claim off a
    ///    shared queue, so a single huge ball cannot serialize the phase.
    ///    Segments merge in task order and each ball sorts ascending —
    ///    exactly the brute-force scan's output.
    /// 2. **Fusion** — seeds are claimed the same way; each runs with its
    ///    position-derived RNG, so the schedule never leaks into results.
    ///    Outputs are owned patterns; the caller interns them into the
    ///    store between the parallel phases.
    #[allow(clippy::too_many_arguments)]
    fn process_seeds(
        &self,
        cfg: &FusionConfig,
        store: &PoolStore,
        rows: &[u32],
        index: &BallIndex,
        seed_positions: &[usize],
        iteration: usize,
        threads: usize,
    ) -> (Vec<Vec<Pattern>>, BallQueryStats) {
        // Phase 1: metric-pruned ball queries.
        let queries: Vec<_> = seed_positions.iter().map(|&q| index.query(q)).collect();
        let mut tasks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for (order, query) in queries.iter().enumerate() {
            for seg in query.segments(SCAN_TASK_CANDIDATES) {
                tasks.push((order, seg));
            }
        }
        let scanned = run_tasks(tasks.len(), threads, |t| {
            let (order, ref seg) = tasks[t];
            let mut members = Vec::new();
            let mut stats = BallQueryStats::default();
            queries[order].scan(store, seg.clone(), &mut members, &mut stats);
            (members, stats)
        });
        let mut balls: Vec<Vec<usize>> = vec![Vec::new(); seed_positions.len()];
        let mut ball_stats = BallQueryStats::default();
        for query in &queries {
            query.account(&mut ball_stats);
        }
        for ((order, _), (members, stats)) in tasks.iter().zip(scanned) {
            balls[*order].extend(members);
            ball_stats.merge(&stats);
        }
        for ball in &mut balls {
            ball.sort_unstable();
        }

        // Phase 2: per-seed fusion.
        let results = run_tasks(seed_positions.len(), threads, |order| {
            let ball = &balls[order];
            let mut seed_rng = StdRng::seed_from_u64(splitmix64(
                cfg.seed
                    .wrapping_add((iteration as u64) << 32)
                    .wrapping_add(order as u64),
            ));
            self.fuse_seed(cfg, store, rows, seed_positions[order], ball, &mut seed_rng)
        });
        (results, ball_stats)
    }

    /// One seed's fusion under `cfg`, drawing from the caller's per-seed
    /// `rng`: subsamples a ball larger than `cfg.max_ball_size` (bounded
    /// breadth), runs [`fuse_ball`], and replaces each output's items by
    /// their closure when `cfg.closure_step` is on.
    pub(crate) fn fuse_seed<R: Rng>(
        &self,
        cfg: &FusionConfig,
        store: &PoolStore,
        rows: &[u32],
        seed_pos: usize,
        ball: &[usize],
        rng: &mut R,
    ) -> Vec<Pattern> {
        let sampled: Vec<usize>;
        let ball: &[usize] = if ball.len() > cfg.max_ball_size {
            sampled = rand::seq::index::sample(rng, ball.len(), cfg.max_ball_size)
                .into_iter()
                .map(|i| ball[i])
                .collect();
            &sampled
        } else {
            ball
        };
        let mut out = fuse_ball(store, rows, seed_pos, ball, &cfg.fusion_params(), rng);
        if cfg.closure_step {
            let cl = ClosureOperator::new(&self.index);
            for p in &mut out {
                p.items = cl.closure_of_tidset(&p.tids);
            }
        }
        out
    }
}

/// Worker threads a run under `cfg` may use (1 when `parallel` is off).
pub(crate) fn threads_for(cfg: &FusionConfig) -> usize {
    if cfg.parallel {
        cfg.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    } else {
        1
    }
}

/// SplitMix64 finalizer: decorrelates derived RNG seeds.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusionConfig;
    use cfp_itemset::Itemset;

    /// The introduction's flagship scenario, scaled down: Diag16 plus 8 rows
    /// of a 12-item block. Exhaustive miners face C(16,8) = 12 870 mid-sized
    /// patterns; Pattern-Fusion must still surface the colossal block.
    #[test]
    fn finds_the_intro_colossal_pattern() {
        let db = cfp_datagen::diag_plus(16, 8, 12);
        let config = FusionConfig::new(10, 8).with_pool_max_len(2).with_seed(11);
        let result = PatternFusion::new(&db, config).run();
        let colossal: Vec<u32> = (17..=28)
            .map(|i| db.item_map().internal(i).unwrap())
            .collect();
        let target = Itemset::from_items(&colossal);
        assert!(
            result.patterns.iter().any(|p| p.items == target),
            "colossal block (41..79 analogue) missing: {:?}",
            result.patterns.iter().take(5).collect::<Vec<_>>()
        );
        assert!(result.stats.converged);
    }

    #[test]
    fn result_supports_are_exact_and_frequent() {
        let db = cfp_datagen::diag_plus(12, 6, 8);
        let config = FusionConfig::new(8, 6).with_pool_max_len(2).with_seed(3);
        let pf = PatternFusion::new(&db, config);
        let result = pf.run();
        let index = VerticalIndex::new(&db);
        assert!(!result.patterns.is_empty());
        for p in &result.patterns {
            assert_eq!(p.tids, index.tidset(&p.items), "tid-set drift on {p:?}");
            assert!(p.support() >= 6);
        }
    }

    #[test]
    fn lemma5_min_pool_size_is_non_decreasing() {
        let db = cfp_datagen::diag_plus(14, 7, 10);
        let config = FusionConfig::new(6, 7).with_pool_max_len(2).with_seed(5);
        let result = PatternFusion::new(&db, config).run();
        assert!(
            result.stats.min_sizes_non_decreasing(),
            "{:?}",
            result.stats.iterations
        );
    }

    #[test]
    fn parallel_and_serial_runs_agree_exactly() {
        let db = cfp_datagen::diag_plus(12, 6, 8);
        let mk = |parallel| {
            let config = FusionConfig::new(6, 6)
                .with_pool_max_len(2)
                .with_seed(17)
                .with_parallel(parallel);
            PatternFusion::new(&db, config).run()
        };
        let a = mk(true);
        let b = mk(false);
        let pa: Vec<_> = a.patterns.iter().map(|p| p.items.clone()).collect();
        let pb: Vec<_> = b.patterns.iter().map(|p| p.items.clone()).collect();
        assert_eq!(pa, pb, "thread count must not affect results");
    }

    #[test]
    fn same_seed_same_result_different_seed_usually_differs() {
        let db = cfp_datagen::diag(20);
        let run = |s| {
            let config = FusionConfig::new(5, 10).with_pool_max_len(2).with_seed(s);
            PatternFusion::new(&db, config).run()
        };
        let a1 = run(1);
        let a2 = run(1);
        assert_eq!(
            a1.patterns.iter().map(|p| &p.items).collect::<Vec<_>>(),
            a2.patterns.iter().map(|p| &p.items).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_pool_returns_empty_result() {
        // Min support above every item's support → empty pool.
        let db = cfp_datagen::diag(6);
        let config = FusionConfig::new(5, 100);
        let result = PatternFusion::new(&db, config).run();
        assert!(result.patterns.is_empty());
        assert_eq!(result.stats.initial_pool_size, 0);
        assert_eq!(result.max_pattern_len(), 0);
    }

    #[test]
    fn closure_step_produces_closed_patterns() {
        let db = cfp_datagen::diag_plus(10, 5, 7);
        let config = FusionConfig::new(6, 5)
            .with_pool_max_len(2)
            .with_seed(23)
            .with_closure_step(true);
        let result = PatternFusion::new(&db, config).run();
        let index = VerticalIndex::new(&db);
        let cl = ClosureOperator::new(&index);
        for p in &result.patterns {
            assert_eq!(cl.closure(&p.items), p.items, "{p:?} not closed");
        }
    }

    /// The survival-lottery regression: on the paper's Diag40+20 instance,
    /// iteration 0 always fuses the colossal block, but pool replacement can
    /// drop it when no later seed lands in its ball. The archive must make
    /// recovery reliable across seeds.
    #[test]
    fn archive_protects_colossal_patterns_across_iterations() {
        let db = cfp_datagen::diag_plus(40, 20, 39);
        let colossal: Vec<u32> = (41..=79)
            .map(|i| db.item_map().internal(i).unwrap())
            .collect();
        let target = Itemset::from_items(&colossal);
        for seed in [7u64, 8, 9, 10] {
            let config = FusionConfig::new(20, 20)
                .with_pool_max_len(2)
                .with_seed(seed);
            let result = PatternFusion::new(&db, config).run();
            assert!(
                result.patterns.iter().any(|p| p.items == target),
                "colossal lost with archive on (seed {seed})"
            );
            assert!(result.patterns.len() <= 20, "result capped at K");
        }
    }

    #[test]
    fn tau_one_restricts_balls_to_identical_support_sets() {
        // At τ = 1 the ball radius is 0: only patterns with *identical*
        // support sets fuse. Planted blocks still assemble (all subsets of a
        // block share its tid-set), but nothing else can mix in.
        let data = cfp_datagen::planted(&cfp_datagen::PlantedConfig {
            n_rows: 30,
            pattern_sizes: vec![10, 8],
            pattern_support: 10,
            max_row_overlap: 4,
            row_len: 0,
            filler_rows_lo: 2,
            filler_rows_hi: 3,
            seed: 2,
        });
        let config = FusionConfig::new(6, 10)
            .with_pool_max_len(2)
            .with_tau(1.0)
            .with_seed(3);
        let result = PatternFusion::new(&data.db, config).run();
        for planted in &data.patterns {
            assert!(
                result.patterns.iter().any(|p| p.items == planted.items),
                "block of size {} missing at τ=1",
                planted.items.len()
            );
        }
        // Every result is a subset of exactly one planted block.
        for p in &result.patterns {
            assert!(
                data.patterns
                    .iter()
                    .any(|pl| p.items.is_subset_of(&pl.items)),
                "mixed pattern at τ=1: {p:?}"
            );
        }
    }

    #[test]
    fn k_equals_one_converges_to_a_single_pattern() {
        let db = cfp_datagen::diag_plus(10, 5, 7);
        let config = FusionConfig::new(1, 5).with_pool_max_len(2).with_seed(9);
        let result = PatternFusion::new(&db, config).run();
        assert_eq!(result.patterns.len(), 1, "K=1 must return one pattern");
        assert!(result.patterns[0].support() >= 5);
    }

    #[test]
    fn singleton_only_pool_survives() {
        // max_len 1: the pool is just the frequent items; fusion must still
        // grow patterns (balls contain sibling items of the same blocks).
        let db = cfp_datagen::diag_plus(8, 6, 9);
        let config = FusionConfig::new(5, 6).with_pool_max_len(1).with_seed(13);
        let result = PatternFusion::new(&db, config).run();
        assert!(
            result.max_pattern_len() >= 9,
            "the 9-item block should assemble from singletons: {:?}",
            result.patterns
        );
    }

    #[test]
    fn ball_cap_bounds_work_without_losing_the_colossal_pattern() {
        // Force tiny balls: the colossal block must still assemble because
        // even small ball samples cover all items across attempts and
        // iterations (Theorem 3's coverage argument).
        let db = cfp_datagen::diag_plus(14, 7, 10);
        let config = FusionConfig::new(8, 7)
            .with_pool_max_len(2)
            .with_max_ball_size(24)
            .with_seed(41);
        let result = PatternFusion::new(&db, config).run();
        let colossal: Vec<u32> = (15..=24)
            .map(|i| db.item_map().internal(i).unwrap())
            .collect();
        let target = Itemset::from_items(&colossal);
        assert!(
            result.patterns.iter().any(|p| p.items == target),
            "colossal lost under ball cap: {:?}",
            result.patterns.iter().take(4).collect::<Vec<_>>()
        );
    }

    #[test]
    fn patterns_of_len_at_least_filters() {
        let db = cfp_datagen::diag_plus(10, 5, 7);
        let config = FusionConfig::new(6, 5).with_pool_max_len(2).with_seed(2);
        let result = PatternFusion::new(&db, config).run();
        let big = result.patterns_of_len_at_least(7);
        assert!(big.iter().all(|p| p.len() >= 7));
    }
}
