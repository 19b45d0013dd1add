//! Incremental delta mining: absorb transaction appends at sublinear cost,
//! bit-identical to a from-scratch re-mine.
//!
//! A [`DeltaEngine`] owns an evolving database and re-mines it after every
//! batch of appended transactions ([`DbDelta`]), producing **exactly** the
//! [`FusionResult`] a cold [`crate::Engine::mine`] over the grown database
//! would — same patterns, same order, same per-shard structure — while
//! touching work proportional to the delta, not the database:
//!
//! * the **vertical index** widens in place
//!   ([`cfp_itemset::VerticalIndex::absorb`]): existing tid columns grow
//!   their universe (usually allocation-free thanks to lane padding) and
//!   only the appended tids are inserted;
//! * the **initial pool** is rebuilt by splice + re-mine
//!   ([`cfp_miners::delta_pool_slab`]): with an absolute `min_count` and
//!   append-only transactions, supports only grow, so a first-item subtree
//!   whose item has **zero** delta occurrences emits byte-identical rows
//!   (zero-extended) — those subtrees are bulk-copied from the previous
//!   pool ([`cfp_itemset::PatternPool::splice_rows`]); only *dirty*
//!   subtrees (first item touched by the delta, or newly frequent) are
//!   re-expanded.
//!
//! The fusion phase itself then runs unchanged over the rebuilt pool,
//! building its ball index per pool exactly as a cold mine does —
//! determinism is inherited, not re-proven: the spliced pool is
//! byte-identical to a from-scratch mine, so every downstream decision
//! (seed draws, ball queries, fusion RNG, shard assignment) replays
//! identically. Sharded configurations run the ordinary partitioned engine
//! over the same plain slab, so even per-shard counters match a cold run.
//!
//! # Append semantics
//!
//! `min_count` is **absolute** (the engine's native convention): a relative
//! threshold would re-price every pattern as the database grows and break
//! the supports-only-grow monotonicity the splice proof rests on. Callers
//! resolving a relative σ must do so once, against the base database (the
//! `cfp mine --append` CLI does exactly that).

use crate::algorithm::{threads_for, FusionResult, PatternFusion};
use crate::config::FusionConfig;
use crate::pool::PoolStore;
use cfp_itemset::{DbDelta, PatternPool, TransactionDb, VerticalIndex};
use cfp_miners::PoolMineStats;
use std::ops::Range;
use std::time::{Duration, Instant};

/// What one [`DeltaEngine::append`] actually did — the evidence that the
/// update was delta-sized.
#[derive(Debug, Clone, Default)]
pub struct AppendStats {
    /// Transactions absorbed by this append.
    pub appended_transactions: usize,
    /// Distinct items the delta touched (their first-item subtrees were
    /// re-mined; everything else was spliced).
    pub dirty_items: usize,
    /// First-item subtrees re-expanded by the pool rebuild.
    pub subtrees_remined: usize,
    /// Pool rows bulk-copied from the previous generation's slab (the
    /// splice plan's total, [`cfp_miners::PoolMineStats::rows_spliced`]).
    pub rows_spliced: usize,
    /// Total rows in the rebuilt initial pool.
    pub pool_rows: usize,
    /// Whether a ball index was carried from the previous generation.
    /// Always `false`: every generation's fusion builds its own index.
    pub index_carried: bool,
    /// Wall-clock time of the whole append (absorb + pool rebuild +
    /// fusion).
    pub elapsed: Duration,
}

/// The incremental mining driver: owns the evolving database, its vertical
/// index, and the current generation's plain initial pool (with its
/// first-item subtree spans), and turns each [`DbDelta`] into a fresh
/// [`FusionResult`] at delta-proportional cost.
///
/// ```
/// use cfp_core::{delta::DeltaEngine, FusionConfig, Source};
/// use cfp_itemset::DbDelta;
///
/// let db = cfp_datagen::diag_plus(12, 6, 9);
/// let config = FusionConfig::new(8, 6).with_seed(7);
/// let mut engine = DeltaEngine::new(db.clone(), config.clone());
/// let base = engine.mine();
/// assert_eq!(base.max_pattern_len(), 9);
///
/// // Append two transactions; the incremental result is bit-identical to
/// // a from-scratch re-mine of the grown database.
/// let delta = DbDelta::from_transactions(vec![vec![1, 2, 3], vec![13, 14]]);
/// let incremental = engine.append(&delta);
/// let mut grown = db;
/// grown.append_delta(&delta);
/// let scratch = config.engine(&grown).mine(Source::Transactions).unwrap();
/// assert_eq!(incremental.patterns, scratch.patterns);
/// ```
#[derive(Clone)]
pub struct DeltaEngine {
    config: FusionConfig,
    db: TransactionDb,
    vindex: VerticalIndex,
    /// The current generation's plain (serial-DFS-order) initial pool: a
    /// store sharing its slab and interning table with the run over it.
    plain: PoolStore,
    /// First-item subtree spans of `plain` (see
    /// [`cfp_miners::subtree_spans`]).
    spans: Vec<(u32, Range<u32>)>,
    /// The last result produced (returned verbatim for empty deltas).
    result: Option<FusionResult>,
    last_append: AppendStats,
    generation: u64,
}

/// Append-path context threaded from [`DeltaEngine::append`] into
/// [`DeltaEngine::install_generation`]: the dirty item count, the appended
/// transaction count, and the append's start time.
struct AppendCarry {
    dirty_items: usize,
    appended: usize,
    t0: Instant,
}

impl DeltaEngine {
    /// Wraps a database. Nothing is mined until [`DeltaEngine::mine`] (or
    /// the first [`DeltaEngine::append`], which mines the base lazily).
    pub fn new(db: TransactionDb, config: FusionConfig) -> Self {
        let vindex = VerticalIndex::new(&db);
        Self {
            config,
            db,
            vindex,
            plain: PoolStore::new(PatternPool::new(0)),
            spans: Vec::new(),
            result: None,
            last_append: AppendStats::default(),
            generation: 0,
        }
    }

    /// The evolving database (base plus every absorbed delta).
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// The configuration in use.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Database generations mined so far (1 after the base mine, +1 per
    /// non-empty append).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// What the most recent [`DeltaEngine::append`] did.
    pub fn last_append(&self) -> &AppendStats {
        &self.last_append
    }

    /// The last result produced, if any.
    pub fn result(&self) -> Option<&FusionResult> {
        self.result.as_ref()
    }

    /// Mines the current database from scratch and caches everything the
    /// next append needs (plain pool and its spans). The
    /// result is bit-identical to [`crate::Engine::mine`] over the same
    /// database and configuration.
    pub fn mine(&mut self) -> FusionResult {
        // A cold `Engine::mine`'s pool mine, over the maintained index.
        let (store, mine) =
            PatternFusion::with_vertical_index(&self.db, &self.vindex, self.config.clone())
                .mine_store();
        self.install_generation(store, mine, None)
    }

    /// Absorbs `delta` and re-mines: the database and vertical index widen
    /// in place, clean first-item subtrees are spliced from the previous
    /// pool, dirty ones re-expanded, and fusion re-run. Returns the same
    /// result a cold mine of the grown database would, bit for bit.
    ///
    /// An empty delta returns the cached result without re-mining. The base
    /// database is mined lazily if [`DeltaEngine::mine`] was never called.
    pub fn append(&mut self, delta: &DbDelta) -> FusionResult {
        if self.generation == 0 {
            let base = self.mine();
            if delta.is_empty() {
                return base;
            }
        } else if delta.is_empty() {
            return self.result.clone().expect("generation > 0 has a result");
        }
        let t0 = Instant::now();
        let appended = self.db.append_delta(delta);
        self.vindex.absorb(&self.db, appended.clone());

        // Dirty items: every item with at least one delta occurrence, by
        // dense internal id. `append_delta` interned every label, so the
        // lookups cannot miss.
        let mut dirty: Vec<u32> = delta
            .transactions()
            .iter()
            .flatten()
            .map(|&label| {
                self.db
                    .item_map()
                    .internal(label)
                    .expect("append_delta interns every delta label")
            })
            .collect();
        dirty.sort_unstable();
        dirty.dedup();

        let threads = threads_for(&self.config);
        let (plain, mine) = cfp_miners::delta_pool_slab(
            &self.vindex,
            self.config.min_count,
            self.config.pool_max_len,
            threads,
            self.plain.base_pool(),
            &self.spans,
            &dirty,
        );
        let carry = Some(AppendCarry {
            dirty_items: dirty.len(),
            appended: appended.len(),
            t0,
        });
        self.install_generation(PoolStore::new(plain), mine, carry)
    }

    /// Shared tail of [`DeltaEngine::mine`] / [`DeltaEngine::append`]:
    /// swaps in the new plain pool, runs fusion over it, and refreshes the
    /// caches. `carry` is present only on the append path.
    fn install_generation(
        &mut self,
        store: PoolStore,
        mine: PoolMineStats,
        carry: Option<AppendCarry>,
    ) -> FusionResult {
        let t0 = carry.as_ref().map(|c| c.t0).unwrap_or_else(Instant::now);
        self.spans = cfp_miners::subtree_spans(store.base_pool());
        self.plain = store.fork();
        let mut stats = AppendStats {
            appended_transactions: carry.as_ref().map(|c| c.appended).unwrap_or(0),
            dirty_items: carry.as_ref().map(|c| c.dirty_items).unwrap_or(0),
            subtrees_remined: mine.subtrees,
            rows_spliced: mine.rows_spliced,
            pool_rows: self.plain.base_len(),
            ..Default::default()
        };

        let pf = PatternFusion::with_vertical_index(&self.db, &self.vindex, self.config.clone());
        let result = pf.run_from_store(store, mine);

        stats.elapsed = t0.elapsed();
        self.last_append = stats;
        self.generation += 1;
        self.result = Some(result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Source;
    use crate::shard::ShardStrategy;
    use cfp_itemset::DbDelta;

    fn quest_db(n: usize) -> TransactionDb {
        cfp_datagen::quest(&cfp_datagen::QuestConfig {
            n_transactions: n,
            n_items: 30,
            ..Default::default()
        })
    }

    fn assert_same_patterns(a: &FusionResult, b: &FusionResult, label: &str) {
        assert_eq!(a.patterns.len(), b.patterns.len(), "{label}: count");
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.items, y.items, "{label}");
            assert_eq!(x.tids, y.tids, "{label}: tid-set of {}", x.items);
        }
    }

    #[test]
    fn base_mine_matches_the_engine_front_door() {
        let db = quest_db(200);
        let config = FusionConfig::new(8, 4)
            .with_pool_max_len(2)
            .with_seed(5)
            .with_threads(2);
        let mut engine = DeltaEngine::new(db.clone(), config.clone());
        let got = engine.mine();
        let want = config.engine(&db).mine(Source::Transactions).unwrap();
        assert_same_patterns(&got, &want, "base mine");
        assert_eq!(engine.generation(), 1);
    }

    #[test]
    fn appends_are_bit_identical_to_from_scratch() {
        let base = quest_db(200);
        let config = FusionConfig::new(8, 4)
            .with_pool_max_len(2)
            .with_seed(5)
            .with_threads(2);
        let deltas = [
            DbDelta::from_transactions(vec![vec![3, 7, 11], vec![7, 11]]),
            // A fresh, never-seen label plus an empty transaction.
            DbDelta::from_transactions(vec![vec![2, 900], vec![]]),
            DbDelta::from_transactions(vec![vec![1, 2, 3, 4, 5]]),
        ];
        let mut engine = DeltaEngine::new(base.clone(), config.clone());
        engine.mine();
        let mut grown = base;
        for (i, delta) in deltas.iter().enumerate() {
            let incremental = engine.append(delta);
            grown.append_delta(delta);
            let scratch = config.engine(&grown).mine(Source::Transactions).unwrap();
            assert_same_patterns(&incremental, &scratch, &format!("append {i}"));
            assert_eq!(engine.db(), &grown, "database drift at append {i}");
        }
        assert_eq!(engine.generation(), 4);
        assert!(engine.last_append().pool_rows > 0);
    }

    #[test]
    fn sharded_appends_replay_the_cold_partitioned_run() {
        let base = quest_db(150);
        for strategy in [ShardStrategy::SupportStratum, ShardStrategy::MinhashBucket] {
            let config = FusionConfig::new(6, 4)
                .with_pool_max_len(2)
                .with_seed(9)
                .with_threads(2)
                .with_shards(3)
                .with_shard_strategy(strategy);
            let mut engine = DeltaEngine::new(base.clone(), config.clone());
            engine.mine();
            let delta = DbDelta::from_transactions(vec![vec![4, 9], vec![9, 12, 20]]);
            let incremental = engine.append(&delta);
            let mut grown = base.clone();
            grown.append_delta(&delta);
            let scratch = config.engine(&grown).mine(Source::Transactions).unwrap();
            assert_same_patterns(&incremental, &scratch, &format!("{strategy:?}"));
            // Per-shard structure matches the cold run too.
            assert_eq!(
                incremental.stats.shards.len(),
                scratch.stats.shards.len(),
                "{strategy:?}"
            );
            for (a, b) in incremental.stats.shards.iter().zip(&scratch.stats.shards) {
                assert_eq!(a.pool_size, b.pool_size, "{strategy:?}");
                assert_eq!(a.patterns, b.patterns, "{strategy:?}");
                assert_eq!(a.ball, b.ball, "{strategy:?}");
            }
        }
    }

    #[test]
    fn empty_delta_returns_the_cached_result() {
        let db = quest_db(120);
        let config = FusionConfig::new(6, 4).with_pool_max_len(2).with_seed(3);
        let mut engine = DeltaEngine::new(db, config);
        let base = engine.mine();
        let again = engine.append(&DbDelta::new());
        assert_same_patterns(&base, &again, "empty delta");
        assert_eq!(engine.generation(), 1, "no generation for an empty delta");
    }

    #[test]
    fn append_without_mine_mines_the_base_lazily() {
        let db = quest_db(120);
        let config = FusionConfig::new(6, 4)
            .with_pool_max_len(2)
            .with_seed(3)
            .with_threads(1);
        let delta = DbDelta::from_transactions(vec![vec![1, 5, 9]]);
        let mut lazy = DeltaEngine::new(db.clone(), config.clone());
        let got = lazy.append(&delta);
        let mut grown = db;
        grown.append_delta(&delta);
        let want = config.engine(&grown).mine(Source::Transactions).unwrap();
        assert_same_patterns(&got, &want, "lazy base mine");
        assert_eq!(lazy.generation(), 2);
    }

    #[test]
    fn a_small_delta_splices_most_of_the_pool() {
        // A small delta against a larger database: most first-item subtrees
        // are clean and splice through.
        let db = quest_db(300);
        let config = FusionConfig::new(8, 4)
            .with_pool_max_len(2)
            .with_seed(7)
            .with_threads(2);
        let mut engine = DeltaEngine::new(db, config);
        engine.mine();
        engine.append(&DbDelta::from_transactions(vec![vec![2, 3]]));
        let s = engine.last_append();
        assert!(
            s.rows_spliced > 0,
            "a 2-item delta must splice most of the pool: {s:?}"
        );
        assert!(s.dirty_items == 2);
    }
}
