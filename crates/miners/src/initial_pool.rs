//! Pattern-Fusion's initial pool: the complete set of small frequent
//! patterns, each carrying its support set.
//!
//! The paper (§2.3): "Pattern-Fusion assumes available an initial pool of
//! small frequent patterns, which is the complete set of frequent patterns up
//! to a small size, e.g., 3. This initial pool can be mined with any existing
//! efficient mining algorithm." We use a depth-bounded Eclat so every pool
//! entry keeps the tid-set Pattern-Fusion needs for distance computations and
//! fusion.
//!
//! One miner, [`delta_pool_slab`], builds every pool. It plans each
//! first-item subtree as *splice* (bulk-copy its rows from the previous
//! generation's slab) or *mine* (expand it with the DFS), mines the planned
//! subtrees **in parallel** over the work-stealing queue
//! ([`crate::parallel`]), each into a private slab segment, and assembles
//! the plan in first-item order, so the row sequence is bit-for-bit the
//! serial DFS emit order at any thread count. A full mine is the plan over
//! an empty previous generation: every subtree is mined.
//!
//! * [`initial_pool_slab`] — a full mine from a transaction database: it
//!   builds the vertical index and mines from an empty previous generation.
//!   The engine, which already holds the index, calls [`delta_pool_slab`]
//!   directly.
//! * [`initial_pool`] — the `Vec<PoolPattern>` reference form, kept for
//!   miners-agreement tests and harnesses that want owned patterns. Same
//!   order, same tid-sets.
//!
//! Pool entries are *counted* patterns: every emitted row carries its cached
//! cardinality, so downstream support reads (the ball-query engine's
//! cardinality prune, the stratified rank) are O(1) and never re-popcount.

use crate::parallel::run_tasks;
use cfp_itemset::{Itemset, PatternPool, TidSet, TransactionDb, VerticalIndex};
use std::ops::Range;
use std::time::Duration;
use std::time::Instant;

/// A pool entry: a frequent pattern with its support set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPattern {
    /// The pattern.
    pub items: Itemset,
    /// Its support set `D(α)`.
    pub tids: TidSet,
}

impl PoolPattern {
    /// Absolute support.
    pub fn support(&self) -> usize {
        self.tids.count()
    }
}

/// What [`delta_pool_slab`] did: evidence for the parallel mine that the
/// engine rolls into its run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMineStats {
    /// Worker threads the DFS fan-out used.
    pub workers: usize,
    /// First-item subtrees mined rather than spliced (every frequent item
    /// in a full mine).
    pub subtrees: usize,
    /// Mined first-item subtrees that were split one level deeper (depth-2
    /// head/sub tasks) to balance a skewed fan-out.
    pub split_subtrees: usize,
    /// Wall-clock time of the parallel subtree mining phase.
    pub mine_time: Duration,
    /// Wall-clock time assembling worker segments and spliced spans into
    /// the final slab (plus the stratified permutation when requested).
    pub splice_time: Duration,
    /// Rows bulk-copied from the previous generation's slab (0 for a full
    /// mine).
    pub rows_spliced: usize,
}

/// Mines all frequent patterns of size ≤ `max_len` with their tid-sets into
/// a columnar [`PatternPool`], fanning the per-item DFS subtrees out over
/// `threads` workers: builds `db`'s vertical index and runs
/// [`delta_pool_slab`] from an empty previous generation.
///
/// Rows are emitted in lexicographic itemset order — exactly the serial DFS
/// order, at any thread count.
pub fn initial_pool_slab(
    db: &TransactionDb,
    min_count: usize,
    max_len: usize,
    threads: usize,
) -> (PatternPool, PoolMineStats) {
    let index = VerticalIndex::new(db);
    let empty = PatternPool::new(db.len());
    delta_pool_slab(&index, min_count, max_len, threads, &empty, &[], &[])
}

/// First-item subtree spans of a **plain** (DFS emit order) pool slab:
/// `(item, rows)` per frequent first item, ascending, covering the slab.
///
/// The plain emit order opens every first-item subtree with its singleton
/// row, so each span starts at a 1-item row and runs to the next one —
/// these are exactly the splice units of the incremental re-mine
/// ([`delta_pool_slab`]). Meaningless on a stratified/permuted slab.
pub fn subtree_spans(pool: &PatternPool) -> Vec<(u32, Range<u32>)> {
    let rows = pool.len() as u32;
    let mut spans: Vec<(u32, Range<u32>)> = Vec::new();
    for r in 0..rows {
        let items = pool.items(r);
        if items.len() == 1 {
            if let Some(last) = spans.last_mut() {
                last.1.end = r;
            }
            spans.push((items[0], r..rows));
        } else {
            debug_assert!(!spans.is_empty(), "plain pools open with a singleton row");
        }
    }
    spans
}

/// The one pool miner: mines all frequent patterns of size ≤ `max_len`
/// of `index`'s database, re-mining only the first-item subtrees a database
/// delta touched and splicing every untouched subtree forward from the
/// previous generation's plain slab — bit-for-bit identical to a full mine
/// of the same database.
///
/// Inputs: `index` is the vertical index of the current (possibly grown,
/// [`VerticalIndex::absorb`]) database; `old_pool` is the previous
/// generation's plain slab with `old_spans` its [`subtree_spans`]; `dirty`
/// lists (sorted, ascending) every item with at least one occurrence among
/// the appended transactions. Appends only ever grow supports, so a
/// frequent item outside `dirty` kept its exact support set and — because a
/// clean prefix tid-set contains no appended tid, while any newly frequent
/// rightward extension has fewer than `min_count` old tids — its whole
/// subtree re-emits the previous rows zero-extended, which is what
/// [`PatternPool::splice_rows`] bulk-copies. Dirty subtrees (including
/// newly frequent items, which are always dirty, and every item without an
/// old span) are mined with the DFS and assembled at their item's position
/// in the ascending first-item order, reproducing the serial emit sequence.
/// With no old spans every subtree is mined: that is the full mine.
///
/// The mined subtrees are independent tasks on the work-stealing queue.
/// Subtrees shrink with the item position (extensions only look
/// rightward), which keeps workers busy on the long early subtrees —
/// except when one subtree dominates outright. A deterministic work
/// estimate (support × rightward fan-out) spots that skew: a mined subtree
/// estimated above a quarter of the mined total ships as a head task
/// emitting just `{i}` plus one task per depth-2 branch `{i, j}`. The task
/// list and each task's emit sequence are functions of pool content alone,
/// and assembling head + branches in order reproduces the whole-subtree
/// emit sequence byte for byte, so the split never changes the rows.
///
/// The returned [`PoolMineStats`] counts mined subtrees in `subtrees` and
/// the rows of spliced subtrees in `rows_spliced`.
pub fn delta_pool_slab(
    index: &VerticalIndex,
    min_count: usize,
    max_len: usize,
    threads: usize,
    old_pool: &PatternPool,
    old_spans: &[(u32, Range<u32>)],
    dirty: &[u32],
) -> (PatternPool, PoolMineStats) {
    let min_count = min_count.max(1);
    let universe = index.num_transactions();
    debug_assert!(
        dirty.windows(2).all(|w| w[0] < w[1]),
        "dirty must be sorted"
    );
    let frequent: Vec<(u32, &TidSet)> = (0..index.num_items())
        .filter_map(|i| {
            let t = index.item_tidset(i);
            (t.count() >= min_count).then_some((i, t))
        })
        .collect();

    // Plan each first-item subtree: splice the old span when the item is
    // clean, mine it when dirty or without an old span (mining is always
    // correct, splicing is the shortcut). Both the span list and the
    // frequent list ascend by item, so one merge walk pairs them.
    let mut spans = old_spans.iter().peekable();
    let splices: Vec<Option<Range<u32>>> = frequent
        .iter()
        .map(|&(item, _)| {
            while spans.next_if(|(i, _)| *i < item).is_some() {}
            spans
                .next_if(|(i, _)| *i == item)
                .filter(|_| dirty.binary_search(&item).is_err())
                .map(|(_, r)| r.clone())
        })
        .collect();
    let mut stats = PoolMineStats {
        workers: threads.max(1),
        subtrees: splices.iter().filter(|s| s.is_none()).count(),
        ..Default::default()
    };
    if max_len == 0 || frequent.is_empty() {
        return (PatternPool::new(universe), stats);
    }

    let estimate = |pos: usize| frequent[pos].1.count() as u64 * (frequent.len() - pos - 1) as u64;
    let mined_estimate: u64 = (0..frequent.len())
        .filter(|&pos| splices[pos].is_none())
        .map(estimate)
        .sum();
    let split_eligible = threads > 1 && max_len >= 2;
    let mut steps: Vec<Step> = Vec::with_capacity(frequent.len());
    for (pos, splice) in splices.into_iter().enumerate() {
        match splice {
            Some(rows) => {
                stats.rows_spliced += rows.len();
                steps.push(Step::Splice(rows));
            }
            None if split_eligible && estimate(pos).saturating_mul(4) > mined_estimate => {
                stats.split_subtrees += 1;
                steps.push(Step::Mine(SubtreeTask::Head(pos)));
                steps.extend(
                    (pos + 1..frequent.len()).map(|next| Step::Mine(SubtreeTask::Sub(pos, next))),
                );
            }
            None => steps.push(Step::Mine(SubtreeTask::Whole(pos))),
        }
    }
    let tasks: Vec<SubtreeTask> = steps
        .iter()
        .filter_map(|step| match step {
            Step::Mine(task) => Some(*task),
            Step::Splice(_) => None,
        })
        .collect();

    let t_mine = Instant::now();
    let frequent_ref = &frequent;
    let tasks_ref = &tasks;
    let segments = run_tasks(tasks.len(), threads, |ti| {
        let mut seg = PatternPool::new(universe);
        match tasks_ref[ti] {
            SubtreeTask::Whole(pos) => {
                let (item, tids) = frequent_ref[pos];
                let mut prefix = vec![item];
                seg.push_tidset(&prefix, tids);
                dfs_slab(
                    frequent_ref,
                    pos,
                    tids,
                    &mut prefix,
                    max_len,
                    min_count,
                    &mut seg,
                );
            }
            SubtreeTask::Head(pos) => {
                let (item, tids) = frequent_ref[pos];
                seg.push_tidset(&[item], tids);
            }
            SubtreeTask::Sub(pos, next_pos) => {
                let (item, tids) = frequent_ref[pos];
                let (next_item, next_tids) = frequent_ref[next_pos];
                if tids
                    .intersection_count_at_least(next_tids, min_count)
                    .is_some()
                {
                    let sub = tids.intersection(next_tids);
                    let mut prefix = vec![item, next_item];
                    seg.push_tidset(&prefix, &sub);
                    dfs_slab(
                        frequent_ref,
                        next_pos,
                        &sub,
                        &mut prefix,
                        max_len,
                        min_count,
                        &mut seg,
                    );
                }
            }
        }
        seg
    });
    stats.mine_time = t_mine.elapsed();

    let t_splice = Instant::now();
    let rows = segments.iter().map(PatternPool::len).sum::<usize>() + stats.rows_spliced;
    let mut pool = PatternPool::with_capacity(universe, rows);
    let mut seg_iter = segments.iter();
    for step in &steps {
        match step {
            Step::Splice(r) => pool.splice_rows(old_pool, r.start as usize..r.end as usize),
            Step::Mine(_) => pool.append_pool(seg_iter.next().expect("one segment per task")),
        }
    }
    stats.splice_time = t_splice.elapsed();
    (pool, stats)
}

/// [`initial_pool_slab`] permuted into **support-stratified order**:
/// ascending support, itemset as the tie-break. The fusion engine never
/// takes this copy — a sharded run deals the plain slab in this order as a
/// row list — and it is kept only for the end-to-end benchmark's replica of
/// the sharded engine, which mines through it.
pub fn initial_pool_slab_stratified(
    db: &TransactionDb,
    min_count: usize,
    max_len: usize,
    threads: usize,
) -> (PatternPool, PoolMineStats) {
    let (pool, mut stats) = initial_pool_slab(db, min_count, max_len, threads);
    let t = Instant::now();
    let pool = pool.permuted(&pool.stratified_order());
    stats.splice_time += t.elapsed();
    (pool, stats)
}

/// Mines all frequent patterns of size ≤ `max_len` with their tid-sets.
///
/// The result is sorted lexicographically by itemset and is deterministic —
/// the owned-`Vec` view of [`initial_pool_slab`]'s rows (single-threaded;
/// the engine mines the slab directly).
pub fn initial_pool(db: &TransactionDb, min_count: usize, max_len: usize) -> Vec<PoolPattern> {
    let (pool, _) = initial_pool_slab(db, min_count, max_len, 1);
    materialize(&pool)
}

/// [`initial_pool`] in the stratified `(support asc, itemset)` order.
pub fn initial_pool_stratified(
    db: &TransactionDb,
    min_count: usize,
    max_len: usize,
) -> Vec<PoolPattern> {
    let mut pool = initial_pool(db, min_count, max_len);
    sort_stratified(&mut pool);
    pool
}

/// Sorts a pool into the stratified `(support asc, itemset)` order.
pub fn sort_stratified(pool: &mut [PoolPattern]) {
    pool.sort_by(|a, b| {
        a.support()
            .cmp(&b.support())
            .then_with(|| a.items.cmp(&b.items))
    });
}

fn materialize(pool: &PatternPool) -> Vec<PoolPattern> {
    (0..pool.len() as u32)
        .map(|r| PoolPattern {
            items: pool.itemset(r),
            tids: pool.tidset(r),
        })
        .collect()
}

/// One step of a pool assembly, in first-item order: a span of the
/// previous generation's slab to splice, or a task to mine.
enum Step {
    Splice(Range<u32>),
    Mine(SubtreeTask),
}

/// One unit of the parallel mine. `Whole(i)` is first-item subtree `i`
/// (prefix `{i}` plus everything below). When a subtree's work estimate
/// dominates, it ships as `Head(i)` (the `{i}` row alone) followed by
/// `Sub(i, j)` for every rightward `j` (the `{i, j}` row plus its subtree —
/// empty when the depth-2 extension is infrequent). Assembled in task
/// order, both encodings produce the identical row sequence.
#[derive(Debug, Clone, Copy)]
enum SubtreeTask {
    Whole(usize),
    Head(usize),
    Sub(usize, usize),
}

fn dfs_slab(
    frequent: &[(u32, &TidSet)],
    pos: usize,
    tids: &TidSet,
    prefix: &mut Vec<u32>,
    max_len: usize,
    min_count: usize,
    seg: &mut PatternPool,
) {
    if prefix.len() >= max_len {
        return;
    }
    for (next_pos, &(item, item_tids)) in frequent.iter().enumerate().skip(pos + 1) {
        // Bounded counting first: the majority of extensions are infrequent
        // and die here without allocating an intersection.
        if tids
            .intersection_count_at_least(item_tids, min_count)
            .is_none()
        {
            continue;
        }
        let sub = tids.intersection(item_tids);
        prefix.push(item);
        seg.push_tidset(prefix, &sub);
        dfs_slab(frequent, next_pos, &sub, prefix, max_len, min_count, seg);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::testutil::brute_frequent;

    #[test]
    fn pool_is_complete_up_to_max_len() {
        let db = cfp_datagen::diag(10);
        for max_len in 1..=3 {
            let pool = initial_pool(&db, 5, max_len);
            let want: Vec<_> = brute_frequent(&db, 5)
                .into_iter()
                .filter(|p| p.len() <= max_len)
                .collect();
            assert_eq!(pool.len(), want.len(), "max_len={max_len}");
            for (g, w) in pool.iter().zip(&want) {
                assert_eq!(g.items, w.items);
                assert_eq!(g.support(), w.support);
            }
        }
    }

    #[test]
    fn paper_diag40_pool_has_820_patterns() {
        // Figure 7: "Pattern-Fusion starts with an initial pool of 820
        // patterns of size ≤ 2" on Diag40 at support 20: 40 + C(40,2).
        let db = cfp_datagen::diag(40);
        let pool = initial_pool(&db, 20, 2);
        assert_eq!(pool.len(), 820);
    }

    #[test]
    fn tidsets_are_exact() {
        let db = cfp_datagen::quest(&cfp_datagen::QuestConfig {
            n_transactions: 150,
            n_items: 25,
            ..Default::default()
        });
        let index = VerticalIndex::new(&db);
        let pool = initial_pool(&db, 3, 3);
        assert!(!pool.is_empty());
        for p in &pool {
            assert_eq!(p.tids, index.tidset(&p.items), "{}", p.items);
        }
    }

    #[test]
    fn agrees_with_bounded_apriori() {
        let db = cfp_datagen::quest(&cfp_datagen::QuestConfig {
            n_transactions: 150,
            n_items: 25,
            ..Default::default()
        });
        let pool = initial_pool(&db, 3, 2);
        let mut apriori = crate::apriori_bounded(&db, 3, 2, &Budget::unlimited()).patterns;
        crate::types::sort_canonical(&mut apriori);
        assert_eq!(pool.len(), apriori.len());
        for (g, w) in pool.iter().zip(&apriori) {
            assert_eq!(g.items, w.items);
            assert_eq!(g.support(), w.support);
        }
    }

    #[test]
    fn zero_max_len_gives_empty_pool() {
        let db = cfp_datagen::diag(6);
        assert!(initial_pool(&db, 2, 0).is_empty());
        let (slab, _) = initial_pool_slab(&db, 2, 0, 4);
        assert!(slab.is_empty());
    }

    /// The tentpole contract: the parallel slab mine emits bit-for-bit the
    /// serial DFS sequence at every thread count.
    #[test]
    fn parallel_slab_matches_serial_at_any_thread_count() {
        let db = cfp_datagen::quest(&cfp_datagen::QuestConfig {
            n_transactions: 200,
            n_items: 30,
            ..Default::default()
        });
        for max_len in [1usize, 2, 3] {
            let (serial, _) = initial_pool_slab(&db, 3, max_len, 1);
            for threads in [2usize, 4, 8] {
                let (par, stats) = initial_pool_slab(&db, 3, max_len, threads);
                assert_eq!(par, serial, "threads={threads} max_len={max_len}");
                assert_eq!(stats.workers, threads);
            }
        }
    }

    #[test]
    fn stratified_slab_matches_stratified_vec() {
        let db = cfp_datagen::diag(14);
        let want = initial_pool_stratified(&db, 5, 2);
        for threads in [1usize, 4] {
            let (slab, _) = initial_pool_slab_stratified(&db, 5, 2, threads);
            assert_eq!(slab.len(), want.len());
            for (r, w) in want.iter().enumerate() {
                let r = r as u32;
                assert_eq!(slab.itemset(r), w.items, "row {r}");
                assert_eq!(slab.tidset(r), w.tids, "row {r}");
            }
        }
    }

    #[test]
    fn mine_stats_are_populated() {
        let db = cfp_datagen::diag(12);
        let (pool, stats) = initial_pool_slab(&db, 4, 2, 2);
        assert!(!pool.is_empty());
        assert_eq!(stats.subtrees, 12);
        assert_eq!(stats.workers, 2);
        // Diagonal supports are uniform: no subtree dominates, no split.
        assert_eq!(stats.split_subtrees, 0);
    }

    /// A database whose first item appears everywhere while the rest are
    /// sparse: subtree 0 dominates the work estimate.
    fn skewed_db() -> cfp_itemset::TransactionDb {
        let mut rows = Vec::new();
        for t in 0..60u32 {
            // Item 0 in every transaction; items 1..=12 in staggered
            // sparse bands so plenty of depth-2 and depth-3 patterns
            // survive under item 0 but each sibling subtree stays small.
            let mut items = vec![0u32];
            for j in 1..=12u32 {
                if (t + j) % 3 == 0 || t % (j + 2) == 0 {
                    items.push(j);
                }
            }
            rows.push(Itemset::from_items(&items));
        }
        cfp_itemset::TransactionDb::from_dense(rows)
    }

    /// The satellite contract: a skew-dominated first subtree is split one
    /// level deeper, and the split run still emits bit-for-bit the serial
    /// whole-subtree sequence at every thread count.
    #[test]
    fn skewed_subtree_is_split_and_stays_bit_identical() {
        let db = skewed_db();
        for max_len in [2usize, 3] {
            let (serial, serial_stats) = initial_pool_slab(&db, 4, max_len, 1);
            // Serial mining never splits (nothing to balance).
            assert_eq!(serial_stats.split_subtrees, 0);
            for threads in [2usize, 8] {
                let (par, stats) = initial_pool_slab(&db, 4, max_len, threads);
                assert!(
                    stats.split_subtrees >= 1,
                    "threads={threads} max_len={max_len}: dominant subtree not split"
                );
                assert_eq!(stats.subtrees, serial_stats.subtrees);
                assert_eq!(par, serial, "threads={threads} max_len={max_len}");
            }
        }
    }

    #[test]
    fn subtree_spans_cover_the_plain_slab() {
        let db = cfp_datagen::quest(&cfp_datagen::QuestConfig {
            n_transactions: 150,
            n_items: 25,
            ..Default::default()
        });
        let (pool, _) = initial_pool_slab(&db, 3, 3, 1);
        let spans = subtree_spans(&pool);
        // Spans are ascending by item, contiguous, and cover every row;
        // each opens with its singleton and owns every row whose first
        // item matches.
        let mut next = 0u32;
        for (item, range) in &spans {
            assert_eq!(range.start, next);
            assert_eq!(pool.items(range.start), &[*item]);
            for r in range.clone() {
                assert_eq!(pool.items(r)[0], *item, "row {r}");
            }
            next = range.end;
        }
        assert_eq!(next, pool.len() as u32);
        assert!(spans.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// The incremental contract: re-mining only the touched subtrees and
    /// splicing the rest reproduces the full miner on the grown database
    /// bit for bit — including when the delta makes a previously
    /// infrequent item frequent (its subtree appears mid-sequence) and
    /// introduces brand-new items.
    #[test]
    fn delta_pool_matches_full_remine() {
        let db = cfp_datagen::quest(&cfp_datagen::QuestConfig {
            n_transactions: 200,
            n_items: 30,
            ..Default::default()
        });
        let min_count = 4;
        for max_len in [2usize, 3] {
            let (old_pool, _) = initial_pool_slab(&db, min_count, max_len, 1);
            let spans = subtree_spans(&old_pool);
            // A delta touching a handful of items, one fresh label (40).
            let delta = cfp_itemset::DbDelta::from_transactions(vec![
                vec![0, 3, 7, 40],
                vec![3, 7],
                vec![7, 11, 40],
            ]);
            let mut grown = db.clone();
            let appended = grown.append_delta(&delta);
            let mut index = VerticalIndex::new(&db);
            index.absorb(&grown, appended);
            let mut dirty: Vec<u32> = delta
                .transactions()
                .iter()
                .flatten()
                .filter_map(|&l| grown.item_map().internal(l))
                .collect();
            dirty.sort_unstable();
            dirty.dedup();
            let (want, _) = initial_pool_slab(&grown, min_count, max_len, 1);
            for threads in [1usize, 2, 8] {
                let (got, stats) = delta_pool_slab(
                    &index, min_count, max_len, threads, &old_pool, &spans, &dirty,
                );
                assert_eq!(got, want, "threads={threads} max_len={max_len}");
                // Only the dirty subtrees were re-mined.
                assert!(stats.subtrees <= dirty.len());
            }
        }
    }

    /// An empty dirty set splices everything: the delta mine re-expands no
    /// subtree and still equals the full re-mine (which equals the old
    /// pool zero-extended).
    #[test]
    fn delta_pool_with_no_dirty_items_is_pure_splice() {
        let db = cfp_datagen::diag(14);
        let (old_pool, _) = initial_pool_slab(&db, 5, 2, 1);
        let spans = subtree_spans(&old_pool);
        let index = VerticalIndex::new(&db);
        let (got, stats) = delta_pool_slab(&index, 5, 2, 4, &old_pool, &spans, &[]);
        assert_eq!(stats.subtrees, 0);
        assert_eq!(stats.rows_spliced, old_pool.len());
        assert_eq!(got, old_pool);
    }

    /// The append path balances a skewed re-mine too: a dirty subtree that
    /// dominates the re-mined work is split one level deeper, and the pool
    /// still equals a full re-mine of the grown database.
    #[test]
    fn dirty_dominant_subtree_is_split_on_append() {
        let db = skewed_db();
        let min_count = 4;
        for max_len in [2usize, 3] {
            let (old_pool, _) = initial_pool_slab(&db, min_count, max_len, 1);
            let spans = subtree_spans(&old_pool);
            // Touches the dominant item 0 and one sparse sibling.
            let delta =
                cfp_itemset::DbDelta::from_transactions(vec![vec![0, 2, 5], vec![0, 2], vec![0]]);
            let mut grown = db.clone();
            let appended = grown.append_delta(&delta);
            let mut index = VerticalIndex::new(&db);
            index.absorb(&grown, appended);
            let mut dirty: Vec<u32> = delta
                .transactions()
                .iter()
                .flatten()
                .filter_map(|&l| grown.item_map().internal(l))
                .collect();
            dirty.sort_unstable();
            dirty.dedup();
            let (want, _) = initial_pool_slab(&grown, min_count, max_len, 1);
            for threads in [2usize, 8] {
                let (got, stats) = delta_pool_slab(
                    &index, min_count, max_len, threads, &old_pool, &spans, &dirty,
                );
                assert!(
                    stats.split_subtrees >= 1,
                    "threads={threads} max_len={max_len}: dominant dirty subtree not split"
                );
                assert_eq!(stats.subtrees, dirty.len());
                assert!(stats.rows_spliced > 0);
                assert_eq!(got, want, "threads={threads} max_len={max_len}");
            }
        }
    }

    /// The split decision is depth-gated: at `max_len == 1` there is no
    /// depth-2 row to split on, so even a skewed pool mines whole.
    #[test]
    fn split_is_disabled_at_depth_one() {
        let db = skewed_db();
        let (serial, _) = initial_pool_slab(&db, 4, 1, 1);
        let (par, stats) = initial_pool_slab(&db, 4, 1, 8);
        assert_eq!(stats.split_subtrees, 0);
        assert_eq!(par, serial);
    }
}
