//! The metric-pruned ball-query engine, built once per pool, over
//! **borrowed pool-slab rows**.
//!
//! Every Pattern-Fusion iteration asks, for each of K seeds α, for the ball
//! `{β ∈ Pool : Dist(α, β) ≤ r(τ)}`. The naive scan is O(K · |Pool|) full
//! Jaccard computations; because `(S, Dist)` is a metric space (Theorem 1),
//! almost all of those pairs can be decided without touching a tid-set —
//! rejected by three layers, or accepted by a fourth:
//!
//! 1. **Cardinality prune** — `1 − min(|A|,|B|) / max(|A|,|B|)` lower-bounds
//!    the distance (the intersection can never beat the smaller set, the
//!    union never undercut the larger), so with the pool sorted by support
//!    the candidates for a seed of support `a` live in the contiguous range
//!    `a·(1−r) ≤ |B| ≤ a/(1−r)`. Everything outside is skipped by two binary
//!    searches, before any memory but the support array is touched.
//! 2. **Pivot prune (triangle inequality)** — for P pivot patterns `p` with
//!    precomputed distance columns, `|d(α,p) − d(β,p)| > r ⇒ Dist(α,β) > r`.
//!    Seeds are pool members, so their pivot distances are table lookups.
//! 3. **Bounded exact check** — survivors run the batched early-exit radius
//!    kernel ([`cfp_itemset::kernels::jaccard_within_rows`]) gathered
//!    straight over the pool slab's 32-byte-aligned rows on whatever SIMD
//!    backend the process detected ([`cfp_itemset::kernels::Backend`]).
//!    Backends are bit-identical in results, so none of this is visible in
//!    output.
//! 4. **Accepting bounds** — two upper bounds on the distance settle a
//!    member without the kernel. Over a universe of U tids, `|A∩B| ≥
//!    a+b−U`, so the distance is at most `(2U−a−b)/U`, which falls as `b`
//!    grows: the candidates of support at least `b_acc(a)` form a suffix
//!    of the support-sorted window, the **proven range**, and every one of
//!    them is a member. Among the other candidates, a pivot survivor with
//!    `d(α,p) + d(p,β) ≤ r` for some pivot `p` is a member by the triangle
//!    inequality.
//!
//! The float prunes are slackened by `SLACK` so rounding can only cause a
//! redundant exact check, never a false reject; the accepting bounds are
//! tightened by the same margins, and `b_acc` is settled against the
//! kernel's own float test, so they never admit a non-member. The engine
//! returns exactly the brute-force ball, in ascending pool order (a
//! property test in `tests/ball_determinism.rs` enforces this). Balls are
//! assembled as bitmaps over pool positions — the exact hits plus the
//! proven range, minus the seed — and read out in ascending order, so no
//! ball is sorted.
//!
//! # Zero-copy arenas
//!
//! The index **borrows** the [`PoolStore`] slab: its "arena" is a
//! support-sorted list of global row ids plus the small derived columns the
//! prunes need (cards, pivot-distance rows). Tid words and suffix tables
//! are gathered from the slab at scan time through the kernels' gather
//! entry points — slab rows are frozen and row ids stable (see
//! [`cfp_itemset::store`]'s ownership contract), so the index stays valid
//! while the iteration interns its fused patterns into the overlay slab.
//! Every query method therefore takes the store it indexes; passing a
//! different store than the one the index was built over is a logic error.
//!
//! # Lifecycle: one index per pool
//!
//! Pattern-Fusion replaces its whole pool every iteration (Algorithm 1,
//! `Pool ← S`), and the fused set shares few rows with the pool it came
//! from, so an index is built over exactly one pool and never outlives it.
//! [`BallIndex::apply_delta`] — the fusion loop's step from one pool to the
//! next — is a fresh [`BallIndex::build_with_threads`] over the new pool at
//! the [`BallIndex::pivot_target`] the previous iteration's prune rates
//! chose ([`BallIndex::adapt_pivot_target`]). The [`PoolDelta`] it takes
//! only prices the step for [`IndexMaintenance`]: how many patterns left
//! the pool and how many entered it. [`BallIndex::compactions`] counts the
//! steps.
//!
//! Balls are exact at any pivot count, so fusion output is bit-identical
//! at any thread count; only the pruning counters depend on the pivots.

use crate::parallel::run_tasks;
use crate::pool::PoolStore;
use crate::stats::IndexMaintenance;
use cfp_itemset::kernels;
use std::ops::Range;
use std::time::Instant;

/// Absolute slack added to the pruning radii so floating-point rounding can
/// only produce extra exact checks, never drop a true ball member.
const SLACK: f64 = 1e-9;

/// Extra slack for the pivot layer, whose distance table is stored as `f32`
/// (one cache line covers a candidate's whole pivot row): covers the f32
/// rounding of both table entries with two orders of magnitude to spare.
const PIVOT_SLACK: f64 = 1e-5;

/// Sentinel in [`PoolDelta::compute`]'s row map: the row is not in the old
/// pool.
const ABSENT: u32 = u32::MAX;

/// Work counters proving what the pruning layers skipped. All counts are
/// pairs (seed, candidate) over the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BallQueryStats {
    /// Pairs a brute-force scan would have evaluated (`|Pool| − 1` per seed).
    pub pairs_total: u64,
    /// Pairs skipped by the support-range (cardinality) prune.
    pub cardinality_pruned: u64,
    /// Pairs skipped by the pivot / triangle-inequality prune.
    pub pivot_pruned: u64,
    /// Pairs decided exactly: by the bounded-Jaccard kernel, or by proof
    /// for the [`BallQueryStats::accepted_by_bound`] share of them.
    pub exact_checked: u64,
    /// Pairs accepted into a ball.
    pub ball_members: u64,
    /// Pairs of `exact_checked` accepted by an accepting bound (the
    /// proven range or the pivot triangle bound) without a kernel call.
    /// Every one is a ball member.
    pub accepted_by_bound: u64,
    /// `pivot_pruned` broken down by pivot index: a pruned pair is
    /// attributed to the *first* pivot whose triangle-inequality bound
    /// rejected it (the scan checks pivots in order). Entries beyond the
    /// index's pivot count stay 0; the entries sum to `pivot_pruned`.
    /// Evidence for how much each farthest-point pivot earns its table
    /// column.
    pub pivot_prune_counts: [u64; MAX_PIVOTS],
    /// Number of pivot columns the serving index had active — the adapted
    /// count chosen by [`BallIndex::adapt_pivot_target`] once a rebuild has
    /// applied it (merged with `max`, so aggregated stats report the widest
    /// table consulted). Not a pair count; excluded from the partition
    /// identity.
    pub pivots_active: u64,
}

impl BallQueryStats {
    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &BallQueryStats) {
        self.pairs_total += other.pairs_total;
        self.cardinality_pruned += other.cardinality_pruned;
        self.pivot_pruned += other.pivot_pruned;
        self.exact_checked += other.exact_checked;
        self.ball_members += other.ball_members;
        self.accepted_by_bound += other.accepted_by_bound;
        for (mine, theirs) in self
            .pivot_prune_counts
            .iter_mut()
            .zip(&other.pivot_prune_counts)
        {
            *mine += *theirs;
        }
        self.pivots_active = self.pivots_active.max(other.pivots_active);
    }

    /// Fraction of pairs a pruning layer rejected before any exact
    /// decision, by kernel or by proof (0 when no pairs were considered).
    pub fn pruned_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            0.0
        } else {
            1.0 - self.exact_checked as f64 / self.pairs_total as f64
        }
    }

    /// Fraction of pairs an accepting bound settled without a kernel call
    /// (0 when no pairs were considered). With
    /// [`BallQueryStats::pruned_fraction`] it leaves the share of pairs
    /// that ran the kernel.
    pub fn accepted_fraction(&self) -> f64 {
        self.accepted_by_bound as f64 / self.pairs_total.max(1) as f64
    }
}

/// The difference between one iteration's pool and the next: which old
/// entries survive (and under which new pool index) and which new pool
/// entries are new to the pool.
///
/// Old pool indices absent from `survivors` left the pool.
#[derive(Debug, Clone, Default)]
pub struct PoolDelta {
    /// `(old pool index, new pool index)` for every pattern present in both
    /// pools. Pools are row-id lists over one interning [`PoolStore`], so
    /// "present in both" is plain row-id equality.
    pub survivors: Vec<(u32, u32)>,
    /// New pool indices with no counterpart in the old pool.
    pub inserts: Vec<u32>,
}

impl PoolDelta {
    /// Computes the delta between two row-id pools sharing one store
    /// (`total_rows` = [`PoolStore::len_rows`], the row-id space bound).
    /// O(|old| + |new|) array writes — no hashing, no itemset reads.
    pub fn compute(old: &[u32], new: &[u32], total_rows: usize) -> Self {
        let mut old_pos = vec![ABSENT; total_rows];
        for (i, &r) in old.iter().enumerate() {
            debug_assert_eq!(old_pos[r as usize], ABSENT, "old pool has duplicate rows");
            old_pos[r as usize] = i as u32;
        }
        let mut survivors = Vec::new();
        let mut inserts = Vec::new();
        for (j, &r) in new.iter().enumerate() {
            match old_pos[r as usize] {
                ABSENT => inserts.push(j as u32),
                i => survivors.push((i, j as u32)),
            }
        }
        Self { survivors, inserts }
    }
}

/// A gather plan over the store's two slabs: row lists per slab plus the
/// destination offsets their kernel outputs scatter back to. The batched
/// kernels stream one contiguous slab at a time, so every mixed-row batch
/// splits into at most two gathers.
#[derive(Default)]
struct SlabGather {
    base_rows: Vec<u32>,
    base_dst: Vec<u32>,
    local_rows: Vec<u32>,
    local_dst: Vec<u32>,
}

impl SlabGather {
    fn plan(store: &PoolStore, entries: impl Iterator<Item = (u32, u32)>) -> Self {
        let mut g = SlabGather::default();
        for (dst, row) in entries {
            let (local, idx) = store.split(row);
            if local {
                g.local_rows.push(idx);
                g.local_dst.push(dst);
            } else {
                g.base_rows.push(idx);
                g.base_dst.push(dst);
            }
        }
        g
    }

    /// Distances from one query row to every planned row, scattered into
    /// `out` (indexed by the plan's destination offsets) via `col` scratch.
    fn jaccard_from(
        &self,
        store: &PoolStore,
        q_row: u32,
        q_card: usize,
        out: &mut [f64],
        col: &mut Vec<f64>,
    ) {
        let w = store.words_per_row();
        let qw = store.words_of(q_row);
        for (slab, rows, dst) in [
            (store.base_pool(), &self.base_rows, &self.base_dst),
            (store.local_pool(), &self.local_rows, &self.local_dst),
        ] {
            col.clear();
            kernels::jaccard_rows(qw, q_card, slab.words(), slab.supports(), w, rows, col);
            for (k, &d) in dst.iter().zip(col.iter()) {
                out[*k as usize] = d;
            }
        }
    }
}

/// An index over one pool for radius-`r` ball queries.
///
/// Construction sorts the pool's row ids by support and computes the pivot
/// distance table — O(P · |Pool|) batched Jaccards over the slab, amortized
/// over the iteration's K seed queries. No tid words are copied: the arena
/// holds row ids and derived prune columns only (see the module docs).
pub struct BallIndex {
    /// Arena position → global store row, in **support-sorted order**.
    arena_rows: Vec<u32>,
    /// Cardinalities in arena (ascending) order — the binary-search key.
    cards: Vec<u32>,
    /// `pivot_dists[pos * n_pivots + p]` = Dist(pivot_p, arena[pos]) —
    /// candidate-major, so one candidate's whole pivot row is one cache
    /// line.
    pivot_dists: Vec<f32>,
    /// The pivots' reference data: (global store row, cardinality).
    pivots: Vec<(u32, usize)>,
    /// Number of pivots in use (≤ [`MAX_PIVOTS`], ≤ pool size).
    n_pivots: usize,
    /// The requested pivot count, before clamping — the next rebuild
    /// re-clamps it against the new pool size.
    pivot_target: usize,
    /// Arena position → pool index.
    pool_of: Vec<u32>,
    /// Pool index → arena position (inverse of `pool_of`).
    pos_of: Vec<u32>,
    /// Rebuilds by [`BallIndex::apply_delta`] since construction.
    compactions: u64,
    /// Query radius r(τ).
    radius: f64,
    /// The store's transaction universe U, which the accepting cardinality
    /// bound needs.
    universe: usize,
}

impl BallIndex {
    /// Builds the index for the pool `rows` (a row-id list into `store`) on
    /// the calling thread.
    ///
    /// `n_pivots` is clamped to the pool size and to [`MAX_PIVOTS`]; 0
    /// disables the pivot layer.
    pub fn build(store: &PoolStore, rows: &[u32], radius: f64, n_pivots: usize) -> Self {
        Self::build_with_threads(store, rows, radius, n_pivots, 1)
    }

    /// [`BallIndex::build`] with the pivot-table build — the dominant index
    /// cost, P·|Pool| Jaccards — distributed over the work-stealing queue.
    /// The table is identical for every thread count.
    pub fn build_with_threads(
        store: &PoolStore,
        rows: &[u32],
        radius: f64,
        n_pivots: usize,
        threads: usize,
    ) -> Self {
        let n = rows.len();
        let mut pool_of: Vec<u32> = (0..n as u32).collect();
        pool_of.sort_unstable_by_key(|&i| (store.support(rows[i as usize]), i));
        let mut pos_of = vec![0u32; n];
        for (pos, &i) in pool_of.iter().enumerate() {
            pos_of[i as usize] = pos as u32;
        }
        let arena_rows: Vec<u32> = pool_of.iter().map(|&i| rows[i as usize]).collect();
        let cards: Vec<u32> = arena_rows
            .iter()
            .map(|&r| store.support(r) as u32)
            .collect();

        // Pivots: deterministic farthest-point (max-min) selection over a
        // support-stratified sample — pivots end up spread across the
        // pool's metric extremes, so each one's triangle-inequality band is
        // narrow for most candidates. The MAX_PIVOTS clamp keeps `query`'s
        // fixed-size seed row in bounds.
        let pivot_target = n_pivots;
        let n_pivots = n_pivots.min(n).min(MAX_PIVOTS);
        let pivots: Vec<(u32, usize)> = select_pivots(store, &arena_rows, &cards, n_pivots, radius)
            .into_iter()
            .map(|pos| (arena_rows[pos], cards[pos] as usize))
            .collect();
        let n_pivots = pivots.len();
        let pivot_dists = if n_pivots == 0 {
            Vec::new()
        } else {
            // Candidate-major rows; contiguous position chunks concatenate
            // in task order straight into the final layout. Within a chunk
            // the table is built pivot-major — one batched gather per pivot
            // per slab over the chunk's rows — then scattered into the
            // candidate-major rows the scan wants.
            const PIVOT_CHUNK: usize = 1024;
            let pivots = &pivots;
            let arena_rows_ref = &arena_rows;
            run_tasks(n.div_ceil(PIVOT_CHUNK), threads, |t| {
                let start = t * PIVOT_CHUNK;
                let end = (start + PIVOT_CHUNK).min(n);
                let gather = SlabGather::plan(
                    store,
                    (start..end).map(|pos| ((pos - start) as u32, arena_rows_ref[pos])),
                );
                let mut rows_mat = vec![0.0f32; (end - start) * n_pivots];
                let mut dists = vec![0.0f64; end - start];
                let mut col: Vec<f64> = Vec::with_capacity(end - start);
                for (p, &(prow, pc)) in pivots.iter().enumerate() {
                    gather.jaccard_from(store, prow, pc, &mut dists, &mut col);
                    for (i, &d) in dists.iter().enumerate() {
                        rows_mat[i * n_pivots + p] = d as f32;
                    }
                }
                rows_mat
            })
            .concat()
        };

        Self {
            arena_rows,
            cards,
            pivot_dists,
            pivots,
            n_pivots,
            pivot_target,
            pool_of,
            pos_of,
            compactions: 0,
            radius,
            universe: store.universe(),
        }
    }

    /// Number of patterns indexed (the pool size).
    pub fn len(&self) -> usize {
        self.arena_rows.len()
    }

    /// Whether no patterns are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The query radius the index was built for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Rebuilds by [`BallIndex::apply_delta`] so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Moves the index from the pool it mirrors to `new_rows`: a fresh
    /// build over `new_rows` at [`BallIndex::pivot_target`], with `threads`
    /// parallelizing the pivot table exactly like
    /// [`BallIndex::build_with_threads`]. `delta` (see
    /// [`PoolDelta::compute`]) prices the step: the returned record counts
    /// the patterns that left the pool as `tombstoned` and the ones new to
    /// it as `inserted`. Every call counts one [`BallIndex::compactions`].
    pub fn apply_delta(
        &mut self,
        store: &PoolStore,
        new_rows: &[u32],
        delta: &PoolDelta,
        threads: usize,
    ) -> IndexMaintenance {
        let t0 = Instant::now();
        debug_assert_eq!(
            delta.survivors.len() + delta.inserts.len(),
            new_rows.len(),
            "delta does not describe the new pool"
        );
        let tombstoned = (self.len() - delta.survivors.len()) as u64;
        let compactions = self.compactions + 1;
        *self = Self::build_with_threads(store, new_rows, self.radius, self.pivot_target, threads);
        self.compactions = compactions;
        IndexMaintenance {
            rebuilt: true,
            tombstoned,
            inserted: delta.inserts.len() as u64,
            live: self.len(),
            elapsed: t0.elapsed(),
        }
    }

    /// Adapts the pivot *count* to the prune rates one iteration actually
    /// measured: each pivot column costs a |Pool|-sized f32 stripe at build
    /// plus one band test per surviving pair at scan, so the count should
    /// track what the pool's geometry lets the triangle inequality earn.
    ///
    /// Policy, over the pairs that survived the cardinality prune
    /// (`pairs_total − cardinality_pruned`):
    ///
    /// * **shrink** — drop trailing pivots whose attributed prune count is
    ///   under 1% of the surviving pairs (the scan attributes each pruned
    ///   pair to the first rejecting pivot, so a late pivot's count is its
    ///   *marginal* contribution);
    /// * **grow** — when no pivot is idle and over half the surviving pairs
    ///   still reach the exact kernel, request one more pivot (up to
    ///   [`MAX_PIVOTS`]).
    ///
    /// Only [`BallIndex::pivot_target`] changes; the current table is
    /// untouched, so results stay bit-identical and the new count takes
    /// effect at the next [`BallIndex::apply_delta`]. Deterministic: the
    /// counters are exact pair counts, identical at every thread count.
    pub fn adapt_pivot_target(&mut self, stats: &BallQueryStats) {
        let survivors = stats.pairs_total.saturating_sub(stats.cardinality_pruned);
        if survivors == 0 {
            return;
        }
        let mut target = self.n_pivots;
        while target > 0 && stats.pivot_prune_counts[target - 1] * 100 < survivors {
            target -= 1;
        }
        if target == self.n_pivots
            && self.n_pivots < MAX_PIVOTS
            && stats.exact_checked * 2 > survivors
        {
            target = self.n_pivots + 1;
        }
        self.pivot_target = target;
    }

    /// Number of pivot columns currently in use.
    pub fn pivots_active(&self) -> usize {
        self.n_pivots
    }

    /// The pivot count the next rebuild will request (the adapted target
    /// once [`BallIndex::adapt_pivot_target`] has run).
    pub fn pivot_target(&self) -> usize {
        self.pivot_target
    }

    /// The candidate cardinality window `[lo, hi]` for a seed of support
    /// `a`: keep `|B|` with `min/max` ratio ≥ `1−r`, i.e. `a·(1−r) ≤ |B| ≤
    /// a/(1−r)`, slackened by [`SLACK`].
    ///
    /// Degenerate regimes are handled explicitly rather than left to float
    /// rounding:
    ///
    /// * `r(τ) ≈ 1` (`keep ≤ SLACK`): the prune is vacuous — every
    ///   cardinality qualifies.
    /// * `a = 0` (empty support set): the distance to any non-empty set is
    ///   exactly 1 (> r here) and to another empty set exactly 0, so the
    ///   window is precisely the empty-support stratum `[0, 0]`.
    /// * Huge `a / keep`: when `keep` is tiny but above `SLACK`, `a/keep`
    ///   overflows `u32`; the bound is clamped to `u32::MAX` explicitly (see
    ///   the `keep ≈ SLACK` boundary test) instead of relying on the
    ///   saturating `f64 → u32` cast.
    fn card_window(&self, a: f64) -> (u32, u32) {
        let keep = 1.0 - self.radius;
        if keep <= SLACK {
            return (0, u32::MAX);
        }
        if a == 0.0 {
            return (0, 0);
        }
        let lo = (a * keep - SLACK).ceil().max(0.0) as u32;
        let hi_f = (a / keep + SLACK).floor();
        let hi = if hi_f >= u32::MAX as f64 {
            u32::MAX
        } else {
            hi_f as u32
        };
        (lo, hi)
    }

    /// The arena positions `lo..hi` whose cardinalities fall in
    /// [`BallIndex::card_window`] for a seed of support `a`, and the start
    /// `acc` of the proven range `acc..hi`: the window's candidates of
    /// support at least [`accept_floor`]`(a)`.
    fn candidate_window(&self, a: usize) -> (usize, usize, usize) {
        let (lo_card, hi_card) = self.card_window(a as f64);
        let lo = self.cards.partition_point(|&c| c < lo_card);
        let hi = self.cards.partition_point(|&c| c <= hi_card);
        let b_acc = accept_floor(a, self.universe, self.radius);
        let acc = lo + self.cards[lo..hi].partition_point(|&c| (c as usize) < b_acc);
        (lo, hi, acc)
    }

    /// Pivot row of the pattern at arena position `pos`.
    fn pivot_row(&self, pos: usize) -> &[f32] {
        let np = self.n_pivots;
        &self.pivot_dists[pos * np..(pos + 1) * np]
    }

    /// Prepares the ball query for pool member `q`: resolves the candidate
    /// support window and the seed's pivot distances. O(log |Pool| + P).
    pub fn query(&self, q: usize) -> BallQuery<'_> {
        let q_pos = self.pos_of[q] as usize;
        let (lo, hi, acc) = self.candidate_window(self.cards[q_pos] as usize);
        let mut seed_pivot_dists = [0.0f32; MAX_PIVOTS];
        seed_pivot_dists[..self.n_pivots].copy_from_slice(self.pivot_row(q_pos));
        BallQuery {
            index: self,
            q_pos,
            lo,
            hi,
            acc,
            seed_pivot_dists,
            ext: None,
        }
    }

    /// Prepares a ball query for a seed that is **not** a pool member: an
    /// external tid-set supplied in slab-row shape — `words` is the padded
    /// tid bitmap ([`PoolStore::words_per_row`] words), `sufs` its suffix
    /// cardinality table ([`PoolStore::suf_stride`] entries, built with
    /// [`kernels::suffix_cards_into`]), `card` the set's cardinality.
    ///
    /// The seed's pivot distances are computed here, one batched Jaccard
    /// per pivot through the same kernel that built the pivot table, so the
    /// triangle-inequality prune is exactly as tight (and as correct) as
    /// for member queries. The scan then runs the member machinery
    /// unchanged; since the seed holds no index position, no candidate is
    /// skipped as "self" — the ball is the full radius-`r` neighborhood.
    /// O(P) small kernel calls + O(log |Pool|).
    pub fn query_external<'q>(
        &'q self,
        store: &PoolStore,
        words: &'q [u64],
        sufs: &'q [u32],
        card: usize,
    ) -> BallQuery<'q> {
        debug_assert_eq!(words.len(), store.words_per_row(), "query words mis-sized");
        debug_assert_eq!(
            sufs.len(),
            store.suf_stride(),
            "query suffix table mis-sized"
        );
        // The kernel reads the seed's cardinality from `sufs[0]`; the
        // accepting bound must see the same one.
        debug_assert_eq!(sufs[0] as usize, card, "query cardinality mis-stated");
        let (lo, hi, acc) = self.candidate_window(card);
        let mut seed_pivot_dists = [0.0f32; MAX_PIVOTS];
        let w = store.words_per_row();
        let mut col: Vec<f64> = Vec::with_capacity(1);
        for (p, &(prow, _)) in self.pivots.iter().enumerate() {
            let (local, idx) = store.split(prow);
            let slab = if local {
                store.local_pool()
            } else {
                store.base_pool()
            };
            col.clear();
            kernels::jaccard_rows(
                words,
                card,
                slab.words(),
                slab.supports(),
                w,
                &[idx],
                &mut col,
            );
            seed_pivot_dists[p] = col[0] as f32;
        }
        BallQuery {
            index: self,
            // Sentinel: no candidate's arena position can equal this, so
            // the member scan's self-skip never fires for an external seed.
            q_pos: usize::MAX,
            lo,
            hi,
            acc,
            seed_pivot_dists,
            ext: Some((words, sufs)),
        }
    }

    /// Convenience: the full ball of pool member `q`, ascending pool order,
    /// with counters accumulated into `stats`. Exactly the brute-force ball
    /// over the pool.
    pub fn ball(&self, store: &PoolStore, q: usize, stats: &mut BallQueryStats) -> Vec<usize> {
        self.query(q).ball(store, stats)
    }

    /// Convenience: the full radius-`r` ball of an external tid-set (see
    /// [`BallIndex::query_external`] for the slab-row shape of
    /// `words`/`sufs`/`card`), ascending pool order, counters accumulated
    /// into `stats`.
    pub fn ball_external(
        &self,
        store: &PoolStore,
        words: &[u64],
        sufs: &[u32],
        card: usize,
        stats: &mut BallQueryStats,
    ) -> Vec<usize> {
        self.query_external(store, words, sufs, card)
            .ball(store, stats)
    }
}

/// Whether the accepting cardinality bound proves that a candidate of
/// support `b` lies in the radius-`radius` ball of a seed of support `a`,
/// over a universe of `universe` tids: the kernel's own float distance at
/// the worst-case intersection `max(0, a+b−U)`, plus `SLACK`, is within the
/// radius. The float distance only falls as the intersection grows (a
/// correctly rounded quotient is monotone), so a proof here is a kernel
/// accept for every actual intersection.
fn accepted_by_cardinality(a: usize, b: usize, universe: usize, radius: f64) -> bool {
    let inter = (a + b).saturating_sub(universe);
    kernels::jaccard_from_counts(inter, a, b) + SLACK <= radius
}

/// `b_acc(a)`: the least support `b` such that
/// [`accepted_by_cardinality`] proves every support in `b..=universe`, or
/// `universe + 1` when it proves none. Starts at the real-valued bound
/// `(2−r)·U − a` and settles float rounding against the test itself. For
/// `a ≥ 1` the test is monotone in `b`; an empty seed is the exception —
/// at distance 0 from an empty candidate and 1 from any other — so the
/// search only steps down from a proven support.
fn accept_floor(a: usize, universe: usize, radius: f64) -> usize {
    let proves = |b: usize| accepted_by_cardinality(a, b, universe, radius);
    let estimate = ((2.0 - radius) * universe as f64 - a as f64).ceil();
    let mut b = estimate.clamp(0.0, (universe + 1) as f64) as usize;
    if b <= universe && proves(b) {
        while b > 0 && proves(b - 1) {
            b -= 1;
        }
    } else {
        while b <= universe && !proves(b) {
            b += 1;
        }
    }
    b
}

/// Upper bound on pivots (fixed-size seed row, no per-query allocation).
pub const MAX_PIVOTS: usize = 16;

/// Sample-size floor for farthest-point pivot selection.
const PIVOT_SAMPLE_MIN: usize = 64;

/// Sample points considered per requested pivot (beyond the floor).
const PIVOT_SAMPLE_PER_PIVOT: usize = 8;

/// Deterministic farthest-point (max-min) pivot selection over a
/// support-stratified sample of the support-sorted arena.
///
/// The sample takes evenly spaced positions in support order (one per
/// stratum, so every support band can contribute a pivot); one batched
/// gather per sample point fills the sample's distance matrix straight from
/// the pool slab. The selection is the classic k-center heuristic —
/// repeatedly take the sample point maximizing the minimum distance to
/// everything chosen so far, seeded by the distances from the
/// median-support sample point — with one guard: a candidate whose distance
/// column over the rest of the sample is flat to within `radius` is
/// **deprioritized**, because a pivot `p` only ever prunes a pair through
/// `|d(α,p) − d(β,p)| > r`, so a flat column (e.g. a singleton outlier at
/// distance ≈ 1 from every cluster — exactly what unguarded max-min picks
/// first) provably prunes nothing. Flat candidates are used only when the
/// spread ones run out.
///
/// Returns chosen **arena positions**. Deterministic — a pure function of
/// the arena and radius — and cheap: O(sample²) batched Jaccards, vanishing
/// next to the O(|Pool| · pivots) table build it steers. Ties break toward
/// the lower sample position; a degenerate all-equal pool falls back to the
/// earliest unchosen sample points.
fn select_pivots(
    store: &PoolStore,
    arena_rows: &[u32],
    cards: &[u32],
    n_pivots: usize,
    radius: f64,
) -> Vec<usize> {
    let n = cards.len();
    if n_pivots == 0 || n == 0 {
        return Vec::new();
    }
    let s = n.min(PIVOT_SAMPLE_MIN.max(n_pivots * PIVOT_SAMPLE_PER_PIVOT));
    let sample: Vec<u32> = (0..s)
        .map(|i| ((i * n / s + n / (2 * s)).min(n - 1)) as u32)
        .collect();
    // Sample × sample distance matrix, one batched gather per row.
    let gather = SlabGather::plan(
        store,
        sample
            .iter()
            .enumerate()
            .map(|(j, &pos)| (j as u32, arena_rows[pos as usize])),
    );
    let mut matrix: Vec<f64> = vec![0.0; s * s];
    let mut col: Vec<f64> = Vec::with_capacity(s);
    for (i, &pos) in sample.iter().enumerate() {
        let row = arena_rows[pos as usize];
        let card = cards[pos as usize] as usize;
        gather.jaccard_from(store, row, card, &mut matrix[i * s..(i + 1) * s], &mut col);
    }
    let m = |i: usize, j: usize| matrix[i * s + j];
    // Discrimination guard (self-distance excluded from the spread).
    let discriminating: Vec<bool> = (0..s)
        .map(|i| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for j in 0..s {
                if j != i {
                    lo = lo.min(m(i, j));
                    hi = hi.max(m(i, j));
                }
            }
            s == 1 || hi - lo > radius
        })
        .collect();
    let mut min_dist: Vec<f64> = (0..s).map(|i| m(s / 2, i)).collect();
    let mut chosen_idx: Vec<usize> = Vec::with_capacity(n_pivots);
    let mut chosen: Vec<usize> = Vec::with_capacity(n_pivots);
    while chosen.len() < n_pivots {
        // Tier 1: discriminating candidates; tier 2: the rest.
        let mut best = usize::MAX;
        for tier in [true, false] {
            let mut best_d = -1.0f64;
            for i in 0..s {
                if discriminating[i] == tier && !chosen_idx.contains(&i) && min_dist[i] > best_d {
                    best_d = min_dist[i];
                    best = i;
                }
            }
            if best != usize::MAX {
                break;
            }
        }
        if best == usize::MAX {
            break; // fewer sample points than requested pivots
        }
        chosen_idx.push(best);
        chosen.push(sample[best] as usize);
        for (i, md) in min_dist.iter_mut().enumerate() {
            if m(best, i) < *md {
                *md = m(best, i);
            }
        }
    }
    chosen
}

/// A prepared ball query: a candidate window into the support-sorted arena,
/// its proven range, plus the seed's pivot-distance row. Scanning is split
/// into ranges so the parallel pipeline can hand segments of one seed's
/// scan to idle workers.
pub struct BallQuery<'a> {
    index: &'a BallIndex,
    /// The seed's arena position (`usize::MAX` for an external seed).
    q_pos: usize,
    /// Candidate window: arena positions `lo..hi`.
    lo: usize,
    hi: usize,
    /// Start of the proven range `acc..hi` (`lo ≤ acc ≤ hi`): every
    /// candidate there but the seed is a member by the accepting
    /// cardinality bound.
    acc: usize,
    seed_pivot_dists: [f32; MAX_PIVOTS],
    /// `Some((words, sufs))` for an external (non-member) seed: the slab-
    /// shaped row data the exact kernel reads instead of a store row.
    ext: Option<(&'a [u64], &'a [u32])>,
}

impl BallQuery<'_> {
    /// Number of candidates surviving the cardinality prune — the
    /// coordinate space [`BallQuery::scan`] segments address. A member
    /// seed is included; the scan skips it. The proven range is the
    /// window's tail, candidates `unproven()..candidates()`.
    pub fn candidates(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of candidates before the proven range: the only ones whose
    /// membership a scan has to decide.
    pub(crate) fn unproven(&self) -> usize {
        self.acc - self.lo
    }

    /// Books the pairs this query considers and the cardinality-pruned bulk
    /// into `stats`. Call once per query.
    pub fn account(&self, stats: &mut BallQueryStats) {
        let n = self.index.len() as u64;
        let in_range = self.candidates() as u64;
        // An external seed holds no pool slot, so every pattern is a
        // candidate pair; a member seed excludes itself (it sits inside its
        // own range — neither a pair nor pruned).
        stats.pairs_total += if self.ext.is_some() { n } else { n - 1 };
        stats.cardinality_pruned += n - in_range;
        stats.pivots_active = stats.pivots_active.max(self.index.n_pivots as u64);
    }

    /// Books the proven range — every candidate there but the seed — as
    /// members accepted by bound, exactly as a [`BallQuery::scan`] over it
    /// would. For callers that scan only `0..unproven()`; call once per
    /// query.
    pub(crate) fn account_proven(&self, stats: &mut BallQueryStats) {
        let seed_inside = (self.acc..self.hi).contains(&self.q_pos);
        book_accepted(
            stats,
            (self.hi - self.acc - usize::from(seed_inside)) as u64,
        );
    }

    /// Cuts `0..candidates()` into consecutive ranges of `target`
    /// candidates (the last one shorter). Deterministic — a pure function
    /// of the window — so the parallel pipeline's task split never depends
    /// on thread count.
    pub fn segments(&self, target: usize) -> Vec<Range<usize>> {
        cut(self.candidates(), target)
    }

    /// [`BallQuery::segments`] over `0..unproven()` only: the scan tasks of
    /// a caller that takes the proven range from [`BallQuery::assemble`].
    pub(crate) fn unproven_segments(&self, target: usize) -> Vec<Range<usize>> {
        cut(self.unproven(), target)
    }

    /// Scans candidate positions `seg` (relative to this query's window),
    /// appending accepted pool indices to `out` and counting into `stats`.
    /// `store` must be the store the index was built over.
    ///
    /// Candidates before the proven range are pruned, accepted by the
    /// pivot bound, or decided by the batched exact kernel; candidates
    /// inside it are emitted as members accepted by bound, without a
    /// kernel call.
    ///
    /// Disjoint segments cover disjoint candidates, so segments can run on
    /// different workers and be concatenated. Hits are not reported in
    /// window order, so a caller that wants the brute-force order sorts the
    /// concatenation (the engine's own callers assemble a bitmap instead).
    pub fn scan(
        &self,
        store: &PoolStore,
        seg: Range<usize>,
        out: &mut Vec<usize>,
        stats: &mut BallQueryStats,
    ) {
        let end = seg.end.min(self.candidates());
        let start = seg.start.min(end);
        let split = self.unproven().clamp(start, end);
        self.scan_unproven(store, start..split, |i| out.push(i as usize), stats);
        let before = out.len();
        out.extend(
            (self.lo + split..self.lo + end)
                .filter(|&pos| pos != self.q_pos)
                .map(|pos| self.index.pool_of[pos] as usize),
        );
        book_accepted(stats, (out.len() - before) as u64);
    }

    /// Decides candidates `seg` (relative to the window, clipped to
    /// `0..unproven()`), passing each member's pool index to `emit` and
    /// counting into `stats`.
    ///
    /// Two passes. The cheap tests (seed skip, then the pivot triangle
    /// inequality — float compares over the candidate-major pivot rows)
    /// prune a candidate, accept it by the pivot bound, or gather its
    /// *slab row* per slab; then each gathered batch runs through the
    /// **batched** suffix-Jaccard gather kernel
    /// ([`kernels::jaccard_within_rows`]): the seed's words stay hot while
    /// the backend streams the pool slab's 32-byte-aligned rows — no
    /// per-candidate heap pointers, no copies. The acceptance test inside
    /// the kernel is the exact float comparison `jaccard ≤ radius` —
    /// identical to brute force. Members are emitted pivot-accepted first,
    /// then slab-major.
    pub(crate) fn scan_unproven(
        &self,
        store: &PoolStore,
        seg: Range<usize>,
        mut emit: impl FnMut(u32),
        stats: &mut BallQueryStats,
    ) {
        let ix = self.index;
        let (qw, qs) = match self.ext {
            Some((w, s)) => (w, s),
            None => {
                let q_row = ix.arena_rows[self.q_pos];
                (store.words_of(q_row), store.sufs_of(q_row))
            }
        };
        let pivot_radius = (ix.radius + PIVOT_SLACK) as f32;
        let accept_radius = (ix.radius - PIVOT_SLACK) as f32;
        let end = seg.end.min(self.unproven());
        // Pass 1: prune or accept. Survivors are (slab row, pool index)
        // pairs split per slab; the segment length bounds all four buffers.
        let cap = end.saturating_sub(seg.start);
        let mut base_rows: Vec<u32> = Vec::with_capacity(cap);
        let mut base_pool: Vec<u32> = Vec::with_capacity(cap);
        let mut local_rows: Vec<u32> = Vec::new();
        let mut local_pool: Vec<u32> = Vec::new();
        for pos in self.lo + seg.start..self.lo + end {
            if pos == self.q_pos {
                continue;
            }
            // Branchless triangle-inequality tests over the whole pivot row
            // (auto-vectorizes; a per-pivot early-exit loop pays a
            // mispredicted branch per pivot instead). The prune mask's
            // lowest set bit is the first violating pivot — the same
            // attribution the ordered loop produced. `near` is the
            // accepting bound d(α,p) + d(p,β) ≤ r, tightened by the slack.
            let row = ix.pivot_row(pos);
            let mut mask = 0u32;
            let mut near = false;
            for (p, &pd) in row.iter().enumerate() {
                let sd = self.seed_pivot_dists[p];
                mask |= u32::from((sd - pd).abs() > pivot_radius) << p;
                near |= sd + pd <= accept_radius;
            }
            if mask != 0 {
                stats.pivot_pruned += 1;
                stats.pivot_prune_counts[mask.trailing_zeros() as usize] += 1;
                continue;
            }
            if near {
                book_accepted(stats, 1);
                emit(ix.pool_of[pos]);
                continue;
            }
            stats.exact_checked += 1;
            let (is_local, idx) = store.split(ix.arena_rows[pos]);
            if is_local {
                local_rows.push(idx);
                local_pool.push(ix.pool_of[pos]);
            } else {
                base_rows.push(idx);
                base_pool.push(ix.pool_of[pos]);
            }
        }
        // Pass 2: batched exact checks, base slab then overlay slab.
        for (rows, pools, slab) in [
            (&base_rows, &base_pool, store.base_pool()),
            (&local_rows, &local_pool, store.local_pool()),
        ] {
            kernels::jaccard_within_rows(
                qw,
                qs,
                slab.words(),
                slab.sufs(),
                store.suf_stride(),
                store.words_per_row(),
                rows,
                ix.radius,
                &mut |k, _d| {
                    stats.ball_members += 1;
                    emit(pools[k]);
                },
            );
        }
    }

    /// The ball in ascending pool order: `hits` — the pool indices a scan
    /// of `0..unproven()` accepted, in any order — plus the proven range,
    /// minus the seed. Assembled as a bitmap over pool positions and read
    /// out in order, so nothing is sorted.
    pub(crate) fn assemble(&self, hits: impl IntoIterator<Item = u32>) -> Vec<usize> {
        let ix = self.index;
        let mut bits = vec![0u64; ix.len().div_ceil(64)];
        let proven = (self.acc..self.hi)
            .filter(|&pos| pos != self.q_pos)
            .map(|pos| ix.pool_of[pos]);
        for i in hits.into_iter().chain(proven) {
            bits[i as usize / 64] |= 1 << (i % 64);
        }
        let mut ball = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                ball.push(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
        ball
    }

    /// The whole query on the calling thread: counters into `stats`, the
    /// ball in ascending pool order.
    fn ball(&self, store: &PoolStore, stats: &mut BallQueryStats) -> Vec<usize> {
        self.account(stats);
        self.account_proven(stats);
        let mut hits = Vec::new();
        self.scan_unproven(store, 0..self.unproven(), |i| hits.push(i), stats);
        self.assemble(hits)
    }
}

/// Books `n` pairs an accepting bound settled: decided exactly, members,
/// and no kernel call.
fn book_accepted(stats: &mut BallQueryStats, n: u64) {
    stats.exact_checked += n;
    stats.ball_members += n;
    stats.accepted_by_bound += n;
}

/// Cuts `0..n` into consecutive ranges of `target` (at least 1) items, the
/// last one shorter.
fn cut(n: usize, target: usize) -> Vec<Range<usize>> {
    let step = target.max(1);
    (0..n).step_by(step).map(|s| s..(s + step).min(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{ball_radius, pattern_distance};
    use crate::pattern::Pattern;
    use cfp_itemset::{Itemset, TidSet};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pat(universe: usize, id: u32, tids: &[usize]) -> Pattern {
        Pattern::new(
            Itemset::from_items(&[id]),
            TidSet::from_tids(universe, tids.iter().copied()),
        )
    }

    fn brute_ball(pool: &[Pattern], q: usize, radius: f64) -> Vec<usize> {
        (0..pool.len())
            .filter(|&j| j != q && pattern_distance(&pool[q], &pool[j]) <= radius)
            .collect()
    }

    /// A store + identity row list over owned patterns — the test harness's
    /// bridge between `Vec<Pattern>` fixtures and the slab world.
    fn store_of(pool: &[Pattern]) -> (PoolStore, Vec<u32>) {
        let store = PoolStore::from_patterns(pool);
        let rows = (0..pool.len() as u32).collect();
        (store, rows)
    }

    /// Interns `next` into `store`, returning its row list.
    fn intern_all(store: &mut PoolStore, next: &[Pattern]) -> Vec<u32> {
        next.iter().map(|p| store.intern(p)).collect()
    }

    fn fixture_pool() -> Vec<Pattern> {
        let u = 256;
        let mut pool = Vec::new();
        // Three support-set clusters plus singleton outliers.
        for c in 0..3usize {
            let base: Vec<usize> = (c * 60..c * 60 + 40).collect();
            for v in 0..12usize {
                let mut tids = base.clone();
                tids.truncate(40 - v % 5);
                tids.push(200 + (c * 12 + v) % 50);
                pool.push(pat(u, (c * 12 + v) as u32, &tids));
            }
        }
        for o in 0..8usize {
            pool.push(pat(u, (100 + o) as u32, &[240 + o]));
        }
        pool
    }

    /// Checks every pattern's engine ball against brute force.
    fn assert_matches_brute(
        index: &BallIndex,
        store: &PoolStore,
        pool: &[Pattern],
        radius: f64,
        label: &str,
    ) {
        for q in 0..pool.len() {
            let mut stats = BallQueryStats::default();
            let got = index.ball(store, q, &mut stats);
            let want = brute_ball(pool, q, radius);
            assert_eq!(got, want, "{label}: q={q} radius={radius}");
        }
    }

    #[test]
    fn engine_ball_equals_brute_force_on_fixture() {
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        for radius in [0.0, 0.2, 0.5, 2.0 / 3.0, 1.0] {
            let index = BallIndex::build(&store, &rows, radius, 4);
            assert_matches_brute(&index, &store, &pool, radius, "fresh");
        }
    }

    /// An external pattern's tid set in slab-row shape: padded word bitmap,
    /// suffix cardinality table, cardinality.
    fn row_shape(store: &PoolStore, p: &Pattern) -> (Vec<u64>, Vec<u32>, usize) {
        let mut words = vec![0u64; store.words_per_row()];
        for t in p.tids.iter() {
            words[t / 64] |= 1 << (t % 64);
        }
        let mut sufs = Vec::new();
        kernels::suffix_cards_into(&words, &mut sufs);
        debug_assert_eq!(sufs.len(), store.suf_stride());
        (words, sufs, p.tids.count())
    }

    #[test]
    fn external_query_equals_brute_force() {
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        for radius in [0.0, 0.2, 0.5, 1.0] {
            let index = BallIndex::build(&store, &rows, radius, 4);
            // Every member, asked externally, gets its brute ball plus its
            // own pool slot (an external seed skips nothing as "self").
            for q in 0..pool.len() {
                let (words, sufs, card) = row_shape(&store, &pool[q]);
                let mut stats = BallQueryStats::default();
                let got = index.ball_external(&store, &words, &sufs, card, &mut stats);
                let mut want = brute_ball(&pool, q, radius);
                want.push(q);
                want.sort_unstable();
                assert_eq!(got, want, "member-as-external q={q} radius={radius}");
                assert_eq!(stats.pairs_total, pool.len() as u64, "q={q}");
                assert_eq!(
                    stats.pairs_total,
                    stats.cardinality_pruned + stats.pivot_pruned + stats.exact_checked,
                    "q={q} radius={radius}"
                );
            }
            // A genuinely novel tid set: half of cluster 0's base block.
            let novel = pat(256, 999, &(0..20usize).collect::<Vec<_>>());
            let (words, sufs, card) = row_shape(&store, &novel);
            let mut stats = BallQueryStats::default();
            let got = index.ball_external(&store, &words, &sufs, card, &mut stats);
            let want: Vec<usize> = (0..pool.len())
                .filter(|&j| pattern_distance(&novel, &pool[j]) <= radius)
                .collect();
            assert_eq!(got, want, "novel seed radius={radius}");
        }
    }

    #[test]
    fn external_query_on_an_empty_index_is_empty() {
        let pool = fixture_pool();
        let (store, _) = store_of(&pool);
        let index = BallIndex::build(&store, &[], 0.5, 4);
        let (words, sufs, card) = row_shape(&store, &pool[0]);
        let mut stats = BallQueryStats::default();
        let got = index.ball_external(&store, &words, &sufs, card, &mut stats);
        assert!(got.is_empty());
        assert_eq!(stats.pairs_total, 0);
    }

    #[test]
    fn counters_add_up_and_prune() {
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        let index = BallIndex::build(&store, &rows, 0.5, 4);
        let mut stats = BallQueryStats::default();
        for q in 0..pool.len() {
            index.ball(&store, q, &mut stats);
        }
        let n = pool.len() as u64;
        assert_eq!(stats.pairs_total, n * (n - 1));
        assert_eq!(
            stats.pairs_total,
            stats.cardinality_pruned + stats.pivot_pruned + stats.exact_checked
        );
        assert!(stats.ball_members <= stats.exact_checked);
        // Per-pivot attribution partitions the pivot prune exactly, and only
        // the index's pivots (here 4) ever get credit.
        assert_eq!(
            stats.pivot_prune_counts.iter().sum::<u64>(),
            stats.pivot_pruned
        );
        assert!(stats.pivot_prune_counts[4..].iter().all(|&c| c == 0));
        // The serving index's pivot count is reported alongside the prunes.
        assert_eq!(stats.pivots_active, 4);
        // The clustered fixture must show real pruning.
        assert!(
            stats.pruned_fraction() > 0.5,
            "only {:.2} pruned: {stats:?}",
            stats.pruned_fraction()
        );
    }

    #[test]
    fn segmented_scans_cover_exactly_once() {
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        let index = BallIndex::build(&store, &rows, 0.5, 2);
        for q in [0usize, 7, 20, 35] {
            let query = index.query(q);
            let total = query.candidates();
            let mut whole = Vec::new();
            let mut stats = BallQueryStats::default();
            query.scan(&store, 0..total, &mut whole, &mut stats);
            let mut pieces = Vec::new();
            let step = (total / 3).max(1);
            let mut start = 0;
            while start < total {
                query.scan(
                    &store,
                    start..(start + step).min(total),
                    &mut pieces,
                    &mut stats,
                );
                start += step;
            }
            whole.sort_unstable();
            pieces.sort_unstable();
            assert_eq!(whole, pieces, "q={q}");
        }
    }

    #[test]
    fn segments_partition_the_window() {
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        let index = BallIndex::build(&store, &rows, 0.5, 2);
        for q in [0usize, 5, 17] {
            let query = index.query(q);
            let segs = query.segments(4);
            // Partition: consecutive, disjoint, covering 0..candidates().
            let mut covered = 0usize;
            for seg in &segs {
                assert_eq!(seg.start, covered, "q={q}");
                assert!(seg.end > seg.start, "q={q}");
                covered = seg.end;
            }
            assert_eq!(covered, query.candidates(), "q={q}");
            // Scanning by segments equals scanning the whole window.
            let mut whole = Vec::new();
            let mut stats = BallQueryStats::default();
            query.scan(&store, 0..query.candidates(), &mut whole, &mut stats);
            let mut pieces = Vec::new();
            for seg in segs {
                query.scan(&store, seg, &mut pieces, &mut stats);
            }
            whole.sort_unstable();
            pieces.sort_unstable();
            assert_eq!(whole, pieces, "q={q}");
        }
    }

    #[test]
    fn zero_pivots_and_tiny_pools() {
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        let index = BallIndex::build(&store, &rows, 0.4, 0);
        let mut stats = BallQueryStats::default();
        let got = index.ball(&store, 3, &mut stats);
        assert_eq!(got, brute_ball(&pool, 3, 0.4));
        assert_eq!(stats.pivot_pruned, 0);

        let one = vec![pat(64, 1, &[1, 2, 3])];
        let (store, rows) = store_of(&one);
        let index = BallIndex::build(&store, &rows, 0.5, 8);
        let mut stats = BallQueryStats::default();
        assert!(index.ball(&store, 0, &mut stats).is_empty());
        assert_eq!(stats.pairs_total, 0);

        let (store, rows) = store_of(&[]);
        assert!(BallIndex::build(&store, &rows, 0.5, 4).is_empty());
    }

    #[test]
    fn pivot_counts_beyond_max_are_clamped() {
        // Regression: MAX_PIVOTS + n used to panic in query()'s fixed-size
        // seed-row copy.
        let pool = fixture_pool();
        let (store, rows) = store_of(&pool);
        let index = BallIndex::build(&store, &rows, 0.5, MAX_PIVOTS + 24);
        let mut stats = BallQueryStats::default();
        for q in 0..pool.len() {
            assert_eq!(
                index.ball(&store, q, &mut stats),
                brute_ball(&pool, q, 0.5),
                "q={q}"
            );
        }
    }

    #[test]
    fn empty_support_patterns_are_guarded() {
        // Patterns with empty tid-sets: distance to any non-empty set is 1,
        // between two empty sets 0 (the kernels' convention). The engine
        // must reproduce brute force without NaNs or degenerate windows
        // admitting non-empty sets.
        let u = 128;
        let mut pool = fixture_pool_small(u);
        pool.push(pat(u, 90, &[]));
        pool.push(pat(u, 91, &[]));
        for radius in [0.0, 0.4, 0.9999, 1.0] {
            let (store, rows) = store_of(&pool);
            let index = BallIndex::build(&store, &rows, radius, 3);
            assert_matches_brute(&index, &store, &pool, radius, "empty supports");
        }
        // An all-empty pool: every pattern is in every other's ball.
        let empties: Vec<Pattern> = (0..4).map(|i| pat(u, 200 + i, &[])).collect();
        let (store, rows) = store_of(&empties);
        let index = BallIndex::build(&store, &rows, 0.5, 2);
        assert_matches_brute(&index, &store, &empties, 0.5, "all empty");
    }

    fn fixture_pool_small(u: usize) -> Vec<Pattern> {
        vec![
            pat(u, 0, &[0, 1, 2, 3]),
            pat(u, 1, &[0, 1, 2]),
            pat(u, 2, &[50, 51, 52]),
            pat(u, 3, &[50, 51]),
            pat(u, 4, &[100]),
        ]
    }

    #[test]
    fn cardinality_window_clamps_at_the_keep_slack_boundary() {
        // keep = 1 − radius just above SLACK: a/keep overflows u32 and must
        // clamp to an all-inclusive upper bound, not wrap or drop members.
        let u = 128;
        let pool = fixture_pool_small(u);
        let (store, rows) = store_of(&pool);
        for keep in [2e-9, 1e-8, 1e-6] {
            let radius = 1.0 - keep;
            let index = BallIndex::build(&store, &rows, radius, 2);
            // `1e6 / keep` exceeds u32::MAX for every keep here: the upper
            // bound must clamp to u32::MAX, not wrap or saturate by accident
            // of the cast. Empty sets sit at distance exactly 1 > radius, so
            // a lower bound of 1 is admissible.
            let (lo, hi) = index.card_window(1e6);
            assert!(lo <= 1, "keep={keep}: lo={lo}");
            assert_eq!(hi, u32::MAX, "keep={keep}: hi must clamp, not wrap");
            // At a cardinality where the quotient stays in range, the bound
            // stays finite.
            let (_, hi_small) = index.card_window(1.0);
            assert!(hi_small < u32::MAX, "keep={keep}");
            assert_matches_brute(&index, &store, &pool, radius, "keep boundary");
        }
        // Just below SLACK: the vacuous-window branch.
        let index = BallIndex::build(&store, &rows, 1.0 - 1e-10, 2);
        let (lo, hi) = index.card_window(4.0);
        assert_eq!((lo, hi), (0, u32::MAX));
        // A large-support seed at a plain radius stays finite.
        let index = BallIndex::build(&store, &rows, 0.5, 2);
        let (lo, hi) = index.card_window(1e9);
        assert!(lo >= 1 && hi < u32::MAX);
    }

    /// Drives `apply_delta` through several pools the way the fusion loop
    /// does (adapting the pivot target from each pool's measured prunes):
    /// every step must answer exactly like a fresh build at the adapted
    /// target and like brute force, and price the step by its departures
    /// and arrivals.
    #[test]
    fn incremental_updates_match_fresh_rebuild() {
        let u = 256;
        let mut pool = fixture_pool();
        let (mut store, mut rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 4);
        let mut next_id = 1000u32;
        for step in 0..5usize {
            let mut measured = BallQueryStats::default();
            for q in 0..pool.len() {
                index.ball(&store, q, &mut measured);
            }
            index.adapt_pivot_target(&measured);
            // Keep a deterministic ~70%, insert a few new patterns (some
            // resembling cluster members, one empty).
            let mut next: Vec<Pattern> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| (i * 7 + step) % 10 < 7)
                .map(|(_, p)| p.clone())
                .collect();
            for v in 0..3usize {
                let tids: Vec<usize> = (step * 11..step * 11 + 20 + v).map(|t| t % u).collect();
                next.push(pat(u, next_id, &tids));
                next_id += 1;
            }
            if step == 2 {
                next.push(pat(u, next_id, &[]));
                next_id += 1;
            }
            let next_rows = intern_all(&mut store, &next);
            let departed = rows.iter().filter(|r| !next_rows.contains(r)).count();
            let arrived = next_rows.iter().filter(|r| !rows.contains(r)).count();
            let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
            let m = index.apply_delta(&store, &next_rows, &delta, 1);
            assert!(m.rebuilt, "step {step}");
            assert_eq!(m.tombstoned, departed as u64, "step {step}");
            assert_eq!(m.inserted, arrived as u64, "step {step}");
            assert_eq!(index.compactions(), step as u64 + 1);
            assert_eq!(m.live, next.len());
            assert_eq!(index.len(), next.len());
            assert_matches_brute(&index, &store, &next, 0.5, &format!("step {step}"));
            // And equality with a fresh index, member and counter for member.
            let fresh = BallIndex::build(&store, &next_rows, 0.5, index.pivot_target());
            for q in 0..next.len() {
                let mut a = BallQueryStats::default();
                let mut b = BallQueryStats::default();
                assert_eq!(
                    index.ball(&store, q, &mut a),
                    fresh.ball(&store, q, &mut b),
                    "step {step} q={q}"
                );
                assert_eq!(a, b, "step {step} q={q}");
            }
            pool = next;
            rows = next_rows;
        }
    }

    #[test]
    fn adapt_pivot_target_follows_measured_prune_rates() {
        let pool = fixture_pool();
        let (mut store, rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 4);
        assert_eq!(index.pivots_active(), 4);
        assert_eq!(index.pivot_target(), 4);

        // Trailing pivots earning under 1% of the surviving pairs are shed
        // one by one until a productive pivot is reached.
        let mut idle = BallQueryStats {
            pairs_total: 10_000,
            cardinality_pruned: 2_000, // survivors = 8_000, 1% = 80
            pivot_pruned: 4_210,
            exact_checked: 3_790,
            ..Default::default()
        };
        idle.pivot_prune_counts[0] = 4_000;
        idle.pivot_prune_counts[1] = 200;
        idle.pivot_prune_counts[2] = 10;
        index.adapt_pivot_target(&idle);
        assert_eq!(index.pivot_target(), 2, "pivots 2 and 3 are idle");
        assert_eq!(
            index.pivots_active(),
            4,
            "live table untouched until rebuild"
        );

        // All pivots busy but most survivors still reach the exact kernel:
        // request one more column.
        index.adapt_pivot_target(&BallQueryStats {
            pairs_total: 10_000,
            cardinality_pruned: 2_000,
            pivot_pruned: 2_000,
            exact_checked: 6_000,
            pivot_prune_counts: {
                let mut c = [0u64; MAX_PIVOTS];
                c[..4].copy_from_slice(&[1_000, 500, 300, 200]);
                c
            },
            ..Default::default()
        });
        assert_eq!(index.pivot_target(), 5);

        // No surviving pairs: nothing to learn from, target unchanged.
        index.adapt_pivot_target(&BallQueryStats::default());
        assert_eq!(index.pivot_target(), 5);

        // The adapted target takes effect at the next pool's rebuild.
        index.adapt_pivot_target(&idle);
        assert_eq!(index.pivot_target(), 2);
        let next: Vec<Pattern> = pool[..10].to_vec();
        let next_rows = intern_all(&mut store, &next);
        let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
        index.apply_delta(&store, &next_rows, &delta, 1);
        assert_eq!(index.pivots_active(), 2);
        assert_matches_brute(&index, &store, &next, 0.5, "after adapted rebuild");
    }

    #[test]
    fn pool_delta_partitions_old_and_new() {
        let pool = fixture_pool();
        let (mut store, rows) = store_of(&pool);
        let next: Vec<Pattern> = pool[..20].to_vec();
        let next_rows = intern_all(&mut store, &next);
        let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
        assert_eq!(delta.survivors.len(), 20);
        assert!(delta.inserts.is_empty());
        let mut grown = next.clone();
        grown.push(pat(256, 777, &[1, 2, 3]));
        let grown_rows = intern_all(&mut store, &grown);
        let delta = PoolDelta::compute(&next_rows, &grown_rows, store.len_rows());
        assert_eq!(delta.survivors.len(), 20);
        assert_eq!(delta.inserts, vec![20]);
    }

    /// Fusion's core ratios, whose `ball_radius` the accepting bounds meet
    /// in every mine.
    const TAUS: [f64; 5] = [0.3, 1.0 / 3.0, 0.5, 0.7, 1.0];

    /// The radii both accepting-bound tests cover: the plain spectrum plus
    /// the algorithm's radii.
    fn accept_radii() -> Vec<f64> {
        let mut radii = vec![0.0, 0.2, 0.5, 1.0];
        radii.extend(TAUS.map(ball_radius));
        radii
    }

    /// Exhaustive boundary test of the accepting cardinality bound: every
    /// support the proven range admits passes the kernel's own float test
    /// at the worst-case intersection, and `b_acc` is the least support
    /// from which the settled test proves every larger one.
    #[test]
    fn accept_floor_is_exact_against_the_kernel_test() {
        for radius in accept_radii() {
            for universe in 1..=256usize {
                for a in 0..=universe {
                    let b_acc = accept_floor(a, universe, radius);
                    assert!(b_acc <= universe + 1, "U={universe} a={a} r={radius}");
                    for b in b_acc..=universe {
                        let inter = (a + b).saturating_sub(universe);
                        assert!(
                            kernels::jaccard_from_counts(inter, a, b) <= radius,
                            "U={universe} a={a} b={b} r={radius}: proven but outside"
                        );
                        assert!(accepted_by_cardinality(a, b, universe, radius));
                    }
                    if b_acc > 0 {
                        assert!(
                            !accepted_by_cardinality(a, b_acc - 1, universe, radius),
                            "U={universe} a={a} r={radius}: b_acc={b_acc} is not the least"
                        );
                    }
                    // For a non-empty seed the test is monotone in b, so
                    // b_acc is also the least support it accepts at all.
                    if a > 0 {
                        assert!(
                            (0..b_acc).all(|b| !accepted_by_cardinality(a, b, universe, radius)),
                            "U={universe} a={a} r={radius}: a support below b_acc passes"
                        );
                    }
                }
            }
        }
    }

    /// The scan before the accepting bounds, kept as an oracle: the
    /// cardinality window and the pivot prune as the engine runs them, then
    /// the exact kernel for every pivot survivor. Every counter but
    /// `accepted_by_bound` must come out the same as the engine's.
    fn reference_ball(
        query: &BallQuery<'_>,
        store: &PoolStore,
        stats: &mut BallQueryStats,
    ) -> Vec<usize> {
        let ix = query.index;
        let (qw, qs) = match query.ext {
            Some(ext) => ext,
            None => {
                let q_row = ix.arena_rows[query.q_pos];
                (store.words_of(q_row), store.sufs_of(q_row))
            }
        };
        query.account(stats);
        let pivot_radius = (ix.radius + PIVOT_SLACK) as f32;
        let mut out = Vec::new();
        for pos in query.lo..query.hi {
            if pos == query.q_pos {
                continue;
            }
            let first_far = ix
                .pivot_row(pos)
                .iter()
                .enumerate()
                .position(|(p, &pd)| (query.seed_pivot_dists[p] - pd).abs() > pivot_radius);
            if let Some(p) = first_far {
                stats.pivot_pruned += 1;
                stats.pivot_prune_counts[p] += 1;
                continue;
            }
            stats.exact_checked += 1;
            let row = ix.arena_rows[pos];
            let (b, b_card) = (store.words_of(row), store.support(row));
            if kernels::jaccard_within_words(qw, qs[0] as usize, b, b_card, ix.radius).is_some() {
                stats.ball_members += 1;
                out.push(ix.pool_of[pos] as usize);
            }
        }
        out.sort_unstable();
        out
    }

    /// Strategy: pools over a small universe whose tid densities run from
    /// 5/8 to 7/8, so `a + b ≥ U` is common and the proven range is often
    /// non-empty — clusters of near-identical variants (pivot-bound
    /// territory) plus independent noise patterns.
    fn arb_dense_pool() -> impl Strategy<Value = Vec<Pattern>> {
        (
            8usize..160,
            collection::vec((0u64..1 << 60, 5u64..=7), 1..5),
            1usize..8,
            collection::vec((0u64..1 << 60, 5u64..=7), 0..6),
        )
            .prop_map(|(universe, bases, per_cluster, noise)| {
                let stamp = |seed: u64, eighths: u64| -> Vec<usize> {
                    let mut x = seed | 1;
                    (0..universe)
                        .filter(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (x >> 33) % 8 < eighths
                        })
                        .collect()
                };
                let mut pool = Vec::new();
                for (c, &(seed, eighths)) in bases.iter().enumerate() {
                    let base = stamp(seed, eighths);
                    for v in 0..per_cluster {
                        let tids = base.iter().copied().filter(|&t| (t + v) % (v + 7) != 0);
                        pool.push(pat(
                            universe,
                            (c * 64 + v) as u32,
                            &tids.collect::<Vec<_>>(),
                        ));
                    }
                }
                for (i, &(seed, eighths)) in noise.iter().enumerate() {
                    pool.push(pat(universe, (1000 + i) as u32, &stamp(seed, eighths)));
                }
                pool
            })
    }

    /// On dense pools, member and external balls equal brute force, every
    /// pre-existing counter equals the reference scan's, the replica path
    /// (`account` + `scan` over `segments`) agrees with `ball`, and
    /// `accepted_by_bound` stays within the members — and is non-zero in
    /// most cases.
    #[test]
    fn dense_pools_accept_by_bound_without_changing_any_counter() {
        static CASES: AtomicUsize = AtomicUsize::new(0);
        static ACCEPTING: AtomicUsize = AtomicUsize::new(0);
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            fn dense_cases(pool in arb_dense_pool(), r in 0usize..9, pivots in 0usize..6) {
                let radius = accept_radii()[r];
                let (store, rows) = store_of(&pool);
                let index = BallIndex::build(&store, &rows, radius, pivots);
                let mut total = BallQueryStats::default();
                for q in 0..pool.len() {
                    let mut got = BallQueryStats::default();
                    let ball = index.ball(&store, q, &mut got);
                    prop_assert_eq!(&ball, &brute_ball(&pool, q, radius), "member q={}", q);
                    let mut want = BallQueryStats::default();
                    prop_assert_eq!(&reference_ball(&index.query(q), &store, &mut want), &ball);
                    prop_assert_eq!(
                        BallQueryStats { accepted_by_bound: 0, ..got },
                        want,
                        "member q={} counters",
                        q
                    );
                    let query = index.query(q);
                    let mut replica = BallQueryStats::default();
                    let mut scanned = Vec::new();
                    query.account(&mut replica);
                    for seg in query.segments(3) {
                        query.scan(&store, seg, &mut scanned, &mut replica);
                    }
                    scanned.sort_unstable();
                    prop_assert_eq!(&scanned, &ball, "replica q={}", q);
                    prop_assert_eq!(replica, got, "replica q={} counters", q);
                    total.merge(&got);

                    let (words, sufs, card) = row_shape(&store, &pool[q]);
                    let mut got = BallQueryStats::default();
                    let ball = index.ball_external(&store, &words, &sufs, card, &mut got);
                    let mut brute = brute_ball(&pool, q, radius);
                    brute.push(q);
                    brute.sort_unstable();
                    prop_assert_eq!(&ball, &brute, "external q={}", q);
                    let query = index.query_external(&store, &words, &sufs, card);
                    let mut want = BallQueryStats::default();
                    prop_assert_eq!(&reference_ball(&query, &store, &mut want), &ball);
                    prop_assert_eq!(
                        BallQueryStats { accepted_by_bound: 0, ..got },
                        want,
                        "external q={} counters",
                        q
                    );
                    total.merge(&got);
                }
                prop_assert!(total.accepted_by_bound <= total.ball_members, "{:?}", total);
                CASES.fetch_add(1, Ordering::Relaxed);
                if total.accepted_by_bound > 0 {
                    ACCEPTING.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        dense_cases();
        let (cases, accepting) = (
            CASES.load(Ordering::Relaxed),
            ACCEPTING.load(Ordering::Relaxed),
        );
        assert!(
            2 * accepting > cases,
            "only {accepting} of {cases} dense cases accepted a pair by bound"
        );
    }
}
