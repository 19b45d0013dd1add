//! The metric-pruned ball-query engine, maintained incrementally across
//! fusion iterations, over **borrowed pool-slab rows**.
//!
//! Every Pattern-Fusion iteration asks, for each of K seeds α, for the ball
//! `{β ∈ Pool : Dist(α, β) ≤ r(τ)}`. The naive scan is O(K · |Pool|) full
//! Jaccard computations; because `(S, Dist)` is a metric space (Theorem 1),
//! almost all of those pairs can be rejected without touching a tid-set:
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
//!
//! The float prunes are slackened by `SLACK` so rounding can only cause a
//! redundant exact check, never a false reject: the engine returns exactly
//! the brute-force ball, in ascending pool order (a property test in
//! `tests/ball_determinism.rs` enforces this).
//!
//! # Zero-copy arenas
//!
//! The index used to copy every tid-set (and its suffix table) into private
//! arenas on every build. It now **borrows** the [`PoolStore`] slab instead:
//! the "arena" is a support-sorted list of global row ids plus the small
//! derived columns the prunes need (cards, pivot-distance rows). Tid words
//! and suffix tables are gathered from the slab at scan time through the
//! kernels' gather entry points — slab rows are frozen and row ids stable
//! (see [`cfp_itemset::store`]'s ownership contract), so the index can
//! persist across iterations while the overlay slab grows. Every query
//! method therefore takes the store it indexes; passing a different store
//! than the one the index was built over is a logic error.
//!
//! # Lifecycle: the persistent index
//!
//! The fusion loop replaces its pool every iteration, but most of each new
//! pool is carried over from the old one (fused patterns reproduce
//! themselves once they saturate), so rebuilding per iteration would waste
//! the dominant index cost. The index is a long-lived structure updated
//! through [`BallIndex::apply_delta`] with a [`PoolDelta`] (computed by the
//! caller, which owns pool identity). Its state is two regions sharing one
//! global position space:
//!
//! * **Main arena** — positions `0..arena_slots()`, support-sorted at the
//!   last full (re)build. Slots are *frozen*: a pattern that leaves the pool
//!   is tombstoned (its `live` bit cleared) but its row binding stays, so
//!   pivot reference data and every live slot's binding remain valid. A
//!   prefix-sum of live bits (`live_prefix`) prices any window's live
//!   population in O(1), which keeps stats accounting exact and lets
//!   [`BallQuery::segments`] hand workers near-equal *live* work.
//! * **Side buffer** — positions `arena_slots()..`, the patterns inserted
//!   since the last rebuild. Rebuilt (filtered, merged, re-sorted by
//!   support) on every `apply_delta`, which is cheap because compaction
//!   bounds its size and entries are row ids, not words; every side entry
//!   is live, and its pivot row is computed once at insert time.
//!
//! Invariants maintained by every update:
//!
//! * `live_main + side_len() == |pool|`, and `pos_of` / `pool_of` are exact
//!   inverses over live entries — a query for any pool member resolves.
//! * Both regions are support-sorted, so a ball query is two binary-searched
//!   windows; their concatenation is the candidate set.
//! * Tombstoned slots are never reported, never counted as pairs, and never
//!   consulted except as pivot reference rows (a pivot need not be a live
//!   pool member for the triangle inequality to hold).
//!
//! **Compaction** is lazy and deterministic (a pure function of index
//! state): when live density falls below [`MIN_LIVE_DENSITY`] or the side
//! buffer outgrows [`MAX_SIDE_RATIO`] of the arena, the whole index is
//! rebuilt from the current pool (fresh sort, fresh pivots, empty side).
//!
//! None of this machinery is visible in results: balls are exact over the
//! live set, so fusion output is bit-identical to the rebuild-per-iteration
//! engine at any thread count. Only the maintenance counters
//! ([`IndexMaintenance`], [`BallQueryStats::side_hits`],
//! [`BallQueryStats::tombstone_skips`]) reveal the difference.

use crate::parallel::run_tasks;
use crate::pool::PoolStore;
use crate::stats::IndexMaintenance;
use cfp_itemset::kernels;
use std::time::Instant;

/// Absolute slack added to the pruning radii so floating-point rounding can
/// only produce extra exact checks, never drop a true ball member.
const SLACK: f64 = 1e-9;

/// Extra slack for the pivot layer, whose distance table is stored as `f32`
/// (one cache line covers a candidate's whole pivot row): covers the f32
/// rounding of both table entries with two orders of magnitude to spare.
const PIVOT_SLACK: f64 = 1e-5;

/// Compact when fewer than this fraction of main-arena slots are live:
/// below it, tombstone hops and the dead share of every binary-searched
/// window cost more than a (now much smaller) rebuild.
pub const MIN_LIVE_DENSITY: f64 = 0.5;

/// Compact when the side buffer exceeds this fraction of the main arena
/// (plus `SIDE_COMPACT_SLACK`): the side is rebuilt on every update, so it
/// must stay small relative to the frozen arena.
pub const MAX_SIDE_RATIO: f64 = 0.25;

/// Absolute side-buffer allowance before the ratio test bites, so tiny
/// pools don't thrash on rebuilds that cost less than the bookkeeping.
const SIDE_COMPACT_SLACK: usize = 32;

/// Sentinel in `pool_of` marking a tombstoned arena slot.
const DEAD: u32 = u32::MAX;

/// Work counters proving what the pruning layers skipped. All counts are
/// pairs (seed, candidate) over the *live* pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BallQueryStats {
    /// Pairs a brute-force scan would have evaluated (`|Pool| − 1` per seed).
    pub pairs_total: u64,
    /// Pairs skipped by the support-range (cardinality) prune.
    pub cardinality_pruned: u64,
    /// Pairs skipped by the pivot / triangle-inequality prune.
    pub pivot_pruned: u64,
    /// Pairs that reached the exact bounded-Jaccard kernel.
    pub exact_checked: u64,
    /// Pairs accepted into a ball.
    pub ball_members: u64,
    /// Exact-checked pairs whose candidate lived in the side buffer —
    /// queries served (in part) by incrementally inserted patterns.
    pub side_hits: u64,
    /// Tombstoned arena slots hopped over during scans. Not pairs (dead
    /// slots are not pool members), so excluded from `pairs_total` and the
    /// partition identity below.
    pub tombstone_skips: u64,
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
        self.side_hits += other.side_hits;
        self.tombstone_skips += other.tombstone_skips;
        for (mine, theirs) in self
            .pivot_prune_counts
            .iter_mut()
            .zip(&other.pivot_prune_counts)
        {
            *mine += *theirs;
        }
        self.pivots_active = self.pivots_active.max(other.pivots_active);
    }

    /// Fraction of pairs that never reached the exact kernel (0 when no
    /// pairs were considered).
    pub fn pruned_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            0.0
        } else {
            1.0 - self.exact_checked as f64 / self.pairs_total as f64
        }
    }
}

/// The difference between one iteration's pool and the next, in the
/// vocabulary the index understands: which old entries survive (and under
/// which new pool index) and which new pool entries need insertion.
///
/// Old pool indices absent from `survivors` are implicit deaths.
#[derive(Debug, Clone, Default)]
pub struct PoolDelta {
    /// `(old pool index, new pool index)` for every pattern present in both
    /// pools. Pools are row-id lists over one interning [`PoolStore`], so
    /// "present in both" is plain row-id equality — the itemset-hashing
    /// matching pass the `Vec<Pattern>` pipeline paid every iteration is
    /// gone.
    pub survivors: Vec<(u32, u32)>,
    /// New pool indices with no counterpart in the old pool.
    pub inserts: Vec<u32>,
}

impl PoolDelta {
    /// Computes the delta between two row-id pools sharing one store
    /// (`total_rows` = [`PoolStore::len_rows`], the row-id space bound).
    /// O(|old| + |new|) array writes — no hashing, no itemset reads.
    pub fn compute(old: &[u32], new: &[u32], total_rows: usize) -> Self {
        let mut old_pos = vec![DEAD; total_rows];
        for (i, &r) in old.iter().enumerate() {
            debug_assert_eq!(old_pos[r as usize], DEAD, "old pool has duplicate rows");
            old_pos[r as usize] = i as u32;
        }
        let mut survivors = Vec::new();
        let mut inserts = Vec::new();
        for (j, &r) in new.iter().enumerate() {
            match old_pos[r as usize] {
                DEAD => inserts.push(j as u32),
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

/// A persistent index over the pool for radius-`r` ball queries.
///
/// Construction sorts the pool's row ids by support and computes the pivot
/// distance table — O(P · |Pool|) batched Jaccards over the slab, amortized
/// over K seed queries per iteration *and* over subsequent iterations via
/// [`BallIndex::apply_delta`]. No tid words are copied: the arena holds row
/// ids and derived prune columns only (see the module docs).
///
/// `Clone` snapshots the whole index (small: row ids, cards, f32 pivot
/// table) — the incremental-mining driver clones the freshly built index of
/// one database generation so the next generation can start from it via
/// [`BallIndex::apply_generation_delta`] instead of a from-scratch build.
#[derive(Clone)]
pub struct BallIndex {
    /// Arena position → global store row, in **support-sorted order** as of
    /// the last rebuild. Slots are frozen: tombstoned entries keep their
    /// binding (pivot reference data must not move).
    arena_rows: Vec<u32>,
    /// Cardinalities in arena (ascending) order — the binary-search key.
    /// Retains tombstoned entries' cards; windows may include dead slots,
    /// which the scan hops.
    cards: Vec<u32>,
    /// `pivot_dists[pos * n_pivots + p]` = Dist(pivot_p, arena[pos]) —
    /// candidate-major, so one candidate's whole pivot row is one cache
    /// line.
    pivot_dists: Vec<f32>,
    /// The pivots' reference data: (global store row, cardinality). Row ids
    /// are stable for the store's lifetime, so pivots survive overlay
    /// growth; refreshed on rebuild.
    pivots: Vec<(u32, usize)>,
    /// Number of pivots in use (≤ [`MAX_PIVOTS`], ≤ arena size at rebuild).
    n_pivots: usize,
    /// The caller-requested pivot count, before clamping — compaction
    /// rebuilds re-clamp against the new pool size.
    pivot_target: usize,
    /// Live bit per arena position (`false` = tombstoned).
    live: Vec<bool>,
    /// `live_prefix[pos]` = live slots in `0..pos`; length `arena + 1`.
    live_prefix: Vec<u32>,
    /// Live arena entries (`== live_prefix[arena]`).
    live_main: usize,
    /// Side-buffer rows (global store ids), support-sorted, rebuilt on every
    /// update. All side entries are live. Global position of side entry `s`
    /// is `cards.len() + s`.
    side_rows: Vec<u32>,
    /// Side-buffer cardinalities (ascending).
    side_cards: Vec<u32>,
    /// Side-buffer pivot rows (computed at insert).
    side_pivot_dists: Vec<f32>,
    /// Global position → pool index ([`DEAD`] for tombstones).
    pool_of: Vec<u32>,
    /// Pool index → global position (inverse of `pool_of` on live entries).
    pos_of: Vec<u32>,
    /// Full rebuilds triggered by the compaction policy since construction.
    compactions: u64,
    /// Query radius r(τ).
    radius: f64,
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

        let live_prefix: Vec<u32> = (0..=n as u32).collect();
        Self {
            arena_rows,
            cards,
            pivot_dists,
            pivots,
            n_pivots,
            pivot_target,
            live: vec![true; n],
            live_prefix,
            live_main: n,
            side_rows: Vec::new(),
            side_cards: Vec::new(),
            side_pivot_dists: Vec::new(),
            pool_of,
            pos_of,
            compactions: 0,
            radius,
        }
    }

    /// Number of live patterns indexed (the current pool size).
    pub fn len(&self) -> usize {
        self.live_main + self.side_cards.len()
    }

    /// Whether no live patterns are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The query radius the index was built for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Main-arena slots, tombstones included.
    pub fn arena_slots(&self) -> usize {
        self.cards.len()
    }

    /// Patterns currently in the side buffer.
    pub fn side_len(&self) -> usize {
        self.side_cards.len()
    }

    /// Fraction of main-arena slots still live (1.0 for an empty arena).
    pub fn live_density(&self) -> f64 {
        if self.cards.is_empty() {
            1.0
        } else {
            self.live_main as f64 / self.cards.len() as f64
        }
    }

    /// Full rebuilds triggered by the compaction policy so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Advances the index from the pool it currently mirrors to `new_rows`,
    /// as described by `delta` (see [`PoolDelta::compute`]): arena survivors
    /// keep their slots, arena deaths are tombstoned, side survivors and
    /// inserts are merged into a freshly sorted side buffer (row ids only —
    /// nothing is copied out of the slab). When the compaction policy fires
    /// (see module docs), the whole index is rebuilt from `new_rows` instead
    /// — `threads` parallelizes that rebuild's pivot table exactly like
    /// [`BallIndex::build_with_threads`].
    ///
    /// After return, queries answer for `new_rows` (exactly as a fresh index
    /// over `new_rows` would, up to counter internals).
    pub fn apply_delta(
        &mut self,
        store: &PoolStore,
        new_rows: &[u32],
        delta: &PoolDelta,
        threads: usize,
    ) -> IndexMaintenance {
        let t0 = Instant::now();
        let inserted_hint = delta.inserts.len() as u64;
        let arena_n = self.cards.len();
        // An index built over an empty pool has no arena to host inserts —
        // rebuild unconditionally.
        if arena_n == 0 && !new_rows.is_empty() {
            return self.rebuild(store, new_rows, threads, t0, 0, inserted_hint);
        }

        let old_pos_of = std::mem::take(&mut self.pos_of);
        let live_before = self.live_main;

        // Partition survivors: arena entries keep their frozen slot, side
        // entries re-enter the (rebuilt) side buffer.
        struct SideEntry {
            card: u32,
            pool: u32,
            row: u32,
            /// `Some(old side position)` to copy the pivot row from.
            old_side: Option<usize>,
        }
        let mut arena_live = vec![false; arena_n];
        let mut arena_pool = vec![DEAD; arena_n];
        let mut pending: Vec<SideEntry> = Vec::new();
        let mut arena_survivors = 0usize;
        for &(old, new) in &delta.survivors {
            let g = old_pos_of[old as usize] as usize;
            if g < arena_n {
                // A slot claimed twice means the pools violated the
                // row-dedup contract (two pool entries shared one row);
                // catching it here beats a DEAD `pos_of` entry blowing up
                // in a later query.
                debug_assert!(
                    !arena_live[g],
                    "duplicate survivor for arena slot {g}: pools must be row-deduplicated"
                );
                arena_live[g] = true;
                arena_pool[g] = new;
                arena_survivors += 1;
            } else {
                let sp = g - arena_n;
                pending.push(SideEntry {
                    card: self.side_cards[sp],
                    pool: new,
                    row: self.side_rows[sp],
                    old_side: Some(sp),
                });
            }
        }
        for &new in &delta.inserts {
            let row = new_rows[new as usize];
            pending.push(SideEntry {
                card: store.support(row) as u32,
                pool: new,
                row,
                old_side: None,
            });
        }
        // Support-sorted side buffer; pool index breaks card ties
        // deterministically.
        pending.sort_unstable_by_key(|e| (e.card, e.pool));

        let np = self.n_pivots;
        let mut side_rows = Vec::with_capacity(pending.len());
        let mut side_cards = Vec::with_capacity(pending.len());
        let mut side_pivot_dists = vec![0.0f32; pending.len() * np];
        let mut side_pool = Vec::with_capacity(pending.len());
        let mut pos_of = vec![DEAD; new_rows.len()];
        // Side ranks of the freshly inserted patterns: their pivot rows are
        // computed in one batched gather per pivot after the buffer is laid
        // out, instead of one pivot-row walk per inserted pattern.
        let mut insert_ranks: Vec<u32> = Vec::with_capacity(delta.inserts.len());
        for (rank, e) in pending.iter().enumerate() {
            match e.old_side {
                Some(sp) => {
                    side_pivot_dists[rank * np..(rank + 1) * np]
                        .copy_from_slice(&self.side_pivot_dists[sp * np..(sp + 1) * np]);
                }
                None => insert_ranks.push(rank as u32),
            }
            side_rows.push(e.row);
            side_cards.push(e.card);
            side_pool.push(e.pool);
            pos_of[e.pool as usize] = (arena_n + rank) as u32;
        }
        // Pivot rows for the inserts: each pivot's slab row streams once
        // against all inserted rows (two gathers, one per slab); `dists` /
        // `col` are the only scratch buffers, reused across pivots.
        if !insert_ranks.is_empty() && np > 0 {
            let gather = SlabGather::plan(
                store,
                insert_ranks
                    .iter()
                    .enumerate()
                    .map(|(k, &rank)| (k as u32, side_rows[rank as usize])),
            );
            let mut dists = vec![0.0f64; insert_ranks.len()];
            let mut col: Vec<f64> = Vec::with_capacity(insert_ranks.len());
            for (p, &(prow, pc)) in self.pivots.iter().enumerate() {
                gather.jaccard_from(store, prow, pc, &mut dists, &mut col);
                for (k, &rank) in insert_ranks.iter().enumerate() {
                    side_pivot_dists[rank as usize * np + p] = dists[k] as f32;
                }
            }
        }
        for (g, &pidx) in arena_pool.iter().enumerate() {
            if pidx != DEAD {
                pos_of[pidx as usize] = g as u32;
            }
        }

        let tombstoned = (live_before - arena_survivors) as u64;
        let inserted = delta.inserts.len() as u64;
        self.live = arena_live;
        self.live_main = arena_survivors;
        let mut prefix = Vec::with_capacity(arena_n + 1);
        let mut acc = 0u32;
        prefix.push(acc);
        for &l in &self.live {
            acc += l as u32;
            prefix.push(acc);
        }
        self.live_prefix = prefix;
        self.side_rows = side_rows;
        self.side_cards = side_cards;
        self.side_pivot_dists = side_pivot_dists;
        let mut pool_of = arena_pool;
        pool_of.extend(side_pool);
        self.pool_of = pool_of;
        self.pos_of = pos_of;
        debug_assert_eq!(self.len(), new_rows.len(), "index out of sync with pool");
        debug_assert!(
            self.pos_of.iter().all(|&g| g != DEAD),
            "some pool member has no index position (duplicate rows?)"
        );

        if self.needs_compaction() {
            return self.rebuild(store, new_rows, threads, t0, tombstoned, inserted);
        }
        IndexMaintenance {
            rebuilt: false,
            tombstoned,
            inserted,
            live: self.len(),
            arena: arena_n,
            side: self.side_cards.len(),
            elapsed: t0.elapsed(),
        }
    }

    /// Advances the index **across database generations**: the pool slab was
    /// replaced wholesale (transactions were appended, every tid-set grew its
    /// universe), but `delta.survivors` names the rows whose tid-sets are the
    /// old ones *zero-extended* — for those, every stored cardinality and
    /// pivot distance is still exact, because zero-padding changes neither a
    /// set's count nor any pairwise Jaccard. The index retargets itself onto
    /// the new store by rewriting survivor row bindings (`old_rows[i] →
    /// new_rows[j]`), then runs the ordinary [`BallIndex::apply_delta`]
    /// machinery so deaths tombstone, inserts enter the side buffer with
    /// pivot rows computed against the **new** store, and the compaction
    /// policy fires as usual.
    ///
    /// Every pivot's reference row must itself survive: pivot rows are
    /// dereferenced in the new store for insert/external distance
    /// computations, and a vanished row has no binding there. If any pivot
    /// dies, the whole index is rebuilt over `new_rows` instead — still
    /// correct, just not incremental.
    ///
    /// Queries afterwards answer exactly as a fresh index over `new_rows`
    /// would, up to counter internals — the same contract as `apply_delta`.
    pub fn apply_generation_delta(
        &mut self,
        store: &PoolStore,
        new_rows: &[u32],
        old_rows: &[u32],
        delta: &PoolDelta,
        threads: usize,
    ) -> IndexMaintenance {
        let t0 = Instant::now();
        let mut row_map: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::with_capacity(delta.survivors.len());
        for &(i, j) in &delta.survivors {
            row_map.insert(old_rows[i as usize], new_rows[j as usize]);
        }
        if self.pivots.iter().any(|&(r, _)| !row_map.contains_key(&r)) {
            let tombstoned = self.len().saturating_sub(delta.survivors.len()) as u64;
            return self.rebuild(
                store,
                new_rows,
                threads,
                t0,
                tombstoned,
                delta.inserts.len() as u64,
            );
        }
        // Rebind survivors onto the new slab. Non-survivor entries keep
        // their stale old-store row ids; `apply_delta` tombstones them and
        // dead slots are never dereferenced.
        for r in self
            .arena_rows
            .iter_mut()
            .chain(self.side_rows.iter_mut())
            .chain(self.pivots.iter_mut().map(|(r, _)| r))
        {
            if let Some(&nr) = row_map.get(r) {
                *r = nr;
            }
        }
        self.apply_delta(store, new_rows, delta, threads)
    }

    /// Adapts the pivot *count* to the prune rates one iteration actually
    /// measured (satellite of the incremental-mining work): each pivot
    /// column costs a |Pool|-sized f32 stripe at rebuild plus one band test
    /// per surviving pair at scan, so the count should track what the pool's
    /// geometry lets the triangle inequality earn.
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
    /// Only [`BallIndex::pivot_target`](Self) changes; the live table is
    /// untouched, so results stay bit-identical and the new count takes
    /// effect at the next compaction rebuild. Deterministic: the counters
    /// are exact pair counts, identical at every thread count.
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

    /// The pivot count the next full rebuild will request (the adapted
    /// target once [`BallIndex::adapt_pivot_target`] has run).
    pub fn pivot_target(&self) -> usize {
        self.pivot_target
    }

    /// The deterministic compaction policy: a pure function of index state,
    /// so thread count and timing never influence when a rebuild happens.
    fn needs_compaction(&self) -> bool {
        let n = self.cards.len();
        n > 0
            && ((self.live_main as f64) < MIN_LIVE_DENSITY * n as f64
                || self.side_cards.len()
                    > (MAX_SIDE_RATIO * n as f64) as usize + SIDE_COMPACT_SLACK)
    }

    /// Replaces the whole index with a fresh build over `new_rows`, keeping
    /// the compaction counter.
    fn rebuild(
        &mut self,
        store: &PoolStore,
        new_rows: &[u32],
        threads: usize,
        t0: Instant,
        tombstoned: u64,
        inserted: u64,
    ) -> IndexMaintenance {
        let compactions = self.compactions + 1;
        *self = Self::build_with_threads(store, new_rows, self.radius, self.pivot_target, threads);
        self.compactions = compactions;
        IndexMaintenance {
            rebuilt: true,
            tombstoned,
            inserted,
            live: self.len(),
            arena: self.cards.len(),
            side: 0,
            elapsed: t0.elapsed(),
        }
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

    /// Global store row of the pattern at global position `g`.
    fn row_at(&self, g: usize) -> u32 {
        let n = self.cards.len();
        if g < n {
            self.arena_rows[g]
        } else {
            self.side_rows[g - n]
        }
    }

    /// Pivot row of the pattern at global position `g`.
    fn pivot_row(&self, g: usize) -> &[f32] {
        let np = self.n_pivots;
        let n = self.cards.len();
        if g < n {
            &self.pivot_dists[g * np..(g + 1) * np]
        } else {
            let sp = g - n;
            &self.side_pivot_dists[sp * np..(sp + 1) * np]
        }
    }

    /// Prepares the ball query for pool member `q`: resolves the candidate
    /// support windows (one per region) and the seed's pivot distances.
    /// O(log |Pool| + P).
    pub fn query(&self, q: usize) -> BallQuery<'_> {
        let q_pos = self.pos_of[q] as usize;
        debug_assert!(
            q_pos < self.cards.len() + self.side_cards.len(),
            "query for a pattern the index does not hold"
        );
        let a = if q_pos < self.cards.len() {
            self.cards[q_pos]
        } else {
            self.side_cards[q_pos - self.cards.len()]
        } as f64;
        let (lo_card, hi_card) = self.card_window(a);
        let alo = self.cards.partition_point(|&c| c < lo_card);
        let ahi = self.cards.partition_point(|&c| c <= hi_card);
        let slo = self.side_cards.partition_point(|&c| c < lo_card);
        let shi = self.side_cards.partition_point(|&c| c <= hi_card);
        let mut seed_pivot_dists = [0.0f32; MAX_PIVOTS];
        seed_pivot_dists[..self.n_pivots].copy_from_slice(self.pivot_row(q_pos));
        BallQuery {
            index: self,
            q_pos,
            alo,
            ahi,
            slo,
            shi,
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
        let (lo_card, hi_card) = self.card_window(card as f64);
        let alo = self.cards.partition_point(|&c| c < lo_card);
        let ahi = self.cards.partition_point(|&c| c <= hi_card);
        let slo = self.side_cards.partition_point(|&c| c < lo_card);
        let shi = self.side_cards.partition_point(|&c| c <= hi_card);
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
            // Sentinel: no candidate's global position can equal this, so
            // the member scan's self-skip never fires for an external seed.
            q_pos: usize::MAX,
            alo,
            ahi,
            slo,
            shi,
            seed_pivot_dists,
            ext: Some((words, sufs)),
        }
    }

    /// Convenience: the full ball of pool member `q`, ascending pool order,
    /// with counters accumulated into `stats`. Exactly the brute-force ball
    /// over the live pool.
    pub fn ball(&self, store: &PoolStore, q: usize, stats: &mut BallQueryStats) -> Vec<usize> {
        let query = self.query(q);
        let mut out = Vec::new();
        query.account(stats);
        query.scan(store, 0..query.candidates(), &mut out, stats);
        out.sort_unstable();
        out
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
        let query = self.query_external(store, words, sufs, card);
        let mut out = Vec::new();
        query.account(stats);
        query.scan(store, 0..query.candidates(), &mut out, stats);
        out.sort_unstable();
        out
    }
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

/// A prepared ball query: candidate windows into the support-sorted arena
/// and side buffer, plus the seed's pivot-distance row. Scanning is split
/// into ranges so the parallel pipeline can hand segments of one seed's scan
/// to idle workers.
pub struct BallQuery<'a> {
    index: &'a BallIndex,
    /// The seed's global position.
    q_pos: usize,
    /// Arena candidate window (may include tombstoned slots).
    alo: usize,
    ahi: usize,
    /// Side-buffer candidate window (all live).
    slo: usize,
    shi: usize,
    seed_pivot_dists: [f32; MAX_PIVOTS],
    /// `Some((words, sufs))` for an external (non-member) seed: the slab-
    /// shaped row data the exact kernel reads instead of a store row.
    ext: Option<(&'a [u64], &'a [u32])>,
}

impl BallQuery<'_> {
    /// Number of candidate *slots* surviving the cardinality prune — the
    /// arena window (tombstones included) concatenated with the side window,
    /// and the coordinate space [`BallQuery::scan`] segments address. The
    /// seed itself is included; the scan skips it.
    pub fn candidates(&self) -> usize {
        (self.ahi - self.alo) + (self.shi - self.slo)
    }

    /// Number of *live* candidates in the window (including the seed), via
    /// the arena's live prefix sums. What [`BallQuery::account`] prices.
    pub fn live_candidates(&self) -> usize {
        let arena_live =
            (self.index.live_prefix[self.ahi] - self.index.live_prefix[self.alo]) as usize;
        arena_live + (self.shi - self.slo)
    }

    /// Books the pairs this query considers and the cardinality-pruned bulk
    /// into `stats`. Call once per query.
    pub fn account(&self, stats: &mut BallQueryStats) {
        let n = self.index.len() as u64;
        let in_range = self.live_candidates() as u64;
        // An external seed holds no pool slot, so every live pattern is a
        // candidate pair; a member seed excludes itself (it sits inside its
        // own range — neither a pair nor pruned).
        stats.pairs_total += if self.ext.is_some() { n } else { n - 1 };
        stats.cardinality_pruned += n - in_range;
        stats.pivots_active = stats.pivots_active.max(self.index.n_pivots as u64);
    }

    /// Cuts `0..candidates()` into ranges holding ≈`target_live` live
    /// candidates each (tombstone hops are near-free, so live candidates are
    /// the work unit). Deterministic — a pure function of index state — so
    /// the parallel pipeline's task split never depends on thread count.
    pub fn segments(&self, target_live: usize) -> Vec<std::ops::Range<usize>> {
        let target = target_live.max(1) as u32;
        let mut out = Vec::new();
        let arena_span = self.ahi - self.alo;
        let lp = &self.index.live_prefix;
        let mut start = self.alo;
        while start < self.ahi {
            let want = lp[start] + target;
            // Smallest end in (start, ahi] reaching `want` live slots.
            let rel = lp[start + 1..=self.ahi].partition_point(|&v| v < want);
            let end = (start + 1 + rel).min(self.ahi);
            out.push(start - self.alo..end - self.alo);
            start = end;
        }
        let side_span = self.shi - self.slo;
        let mut s = 0;
        while s < side_span {
            let e = (s + target as usize).min(side_span);
            out.push(arena_span + s..arena_span + e);
            s = e;
        }
        out
    }

    /// Scans candidate positions `seg` (relative to this query's
    /// concatenated window, arena part first), appending accepted pool
    /// indices to `out` and counting into `stats`. `store` must be the
    /// store the index was built over.
    ///
    /// Two passes: the cheap prunes (tombstone hop, seed skip, pivot
    /// triangle inequality — float compares over the candidate-major pivot
    /// rows) gather the surviving *slab rows* per region and slab, then
    /// each surviving batch runs through the **batched** suffix-Jaccard
    /// gather kernel ([`kernels::jaccard_within_rows`]): the seed's words
    /// stay hot while the backend streams the pool slab's 32-byte-aligned
    /// rows — no per-candidate heap pointers, no copies. The acceptance
    /// test inside the kernel is the exact float comparison `jaccard ≤
    /// radius` — identical to brute force.
    ///
    /// Disjoint segments cover disjoint candidates, so segments can run on
    /// different workers and be concatenated; the final ball only needs one
    /// ascending sort to match the brute-force order. (Within a segment,
    /// hits are reported region-major and slab-major, not in window order —
    /// every caller sorts the assembled ball.)
    pub fn scan(
        &self,
        store: &PoolStore,
        seg: std::ops::Range<usize>,
        out: &mut Vec<usize>,
        stats: &mut BallQueryStats,
    ) {
        let ix = self.index;
        let arena_span = self.ahi - self.alo;
        let (qw, qs) = match self.ext {
            Some((w, s)) => (w, s),
            None => {
                let q_row = ix.row_at(self.q_pos);
                (store.words_of(q_row), store.sufs_of(q_row))
            }
        };
        let pivot_radius = (ix.radius + PIVOT_SLACK) as f32;
        let end = seg.end.min(self.candidates());
        // Pass 1: prune. Survivors are (slab row, pool index) pairs split
        // per slab; the segment length bounds all four buffers.
        let cap = end.saturating_sub(seg.start);
        let mut base_rows: Vec<u32> = Vec::with_capacity(cap);
        let mut base_pool: Vec<u32> = Vec::with_capacity(cap);
        let mut local_rows: Vec<u32> = Vec::new();
        let mut local_pool: Vec<u32> = Vec::new();
        let flush = |rows: &[u32],
                     pools: &[u32],
                     slab: &cfp_itemset::PatternPool,
                     out: &mut Vec<usize>,
                     stats: &mut BallQueryStats| {
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
                    out.push(pools[k] as usize);
                },
            );
        };
        for region in [0usize, 1] {
            let (lo, hi) = if region == 0 {
                (seg.start.min(arena_span), end.min(arena_span))
            } else {
                (seg.start.max(arena_span), end)
            };
            for off in lo..hi {
                // Map the window offset to a global position: arena offsets
                // first (hopping tombstones), then side offsets.
                let (g, in_side) = if off < arena_span {
                    let pos = self.alo + off;
                    if !ix.live[pos] {
                        stats.tombstone_skips += 1;
                        continue;
                    }
                    (pos, false)
                } else {
                    (ix.cards.len() + self.slo + (off - arena_span), true)
                };
                if g == self.q_pos {
                    continue;
                }
                // Branchless triangle-inequality band test over the whole
                // pivot row (auto-vectorizes; a per-pivot early-exit loop
                // pays a mispredicted branch per pivot instead). The mask's
                // lowest set bit is the first violating pivot — the same
                // attribution the ordered loop produced.
                let row = ix.pivot_row(g);
                let mut mask = 0u32;
                for (p, &pd) in row.iter().enumerate() {
                    mask |= u32::from((self.seed_pivot_dists[p] - pd).abs() > pivot_radius) << p;
                }
                if mask != 0 {
                    stats.pivot_pruned += 1;
                    stats.pivot_prune_counts[mask.trailing_zeros() as usize] += 1;
                    continue;
                }
                stats.exact_checked += 1;
                if in_side {
                    stats.side_hits += 1;
                }
                let srow = ix.row_at(g);
                let (is_local, idx) = store.split(srow);
                if is_local {
                    local_rows.push(idx);
                    local_pool.push(ix.pool_of[g]);
                } else {
                    base_rows.push(idx);
                    base_pool.push(ix.pool_of[g]);
                }
            }
            // Pass 2 (per region): batched exact checks, base slab then
            // overlay slab.
            flush(&base_rows, &base_pool, store.base_pool(), out, stats);
            flush(&local_rows, &local_pool, store.local_pool(), out, stats);
            base_rows.clear();
            base_pool.clear();
            local_rows.clear();
            local_pool.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::pattern_distance;
    use crate::pattern::Pattern;
    use cfp_itemset::{Itemset, TidSet};

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

    /// Checks every live pattern's engine ball against brute force.
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
        // A fresh index has no tombstones and no side buffer.
        assert_eq!(stats.tombstone_skips, 0);
        assert_eq!(stats.side_hits, 0);
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
    fn segments_partition_the_window_and_balance_live_work() {
        let pool = fixture_pool();
        let (mut store, rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 2);
        // Tombstone a slice of the pool so segmentation sees dead slots.
        let next: Vec<Pattern> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, p)| p.clone())
            .collect();
        let next_rows = intern_all(&mut store, &next);
        let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
        index.apply_delta(&store, &next_rows, &delta, 1);
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

    /// Drives `apply_delta` through several generations and checks every
    /// generation against a fresh index and brute force.
    #[test]
    fn incremental_updates_match_fresh_rebuild() {
        let u = 256;
        let mut pool = fixture_pool();
        let (mut store, mut rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 4);
        let mut next_id = 1000u32;
        for step in 0..5usize {
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
            let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
            let m = index.apply_delta(&store, &next_rows, &delta, 1);
            assert_eq!(m.live, next.len());
            assert_eq!(index.len(), next.len());
            assert_matches_brute(&index, &store, &next, 0.5, &format!("step {step}"));
            // And equality with a fresh index, member for member.
            let fresh = BallIndex::build(&store, &next_rows, 0.5, 4);
            for q in 0..next.len() {
                let mut a = BallQueryStats::default();
                let mut b = BallQueryStats::default();
                assert_eq!(
                    index.ball(&store, q, &mut a),
                    fresh.ball(&store, q, &mut b),
                    "step {step} q={q}"
                );
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

        // The adapted target takes effect at the next compaction rebuild.
        index.adapt_pivot_target(&idle);
        assert_eq!(index.pivot_target(), 2);
        let next: Vec<Pattern> = pool[..10].to_vec();
        let next_rows = intern_all(&mut store, &next);
        let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
        let m = index.apply_delta(&store, &next_rows, &delta, 1);
        assert!(m.rebuilt, "shrinking to 10/44 live must compact");
        assert_eq!(index.pivots_active(), 2);
        assert_matches_brute(&index, &store, &next, 0.5, "after adapted rebuild");
    }

    /// `apply_generation_delta`: the pool slab is replaced wholesale
    /// (universe grown by appended transactions), survivors are the old
    /// tid-sets zero-extended, and the index must retarget in place.
    #[test]
    fn generation_delta_retargets_onto_a_grown_store() {
        let pool = fixture_pool();
        let (old_store, old_rows) = store_of(&pool);
        let index0 = BallIndex::build(&old_store, &old_rows, 0.5, 4);
        let u = 320;
        let grow = |p: &Pattern| {
            let mut t = p.tids.clone();
            t.grow_universe(u);
            Pattern::new(p.items.clone(), t)
        };

        // Generation 1: pure zero-extension plus inserts — every pivot
        // survives, so no rebuild is needed.
        let mut index = index0.clone();
        let mut next: Vec<Pattern> = pool.iter().map(grow).collect();
        let survivors: Vec<(u32, u32)> = (0..pool.len() as u32).map(|i| (i, i)).collect();
        let mut inserts = Vec::new();
        for v in 0..3usize {
            inserts.push(next.len() as u32);
            next.push(pat(
                u,
                2000 + v as u32,
                &(v * 30..v * 30 + 25).collect::<Vec<_>>(),
            ));
        }
        let (new_store, new_rows) = store_of(&next);
        let delta = PoolDelta { survivors, inserts };
        let m = index.apply_generation_delta(&new_store, &new_rows, &old_rows, &delta, 1);
        assert!(!m.rebuilt, "zero-extension survivors carry the index");
        assert_eq!(m.inserted, 3);
        assert_eq!(m.live, next.len());
        assert_matches_brute(&index, &new_store, &next, 0.5, "generation carry");
        let fresh = BallIndex::build(&new_store, &new_rows, 0.5, 4);
        for q in 0..next.len() {
            let (mut a, mut b) = (BallQueryStats::default(), BallQueryStats::default());
            assert_eq!(
                index.ball(&new_store, q, &mut a),
                fresh.ball(&new_store, q, &mut b),
                "q={q}"
            );
        }

        // Generation with deaths: exact regardless of whether a pivot died
        // (the rebuild fallback is silent but correct).
        let mut index = index0.clone();
        let mut culled: Vec<Pattern> = Vec::new();
        let mut survivors = Vec::new();
        for (i, p) in pool.iter().enumerate() {
            if i % 5 == 4 {
                continue;
            }
            survivors.push((i as u32, culled.len() as u32));
            culled.push(grow(p));
        }
        let (culled_store, culled_rows) = store_of(&culled);
        let delta = PoolDelta {
            survivors,
            inserts: vec![],
        };
        let m = index.apply_generation_delta(&culled_store, &culled_rows, &old_rows, &delta, 1);
        assert_eq!(m.live, culled.len());
        assert_matches_brute(&index, &culled_store, &culled, 0.5, "generation deaths");

        // Nothing survives: the pivots are gone, so the index must rebuild
        // itself over the new pool.
        let mut index = index0.clone();
        let fresh_pool: Vec<Pattern> = (0..6)
            .map(|v| pat(u, 3000 + v as u32, &[v * 2, v * 2 + 1]))
            .collect();
        let (s2, r2) = store_of(&fresh_pool);
        let d2 = PoolDelta {
            survivors: vec![],
            inserts: (0..fresh_pool.len() as u32).collect(),
        };
        let m2 = index.apply_generation_delta(&s2, &r2, &old_rows, &d2, 1);
        assert!(m2.rebuilt, "dead pivots must force a full rebuild");
        assert_matches_brute(&index, &s2, &fresh_pool, 0.5, "rebuild fallback");
    }

    #[test]
    fn side_buffer_queries_hit_and_count() {
        let pool = fixture_pool();
        let (mut store, rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 4);
        // Insert a clone-like neighbour of pattern 0 (same cluster shape).
        let mut next = pool.clone();
        let mut tids: Vec<usize> = (0..38).collect();
        tids.push(210);
        next.push(pat(256, 999, &tids));
        let next_rows = intern_all(&mut store, &next);
        let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
        let m = index.apply_delta(&store, &next_rows, &delta, 1);
        assert!(!m.rebuilt);
        assert_eq!(m.inserted, 1);
        assert_eq!(index.side_len(), 1);
        // Query the inserted pattern itself (seed in the side buffer).
        let q = next.len() - 1;
        let mut stats = BallQueryStats::default();
        assert_eq!(index.ball(&store, q, &mut stats), brute_ball(&next, q, 0.5));
        // Query an arena pattern whose ball contains the insert.
        let mut stats = BallQueryStats::default();
        let ball0 = index.ball(&store, 0, &mut stats);
        assert_eq!(ball0, brute_ball(&next, 0, 0.5));
        assert!(ball0.contains(&q), "insert must be found from the arena");
        assert!(stats.side_hits > 0, "side-buffer hit must be counted");
    }

    #[test]
    fn compaction_triggers_and_preserves_exactness() {
        let mut pool = fixture_pool();
        let (mut store, mut rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 4);
        let arena_before = index.arena_slots();
        // Shrink hard until the live-density policy must fire.
        let mut rebuilt = false;
        for step in 0..6usize {
            let next: Vec<Pattern> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + step) % 2 == 0)
                .map(|(_, p)| p.clone())
                .collect();
            if next.is_empty() {
                break;
            }
            let next_rows = intern_all(&mut store, &next);
            let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
            let m = index.apply_delta(&store, &next_rows, &delta, 1);
            rebuilt |= m.rebuilt;
            assert_matches_brute(&index, &store, &next, 0.5, &format!("compact step {step}"));
            pool = next;
            rows = next_rows;
        }
        assert!(rebuilt, "halving the pool repeatedly must compact");
        assert!(index.compactions() >= 1);
        assert!(index.arena_slots() < arena_before);
        assert_eq!(index.side_len(), 0, "compaction empties the side buffer");
        assert_eq!(index.live_density(), 1.0);
    }

    #[test]
    fn side_buffer_growth_triggers_compaction() {
        let u = 256;
        let pool = fixture_pool_small(u);
        let (mut store, rows) = store_of(&pool);
        let mut index = BallIndex::build(&store, &rows, 0.5, 2);
        // Insert far more than MAX_SIDE_RATIO · arena + slack new patterns.
        let mut next = pool.clone();
        for v in 0..64u32 {
            let tids: Vec<usize> = (v as usize..v as usize + 10).collect();
            next.push(pat(u, 500 + v, &tids));
        }
        let next_rows = intern_all(&mut store, &next);
        let delta = PoolDelta::compute(&rows, &next_rows, store.len_rows());
        let m = index.apply_delta(&store, &next_rows, &delta, 1);
        assert!(m.rebuilt, "side-buffer overflow must rebuild");
        assert_eq!(index.side_len(), 0);
        assert_eq!(index.len(), next.len());
        assert_matches_brute(&index, &store, &next, 0.5, "after side overflow");
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
}
