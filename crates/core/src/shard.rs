//! Sharded Pattern-Fusion: partition the pool, fuse per shard, merge
//! deterministically — all over **one shared slab**.
//!
//! The paper's design bounds every fusion step to a local ball, which makes
//! the pool naturally partitionable: a shard that holds all core patterns of
//! a colossal pattern can assemble it without ever seeing the other shards
//! (Theorem 2 puts those core patterns inside one ball, and balls are local).
//! This module owns the partition arithmetic and the deterministic merge:
//! each shard runs the ordinary fusion loop (one [`crate::ball::BallIndex`]
//! per pool) over its private sub-pool, and the per-shard archives are
//! merged through a deterministic dedup / re-rank pass followed by a
//! cross-shard **boundary repair** step. *Where* the shards execute —
//! in-thread on the work-stealing pool, out-of-core in budgeted passes, or
//! in `cfp shard-host` worker processes over pipes or TCP — is the
//! [`crate::executor`] seam's business; every backend funnels back through
//! the merge here.
//!
//! # Zero-copy sub-pools
//!
//! A shard's sub-pool is a **row-id list over the shared frozen base slab**
//! ([`crate::pool::PoolStore::fork`]): shard workers read the same tid
//! words the miner emitted, so partitioning clones nothing. Each shard
//! appends its own fusions to a private overlay slab; at merge time only
//! the archived patterns (≤ archive-cap many per shard) are interned into
//! the parent store — the single cross-shard copy in the pipeline.
//!
//! # Partition strategies
//!
//! * [`ShardStrategy::SupportStratum`] — patterns are ranked by
//!   `(support, itemset)` and dealt round-robin, so every shard sees the
//!   whole support spectrum (each shard's cardinality-prune windows stay
//!   balanced). Content-keyed: the assignment depends only on what is in the
//!   pool, never on its emit order.
//! * [`ShardStrategy::MinhashBucket`] — each pattern is bucketed by the
//!   minhash of its support set. Two patterns share a bucket with
//!   probability equal to their Jaccard *similarity*, so the core patterns
//!   of one colossal pattern (near-identical support sets, Lemma 2)
//!   co-locate with high probability and most balls survive partitioning
//!   intact — the locality strategy.
//!
//! # The merge contract
//!
//! Each shard mines its local top-⌈K/n⌉ with a seed derived from
//! `(master seed, shard index)`; the union of shard archives is deduplicated
//! by row id (interning makes row identity itemset identity), re-ranked by
//! the global `(size desc, support desc, itemset)` order, and truncated to
//! K. Because a partition can split a colossal pattern's core patterns
//! across shards (always possible under `SupportStratum`, with probability
//! `1 − J` per pattern pair under `MinhashBucket`), a **boundary-repair**
//! pass then re-balls the merged survivors and fuses, retaining the archive
//! between delta-seeded rounds until fixpoint (see the repair notes on
//! `boundary_repair_rows`), so partial
//! assemblies from different shards fuse into their common core descendant
//! — and the resulting subsumed fragments are pruned — before the final
//! re-rank.
//!
//! # Determinism contracts (proven in `tests/shard_merge.rs`)
//!
//! * **K = 1 bit-identity** — one shard holds the whole pool in its original
//!   order with the master seed, the merge pass is an identity re-rank, and
//!   boundary repair is skipped: the output is bit-for-bit the unsharded
//!   engine's (itemsets *and* support sets).
//! * **K > 1 determinism** — shard assignment is a pure function of pool
//!   content, every shard's RNG derives from `(seed, shard)`, shards return
//!   results in shard order regardless of which worker ran them, and the
//!   merge/repair passes are order-keyed — so output is identical at any
//!   thread count (and on any machine) for a fixed partition strategy.

use crate::algorithm::{splitmix64, threads_for, PatternFusion};
use crate::parallel::run_tasks;
use crate::pool::{rank_rows, PoolStore};
use crate::stats::RunStats;
use cfp_itemset::store::sorted_subset;
use rand::SeedableRng;
use std::collections::HashSet;

/// How the initial pool is partitioned across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Round-robin over the `(support, itemset)` ranking: every shard gets
    /// an even slice of each support stratum. The default.
    #[default]
    SupportStratum,
    /// Locality bucketing by support-set minhash: patterns with similar
    /// support sets (the core patterns of a common colossal ancestor)
    /// co-locate with probability equal to their Jaccard similarity.
    MinhashBucket,
}

impl ShardStrategy {
    /// Stable lowercase name (used in stats output and env parsing).
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::SupportStratum => "stratum",
            ShardStrategy::MinhashBucket => "minhash",
        }
    }

    /// Parses a strategy name (`stratum` / `minhash`, as produced by
    /// [`ShardStrategy::name`]).
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "stratum" | "support" | "support-stratum" => Some(ShardStrategy::SupportStratum),
            "minhash" | "minhash-bucket" | "locality" => Some(ShardStrategy::MinhashBucket),
            _ => None,
        }
    }

    /// Both strategies, for sweeps and tests.
    pub const ALL: [ShardStrategy; 2] =
        [ShardStrategy::SupportStratum, ShardStrategy::MinhashBucket];
}

/// Sharding configuration (see [`crate::FusionConfig::sharding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharding {
    /// Number of shards. 1 disables sharding (the plain engine runs).
    pub shards: usize,
    /// Partition strategy for `shards > 1`.
    pub strategy: ShardStrategy,
}

impl Default for Sharding {
    fn default() -> Self {
        Self {
            shards: 1,
            strategy: ShardStrategy::default(),
        }
    }
}

impl Sharding {
    /// The unsharded configuration.
    pub fn single() -> Self {
        Self::default()
    }

    /// Reads the process-wide default from the environment: `CFP_SHARDS`
    /// (shard count ≥ 1; absent or empty → 1) and `CFP_SHARD_STRATEGY`
    /// (`stratum` / `minhash`, case-insensitive; absent or empty →
    /// `stratum`). This is how CI's determinism matrix runs the whole test
    /// suite through the sharded engine without touching any call site.
    ///
    /// A **set but malformed** value is a hard [`ShardEnvError`] — never a
    /// silent fallback to the default: `CFP_SHARDS=fuor` quietly running
    /// unsharded would invalidate exactly the determinism sweep the knob
    /// exists for.
    pub fn try_from_env() -> Result<Self, ShardEnvError> {
        crate::env::sharding()
    }

    /// [`Sharding::try_from_env`] for infallible call sites
    /// ([`crate::FusionConfig::new`]); panics with the typed error's
    /// message on a malformed value. The `cfp` CLI validates the
    /// environment up front and reports the error cleanly instead.
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Parses a shard count: trimmed decimal, at least 1. `None` means the
/// value is malformed (callers decide whether that is a hard error).
pub fn parse_shard_count(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// A malformed sharding environment variable — the sharding-flavored name
/// of the one typed error every `CFP_*` variable reports through (see
/// [`crate::env`], where the parsing now lives).
pub use crate::env::EnvError as ShardEnvError;

/// Splits the paper's K seed budget across shards **proportionally to
/// shard size** (largest-remainder apportionment, ties to the lower shard
/// index), with a floor of 1 seed for every non-empty shard. The unsharded
/// engine draws K seeds uniformly over the pool; proportional budgets keep
/// that coverage under skewed partitions (minhash buckets are rarely
/// balanced), so a large shard's strata are as likely to be seeded as they
/// were in the unsharded pool. A single shard gets the whole K — required
/// for the K = 1 bit-identity contract.
pub fn apportion_seeds(k: usize, shard_sizes: &[usize]) -> Vec<usize> {
    let k = k.max(1);
    let total: usize = shard_sizes.iter().sum();
    if total == 0 {
        return vec![0; shard_sizes.len()];
    }
    let mut budget: Vec<usize> = Vec::with_capacity(shard_sizes.len());
    // (remainder, shard) pairs for the leftover seats.
    let mut rema: Vec<(usize, usize)> = Vec::new();
    let mut assigned = 0usize;
    for (s, &size) in shard_sizes.iter().enumerate() {
        let exact = k * size;
        let q = exact / total;
        budget.push(q);
        assigned += q;
        rema.push((exact % total, s));
    }
    rema.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for &(r, s) in rema.iter() {
        if assigned >= k || r == 0 {
            break;
        }
        budget[s] += 1;
        assigned += 1;
    }
    for (s, &size) in shard_sizes.iter().enumerate() {
        if size > 0 {
            budget[s] = budget[s].max(1);
        }
    }
    budget
}

/// The RNG seed of shard `shard` of `shards`: the master seed itself for a
/// single shard (bit-identity with the unsharded engine), otherwise a
/// SplitMix64-decorrelated derivation.
pub fn shard_seed(seed: u64, shard: usize, shards: usize) -> u64 {
    if shards <= 1 {
        seed
    } else {
        splitmix64(seed ^ 0x5AD5_0000_0000_0000 ^ (shard as u64))
    }
}

/// Salt decorrelating boundary-repair RNGs from shard and iteration RNGs.
const REPAIR_SALT: u64 = 0xB00D_412E_9A10_77EE;

/// One shard's contribution to the deterministic merge: a row the merge
/// store already holds (an in-thread shard's base-slab carry-over), or an
/// owned pattern to intern — an in-thread shard's overlay row, or the
/// archive of a shard mined over its own slab (loaded from disk, or on a
/// worker behind a pipe or socket). Interning makes both forms converge on
/// the same row ids, so every backend shares one merge.
pub(crate) enum MergePattern {
    /// A row of the merge store (carried over as-is).
    Row(u32),
    /// An owned pattern to intern into the merge store.
    Owned(crate::Pattern),
}

/// Minhash of a support set given its slab-row words: the minimum of a
/// SplitMix64 hash over the tids. Two sets collide with probability equal
/// to their Jaccard similarity — the locality property `MinhashBucket`
/// relies on. Empty sets share a sentinel bucket.
fn minhash_words(words: &[u64]) -> u64 {
    let mut m = u64::MAX;
    for (block, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            let tid = block * 64 + bit;
            m = m.min(splitmix64(tid as u64 ^ 0x15EA_5EED));
        }
    }
    m
}

/// Partitions pool positions into `shards` shard member lists. `rows` is
/// the pool (a row-id list into `store`); the returned lists hold
/// **positions into `rows`**. Each shard's list preserves the original pool
/// order (so a single shard reproduces the pool exactly), every position
/// appears in exactly one list, and the assignment is a pure function of
/// pool *content* — emit order never changes which shard a pattern lands
/// in. Nothing is copied: a shard's sub-pool is its positions mapped
/// through `rows`, over the shared slab.
pub fn partition(
    store: &PoolStore,
    rows: &[u32],
    shards: usize,
    strategy: ShardStrategy,
) -> Vec<Vec<u32>> {
    let n = shards.max(1);
    let mut out = vec![Vec::new(); n];
    if rows.is_empty() {
        return out;
    }
    if n == 1 {
        out[0] = (0..rows.len() as u32).collect();
        return out;
    }
    match strategy {
        ShardStrategy::SupportStratum => {
            let mut order: Vec<u32> = (0..rows.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                let (ra, rb) = (rows[a as usize], rows[b as usize]);
                store
                    .support(ra)
                    .cmp(&store.support(rb))
                    .then_with(|| store.items_of(ra).cmp(store.items_of(rb)))
            });
            let mut assign = vec![0u32; rows.len()];
            for (rank, &i) in order.iter().enumerate() {
                assign[i as usize] = (rank % n) as u32;
            }
            for (i, &s) in assign.iter().enumerate() {
                out[s as usize].push(i as u32);
            }
        }
        ShardStrategy::MinhashBucket => {
            for (i, &row) in rows.iter().enumerate() {
                let s = (splitmix64(minhash_words(store.words_of(row))) % n as u64) as usize;
                out[s].push(i as u32);
            }
        }
    }
    out
}

impl PatternFusion<'_> {
    /// The deterministic merge tail shared by every executor backend
    /// ([`crate::executor`]): first-occurrence
    /// dedup in shard order (row identity is itemset identity, so interning
    /// owned patterns makes dedup a set of ids), global re-rank, and — for
    /// more than one shard — boundary repair, subsumption pruning, and the
    /// K-truncation.
    ///
    /// `pool_rows` is the original pool for repair's full-pool round 0;
    /// only its *length* is read beyond [`FULL_REPAIR_POOL_LIMIT`], and an
    /// empty slice is behaviorally identical to an over-limit pool (the
    /// space extension is a no-op either way) — which is how the
    /// out-of-core backend avoids reloading an evicted pool it would never
    /// draw from.
    pub(crate) fn merge_shard_outputs(
        &self,
        store: &mut PoolStore,
        pool_rows: &[u32],
        per_shard: Vec<Vec<MergePattern>>,
        stats: &mut RunStats,
    ) -> Vec<u32> {
        let cfg = self.config();
        let n = per_shard.len().max(1);
        let mut merged: Vec<u32> = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for outputs in per_shard {
            for out in outputs {
                let row = match out {
                    MergePattern::Row(r) => r,
                    MergePattern::Owned(p) => store.intern(&p),
                };
                if seen.insert(row) {
                    merged.push(row);
                }
            }
        }
        rank_rows(store, &mut merged);

        if n > 1 {
            // Repair sees the *whole* merged archive (bounded by the
            // per-shard caps, so ≤ ~n·K patterns): truncating to K first
            // would pre-judge the ranking before cross-shard partial
            // assemblies had a chance to fuse into something larger.
            merged = self.boundary_repair_rows(store, merged, pool_rows, stats);
            rank_rows(store, &mut merged);
            prune_subsumed_rows(store, &mut merged);
            merged.truncate(cfg.k.max(1));
        }
        merged
    }

    /// Cross-shard boundary repair: re-balls every merged survivor and
    /// fuses, **retaining** the archive between rounds (no pool replacement
    /// — a survivor can never be lost to the seed-drawing lottery here),
    /// until a round contributes no new row or [`REPAIR_MAX_ROUNDS`] is
    /// hit. Partial assemblies of the same colossal pattern that grew in
    /// different shards sit within distance `r(τ)` of each other, so
    /// successive rounds fuse them into their common core descendant.
    ///
    /// **Round 0 re-balls the survivors over the original pool** (when the
    /// pool is within [`FULL_REPAIR_POOL_LIMIT`]): a shard only ever saw
    /// its slice of each ball, and pool members its seed lottery never drew
    /// are in no shard's output — the full-pool ball makes every
    /// survivor's core-pattern neighborhood whole again. Extending the
    /// candidate space is a row-id union over the shared slab, not a pool
    /// copy. Beyond the limit that pass would cost a whole unsharded
    /// iteration, and per-shard sampling coverage already matches the
    /// unsharded engine's seed lottery (proportional seed budgets), so
    /// repair stays within the merged archive.
    ///
    /// Every round's RNGs derive from `(master seed, round, survivor
    /// index)` and results merge in survivor order, so the pass is
    /// deterministic at any thread count. The working set is capped at
    /// twice the archive size (largest-first), keeping later rounds
    /// O(rounds · K²) with the usual metric pruning.
    fn boundary_repair_rows(
        &self,
        store: &mut PoolStore,
        mut merged: Vec<u32>,
        pool_rows: &[u32],
        stats: &mut RunStats,
    ) -> Vec<u32> {
        let cfg = self.config();
        if merged.len() < 2 {
            return merged;
        }
        let radius = crate::distance::ball_radius(cfg.tau);
        let threads = threads_for(cfg);
        let window = cfg.archive_cap.unwrap_or(cfg.k).max(cfg.k).max(1) * 2;
        rank_rows(store, &mut merged);
        merged.truncate(window);
        // Rows added by the previous round — the only seeds later rounds
        // need (delta seeding): a round can only create new fusions around
        // what the previous round changed, so re-seeding every unchanged
        // survivor each round would rediscover the same candidates at full
        // cost.
        let mut last_fresh: Option<Vec<u32>> = None;
        for round in 0..REPAIR_MAX_ROUNDS {
            // Candidate space: the working set, plus — in the small-pool
            // round 0 — every original pool row not already in it. A row-id
            // union: no patterns are copied to extend the space.
            let space: Vec<u32> = if round == 0 && pool_rows.len() <= FULL_REPAIR_POOL_LIMIT {
                let mut ext = merged.clone();
                let mut in_ext: HashSet<u32> = merged.iter().copied().collect();
                for &r in pool_rows {
                    if in_ext.insert(r) {
                        ext.push(r);
                    }
                }
                ext
            } else {
                merged.clone()
            };
            // Seed positions. Round 0: every survivor, plus — in the
            // full-pool round — K fresh pool draws, restoring one unsharded
            // iteration's worth of pool exploration (a stratum no shard's
            // lottery drew gets the same second chance the unsharded loop's
            // later iterations would have given it). Later rounds: only the
            // rows the previous round added.
            let seed_positions: Vec<usize> = match &last_fresh {
                None => {
                    let mut seeds: Vec<usize> = (0..merged.len()).collect();
                    if space.len() > merged.len() {
                        let extra = cfg.k.min(space.len() - merged.len());
                        let mut draw_rng = rand::rngs::StdRng::seed_from_u64(splitmix64(
                            cfg.seed ^ REPAIR_SALT ^ ((round as u64) << 32) ^ 0xD1AA,
                        ));
                        seeds.extend(
                            rand::seq::index::sample(
                                &mut draw_rng,
                                space.len() - merged.len(),
                                extra,
                            )
                            .into_iter()
                            .map(|j| merged.len() + j),
                        );
                    }
                    seeds
                }
                Some(fresh_rows) => {
                    // Survivors of the pruning/window pass only.
                    let set: HashSet<u32> = fresh_rows.iter().copied().collect();
                    (0..merged.len())
                        .filter(|&i| set.contains(&merged[i]))
                        .collect()
                }
            };
            if seed_positions.is_empty() {
                break;
            }
            let index = crate::ball::BallIndex::build_with_threads(
                store,
                &space,
                radius,
                cfg.ball_pivots,
                threads,
            );
            let outputs = {
                let store_ref: &PoolStore = store;
                let space_ref = &space;
                let seed_positions_ref = &seed_positions;
                run_tasks(seed_positions.len(), threads, |t| {
                    let i = seed_positions_ref[t];
                    let mut ball_stats = crate::ball::BallQueryStats::default();
                    let ball = index.ball(store_ref, i, &mut ball_stats);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(splitmix64(
                        cfg.seed ^ REPAIR_SALT ^ ((round as u64) << 32) ^ i as u64,
                    ));
                    let out = self.fuse_seed(cfg, store_ref, space_ref, i, &ball, &mut rng);
                    (out, ball_stats)
                })
            };
            // Fresh = rows not already in the working set, interned in
            // survivor order.
            let mut current: HashSet<u32> = merged.iter().copied().collect();
            let mut fresh: Vec<u32> = Vec::new();
            for (out, ball_stats) in outputs {
                stats.repair_ball.merge(&ball_stats);
                for p in out {
                    let row = store.intern(&p);
                    if current.insert(row) {
                        fresh.push(row);
                    }
                }
            }
            stats.repair_iterations = round + 1;
            if fresh.is_empty() {
                break; // fixpoint: the archive is fusion-closed
            }
            last_fresh = Some(fresh.clone());
            merged.extend(fresh);
            // Drop subsumed fragments *before* the window truncation:
            // otherwise the debris of one large pattern can evict another
            // pattern's fresh assemblies from the working set.
            rank_rows(store, &mut merged);
            prune_subsumed_rows(store, &mut merged);
            merged.truncate(window);
        }
        merged
    }
}

/// Boundary-repair round cap: each round is one full re-ball + fusion pass
/// over the (≤ 2·K-pattern) merged archive, so this bounds a worst case
/// that fixpoint detection almost always cuts short.
const REPAIR_MAX_ROUNDS: usize = 8;

/// Pool-size bound for the full-pool round of boundary repair (see the
/// repair notes on `boundary_repair_rows`): below it, one
/// extra bounded re-ball pass over the original pool is cheap insurance
/// against shard-split balls; above it, that pass would cost as much as an
/// unsharded iteration and the proportional per-shard seed budgets already
/// give every stratum unsharded-equivalent coverage.
pub const FULL_REPAIR_POOL_LIMIT: usize = 4096;

/// Redundancy elimination after boundary repair: a survivor whose itemset
/// is a **proper subset** of another survivor with an **identical support
/// set** is a partial assembly of that same pattern (sharding manufactures
/// these — each shard grows its own fragment of a split colossal pattern,
/// and repair then fuses them into the whole). Keeping the fragments would
/// let them crowd smaller genuine patterns out of the final top-K, so they
/// are dropped before the rank. Rows whose support sets differ are never
/// touched: a sub-pattern with strictly larger support is real information,
/// exactly as in the unsharded result. Support sets compare as slab-row
/// word slices — no materialization.
///
/// Expects the input in [`rank_rows`]'s (size desc, support desc, itemset)
/// order — size-descending means any subsumer of `p` precedes it (a proper
/// subset is strictly smaller) — and preserves that order, so callers sort
/// once through `rank_rows` and never re-sort here.
fn prune_subsumed_rows(store: &PoolStore, rows: &mut Vec<u32>) {
    debug_assert!(
        rows.windows(2)
            .all(|w| store.items_of(w[0]).len() >= store.items_of(w[1]).len()),
        "prune_subsumed_rows expects rank_rows (size-descending) input"
    );
    let mut keep: Vec<u32> = Vec::with_capacity(rows.len());
    for &p in rows.iter() {
        let p_items = store.items_of(p);
        let p_support = store.support(p);
        let subsumed = keep.iter().any(|&q| {
            store.items_of(q).len() > p_items.len()
                && store.support(q) == p_support
                && store.words_of(q) == store.words_of(p)
                && sorted_subset(p_items, store.items_of(q))
        });
        if !subsumed {
            keep.push(p);
        }
    }
    *rows = keep;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use cfp_itemset::{Itemset, TidSet};

    fn pat(universe: usize, id: u32, tids: &[usize]) -> Pattern {
        Pattern::new(
            Itemset::from_items(&[id]),
            TidSet::from_tids(universe, tids.iter().copied()),
        )
    }

    fn small_pool() -> Vec<Pattern> {
        let u = 128;
        let mut pool = Vec::new();
        for c in 0..3usize {
            let base: Vec<usize> = (c * 40..c * 40 + 30).collect();
            for v in 0..7usize {
                let mut tids = base.clone();
                tids.truncate(30 - v);
                pool.push(pat(u, (c * 7 + v) as u32, &tids));
            }
        }
        pool
    }

    fn store_of(pool: &[Pattern]) -> (PoolStore, Vec<u32>) {
        let store = PoolStore::from_patterns(pool);
        let rows = (0..pool.len() as u32).collect();
        (store, rows)
    }

    #[test]
    fn partition_covers_every_position_exactly_once() {
        let pool = small_pool();
        let (store, rows) = store_of(&pool);
        for strategy in ShardStrategy::ALL {
            for n in [1usize, 2, 4, 8, 64] {
                let parts = partition(&store, &rows, n, strategy);
                assert_eq!(parts.len(), n);
                let mut seen = vec![0u8; pool.len()];
                for part in &parts {
                    // Each shard list preserves original pool order.
                    assert!(part.windows(2).all(|w| w[0] < w[1]), "{strategy:?} n={n}");
                    for &i in part {
                        seen[i as usize] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "{strategy:?} n={n}: not a partition"
                );
            }
        }
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let pool = small_pool();
        let (store, rows) = store_of(&pool);
        for strategy in ShardStrategy::ALL {
            let parts = partition(&store, &rows, 1, strategy);
            assert_eq!(parts[0], (0..pool.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn support_stratum_deals_evenly() {
        let pool = small_pool();
        let (store, rows) = store_of(&pool);
        let parts = partition(&store, &rows, 4, ShardStrategy::SupportStratum);
        let (lo, hi) = parts.iter().fold((usize::MAX, 0), |(lo, hi), p| {
            (lo.min(p.len()), hi.max(p.len()))
        });
        assert!(hi - lo <= 1, "round-robin must balance: {lo}..{hi}");
    }

    #[test]
    fn minhash_colocates_identical_support_sets() {
        let u = 64;
        // Four groups of identical tid-sets; members of a group must land in
        // the same shard at any shard count.
        let mut pool = Vec::new();
        for g in 0..4usize {
            let tids: Vec<usize> = (g * 12..g * 12 + 10).collect();
            for v in 0..5u32 {
                pool.push(pat(u, (g as u32) * 10 + v, &tids));
            }
        }
        let (store, rows) = store_of(&pool);
        for n in [2usize, 3, 8] {
            let parts = partition(&store, &rows, n, ShardStrategy::MinhashBucket);
            let mut shard_of = vec![usize::MAX; pool.len()];
            for (s, part) in parts.iter().enumerate() {
                for &i in part {
                    shard_of[i as usize] = s;
                }
            }
            for g in 0..4 {
                let first = shard_of[g * 5];
                assert!(
                    (0..5).all(|v| shard_of[g * 5 + v] == first),
                    "group {g} split at n={n}"
                );
            }
        }
    }

    #[test]
    fn minhash_words_matches_tidset_iteration() {
        // The slab-words minhash must agree with hashing the tid iterator —
        // the locality bucketing is keyed on it.
        let sets: &[&[usize]] = &[&[], &[0], &[63, 64, 65], &[5, 70, 127, 200]];
        for tids in sets {
            let t = TidSet::from_tids(256, tids.iter().copied());
            let mut want = u64::MAX;
            for tid in t.iter() {
                want = want.min(splitmix64(tid as u64 ^ 0x15EA_5EED));
            }
            assert_eq!(minhash_words(t.blocks()), want, "{tids:?}");
        }
    }

    #[test]
    fn shard_seed_honors_the_single_shard_identity() {
        assert_eq!(shard_seed(42, 0, 1), 42);
        // Derived shard seeds are decorrelated and distinct.
        let seeds: Vec<u64> = (0..8).map(|s| shard_seed(42, s, 8)).collect();
        for i in 0..8 {
            assert_ne!(seeds[i], 42);
            for j in i + 1..8 {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn seed_apportionment_is_proportional_with_floors() {
        // A single shard keeps the whole budget (the K = 1 identity).
        assert_eq!(apportion_seeds(20, &[123]), vec![20]);
        // Even sizes split evenly.
        assert_eq!(apportion_seeds(20, &[50, 50, 50, 50]), vec![5, 5, 5, 5]);
        // Skewed sizes get proportional budgets (largest remainder takes
        // the leftover seat; the floor tops up the smallest shards).
        assert_eq!(apportion_seeds(12, &[900, 50, 50]), vec![11, 1, 1]);
        // Non-empty shards always get at least one seed; empty shards none.
        assert_eq!(apportion_seeds(2, &[10, 10, 10, 0]), vec![1, 1, 1, 0]);
        // The budget sums to ~K (floors may add a little).
        let b = apportion_seeds(16, &[7, 1, 300, 40]);
        assert!(b.iter().sum::<usize>() >= 16);
        assert!(b[2] > b[3] && b[3] > b[0]);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in ShardStrategy::ALL {
            assert_eq!(ShardStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(ShardStrategy::parse("nope"), None);
    }

    #[test]
    fn strategy_parsing_is_case_insensitive() {
        for (name, want) in [
            ("STRATUM", ShardStrategy::SupportStratum),
            ("Support-Stratum", ShardStrategy::SupportStratum),
            (" MinHash ", ShardStrategy::MinhashBucket),
            ("Locality", ShardStrategy::MinhashBucket),
            ("MINHASH-BUCKET", ShardStrategy::MinhashBucket),
        ] {
            assert_eq!(ShardStrategy::parse(name), Some(want), "{name}");
        }
    }

    #[test]
    fn sharding_env_parsing_defaults() {
        // Can't mutate the process env safely in a parallel test binary;
        // exercise the parse path and the default.
        assert_eq!(Sharding::single().shards, 1);
        assert_eq!(Sharding::default().strategy, ShardStrategy::SupportStratum);
    }

    #[test]
    fn shard_count_parsing_is_strict() {
        assert_eq!(parse_shard_count("1"), Some(1));
        assert_eq!(parse_shard_count(" 8 "), Some(8));
        // Malformed values are rejected, not defaulted — the env reader
        // turns these into a hard `ShardEnvError`.
        for bad in ["0", "-2", "fuor", "4x", "1.5", ""] {
            assert_eq!(parse_shard_count(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn shard_env_error_names_the_variable_and_value() {
        let e = ShardEnvError {
            var: "CFP_SHARDS",
            value: "fuor".into(),
            expected: "a shard count of at least 1",
        };
        let msg = e.to_string();
        assert!(msg.contains("CFP_SHARDS"), "{msg}");
        assert!(msg.contains("fuor"), "{msg}");
        assert!(msg.contains("unset or empty"), "{msg}");
    }
}
