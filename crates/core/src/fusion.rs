//! The fusion operator (paper §4, `Fusion(α.CoreList)`).
//!
//! Given a seed α and the patterns inside its distance ball, fusion
//! agglomerates ball members into super-patterns β such that every fused
//! member remains a τ-core pattern of β and β stays frequent. Because the
//! reverse of Theorem 2 does not hold, the ball generally mixes core patterns
//! of several colossal patterns; randomized agglomeration sorts them out —
//! members whose support sets disagree with the growing fusion get rejected
//! by the frequency or core-ratio test.
//!
//! When more candidates arise than the caller wants to keep, the paper
//! prescribes sampling weighted by the size of the fused set ("βi with a
//! larger core pattern set would retain with higher probability"), which
//! keeps Pattern-Fusion on paths toward colossal patterns.
//!
//! # The member walk
//!
//! A member β joins the running fusion only if three tests pass: the fused
//! support stays ≥ `min_count` (frequency), every fused member stays a
//! τ-core of the fusion (core ratio), and β brings an item the fusion lacks
//! (new item). Within one seed, every attempt starts from the seed and only
//! moves one way:
//!
//! 1. the fused tid-set stays a subset of the seed's;
//! 2. the largest fused member support stays at least the seed's;
//! 3. the fused items stay a superset of the seed's.
//!
//! Support only shrinks and the core-ratio bar only rises, so a member that
//! fails any test against the seed itself fails it in every attempt. One
//! pre-pass per seed marks those members dead, and attempts skip them on a
//! flag. A live member is then tested cheapest first, each test exact:
//!
//! 1. cached supports: `min(|D(fused)|, |D(β)|)` below the member's
//!    [`core_floor`] — the least support that passes both the frequency and
//!    the core-ratio test — rejects without reading a tid row;
//! 2. item spans: β's items already inside the fusion reject;
//! 3. one bounded intersection kernel with the floor as its threshold, which
//!    aborts as soon as the core ratio is out of reach.
//!
//! The walk shuffles ball-local indices, and Fisher–Yates draws depend only
//! on the slice length, so the RNG is consumed exactly as by a walk over
//! every member: the permutation, the quota draw and the final sampling see
//! the same random numbers, and the output is bit-identical.

use crate::core_pattern::is_core_pattern;
use crate::pattern::Pattern;
use crate::pool::PoolStore;
use cfp_itemset::store::sorted_subset;
use cfp_itemset::Itemset;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Tuning knobs for one fusion call (a sub-struct of
/// [`crate::FusionConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct FusionParams {
    /// Core ratio τ, in (0, 1].
    pub tau: f64,
    /// Minimum absolute support for fused patterns.
    pub min_count: usize,
    /// Randomized agglomeration attempts per seed.
    pub attempts: usize,
    /// Maximum distinct super-patterns retained per seed.
    pub max_results: usize,
}

/// The least support `s ≥ params.min_count` at which a fusion keeps a
/// member of support `max_support` as a τ-core: `is_core_pattern(s,
/// max_support, τ)` is monotone in `s`, so a fused support passes the
/// frequency and core-ratio tests together exactly when it reaches this
/// floor. The floor is also monotone in `max_support`, so the floor of a
/// larger maximum is the larger of the two floors.
fn core_floor(max_support: usize, params: &FusionParams) -> usize {
    // Start at the real-valued bound, then settle float rounding against
    // the test itself.
    let mut s = (params.tau * max_support as f64).ceil() as usize;
    while s > 0 && is_core_pattern(s - 1, max_support, params.tau) {
        s -= 1;
    }
    while !is_core_pattern(s, max_support, params.tau) {
        s += 1;
    }
    s.max(params.min_count)
}

/// Whether the fusion `fused` admits the member at slab row `row` (cached
/// support `support`) under the core-ratio floor `floor`: the frequency and
/// core-ratio tests, folded into the floor, and the new-item test, cheapest
/// first — cached supports, then item spans, then one bounded tid-row kernel
/// that aborts once the floor is out of reach.
fn admits(fused: &Pattern, store: &PoolStore, row: u32, support: usize, floor: usize) -> bool {
    fused.support().min(support) >= floor
        && !sorted_subset(store.items_of(row), fused.items.items())
        && fused
            .tids
            .intersection_count_at_least_words(store.words_of(row), support, floor)
            .is_some()
}

/// A ball member the seed pre-pass kept: its slab row, cached support and
/// [`core_floor`] of that support. A live member's floor never exceeds its
/// support, so all three fit the slab's `u32` columns.
#[derive(Clone, Copy)]
struct LiveMember {
    row: u32,
    support: u32,
    floor: u32,
}

/// Fuses the seed (a pool member at position `seed_pos` of the row list
/// `rows`) with members of its ball (`core_list` are positions into `rows`),
/// returning up to `params.max_results` distinct super-patterns.
///
/// Ball members are read **in place** from the store's slab — tid words,
/// supports, and item spans are borrowed per test, so no pool pattern is
/// cloned on this path; only the growing fusion itself is owned.
///
/// Each attempt walks the ball in a fresh random order with a random
/// acceptance quota (so both partial and maximal fusions arise — the paper's
/// Fusion generates *sets* of candidate βᵢ, not a single union), accepting a
/// member only if
///
/// 1. the fused support set stays ≥ `min_count` (frequency),
/// 2. every member fused so far remains a τ-core pattern of the running
///    fusion, which reduces to `|D(fused)| ≥ τ · max_member_support`, and
/// 3. the member adds an item the fusion lacks.
///
/// Members that fail a test against the seed itself are dropped once, before
/// the first attempt; the rest are tested cheapest first (cached supports,
/// item spans, then one bounded tid-row kernel at the exact core-ratio
/// floor). The RNG is consumed exactly as by a walk that visits every
/// member; see the module docs for why each step is exact.
pub fn fuse_ball<R: Rng>(
    store: &PoolStore,
    rows: &[u32],
    seed_pos: usize,
    core_list: &[usize],
    params: &FusionParams,
    rng: &mut R,
) -> Vec<Pattern> {
    // Outside Definition 3's domain the floor search has no end (NaN τ
    // passes no support at all).
    assert!(
        params.tau > 0.0 && params.tau <= 1.0,
        "core ratio τ must be in (0, 1], got {}",
        params.tau
    );
    let seed = store.pattern(rows[seed_pos]);
    let seed_floor = core_floor(seed.support(), params);
    // The seed pre-pass: the seed is the loosest state any attempt is in,
    // so a member it rejects is rejected by every attempt.
    let ball: Vec<Option<LiveMember>> = core_list
        .iter()
        .map(|&pos| {
            let row = rows[pos];
            let support = store.support(row);
            let floor = core_floor(support, params);
            let live = admits(&seed, store, row, support, seed_floor.max(floor));
            live.then_some(LiveMember {
                row,
                support: support as u32,
                floor: floor as u32,
            })
        })
        .collect();
    // weight = number of fused members |t| for the sampling heuristic.
    let mut candidates: HashMap<Itemset, (Pattern, usize)> = HashMap::new();
    let len = u32::try_from(ball.len()).expect("a ball is indexed by u32 rows");
    let mut order: Vec<u32> = (0..len).collect();
    // One scratch pattern reused across attempts: `clone_from` resets it to
    // the seed while keeping both allocations. A full clone is only paid
    // when an attempt produces a candidate not seen before.
    let mut fused = seed.clone();

    for _ in 0..params.attempts.max(1) {
        order.shuffle(rng);
        // Random quota over accepted members: small quotas yield partial
        // fusions (mid-sized core descendants), large quotas yield the
        // maximal fusion the ball supports.
        let quota = if order.is_empty() {
            0
        } else {
            rng.gen_range(1..=order.len())
        };

        fused.clone_from(&seed);
        let mut members = 1usize;
        // Floor of the largest fused member support so far.
        let mut fused_floor = seed_floor;

        for &i in &order {
            if members >= quota.max(1) {
                break;
            }
            let Some(beta) = ball[i as usize] else {
                continue;
            };
            let floor = fused_floor.max(beta.floor as usize);
            if !admits(&fused, store, beta.row, beta.support as usize, floor) {
                continue;
            }
            fused.items.union_with_sorted(store.items_of(beta.row));
            fused.tids.intersect_with_words(store.words_of(beta.row));
            members += 1;
            fused_floor = floor;
        }

        match candidates.get_mut(&fused.items) {
            Some(entry) => entry.1 = entry.1.max(members),
            None => {
                candidates.insert(fused.items.clone(), (fused.clone(), members));
            }
        }
    }

    let mut all: Vec<(Pattern, usize)> = candidates.into_values().collect();
    // Deterministic order before any sampling.
    all.sort_by(|a, b| a.0.items.cmp(&b.0.items));
    if all.len() <= params.max_results {
        return all.into_iter().map(|(p, _)| p).collect();
    }
    weighted_sample(all, params.max_results, rng)
}

/// Size-weighted sampling without replacement (paper §4's retention
/// heuristic).
fn weighted_sample<R: Rng>(
    mut candidates: Vec<(Pattern, usize)>,
    take: usize,
    rng: &mut R,
) -> Vec<Pattern> {
    let mut out = Vec::with_capacity(take);
    for _ in 0..take {
        let total: usize = candidates.iter().map(|(_, w)| *w).sum();
        if total == 0 || candidates.is_empty() {
            break;
        }
        let mut roll = rng.gen_range(0..total);
        let mut chosen = 0usize;
        for (i, (_, w)) in candidates.iter().enumerate() {
            if roll < *w {
                chosen = i;
                break;
            }
            roll -= *w;
        }
        out.push(candidates.swap_remove(chosen).0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_itemset::{TidSet, VerticalIndex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every core ratio the walk oracle and the floor boundary test cover.
    const TAUS: [f64; 5] = [0.3, 1.0 / 3.0, 0.5, 0.7, 1.0];

    fn params(min_count: usize) -> FusionParams {
        FusionParams {
            tau: 0.5,
            min_count,
            attempts: 16,
            max_results: 8,
        }
    }

    /// A store + identity row list over owned patterns.
    fn store_of(pool: &[Pattern]) -> (PoolStore, Vec<u32>) {
        let store = PoolStore::from_patterns(pool);
        let rows = (0..pool.len() as u32).collect();
        (store, rows)
    }

    /// The plain member walk — every member, all three tests, in every
    /// attempt — kept as the oracle the pruned walk must match decision for
    /// decision, RNG draws included.
    fn fuse_ball_reference<R: Rng>(
        store: &PoolStore,
        rows: &[u32],
        seed_pos: usize,
        core_list: &[usize],
        params: &FusionParams,
        rng: &mut R,
    ) -> Vec<Pattern> {
        let seed = store.pattern(rows[seed_pos]);
        // weight = number of fused members |t| for the sampling heuristic.
        let mut candidates: HashMap<Itemset, (Pattern, usize)> = HashMap::new();
        let mut order: Vec<usize> = core_list.to_vec();
        // One scratch pattern reused across attempts: `clone_from` resets it to
        // the seed while keeping both allocations. A full clone is only paid
        // when an attempt produces a candidate not seen before.
        let mut fused = seed.clone();

        for _ in 0..params.attempts.max(1) {
            order.shuffle(rng);
            // Random quota over accepted members: small quotas yield partial
            // fusions (mid-sized core descendants), large quotas yield the
            // maximal fusion the ball supports.
            let quota = if order.is_empty() {
                0
            } else {
                rng.gen_range(1..=order.len())
            };

            fused.clone_from(&seed);
            let mut members = 1usize;
            let mut max_member_support = seed.support();

            for &idx in &order {
                if members >= quota.max(1) {
                    break;
                }
                let beta = rows[idx];
                let beta_words = store.words_of(beta);
                let beta_support = store.support(beta);
                // Cheapest test first: a bounded word-wise popcount over the
                // tid-sets that aborts as soon as the remaining words cannot
                // reach the frequency threshold. Most foreign members die here
                // without touching itemsets.
                let Some(new_support) = fused.tids.intersection_count_at_least_words(
                    beta_words,
                    beta_support,
                    params.min_count,
                ) else {
                    continue;
                };
                let candidate_max = max_member_support.max(beta_support);
                if !is_core_pattern(new_support, candidate_max, params.tau) {
                    continue;
                }
                let beta_items = store.items_of(beta);
                if sorted_subset(beta_items, fused.items.items()) {
                    continue; // contributes no new item
                }
                fused.items.union_with_sorted(beta_items);
                fused.tids.intersect_with_words(beta_words);
                members += 1;
                max_member_support = candidate_max;
            }

            match candidates.get_mut(&fused.items) {
                Some(entry) => entry.1 = entry.1.max(members),
                None => {
                    candidates.insert(fused.items.clone(), (fused.clone(), members));
                }
            }
        }

        let mut all: Vec<(Pattern, usize)> = candidates.into_values().collect();
        // Deterministic order before any sampling.
        all.sort_by(|a, b| a.0.items.cmp(&b.0.items));
        if all.len() <= params.max_results {
            return all.into_iter().map(|(p, _)| p).collect();
        }
        weighted_sample(all, params.max_results, rng)
    }

    /// Pool = all pairs of a planted block: fusing any ball must recover the
    /// full block.
    #[test]
    fn fusion_recovers_planted_block() {
        let db = cfp_datagen::diag_plus(0, 10, 8); // 10 identical rows of items 1..=8
        let idx = VerticalIndex::new(&db);
        let pool_raw = cfp_miners::initial_pool(&db, 10, 2);
        let pool: Vec<Pattern> = pool_raw.into_iter().map(Pattern::from).collect();
        let (store, rows) = store_of(&pool);
        let ball: Vec<usize> = (0..pool.len()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let out = fuse_ball(&store, &rows, 0, &ball, &params(10), &mut rng);
        let max = out.iter().map(Pattern::len).max().unwrap();
        assert_eq!(max, 8, "full block must be fused: {out:?}");
        for p in &out {
            assert_eq!(p.tids, idx.tidset(&p.items), "support sets stay exact");
            assert!(p.support() >= 10);
        }
    }

    /// Members from a foreign support-set region must be rejected: fusing
    /// across them would drop support below the threshold.
    #[test]
    fn fusion_rejects_infrequent_mixtures() {
        let data = cfp_datagen::planted(&cfp_datagen::PlantedConfig {
            n_rows: 40,
            pattern_sizes: vec![10, 10],
            pattern_support: 12,
            max_row_overlap: 4,
            row_len: 0,
            filler_rows_lo: 2,
            filler_rows_hi: 3,
            seed: 9,
        });
        let pool_raw = cfp_miners::initial_pool(&data.db, 12, 2);
        let pool: Vec<Pattern> = pool_raw.into_iter().map(Pattern::from).collect();
        // Seed inside block 0.
        let seed_pos = pool
            .iter()
            .position(|p| p.items.is_subset_of(&data.patterns[0].items))
            .unwrap();
        let (store, rows) = store_of(&pool);
        let ball: Vec<usize> = (0..pool.len()).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let out = fuse_ball(&store, &rows, seed_pos, &ball, &params(12), &mut rng);
        for p in &out {
            assert!(p.support() >= 12, "fused pattern must stay frequent");
            assert!(
                p.items.is_subset_of(&data.patterns[0].items),
                "cross-block items must never survive fusion: {p:?}"
            );
        }
    }

    /// Every fused member must remain a τ-core pattern of the result
    /// (checked via the max-member-support invariant).
    #[test]
    fn fused_outputs_respect_core_ratio_vs_seed() {
        let db = cfp_datagen::diag(20);
        let pool_raw = cfp_miners::initial_pool(&db, 10, 2);
        let pool: Vec<Pattern> = pool_raw.into_iter().map(Pattern::from).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let seed = pool[5].clone();
        let (store, rows) = store_of(&pool);
        let ball: Vec<usize> = (0..pool.len()).collect();
        let out = fuse_ball(
            &store,
            &rows,
            5,
            &ball,
            &FusionParams {
                tau: 0.5,
                min_count: 10,
                attempts: 8,
                max_results: 4,
            },
            &mut rng,
        );
        for p in &out {
            assert!(
                is_core_pattern(p.support(), seed.support(), 0.5),
                "seed must remain a 0.5-core of {p:?}"
            );
            assert!(seed.items.is_subset_of(&p.items));
        }
    }

    #[test]
    fn empty_ball_returns_seed_itself() {
        let seed = Pattern::new(
            Itemset::from_items(&[1, 2]),
            TidSet::from_tids(10, [0, 1, 2]),
        );
        let (store, rows) = store_of(std::slice::from_ref(&seed));
        let mut rng = StdRng::seed_from_u64(4);
        let out = fuse_ball(&store, &rows, 0, &[], &params(2), &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].items, seed.items);
    }

    #[test]
    #[should_panic(expected = "core ratio τ must be in (0, 1]")]
    fn nan_tau_is_rejected_not_searched_forever() {
        let seed = Pattern::new(Itemset::from_items(&[1]), TidSet::from_tids(4, [0, 1]));
        let (store, rows) = store_of(std::slice::from_ref(&seed));
        let p = FusionParams {
            tau: f64::NAN,
            ..params(1)
        };
        fuse_ball(&store, &rows, 0, &[0], &p, &mut StdRng::seed_from_u64(7));
    }

    #[test]
    fn max_results_caps_output() {
        let db = cfp_datagen::diag(16);
        let pool_raw = cfp_miners::initial_pool(&db, 8, 2);
        let pool: Vec<Pattern> = pool_raw.into_iter().map(Pattern::from).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let (store, rows) = store_of(&pool);
        let ball: Vec<usize> = (0..pool.len()).collect();
        let out = fuse_ball(
            &store,
            &rows,
            0,
            &ball,
            &FusionParams {
                tau: 0.5,
                min_count: 8,
                attempts: 32,
                max_results: 3,
            },
            &mut rng,
        );
        assert!(out.len() <= 3);
        assert!(!out.is_empty());
    }

    mod properties {
        use super::*;
        use crate::distance::{ball_radius, pattern_distance};
        use cfp_itemset::VerticalIndex;
        use proptest::prelude::*;
        use rand::RngCore;

        /// Random feasible planted configurations.
        fn arb_planted() -> impl Strategy<Value = cfp_datagen::PlantedData> {
            (
                2usize..4,  // number of blocks
                4usize..12, // block size
                6usize..14, // support
                0u64..1000, // seed
            )
                .prop_map(|(blocks, size, support, seed)| {
                    cfp_datagen::planted(&cfp_datagen::PlantedConfig {
                        n_rows: support * 3,
                        pattern_sizes: vec![size; blocks],
                        pattern_support: support,
                        max_row_overlap: (support / 2).max(1),
                        row_len: 0,
                        filler_rows_lo: 2,
                        filler_rows_hi: 3,
                        seed,
                    })
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Fusion invariants on arbitrary planted data: every output is
            /// frequent, contains the seed, carries an exact tid-set, and
            /// keeps the seed as a τ-core pattern.
            #[test]
            fn fusion_invariants(data in arb_planted(), seed_sel in any::<prop::sample::Index>(), rng_seed in 0u64..1000) {
                let min_count = data.patterns[0].rows.count();
                let pool: Vec<Pattern> = cfp_miners::initial_pool(&data.db, min_count, 2)
                    .into_iter()
                    .map(Pattern::from)
                    .collect();
                prop_assume!(!pool.is_empty());
                let index = VerticalIndex::new(&data.db);
                let seed_pos = seed_sel.index(pool.len());
                let seed = pool[seed_pos].clone();
                let (store, rows) = store_of(&pool);
                let ball: Vec<usize> = (0..pool.len()).collect();
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let out = fuse_ball(&store, &rows, seed_pos, &ball, &params(min_count), &mut rng);
                prop_assert!(!out.is_empty());
                for p in &out {
                    prop_assert!(p.support() >= min_count, "infrequent output");
                    prop_assert!(seed.items.is_subset_of(&p.items), "seed dropped");
                    prop_assert_eq!(&p.tids, &index.tidset(&p.items), "tid-set drift");
                    prop_assert!(
                        is_core_pattern(p.support(), seed.support(), 0.5),
                        "seed not a τ-core of output"
                    );
                }
            }

            /// Determinism: the same RNG seed produces the same fusion.
            #[test]
            fn fusion_is_deterministic(data in arb_planted(), rng_seed in 0u64..1000) {
                let min_count = data.patterns[0].rows.count();
                let pool: Vec<Pattern> = cfp_miners::initial_pool(&data.db, min_count, 2)
                    .into_iter()
                    .map(Pattern::from)
                    .collect();
                prop_assume!(!pool.is_empty());
                let (store, rows) = store_of(&pool);
                let ball: Vec<usize> = (0..pool.len()).collect();
                let run = || {
                    let mut rng = StdRng::seed_from_u64(rng_seed);
                    fuse_ball(&store, &rows, 0, &ball, &params(min_count), &mut rng)
                        .into_iter()
                        .map(|p| p.items)
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(run(), run());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The pruned walk returns exactly what the plain walk returns —
            /// same items, tids and order — and leaves the RNG in the same
            /// state. Planted blocks with randomly dropped occurrences give
            /// members of many supports; the pool is mined below
            /// `min_count`, so some members fail the frequency test
            /// outright; balls are the whole pool (the seed and all its
            /// subsets), the seed's true `r(τ)` ball, or a random cap.
            #[test]
            fn pruned_walk_matches_reference_walk(
                (blocks, size, support, drop_pct, data_seed) in
                    (1usize..4, 2usize..9, 4usize..12, 0u64..40, 0u64..1000),
                (tau_sel, min_count, pool_len) in (0usize..5, 1usize..14, 1usize..4),
                (ball_sel, cap, seed_sel) in (0usize..3, 1usize..64, 0usize..10_000),
                (attempts, max_results, rng_seed) in (1usize..12, 1usize..6, 0u64..1000),
            ) {
                let planted = cfp_datagen::planted(&cfp_datagen::PlantedConfig {
                    n_rows: support * 3,
                    pattern_sizes: vec![size; blocks],
                    pattern_support: support,
                    max_row_overlap: (support / 2).max(1),
                    row_len: 0,
                    filler_rows_lo: 2,
                    filler_rows_hi: 3,
                    seed: data_seed,
                });
                let mut noise = StdRng::seed_from_u64(data_seed);
                let txns = planted
                    .db
                    .transactions()
                    .iter()
                    .map(|t| {
                        let kept: Vec<u32> =
                            t.iter().filter(|_| noise.gen_range(0u64..100) >= drop_pct).collect();
                        Itemset::from_sorted(kept)
                    })
                    .collect();
                let db = cfp_itemset::TransactionDb::from_dense(txns);
                let pool: Vec<Pattern> =
                    cfp_miners::initial_pool(&db, (min_count / 2).max(1), pool_len)
                        .into_iter()
                        .map(Pattern::from)
                        .collect();
                prop_assume!(!pool.is_empty());
                let tau = TAUS[tau_sel];
                let seed_pos = seed_sel % pool.len();
                let ball: Vec<usize> = match ball_sel {
                    0 => (0..pool.len()).collect(),
                    1 => (0..pool.len())
                        .filter(|&j| {
                            pattern_distance(&pool[seed_pos], &pool[j]) <= ball_radius(tau)
                        })
                        .collect(),
                    _ => {
                        let mut draw = StdRng::seed_from_u64(rng_seed ^ 0xBA11);
                        rand::seq::index::sample(&mut draw, pool.len(), cap.min(pool.len()))
                            .into_iter()
                            .collect()
                    }
                };
                let (store, rows) = store_of(&pool);
                let p = FusionParams { tau, min_count, attempts, max_results };
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let mut rng_ref = StdRng::seed_from_u64(rng_seed);
                let got = fuse_ball(&store, &rows, seed_pos, &ball, &p, &mut rng);
                let want = fuse_ball_reference(&store, &rows, seed_pos, &ball, &p, &mut rng_ref);
                prop_assert!(got == want, "outputs differ: {:?} vs {:?}", got, want);
                prop_assert_eq!(rng.next_u64(), rng_ref.next_u64(), "RNG state diverged");
            }
        }
    }

    /// The walk's kernel threshold is exact: for every τ the oracle
    /// covers, the floor is the least support `s ≥ min_count` that passes
    /// `is_core_pattern(s, m, τ)`, and it never falls as `m` grows (the
    /// walk takes the larger of two floors as the floor of their maximum).
    #[test]
    fn core_floor_is_the_least_passing_support() {
        for tau in TAUS {
            for min_count in [0, 1, 7, 132] {
                let p = FusionParams {
                    tau,
                    min_count,
                    attempts: 1,
                    max_results: 1,
                };
                let mut least = min_count;
                let mut prev = 0;
                for m in 0..=10_000usize {
                    // Scan from the previous least: the passing set only
                    // shrinks as m grows, which the floor check below
                    // confirms from the other side.
                    while !is_core_pattern(least, m, tau) {
                        least += 1;
                    }
                    let floor = core_floor(m, &p);
                    assert_eq!(floor, least, "τ={tau} min_count={min_count} m={m}");
                    assert!(
                        floor == min_count || !is_core_pattern(floor - 1, m, tau),
                        "τ={tau} min_count={min_count} m={m}: {} passes too",
                        floor - 1
                    );
                    assert!(floor >= prev, "floor fell at τ={tau} m={m}");
                    prev = floor;
                }
            }
        }
    }

    #[test]
    fn weighted_sampling_prefers_heavier_candidates() {
        // Weight 50 vs 1: across many draws of a single winner, the heavy
        // candidate must dominate.
        let heavy = Pattern::new(Itemset::from_items(&[0]), TidSet::from_tids(4, [0]));
        let light = Pattern::new(Itemset::from_items(&[1]), TidSet::from_tids(4, [1]));
        let mut rng = StdRng::seed_from_u64(6);
        let mut heavy_wins = 0;
        for _ in 0..200 {
            let got = weighted_sample(vec![(heavy.clone(), 50), (light.clone(), 1)], 1, &mut rng);
            if got[0].items == heavy.items {
                heavy_wins += 1;
            }
        }
        assert!(
            heavy_wins > 170,
            "heavy candidate won only {heavy_wins}/200"
        );
    }
}
