//! ALL-like microarray dataset (stand-in for the paper's *ALL* data).
//!
//! The real ALL leukemia dataset has 38 transactions of 866 items over 1 736
//! distinct items; at minimum support 30 its closed frequent layer contains
//! 21 colossal patterns of sizes 71–110 (paper Fig. 9), and as the threshold
//! drops toward 21 the closed/maximal layer explodes and exhaustive miners'
//! runtimes blow up (paper Fig. 10).
//!
//! This generator reproduces those properties with three ingredients:
//!
//! 1. **Colossal plants** — disjoint-item singleton patterns plus *families*
//!    sharing a family core, each supported by 30 rows, with every pair of
//!    support sets intersecting in ≤ 29 rows so that at support 30 the closed
//!    layer is exactly the planted patterns (plus the family cores, which are
//!    mid-sized by construction: core sizes sum to < 70 so no combination of
//!    cores can pollute the colossal table).
//! 2. **A quasi-clique block** — `block_slots` rows and `block_slots ×
//!    block_width` items where slot *s*'s items appear in every block row
//!    except row *s*. Invisible at support ≥ `block_slots`, it makes the
//!    closed layer grow like `C(block_slots, block_slots − σ)` as σ drops:
//!    the Fig. 10 explosion knob.
//! 3. **Fillers** — rare items padding every row to exactly `row_len`,
//!    frequent at no threshold the experiments use.
//!
//! The paper's full 21-pattern spectrum cannot fit a 38 × 866 occupancy
//! budget with analyzable (≤ 29-row overlap) support sets — the real data
//! achieves it with entangled patterns we cannot reconstruct — so the default
//! configuration plants 12 patterns spanning the same size range (82–110 plus
//! two 77s).

use crate::planted::PlantedPattern;
use crate::rows::{RowSampler, SampleSpec};
use cfp_itemset::{Itemset, TidSet, TransactionDb};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A family of colossal patterns sharing a common core.
#[derive(Debug, Clone)]
pub struct FamilySpec {
    /// Items shared by every member of the family.
    pub core_size: usize,
    /// Distinct items of each member; member size = `core_size + part`.
    pub part_sizes: Vec<usize>,
}

/// Configuration for [`all_like`].
#[derive(Debug, Clone)]
pub struct AllLikeConfig {
    /// Number of transactions (paper: 38).
    pub n_rows: usize,
    /// Items per transaction (paper: 866).
    pub row_len: usize,
    /// Sizes of the independent (non-family) colossal patterns.
    pub singleton_sizes: Vec<usize>,
    /// Colossal families sharing cores. **Invariant:** Σ core_size < 70,
    /// so core combinations can never enter the `size > 70` table.
    pub families: Vec<FamilySpec>,
    /// Designed support of every colossal pattern (paper experiment: 30).
    pub pattern_support: usize,
    /// Rows allotted to each family's container (support sets of members are
    /// sampled inside it); must leave ≥ 1 complement row so other patterns
    /// can escape the family union.
    pub family_container_rows: usize,
    /// Pairwise cap on support-set intersections (must be < pattern_support).
    pub max_row_overlap: usize,
    /// Rows/slots of the quasi-clique block (block item support =
    /// `block_slots − 1`, so choose ≤ `pattern_support` to keep the block
    /// invisible at the design threshold).
    pub block_slots: usize,
    /// Items per block slot.
    pub block_width: usize,
    /// Fillers appear in `filler_rows_lo..=filler_rows_hi` rows.
    pub filler_rows_lo: usize,
    /// See `filler_rows_lo`.
    pub filler_rows_hi: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AllLikeConfig {
    /// The paper-scale instance: 38 × 866, 12 colossal patterns of sizes
    /// 110, 107, 102, 91, 86, 84, 83×3, 82, 77×2 at support 30.
    fn default() -> Self {
        Self {
            n_rows: 38,
            row_len: 866,
            singleton_sizes: vec![110, 107, 102, 91, 86, 84, 82],
            families: vec![
                FamilySpec {
                    core_size: 40,
                    part_sizes: vec![43, 43, 43],
                },
                FamilySpec {
                    core_size: 29,
                    part_sizes: vec![48, 48],
                },
            ],
            pattern_support: 30,
            family_container_rows: 35,
            max_row_overlap: 29,
            block_slots: 27,
            block_width: 2,
            filler_rows_lo: 4,
            filler_rows_hi: 9,
            seed: 0xA11,
        }
    }
}

impl AllLikeConfig {
    /// A scaled-down instance for fast tests (19 × 160, support 15).
    pub fn tiny(seed: u64) -> Self {
        Self {
            n_rows: 19,
            row_len: 160,
            singleton_sizes: vec![34, 28],
            families: vec![FamilySpec {
                core_size: 10,
                part_sizes: vec![14, 14],
            }],
            pattern_support: 15,
            family_container_rows: 17,
            max_row_overlap: 14,
            block_slots: 12,
            block_width: 2,
            filler_rows_lo: 2,
            filler_rows_hi: 4,
            seed,
        }
    }
}

/// A generated ALL-like dataset with its planted ground truth.
#[derive(Debug, Clone)]
pub struct AllLikeData {
    /// The transaction database (dense item ids).
    pub db: TransactionDb,
    /// The colossal patterns (singletons first, then family members in
    /// config order), each with its exact support set.
    pub colossal: Vec<PlantedPattern>,
    /// The family cores (mid-sized closed patterns).
    pub cores: Vec<PlantedPattern>,
    /// Item-id range of the quasi-clique block.
    pub block_items: Range<u32>,
    /// Item-id range of the fillers.
    pub filler_items: Range<u32>,
}

impl AllLikeData {
    /// Multiset of colossal pattern sizes, descending — the left column of
    /// the paper's Fig. 9 table.
    pub fn colossal_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.colossal.iter().map(|p| p.items.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

/// Generates an ALL-like dataset.
///
/// # Panics
/// Panics on infeasible configurations (occupancy overflow, impossible row
/// constraints) — misconfigured experiments should fail loudly.
pub fn all_like(config: &AllLikeConfig) -> AllLikeData {
    let core_sum: usize = config.families.iter().map(|f| f.core_size).sum();
    assert!(
        core_sum < 70,
        "family cores sum to {core_sum} ≥ 70; core unions would pollute the colossal table"
    );
    assert!(config.max_row_overlap < config.pattern_support);
    assert!(config.family_container_rows < config.n_rows);
    assert!(config.block_slots <= config.pattern_support);
    assert!(config.block_slots <= config.n_rows);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_rows;
    let mut sampler = RowSampler::new(n, config.row_len);

    // ---- 1. Quasi-clique block --------------------------------------------
    let mut all_rows: Vec<usize> = (0..n).collect();
    all_rows.shuffle(&mut rng);
    let block_rows: Vec<usize> = all_rows[..config.block_slots].to_vec();
    let per_block_row = (config.block_slots - 1) * config.block_width;
    for &r in &block_rows {
        sampler.deduct(r, per_block_row);
    }

    // ---- 2. Family containers (cores pre-charged, refunded later) --------
    let mut containers: Vec<TidSet> = Vec::with_capacity(config.families.len());
    for fam in &config.families {
        let mut rows: Vec<usize> = (0..n).collect();
        rows.sort_by_key(|&r| std::cmp::Reverse(sampler.remaining(r)));
        // Take the highest-capacity rows, shuffled within equal capacity by
        // the earlier global shuffle baked into tie order.
        let chosen: Vec<usize> = rows
            .into_iter()
            .take(config.family_container_rows)
            .collect();
        for &r in &chosen {
            sampler.deduct(r, fam.core_size);
        }
        containers.push(TidSet::from_tids(n, chosen));
    }

    // ---- 3. Family member support sets ------------------------------------
    // Sampled inside the own container, bounded against other containers.
    let mut family_member_rows: Vec<Vec<TidSet>> = Vec::new();
    for (fi, fam) in config.families.iter().enumerate() {
        let mut members = Vec::with_capacity(fam.part_sizes.len());
        for &part in &fam.part_sizes {
            let mut spec = SampleSpec::new(config.pattern_support, part, config.max_row_overlap);
            spec.within = Some(containers[fi].clone());
            spec.bounded_overlap = containers
                .iter()
                .enumerate()
                .filter(|&(fj, _)| fj != fi)
                .map(|(_, c)| c.clone())
                .collect();
            let rows = sampler
                .sample(&mut rng, &spec, 10_000)
                .expect("infeasible ALL-like config: family member placement failed");
            members.push(rows);
        }
        family_member_rows.push(members);
    }

    // Refund core charges on container rows no member ended up using.
    let mut family_unions: Vec<TidSet> = Vec::new();
    for (fi, fam) in config.families.iter().enumerate() {
        let mut union = TidSet::empty(n);
        for rows in &family_member_rows[fi] {
            union.union_with(rows);
        }
        for r in containers[fi].iter() {
            if !union.contains(r) {
                sampler.refund(r, fam.core_size);
            }
        }
        family_unions.push(union);
    }

    // ---- 4. Singleton colossal patterns -----------------------------------
    let mut single_order: Vec<usize> = (0..config.singleton_sizes.len()).collect();
    single_order.sort_by_key(|&i| std::cmp::Reverse(config.singleton_sizes[i]));
    let mut single_rows: Vec<Option<TidSet>> = vec![None; config.singleton_sizes.len()];
    for &i in &single_order {
        let size = config.singleton_sizes[i];
        let mut spec = SampleSpec::new(config.pattern_support, size, config.max_row_overlap);
        spec.bounded_overlap = containers.clone();
        let rows = sampler
            .sample(&mut rng, &spec, 10_000)
            .expect("infeasible ALL-like config: singleton placement failed");
        single_rows[i] = Some(rows);
    }

    // ---- 5. Allocate item ids and materialize rows -------------------------
    fn alloc(next_item: &mut u32, size: usize) -> Itemset {
        let items = Itemset::from_sorted((*next_item..*next_item + size as u32).collect());
        *next_item += size as u32;
        items
    }
    let mut next_item: u32 = 0;

    let mut colossal = Vec::new();
    let mut row_items: Vec<Vec<u32>> = vec![Vec::new(); n];

    for (i, &size) in config.singleton_sizes.iter().enumerate() {
        let items = alloc(&mut next_item, size);
        let rows = single_rows[i].clone().unwrap();
        for r in rows.iter() {
            row_items[r].extend(items.iter());
        }
        colossal.push(PlantedPattern { items, rows });
    }

    let mut cores = Vec::new();
    for (fi, fam) in config.families.iter().enumerate() {
        let core_items = alloc(&mut next_item, fam.core_size);
        for r in family_unions[fi].iter() {
            row_items[r].extend(core_items.iter());
        }
        cores.push(PlantedPattern {
            items: core_items.clone(),
            rows: family_unions[fi].clone(),
        });
        for (mi, &part) in fam.part_sizes.iter().enumerate() {
            let part_items = alloc(&mut next_item, part);
            let rows = family_member_rows[fi][mi].clone();
            for r in rows.iter() {
                row_items[r].extend(part_items.iter());
            }
            colossal.push(PlantedPattern {
                items: core_items.union(&part_items),
                rows,
            });
        }
    }

    // Block items: slot s's items live in every block row except block_rows[s].
    let block_start = next_item;
    for &skip in &block_rows {
        let slot_items = alloc(&mut next_item, config.block_width);
        for &r in &block_rows {
            if r != skip {
                row_items[r].extend(slot_items.iter());
            }
        }
    }
    let block_items = block_start..next_item;

    // ---- 6. Fillers: pad every row to exactly row_len ----------------------
    let filler_start = next_item;
    let mut deficit: Vec<usize> = row_items
        .iter()
        .map(|r| {
            assert!(
                r.len() <= config.row_len,
                "row over budget: {} > {} (sampler accounting bug)",
                r.len(),
                config.row_len
            );
            config.row_len - r.len()
        })
        .collect();
    loop {
        let mut open: Vec<usize> = (0..n).filter(|&r| deficit[r] > 0).collect();
        if open.is_empty() {
            break;
        }
        let span = rng.gen_range(config.filler_rows_lo..=config.filler_rows_hi);
        let k = span.min(open.len());
        open.sort_by_key(|&r| std::cmp::Reverse(deficit[r]));
        let filler = next_item;
        next_item += 1;
        for &r in open.iter().take(k) {
            row_items[r].push(filler);
            deficit[r] -= 1;
        }
    }
    let filler_items = filler_start..next_item;

    let transactions: Vec<Itemset> = row_items.iter().map(|r| Itemset::from_items(r)).collect();
    AllLikeData {
        db: TransactionDb::from_dense(transactions),
        colossal,
        cores,
        block_items,
        filler_items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_itemset::VerticalIndex;

    #[test]
    fn tiny_instance_ground_truth() {
        let cfg = AllLikeConfig::tiny(5);
        let data = all_like(&cfg);
        assert_eq!(data.db.len(), cfg.n_rows);
        for t in data.db.transactions() {
            assert_eq!(t.len(), cfg.row_len);
        }
        let idx = VerticalIndex::new(&data.db);
        // Every colossal pattern has exactly its designed support set.
        for p in &data.colossal {
            assert_eq!(idx.tidset(&p.items), p.rows);
            assert_eq!(p.rows.count(), cfg.pattern_support);
        }
        // Pairwise support-set overlaps stay under the threshold.
        for (i, p) in data.colossal.iter().enumerate() {
            for q in &data.colossal[..i] {
                assert!(p.rows.intersection_count(&q.rows) <= cfg.max_row_overlap);
            }
        }
    }

    #[test]
    fn colossal_patterns_are_closed_at_design_support() {
        let cfg = AllLikeConfig::tiny(11);
        let data = all_like(&cfg);
        let idx = VerticalIndex::new(&data.db);
        let cl = cfp_itemset::ClosureOperator::new(&idx);
        for p in &data.colossal {
            assert_eq!(
                cl.closure(&p.items),
                p.items,
                "planted pattern must be closed"
            );
        }
        for c in &data.cores {
            assert_eq!(cl.closure(&c.items), c.items, "core must be closed");
        }
    }

    #[test]
    fn block_items_have_support_slots_minus_one() {
        let cfg = AllLikeConfig::tiny(3);
        let data = all_like(&cfg);
        let idx = VerticalIndex::new(&data.db);
        for item in data.block_items.clone() {
            assert_eq!(idx.item_tidset(item).count(), cfg.block_slots - 1);
        }
    }

    #[test]
    fn fillers_are_rare() {
        let cfg = AllLikeConfig::tiny(7);
        let data = all_like(&cfg);
        let idx = VerticalIndex::new(&data.db);
        for item in data.filler_items.clone() {
            let s = idx.item_tidset(item).count();
            assert!(s <= cfg.filler_rows_hi, "filler support {s}");
        }
    }

    #[test]
    fn paper_scale_instance_matches_reported_statistics() {
        let data = all_like(&AllLikeConfig::default());
        assert_eq!(data.db.len(), 38);
        for t in data.db.transactions() {
            assert_eq!(t.len(), 866, "paper: every transaction has 866 items");
        }
        // Colossal spectrum: 12 patterns from 77 to 110.
        assert_eq!(
            data.colossal_sizes(),
            vec![110, 107, 102, 91, 86, 84, 83, 83, 83, 82, 77, 77]
        );
        let idx = VerticalIndex::new(&data.db);
        for p in &data.colossal {
            assert_eq!(idx.tidset(&p.items), p.rows);
            assert_eq!(p.rows.count(), 30);
        }
        // Total distinct items lands in the neighbourhood of the paper's 1736.
        let n_items = data.db.num_items();
        assert!(
            (1_100..=1_900).contains(&n_items),
            "distinct items {n_items} far from the paper's 1736"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = all_like(&AllLikeConfig::tiny(9));
        let b = all_like(&AllLikeConfig::tiny(9));
        assert_eq!(a.db, b.db);
        let c = all_like(&AllLikeConfig::tiny(10));
        assert_ne!(a.db, c.db);
    }

    #[test]
    #[should_panic(expected = "core unions")]
    fn oversized_cores_are_rejected() {
        let mut cfg = AllLikeConfig::default();
        cfg.families[0].core_size = 50; // 50 + 29 ≥ 70
        all_like(&cfg);
    }
}
