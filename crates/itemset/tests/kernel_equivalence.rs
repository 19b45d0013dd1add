//! Property tests: every available kernel backend (SSE2/POPCNT, AVX2) is
//! bit-for-bit equivalent to the scalar reference on random word slabs —
//! same integer counts, same `Option` outcomes at every threshold, same
//! float distances — including ragged tail words (lengths that are not lane
//! multiples), empty sets, and the batched one-query-vs-many gather kernels.
//!
//! Inputs are plain tuple strategies (no `prop_flat_map`), so the compat
//! shim's shrinking reports small counterexamples on failure.

use cfp_itemset::kernels::{self, Backend};
use proptest::prelude::*;

/// Sparsifying masks: full-entropy words model dense sets; AND-ing with
/// these exercises sparse sets and the early-exit paths.
fn mask_for(level: u32) -> u64 {
    match level {
        0 => !0u64,
        1 => 0x5555_5555_5555_5555,
        2 => 0x0101_0101_0101_0101,
        _ => 0x0000_0001_0000_0001,
    }
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Single-pair kernels: counts, bounded counts, and radius tests (plain
    /// and suffix-bounded) agree with scalar for every available backend.
    #[test]
    fn single_pair_kernels_match_scalar(
        a_raw in proptest::collection::vec(any::<u64>(), 0..24),
        b_raw in proptest::collection::vec(any::<u64>(), 0..24),
        sparsify_a in 0u32..4,
        sparsify_b in 0u32..4,
        raw_r in 0u32..=20,
    ) {
        // Common (possibly ragged, possibly zero) length; independent
        // sparsity per side so |A| ≉ |B| cases appear.
        let n = a_raw.len().min(b_raw.len());
        let a: Vec<u64> = a_raw[..n].iter().map(|w| w & mask_for(sparsify_a)).collect();
        let b: Vec<u64> = b_raw[..n].iter().map(|w| w & mask_for(sparsify_b)).collect();
        let (ca, cb) = (popcount(&a), popcount(&b));
        let sa = kernels::suffix_cards(&a);
        let sb = kernels::suffix_cards(&b);
        let scalar = Backend::Scalar;
        let inter = scalar.intersection_count(&a, &b);
        let radius = raw_r as f64 / 20.0;

        for backend in Backend::available() {
            prop_assert_eq!(backend.intersection_count(&a, &b), inter, "{:?}", backend);
            // Thresholds bracketing every interesting boundary.
            for t in [0, 1, inter.saturating_sub(1), inter, inter + 1, ca, cb, ca.max(cb) + 1] {
                prop_assert_eq!(
                    backend.intersection_count_at_least(&a, ca, &b, cb, t),
                    scalar.intersection_count_at_least(&a, ca, &b, cb, t),
                    "{:?} t={}", backend, t
                );
            }
            prop_assert_eq!(
                backend.jaccard(&a, ca, &b, cb).to_bits(),
                scalar.jaccard(&a, ca, &b, cb).to_bits(),
                "{:?}", backend
            );
            prop_assert_eq!(
                backend.jaccard_within(&a, ca, &b, cb, radius).map(f64::to_bits),
                scalar.jaccard_within(&a, ca, &b, cb, radius).map(f64::to_bits),
                "{:?} r={}", backend, radius
            );
            // The suffix-bounded kernel, through the gather form over a
            // one-row slab holding `b`.
            let mut got = None;
            backend.jaccard_within_rows(
                &a, &sa, &b, &sb, sb.len(), n, &[0], radius,
                &mut |_, d| got = Some(d.to_bits()),
            );
            prop_assert_eq!(
                got,
                scalar.jaccard_within(&a, ca, &b, cb, radius).map(f64::to_bits),
                "{:?} suffix r={}", backend, radius
            );
        }
    }

    /// Batched kernels: one query streamed over a random slab returns
    /// exactly what per-pair scalar calls return, for every backend, over
    /// an ascending row list (a contiguous range) and a scattered one with
    /// a repeat.
    #[test]
    fn batched_kernels_match_scalar(
        slab_raw in proptest::collection::vec(any::<u64>(), 0..72),
        q_raw in proptest::collection::vec(any::<u64>(), 0..9),
        words_per_row in 0usize..9,
        sparsify in 0u32..4,
        raw_r in 0u32..=20,
    ) {
        // Cut the raw words into whole rows; the query is padded/truncated
        // to the row width. words_per_row = 0 ⇒ every row is empty.
        let n_rows = slab_raw.len().checked_div(words_per_row).unwrap_or(3);
        let slab: Vec<u64> = slab_raw[..n_rows * words_per_row]
            .iter()
            .map(|w| w & mask_for(sparsify))
            .collect();
        let mut q = q_raw;
        q.resize(words_per_row, 0);
        let qc = popcount(&q);
        let qs = kernels::suffix_cards(&q);
        let suf_stride = words_per_row.div_ceil(kernels::SUFFIX_STRIDE) + 1;
        let mut sufs = Vec::new();
        let mut cards = Vec::new();
        for r in 0..n_rows {
            let row = &slab[r * words_per_row..(r + 1) * words_per_row];
            kernels::suffix_cards_into(row, &mut sufs);
            cards.push(popcount(row) as u32);
        }
        let radius = raw_r as f64 / 20.0;
        let scalar = Backend::Scalar;
        let row = |r: u32| &slab[r as usize * words_per_row..(r as usize + 1) * words_per_row];

        let ascending: Vec<u32> = (0..n_rows as u32).collect();
        // A scattered row list with a repeat, when rows exist.
        let scattered: Vec<u32> = (0..n_rows as u32).rev().chain(0..n_rows.min(1) as u32).collect();
        for rows in [&ascending, &scattered] {
            // Scalar per-pair reference.
            let want_within: Vec<(usize, u64)> = rows
                .iter()
                .enumerate()
                .filter_map(|(k, &r)| {
                    scalar
                        .jaccard_within(&q, qc, row(r), cards[r as usize] as usize, radius)
                        .map(|d| (k, d.to_bits()))
                })
                .collect();
            let want_dists: Vec<u64> = rows
                .iter()
                .map(|&r| scalar.jaccard(&q, qc, row(r), cards[r as usize] as usize).to_bits())
                .collect();

            for backend in Backend::available() {
                let mut got = Vec::new();
                backend.jaccard_within_rows(
                    &q, &qs, &slab, &sufs, suf_stride, words_per_row, rows, radius,
                    &mut |k, d| got.push((k, d.to_bits())),
                );
                prop_assert_eq!(&got, &want_within, "{:?} jaccard_within_rows {:?}", backend, rows);

                let mut dists = Vec::new();
                backend.jaccard_rows(&q, qc, &slab, &cards, words_per_row, rows, &mut dists);
                let got_bits: Vec<u64> = dists.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(&got_bits, &want_dists, "{:?} jaccard_rows {:?}", backend, rows);
            }
        }
    }
}
