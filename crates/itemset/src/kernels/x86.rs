//! x86-64 SIMD backends: SSE2/POPCNT and AVX2.
//!
//! Both backends compute exactly the same integer popcounts as
//! [`super::scalar`] — only *how* the bits are counted differs — so every
//! derived float (and therefore fusion output) is bit-identical across
//! backends. Abort granularity in the bounded kernels is coarser (per
//! 4-or-8-word group instead of per word), which never changes a result:
//! the abort bound is monotone, so the first violation is final wherever it
//! is checked (see the scalar kernels' contract).
//!
//! * **SSE2/POPCNT** re-enters the scalar word loops inside a
//!   `#[target_feature(enable = "popcnt")]` context: `count_ones()` then
//!   compiles to the hardware `POPCNT` instruction (1/word) instead of the
//!   ~12-op SWAR sequence baseline x86-64 is stuck with.
//! * **AVX2** ANDs 256-bit lanes and popcounts them with the vectorized
//!   pshufb-lookup algorithm (Muła): a 4-bit-nibble table lookup per byte,
//!   horizontally summed by `vpsadbw`. Four words per step, no per-word
//!   dependency chain.
//!
//! All loads are *unaligned* (`loadu`); the 32-byte alignment of
//! [`crate::aligned::AlignedWords`] slabs is a performance property, not a
//! safety requirement, so these kernels accept arbitrary word slices
//! (including ragged tails, handled scalar).
//!
//! # Safety
//! This is the crate's only module with `unsafe` code (the crate is
//! otherwise `#![deny(unsafe_code)]`). Two kinds appear, each with a local
//! justification: calls into `#[target_feature]` functions from the safe
//! wrappers (sound because [`super::Backend`] only selects a backend after
//! `is_x86_feature_detected!` confirms it, and the wrappers `debug_assert`
//! the same), and raw-pointer vector loads (bounds guaranteed by the
//! surrounding loop conditions).

use super::{jaccard_from_counts, jaccard_within_via_inv, radius_threshold_factor};
use core::arch::x86_64::*;

// ---------------------------------------------------------------------------
// Safe wrappers: the `Backend` dispatch calls these.
// ---------------------------------------------------------------------------

// Each wrapper is sound for the same reason: `Backend` selects the SSE2 /
// AVX2 paths only after `is_x86_feature_detected!` confirmed the features
// (debug-asserted here), so the `#[target_feature]` callee's requirements
// hold.

#[inline]
pub(super) fn sse2_intersection_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert!(std::arch::is_x86_feature_detected!("popcnt"));
    // SAFETY: see the wrapper soundness note above.
    unsafe { popcnt_intersection_count(a, b) }
}

#[inline]
pub(super) fn sse2_intersection_count_at_least(
    a: &[u64],
    card_a: usize,
    b: &[u64],
    card_b: usize,
    threshold: usize,
) -> Option<usize> {
    debug_assert!(std::arch::is_x86_feature_detected!("popcnt"));
    // SAFETY: see the wrapper soundness note above.
    unsafe { popcnt_intersection_count_at_least(a, card_a, b, card_b, threshold) }
}

#[inline]
pub(super) fn avx2_intersection_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: see the wrapper soundness note above.
    unsafe { avx2_intersection_count_impl(a, b) }
}

#[inline]
pub(super) fn avx2_intersection_count_at_least(
    a: &[u64],
    card_a: usize,
    b: &[u64],
    card_b: usize,
    threshold: usize,
) -> Option<usize> {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: see the wrapper soundness note above.
    unsafe { avx2_intersection_count_at_least_impl(a, card_a, b, card_b, threshold) }
}

// ---------------------------------------------------------------------------
// SSE2/POPCNT: the scalar loops, recompiled with hardware popcount.
// ---------------------------------------------------------------------------
//
// The scalar bodies are `#[inline]`; inlining them into a
// `popcnt`-enabled caller makes LLVM select the POPCNT instruction for
// every `count_ones()`.

#[target_feature(enable = "popcnt")]
fn popcnt_intersection_count(a: &[u64], b: &[u64]) -> usize {
    super::scalar::intersection_count(a, b)
}

#[target_feature(enable = "popcnt")]
fn popcnt_intersection_count_at_least(
    a: &[u64],
    card_a: usize,
    b: &[u64],
    card_b: usize,
    threshold: usize,
) -> Option<usize> {
    super::scalar::intersection_count_at_least(a, card_a, b, card_b, threshold)
}

// ---------------------------------------------------------------------------
// AVX2: 256-bit AND lanes + pshufb-lookup popcount.
// ---------------------------------------------------------------------------

/// Per-64-bit-lane popcounts of `v` via the nibble-lookup algorithm
/// (Muła): per-byte counts from two `vpshufb` table lookups, summed into
/// the four 64-bit lanes by `vpsadbw` against zero.
#[inline]
#[target_feature(enable = "avx2")]
fn popcount_epi64(v: __m256i) -> __m256i {
    #[rustfmt::skip]
    let lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let counts = _mm256_add_epi8(
        _mm256_shuffle_epi8(lookup, lo),
        _mm256_shuffle_epi8(lookup, hi),
    );
    _mm256_sad_epu8(counts, _mm256_setzero_si256())
}

/// Horizontal sum of the four 64-bit lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn hsum_epi64(v: __m256i) -> u64 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let s = _mm_add_epi64(lo, hi);
    (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64::<1>(s) as u64)
}

/// Unaligned 4-word load starting at `words[i]`.
///
/// # Safety
/// `i + 4 <= words.len()`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn loadu(words: &[u64], i: usize) -> __m256i {
    debug_assert!(i + 4 <= words.len());
    // SAFETY: caller guarantees the 4-word read stays in bounds; loadu has
    // no alignment requirement.
    unsafe { _mm256_loadu_si256(words.as_ptr().add(i).cast()) }
}

#[target_feature(enable = "avx2")]
fn avx2_intersection_count_impl(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    // Two independent accumulators over 8-word steps hide the
    // shuffle/add latency chain of the lookup popcount.
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds all four loads.
        let (va0, vb0, va1, vb1) =
            unsafe { (loadu(a, i), loadu(b, i), loadu(a, i + 4), loadu(b, i + 4)) };
        acc0 = _mm256_add_epi64(acc0, popcount_epi64(_mm256_and_si256(va0, vb0)));
        acc1 = _mm256_add_epi64(acc1, popcount_epi64(_mm256_and_si256(va1, vb1)));
        i += 8;
    }
    if i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds both loads.
        let (va, vb) = unsafe { (loadu(a, i), loadu(b, i)) };
        acc0 = _mm256_add_epi64(acc0, popcount_epi64(_mm256_and_si256(va, vb)));
        i += 4;
    }
    let mut total = hsum_epi64(_mm256_add_epi64(acc0, acc1)) as usize;
    while i < n {
        total += (a[i] & b[i]).count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2")]
fn avx2_intersection_count_at_least_impl(
    a: &[u64],
    card_a: usize,
    b: &[u64],
    card_b: usize,
    threshold: usize,
) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    if card_a.min(card_b) < threshold {
        return None;
    }
    let n = a.len();
    let mut inter = 0usize;
    let mut seen_a = 0usize;
    let mut seen_b = 0usize;
    let mut i = 0usize;
    // 8-word groups: three popcount streams (∩, a, b), bound-checked per
    // group. Coarser than the scalar per-word check, same Option result.
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds all four loads.
        let (va0, vb0, va1, vb1) =
            unsafe { (loadu(a, i), loadu(b, i), loadu(a, i + 4), loadu(b, i + 4)) };
        let iv = _mm256_add_epi64(
            popcount_epi64(_mm256_and_si256(va0, vb0)),
            popcount_epi64(_mm256_and_si256(va1, vb1)),
        );
        let av = _mm256_add_epi64(popcount_epi64(va0), popcount_epi64(va1));
        let bv = _mm256_add_epi64(popcount_epi64(vb0), popcount_epi64(vb1));
        inter += hsum_epi64(iv) as usize;
        seen_a += hsum_epi64(av) as usize;
        seen_b += hsum_epi64(bv) as usize;
        i += 8;
        if inter + (card_a - seen_a).min(card_b - seen_b) < threshold {
            return None;
        }
    }
    while i < n {
        inter += (a[i] & b[i]).count_ones() as usize;
        seen_a += a[i].count_ones() as usize;
        seen_b += b[i].count_ones() as usize;
        i += 1;
    }
    if inter + (card_a - seen_a).min(card_b - seen_b) < threshold {
        return None;
    }
    (inter >= threshold).then_some(inter)
}

// Note there is deliberately no AVX2 variant of the *suffix* kernel: its
// bound check needs the running intersection as a scalar every
// [`SUFFIX_STRIDE`] words, so a 256-bit popcount pays a high-latency
// horizontal sum per superblock it cannot amortize — measured slower than
// eight scalar `POPCNT`s on the early-exit-heavy ball-scan workload. The
// AVX2 backend dispatches the radius-bounded gather loop to the POPCNT
// flavor (sound: `Backend::Avx2.supported()` implies `popcnt`); its vector
// popcounts serve the streaming gather loop, where whole-row accumulation
// amortizes the horizontal sum.

// ---------------------------------------------------------------------------
// Batched loops inside the target-feature context.
// ---------------------------------------------------------------------------
//
// The single-pair wrappers above sit on a target-feature boundary, so a
// generic batch loop dispatching through them pays a non-inlinable call per
// row. These loops live *inside* the feature context instead: the per-row
// kernel inlines into the loop and the query constants (and AVX2 popcount
// lookup tables) stay in registers across rows. Soundness is the same
// wrapper contract: `Backend` dispatch reaches the `pub(super)` entry
// points only after runtime feature detection.

macro_rules! stream_loops {
    ($backend:expr, $feat:literal, $jr_pub:ident / $jr_impl:ident, $count:path) => {
        #[inline]
        pub(super) fn $jr_pub(
            q: &[u64],
            q_card: usize,
            slab: &[u64],
            cards: &[u32],
            words_per_row: usize,
            rows: &[u32],
            out: &mut Vec<f64>,
        ) {
            debug_assert!($backend.supported());
            // SAFETY: see the wrapper soundness note at the top of the file.
            unsafe { $jr_impl(q, q_card, slab, cards, words_per_row, rows, out) }
        }

        #[target_feature(enable = $feat)]
        fn $jr_impl(
            q: &[u64],
            q_card: usize,
            slab: &[u64],
            cards: &[u32],
            words_per_row: usize,
            rows: &[u32],
            out: &mut Vec<f64>,
        ) {
            out.reserve(rows.len());
            for &row in rows {
                let row = row as usize;
                let b = &slab[row * words_per_row..(row + 1) * words_per_row];
                out.push(jaccard_from_counts(
                    $count(q, b),
                    q_card,
                    cards[row] as usize,
                ));
            }
        }
    };
}

stream_loops!(
    super::Backend::Sse2,
    "popcnt",
    sse2_jaccard_rows / popcnt_jaccard_rows_impl,
    super::scalar::intersection_count
);

stream_loops!(
    super::Backend::Avx2,
    "avx2,popcnt",
    avx2_jaccard_rows / avx2_jaccard_rows_impl,
    avx2_intersection_count_impl
);

// The radius-bounded gather loop exists only in the POPCNT flavor; the
// AVX2 backend dispatches to it too (see the note above).

#[inline]
#[allow(clippy::too_many_arguments)]
pub(super) fn sse2_jaccard_within_rows(
    q: &[u64],
    q_suf: &[u32],
    slab: &[u64],
    sufs: &[u32],
    suf_stride: usize,
    words_per_row: usize,
    rows: &[u32],
    radius: f64,
    on_hit: &mut dyn FnMut(usize, f64),
) {
    debug_assert!(std::arch::is_x86_feature_detected!("popcnt"));
    // SAFETY: see the wrapper soundness note at the top of the file.
    unsafe {
        popcnt_jaccard_within_rows_impl(
            q,
            q_suf,
            slab,
            sufs,
            suf_stride,
            words_per_row,
            rows,
            radius,
            on_hit,
        )
    }
}

#[target_feature(enable = "popcnt")]
#[allow(clippy::too_many_arguments)]
fn popcnt_jaccard_within_rows_impl(
    q: &[u64],
    q_suf: &[u32],
    slab: &[u64],
    sufs: &[u32],
    suf_stride: usize,
    words_per_row: usize,
    rows: &[u32],
    radius: f64,
    on_hit: &mut dyn FnMut(usize, f64),
) {
    let q_card = q_suf[0] as usize;
    let inv = radius_threshold_factor(radius);
    for (k, &row) in rows.iter().enumerate() {
        let row = row as usize;
        let b = &slab[row * words_per_row..(row + 1) * words_per_row];
        let sb = &sufs[row * suf_stride..(row + 1) * suf_stride];
        let hit = jaccard_within_via_inv(q_card, sb[0] as usize, radius, inv, |t| {
            super::scalar::intersection_count_at_least_suffix(q, q_suf, b, sb, t)
        });
        if let Some(d) = hit {
            on_hit(k, d);
        }
    }
}
