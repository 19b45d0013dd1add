//! Word-level tid-set kernels shared by [`crate::TidSet`] and external
//! structure-of-arrays pools, with runtime-dispatched SIMD backends.
//!
//! The ball-query engine in `cfp-core` keeps tid-sets as contiguous `u64`
//! word slabs (one slab per pool) instead of `Vec<TidSet>`, so the hot
//! distance kernels are exposed here over raw word slices plus cached
//! cardinalities. With `|A|` and `|B|` known up front, a Jaccard distance
//! needs a single intersection popcount (`|A ∪ B| = |A| + |B| − |A ∩ B|`)
//! instead of the two popcounts per word the naive formulation pays, and a
//! radius test can abort the word loop as soon as the remaining words cannot
//! lift the intersection above the required threshold.
//!
//! # Backends and dispatch rules
//!
//! Every kernel has three implementations behind the [`Backend`] enum:
//!
//! * [`Backend::Scalar`] — portable `u64` loops (`scalar`); the reference
//!   semantics, available everywhere.
//! * [`Backend::Sse2`] — the same loops compiled with the hardware `POPCNT`
//!   instruction (requires the `popcnt` CPU feature; SSE2 itself is baseline
//!   x86-64).
//! * [`Backend::Avx2`] — 256-bit AND lanes + vectorized lookup popcount
//!   (requires `avx2`, and `popcnt` for ragged tails).
//!
//! Selection happens **once**, lazily, at the first kernel call:
//! [`Backend::active`] picks the best CPU-supported backend via
//! `is_x86_feature_detected!`, clamped by the `CFP_KERNEL_BACKEND`
//! environment variable ([`Backend::parse`]'s `scalar` | `sse2` | `avx2`,
//! acting as a *ceiling*: a request the CPU cannot honor falls back to the
//! best supported backend below it). Unset or empty means no ceiling; any
//! other value panics [`Backend::detect`], and the `cfp` CLI rejects it
//! before any work starts. Non-x86-64 targets always get the scalar
//! backend. [`Backend::set`] re-points the process-wide choice at any
//! time — safe mid-run, because **all backends return bit-identical
//! results**: they compute the same integer popcounts, so every derived
//! float compares identically and fusion output does not depend on the
//! backend (a property test and an end-to-end test enforce this).
//!
//! The module-level free functions dispatch through [`Backend::active`];
//! the same kernels are available as methods on a concrete [`Backend`] value
//! for tests and benchmarks that compare implementations side by side.
//!
//! # Batched kernels and the alignment contract
//!
//! Pool scans are one-query-vs-many shaped, so alongside the single-pair
//! kernels there are two batched entry points, both in gather form: they
//! stream one query's words against an explicit list of rows of a
//! contiguous structure-of-arrays slab (row `r` occupies
//! `slab[r * words_per_row ..][.. words_per_row]`), resolving the backend
//! once per batch and keeping the query hot in cache.
//!
//! * [`jaccard_within_rows`] — the radius-bounded test over suffix tables,
//!   which the ball scan runs over each seed's unproven candidates.
//! * [`jaccard_rows`] — full distances, which build the pivot tables and
//!   an external seed's pivot row.
//!
//! A contiguous range `a..b` is just the row list `a..b`.
//!
//! Slabs produced by [`crate::aligned::AlignedWords`] (which includes every
//! [`crate::TidSet`]'s blocks, zero-padded to a whole number of 32-byte
//! lanes) start 32-byte aligned, and a lane-multiple `words_per_row` keeps
//! every row aligned too. The SIMD backends use unaligned loads, so this is
//! a **performance contract, not a safety requirement**: arbitrary word
//! slices are accepted (ragged tails run scalar), aligned lane-padded slabs
//! merely run split-free.

mod scalar;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

/// A tid-set kernel implementation, selectable at runtime.
///
/// All backends compute identical integer popcounts (and therefore identical
/// floats); they differ only in speed. See the module docs for the dispatch
/// rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Backend {
    /// Portable `u64` word loops; the reference implementation.
    #[default]
    Scalar = 1,
    /// Scalar loops with the hardware `POPCNT` instruction (x86-64 with the
    /// `popcnt` feature).
    Sse2 = 2,
    /// 256-bit AND lanes with vectorized lookup popcount (x86-64 with the
    /// `avx2` feature).
    Avx2 = 3,
}

/// Process-wide active backend; 0 = not yet detected.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

impl Backend {
    /// Every backend, slowest first.
    const ALL: [Backend; 3] = [Backend::Scalar, Backend::Sse2, Backend::Avx2];

    fn from_u8(v: u8) -> Backend {
        match v {
            2 => Backend::Sse2,
            3 => Backend::Avx2,
            _ => Backend::Scalar,
        }
    }

    /// Short lower-case name (`"scalar"` | `"sse2"` | `"avx2"`), the
    /// vocabulary [`Backend::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every backend the running CPU supports, slowest first (always starts
    /// with [`Backend::Scalar`]).
    pub fn available() -> Vec<Backend> {
        Backend::ALL.into_iter().filter(|b| b.supported()).collect()
    }

    /// The fastest supported backend at or below `ceiling`.
    fn best_supported(ceiling: Backend) -> Backend {
        Backend::available()
            .into_iter()
            .rfind(|&b| b <= ceiling)
            .unwrap_or(Backend::Scalar)
    }

    /// Parses a backend name: `scalar` | `sse2` | `avx2`, trimmed and
    /// case-insensitive — the one grammar of `CFP_KERNEL_BACKEND`.
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL
            .into_iter()
            .find(|b| name.trim().eq_ignore_ascii_case(b.name()))
    }

    /// Detects the backend the process should use: the best CPU-supported
    /// one, clamped by `CFP_KERNEL_BACKEND` (see the module docs).
    ///
    /// # Panics
    /// Panics when `CFP_KERNEL_BACKEND` is set but not a backend name.
    pub fn detect() -> Backend {
        let ceiling = match std::env::var("CFP_KERNEL_BACKEND") {
            Ok(v) if !v.trim().is_empty() => Backend::parse(&v).unwrap_or_else(|| {
                panic!("invalid CFP_KERNEL_BACKEND='{v}': expected one of scalar|sse2|avx2")
            }),
            _ => Backend::Avx2,
        };
        Backend::best_supported(ceiling)
    }

    /// The process-wide active backend, detecting it on first use.
    pub fn active() -> Backend {
        match ACTIVE.load(Ordering::Relaxed) {
            0 => {
                let b = Backend::detect();
                // A racing first call computes the same value.
                ACTIVE.store(b as u8, Ordering::Relaxed);
                b
            }
            v => Backend::from_u8(v),
        }
    }

    /// Re-points the process-wide backend at `requested` (clamped to what
    /// the CPU supports) and returns the backend actually installed.
    ///
    /// Safe at any time — backends are bit-identical in results — but
    /// process-global: concurrent runs all see the change. Meant for
    /// benchmarks and determinism tests.
    pub fn set(requested: Backend) -> Backend {
        let actual = Backend::best_supported(requested);
        ACTIVE.store(actual as u8, Ordering::Relaxed);
        actual
    }

    /// Panics unless the CPU supports this backend — the guard on the public
    /// per-backend kernel methods (the hot free functions skip it: their
    /// backend comes from [`Backend::active`], which only yields supported
    /// backends).
    fn check(self) {
        assert!(
            self.supported(),
            "kernel backend '{}' is not supported by this CPU",
            self.name()
        );
    }

    // -- private dispatch (callers guarantee `self.supported()`) ------------

    #[inline]
    fn inter_count(self, a: &[u64], b: &[u64]) -> usize {
        match self {
            Backend::Scalar => scalar::intersection_count(a, b),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_intersection_count(a, b),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_intersection_count(a, b),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::intersection_count(a, b),
        }
    }

    #[inline]
    fn inter_at_least(
        self,
        a: &[u64],
        card_a: usize,
        b: &[u64],
        card_b: usize,
        threshold: usize,
    ) -> Option<usize> {
        match self {
            Backend::Scalar => scalar::intersection_count_at_least(a, card_a, b, card_b, threshold),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => x86::sse2_intersection_count_at_least(a, card_a, b, card_b, threshold),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => x86::avx2_intersection_count_at_least(a, card_a, b, card_b, threshold),
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::intersection_count_at_least(a, card_a, b, card_b, threshold),
        }
    }

    // -- public per-backend kernels (for tests and benchmarks) --------------

    /// `|a ∩ b|` with this backend. See [`intersection_count_words`].
    ///
    /// # Panics
    /// Panics when the CPU does not support this backend.
    pub fn intersection_count(self, a: &[u64], b: &[u64]) -> usize {
        self.check();
        self.inter_count(a, b)
    }

    /// Bounded `|a ∩ b|` with this backend. See
    /// [`intersection_count_at_least_words`].
    ///
    /// # Panics
    /// Panics when the CPU does not support this backend.
    pub fn intersection_count_at_least(
        self,
        a: &[u64],
        card_a: usize,
        b: &[u64],
        card_b: usize,
        threshold: usize,
    ) -> Option<usize> {
        self.check();
        self.inter_at_least(a, card_a, b, card_b, threshold)
    }

    /// Jaccard distance with this backend. See [`jaccard_words`].
    ///
    /// # Panics
    /// Panics when the CPU does not support this backend.
    pub fn jaccard(self, a: &[u64], card_a: usize, b: &[u64], card_b: usize) -> f64 {
        self.check();
        jaccard_from_counts(self.inter_count(a, b), card_a, card_b)
    }

    /// Radius-bounded Jaccard with this backend. See
    /// [`jaccard_within_words`].
    ///
    /// # Panics
    /// Panics when the CPU does not support this backend.
    pub fn jaccard_within(
        self,
        a: &[u64],
        card_a: usize,
        b: &[u64],
        card_b: usize,
        radius: f64,
    ) -> Option<f64> {
        self.check();
        jaccard_within_via(card_a, card_b, radius, |threshold| {
            self.inter_at_least(a, card_a, b, card_b, threshold)
        })
    }

    // -- public batched kernels ---------------------------------------------

    /// One query vs the slab rows listed in `rows` (gather form): calls
    /// `on_hit(k, d)`, in list order, for every listed row whose Jaccard
    /// distance to `q` is ≤ `radius`, where `k` indexes into `rows`. See
    /// the module docs for the slab layout.
    ///
    /// `q_suf` / `sufs` are [`suffix_cards`] tables (`suf_stride` entries
    /// per row); cardinalities come from their leading entries. Acceptance
    /// per row is exactly [`jaccard_within_words`]'s float comparison.
    ///
    /// # Panics
    /// Panics when the CPU does not support this backend.
    #[allow(clippy::too_many_arguments)]
    pub fn jaccard_within_rows(
        self,
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
        self.check();
        match self {
            // Both SIMD backends run the POPCNT loop: the suffix kernel's
            // per-superblock bound check defeats vector popcounts (see the
            // note in `x86`). Sound for Avx2, whose support implies `popcnt`.
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 | Backend::Avx2 => x86::sse2_jaccard_within_rows(
                q,
                q_suf,
                slab,
                sufs,
                suf_stride,
                words_per_row,
                rows,
                radius,
                on_hit,
            ),
            _ => {
                let q_card = q_suf[0] as usize;
                let inv = radius_threshold_factor(radius);
                for (k, &row) in rows.iter().enumerate() {
                    let row = row as usize;
                    let b = &slab[row * words_per_row..(row + 1) * words_per_row];
                    let sb = &sufs[row * suf_stride..(row + 1) * suf_stride];
                    let hit = jaccard_within_via_inv(q_card, sb[0] as usize, radius, inv, |t| {
                        scalar::intersection_count_at_least_suffix(q, q_suf, b, sb, t)
                    });
                    if let Some(d) = hit {
                        on_hit(k, d);
                    }
                }
            }
        }
    }

    /// Full (unbounded) Jaccard distances of one query vs the slab rows
    /// listed in `rows` (gather form), appended to `out` in list order.
    /// `cards[row]` is each row's cached cardinality.
    ///
    /// # Panics
    /// Panics when the CPU does not support this backend.
    #[allow(clippy::too_many_arguments)]
    pub fn jaccard_rows(
        self,
        q: &[u64],
        q_card: usize,
        slab: &[u64],
        cards: &[u32],
        words_per_row: usize,
        rows: &[u32],
        out: &mut Vec<f64>,
    ) {
        self.check();
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => {
                x86::sse2_jaccard_rows(q, q_card, slab, cards, words_per_row, rows, out)
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                x86::avx2_jaccard_rows(q, q_card, slab, cards, words_per_row, rows, out)
            }
            _ => {
                out.reserve(rows.len());
                for &row in rows {
                    let row = row as usize;
                    let b = &slab[row * words_per_row..(row + 1) * words_per_row];
                    let inter = self.inter_count(q, b);
                    out.push(jaccard_from_counts(inter, q_card, cards[row] as usize));
                }
            }
        }
    }
}

/// `|a ∩ b|` over word slices.
#[inline]
pub fn intersection_count_words(a: &[u64], b: &[u64]) -> usize {
    Backend::active().inter_count(a, b)
}

/// `|a ∩ b|` if it reaches `threshold`, else `None` — aborting the word loop
/// once the bits not yet scanned cannot close the gap.
///
/// `card_a` / `card_b` are the cached cardinalities of `a` / `b`; the running
/// upper bound is `seen ∩ + min(unseen a-bits, unseen b-bits)`, which only
/// shrinks, so the first violation is final. Abort granularity varies by
/// backend (per word scalar, per lane group SIMD); the returned `Option` and
/// count never do.
#[inline]
pub fn intersection_count_at_least_words(
    a: &[u64],
    card_a: usize,
    b: &[u64],
    card_b: usize,
    threshold: usize,
) -> Option<usize> {
    Backend::active().inter_at_least(a, card_a, b, card_b, threshold)
}

/// Jaccard distance `1 − |a ∩ b| / |a ∪ b|` from one intersection popcount
/// and the cached cardinalities. Distance between two empty sets is `0`.
#[inline]
pub fn jaccard_words(a: &[u64], card_a: usize, b: &[u64], card_b: usize) -> f64 {
    let inter = intersection_count_words(a, b);
    jaccard_from_counts(inter, card_a, card_b)
}

/// Jaccard distance given `|a ∩ b|` and the two cardinalities.
#[inline]
pub fn jaccard_from_counts(inter: usize, card_a: usize, card_b: usize) -> f64 {
    let union = card_a + card_b - inter;
    if union == 0 {
        0.0
    } else {
        1.0 - inter as f64 / union as f64
    }
}

/// The cardinality-independent factor of the abort-threshold derivation:
/// `d ≤ r ⟺ |∩| ≥ (1−r)(|A|+|B|)/(2−r)`, so the per-pair threshold is this
/// reciprocal times `|A|+|B|`. Batched kernels hoist the division out of
/// their row loops; the factored product rounds differently from the
/// two-step quotient by at most a few ulps, which the threshold's `−1`
/// slack absorbs (see [`jaccard_within_via`]) — results never depend on it.
#[inline]
fn radius_threshold_factor(radius: f64) -> f64 {
    (1.0 - radius) / (2.0 - radius)
}

/// Shared shell of the radius-bounded Jaccard kernels: empty-set
/// convention, the abort-threshold derivation, and the exact acceptance
/// test, with the bounded intersection count injected by the caller.
/// `inv` is [`radius_threshold_factor`]`(radius)`, computed once per batch.
///
/// The acceptance test is **exactly** `jaccard_from_counts(..) <= radius` —
/// the same float expression a brute-force scan evaluates — so callers
/// pruning with these kernels return bit-identical balls. The integer abort
/// threshold is derived from `d ≤ r ⟺ |∩| ≥ (1−r)(|A|+|B|)/(2−r)` and
/// slackened by one to absorb float rounding (of the distance *and* of the
/// factored reciprocal form), which can only cause a harmless extra exact
/// check, never a false reject: the rounding error is far below 1, so the
/// floor shifts by at most one unit, which the `−1` eats. For `radius ≥ 1`
/// the threshold degenerates to 0 (Jaccard never exceeds 1, and the
/// derivation's denominator changes sign at 2).
#[inline]
fn jaccard_within_via_inv(
    card_a: usize,
    card_b: usize,
    radius: f64,
    inv: f64,
    intersection_at_least: impl FnOnce(usize) -> Option<usize>,
) -> Option<f64> {
    if card_a == 0 && card_b == 0 {
        // Both empty: distance is 0 by convention.
        return (radius >= 0.0).then_some(0.0);
    }
    let threshold = if radius >= 1.0 {
        0
    } else {
        let needed = inv * (card_a + card_b) as f64;
        (needed.floor() as usize).saturating_sub(1)
    };
    let inter = intersection_at_least(threshold)?;
    let d = jaccard_from_counts(inter, card_a, card_b);
    (d <= radius).then_some(d)
}

/// [`jaccard_within_via_inv`] with the factor computed in place — the
/// single-pair entry point.
#[inline]
fn jaccard_within_via(
    card_a: usize,
    card_b: usize,
    radius: f64,
    intersection_at_least: impl FnOnce(usize) -> Option<usize>,
) -> Option<f64> {
    jaccard_within_via_inv(
        card_a,
        card_b,
        radius,
        radius_threshold_factor(radius),
        intersection_at_least,
    )
}

/// `Some(distance)` when `jaccard(a, b) ≤ radius`, else `None`, with the
/// bounded early-exit intersection kernel doing the heavy lifting (see
/// `jaccard_within_via` for the threshold contract).
#[inline]
pub fn jaccard_within_words(
    a: &[u64],
    card_a: usize,
    b: &[u64],
    card_b: usize,
    radius: f64,
) -> Option<f64> {
    let backend = Backend::active();
    jaccard_within_via(card_a, card_b, radius, |threshold| {
        backend.inter_at_least(a, card_a, b, card_b, threshold)
    })
}

/// Superblock width, in words, of the suffix-cardinality tables that
/// [`jaccard_within_rows`] reads.
pub const SUFFIX_STRIDE: usize = 8;

/// Suffix popcounts at [`SUFFIX_STRIDE`] granularity:
/// `out[k] = popcount(words[k·STRIDE ..])`, with a trailing `0` sentinel.
///
/// A pool precomputes one table per pattern (a few bytes each); the scan
/// kernel then gets a *strong* early-exit bound — remaining intersection ≤
/// `min` of both sets' unscanned bits — for one array lookup per superblock
/// instead of popcounting both operands at every word.
pub fn suffix_cards(words: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    suffix_cards_into(words, &mut out);
    out
}

/// [`suffix_cards`] appending into an existing buffer — the arena build path
/// computes one table per pool pattern per iteration and must not allocate
/// per pattern.
pub fn suffix_cards_into(words: &[u64], out: &mut Vec<u32>) {
    let blocks = words.len().div_ceil(SUFFIX_STRIDE);
    let base = out.len();
    out.resize(base + blocks + 1, 0);
    for k in (0..blocks).rev() {
        let start = k * SUFFIX_STRIDE;
        let end = (start + SUFFIX_STRIDE).min(words.len());
        out[base + k] = out[base + k + 1]
            + words[start..end]
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>();
    }
}

/// [`Backend::jaccard_within_rows`] on the active backend.
#[allow(clippy::too_many_arguments)]
pub fn jaccard_within_rows(
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
    Backend::active().jaccard_within_rows(
        q,
        q_suf,
        slab,
        sufs,
        suf_stride,
        words_per_row,
        rows,
        radius,
        on_hit,
    );
}

/// [`Backend::jaccard_rows`] on the active backend.
#[allow(clippy::too_many_arguments)]
pub fn jaccard_rows(
    q: &[u64],
    q_card: usize,
    slab: &[u64],
    cards: &[u32],
    words_per_row: usize,
    rows: &[u32],
    out: &mut Vec<f64>,
) {
    Backend::active().jaccard_rows(q, q_card, slab, cards, words_per_row, rows, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(bits: &[usize], universe: usize) -> (Vec<u64>, usize) {
        let mut w = vec![0u64; universe.div_ceil(64)];
        for &b in bits {
            w[b / 64] |= 1 << (b % 64);
        }
        (w, bits.len())
    }

    #[test]
    fn intersection_count_matches_naive() {
        let (a, _) = words(&[1, 2, 3, 64, 130], 200);
        let (b, _) = words(&[2, 3, 64, 131], 200);
        assert_eq!(intersection_count_words(&a, &b), 3);
    }

    #[test]
    fn at_least_kernel_is_exact_when_it_returns() {
        let (a, ca) = words(&[0, 1, 2, 3, 70, 71], 160);
        let (b, cb) = words(&[2, 3, 70, 100], 160);
        assert_eq!(
            intersection_count_at_least_words(&a, ca, &b, cb, 0),
            Some(3)
        );
        assert_eq!(
            intersection_count_at_least_words(&a, ca, &b, cb, 3),
            Some(3)
        );
        assert_eq!(intersection_count_at_least_words(&a, ca, &b, cb, 4), None);
        // Cardinality precheck: min(|A|,|B|) < threshold without scanning.
        assert_eq!(intersection_count_at_least_words(&a, ca, &b, cb, 5), None);
    }

    #[test]
    fn jaccard_within_agrees_with_direct_formula() {
        let (a, ca) = words(&[1, 2, 3, 7], 10);
        let (b, cb) = words(&[2, 3, 4], 10);
        // d = 1 - 2/5 = 0.6
        let d = jaccard_words(&a, ca, &b, cb);
        assert!((d - 0.6).abs() < 1e-12);
        assert_eq!(jaccard_within_words(&a, ca, &b, cb, 0.6), Some(d));
        assert_eq!(jaccard_within_words(&a, ca, &b, cb, 0.59), None);
        assert_eq!(jaccard_within_words(&a, ca, &b, cb, 1.0), Some(d));
    }

    #[test]
    fn empty_sets_have_zero_distance() {
        let (a, ca) = words(&[], 100);
        let (b, cb) = words(&[], 100);
        assert_eq!(jaccard_within_words(&a, ca, &b, cb, 0.0), Some(0.0));
        let (c, cc) = words(&[5], 100);
        assert_eq!(jaccard_words(&a, ca, &c, cc), 1.0);
    }

    #[test]
    fn suffix_tables_and_kernel_match_plain_kernels() {
        // Multi-superblock universe so aborts can fire mid-scan.
        let universe = 64 * 24;
        let a_bits: Vec<usize> = (0..universe).filter(|i| i % 3 == 0).collect();
        let b_bits: Vec<usize> = (0..universe).filter(|i| i % 5 == 0 && *i < 700).collect();
        let (a, ca) = words(&a_bits, universe);
        let (b, cb) = words(&b_bits, universe);
        let sa = suffix_cards(&a);
        let sb = suffix_cards(&b);
        assert_eq!(sa[0] as usize, ca);
        assert_eq!(*sa.last().unwrap(), 0);
        let inter = intersection_count_words(&a, &b);
        for t in [0, 1, inter, inter + 1, inter + 50] {
            assert_eq!(
                scalar::intersection_count_at_least_suffix(&a, &sa, &b, &sb, t),
                intersection_count_at_least_words(&a, ca, &b, cb, t),
                "threshold {t}"
            );
        }
        for r in [0.0, 0.3, 0.5, 0.8, 0.95, 1.0] {
            let mut got = None;
            jaccard_within_rows(&a, &sa, &b, &sb, sb.len(), b.len(), &[0], r, &mut |_, d| {
                got = Some(d)
            });
            assert_eq!(got, jaccard_within_words(&a, ca, &b, cb, r), "radius {r}");
        }
    }

    #[test]
    fn boundary_radii_match_brute_force_over_small_universe() {
        // Every pair of subsets of a 6-bit universe, every rational radius
        // i/u: the kernel must agree with the direct float comparison.
        for ma in 0u64..64 {
            for mb in 0u64..64 {
                let a = [ma];
                let b = [mb];
                let ca = ma.count_ones() as usize;
                let cb = mb.count_ones() as usize;
                let d = jaccard_words(&a, ca, &b, cb);
                for num in 0..=6usize {
                    for den in 1..=6usize {
                        let r = num as f64 / den as f64;
                        let want = d <= r;
                        let got = jaccard_within_words(&a, ca, &b, cb, r).is_some();
                        assert_eq!(got, want, "ma={ma:b} mb={mb:b} r={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn backend_selection_rules() {
        // Scalar is always supported and always listed first.
        assert!(Backend::Scalar.supported());
        let avail = Backend::available();
        assert_eq!(avail.first(), Some(&Backend::Scalar));
        assert!(avail.windows(2).all(|w| w[0] < w[1]));
        // active() yields a supported backend; set() clamps to support.
        assert!(Backend::active().supported());
        for &b in &[Backend::Scalar, Backend::Sse2, Backend::Avx2] {
            let actual = Backend::set(b);
            assert!(actual.supported());
            assert!(actual <= b);
            assert_eq!(Backend::active(), actual);
        }
        assert_eq!(Backend::set(Backend::Scalar), Backend::Scalar);
        assert_eq!(Backend::active(), Backend::Scalar);
        assert_eq!(Backend::Avx2.name(), "avx2");
        // Restore the detected backend for the rest of the process.
        Backend::set(Backend::detect());
    }

    #[test]
    fn every_available_backend_matches_scalar_on_fixtures() {
        let universe = 64 * 21 + 17; // ragged tail
        let a_bits: Vec<usize> = (0..universe).filter(|i| i % 3 == 0).collect();
        let b_bits: Vec<usize> = (0..universe).filter(|i| i % 7 == 2).collect();
        let (a, ca) = words(&a_bits, universe);
        let (b, cb) = words(&b_bits, universe);
        let sa = suffix_cards(&a);
        let sb = suffix_cards(&b);
        let want_inter = Backend::Scalar.intersection_count(&a, &b);
        for backend in Backend::available() {
            assert_eq!(
                backend.intersection_count(&a, &b),
                want_inter,
                "{backend:?}"
            );
            for t in [0, want_inter, want_inter + 1, ca] {
                assert_eq!(
                    backend.intersection_count_at_least(&a, ca, &b, cb, t),
                    Backend::Scalar.intersection_count_at_least(&a, ca, &b, cb, t),
                    "{backend:?} t={t}"
                );
            }
            for r in [0.0, 0.4, 0.9, 1.0] {
                let want = Backend::Scalar.jaccard_within(&a, ca, &b, cb, r);
                assert_eq!(
                    backend.jaccard_within(&a, ca, &b, cb, r),
                    want,
                    "{backend:?} r={r}"
                );
                // The suffix-table kernel, through the gather form over a
                // one-row slab.
                let mut got = None;
                backend.jaccard_within_rows(
                    &a,
                    &sa,
                    &b,
                    &sb,
                    sb.len(),
                    b.len(),
                    &[0],
                    r,
                    &mut |_, d| got = Some(d),
                );
                assert_eq!(got, want, "{backend:?} suffix r={r}");
            }
        }
    }

    #[test]
    fn batched_kernels_match_per_pair_calls() {
        // A small slab: 9 rows × 6 words, query with a different period.
        let words_per_row = 6;
        let n_rows = 9;
        let mut slab = Vec::new();
        let mut cards = Vec::new();
        let mut sufs = Vec::new();
        for r in 0..n_rows {
            let bits: Vec<usize> = (0..words_per_row * 64)
                .filter(|i| (i + r) % (r + 2) == 0)
                .collect();
            let (w, c) = words(&bits, words_per_row * 64);
            slab.extend_from_slice(&w);
            cards.push(c as u32);
            suffix_cards_into(&w, &mut sufs);
        }
        let suf_stride = words_per_row.div_ceil(SUFFIX_STRIDE) + 1;
        let q_bits: Vec<usize> = (0..words_per_row * 64).filter(|i| i % 3 != 1).collect();
        let (q, qc) = words(&q_bits, words_per_row * 64);
        let qs = suffix_cards(&q);
        let radius = 0.7;

        let row = |r: usize| &slab[r * words_per_row..(r + 1) * words_per_row];
        let ascending: Vec<u32> = (0..n_rows as u32).collect();
        let scattered: Vec<u32> = vec![7, 2, 2, 8, 0]; // repeats allowed
        for backend in Backend::available() {
            for rows in [&ascending, &scattered] {
                // jaccard_within_rows ≡ per-row jaccard_within.
                let mut got: Vec<(usize, f64)> = Vec::new();
                backend.jaccard_within_rows(
                    &q,
                    &qs,
                    &slab,
                    &sufs,
                    suf_stride,
                    words_per_row,
                    rows,
                    radius,
                    &mut |k, d| got.push((k, d)),
                );
                let want: Vec<(usize, f64)> = rows
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &r)| {
                        let r = r as usize;
                        Backend::Scalar
                            .jaccard_within(&q, qc, row(r), cards[r] as usize, radius)
                            .map(|d| (k, d))
                    })
                    .collect();
                assert_eq!(got, want, "{backend:?} rows {rows:?}");

                // jaccard_rows ≡ per-row jaccard.
                let mut dists = Vec::new();
                backend.jaccard_rows(&q, qc, &slab, &cards, words_per_row, rows, &mut dists);
                let want: Vec<f64> = rows
                    .iter()
                    .map(|&r| {
                        Backend::Scalar.jaccard(&q, qc, row(r as usize), cards[r as usize] as usize)
                    })
                    .collect();
                assert_eq!(dists, want, "{backend:?} rows {rows:?}");
            }
        }
    }

    #[test]
    fn batched_kernels_handle_zero_width_rows() {
        // Zero-width rows (empty universe): every row is the empty set.
        let slab: Vec<u64> = Vec::new();
        let sufs = vec![0u32; 3]; // 3 rows × stride 1 (sentinel only)
        let q: Vec<u64> = Vec::new();
        let qs = vec![0u32];
        let mut hits = Vec::new();
        for backend in Backend::available() {
            hits.clear();
            backend.jaccard_within_rows(
                &q,
                &qs,
                &slab,
                &sufs,
                1,
                0,
                &[0, 1, 2],
                0.5,
                &mut |k, d| hits.push((k, d)),
            );
            // Empty vs empty: distance 0 everywhere.
            assert_eq!(hits, vec![(0, 0.0), (1, 0.0), (2, 0.0)], "{backend:?}");
        }
    }
}
