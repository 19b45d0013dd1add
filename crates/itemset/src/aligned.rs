//! 32-byte-aligned `u64` word storage for tid-set slabs.
//!
//! The SIMD kernel backends in [`crate::kernels`] stream 256-bit lanes over
//! tid-set words. They use unaligned loads, so alignment is a *performance*
//! contract, not a safety requirement — but keeping every slab (and, because
//! lengths are padded to whole lanes, every row of a structure-of-arrays
//! arena whose row width is a lane multiple) on a 32-byte boundary keeps
//! those loads split-free and cache-line tidy. [`AlignedWords`] provides
//! that storage: a growable word buffer whose base pointer is 32-byte
//! aligned and whose length is always a multiple of [`LANE_WORDS`].
//!
//! [`crate::TidSet`] stores its blocks in an `AlignedWords`, which is why
//! `TidSet::blocks()` reports a zero-padded, lane-multiple word count; the
//! ball-query arena in `cfp-core` inherits both properties by concatenating
//! those blocks.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Words per 32-byte SIMD lane (256 bits / 64-bit words).
pub const LANE_WORDS: usize = 4;

/// One 32-byte-aligned group of [`LANE_WORDS`] words. The `align(32)`
/// representation is what makes a `Vec<Lane>`'s backing buffer — and
/// therefore the word slice viewed over it — 32-byte aligned.
#[repr(C, align(32))]
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Lane([u64; LANE_WORDS]);

/// A growable `u64` buffer with a 32-byte-aligned base pointer and a length
/// that is always a multiple of [`LANE_WORDS`] (constructors zero-pad).
///
/// Dereferences to `[u64]`, so it drops into every API that takes word
/// slices. Equality and hashing are over the padded words, which matches
/// slice semantics because the padding is always zero.
#[derive(Default, PartialEq, Eq, Hash)]
pub struct AlignedWords {
    lanes: Vec<Lane>,
}

impl AlignedWords {
    /// A zero-filled buffer covering at least `words` words (rounded up to a
    /// whole lane).
    pub fn zeroed(words: usize) -> Self {
        Self {
            lanes: vec![Lane::default(); words.div_ceil(LANE_WORDS)],
        }
    }

    /// An empty buffer with capacity for `words` words.
    pub fn with_capacity(words: usize) -> Self {
        Self {
            lanes: Vec::with_capacity(words.div_ceil(LANE_WORDS)),
        }
    }

    /// A buffer holding `words`, zero-padded up to a whole lane.
    pub fn from_words(words: &[u64]) -> Self {
        let mut out = Self::with_capacity(words.len());
        let whole = words.len() - words.len() % LANE_WORDS;
        out.extend_from_slice(&words[..whole]);
        if whole < words.len() {
            let mut tail = [0u64; LANE_WORDS];
            tail[..words.len() - whole].copy_from_slice(&words[whole..]);
            out.lanes.push(Lane(tail));
        }
        out
    }

    /// Appends `words`, which must be a whole number of lanes so that every
    /// previously appended row stays lane-aligned.
    ///
    /// # Panics
    /// Panics when `words.len()` is not a multiple of [`LANE_WORDS`].
    pub fn extend_from_slice(&mut self, words: &[u64]) {
        assert_eq!(
            words.len() % LANE_WORDS,
            0,
            "appended slices must be whole lanes to keep rows aligned"
        );
        let lanes = words.len() / LANE_WORDS;
        self.lanes.reserve(lanes);
        // SAFETY: `Lane` is plain `[u64; LANE_WORDS]` (repr(C), no padding),
        // so copying `words` into the reserved spare capacity and bumping
        // the length is exactly `lanes` pushes — done as one memcpy because
        // this is the arena-build hot path (one call per pool pattern).
        #[allow(unsafe_code)]
        unsafe {
            let dst = self.lanes.as_mut_ptr().add(self.lanes.len()).cast::<u64>();
            std::ptr::copy_nonoverlapping(words.as_ptr(), dst, words.len());
            self.lanes.set_len(self.lanes.len() + lanes);
        }
    }

    /// Reserves room for exactly `words` more words (rounded up to a whole
    /// lane), so a buffer grown to a known size never over-allocates.
    pub fn reserve_exact(&mut self, words: usize) {
        self.lanes.reserve_exact(words.div_ceil(LANE_WORDS));
    }

    /// Removes all words, keeping the allocation.
    pub fn clear(&mut self) {
        self.lanes.clear();
    }

    /// Grows the buffer with zero lanes until it covers at least `words`
    /// words (rounded up to a whole lane). Shrinking is not supported:
    /// a target below the current length is a no-op, so existing words are
    /// never dropped.
    pub fn grow_zeroed(&mut self, words: usize) {
        let lanes = words.div_ceil(LANE_WORDS);
        if lanes > self.lanes.len() {
            self.lanes.resize(lanes, Lane::default());
        }
    }

    /// The words as a slice (length is always a lane multiple).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        // SAFETY: `Lane` is `#[repr(C)]` over `[u64; LANE_WORDS]` with no
        // padding (align 32 == size 32), so a contiguous `[Lane]` buffer
        // reinterprets exactly as `LANE_WORDS ×` as many `u64`s, and the
        // borrow keeps the Vec alive and un-mutated.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.lanes.as_ptr().cast(), self.lanes.len() * LANE_WORDS)
        }
    }

    /// The words as a mutable slice.
    #[inline]
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `as_words`, plus exclusive access through `&mut
        // self`.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(
                self.lanes.as_mut_ptr().cast(),
                self.lanes.len() * LANE_WORDS,
            )
        }
    }
}

/// A word slice viewed as raw bytes (native byte order). The slab I/O
/// layer ([`crate::slab_io`]) streams whole tid columns through this view;
/// on little-endian targets the native bytes *are* the on-disk encoding.
#[inline]
pub fn words_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: `u64` has no padding and alignment 8 ≥ 1; the byte view
    // covers exactly the slice's memory and inherits its borrow.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words))
    }
}

/// Mutable byte view over a word slice — the zero-copy load target: a
/// reader fills the final 32-byte-aligned buffer directly, no staging copy.
#[inline]
pub fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `words_as_bytes`; every bit pattern is a valid `u64`,
    // so arbitrary byte writes cannot break validity.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

/// A `u32` slice viewed as raw bytes (native byte order) — for streaming
/// the slab's POD columns (suffix tables, spans, supports).
#[inline]
pub fn u32s_as_bytes(vals: &[u32]) -> &[u8] {
    // SAFETY: `u32` has no padding; see `words_as_bytes`.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts(vals.as_ptr().cast(), std::mem::size_of_val(vals))
    }
}

/// Mutable byte view over a `u32` slice (the column-load target).
#[inline]
pub fn u32s_as_bytes_mut(vals: &mut [u32]) -> &mut [u8] {
    // SAFETY: every bit pattern is a valid `u32`; see `words_as_bytes_mut`.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast(), std::mem::size_of_val(vals))
    }
}

impl Clone for AlignedWords {
    fn clone(&self) -> Self {
        Self {
            lanes: self.lanes.clone(),
        }
    }

    /// Reuses the existing allocation (`Lane` is `Copy`, so this is a plain
    /// buffer copy) — the scratch-pattern paths in `cfp-core` lean on it.
    fn clone_from(&mut self, source: &Self) {
        self.lanes.clone_from(&source.lanes);
    }
}

impl Deref for AlignedWords {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_words()
    }
}

impl DerefMut for AlignedWords {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_words_mut()
    }
}

impl fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_pointer_is_32_byte_aligned_and_length_padded() {
        for words in [0usize, 1, 3, 4, 5, 63, 64, 65] {
            let buf = AlignedWords::zeroed(words);
            assert_eq!(buf.as_ptr() as usize % 32, 0, "words={words}");
            assert_eq!(buf.len(), words.div_ceil(LANE_WORDS) * LANE_WORDS);
            assert!(buf.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn from_words_pads_ragged_tails_with_zeros() {
        let src = [1u64, 2, 3, 4, 5, 6];
        let buf = AlignedWords::from_words(&src);
        assert_eq!(buf.len(), 8);
        assert_eq!(&buf[..6], &src);
        assert_eq!(&buf[6..], &[0, 0]);
        assert_eq!(buf.as_ptr() as usize % 32, 0);
    }

    #[test]
    fn extend_keeps_rows_aligned_and_rejects_partial_lanes() {
        let mut buf = AlignedWords::with_capacity(8);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        buf.extend_from_slice(&[5, 6, 7, 8]);
        assert_eq!(&buf[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf.as_ptr() as usize % 32, 0);
        buf.clear();
        assert!(buf.is_empty());
        let r = std::panic::catch_unwind(move || {
            let mut buf = AlignedWords::default();
            buf.extend_from_slice(&[1, 2, 3]);
        });
        assert!(r.is_err(), "partial lanes must be rejected");
    }

    #[test]
    fn mutation_equality_and_clone_from() {
        let mut a = AlignedWords::zeroed(5);
        a[0] = 7;
        a[4] = 9;
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = AlignedWords::zeroed(1);
        c.clone_from(&a);
        assert_eq!(c, a);
        c[0] = 8;
        assert_ne!(c, a);
    }
}
