//! Versioned binary dump/load for [`PatternPool`] slabs.
//!
//! The slab is columnar POD, so its persistent form is a direct image of
//! the columns: a fixed header, a section table, and the five columns
//! streamed back-to-back, closed by a CRC-32 footer. The full layout
//! diagram and the versioning/endianness/alignment rules live in the
//! [`crate::store`] module docs; this module implements them.
//!
//! Three properties drive the design:
//!
//! * **Zero-copy-on-load.** Each column is read in one `read_exact`
//!   directly into its final buffer — the tid region lands in a fresh
//!   32-byte-aligned [`AlignedWords`] via [`crate::aligned::words_as_bytes_mut`],
//!   so loaded slabs satisfy the kernel layout contract with no staging
//!   copy or per-row re-push.
//! * **Streaming row-subset dump.** [`write_slab_rows`] spills any row
//!   selection (e.g. a shard partition) column-by-column straight from the
//!   parent slab's borrows, recomputing only the item offsets — the
//!   out-of-core driver never materializes a `permuted` sub-slab just to
//!   write it out.
//! * **Typed failure.** Truncation, bad magic, unknown versions, byte-order
//!   mismatches, and corruption all surface as [`SlabIoError`] variants;
//!   no input byte sequence panics the loader.
//!
//! Only `std` I/O is used (`File`, `BufReader`, `BufWriter`); the CRC-32
//! (IEEE 802.3, reflected) table is built by a `const` expression.

use crate::aligned::{self, AlignedWords};
use crate::kernels;
use crate::store::{words_per_row_for, PatternPool};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Leading magic: identifies a file as a CFP pattern-slab image.
pub const MAGIC: [u8; 8] = *b"CFPSLAB\0";

/// Current (and only) on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed little-endian constant at offset 12; reads as a different value
/// under any other byte order, catching byte-swapped files up front.
const ENDIAN_TAG: u32 = 0x0A0B_C0DE;

/// Byte length of everything before the first section (magic + version +
/// endian tag + 5 header words + 5 section lengths).
const PREAMBLE_BYTES: u64 = 8 + 4 + 4 + 5 * 8 + 5 * 8;

/// What went wrong reading or writing a slab image.
#[derive(Debug)]
pub enum SlabIoError {
    /// An underlying I/O failure (other than a short read, which maps to
    /// [`SlabIoError::Truncated`]).
    Io(io::Error),
    /// The file ended before the declared content did.
    Truncated,
    /// The leading eight bytes are not [`MAGIC`].
    BadMagic([u8; 8]),
    /// The file declares a format version this reader does not know.
    UnsupportedVersion(u32),
    /// The endianness tag does not match — the file was written by a
    /// writer that did not encode little-endian.
    EndianMismatch,
    /// The trailing CRC-32 does not match the content read.
    CrcMismatch {
        /// CRC stored in the footer.
        stored: u32,
        /// CRC computed over the bytes actually read.
        computed: u32,
    },
    /// Header fields or columns contradict each other (wrong derived
    /// widths, non-monotonic item offsets, unsorted row items, …).
    Inconsistent(String),
}

impl fmt::Display for SlabIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "slab i/o: {e}"),
            Self::Truncated => write!(f, "slab image is truncated"),
            Self::BadMagic(m) => write!(f, "not a CFP slab image (magic {m:02x?})"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported slab format version {v} (reader knows {FORMAT_VERSION})"
                )
            }
            Self::EndianMismatch => write!(f, "slab image byte order is not little-endian"),
            Self::CrcMismatch { stored, computed } => write!(
                f,
                "slab CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::Inconsistent(why) => write!(f, "inconsistent slab image: {why}"),
        }
    }
}

impl std::error::Error for SlabIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SlabIoError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e)
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-8
/// lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes — so eight lookups fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into a running (pre-inverted) CRC, eight bytes per step,
/// finishing the tail byte by byte.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Streaming CRC-32 over arbitrary byte runs — the exact checksum the
/// CFPSLAB footer uses (IEEE 802.3 reflected, init `0xFFFF_FFFF`, final
/// XOR), exposed so other interchange layers (the worker protocol frames
/// of `cfp_core::net`) checksum with the same machinery instead of a second
/// table.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum (over zero bytes so far).
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = crc32_update(self.0, bytes);
    }

    /// The checksum of everything updated so far (the running state is
    /// unaffected; more bytes may still be folded in).
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`Crc32`] over a single byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Streams bytes to `inner` while folding them into a running CRC — the
/// writer never buffers a section, so row-subset spills stay O(row) in
/// scratch space.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
    bytes: u64,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            crc: 0xFFFF_FFFF,
            bytes: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        self.crc = crc32_update(self.crc, bytes);
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// A `u64` column as little-endian bytes (one write on LE hosts).
    fn put_words(&mut self, words: &[u64]) -> io::Result<()> {
        #[cfg(target_endian = "little")]
        return self.put(aligned::words_as_bytes(words));
        #[cfg(target_endian = "big")]
        {
            for &w in words {
                self.put(&w.to_le_bytes())?;
            }
            Ok(())
        }
    }

    /// A `u32` column as little-endian bytes (one write on LE hosts).
    fn put_u32s(&mut self, vals: &[u32]) -> io::Result<()> {
        #[cfg(target_endian = "little")]
        return self.put(aligned::u32s_as_bytes(vals));
        #[cfg(target_endian = "big")]
        {
            for &v in vals {
                self.put(&v.to_le_bytes())?;
            }
            Ok(())
        }
    }

    /// The CRC over everything streamed so far.
    fn crc(&self) -> u32 {
        self.crc ^ 0xFFFF_FFFF
    }
}

/// Reads exact byte runs from `inner` while folding them into a running
/// CRC, so the footer check covers precisely the bytes consumed.
struct CrcReader<R: Read> {
    inner: R,
    crc: u32,
}

impl<R: Read> CrcReader<R> {
    fn new(inner: R) -> Self {
        Self {
            inner,
            crc: 0xFFFF_FFFF,
        }
    }

    fn take(&mut self, buf: &mut [u8]) -> Result<(), SlabIoError> {
        self.inner.read_exact(buf)?;
        self.crc = crc32_update(self.crc, buf);
        Ok(())
    }

    fn take_u32(&mut self) -> Result<u32, SlabIoError> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn take_u64(&mut self) -> Result<u64, SlabIoError> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a column of `len` words, grown as its bytes arrive.
    fn take_words(&mut self, len: usize) -> Result<AlignedWords, SlabIoError> {
        let mut col = AlignedWords::default();
        while col.len() < len {
            let (have, next) = (col.len(), read_step(col.len(), len, 8));
            col.reserve_exact(next - have);
            col.grow_zeroed(next);
            let fresh = &mut col.as_words_mut()[have..next];
            self.take(aligned::words_as_bytes_mut(fresh))?;
            #[cfg(target_endian = "big")]
            fresh.iter_mut().for_each(|w| *w = u64::from_le(*w));
        }
        Ok(col)
    }

    /// Reads a column of `len` `u32`s, grown as its bytes arrive.
    fn take_u32s(&mut self, len: usize) -> Result<Vec<u32>, SlabIoError> {
        let mut col = Vec::new();
        while col.len() < len {
            let (have, next) = (col.len(), read_step(col.len(), len, 4));
            col.reserve_exact(next - have);
            col.resize(next, 0);
            self.take(aligned::u32s_as_bytes_mut(&mut col[have..]))?;
            #[cfg(target_endian = "big")]
            col[have..].iter_mut().for_each(|v| *v = u32::from_le(*v));
        }
        Ok(col)
    }

    fn crc(&self) -> u32 {
        self.crc ^ 0xFFFF_FFFF
    }
}

/// Bytes a column is allocated ahead of the bytes that fill it. The header
/// is unverified until the footer's CRC, so a lying row count must cost one
/// step of memory, not what it claims.
const READ_STEP_BYTES: usize = 1 << 20;

/// The length a read of a `len`-element column (`size`-byte elements)
/// grows to from `have`: one step, then doubling, so memory tracks the
/// bytes received and the copying stays linear in them.
fn read_step(have: usize, len: usize, size: usize) -> usize {
    len.min(have + have.max(READ_STEP_BYTES / size))
}

/// Per-row geometry plus section byte lengths, derived once and shared by
/// the whole-slab and row-subset writers and the reader's validator.
struct Layout {
    universe: u64,
    words_per_row: u64,
    suf_stride: u64,
    rows: u64,
    item_data_len: u64,
    sections: [u64; 5],
}

impl Layout {
    fn new(universe: usize, rows: usize, item_data_len: usize) -> Self {
        let wpr = words_per_row_for(universe) as u64;
        let ss = (words_per_row_for(universe).div_ceil(kernels::SUFFIX_STRIDE) + 1) as u64;
        let (rows, item_data_len) = (rows as u64, item_data_len as u64);
        Self {
            universe: universe as u64,
            words_per_row: wpr,
            suf_stride: ss,
            rows,
            item_data_len,
            sections: [
                rows * wpr * 8,
                rows * ss * 4,
                (rows + 1) * 4,
                item_data_len * 4,
                rows * 4,
            ],
        }
    }

    fn write_preamble(&self, w: &mut CrcWriter<impl Write>) -> io::Result<()> {
        w.put(&MAGIC)?;
        w.put_u32(FORMAT_VERSION)?;
        w.put_u32(ENDIAN_TAG)?;
        for v in [
            self.universe,
            self.words_per_row,
            self.suf_stride,
            self.rows,
            self.item_data_len,
        ] {
            w.put_u64(v)?;
        }
        for len in self.sections {
            w.put_u64(len)?;
        }
        Ok(())
    }
}

/// Serializes the whole slab to `w`, returning the bytes written.
///
/// Whole columns stream directly from the pool's borrows; nothing is
/// staged. The image is self-describing and CRC-closed (see the format
/// spec in [`crate::store`]).
pub fn write_slab(pool: &PatternPool, w: &mut impl Write) -> Result<u64, SlabIoError> {
    let layout = Layout::new(pool.universe(), pool.len(), pool.item_data().len());
    let mut cw = CrcWriter::new(w);
    layout.write_preamble(&mut cw)?;
    cw.put_words(pool.words())?;
    cw.put_u32s(pool.sufs())?;
    cw.put_u32s(pool.item_offsets())?;
    cw.put_u32s(pool.item_data())?;
    cw.put_u32s(pool.supports())?;
    let crc = cw.crc();
    cw.inner.write_all(&crc.to_le_bytes())?;
    cw.inner.flush()?;
    Ok(cw.bytes + 4)
}

/// Serializes the selected `rows` (in the given order) as a standalone
/// slab image, returning the bytes written.
///
/// This is the out-of-core spill path: each column is streamed row-by-row
/// from the parent slab's borrows — item offsets are rebased on the fly —
/// so a shard partition goes to disk without ever materializing a
/// `permuted` sub-slab in memory.
pub fn write_slab_rows(
    pool: &PatternPool,
    rows: &[u32],
    w: &mut impl Write,
) -> Result<u64, SlabIoError> {
    let item_data_len: usize = rows.iter().map(|&r| pool.items(r).len()).sum();
    let layout = Layout::new(pool.universe(), rows.len(), item_data_len);
    let mut cw = CrcWriter::new(w);
    layout.write_preamble(&mut cw)?;
    for &r in rows {
        cw.put_words(pool.tid_words(r))?;
    }
    for &r in rows {
        cw.put_u32s(pool.row_sufs(r))?;
    }
    let mut acc = 0u32;
    cw.put_u32(acc)?;
    for &r in rows {
        acc += pool.items(r).len() as u32;
        cw.put_u32(acc)?;
    }
    for &r in rows {
        cw.put_u32s(pool.items(r))?;
    }
    for &r in rows {
        cw.put_u32(pool.support(r) as u32)?;
    }
    let crc = cw.crc();
    cw.inner.write_all(&crc.to_le_bytes())?;
    cw.inner.flush()?;
    Ok(cw.bytes + 4)
}

/// Deserializes a slab image from `r`.
///
/// The preamble is validated (magic, version, byte order, derived widths
/// recomputed from `universe`), then every column is read into its final
/// buffer — the tid region into a 32-byte-aligned [`AlignedWords`] — and
/// the trailing CRC is checked against the bytes consumed.
///
/// Columns grow in bounded steps as their bytes arrive, never sized up
/// front from the unverified header: memory tracks the bytes received, and
/// a stream that ends short is a typed [`SlabIoError::Truncated`].
pub fn read_slab(r: &mut impl Read) -> Result<PatternPool, SlabIoError> {
    let mut cr = CrcReader::new(r);
    let mut magic = [0u8; 8];
    cr.take(&mut magic)?;
    if magic != MAGIC {
        return Err(SlabIoError::BadMagic(magic));
    }
    let version = cr.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(SlabIoError::UnsupportedVersion(version));
    }
    if cr.take_u32()? != ENDIAN_TAG {
        return Err(SlabIoError::EndianMismatch);
    }

    let universe = cr.take_u64()?;
    let words_per_row = cr.take_u64()?;
    let suf_stride = cr.take_u64()?;
    let rows = cr.take_u64()?;
    let item_data_len = cr.take_u64()?;
    let mut sections = [0u64; 5];
    for s in &mut sections {
        *s = cr.take_u64()?;
    }

    // Row ids and item offsets are u32 throughout the engine; a header that
    // exceeds them cannot describe a real slab.
    if universe > u32::MAX as u64 {
        return Err(SlabIoError::Inconsistent(format!(
            "universe {universe} exceeds u32"
        )));
    }
    if rows > u32::MAX as u64 {
        return Err(SlabIoError::Inconsistent(format!(
            "row count {rows} exceeds u32"
        )));
    }
    if item_data_len > u32::MAX as u64 {
        return Err(SlabIoError::Inconsistent(format!(
            "item column length {item_data_len} exceeds u32"
        )));
    }
    // The widths are functions of the universe; recompute and insist, so a
    // loaded tid region always matches the kernels' lane geometry.
    let expect = Layout::new(universe as usize, rows as usize, item_data_len as usize);
    if words_per_row != expect.words_per_row {
        return Err(SlabIoError::Inconsistent(format!(
            "words_per_row {words_per_row} does not match universe {universe} (expect {})",
            expect.words_per_row
        )));
    }
    if suf_stride != expect.suf_stride {
        return Err(SlabIoError::Inconsistent(format!(
            "suf_stride {suf_stride} does not match universe {universe} (expect {})",
            expect.suf_stride
        )));
    }
    if sections != expect.sections {
        return Err(SlabIoError::Inconsistent(format!(
            "section table {sections:?} does not match header (expect {:?})",
            expect.sections
        )));
    }

    let (rows_n, wpr, ss) = (rows as usize, words_per_row as usize, suf_stride as usize);
    let words = cr.take_words(rows_n * wpr)?;
    let sufs = cr.take_u32s(rows_n * ss)?;
    let item_offsets = cr.take_u32s(rows_n + 1)?;
    let item_data = cr.take_u32s(item_data_len as usize)?;
    let supports = cr.take_u32s(rows_n)?;

    let computed = cr.crc();
    let mut footer = [0u8; 4];
    cr.inner
        .read_exact(&mut footer)
        .map_err(SlabIoError::from)?;
    let stored = u32::from_le_bytes(footer);
    if stored != computed {
        return Err(SlabIoError::CrcMismatch { stored, computed });
    }

    // Structural validation the CRC cannot express: spans must tile the
    // item column and every row's items must be strictly ascending (the
    // interner and subset kernels rely on both).
    if item_offsets[0] != 0 || item_offsets[rows_n] as u64 != item_data_len {
        return Err(SlabIoError::Inconsistent(
            "item offsets do not span the item column".into(),
        ));
    }
    for r in 0..rows_n {
        let (lo, hi) = (item_offsets[r] as usize, item_offsets[r + 1] as usize);
        if lo > hi || hi > item_data.len() {
            return Err(SlabIoError::Inconsistent(format!(
                "row {r}: invalid item span"
            )));
        }
        if !item_data[lo..hi].windows(2).all(|w| w[0] < w[1]) {
            return Err(SlabIoError::Inconsistent(format!(
                "row {r}: items are not strictly ascending"
            )));
        }
    }

    Ok(PatternPool::from_raw_columns(
        universe as usize,
        words,
        sufs,
        item_offsets,
        item_data,
        supports,
    ))
}

/// [`write_slab`] to a freshly created file at `path` (buffered).
pub fn dump_slab_path(pool: &PatternPool, path: impl AsRef<Path>) -> Result<u64, SlabIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_slab(pool, &mut w)
}

/// [`write_slab_rows`] to a freshly created file at `path` (buffered).
pub fn dump_slab_rows_path(
    pool: &PatternPool,
    rows: &[u32],
    path: impl AsRef<Path>,
) -> Result<u64, SlabIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_slab_rows(pool, rows, &mut w)
}

/// [`read_slab`] from the file at `path` (buffered), cross-checking the
/// declared image size against the file length *before* any column buffer
/// is allocated — a corrupt header cannot trigger an outsized allocation,
/// and trailing garbage is rejected.
pub fn load_slab_path(path: impl AsRef<Path>) -> Result<PatternPool, SlabIoError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < PREAMBLE_BYTES + 4 {
        return Err(SlabIoError::Truncated);
    }
    let mut r = BufReader::new(file);
    // Peek the header through a bounded preamble read to learn the declared
    // size, then hand a fresh reader over preamble + remainder to the
    // generic path so its CRC still covers every byte.
    let mut preamble = vec![0u8; PREAMBLE_BYTES as usize];
    r.read_exact(&mut preamble)?;
    let declared = declared_total_bytes(&preamble)?;
    if file_len < declared {
        return Err(SlabIoError::Truncated);
    }
    if file_len > declared {
        return Err(SlabIoError::Inconsistent(format!(
            "file is {file_len} bytes but the header declares {declared}"
        )));
    }
    let mut chained = io::Read::chain(&preamble[..], r);
    read_slab(&mut chained)
}

/// Parses just enough of a preamble to compute the total image size the
/// header declares (validating magic/version/byte order on the way).
fn declared_total_bytes(preamble: &[u8]) -> Result<u64, SlabIoError> {
    let mut r = &preamble[..MAGIC.len()];
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(SlabIoError::BadMagic(magic));
    }
    let u32_at = |off: usize| u32::from_le_bytes(preamble[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(preamble[off..off + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != FORMAT_VERSION {
        return Err(SlabIoError::UnsupportedVersion(version));
    }
    if u32_at(12) != ENDIAN_TAG {
        return Err(SlabIoError::EndianMismatch);
    }
    let mut total = PREAMBLE_BYTES + 4;
    for i in 0..5 {
        total = total
            .checked_add(u64_at(56 + i * 8))
            .ok_or_else(|| SlabIoError::Inconsistent("section table overflows u64".into()))?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TidSet;
    use proptest::prelude::*;

    fn dump_bytes(pool: &PatternPool) -> Vec<u8> {
        let mut buf = Vec::new();
        let n = write_slab(pool, &mut buf).expect("dump");
        assert_eq!(n as usize, buf.len());
        buf
    }

    fn load_bytes(bytes: &[u8]) -> Result<PatternPool, SlabIoError> {
        read_slab(&mut &bytes[..])
    }

    fn sample_pool(universe: usize) -> PatternPool {
        let mut pool = PatternPool::new(universe);
        let step = (universe / 7).max(1);
        for r in 0..9usize {
            let items: Vec<u32> = (0..=(r as u32 % 3)).map(|i| r as u32 * 4 + i).collect();
            let tids: Vec<usize> = (0..universe).step_by(step + r % 3 + 1).collect();
            pool.push_tidset(&items, &TidSet::from_tids(universe, tids));
        }
        pool
    }

    #[test]
    fn public_crc32_matches_the_footer_checksum() {
        // The IEEE 802.3 check value for the canonical "123456789" vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Streaming over arbitrary splits equals the one-shot.
        let data = b"the CFPSLAB footer and the net frames share one CRC";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..30]);
        c.update(&data[30..]);
        assert_eq!(c.finish(), crc32(data));
        // And it is exactly what the slab footer stores: the last 4 bytes
        // of a dump are the CRC of everything before them.
        let bytes = dump_bytes(&sample_pool(64));
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        assert_eq!(u32::from_le_bytes(tail.try_into().unwrap()), crc32(body));
    }

    #[test]
    fn whole_slab_round_trips_bit_identically() {
        for universe in [1usize, 63, 64, 65, 130, 257, 1000] {
            let pool = sample_pool(universe);
            let loaded = load_bytes(&dump_bytes(&pool)).expect("load");
            assert_eq!(loaded, pool, "universe={universe}");
            // The kernel alignment contract holds on the loaded slab.
            assert_eq!(loaded.words().as_ptr() as usize % 32, 0);
        }
    }

    #[test]
    fn empty_pool_and_empty_universe_round_trip() {
        for universe in [0usize, 64, 100] {
            let pool = PatternPool::new(universe);
            let loaded = load_bytes(&dump_bytes(&pool)).expect("load");
            assert_eq!(loaded, pool, "universe={universe}");
        }
        // Rows over a zero-word universe (words_per_row == 0).
        let mut pool = PatternPool::new(0);
        pool.push_tidset(&[3], &TidSet::empty(0));
        let loaded = load_bytes(&dump_bytes(&pool)).expect("load");
        assert_eq!(loaded, pool);
    }

    #[test]
    fn row_subset_dump_equals_permuted_dump() {
        let pool = sample_pool(130);
        for rows in [vec![0u32, 3, 7], vec![8, 2, 2, 0], vec![], vec![4]] {
            let mut streamed = Vec::new();
            write_slab_rows(&pool, &rows, &mut streamed).expect("dump rows");
            let copied = dump_bytes(&pool.permuted(&rows));
            assert_eq!(streamed, copied, "rows={rows:?}");
            let loaded = load_bytes(&streamed).expect("load");
            assert_eq!(loaded, pool.permuted(&rows));
        }
    }

    #[test]
    fn path_round_trip_and_file_size_check() {
        let dir = std::env::temp_dir().join(format!("cfp-slab-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.slab");
        let pool = sample_pool(257);
        let written = dump_slab_path(&pool, &path).expect("dump");
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(load_slab_path(&path).expect("load"), pool);
        // Trailing garbage is rejected by the size cross-check.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_slab_path(&path),
            Err(SlabIoError::Inconsistent(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_wrong_version_and_endianness_are_typed_errors() {
        let good = dump_bytes(&sample_pool(64));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(load_bytes(&bad), Err(SlabIoError::BadMagic(_))));
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            load_bytes(&bad),
            Err(SlabIoError::UnsupportedVersion(99))
        ));
        let mut bad = good.clone();
        let tag = ENDIAN_TAG.swap_bytes();
        bad[12..16].copy_from_slice(&tag.to_le_bytes());
        assert!(matches!(load_bytes(&bad), Err(SlabIoError::EndianMismatch)));
    }

    #[test]
    fn truncation_at_every_prefix_is_clean() {
        let good = dump_bytes(&sample_pool(130));
        for cut in 0..good.len() {
            match load_bytes(&good[..cut]) {
                Err(SlabIoError::Truncated) => {}
                Err(other) => panic!("cut={cut}: unexpected error {other}"),
                Ok(_) => panic!("cut={cut}: truncated image loaded"),
            }
        }
        assert!(load_bytes(&good).is_ok());
    }

    #[test]
    fn flipped_section_bytes_fail_the_crc() {
        let good = dump_bytes(&sample_pool(130));
        // Flip one byte in each section region (past the preamble, before
        // the footer).
        let body = PREAMBLE_BYTES as usize..good.len() - 4;
        for at in [body.start, body.start + (body.len() / 2), body.end - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            match load_bytes(&bad) {
                Err(SlabIoError::CrcMismatch { .. }) | Err(SlabIoError::Inconsistent(_)) => {}
                Err(other) => panic!("at={at}: unexpected error {other}"),
                Ok(_) => panic!("at={at}: corrupted image loaded"),
            }
        }
    }

    #[test]
    fn inconsistent_headers_are_rejected() {
        let good = dump_bytes(&sample_pool(64));
        // words_per_row no longer matches the universe.
        let mut bad = good.clone();
        bad[24..32].copy_from_slice(&999u64.to_le_bytes());
        assert!(matches!(
            load_bytes(&bad),
            Err(SlabIoError::Inconsistent(_))
        ));
        // Section table contradicts the row count.
        let mut bad = good.clone();
        bad[56..64].copy_from_slice(&12u64.to_le_bytes());
        assert!(matches!(
            load_bytes(&bad),
            Err(SlabIoError::Inconsistent(_))
        ));
    }

    /// A header claiming `u32::MAX` rows over a `u32::MAX`-tid universe
    /// (2^61 tid bytes) sizes nothing up front: a stream of the header
    /// alone ends in a typed truncation, not an allocation failure.
    #[test]
    fn a_lying_row_count_allocates_only_what_arrives() {
        let big = u32::MAX as usize;
        let mut header = dump_bytes(&PatternPool::new(big))[..PREAMBLE_BYTES as usize].to_vec();
        header[40..48].copy_from_slice(&(big as u64).to_le_bytes());
        for (i, len) in Layout::new(big, big, 0).sections.iter().enumerate() {
            header[56 + i * 8..64 + i * 8].copy_from_slice(&len.to_le_bytes());
        }
        assert!(matches!(load_bytes(&header), Err(SlabIoError::Truncated)));
    }

    /// The byte-at-a-time reference loop the slice-by-8 update must match.
    fn crc32_update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Slice-by-8 equals the byte-at-a-time loop on random bytes, fed
        /// as streaming `update` calls split at random points.
        #[test]
        fn slice_by_8_matches_the_bytewise_crc(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                c.update(&bytes[at..cut]);
                at = cut;
            }
            let want = crc32_update_bytewise(0xFFFF_FFFF, &bytes) ^ 0xFFFF_FFFF;
            prop_assert_eq!(c.finish(), want);
            prop_assert_eq!(crc32(&bytes), want);
        }

        /// `load ∘ dump ≡ id` on random slabs, including ragged universes
        /// (not lane multiples) and empty pools.
        #[test]
        fn prop_dump_load_round_trip(
            universe in 0usize..400,
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..500, 0..6),
                    proptest::collection::vec(0usize..400, 0..12),
                ),
                0..12,
            ),
        ) {
            let mut pool = PatternPool::new(universe);
            for (mut items, mut tids) in rows {
                items.sort_unstable();
                items.dedup();
                tids.retain(|&t| t < universe);
                tids.sort_unstable();
                tids.dedup();
                pool.push_tidset(&items, &TidSet::from_tids(universe, tids));
            }
            let bytes = dump_bytes(&pool);
            let loaded = load_bytes(&bytes).expect("load");
            prop_assert_eq!(&loaded, &pool);
            prop_assert_eq!(loaded.words().as_ptr() as usize % 32, 0);
        }

        /// Every byte of the image is load-bearing: a single-bit flip
        /// anywhere is caught (structurally or by the CRC) and never
        /// panics the loader.
        #[test]
        fn prop_single_byte_flips_never_panic_and_never_load(
            at in 0usize..2048,
            bit in 0u8..8,
        ) {
            let pool = sample_pool(130);
            let good = dump_bytes(&pool);
            let at = at % good.len();
            let mut bad = good.clone();
            bad[at] ^= 1 << bit;
            prop_assert!(load_bytes(&bad).is_err(), "flip at {} loaded", at);
        }

        /// Random truncation points are always `Truncated`, never a panic.
        #[test]
        fn prop_random_truncation_is_clean(cut in 0usize..4096) {
            let good = dump_bytes(&sample_pool(257));
            let cut = cut % good.len();
            prop_assert!(matches!(load_bytes(&good[..cut]), Err(SlabIoError::Truncated)));
        }
    }
}
