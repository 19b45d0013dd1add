//! The columnar pattern slab: one lane-aligned tid-set region shared by
//! every layer of the mining pipeline.
//!
//! Pattern-Fusion's cost model assumes the pool is the hot data structure,
//! yet a `Vec<Pattern>`-shaped pool scatters every support set behind its
//! own heap pointer and forces each downstream layer (ball index, shard
//! runner) to re-materialize the tid-sets in its own layout. A
//! [`PatternPool`] stores patterns **columnar and append-only** instead:
//!
//! * one shared [`AlignedWords`] tid region — row `r`'s support-set words at
//!   `r * words_per_row ..`, every row lane-aligned per the kernel layout
//!   contract ([`crate::kernels`]);
//! * a parallel suffix-table column ([`kernels::suffix_cards`]) computed
//!   once at append time, so every consumer of the bounded-Jaccard kernels
//!   (ball index arenas, shard scans) reuses it instead of re-deriving it
//!   per rebuild;
//! * itemset spans (offsets into one `u32` item column) and cached supports.
//!
//! Rows are addressed by dense `u32` ids that stay valid for the slab's
//! lifetime, so pools, shard sub-pools, archives, and index arenas are all
//! plain row-id lists over the same storage — no tid-set is ever copied
//! between layers.
//!
//! # On-disk slab format (`CFPSLAB`, version 1)
//!
//! Because the slab is already columnar POD, its persistent form
//! ([`crate::slab_io`]) is a direct image of the columns — dump streams
//! them, load reads them straight back into their final buffers:
//!
//! ```text
//! offset  size             field
//! ------  ---------------  ------------------------------------------
//!      0  8                magic "CFPSLAB\0"
//!      8  4                format version (u32, = 1)
//!     12  4                endianness tag (u32, = 0x0A0BC0DE)
//!     16  5 × 8            header: universe, words_per_row, suf_stride,
//!                          rows, item_data_len (u64 each)
//!     56  5 × 8            section table: byte length of each section
//!                          below, in order (u64 each)
//!     96  rows·wpr·8       section 1: tid words   (u64 column)
//!      …  rows·ss·4        section 2: suffix tables (u32 column)
//!      …  (rows+1)·4       section 3: item offsets  (u32 column)
//!      …  item_data_len·4  section 4: item data     (u32 column)
//!      …  rows·4           section 5: supports      (u32 column)
//!   last  4                CRC-32 (IEEE) over every preceding byte
//! ------  ---------------  ------------------------------------------
//! ```
//!
//! **Versioning**: the major format version is a hard gate — a reader
//! rejects any version it does not know (`SlabIoError::UnsupportedVersion`);
//! there are no minor/feature bits. **Endianness**: every field and every
//! column element is little-endian on disk, regardless of host order; the
//! tag at offset 12 is a fixed LE constant, so a byte-swapped file is
//! detected before any column is read. **Alignment**: the derived widths
//! (`words_per_row`, `suf_stride`) are *recomputed* from `universe` on load
//! and must match the header — so a loaded tid column always lands in a
//! fresh 32-byte-aligned, lane-padded [`AlignedWords`] buffer, and loaded
//! slabs satisfy the kernel layout contract ([`crate::kernels`]) verbatim.
//! **Integrity**: the trailing CRC covers header and sections; truncation,
//! bit-flips, and mismatched section tables each surface as a typed
//! [`crate::slab_io::SlabIoError`], never a panic.
//!
//! # The wire (protocol version 4)
//!
//! Two daemons speak one wire (`cfp_core::wire`): `cfp shard-host`, the
//! worker half of the process-based shard executors (`cfp_core::net`),
//! and `cfp serve`, the pattern query service (`cfp_core::serve`).
//!
//! **Frames.** Every byte travels in a frame:
//!
//! ```text
//! offset  size   field
//! ------  -----  --------------------------------------------------
//!      0  1      kind (u8)
//!      1  4      payload length (u32 LE, ≤ 8 MiB)
//!      5  len    payload
//!  5+len  4      CRC-32 (IEEE) over kind + length + payload (LE)
//! ------  -----  --------------------------------------------------
//! ```
//!
//! Frame kinds: `1` request, `2` slab chunk, `3` slab end, `4`
//! heartbeat, `5` stats record, `6` error, `7` bye. A short read, a bad
//! CRC, an unknown kind, or an over-cap length is a typed corrupt-frame
//! failure — never a panic, never a partial merge. A long payload (a slab
//! image, a serve reply) streams as chunk frames of up to 128 KiB closed
//! by a slab-end frame whose payload is the total byte count (u64 LE); a
//! heartbeat frame may precede any chunk, and an end-total mismatch or
//! trailing bytes are corrupt-frame failures.
//!
//! **Messages.** Every text payload — the worker request, the stats
//! record, the serve request and the head of a serve reply — is one
//! message: a handshake line `<magic> <version>` (magic `cfp-net`,
//! `cfp-stats` or `cfp-serve`; version `4`), then one `key=value` field
//! per line, the key non-empty and the value everything after the first
//! `=`. Decoding is strict, and each fault is its own typed error: a
//! payload that is not UTF-8, a bad handshake, another version, a line
//! that is not `key=value`, a missing, repeated or unknown key, and a
//! value that does not parse as its field's type. The version is read
//! before the handshake's word count, so a version-2 worker or version-3
//! query peer, whose handshakes carried more words, is told "protocol
//! version N not supported". Nothing is silently ignored or defaulted.
//!
//! **Error frames.** An error frame's payload is `exit=<code>` on the
//! first line and the failure text after it, unchanged since version 2.
//! A payload with no readable code decodes to its whole text, codeless.
//!
//! ## Worker messages
//!
//! CFPSLAB doubles as the shard interchange of the process-based shard
//! executors: a coordinator ships each shard's sub-pool to a
//! `cfp shard-host` worker and reads the shard's archive back, both as
//! CFPSLAB bytes in chunk frames. The protocol runs over two transports
//! with the same frames: **TCP** (the remote executor dials a
//! `cfp shard-host` listener, one connection per shard attempt) and
//! **pipes** (the subprocess executor spawns `<worker> shard-host --stdio
//! [--db FILE]` per shard and converses over the child's stdin and
//! stdout, which carries frames only).
//!
//! **Request** (a `cfp-net` message): `shard`, `shards` and `attempt`,
//! then the full per-shard fusion configuration, one field each — `k`,
//! `min_count`, `tau`, `pool_max_len`, `attempts_per_seed`,
//! `max_results_per_seed`, `max_iterations`, `max_ball_size`,
//! `closure_step`, `archive`, `parallel` (the three flags `true` /
//! `false`), `ball_pivots`, `seed`, and the optional `archive_cap` and
//! `threads`. `tau` is written as the shortest decimal that reads back to
//! the same `f64` bits. Every other field is required and no other is
//! allowed, so coordinator/host version skew cannot mine with a
//! half-applied configuration. `attempt` makes redelivery explicit: a
//! host treats every attempt as idempotent (same sub-pool → same answer).
//!
//! **Slab streaming**: the coordinator streams the shard's sub-pool — a
//! CFPSLAB image of the shard's rows in the parent's partition order —
//! as chunk frames. The host mines rows `0..rows` in slab order, so the
//! sub-pool's row order (not content hashing) carries the determinism
//! contract across the process boundary. After its stats frame the host
//! streams the archive slab back the same way, rows in its deterministic
//! output order; the coordinator re-interns them against its own base
//! slab, restoring row-id identity for the deterministic merge.
//!
//! **Stats record** (a `cfp-stats` message): `shard`, then one field per
//! counter — `pool_size`, `patterns`, `iterations`, `converged` (`true` /
//! `false`), `tombstoned`, `inserted`, `compactions`, `ball.pairs_total`,
//! `ball.cardinality_pruned`, `ball.pivot_pruned`, `ball.exact_checked`,
//! `ball.ball_members`, `ball.accepted_by_bound`, `ball.pivots_active`,
//! and `ball.pivot_prune_counts.<i>` for each pivot slot `i` (the
//! per-pivot totals). The coordinator parses strictly — a record for
//! another shard, a missing, repeated or unknown key, a `pool_size` that
//! does not match what was shipped, or an archive whose row count does
//! not match `patterns` is a typed failure, because per-shard counters
//! are part of the bit-identity gate, not best-effort telemetry.
//!
//! **Liveness**: while mining, the host emits a heartbeat frame at a
//! configurable cadence. Over TCP the coordinator arms `SO_RCVTIMEO` /
//! `SO_SNDTIMEO` per phase (connect, send, mine, receive), so a dead
//! peer surfaces as a typed per-phase timeout, never a hang. Over pipes
//! the coordinator bounds each child by one deadline from its spawn and
//! kills a child that outlives it, which ends the conversation.
//!
//! **Errors**: a worker's error frame carries exit code `2` (slab I/O)
//! or `3` (a malformed request, or a dataset problem — a closure request
//! to a host without a dataset, or one that fails to load). A `--stdio`
//! host then exits with that code (`1` for any failure that sent no
//! error frame). Over TCP the coordinator maps an error frame to a typed
//! remote-worker failure, retries the shard with deterministic backoff
//! on a rotated host, and — when retries are exhausted — either re-mines
//! the shard in-thread from its spilled slab or surfaces a typed network
//! failure naming the shard, the attempt count, and the last error. Over
//! pipes a failed conversation is a typed worker failure carrying the
//! shard index, the child's exit status, and its captured stderr, with an
//! opt-in in-process re-mine from the spilled slab.
//!
//! ## Query messages
//!
//! The pattern query daemon (long-lived clients ↔ a `cfp serve`
//! process) carries text in the same frames. One connection carries
//! many requests, strictly request-reply; concurrent connections each
//! get their own thread.
//!
//! **Request** (a `cfp-serve` message): a `verb` field, then the verb's
//! own fields. An unknown verb, or a field the verb does not admit, is a
//! typed request error like any other. Verbs and their admitted fields:
//!
//! ```text
//! verb     fields                      answer
//! -------  --------------------------  --------------------------------
//! topk     k, tids, session            first k patterns of the ranking
//! lookup   items, session              exact-itemset support lookup
//! contain  items, limit, session       ranked patterns containing items
//! similar  tids                        metric ball around the tid-set
//! put      session, items, tids        intern into the session overlay
//! stats    —                           server counters
//! reload   seed, wait                  background re-mine + epoch swap
//! append   txns, wait                  absorb transactions + epoch swap
//! bye      —                           close the connection
//! ```
//!
//! **Reply**: streamed as chunk frames closed by a slab-end frame. The
//! payload is a `cfp-serve` message head — `verb` and `epoch` — then an
//! empty line, then the body lines (`count=…`, `pattern items=…
//! support=… [tids=…]`, `found=0|1`, `row=… fresh=…`, `waited=1` /
//! `scheduled=1`, and `key=value` stats lines). `epoch` names the
//! immutable generation snapshot (slab + ranking + ball index) that
//! answered: `reload` re-mines on a background builder and swaps the
//! generation atomically, so two replies stamped with the same epoch are
//! byte-identical and a reader never blocks on, or observes, a build in
//! progress.
//!
//! **Sessions**: a `session=<name>` field routes the request through
//! that tenant's private interning overlay (a fork of the shared
//! generation's slab); `put` patterns are visible only to their own
//! session and are re-interned across epoch swaps, so tenant state
//! survives a reload — and an append, which widens their tid-sets to the
//! grown universe — without leaking between tenants.
//!
//! **Errors**: a query error frame carries exit code `3` (the request
//! was at fault) or `2` (the server failed). A request-level fault
//! (another version, unknown verb, bad field, out-of-universe tid) keeps
//! the connection alive for the next request; a transport-level fault
//! (bad CRC, oversize length, truncation) is answered with an error
//! frame and the connection is closed. The `bye` verb — or a bare bye
//! frame — closes cleanly.
//!
//! # `DbDelta` interchange and append semantics
//!
//! The incremental mining path (`cfp_core::delta`, `cfp mine --append`,
//! and the serve `append` verb) moves transaction appends around as a
//! [`crate::DbDelta`]: an ordered batch of transactions carrying
//! **external** item labels. The interchange forms:
//!
//! * **File / string**: FIMI `.dat` grammar, identical to the base dataset
//!   format — one transaction per line, space-separated non-negative
//!   integer labels, blank lines skipped, any other token a parse error
//!   with a 1-based line number ([`crate::DbDelta::read_fimi`]).
//! * **Serve `append` verb**: a `txns=` field holding the batch as
//!   `;`-separated transactions of `,`-separated labels (e.g.
//!   `txns=1,2,5;2,5` is the two-line file `1 2 5` / `2 5`; an empty
//!   segment is a typed request error). The optional `wait=1` blocks until
//!   the re-mined generation is swapped in and stamps the reply with its
//!   epoch, exactly like `reload`.
//!
//! **Append semantics** ([`crate::TransactionDb::append_delta`]): the
//! batch's transactions get the next tids in batch order; labels are
//! interned through the database's existing [`crate::ItemMap`], so a label
//! already seen keeps its internal id and fresh labels extend the dense id
//! space in first-seen order; duplicate labels within one transaction
//! collapse. The grown database is therefore **equal** — item map, ids,
//! tids, everything — to one parsed from the base file and the delta file
//! concatenated, which is the ground truth the incremental engine's
//! bit-identity contract is stated against: mining incrementally after
//! `append_delta` must produce byte-for-byte the archive a from-scratch
//! re-mine of the concatenated input produces. Universe growth is
//! append-only (tids never renumber, items never change id), which is what
//! lets tid columns widen in place ([`crate::TidSet::grow_universe`]) and
//! untouched slab rows splice forward zero-extended
//! ([`PatternPool::splice_rows`]) instead of rebuilding.
//!
//! # Ownership and freezing contract
//!
//! The slab is **append-only**: a row, once pushed, is frozen — its words,
//! items, and support never change, and its id never moves. Appending may
//! reallocate the backing buffers, so borrowed row *slices* must not be held
//! across an append; row *ids* may. Exactly one owner may append at a time
//! (the engine appends only between parallel phases); concurrent readers
//! share the slab freely through `&PatternPool` (or `Arc<PatternPool>` for
//! a frozen base slab shared across shard workers).

use crate::aligned::AlignedWords;
use crate::kernels;
use crate::{Item, Itemset, TidSet};

const BITS: usize = 64;

/// A columnar, append-only slab of patterns: lane-aligned tid-set rows,
/// suffix tables, itemset spans, and cached supports. See the module docs
/// for the layout and the ownership contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternPool {
    universe: usize,
    words_per_row: usize,
    suf_stride: usize,
    /// Tid-set words, `words_per_row` per row, 32-byte-aligned rows.
    words: AlignedWords,
    /// Suffix-popcount tables, `suf_stride` entries per row.
    sufs: Vec<u32>,
    /// Itemset span starts into `item_data`; `len() + 1` entries.
    item_offsets: Vec<u32>,
    /// Concatenated itemset items (each span sorted ascending).
    item_data: Vec<Item>,
    /// Cached supports (`|D(α)|`), one per row.
    supports: Vec<u32>,
}

/// Tid-words per row for a transaction universe: the tid-set block count,
/// zero-padded to whole SIMD lanes (matches [`TidSet::blocks`]'s length).
pub fn words_per_row_for(universe: usize) -> usize {
    universe.div_ceil(BITS).div_ceil(crate::aligned::LANE_WORDS) * crate::aligned::LANE_WORDS
}

impl PatternPool {
    /// An empty slab over `universe` transactions.
    pub fn new(universe: usize) -> Self {
        let words_per_row = words_per_row_for(universe);
        Self {
            universe,
            words_per_row,
            suf_stride: words_per_row.div_ceil(kernels::SUFFIX_STRIDE) + 1,
            words: AlignedWords::default(),
            sufs: Vec::new(),
            item_offsets: vec![0],
            item_data: Vec::new(),
            supports: Vec::new(),
        }
    }

    /// [`PatternPool::new`] with row capacity reserved up front.
    pub fn with_capacity(universe: usize, rows: usize) -> Self {
        let mut pool = Self::new(universe);
        pool.reserve(rows);
        pool
    }

    /// Reserves capacity for `rows` additional rows.
    pub fn reserve(&mut self, rows: usize) {
        self.words = {
            let mut w = AlignedWords::with_capacity((self.len() + rows) * self.words_per_row);
            w.extend_from_slice(&self.words);
            w
        };
        self.sufs.reserve(rows * self.suf_stride);
        self.item_offsets.reserve(rows);
        self.supports.reserve(rows);
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// Whether the slab holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// The transaction universe every row's tid-set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Words per tid-set row (a lane multiple; see [`words_per_row_for`]).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Suffix-table entries per row.
    #[inline]
    pub fn suf_stride(&self) -> usize {
        self.suf_stride
    }

    /// The whole tid region — the slab the batched kernels stream. Row `r`
    /// occupies `r * words_per_row() ..`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The whole suffix-table column (same row indexing as [`Self::words`]).
    #[inline]
    pub fn sufs(&self) -> &[u32] {
        &self.sufs
    }

    /// Cached supports, indexed by row — the gather key the batched Jaccard
    /// kernels take alongside [`Self::words`].
    #[inline]
    pub fn supports(&self) -> &[u32] {
        &self.supports
    }

    /// Itemset span starts into [`Self::item_data`]; `len() + 1` entries
    /// (row `r` spans `item_offsets[r]..item_offsets[r + 1]`).
    #[inline]
    pub fn item_offsets(&self) -> &[u32] {
        &self.item_offsets
    }

    /// The concatenated item column (each row's span sorted ascending).
    #[inline]
    pub fn item_data(&self) -> &[Item] {
        &self.item_data
    }

    /// Assembles a slab directly from validated whole columns — the
    /// zero-copy load path ([`crate::slab_io`]) hands buffers it filled from
    /// disk straight to the pool without re-pushing rows.
    ///
    /// The caller must have verified the structural invariants (widths
    /// derived from `universe`, offsets monotonic and spanning `item_data`,
    /// column lengths consistent with the row count); this constructor only
    /// re-derives the geometry.
    pub(crate) fn from_raw_columns(
        universe: usize,
        words: AlignedWords,
        sufs: Vec<u32>,
        item_offsets: Vec<u32>,
        item_data: Vec<Item>,
        supports: Vec<u32>,
    ) -> Self {
        let words_per_row = words_per_row_for(universe);
        Self {
            universe,
            words_per_row,
            suf_stride: words_per_row.div_ceil(kernels::SUFFIX_STRIDE) + 1,
            words,
            sufs,
            item_offsets,
            item_data,
            supports,
        }
    }

    /// Tid-set words of row `row`.
    #[inline]
    pub fn tid_words(&self, row: u32) -> &[u64] {
        let w = self.words_per_row;
        &self.words[row as usize * w..(row as usize + 1) * w]
    }

    /// Suffix table of row `row`.
    #[inline]
    pub fn row_sufs(&self, row: u32) -> &[u32] {
        let s = self.suf_stride;
        &self.sufs[row as usize * s..(row as usize + 1) * s]
    }

    /// Itemset items of row `row`, sorted ascending.
    #[inline]
    pub fn items(&self, row: u32) -> &[Item] {
        let (lo, hi) = (
            self.item_offsets[row as usize] as usize,
            self.item_offsets[row as usize + 1] as usize,
        );
        &self.item_data[lo..hi]
    }

    /// Cached support `|D(α)|` of row `row`.
    #[inline]
    pub fn support(&self, row: u32) -> usize {
        self.supports[row as usize] as usize
    }

    /// Materializes row `row`'s itemset (owned).
    pub fn itemset(&self, row: u32) -> Itemset {
        Itemset::from_sorted(self.items(row).to_vec())
    }

    /// Materializes row `row`'s support set (owned).
    pub fn tidset(&self, row: u32) -> TidSet {
        TidSet::from_words(self.universe, self.tid_words(row), self.support(row))
    }

    /// Appends a row from raw parts: `items` sorted ascending, `blocks`
    /// exactly [`Self::words_per_row`] tid words whose popcount is `count`.
    /// Returns the new row id.
    pub fn push(&mut self, items: &[Item], blocks: &[u64], count: usize) -> u32 {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "row items must be strictly ascending"
        );
        debug_assert_eq!(blocks.len(), self.words_per_row, "row width mismatch");
        debug_assert_eq!(
            blocks
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>(),
            count,
            "cached support out of sync with blocks"
        );
        let row = self.len() as u32;
        self.words.extend_from_slice(blocks);
        kernels::suffix_cards_into(blocks, &mut self.sufs);
        self.item_data.extend_from_slice(items);
        self.item_offsets.push(self.item_data.len() as u32);
        self.supports.push(count as u32);
        row
    }

    /// Appends a row from an itemset slice and a counted tid-set.
    pub fn push_tidset(&mut self, items: &[Item], tids: &TidSet) -> u32 {
        debug_assert_eq!(tids.universe(), self.universe, "mixed universes");
        self.push(items, tids.blocks(), tids.count())
    }

    /// Splices every row of `other` onto the end of `self`, preserving row
    /// order — the deterministic merge step for per-worker slab segments.
    ///
    /// # Panics
    /// Panics when the universes differ.
    pub fn append_pool(&mut self, other: &PatternPool) {
        assert_eq!(self.universe, other.universe, "mixed universes");
        self.words.extend_from_slice(&other.words);
        self.sufs.extend_from_slice(&other.sufs);
        let base = self.item_data.len() as u32;
        self.item_data.extend_from_slice(&other.item_data);
        self.item_offsets
            .extend(other.item_offsets[1..].iter().map(|&o| base + o));
        self.supports.extend_from_slice(&other.supports);
    }

    /// Splices a contiguous row range of `src` onto the end of `self`,
    /// preserving row order — the incremental miner's bulk-copy step for
    /// subtrees a delta did not touch.
    ///
    /// Unlike [`PatternPool::append_pool`] the source may range over a
    /// *smaller* (earlier-generation) transaction universe: appended
    /// transactions only ever add high tids, so an untouched row's tid-set
    /// is the same bit pattern zero-extended. When both pools share a padded
    /// row width (universe growth within the current lane padding — the
    /// common small-append case) the tid words and suffix tables are copied
    /// column-wise in bulk; when `self` is wider each row is re-laid-out
    /// through a zero-padded scratch row and its suffix table recomputed.
    ///
    /// # Panics
    /// Panics when `self`'s universe (or padded row width) is smaller than
    /// `src`'s — splicing never drops tid bits.
    pub fn splice_rows(&mut self, src: &PatternPool, rows: std::ops::Range<usize>) {
        assert!(
            self.universe >= src.universe && self.words_per_row >= src.words_per_row,
            "splice target must cover the source universe ({} < {})",
            self.universe,
            src.universe
        );
        if self.words_per_row == src.words_per_row {
            // Same padded width: identical geometry (suf_stride is derived
            // from it), so every column extends by a contiguous slice.
            let w = self.words_per_row;
            self.words
                .extend_from_slice(&src.words[rows.start * w..rows.end * w]);
            let s = self.suf_stride;
            self.sufs
                .extend_from_slice(&src.sufs[rows.start * s..rows.end * s]);
            let base = self.item_data.len() as u32;
            let start_off = src.item_offsets[rows.start];
            let (ilo, ihi) = (start_off as usize, src.item_offsets[rows.end] as usize);
            self.item_data.extend_from_slice(&src.item_data[ilo..ihi]);
            self.item_offsets.extend(
                src.item_offsets[rows.start + 1..=rows.end]
                    .iter()
                    .map(|&o| base + (o - start_off)),
            );
            self.supports.extend_from_slice(&src.supports[rows.clone()]);
        } else {
            let mut scratch = vec![0u64; self.words_per_row];
            for row in rows {
                let row = row as u32;
                let tid = src.tid_words(row);
                scratch[..tid.len()].copy_from_slice(tid);
                self.push(src.items(row), &scratch, src.support(row));
            }
        }
    }

    /// Row ids in the stratified `(support asc, itemset)` rank — the order
    /// the sharded engine consumes.
    pub fn stratified_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.supports[a as usize]
                .cmp(&self.supports[b as usize])
                .then_with(|| self.items(a).cmp(self.items(b)))
        });
        order
    }

    /// A new slab holding `order`'s rows in `order`'s sequence.
    pub fn permuted(&self, order: &[u32]) -> PatternPool {
        let mut out = PatternPool::with_capacity(self.universe, order.len());
        for &row in order {
            out.push(self.items(row), self.tid_words(row), self.support(row));
        }
        out
    }

    /// Bytes held by the tid region (the dominant column).
    pub fn tid_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Approximate resident bytes across all columns.
    pub fn resident_bytes(&self) -> usize {
        self.tid_bytes()
            + self.sufs.len() * 4
            + self.item_data.len() * 4
            + self.item_offsets.len() * 4
            + self.supports.len() * 4
    }
}

/// Whether sorted slice `sub` is a subset of sorted slice `sup`. The slice
/// form of [`Itemset::is_subset_of`], with the same merge/binary-search
/// dispatch (fusion constantly asks whether a 2–3 item pool pattern sits
/// inside a fused pattern of hundreds of items).
pub fn sorted_subset(sub: &[Item], sup: &[Item]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    if sub.len() * 8 < sup.len() {
        return sub.iter().all(|x| sup.binary_search(x).is_ok());
    }
    let mut it = sup.iter();
    'outer: for &x in sub {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// FxHash-style fold over a sorted item slice — the row-interning hash.
/// Collisions are handled exactly by the callers (equal-hash candidates are
/// verified by item equality), so only speed depends on hash quality.
fn items_hash(items: &[Item]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0u64;
    for &item in items {
        h = (h.rotate_left(5) ^ item as u64).wrapping_mul(SEED);
    }
    h ^ (h >> 32)
}

/// Growable open-addressed itemset→row table with linear probing: the slab's
/// interner. Slots hold bare `u32` row ids; the table never owns item data —
/// every operation takes an `at` resolver mapping a stored row id back to
/// its sorted item slice. Grows by doubling at 50% load, so unlike the
/// fixed-capacity delta table it can track an append-only slab across a
/// whole run.
#[derive(Debug, Clone, Default)]
pub struct RowTable {
    mask: usize,
    len: usize,
    slots: Vec<u32>,
}

impl RowTable {
    const EMPTY: u32 = u32::MAX;

    /// A table sized for `n` insertions at ≤ 50% load.
    pub fn with_capacity(n: usize) -> Self {
        let mask = (n * 2).next_power_of_two().max(4) - 1;
        Self {
            mask,
            len: 0,
            slots: vec![Self::EMPTY; mask + 1],
        }
    }

    /// A table pre-populated with every row of `pool` (first occurrence of
    /// each itemset wins, matching pool dedup semantics).
    pub fn build(pool: &PatternPool) -> Self {
        let mut table = Self::with_capacity(pool.len());
        for row in 0..pool.len() as u32 {
            table.insert_or_get(pool.items(row), row, |r| pool.items(r));
        }
        table
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks `items` up among the inserted entries; when absent, inserts
    /// `row` and returns `None`, otherwise returns the existing row id.
    pub fn insert_or_get<'a>(
        &mut self,
        items: &[Item],
        row: u32,
        at: impl Fn(u32) -> &'a [Item],
    ) -> Option<u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow(&at);
        }
        let mut s = items_hash(items) as usize & self.mask;
        loop {
            let si = self.slots[s];
            if si == Self::EMPTY {
                self.slots[s] = row;
                self.len += 1;
                return None;
            }
            if at(si) == items {
                return Some(si);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Looks `items` up without inserting.
    pub fn get<'a>(&self, items: &[Item], at: impl Fn(u32) -> &'a [Item]) -> Option<u32> {
        // A default-constructed table has no slots until the first insert
        // grows it — nothing can be stored, so nothing can match.
        if self.slots.is_empty() {
            return None;
        }
        let mut s = items_hash(items) as usize & self.mask;
        loop {
            let si = self.slots[s];
            if si == Self::EMPTY {
                return None;
            }
            if at(si) == items {
                return Some(si);
            }
            s = (s + 1) & self.mask;
        }
    }

    fn grow<'a>(&mut self, at: &impl Fn(u32) -> &'a [Item]) {
        let mask = ((self.slots.len()) * 2).max(8) - 1;
        let mut slots = vec![Self::EMPTY; mask + 1];
        for &si in self.slots.iter().filter(|&&si| si != Self::EMPTY) {
            let mut s = items_hash(at(si)) as usize & mask;
            while slots[s] != Self::EMPTY {
                s = (s + 1) & mask;
            }
            slots[s] = si;
        }
        self.mask = mask;
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(universe: usize, rows: &[(&[Item], &[usize])]) -> PatternPool {
        let mut pool = PatternPool::new(universe);
        for (items, tids) in rows {
            let t = TidSet::from_tids(universe, tids.iter().copied());
            pool.push_tidset(items, &t);
        }
        pool
    }

    #[test]
    fn rows_round_trip() {
        let pool = pool_with(
            130,
            &[(&[1, 3], &[0, 64, 129]), (&[2], &[5]), (&[0, 1, 2], &[])],
        );
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.items(0), &[1, 3]);
        assert_eq!(pool.support(0), 3);
        assert_eq!(pool.tidset(0).to_vec(), vec![0, 64, 129]);
        assert_eq!(pool.itemset(2), Itemset::from_items(&[0, 1, 2]));
        assert_eq!(pool.support(2), 0);
        // Row width honors the lane-padding contract.
        assert_eq!(pool.words_per_row(), words_per_row_for(130));
        assert_eq!(pool.words_per_row() % crate::aligned::LANE_WORDS, 0);
        assert_eq!(pool.tid_words(1).len(), pool.words_per_row());
        // Suffix tables match the kernel helper.
        assert_eq!(
            pool.row_sufs(0),
            &kernels::suffix_cards(pool.tid_words(0))[..]
        );
    }

    #[test]
    fn words_match_tidset_blocks() {
        for universe in [0usize, 1, 63, 64, 65, 256, 1000] {
            assert_eq!(
                words_per_row_for(universe),
                TidSet::empty(universe).blocks().len(),
                "universe {universe}"
            );
        }
    }

    #[test]
    fn append_pool_splices_in_order() {
        let a = pool_with(64, &[(&[1], &[0, 1]), (&[2], &[2])]);
        let b = pool_with(64, &[(&[3, 4], &[1, 3]), (&[5], &[])]);
        let mut spliced = a.clone();
        spliced.append_pool(&b);
        assert_eq!(spliced.len(), 4);
        for (row, want) in [(0, &a), (1, &a)] {
            assert_eq!(spliced.items(row), want.items(row));
            assert_eq!(spliced.tid_words(row), want.tid_words(row));
        }
        assert_eq!(spliced.items(2), b.items(0));
        assert_eq!(spliced.tid_words(3), b.tid_words(1));
        assert_eq!(spliced.row_sufs(2), b.row_sufs(0));
        assert_eq!(spliced.support(2), 2);
    }

    #[test]
    fn splice_rows_same_width_and_wider() {
        let src = pool_with(
            100,
            &[
                (&[1], &[0, 64, 99]),
                (&[2, 3], &[5]),
                (&[4], &[]),
                (&[5, 6, 7], &[1, 2]),
            ],
        );
        // Same padded width: universes 100 and 200 both round to 4 words.
        let mut same = PatternPool::new(200);
        assert_eq!(same.words_per_row(), src.words_per_row());
        same.splice_rows(&src, 1..3);
        same.splice_rows(&src, 3..4);
        // Wider target: 100 → 300 crosses the 256-tid lane boundary.
        let mut wide = PatternPool::new(300);
        assert!(wide.words_per_row() > src.words_per_row());
        wide.splice_rows(&src, 1..3);
        wide.splice_rows(&src, 3..4);
        // Both must equal pushing the same rows by hand.
        for (got, universe) in [(&same, 200), (&wide, 300)] {
            let mut want = PatternPool::new(universe);
            for row in 1..4u32 {
                let mut t = TidSet::from_words(100, src.tid_words(row), src.support(row));
                t.grow_universe(universe);
                want.push_tidset(src.items(row), &t);
            }
            assert_eq!(got, &want, "universe {universe}");
            // Suffix tables stay consistent with the kernel helper.
            for row in 0..got.len() as u32 {
                assert_eq!(
                    got.row_sufs(row),
                    &kernels::suffix_cards(got.tid_words(row))[..]
                );
            }
        }
        // Empty and full ranges degrade gracefully.
        let mut all = PatternPool::new(100);
        all.splice_rows(&src, 0..0);
        assert!(all.is_empty());
        all.splice_rows(&src, 0..src.len());
        assert_eq!(all, src);
    }

    #[test]
    fn stratified_order_and_permuted() {
        let pool = pool_with(
            64,
            &[
                (&[5], &[0, 1, 2]),
                (&[1], &[0]),
                (&[2], &[0]),
                (&[0, 9], &[1, 2]),
            ],
        );
        let order = pool.stratified_order();
        // (support, itemset): (1,(1)) < (1,(2)) < (2,(0 9)) < (3,(5)).
        assert_eq!(order, vec![1, 2, 3, 0]);
        let sorted = pool.permuted(&order);
        assert_eq!(sorted.items(0), &[1]);
        assert_eq!(sorted.items(3), &[5]);
        assert_eq!(sorted.tidset(2).to_vec(), vec![1, 2]);
    }

    #[test]
    fn sorted_subset_matches_itemset() {
        let cases: &[(&[Item], &[Item])] = &[
            (&[], &[1, 2]),
            (&[1], &[1, 2]),
            (&[1, 2], &[1, 2]),
            (&[1, 3], &[1, 2]),
            (
                &[2],
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
            ),
            (
                &[0],
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
            ),
        ];
        for &(sub, sup) in cases {
            assert_eq!(
                sorted_subset(sub, sup),
                Itemset::from_items(sub).is_subset_of(&Itemset::from_items(sup)),
                "{sub:?} ⊆ {sup:?}"
            );
        }
    }

    #[test]
    fn row_table_interns_and_grows() {
        let mut pool = PatternPool::new(32);
        let mut table = RowTable::with_capacity(2);
        // Push 100 distinct rows through the interner; duplicates resolve.
        for i in 0..100u32 {
            let items = [i, i + 200];
            let t = TidSet::from_tids(32, [i as usize % 32]);
            let row = pool.len() as u32;
            let existing = table.insert_or_get(&items, row, |r| pool.items(r));
            assert_eq!(existing, None, "i={i}");
            pool.push_tidset(&items, &t);
        }
        assert_eq!(table.len(), 100);
        for i in 0..100u32 {
            let items = [i, i + 200];
            assert_eq!(table.get(&items, |r| pool.items(r)), Some(i));
            assert_eq!(table.insert_or_get(&items, 999, |r| pool.items(r)), Some(i));
        }
        assert_eq!(table.get(&[7], |r| pool.items(r)), None);
    }

    #[test]
    fn default_row_table_misses_without_panicking() {
        // Regression: a default-constructed table has no slots until the
        // first insert grows it; `get` must miss, not index into nothing.
        let pool = pool_with(32, &[(&[1], &[0])]);
        let table = RowTable::default();
        assert_eq!(table.get(&[1], |r| pool.items(r)), None);
        assert!(table.is_empty());
        let mut table = table;
        assert_eq!(table.insert_or_get(&[1], 0, |r| pool.items(r)), None);
        assert_eq!(table.get(&[1], |r| pool.items(r)), Some(0));
    }

    #[test]
    fn row_table_build_covers_pool() {
        let pool = pool_with(64, &[(&[1], &[0]), (&[2, 3], &[1]), (&[4], &[2])]);
        let table = RowTable::build(&pool);
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(&[2, 3], |r| pool.items(r)), Some(1));
    }

    #[test]
    fn empty_universe_slab() {
        let mut pool = PatternPool::new(0);
        assert_eq!(pool.words_per_row(), 0);
        let t = TidSet::empty(0);
        let r = pool.push_tidset(&[3], &t);
        assert_eq!(pool.support(r), 0);
        assert_eq!(pool.tid_words(r), &[] as &[u64]);
        assert_eq!(pool.row_sufs(r).len(), pool.suf_stride());
    }
}
