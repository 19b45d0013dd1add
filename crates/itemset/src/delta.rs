//! Transaction-append deltas (`DbDelta`).
//!
//! A [`DbDelta`] is a batch of transactions to append to an existing
//! [`TransactionDb`] — the interchange unit of the incremental mining path
//! (`cfp_core::delta`), the `cfp mine --append` CLI, and the `cfp serve`
//! `append` verb. Transactions carry **external** item labels, exactly as a
//! FIMI line would: applying a delta interns labels through the database's
//! existing [`crate::ItemMap`] in first-seen order, so appending a delta is
//! byte-equivalent to having parsed the base file and the delta file
//! concatenated. The full interchange spec lives with the other formats in
//! [`crate::store`]'s module docs.

use crate::database::TransactionDb;
use crate::error::Result;
use std::io::Read;
use std::ops::Range;
use std::path::Path;

/// A batch of transactions to append to a [`TransactionDb`].
///
/// Transactions are kept in arrival order with their raw external labels
/// (duplicates within a transaction are collapsed at apply time, matching
/// the FIMI parser). The batch is pure data — nothing happens until
/// [`TransactionDb::append_delta`] absorbs it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbDelta {
    transactions: Vec<Vec<u32>>,
}

impl DbDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch from pre-collected label lists.
    pub fn from_transactions(transactions: Vec<Vec<u32>>) -> Self {
        Self { transactions }
    }

    /// Appends one transaction given by external item labels.
    pub fn push(&mut self, labels: &[u32]) {
        self.transactions.push(labels.to_vec());
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The batched transactions, in arrival order (external labels).
    pub fn transactions(&self) -> &[Vec<u32>] {
        &self.transactions
    }

    /// Parses a FIMI-format string into a delta batch: one transaction per
    /// line, space-separated non-negative integer labels, blank lines
    /// skipped — the exact grammar of [`crate::parse_fimi`].
    pub fn parse_fimi(text: &str) -> Result<Self> {
        Self::read_fimi_from(text.as_bytes())
    }

    /// Reads a FIMI-format delta batch from any reader.
    pub fn read_fimi_from<R: Read>(reader: R) -> Result<Self> {
        let mut delta = Self::new();
        crate::io::decode_fimi(reader, |labels| delta.push(labels))?;
        Ok(delta)
    }

    /// Reads a FIMI-format delta batch from a file path.
    pub fn read_fimi<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Self::read_fimi_from(file)
    }
}

impl TransactionDb {
    /// Absorbs a delta batch: every transaction is interned through the
    /// existing item map (fresh labels get the next dense ids, in
    /// first-seen order) and appended with the next tids. Returns the
    /// appended tid range.
    ///
    /// The result is **identical** to rebuilding the database from the base
    /// transactions followed by the delta transactions — same tids, same
    /// internal ids, same item map — which is what makes incremental mining
    /// over an absorbed delta comparable bit-for-bit with a from-scratch
    /// run on the concatenated input.
    pub fn append_delta(&mut self, delta: &DbDelta) -> Range<usize> {
        let first = self.len();
        for labels in delta.transactions() {
            self.push_external(labels);
        }
        first..self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DbBuilder;

    #[test]
    fn append_matches_concatenated_build() {
        let mut base = DbBuilder::new();
        base.add_transaction(&[100, 7]);
        base.add_transaction(&[7, 3]);
        let mut db = base.build();

        let mut delta = DbDelta::new();
        delta.push(&[3, 42, 100]);
        delta.push(&[42]);
        let range = db.append_delta(&delta);
        assert_eq!(range, 2..4);

        let mut full = DbBuilder::new();
        full.add_transaction(&[100, 7]);
        full.add_transaction(&[7, 3]);
        full.add_transaction(&[3, 42, 100]);
        full.add_transaction(&[42]);
        assert_eq!(db, full.build());
    }

    #[test]
    fn fresh_labels_get_next_dense_ids() {
        let mut db = crate::parse_fimi("5 6\n6\n").unwrap();
        let mut delta = DbDelta::new();
        delta.push(&[9, 5]);
        db.append_delta(&delta);
        assert_eq!(db.num_items(), 3);
        assert_eq!(db.item_map().internal(9), Some(2));
        // Duplicates collapse like the FIMI parser's.
        let mut dup = DbDelta::new();
        dup.push(&[9, 9, 9]);
        db.append_delta(&dup);
        assert_eq!(db.transaction(3).len(), 1);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut db = crate::parse_fimi("1 2\n").unwrap();
        let before = db.clone();
        let range = db.append_delta(&DbDelta::new());
        assert!(range.is_empty());
        assert_eq!(db, before);
    }

    #[test]
    fn fimi_parse_round_trips_and_rejects_garbage() {
        let delta = DbDelta::parse_fimi("1 2 5\n\n2 5\n").unwrap();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.transactions()[0], vec![1, 2, 5]);
        assert!(DbDelta::parse_fimi("1 x\n").is_err());
    }

    #[test]
    fn parse_then_append_equals_concatenated_parse() {
        let base_text = "10 20\n20 30\n";
        let delta_text = "30 40\n10\n";
        let mut db = crate::parse_fimi(base_text).unwrap();
        let delta = DbDelta::parse_fimi(delta_text).unwrap();
        db.append_delta(&delta);
        let full = crate::parse_fimi(&format!("{base_text}{delta_text}")).unwrap();
        assert_eq!(db, full);
    }
}
