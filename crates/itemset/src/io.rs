//! FIMI `.dat` dataset I/O.
//!
//! The FIMI workshop format (used by the original LCM/FPClose tools the paper
//! benchmarks against) is one transaction per line, items as space-separated
//! non-negative integers. Blank lines are skipped.

use crate::builder::DbBuilder;
use crate::database::TransactionDb;
use crate::error::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses a FIMI-format string into a database.
///
/// External item labels are preserved through the database's
/// [`crate::ItemMap`]; internal ids are assigned in first-seen order.
pub fn parse_fimi(text: &str) -> Result<TransactionDb> {
    read_fimi_from(text.as_bytes())
}

/// Reads a FIMI-format dataset from any reader.
pub fn read_fimi_from<R: Read>(reader: R) -> Result<TransactionDb> {
    let mut builder = DbBuilder::new();
    decode_fimi(reader, |labels| {
        builder.add_transaction(labels);
    })?;
    Ok(builder.build())
}

/// The one FIMI line decoder, behind both [`read_fimi_from`] and
/// [`crate::DbDelta::read_fimi_from`]: each line is trimmed, blank lines
/// are skipped, and every other line's ASCII-whitespace-separated labels
/// go to `transaction` through one reused buffer. A token that is not a
/// `u32` is an [`Error::Parse`] naming its 1-based line.
pub(crate) fn decode_fimi<R: Read>(reader: R, mut transaction: impl FnMut(&[u32])) -> Result<()> {
    let buf = BufReader::new(reader);
    let mut labels: Vec<u32> = Vec::new();
    for (line_no, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        labels.clear();
        for tok in trimmed.split_ascii_whitespace() {
            let label: u32 = tok.parse().map_err(|_| Error::Parse {
                line: line_no + 1,
                message: format!("'{tok}' is not a non-negative integer item id"),
            })?;
            labels.push(label);
        }
        transaction(&labels);
    }
    Ok(())
}

/// Reads a FIMI-format dataset from a file path.
pub fn read_fimi<P: AsRef<Path>>(path: P) -> Result<TransactionDb> {
    let file = std::fs::File::open(path)?;
    read_fimi_from(file)
}

/// Writes a database in FIMI format using **external** item labels, one
/// transaction per line, labels ascending.
pub fn write_fimi<W: Write>(db: &TransactionDb, writer: &mut W) -> Result<()> {
    let mut out = std::io::BufWriter::new(writer);
    for t in db.transactions() {
        let labels = db.item_map().externalize(t.items());
        let mut first = true;
        for label in labels {
            if first {
                first = false;
            } else {
                write!(out, " ")?;
            }
            write!(out, "{label}")?;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::Itemset;

    #[test]
    fn parse_simple_dataset() {
        let db = parse_fimi("1 2 5\n1 2\n\n2 5\n").unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.num_items(), 3);
        // External labels survive.
        let i1 = db.item_map().internal(1).unwrap();
        let i2 = db.item_map().internal(2).unwrap();
        assert_eq!(db.support(&Itemset::from_items(&[i1, i2])), 2);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = parse_fimi("1 2\n3 x 4\n").unwrap_err();
        match err {
            Error::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains('x'));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn round_trip_preserves_transactions() {
        let src = "10 20 30\n20 30\n10\n";
        let db = parse_fimi(src).unwrap();
        let mut out = Vec::new();
        write_fimi(&db, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), src);
    }

    #[test]
    fn duplicate_items_within_transaction_collapse() {
        let db = parse_fimi("5 5 5\n").unwrap();
        assert_eq!(db.transaction(0).len(), 1);
    }

    #[test]
    fn empty_input_builds_empty_db() {
        let db = parse_fimi("").unwrap();
        assert!(db.is_empty());
        assert_eq!(db.num_items(), 0);
    }

    mod properties {
        use super::*;
        use crate::DbDelta;
        use proptest::prelude::*;

        /// Text pieces for the shared-grammar property: labels, runs of
        /// spaces and tabs, line ends, a line ending in U+00A0 (trimmed
        /// away), and two tokens no reader accepts: "x" and a label past
        /// `u32` (adjacent pieces also glue labels into longer ones).
        const PIECES: [&str; 14] = [
            "1",
            "7",
            "42",
            "4294967295",
            " ",
            "   ",
            "\t",
            "\n",
            "\n",
            "\r\n",
            " \t\n",
            "\u{a0}\n",
            "x",
            "4294967296",
        ];

        proptest! {
            /// The base and delta readers are one grammar: a delta parsed
            /// from any text and appended to an empty database is the
            /// database parsed from that text, and a text one reader
            /// refuses the other refuses with the same message.
            #[test]
            fn base_and_delta_readers_share_one_grammar(
                pieces in proptest::collection::vec(0usize..PIECES.len(), 0..40)
            ) {
                let text: String = pieces.iter().map(|&p| PIECES[p]).collect();
                match (parse_fimi(&text), DbDelta::parse_fimi(&text)) {
                    (Ok(db), Ok(delta)) => {
                        let mut grown = parse_fimi("").unwrap();
                        grown.append_delta(&delta);
                        prop_assert_eq!(grown, db, "text {:?}", text);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => prop_assert!(
                        false,
                        "readers disagree on {:?}: {:?} vs {:?}",
                        text,
                        a.map(|_| ()),
                        b.map(|_| ())
                    ),
                }
            }

            /// Arbitrary databases survive write → parse with transaction
            /// multiset and per-item supports preserved (modulo the dense
            /// renumbering, compared through external labels).
            #[test]
            fn round_trip_preserves_external_view(
                txns in proptest::collection::vec(
                    proptest::collection::vec(0u32..40, 1..10),
                    1..20,
                )
            ) {
                let mut builder = crate::DbBuilder::new();
                for t in &txns {
                    builder.add_transaction(t);
                }
                let db = builder.build();
                let mut buf = Vec::new();
                write_fimi(&db, &mut buf).unwrap();
                let back = parse_fimi(std::str::from_utf8(&buf).unwrap()).unwrap();
                prop_assert_eq!(back.len(), db.len());
                // Externalized transactions match exactly, in order.
                for tid in 0..db.len() {
                    let a = db.item_map().externalize(db.transaction(tid).items());
                    let b = back.item_map().externalize(back.transaction(tid).items());
                    prop_assert_eq!(a, b, "transaction {}", tid);
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cfp_itemset_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.dat");
        let db = parse_fimi("7 8\n8 9\n").unwrap();
        let mut f = std::fs::File::create(&path).unwrap();
        write_fimi(&db, &mut f).unwrap();
        drop(f);
        let back = read_fimi(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.item_map()
                .internal(9)
                .map(|i| back.support(&Itemset::singleton(i))),
            Some(1)
        );
        std::fs::remove_file(&path).ok();
    }
}
