//! Output checks: what makes a mine or a request count as failed.
//!
//! A result is compared in *canonical* form — each pattern as its sorted
//! external item labels plus its tid list, in result order — so results
//! from the engine, from the traced replica and from the serve protocol
//! compare and digest alike.

use cfp_core::Pattern;
use cfp_itemset::{Itemset, TransactionDb, VerticalIndex};

/// One pattern in canonical form: sorted external labels, ascending tids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonPattern {
    /// Item labels as the FIMI input spells them, ascending.
    pub labels: Vec<u32>,
    /// The pattern's support set, ascending.
    pub tids: Vec<u32>,
}

/// FNV-1a, 64 bit: the digest of inputs and results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs one little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed `u32` list.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Canonical form of engine patterns over `db`.
pub fn canon(db: &TransactionDb, patterns: &[Pattern]) -> Vec<CanonPattern> {
    patterns
        .iter()
        .map(|p| {
            let mut labels = db.item_map().externalize(p.items.items());
            labels.sort_unstable();
            CanonPattern {
                labels,
                tids: p.tids.iter().map(|t| t as u32).collect(),
            }
        })
        .collect()
}

/// Digest of a canonical result, order included.
pub fn digest(result: &[CanonPattern]) -> u64 {
    let mut h = Fnv::new();
    h.u32(result.len() as u32);
    for p in result {
        h.u32s(&p.labels);
        h.u32s(&p.tids);
    }
    h.finish()
}

/// The semantic checks every mined result must pass: each pattern's tids
/// are exactly the vertical intersection of its items, and its support is
/// at least `min_count`.
pub fn verify(
    vindex: &VerticalIndex,
    patterns: &[Pattern],
    min_count: usize,
) -> Result<(), String> {
    for p in patterns {
        if p.tids != vindex.tidset(&p.items) {
            return Err(format!(
                "pattern of {} items: tids differ from the intersection of its items",
                p.items.len()
            ));
        }
        if p.support() < min_count {
            return Err(format!(
                "pattern of {} items has support {} < {min_count}",
                p.items.len(),
                p.support()
            ));
        }
    }
    Ok(())
}

/// Judges one batch mine: the semantic checks, then agreement with the
/// expected canonical result.
pub fn judge_mine(
    db: &TransactionDb,
    vindex: &VerticalIndex,
    patterns: &[Pattern],
    min_count: usize,
    expected: &[CanonPattern],
) -> Result<(), String> {
    verify(vindex, patterns, min_count)?;
    if canon(db, patterns) != expected {
        return Err("result differs from the expected result".into());
    }
    Ok(())
}

/// Share of `planted` itemsets found exactly among `result`'s patterns.
pub fn recall(planted: &[Vec<u32>], result: &[CanonPattern]) -> f64 {
    if planted.is_empty() {
        return 1.0;
    }
    let found = planted
        .iter()
        .filter(|p| result.iter().any(|r| &r.labels == *p))
        .count();
    found as f64 / planted.len() as f64
}

/// One `pattern items=… support=…[ tids=…]` line of a serve reply, in
/// the daemon's internal item ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyPattern {
    /// Internal item ids, as the daemon prints them.
    pub items: Vec<u32>,
    /// Reported support.
    pub support: usize,
    /// Tids, when the request asked for them.
    pub tids: Vec<u32>,
}

/// Parses a serve reply's pattern line.
pub fn parse_pattern_line(line: &str) -> Result<ReplyPattern, String> {
    let bad = || format!("malformed pattern line '{line}'");
    let list = |v: &str| -> Result<Vec<u32>, String> {
        v.split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().map_err(|_| bad()))
            .collect()
    };
    let mut p = ReplyPattern {
        items: Vec::new(),
        support: 0,
        tids: Vec::new(),
    };
    for tok in line.strip_prefix("pattern ").ok_or_else(bad)?.split(' ') {
        let (k, v) = tok.split_once('=').ok_or_else(bad)?;
        match k {
            "items" => p.items = list(v)?,
            "support" => p.support = v.parse().map_err(|_| bad())?,
            "tids" => p.tids = list(v)?,
            _ => return Err(bad()),
        }
    }
    if p.items.is_empty() {
        return Err(bad());
    }
    Ok(p)
}

/// Canonical form of served patterns over `db` (the daemon's database:
/// same FIMI parse, same appends).
pub fn canon_reply(
    db: &TransactionDb,
    patterns: &[ReplyPattern],
) -> Result<Vec<CanonPattern>, String> {
    patterns
        .iter()
        .map(|p| {
            if p.items.iter().any(|&i| i >= db.num_items()) {
                return Err(format!(
                    "served item id outside the {} items",
                    db.num_items()
                ));
            }
            let mut labels = db.item_map().externalize(&p.items);
            labels.sort_unstable();
            Ok(CanonPattern {
                labels,
                tids: p.tids.clone(),
            })
        })
        .collect()
}

/// [`verify`] for served patterns: tids are the vertical intersection of
/// the items, support counts them and clears `min_count`.
pub fn verify_reply(
    vindex: &VerticalIndex,
    patterns: &[ReplyPattern],
    min_count: usize,
) -> Result<(), String> {
    for p in patterns {
        if p.items.iter().any(|&i| i >= vindex.num_items()) {
            return Err("served item id outside the database".into());
        }
        let want: Vec<u32> = vindex
            .tidset(&Itemset::from_items(&p.items))
            .iter()
            .map(|t| t as u32)
            .collect();
        if p.tids != want || p.support != want.len() || p.support < min_count {
            return Err(format!(
                "served pattern of {} items: support set or support is wrong",
                p.items.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_core::{FusionConfig, Source};

    fn tiny_mine() -> (TransactionDb, Vec<Pattern>) {
        let db = cfp_datagen::diag_plus(10, 5, 7);
        let result = FusionConfig::new(6, 5)
            .with_pool_max_len(2)
            .with_threads(1)
            .with_seed(2)
            .engine(&db)
            .mine(Source::Transactions)
            .expect("in-memory mine");
        (db, result.patterns)
    }

    #[test]
    fn a_flipped_tid_fails_the_mine() {
        let (db, patterns) = tiny_mine();
        let vindex = VerticalIndex::new(&db);
        let expected = canon(&db, &patterns);
        assert!(judge_mine(&db, &vindex, &patterns, 5, &expected).is_ok());

        let mut corrupted = patterns.clone();
        let p = &mut corrupted[0];
        let tid = p.tids.iter().next().expect("non-empty support set");
        p.tids.remove(tid);
        assert!(judge_mine(&db, &vindex, &corrupted, 5, &expected).is_err());
        // Flipping a tid on in the expected result instead is caught too.
        let mut wrong = expected.clone();
        wrong[0].tids.push(u32::MAX);
        assert!(judge_mine(&db, &vindex, &patterns, 5, &wrong).is_err());
    }

    #[test]
    fn digest_sees_order_and_content() {
        let (db, patterns) = tiny_mine();
        let c = canon(&db, &patterns);
        let mut swapped = c.clone();
        swapped.swap(0, 1);
        assert_ne!(digest(&c), digest(&swapped));
        assert_eq!(recall(&[c[0].labels.clone()], &c), 1.0);
        assert_eq!(recall(&[vec![u32::MAX]], &c), 0.0);
    }
}
