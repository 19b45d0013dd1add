//! The four workloads: generator parameters, engine configurations and
//! the pinned digests that keep both from drifting.
//!
//! Every generator parameter and every [`FusionConfig`] field is spelled
//! out here instead of taken from a `Default` or `FusionConfig::new` — the
//! latter reads `CFP_SHARDS`, and `threads: None` follows the host's core
//! count — so a change to a library default cannot silently change what
//! the benchmark measures. The seed argument picks the generator's random
//! instance and the engine's RNG seed; the program only ever sees the
//! resulting FIMI bytes and protocol requests.

use cfp_core::{FusionConfig, ShardStrategy, Sharding};
use cfp_datagen::{AllLikeConfig, FamilySpec, ReplaceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ALL-like data in the Fig. 9 configuration: every ball is the whole
    /// pool, so the ball scan and fusion over capped balls do the work.
    All,
    /// Replace-like data in the Fig. 8 configuration: fusion over balls of
    /// ~14k members dominates; wide tid rows.
    Replace,
    /// Replace with 4 support-stratum shards on the in-thread executor: the
    /// only batch workload with several fusion iterations, index
    /// maintenance, merge and boundary repair.
    ReplaceShards4,
    /// A serve daemon over Replace: open-loop reads beside back-to-back
    /// appends.
    Serve,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::All,
    Workload::Replace,
    Workload::ReplaceShards4,
    Workload::Serve,
];

impl Workload {
    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::All => "all",
            Workload::Replace => "replace",
            Workload::ReplaceShards4 => "replace_shards4",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-scale datasets the benchmark measures.
    Paper,
    /// `AllLikeConfig::tiny` / `ReplaceConfig::tiny`, for the smoke tests.
    Tiny,
}

impl Scale {
    /// Parses `paper` or `tiny`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Scale::Paper),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The name [`Scale::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Tiny => "tiny",
        }
    }
}

/// Appended batches on `serve`: the held-out rows, in append order.
pub const SERVE_BATCHES: usize = 12;

/// The seeds `pins.txt` records for every workload.
pub const PINNED_SEEDS: std::ops::RangeInclusive<u64> = 0..=31;

/// Salt separating the held-out row draw from the generator's stream.
const HOLD_OUT_SALT: u64 = 0x5E12_7E0B_A7C4_E5A1;

/// A generated workload input.
#[derive(Debug, Clone)]
pub struct Input {
    /// FIMI bytes of the database the program mines (the launch database
    /// on `serve`).
    pub fimi: Vec<u8>,
    /// `serve` only: held-out transactions (external labels), appended in
    /// these batches.
    pub batches: Vec<Vec<Vec<u32>>>,
    /// Planted colossal itemsets as sorted external labels.
    pub planted: Vec<Vec<u32>>,
}

/// The engine configuration of `workload` for `seed`, every field set.
pub fn config(workload: Workload, scale: Scale, seed: u64) -> FusionConfig {
    let (min_count, pool_max_len, closure_step) = match (workload, scale) {
        (Workload::All, Scale::Paper) => (30, 2, true),
        (Workload::All, Scale::Tiny) => (15, 2, true),
        (_, Scale::Paper) => (132, 3, false),
        (_, Scale::Tiny) => (18, 3, false),
    };
    let shards = if workload == Workload::ReplaceShards4 {
        4
    } else {
        1
    };
    // The daemon's builder is pinned to one thread so the readers keep the
    // other core; the batch mines use both.
    let threads = if workload == Workload::Serve { 1 } else { 2 };
    FusionConfig {
        k: 100,
        min_count,
        tau: 0.5,
        pool_max_len,
        attempts_per_seed: 8,
        max_results_per_seed: 3,
        max_iterations: 64,
        max_ball_size: 20_000,
        closure_step,
        archive_cap: None,
        archive: true,
        parallel: true,
        threads: Some(threads),
        ball_pivots: 4,
        sharding: Sharding {
            shards,
            strategy: ShardStrategy::SupportStratum,
        },
        seed,
    }
}

/// The paper-scale ALL-like generator parameters (38 × 866, twelve planted
/// colossal patterns of sizes 77–110 at support 30).
fn all_paper(seed: u64) -> AllLikeConfig {
    AllLikeConfig {
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
        seed,
    }
}

/// The paper-scale Replace-like generator parameters (4 395 × 66, three
/// planted profiles of size 44).
fn replace_paper(seed: u64) -> ReplaceConfig {
    ReplaceConfig {
        n_transactions: 4395,
        n_items: 57,
        n_rare_items: 9,
        n_profiles: 3,
        profile_transactions: 250,
        core_size: 30,
        segment_sizes: vec![1, 1, 2, 2, 2, 3, 3],
        segment_keep_prob: 0.96,
        distinct_backgrounds: 150,
        motif_count: 60,
        motif_size_lo: 2,
        motif_size_hi: 6,
        motifs_per_txn_lo: 2,
        motifs_per_txn_hi: 3,
        extras_per_txn_lo: 0,
        extras_per_txn_hi: 1,
        rare_item_rows: 50,
        seed,
    }
}

/// Generates the input of `workload` for `seed`.
pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Input {
    let (db, planted) = match workload {
        Workload::All => {
            let cfg = match scale {
                Scale::Paper => all_paper(seed),
                Scale::Tiny => AllLikeConfig::tiny(seed),
            };
            let data = cfp_datagen::all_like(&cfg);
            let planted: Vec<_> = data.colossal.iter().map(|p| p.items.clone()).collect();
            (data.db, planted)
        }
        _ => {
            let cfg = match scale {
                Scale::Paper => replace_paper(seed),
                Scale::Tiny => ReplaceConfig::tiny(seed),
            };
            let data = cfp_datagen::replace_like(&cfg);
            let planted: Vec<_> = data.profiles.iter().map(|p| p.items.clone()).collect();
            (data.db, planted)
        }
    };
    let labels = |items: &cfp_itemset::Itemset| -> Vec<u32> {
        let mut l = db.item_map().externalize(items.items());
        l.sort_unstable();
        l
    };
    let planted: Vec<Vec<u32>> = planted.iter().map(labels).collect::<Vec<_>>();
    let rows: Vec<Vec<u32>> = db.transactions().iter().map(labels).collect();

    let (kept, batches) = if workload == Workload::Serve {
        // Hold out 1% batches, rounded up (44 rows at paper scale), drawn by
        // the seed.
        let batch = rows.len().div_ceil(100);
        let held = rand::seq::index::sample(
            &mut StdRng::seed_from_u64(seed ^ HOLD_OUT_SALT),
            rows.len(),
            SERVE_BATCHES * batch,
        )
        .into_vec();
        let mut is_held = vec![false; rows.len()];
        for &r in &held {
            is_held[r] = true;
        }
        let kept = (0..rows.len()).filter(|&r| !is_held[r]).collect();
        let batches = held
            .chunks(batch)
            .map(|c| c.iter().map(|&r| rows[r].clone()).collect())
            .collect();
        (kept, batches)
    } else {
        ((0..rows.len()).collect::<Vec<_>>(), Vec::new())
    };
    Input {
        fimi: fimi_bytes(kept.iter().map(|&r| rows[r].as_slice())),
        batches,
        planted,
    }
}

/// FIMI text: one transaction per line, labels separated by spaces.
fn fimi_bytes<'a>(rows: impl Iterator<Item = &'a [u32]>) -> Vec<u8> {
    let mut out = String::new();
    for row in rows {
        for (i, label) in row.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&label.to_string());
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// Digest of a workload's inputs: the FIMI bytes plus, on `serve`, the
/// appended batches.
pub fn input_digest(input: &Input) -> u64 {
    let mut h = crate::oracle::Fnv::new();
    h.bytes(&input.fimi);
    for batch in &input.batches {
        h.u32(batch.len() as u32);
        for txn in batch {
            h.u32s(txn);
        }
    }
    h.finish()
}

/// A pinned `(input digest, result digest)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// [`input_digest`] of the generated input.
    pub input: u64,
    /// [`crate::oracle::digest`] of `Engine::mine` over the (launch)
    /// database.
    pub result: u64,
}

/// The pinned digests of `workload` at `seed`, for the seeds `pins.txt`
/// records (paper scale only).
pub fn pinned(workload: Workload, seed: u64) -> Option<Pin> {
    include_str!("../pins.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if f.next()? != workload.name() || f.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        Some(Pin {
            input: u64::from_str_radix(f.next()?, 16).ok()?,
            result: u64::from_str_radix(f.next()?, 16).ok()?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a = generate(Workload::Serve, Scale::Tiny, 3);
        let b = generate(Workload::Serve, Scale::Tiny, 3);
        let c = generate(Workload::Serve, Scale::Tiny, 4);
        assert_eq!(input_digest(&a), input_digest(&b));
        assert_ne!(input_digest(&a), input_digest(&c));
        assert_eq!(a.batches.len(), SERVE_BATCHES);
    }

    #[test]
    fn configs_pin_threads_and_shards() {
        let c = config(Workload::ReplaceShards4, Scale::Paper, 1);
        assert_eq!(c.sharding.shards, 4);
        assert_eq!(c.threads, Some(2));
        assert_eq!(config(Workload::Serve, Scale::Paper, 1).threads, Some(1));
        assert_eq!(config(Workload::All, Scale::Paper, 1).sharding.shards, 1);
    }
}
