//! Pattern-Fusion: mining colossal frequent patterns by core pattern fusion.
//!
//! From-scratch implementation of the ICDE 2007 paper by Zhu, Yan, Han, Yu
//! and Cheng. Exhaustive miners drown in the exponential layer of mid-sized
//! patterns; Pattern-Fusion instead *leaps* through the pattern lattice: it
//! keeps a bounded pool of patterns, repeatedly draws `K` random seeds, finds
//! each seed's neighbours inside a metric ball of radius `r(τ)` (Theorem 2
//! guarantees all core patterns of a colossal pattern fall in one ball), and
//! fuses whole balls into much larger core descendants in a single step.
//!
//! The crate is organized around the paper's concepts:
//!
//! * [`Pattern`] — an itemset with its support set ([`pattern`]); the thin
//!   **public view** type — inside the engine, patterns live as rows of a
//!   columnar slab (below) and materialize only at the result boundary;
//! * pattern distance and the ball radius `r(τ)` ([`distance`], Definition 6
//!   and Theorem 2);
//! * τ-core patterns and core descendants ([`core_pattern`], Definition 3);
//! * (d, τ)-robustness ([`robustness()`], Definition 4);
//! * complementary core patterns ([`complementary`], Definition 7, Lemma 4);
//! * the fusion operator with its size-weighted sampling heuristic
//!   ([`fusion`], §4);
//! * the main iterative algorithm ([`algorithm`], Algorithms 1–2);
//! * per-iteration statistics ([`stats`]).
//!
//! # The slab data plane
//!
//! The pool — the paper's hot data structure — is stored **columnar**: the
//! parallel initial-pool miner ([`cfp_miners::delta_pool_slab`]) emits
//! straight into a lane-aligned [`PatternPool`] slab (one shared tid-word
//! region + suffix tables + itemset spans + cached supports), and every
//! layer above speaks dense `u32` **row ids** over a [`pool::PoolStore`]
//! (frozen base slab shared by `Arc`, plus a private append-only overlay
//! for fused patterns, deduplicated by interning). Pools, archives, shard
//! sub-pools, and [`PoolDelta`]s are plain row-id lists; the ball index
//! borrows slab rows instead of copying tid-sets; shard workers read the
//! same base slab without cloning sub-pools. The ownership contract (who
//! may append, when rows freeze) is documented in [`cfp_itemset::store`].
//!
//! # The ball-query engine
//!
//! Because `(S, Dist)` is a metric space (Theorem 1), the per-seed ball
//! query — the hottest loop of the algorithm — does not need to evaluate a
//! Jaccard distance against every pool member. The [`ball`] module provides
//! a per-iteration [`BallIndex`]: tid-sets live in one contiguous
//! structure-of-arrays arena, a support-sorted order turns the free
//! cardinality bound `Dist ≥ 1 − min(|A|,|B|)/max(|A|,|B|)` into a
//! binary-searched candidate window, and a table of pivot distances
//! (farthest-point pivots over a support-stratified sample) prunes
//! survivors through the triangle inequality before the bounded early-exit
//! Jaccard kernel ([`cfp_itemset::kernels`]) runs — batched over the
//! arena's 32-byte-aligned rows on the best runtime-detected SIMD backend
//! ([`KernelBackend`]; scalar / SSE2+POPCNT / AVX2, overridable with
//! `CFP_KERNEL_BACKEND`, bit-identical results on all of them). The engine
//! returns exactly the brute-force ball; [`RunStats::ball`] reports how
//! many pairs each pruning layer skipped and [`RunStats::kernel_backend`]
//! which backend computed them.
//!
//! The index covers exactly one pool: built over the initial pool, it is
//! rebuilt over each next pool through [`BallIndex::apply_delta`] (see
//! [`ball`]'s lifecycle notes). Per-iteration [`IndexMaintenance`] records
//! and [`RunStats::compactions`] / [`RunStats::tombstoned`] /
//! [`RunStats::inserted`] count the rebuilds and the patterns that left and
//! entered the pool between them.
//!
//! Seed processing distributes both ball-scan segments and per-seed fusions
//! over a work-stealing task queue ([`parallel`]); every task's RNG is
//! derived from the master seed and the task's position, so results are
//! bit-for-bit identical at any thread count (`FusionConfig::with_threads`
//! pins the worker count for tests and benchmarks).
//!
//! # Quick start
//!
//! ```
//! use cfp_core::{FusionConfig, PatternFusion};
//!
//! // Diag12 + 6 identical rows of items 13..=21: one colossal pattern among
//! // an exponential number of mid-sized ones.
//! let db = cfp_datagen::diag_plus(12, 6, 9);
//! let config = FusionConfig::new(8, 6).with_seed(7);
//! let result = PatternFusion::new(&db, config).run();
//! // The colossal block (size 9) is recovered; no mid-sized diagonal
//! // pattern can reach that size at support 6.
//! assert_eq!(result.max_pattern_len(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod ball;
pub mod complementary;
pub mod core_pattern;
pub mod delta;
pub mod distance;
pub mod engine;
pub mod env;
pub mod executor;
pub mod fusion;
pub mod net;
pub mod oocore;
pub mod pattern;
pub mod pool;
pub mod robustness;
pub mod serve;
pub mod shard;
pub mod stats;

mod config;

/// Deterministic work-stealing task distribution — re-exported from
/// [`cfp_miners::parallel`], where the queue now lives so the parallel
/// initial-pool miner (below `cfp-core` in the crate graph) can schedule
/// its DFS subtrees on the same primitive as the fusion engine's ball
/// scans, per-seed fusions, shard runs, and pivot-table builds.
pub mod parallel {
    pub use cfp_miners::parallel::run_tasks;
}

pub use algorithm::{FusionResult, PatternFusion};
pub use ball::{BallIndex, BallQuery, BallQueryStats, PoolDelta};
pub use cfp_itemset::kernels::Backend as KernelBackend;
pub use cfp_itemset::PatternPool;
pub use complementary::{count_complementary_sets, find_complementary_set, is_complementary_set};
pub use config::FusionConfig;
pub use core_pattern::{core_patterns_of, is_core_pattern, is_core_pattern_of};
pub use delta::{AppendStats, DeltaEngine};
pub use distance::{ball_radius, pattern_distance};
pub use engine::{Engine, EngineError, Source};
pub use env::EnvError;
pub use executor::{
    ExecutorError, ExecutorKind, NetFailure, SubprocessConfig, WorkerFailure,
    DEFAULT_WORKER_DEADLINE,
};
pub use net::{
    retry_backoff, serve, serve_session, spawn_host, FaultAction, FaultPlan, HostOptions, NetError,
    NetPhase, NetRequest, RemoteConfig, SessionError, NET_PROTOCOL_VERSION,
};
pub use oocore::{OocoreConfig, OocoreError};
pub use pattern::Pattern;
pub use pool::PoolStore;
pub use robustness::robustness;
pub use serve::{
    serve_queries, spawn_query_server, QueryClient, ServeError, ServeOptions, ServeReply,
    ServeRequest, SERVE_PROTOCOL_VERSION,
};
pub use shard::{ShardEnvError, ShardStrategy, Sharding};
pub use stats::{
    IndexMaintenance, IterationStats, NetStats, OocoreStats, PoolStats, RunStats, ShardStats,
};
