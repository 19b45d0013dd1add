//! Pattern-Fusion configuration.

use crate::fusion::FusionParams;
use crate::shard::{ShardStrategy, Sharding};

/// Configuration for a [`crate::PatternFusion`] run.
///
/// `K` (the maximum number of patterns to mine) and the minimum support are
/// the paper's user-facing parameters; the rest tune the fusion heuristic and
/// default to values that reproduce the paper's experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionConfig {
    /// Maximum number of patterns to mine (the paper's `K`). Iteration stops
    /// once a fusion round yields ≤ K patterns.
    pub k: usize,
    /// Minimum absolute support.
    pub min_count: usize,
    /// Core ratio τ (Definition 3). Default 0.5, the paper's running value.
    pub tau: f64,
    /// Initial pool holds all frequent patterns of size ≤ this (paper: "up
    /// to a small size, e.g., 3"). Default 3.
    pub pool_max_len: usize,
    /// Randomized agglomeration attempts per seed per iteration.
    pub attempts_per_seed: usize,
    /// Distinct super-patterns retained per seed (the paper's
    /// system-determined threshold before weighted sampling).
    pub max_results_per_seed: usize,
    /// Hard cap on fusion iterations (the paper's loop terminates by
    /// Lemma 1; this guards degenerate configurations).
    pub max_iterations: usize,
    /// Per-seed ball cap: when a seed's distance ball exceeds this, a random
    /// subset of this size is fused instead.
    ///
    /// This is the "bounded breadth" of the paper's design point 1 applied to
    /// the ball itself: at very low support the pool of small patterns grows
    /// quadratically and so do the balls, yet by Theorem 3 a sample of
    /// `O(n·ln n / k)` core patterns already covers a colossal pattern's
    /// items with high probability — far below this cap. Keeps run time
    /// level as the support threshold drops (Figure 10).
    pub max_ball_size: usize,
    /// Post-process each fused pattern to its closure (same support set,
    /// possibly more items). Off by default — the paper fuses unions only —
    /// and explored in the ablation bench.
    pub closure_step: bool,
    /// Archive size override: how many of the largest patterns the
    /// cross-iteration archive retains (and the result may return). `None`
    /// — the default — uses K, the paper's coupling. The sharded engine
    /// sets each shard's K to ⌈K/shards⌉ (its share of the global seed
    /// budget) while keeping the archive at the full K, so shards with
    /// many local colossal patterns don't silently drop the smaller ones
    /// before the merge re-ranks globally.
    pub archive_cap: Option<usize>,
    /// Keep an archive of the largest patterns seen across iterations and
    /// merge it into the final answer (capped at the archive size).
    ///
    /// The paper returns the last pool only; because each iteration's pool is
    /// rebuilt exclusively from the K drawn seeds, a colossal pattern that
    /// was already found can die in a later iteration simply by never being
    /// drawn (a survival lottery the ablation bench quantifies). The archive
    /// removes that failure mode without altering the search trajectory.
    /// Default on.
    pub archive: bool,
    /// Fan seed processing out across threads (deterministic regardless of
    /// thread count: every seed gets an RNG derived from `seed` and its
    /// position).
    pub parallel: bool,
    /// Worker threads when `parallel` is on. `None` uses the machine's
    /// available parallelism. The same budget drives the **parallel
    /// initial-pool mine** ([`cfp_miners::delta_pool_slab`]: per-item DFS
    /// subtrees on the work-stealing queue, spliced in subtree order) and
    /// the fusion loop's ball scans / per-seed fusions / shard runs.
    /// Results are bit-for-bit identical for every value — this knob exists
    /// for benchmarking and the determinism tests.
    pub threads: Option<usize>,
    /// Pivots in the ball-query index's triangle-inequality prune (see
    /// [`crate::ball::BallIndex`]); clamped to
    /// [`crate::ball::MAX_PIVOTS`]. 0 disables the pivot layer. Pruning
    /// decisions never change results, only how many exact distance kernels
    /// run.
    pub ball_pivots: usize,
    /// Sharded execution (see [`crate::shard`]): the pool is partitioned
    /// into `sharding.shards` shards by `sharding.strategy`, fused per
    /// shard, and the archives merged deterministically. 1 shard (the
    /// default) runs the plain engine. [`FusionConfig::new`] starts from
    /// `CFP_SHARDS` / `CFP_SHARD_STRATEGY` ([`crate::env::sharding`]) so CI
    /// can push the whole suite through the sharded engine.
    pub sharding: Sharding,
    /// Master RNG seed.
    pub seed: u64,
}

impl FusionConfig {
    /// A configuration with the paper's defaults for the two mandatory
    /// parameters, sharded as `CFP_SHARDS` / `CFP_SHARD_STRATEGY` say.
    ///
    /// # Panics
    /// Panics when either variable is set but malformed; the `cfp` CLI
    /// rejects that cleanly before any work starts.
    pub fn new(k: usize, min_count: usize) -> Self {
        Self {
            k,
            min_count: min_count.max(1),
            tau: 0.5,
            pool_max_len: 3,
            attempts_per_seed: 8,
            max_results_per_seed: 3,
            max_iterations: 64,
            max_ball_size: 20_000,
            archive_cap: None,
            closure_step: false,
            archive: true,
            parallel: true,
            threads: None,
            ball_pivots: 4,
            sharding: crate::env::sharding().unwrap_or_else(|e| panic!("{e}")),
            seed: 0xC0FFEE,
        }
    }

    /// Sets the core ratio τ.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "τ ∈ (0, 1]");
        self.tau = tau;
        self
    }

    /// Sets the initial-pool size bound.
    pub fn with_pool_max_len(mut self, len: usize) -> Self {
        self.pool_max_len = len;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the closure post-step.
    pub fn with_closure_step(mut self, on: bool) -> Self {
        self.closure_step = on;
        self
    }

    /// Enables or disables the cross-iteration result archive.
    pub fn with_archive(mut self, on: bool) -> Self {
        self.archive = on;
        self
    }

    /// Overrides the archive size (defaults to K when unset).
    pub fn with_archive_cap(mut self, cap: usize) -> Self {
        self.archive_cap = Some(cap.max(1));
        self
    }

    /// Sets the per-seed ball cap.
    pub fn with_max_ball_size(mut self, n: usize) -> Self {
        self.max_ball_size = n.max(1);
        self
    }

    /// Enables or disables parallel seed processing.
    pub fn with_parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Pins the worker-thread count (`parallel` runs only). Results are
    /// identical at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets the pivot count of the ball-query index (0 disables the
    /// triangle-inequality prune).
    pub fn with_ball_pivots(mut self, pivots: usize) -> Self {
        self.ball_pivots = pivots.min(crate::ball::MAX_PIVOTS);
        self
    }

    /// Sets the shard count (1 disables sharding; 0 normalizes to 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.sharding.shards = shards.max(1);
        self
    }

    /// Sets the shard partition strategy.
    pub fn with_shard_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.sharding.strategy = strategy;
        self
    }

    /// Sets the agglomeration attempts per seed.
    pub fn with_attempts_per_seed(mut self, attempts: usize) -> Self {
        self.attempts_per_seed = attempts.max(1);
        self
    }

    /// Sets the retained super-patterns per seed.
    pub fn with_max_results_per_seed(mut self, n: usize) -> Self {
        self.max_results_per_seed = n.max(1);
        self
    }

    pub(crate) fn fusion_params(&self) -> FusionParams {
        FusionParams {
            tau: self.tau,
            min_count: self.min_count,
            attempts: self.attempts_per_seed,
            max_results: self.max_results_per_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_conventions() {
        let c = FusionConfig::new(100, 30);
        assert_eq!(c.k, 100);
        assert_eq!(c.min_count, 30);
        assert_eq!(c.tau, 0.5);
        assert_eq!(c.pool_max_len, 3);
        assert!(!c.closure_step);
    }

    #[test]
    fn zero_min_count_normalizes_to_one() {
        assert_eq!(FusionConfig::new(5, 0).min_count, 1);
    }

    #[test]
    fn builders_chain() {
        let c = FusionConfig::new(10, 2)
            .with_tau(0.8)
            .with_pool_max_len(2)
            .with_seed(9)
            .with_closure_step(true)
            .with_parallel(false)
            .with_attempts_per_seed(4)
            .with_max_results_per_seed(2);
        assert_eq!(c.tau, 0.8);
        assert_eq!(c.pool_max_len, 2);
        assert_eq!(c.seed, 9);
        assert!(c.closure_step);
        assert!(!c.parallel);
        assert_eq!(c.attempts_per_seed, 4);
        assert_eq!(c.max_results_per_seed, 2);
    }

    #[test]
    #[should_panic(expected = "τ")]
    fn invalid_tau_rejected() {
        FusionConfig::new(1, 1).with_tau(1.5);
    }
}
