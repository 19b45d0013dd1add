//! Baseline frequent-itemset miners.
//!
//! Pattern-Fusion (the paper's contribution, crate `cfp-core`) is evaluated
//! against exhaustive miners, and bootstraps itself from a complete set of
//! small frequent patterns. This crate provides from-scratch implementations
//! of all of them:
//!
//! * [`apriori`] / [`apriori_bounded`] — level-wise mining (Agrawal &
//!   Srikant), with tid-set candidate counting;
//! * [`eclat`] — depth-first vertical mining (Zaki);
//! * [`fp_growth`] — FP-tree pattern growth (Han, Pei & Yin);
//! * [`closed`] — LCM-style closed-pattern mining with prefix-preserving
//!   closure extension (behavioural stand-in for FPClose/LCM);
//! * [`maximal`] — maximal-pattern mining with look-ahead and fail-first
//!   ordering (behavioural stand-in for LCM_maximal/MAFIA);
//! * [`top_k_closed`] — TFP-style top-k closed mining with a minimum-length
//!   constraint and dynamic threshold raising;
//! * [`delta_pool_slab`] / [`initial_pool_slab`] / [`initial_pool`] — the
//!   complete set of frequent patterns up to a small size, with support
//!   sets, as Pattern-Fusion's starting pool: one splice-or-mine planner
//!   whose parallel DFS emits straight into a columnar
//!   [`cfp_itemset::PatternPool`] slab (per-item subtrees on the
//!   work-stealing queue in [`parallel`], segments assembled in subtree
//!   order so the row sequence is thread-count-independent), with a
//!   from-the-database wrapper and a `Vec` view for harnesses.
//!
//! The exhaustive miners deliberately explode on pathological inputs (that is
//! the paper's point); every one of them therefore accepts a [`Budget`] and
//! reports whether it completed, so experiment harnesses can cap them exactly
//! like the paper's "did not finish in 10 hours" runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apriori;
mod budget;
mod closed;
mod eclat;
mod fpgrowth;
mod fptree;
mod initial_pool;
mod maximal;
pub mod parallel;
mod topk;
mod types;

pub use apriori::{apriori, apriori_bounded};
pub use budget::{Budget, Outcome};
pub use closed::closed;
pub use eclat::eclat;
pub use fpgrowth::fp_growth;
pub use fptree::FpTree;
pub use initial_pool::{
    delta_pool_slab, initial_pool, initial_pool_slab, initial_pool_slab_stratified,
    initial_pool_stratified, sort_stratified, subtree_spans, PoolMineStats, PoolPattern,
};
pub use maximal::maximal;
pub use topk::top_k_closed;
pub use types::{sort_canonical, MinedPattern};

#[cfg(test)]
pub(crate) mod testutil;
