//! Synthetic dataset generators for the Pattern-Fusion experiments.
//!
//! The paper evaluates on one synthetic family and two real datasets. The
//! synthetic family (`Diagn`) is reproduced exactly; the real datasets
//! (Siemens *Replace* program traces and the *ALL* leukemia microarray) are
//! not redistributable, so this crate generates statistical stand-ins matched
//! to every property the paper reports about them (transaction/item counts,
//! colossal-pattern sizes, complete-set sizes, initial-pool sizes, and the
//! low-support combinatorial explosion). The module docs of `src/replace.rs`
//! and `src/all.rs` give each stand-in's substitution rationale.
//!
//! All generators are deterministic given a seed.
//!
//! | Generator | Paper artifact | Used by |
//! |-----------|----------------|---------|
//! | [`diag`], [`diag_plus`] | `Diagn`, intro's `Diag40`+20 rows | Figs. 6–7 |
//! | [`replace_like`] | *Replace* trace data | Fig. 8 |
//! | [`all_like`] | *ALL* microarray data | Figs. 9–10 |
//! | [`quest`] | IBM QUEST-style market baskets | extra benches/tests |
//! | [`planted`] | generic planted-pattern substrate | tests, ablations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod all;
mod diag;
mod planted;
mod quest;
mod replace;
mod rows;

pub use all::{all_like, AllLikeConfig, AllLikeData, FamilySpec};
pub use diag::{diag, diag_plus};
pub use planted::{planted, PlantedConfig, PlantedData, PlantedPattern};
pub use quest::{quest, QuestConfig};
pub use replace::{replace_like, ReplaceConfig, ReplaceData};
pub use rows::{RowSampler, SampleSpec};
