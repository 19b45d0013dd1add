//! The one front door to the mining engine.
//!
//! Mining is a two-axis decision: *where the pool comes from* is a
//! [`Source`], *what runs the shards* is an [`ExecutorKind`] override, and
//! [`Engine::mine`] is the single verb. ([`PatternFusion::run`] remains as
//! the in-thread shorthand for `mine(Source::Transactions)`.)
//!
//! ```
//! use cfp_core::{FusionConfig, Source};
//!
//! let db = cfp_datagen::diag_plus(12, 6, 9);
//! let config = FusionConfig::new(8, 6).with_seed(7);
//! let result = config.engine(&db).mine(Source::Transactions).unwrap();
//! assert_eq!(result.max_pattern_len(), 9);
//! ```
//!
//! The `cfp serve` daemon ([`crate::serve`](mod@crate::serve)) builds
//! every generation through this facade — a daemon reload and a `cfp mine`
//! run given the same config cannot take different code paths.

use crate::algorithm::{FusionResult, PatternFusion};
use crate::config::FusionConfig;
use crate::executor::{ExecutorError, ExecutorKind};
use crate::pattern::Pattern;
use crate::pool::PoolStore;
use cfp_itemset::{slab_io, PatternPool, SlabIoError, TransactionDb};
use cfp_miners::PoolMineStats;
use std::fmt;
use std::path::PathBuf;

/// Where the pattern pool a run fuses over comes from.
#[derive(Debug)]
pub enum Source {
    /// Mine the initial pool from the transaction database (the paper's
    /// phase 1), then fuse — the full algorithm.
    Transactions,
    /// Fuse a caller-supplied pool of owned patterns (phase 2 only). The
    /// patterns are copied once into a fresh base slab — the compatibility
    /// source for harnesses holding `Vec<Pattern>`.
    Pool(Vec<Pattern>),
    /// Fuse a caller-supplied columnar slab (phase 2 only) — the zero-copy
    /// source: the slab becomes the store's frozen base as is.
    Slab(PatternPool),
    /// Load a dumped CFPSLAB pool file and fuse it (phase 2 only). The
    /// file must come from the same dataset; output is deterministic per
    /// slab (see the `--pool` notes in the `cfp` CLI).
    SlabFile(PathBuf),
}

/// What went wrong inside [`Engine::mine`].
#[derive(Debug)]
pub enum EngineError {
    /// The execution backend failed (worker death, wire corruption, disk;
    /// [`ExecutorError::Disk`] carries the out-of-core driver's errors).
    Executor(ExecutorError),
    /// A [`Source::SlabFile`] failed to load or validate.
    SlabLoad {
        /// The file that failed.
        path: PathBuf,
        /// Why.
        error: SlabIoError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Executor(e) => write!(f, "{e}"),
            EngineError::SlabLoad { path, error } => {
                write!(f, "loading pool {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Executor(e) => Some(e),
            EngineError::SlabLoad { error, .. } => Some(error),
        }
    }
}

impl From<ExecutorError> for EngineError {
    fn from(e: ExecutorError) -> Self {
        EngineError::Executor(e)
    }
}

/// A configured mining engine over one database: the unified entry point
/// built by [`FusionConfig::engine`]. Holds the prepared
/// [`PatternFusion`] (vertical index included), an optional execution
/// backend, and the partition-forcing knob; [`Engine::mine`] runs it.
pub struct Engine<'a> {
    pf: PatternFusion<'a>,
    executor: Option<ExecutorKind>,
    force_partitioned: bool,
}

impl<'a> Engine<'a> {
    /// Wraps an already-prepared run. Most callers use
    /// [`FusionConfig::engine`] instead.
    pub fn new(pf: PatternFusion<'a>) -> Self {
        Self {
            pf,
            executor: None,
            force_partitioned: false,
        }
    }

    /// Runs the shards on an explicit backend ([`ExecutorKind`]) instead
    /// of the in-process engine: out-of-core batches, subprocess workers,
    /// or remote TCP workers. All backends are bit-identical to the
    /// in-thread engine at the same config.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Forces the full partition + merge machinery even at one shard.
    /// `mine` normally routes an unsharded config through the plain loop;
    /// the bit-identity harnesses (single-shard sharded run ==
    /// unsharded run) need the sharded path itself exercised.
    pub fn partitioned(mut self) -> Self {
        self.force_partitioned = true;
        self
    }

    /// The underlying prepared run (config and vertical index), for
    /// callers that need the pool-mining helpers
    /// ([`PatternFusion::mine_initial_slab`] and friends).
    pub fn fusion(&self) -> &PatternFusion<'a> {
        &self.pf
    }

    /// Mines: resolves the pool from `source`, runs fusion on the
    /// configured backend, returns the materialized result. Infallible
    /// combinations (in-process backend, in-memory source) never return
    /// `Err`.
    pub fn mine(&self, source: Source) -> Result<FusionResult, EngineError> {
        // Normalize every source down to one store first; the backend
        // dispatch below then has one case per backend, not per
        // (backend × source). Only a mined pool has mine evidence.
        let (store, mine) = match source {
            Source::Transactions => self.pf.mine_store(),
            // One copy into a fresh base slab.
            Source::Pool(patterns) => (
                PoolStore::from_patterns(&patterns),
                PoolMineStats::default(),
            ),
            Source::Slab(slab) => (PoolStore::new(slab), PoolMineStats::default()),
            Source::SlabFile(path) => {
                let slab = slab_io::load_slab_path(&path)
                    .map_err(|error| EngineError::SlabLoad { path, error })?;
                (PoolStore::new(slab), PoolMineStats::default())
            }
        };
        // An explicit executor decides the routing itself (the in-thread
        // one partitions only a sharded config); `partitioned()` forces
        // the partitioned driver on the default backend.
        let (executor, partitioned) = match &self.executor {
            Some(ex) => (ex, false),
            None => (&ExecutorKind::InThread, self.force_partitioned),
        };
        let result = match executor {
            ExecutorKind::OutOfCore(oo) => self
                .pf
                .run_oocore_store(store, mine, oo)
                .map_err(ExecutorError::Disk)?,
            ex => self
                .pf
                .run_from_store_on(store, mine, None, ex, partitioned)?,
        };
        Ok(result)
    }
}

impl FusionConfig {
    /// Builds the unified [`Engine`] for this configuration over `db` —
    /// the one front door to mining (see the module docs).
    pub fn engine<'a>(&self, db: &'a TransactionDb) -> Engine<'a> {
        Engine::new(PatternFusion::new(db, self.clone()))
    }
}
