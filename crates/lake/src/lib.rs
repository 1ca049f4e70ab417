//! ms-lake: a columnar on-disk sample lake for fleet-scale sweeps.
//!
//! The in-memory `FleetReport` path holds every cell's outcome, bursts,
//! and raw millisampler series until the sweep finishes — fine for a
//! hundred cells, hopeless for the fleet-scale parameter studies the
//! paper's §6 methodology implies. ms-lake replaces that buffering with
//! an append-only columnar lake:
//!
//! - [`segment`] — the `MSL1` segment format: delta+zigzag+varint
//!   columns (the same primitives as `millisampler::codec`), chunked
//!   with per-chunk min/max/count footers for predicate pushdown, and
//!   XXH64 checksums (`millisampler::codec::xxh64`) over every byte so
//!   corruption is an `Err`, never a panic.
//! - [`shard`] — per-worker append-only shard files of [`CellRows`]
//!   records (`MSC2`, each XXH64-checksummed); workers stream cells out
//!   as they finish.
//! - [`writer`] — [`LakeWriter`]: shard creation plus deterministic
//!   grid-order compaction into final segments. Identical `(spec, seed)`
//!   sweeps produce byte-identical lakes regardless of worker count.
//! - [`query`] — the pull-based streaming [`TableScan`], which holds at
//!   most one chunk per open column, so queries run over lakes larger
//!   than memory.
//! - [`analyses`] — the paper's aggregations (contention bimodality,
//!   burst-size CDFs, loss-vs-contention) recomputed out-of-core,
//!   bit-for-bit equal to the in-memory `ms_analysis` fold.
//!
//! Determinism contract: segment bytes are a pure function of the
//! compacted cell set and [`LakeConfig`]; no timestamps, no randomness,
//! no map-iteration order anywhere in the write path.

pub mod analyses;
pub mod query;
pub mod segment;
pub mod shard;
pub mod writer;

pub use analyses::{
    attribution_csv, forensics_csv, lake_loss_attribution, lake_policy_compare,
    lake_sweep_aggregate, lake_tier_drops, outcomes_csv, policy_compare_csv, synth_diurnal_series,
    tiers_csv, CellAttribution, CellTierDrops, PolicyCompare,
};
pub use query::{for_each_row, Batch, ColumnRange, ScanStats, TableScan};
pub use segment::{
    verify_segment_bytes, ColumnReader, ColumnWriter, SegmentReader, SegmentWriter, TableKind,
};
pub use shard::{CellRows, ShardWriter};
pub use writer::{Lake, LakeConfig, LakeManifest, LakeWriter, ManifestEntry};

use millisampler::codec::DecodeError;

/// Everything that can go wrong reading or writing a lake.
#[derive(Debug)]
pub enum LakeError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A codec-level decode failure (bad varint, checksum mismatch, …).
    Decode(DecodeError),
    /// Structural corruption with a static description.
    Corrupt(&'static str),
    /// Caller error: bad arguments, duplicate cells, unknown tables.
    Invalid(String),
}

impl std::fmt::Display for LakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LakeError::Io(e) => write!(f, "lake io error: {e}"),
            LakeError::Decode(e) => write!(f, "lake decode error: {e:?}"),
            LakeError::Corrupt(msg) => write!(f, "lake corrupt: {msg}"),
            LakeError::Invalid(msg) => write!(f, "lake invalid: {msg}"),
        }
    }
}

impl std::error::Error for LakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LakeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LakeError {
    fn from(e: std::io::Error) -> Self {
        LakeError::Io(e)
    }
}

impl From<DecodeError> for LakeError {
    fn from(e: DecodeError) -> Self {
        LakeError::Decode(e)
    }
}
