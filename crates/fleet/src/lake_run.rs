//! Lake-backed sweep execution: stream cells to per-worker shards
//! instead of buffering a whole [`FleetReport`] in memory.
//!
//! The in-memory path ([`crate::run_fleet`]) holds every outcome until
//! the sweep ends — and deliberately drops the heavyweight series data,
//! because keeping every cell's `AlignedRackRun` alive would not scale.
//! The lake path inverts that: each worker appends every finished
//! cell's *full* rows (outcome + classified bursts + raw millisampler
//! series) to its own shard file and forgets them, so peak memory is
//! one cell per worker regardless of sweep size. Deterministic
//! compaction then erases the worker count: the final segments are
//! byte-identical for `--jobs 1` and `--jobs N`.
//!
//! [`run_fleet_in_memory_aggregate`] is the reference fold for tests:
//! the same cells pushed through the same [`SweepAggregate`] without
//! touching disk, for bit-for-bit comparison with
//! [`ms_lake::lake_sweep_aggregate`] over the compacted lake.
//!
//! Both run their cells with [`run_cell`] on [`run_pool`], like every
//! other sweep.

use crate::grid::FleetCell;
use crate::runner::{pool_workers, run_cell, run_pool, FleetConfig};
use ms_analysis::{BurstRow, RunAnalysis, SweepAggregate};
use ms_lake::{CellRows, LakeError, LakeManifest, LakeWriter, ShardWriter};
use std::sync::{Mutex, PoisonError};

/// The lake's `bursts` rows of cell `idx`.
fn burst_rows(idx: usize, analysis: &RunAnalysis) -> Vec<BurstRow> {
    analysis
        .bursts
        .iter()
        // simlint: allow(cast-truncation): grids are far below u32::MAX cells
        .map(|cb| BurstRow::from_classified(idx as u32, cb))
        .collect()
}

/// Runs every cell, streaming results into per-worker shards of
/// `writer`'s lake, then compacts. Returns the compacted manifest.
///
/// Each pool worker appends to the shard of its own index, so encoding
/// and writing stay on the worker threads and the locks are never
/// contended. Cell panics become failed outcome rows (the sweep
/// continues); a shard I/O error fails the sweep. The compacted
/// segments depend only on the cells — never on `jobs` or completion
/// order.
pub fn run_fleet_to_lake(
    cells: &[FleetCell],
    cfg: &FleetConfig,
    writer: &LakeWriter,
) -> Result<LakeManifest, LakeError> {
    let shards = (0..pool_workers(cells.len(), cfg))
        .map(|worker| writer.shard_writer(worker).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()?;
    let appended = run_pool(cells, cfg, |worker, idx| {
        let cell = &cells[idx];
        let rows = {
            let run = run_cell(&cell.spec, 0, cfg);
            CellRows {
                cell: idx as u64,
                label: cell.label.clone(),
                bursts: burst_rows(idx, &run.analysis),
                outcome: Some(Ok(run.outcome)),
                series: run.series,
                forensics: run.forensics,
            }
        };
        let mut shard = shards[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.append(&rows)
    });
    let mut shards: Vec<ShardWriter> = shards
        .into_iter()
        .map(|shard| shard.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    for (idx, result) in appended.into_iter().enumerate() {
        match result {
            Ok(written) => written?,
            // A panicked cell's failure row is a few bytes; compaction
            // orders records by cell, so any shard may carry it.
            Err(message) => {
                shards[0].append(&CellRows::failed(idx as u64, &cells[idx].label, message))?;
            }
        }
    }
    for shard in shards {
        shard.finish()?;
    }
    writer.compact()
}

/// The in-memory twin of a lake-backed sweep: runs the same cells
/// through the same pool and folds their rows, in cell order, straight
/// into a [`SweepAggregate`] — no disk, no segments. Exists so tests can
/// assert the out-of-core query result equals the in-memory fold bit
/// for bit.
pub fn run_fleet_in_memory_aggregate(cells: &[FleetCell], cfg: &FleetConfig) -> SweepAggregate {
    let rows = run_pool(cells, cfg, |_, idx| {
        let run = run_cell(&cells[idx].spec, 0, cfg);
        (run.outcome, burst_rows(idx, &run.analysis))
    });
    let mut agg = SweepAggregate::new();
    for row in rows {
        match row {
            Ok((outcome, bursts)) => {
                agg.add_outcome(&outcome);
                for b in &bursts {
                    agg.add_burst(b);
                }
            }
            Err(_) => agg.add_failed_cell(),
        }
    }
    agg
}
