//! # ms-fleet — parallel multi-rack sweep runner
//!
//! One road from spec to rows: [`run_cell`] is the single place a
//! [`ScenarioSpec`] is built, run, analysed and flattened, and
//! [`run_pool`] the single worker pool every sweep runs its cells on —
//! independent `RackSim` runs sharded across `std::thread` workers
//! behind a work-stealing shard queue, results slotted in cell order.
//! Whatever a sweep keeps per cell, its output is byte-identical
//! regardless of thread count: `--jobs 1` ≡ `--jobs N`.
//!
//! The crate is dependency-free like the rest of the workspace: workers
//! are scoped `std::thread`s, the queue is `Mutex<VecDeque>` shards,
//! values travel over one `std::sync::mpsc` channel, and a panicking
//! cell becomes a failure row instead of tearing down the sweep.
//!
//! [`run_fleet`] keeps each cell's [`RunOutcome`] — a seed × α ×
//! placement × CC-algorithm grid merged into a [`FleetReport`] in grid
//! order. For sweeps too large to buffer, [`run_fleet_to_lake`] streams
//! every cell's full rows (outcome, classified bursts, raw series) into
//! an `ms-lake` columnar lake instead; the compacted segments are
//! byte-identical across thread counts. `ms-bench`'s region sweep keeps
//! the analysis and the outcome.
//!
//! ```
//! use ms_fleet::{run_fleet, FleetConfig, FleetGrid};
//!
//! let mut grid = FleetGrid::default();
//! grid.seeds = vec![7];
//! grid.alphas = vec![1.0];
//! grid.buckets = 40;
//! grid.connections = 8;
//! grid.total_bytes = 400_000;
//! let report = run_fleet(&grid.cells(), &FleetConfig { jobs: 2, ..FleetConfig::default() });
//! assert_eq!(report.results.len(), grid.len());
//! ```
//!
//! [`ScenarioSpec`]: ms_workload::ScenarioSpec
//! [`RunOutcome`]: ms_analysis::RunOutcome

pub mod grid;
pub mod lake_run;
pub mod merge;
pub mod runner;

pub use grid::{FleetCell, FleetGrid, PlacementKind, TopoPoint};
pub use lake_run::{run_fleet_in_memory_aggregate, run_fleet_to_lake};
pub use merge::{CellFailure, CellResult, FleetReport};
pub use runner::{run_cell, run_fleet, run_pool, CellRun, FleetConfig};
