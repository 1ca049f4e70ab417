//! # ms-bench — the experiment harness
//!
//! Shared machinery for the `repro` binary (one subcommand per paper table
//! and figure — see `DESIGN.md` §3 for the index):
//!
//! * [`sweep`] — runs whole-region SyncMillisampler sweeps (every rack ×
//!   selected hours) as cells of the `ms-fleet` runner: described with
//!   `rack_spec_for`, run by `ms_fleet::run_cell` on `ms_fleet::run_pool`,
//!   deterministically regardless of thread count.
//! * [`report`] — row/CSV formatting helpers so every experiment both
//!   prints the paper-style series and leaves a machine-readable file
//!   under `results/`.
//!
//! Per-layer timings with a history live in the benchmark package,
//! `perf/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod sweep;

pub use sweep::{sweep_region, RegionData, SweepConfig};
