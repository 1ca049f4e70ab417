//! # ms-analysis — bursts, contention, and loss from Millisampler data
//!
//! Implements the paper's analysis pipeline over [`millisampler`] rack
//! runs:
//!
//! * [`burst`] — burst detection per §5: "a burst is any consecutive set
//!   of one or more sample data points that exceeds 50 % of line rate",
//!   plus per-burst volume, length, connection counts, and retransmit
//!   association.
//! * [`contention`] — per-sample contention (the number of simultaneously
//!   bursty servers in the rack), run-level statistics, and the queue
//!   buffer-share mapping `T(S) = αB/(1+αS)` of §2.1.
//! * [`classify`] — the §8 joint methodology: contended vs. non-contended
//!   bursts (max contention over the burst's lifetime), lossy bursts
//!   (retransmit-bit bytes within the burst window plus an RTT-scale
//!   slack, per §4.6's "look for retransmissions that occur an RTT
//!   later").
//! * [`dataset`] — multi-rack aggregation: rack categorization into
//!   RegA-High / RegA-Typical by average contention, and the dataset
//!   summary rows of Tables 1 and 2.
//! * [`aggregate`] — the order-insensitive sweep fold ([`SweepAggregate`])
//!   shared by the in-memory path and the ms-lake streaming query engine,
//!   so lake-backed analyses can be asserted bit-for-bit against the
//!   in-memory ones.
//! * [`outcome`] — the unified per-run result record ([`RunOutcome`]):
//!   simulation ground truth plus analysis scalars behind one codec
//!   schema and one CSV row shape, consumed by sweep harnesses.
//! * [`stats`] — CDFs, quantiles, box-plot summaries, Pearson correlation,
//!   and bucketed series used to print the paper's figures.
//! * [`diagnose`] — the §4.2 diagnostic signatures over stored runs:
//!   loss-at-low-utilization (the NIC firmware-bug war story).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod burst;
pub mod classify;
pub mod contention;
pub mod dataset;
pub mod diagnose;
pub mod outcome;
pub mod stats;

pub use aggregate::{BurstRow, SweepAggregate};
pub use burst::{detect_bursts, Burst};
pub use classify::{analyze_run, RunAnalysis};
pub use contention::{contention_series, queue_share, ContentionStats};
pub use dataset::{DatasetSummary, RackCategory, RackHourObservation};
pub use outcome::RunOutcome;
pub use stats::{BoxStats, Cdf};
