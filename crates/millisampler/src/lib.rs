//! # millisampler — host-side millisecond-granularity traffic sampling
//!
//! This crate is the paper's primary contribution, reimplemented as a Rust
//! library: a lightweight traffic characterization tool that runs on every
//! host, counting ingress/egress bytes, retransmitted bytes, ECN-marked
//! bytes, and (sketched) active connections into fixed arrays of time
//! buckets, at sampling intervals from 100 µs to 10 ms.
//!
//! The deployment described in the paper is an eBPF `tc` filter plus a
//! user-space agent. This library keeps that split:
//!
//! * [`filter::TcFilter`] — the **hot path**: per-CPU counter arrays, a
//!   start timestamp latched on the first packet, bucket-index arithmetic
//!   per packet, and the self-clearing `enabled` flag. In the kernel this
//!   is the compiled eBPF program; here it is a `#[inline]`-friendly struct
//!   the simulation invokes at the host's ingress/egress hook points. Its
//!   per-packet cost is measured by the `perf/` package's
//!   `millisampler.record*_ns` rows (the §4.3 "88 ns vs. 271 ns
//!   tcpdump" comparison).
//! * [`run`] — run configuration and the aggregated per-host output
//!   ([`run::HostSeries`]), i.e. what user space reads out of the BPF map
//!   and stores.
//! * [`scheduler`] — the user-space agent: schedules periodic runs,
//!   rotating through sampling intervals, and gives priority to
//!   SyncMillisampler requests (§4.4).
//! * [`store`] — compressed on-host history with a retention window
//!   ("compressed and stored on the host for about a week", §4.2).
//! * [`sync`] — **SyncMillisampler**: the centralized control plane that
//!   schedules simultaneous runs across all hosts of a rack, fetches the
//!   results, aligns them by linear interpolation onto a uniform timeline,
//!   and trims to the common overlapping window (§4.4–4.5).
//!
//! ## What "host-side" means here
//!
//! The simulator (`ms-workload`) calls [`filter::TcFilter::record`] at
//! exactly the points where the kernel would run the tc filter: on ingress
//! when a packet is steered to the owning socket's CPU, and on egress just
//! before the NIC. The filter sees host-clock timestamps (including NTP
//! skew), per-CPU dispatch, and the diagnostic retransmit bit — everything
//! the production deployment sees, and nothing it does not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod filter;
pub mod run;
pub mod scheduler;
pub mod store;
pub mod sync;

pub use filter::{FilterState, PacketMeta, TcFilter};
pub use run::{HostSeries, RunConfig};
pub use scheduler::{RunRequest, Scheduler, SchedulerConfig};
pub use store::HostStore;
pub use sync::{AlignedRackRun, SyncCoordinator};

/// Ingress or egress, from the host's point of view.
pub use ms_dcsim::Direction;
