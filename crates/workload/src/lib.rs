//! # ms-workload — service traffic models, placement, and the rack simulation
//!
//! This crate generates the traffic that exercises the rack substrate and
//! drives Millisampler data collection. It has two halves:
//!
//! * **Workload modeling** — [`tasks`] defines generative traffic programs
//!   for the service archetypes the paper's findings hinge on (web
//!   request/response, storage/cache incast, synchronized ML training,
//!   batch shuffle, background mice); [`placement`] assigns task instances
//!   to servers and builds whole regions with the placement structure the
//!   paper observed (RegA: ~80 % task-diverse racks plus ~20 % racks
//!   dominated by a single ML task; RegB: a uniform, busier mix);
//!   [`diurnal`] supplies per-hour load multipliers (busy hours 4–10).
//! * **The simulation driver** — [`sim::RackSim`] owns the event loop that
//!   couples `ms-dcsim` (links, DT switch, hosts), `ms-transport` (DCTCP &
//!   friends), the generators, and `millisampler` filters attached at the
//!   host hook points. [`scenario`] turns a placed rack plus an hour of day
//!   into a ready-to-run simulation; [`tools`] implements the paper's two
//!   validation utilities (the rack-local multicast burster of Fig. 3 and
//!   the request/response burst generator of Fig. 4).
//!
//! Everything is seeded and deterministic: the same `(region seed, rack id,
//! hour)` triple reproduces the identical `AlignedRackRun` bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diurnal;
pub mod placement;
pub mod scenario;
pub mod sim;
pub mod spec;
pub mod tasks;
pub mod tools;

pub use diurnal::Diurnal;
/// Re-exported from `ms-units` via `ms-dcsim`: the rate and volume
/// newtypes used throughout scenario specs.
pub use ms_dcsim::{Bps, Bytes};
/// Re-exported from `ms-telemetry`: the record type of the forensics a
/// [`RackSim`]'s telemetry hub captures, so sweep runners can carry
/// them without a dependency of their own.
pub use ms_telemetry::DropForensic;
/// Re-exported from `ms-topo`: fat-tree construction options consumed by
/// [`TopologySpec::fat_tree`] and region-host addressing helpers.
pub use ms_topo::{FatTree, FatTreeOpts, HostAddr};
pub use placement::{RackClass, RackSpec, RegionKind, RegionSpec, TaskInstance};
pub use scenario::{rack_spec_for, ScenarioConfig};
pub use sim::{RackSim, RackSimReport, TopologySpec};
pub use spec::{
    AgentSpec, ChatterSpec, GenSpec, McastBurstSpec, NicDropSpec, ScenarioBuilder, ScenarioSpec,
    ScheduledFlow, ScheduledTopoFlow, StallSpec,
};
pub use tasks::{FlowSpec, TaskGen, TaskKind, TopoFlowSpec};
