//! # ms-dcsim — packet-level data center rack simulator
//!
//! This crate is the substrate on which the Millisampler reproduction runs:
//! a deterministic, discrete-event, packet-metadata-level simulator of a data
//! center rack as described in §3 of *"A Microscopic View of Bursts, Buffer
//! Contention, and Loss in Data Centers"* (IMC 2022).
//!
//! It provides:
//!
//! * [`time::Ns`] — nanosecond simulation time,
//! * [`engine::EventQueue`] — a deterministic event queue with FIFO
//!   tie-breaking for simultaneous events, with [`engine::TimerSlot`], the
//!   one-heap-entry re-armable timer, and [`engine::DrainSlot`], the port
//!   drain that holds no entry while its output is idle, built on it,
//! * [`packet::Packet`] — segment metadata (no payload bytes are simulated),
//! * [`link::Link`] — rate + propagation-delay links with serialization,
//! * [`switch::SharedBufferSwitch`] — a shared-memory ToR switch with
//!   selectable buffer sharing ([`policy::ActivePolicy`]: Choudhury–Hahne
//!   **Dynamic Threshold** by default, plus FB-style flexible bounds and
//!   BShare-style delay-driven admission), buffer quadrants, per-queue
//!   dedicated reserves, a static ECN marking threshold, and cumulative
//!   per-queue admitted/discarded byte counters,
//! * [`host::Host`] — server model with a multi-queue NIC, RSS-style flow
//!   steering across simulated CPUs, and a host clock with injectable skew,
//! * [`fault`] — fault injection (random drop, NIC stalls) in the style of
//!   smoltcp's example fault injectors,
//! * [`SwitchConfig::meta_tor`] and the constants beside it — the numeric
//!   deployment of §3 of the paper (12.5 Gbps server links, four CPUs per
//!   server, 16 MB buffer in four 4 MB quadrants, ~3.6 MB shared per
//!   quadrant, α = 1, 120 KB ECN threshold).
//!
//! The simulator is *sans-io* in spirit: this crate owns no main loop.
//! Higher layers (`ms-transport`, `ms-workload`) pull events from the queue
//! and drive the network objects explicitly, which keeps every component
//! independently testable and the whole simulation bit-for-bit deterministic
//! for a given seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod host;
pub mod link;
pub mod packet;
pub mod policy;
pub mod profile;
pub mod rng;
pub mod switch;
pub mod time;

pub use engine::{DrainSlot, EventQueue, TimerSlot};
pub use host::Host;
pub use link::Link;
/// Re-exported from `ms-telemetry`: the drop taxonomy shared by
/// [`EnqueueOutcome`] and the trace bus, and the shared telemetry handle.
pub use ms_telemetry::{DropReason, SharedTelemetry, TraceEvent};
pub use ms_units::{Bps, Bytes};
pub use packet::{Direction, EcnCodepoint, FlowId, Packet, PacketKind};
pub use policy::{ActivePolicy, AdmitDecision, BufferPolicySpec, PolicyKind, SharedCtx};
pub use profile::EngineProfile;
pub use rng::SimRng;
pub use switch::{
    EnqueueOutcome, SharedBufferSwitch, SwitchConfig, CPUS_PER_SERVER, FABRIC_DELAY,
    REMOTE_NIC_BPS, SERVER_LINK_BPS, SERVER_LINK_DELAY,
};
pub use time::Ns;
