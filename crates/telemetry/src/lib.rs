//! # ms-telemetry — deterministic sim-time observability
//!
//! The paper's core argument is that coarse telemetry hides the events that
//! matter: one-minute switch counters cannot show the millisecond bursts
//! and buffer contention that cause loss (§1, §7.2). This crate removes the
//! same blind spot from the simulator itself. It provides:
//!
//! * [`TraceBus`] — a fixed-capacity, capacity-reserved ring buffer of typed
//!   [`TraceEvent`]s (enqueues, drops with a [`DropReason`], ECN marks,
//!   threshold crossings, cwnd changes, RTO firings, sampler window
//!   closes…), each stamped with **simulation time in nanoseconds, never
//!   wall clock**;
//! * [`MetricsRegistry`] — named gauges and log-linear
//!   [`Histogram`]s with deterministic (insertion-order) iteration, CSV and
//!   JSON export;
//! * [`perfetto`] — a Chrome/Perfetto trace-event JSON writer (open the
//!   output in `ui.perfetto.dev` to see per-queue occupancy tracks and drop
//!   instants), a plain-text top-N summary, and a minimal JSON validator
//!   for smoke gates.
//!
//! ## Determinism contract
//!
//! Everything in this crate is a pure function of the event stream fed to
//! it: no wall clock, no ambient RNG, no hash-ordered collections, and all
//! export formats are rendered from integers with fixed formatting. Two
//! identical-seed simulation runs therefore serialize to **byte-identical**
//! traces — the property the golden tests pin.
//!
//! ## Hot-path contract
//!
//! Instrumented code holds an `Option<`[`SharedTelemetry`]`>`; when it is
//! `None` the per-packet cost is a single branch (mirroring the tc filter's
//! 7 ns disabled path). When attached, [`TraceBus::record`] writes into
//! capacity reserved at construction: no allocation, no panic — `simlint` holds it to
//! the same discipline as the switch and sampler hot paths.
//!
//! This crate sits *below* `ms-dcsim` in the dependency graph (the
//! simulator is what gets instrumented), so it is dependency-free and
//! timestamps are raw `u64` nanoseconds rather than `ms_dcsim::Ns`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod forensics;
pub mod metrics;
pub mod perfetto;
pub mod qid;

pub use bus::{DropReason, TraceBus, TraceEvent};
pub use forensics::{DropCause, DropForensic, ForensicStore};
pub use metrics::{GaugeId, Histogram, HistogramId, MetricsRegistry};
pub use perfetto::{summary, validate_json, write_perfetto, PerfettoMeta};

use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of one telemetry session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Capacity of the trace ring in events. The ring is allocated once at
    /// construction; when it wraps, the oldest events are overwritten (the
    /// count of overwritten events is reported by
    /// [`TraceBus::overwritten`]).
    pub ring_capacity: usize,
    /// Capacity of the drop forensics store in records. Zero (the
    /// default) disables per-drop capture entirely — the blackbox is
    /// opt-in so plain traced runs stay byte-identical across versions.
    pub forensic_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        // 65536 events ≈ a few MB — enough for the example scenarios'
        // full switch activity without unbounded growth. Forensics are
        // opt-in (see `TelemetryConfig::with_forensics`).
        TelemetryConfig {
            ring_capacity: 1 << 16,
            forensic_capacity: 0,
        }
    }
}

impl TelemetryConfig {
    /// Default forensic store size when the blackbox is switched on:
    /// enough for every drop in the example scenarios.
    pub const DEFAULT_FORENSIC_CAPACITY: usize = 1 << 16;

    /// Returns the config with the drop forensics blackbox enabled at the
    /// default capacity.
    pub fn with_forensics(mut self) -> Self {
        self.forensic_capacity = Self::DEFAULT_FORENSIC_CAPACITY;
        self
    }
}

/// The telemetry hub of one simulation: the trace bus plus the metrics
/// registry, shared across instrumented components via [`SharedTelemetry`].
pub struct Telemetry {
    /// The event trace ring.
    pub bus: TraceBus,
    /// Named gauges and histograms.
    pub metrics: MetricsRegistry,
    /// The drop forensics blackbox (zero-capacity when disabled).
    pub forensics: ForensicStore,
}

impl Telemetry {
    /// Builds a telemetry hub from configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            bus: TraceBus::with_capacity(cfg.ring_capacity),
            metrics: MetricsRegistry::new(),
            forensics: ForensicStore::with_capacity(cfg.forensic_capacity),
        }
    }

    /// Builds a hub already wrapped in the shared handle that instrumented
    /// components hold.
    pub fn shared(cfg: TelemetryConfig) -> SharedTelemetry {
        Rc::new(RefCell::new(Telemetry::new(cfg)))
    }

    /// Records one packet drop; every drop site calls this, so the order
    /// is fixed here alone. When the forensic store has capacity, the
    /// flight recorder is packed from the events *before* the drop into
    /// `drop.recent_kinds`; then the `PacketDrop` lands on the bus; then,
    /// with the store on, a `ForensicDrop` and the record itself. With the
    /// store off, only the `PacketDrop` is written and the attribution
    /// fields of `drop` are ignored.
    #[inline]
    pub fn record_drop(&mut self, mut drop: DropForensic) {
        let forensics_on = self.forensics.capacity() > 0;
        if forensics_on {
            drop.recent_kinds = self.bus.recent_kinds();
        }
        self.bus.record(TraceEvent::PacketDrop {
            ns: drop.ns,
            queue: drop.queue,
            size: drop.size,
            reason: drop.reason,
        });
        if forensics_on {
            self.bus.record(TraceEvent::ForensicDrop {
                ns: drop.ns,
                queue: drop.queue,
                flow: drop.flow,
                cause: drop.cause,
            });
            self.forensics.record(drop);
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("events", &self.bus.len())
            .field("capacity", &self.bus.capacity())
            .field("recorded", &self.bus.recorded())
            .finish_non_exhaustive()
    }
}

/// Shared handle to a [`Telemetry`] hub.
///
/// The simulation is single-threaded (parallel sweeps build one sim — and
/// one telemetry hub — per worker), so `Rc<RefCell<…>>` gives globally
/// ordered traces without locks; `Option<SharedTelemetry>` being `None` is
/// the disabled fast path.
pub type SharedTelemetry = Rc<RefCell<Telemetry>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handle_is_one_hub() {
        let t = Telemetry::shared(TelemetryConfig {
            ring_capacity: 8,
            ..TelemetryConfig::default()
        });
        let t2 = t.clone();
        t.borrow_mut()
            .bus
            .record(TraceEvent::RtoFired { ns: 5, flow: 1 });
        assert_eq!(t2.borrow().bus.len(), 1);
    }

    #[test]
    fn debug_is_compact() {
        let t = Telemetry::new(TelemetryConfig::default());
        let s = format!("{t:?}");
        assert!(s.contains("capacity"));
        assert!(s.len() < 200, "debug output must not dump the ring");
    }
}
