//! The drop forensics blackbox: one structured record per packet drop.
//!
//! The paper's headline result is *causal* — §8 separates self-inflicted
//! burst loss from cross-traffic contention loss. A flat `PacketDrop`
//! trace event cannot answer "why did this packet drop" without
//! re-deriving switch state offline, so the forensics store captures the
//! state *at the drop*: occupancies, the DT threshold at that instant,
//! the dropping flow's in-progress burst, the competing-flow set and its
//! byte shares over the preceding arrival window, ECN state, and a
//! packed ring of the preceding trace-event kinds. Each record carries a
//! [`DropCause`] classification applying the paper's attribution rules:
//!
//! * [`DropCause::SelfBurst`] — the dropping flow itself contributed at
//!   least half the bytes arriving at the quadrant over the recent
//!   window: the loss is self-inflicted burst overflow (§8.2).
//! * [`DropCause::CrossContention`] — other flows dominate the recent
//!   arrival window: the loss is cross-traffic buffer contention (§8.3).
//! * [`DropCause::FabricTransient`] — the drop happened off the rack
//!   switch entirely (fabric-hop FIFO overflow or the §4.2 NIC
//!   firmware-bug injector): transient, not buffer-share arithmetic.
//!
//! [`ForensicStore::record`] is on the simulator's per-drop path, so it
//! follows the trace-bus discipline: storage is reserved once in the
//! constructor and touched only as records arrive, and recording is a
//! bounded push — no allocation, no panic, no floats (the DT threshold
//! arrives as a precomputed integer).

use crate::bus::DropReason;

/// The §8 attribution classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// The dropping flow's own burst dominated the recent arrival window.
    SelfBurst,
    /// Competing flows dominated the recent arrival window.
    CrossContention,
    /// The drop happened off the shared-buffer switch (fabric hop FIFO
    /// overflow or injected NIC fault); no buffer-share attribution.
    FabricTransient,
}

impl DropCause {
    /// Human-readable label (summaries, CSV exports).
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::SelfBurst => "self-burst",
            DropCause::CrossContention => "cross-contention",
            DropCause::FabricTransient => "fabric-transient",
        }
    }

    /// Stable numeric code for binary serializations.
    pub fn code(self) -> u8 {
        match self {
            DropCause::SelfBurst => 0,
            DropCause::CrossContention => 1,
            DropCause::FabricTransient => 2,
        }
    }

    /// Inverse of [`DropCause::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(DropCause::SelfBurst),
            1 => Some(DropCause::CrossContention),
            2 => Some(DropCause::FabricTransient),
            _ => None,
        }
    }

    /// All variants, in `code()` order (for attribution histograms).
    pub const ALL: [DropCause; 3] = [
        DropCause::SelfBurst,
        DropCause::CrossContention,
        DropCause::FabricTransient,
    ];
}

/// Everything the switch knew at the instant one packet was dropped.
///
/// All fields are plain integers so the record can be captured on the
/// hot path, serialized into a lake column per field, and compared
/// byte-for-byte across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropForensic {
    /// Sim time of the drop (ns).
    pub ns: u64,
    /// Egress queue (or [`u32::MAX`]-ish sentinels for off-switch drops).
    pub queue: u32,
    /// The dropping flow.
    pub flow: u64,
    /// Packet size in bytes.
    pub size: u32,
    /// The admission mechanism that refused the packet.
    pub reason: DropReason,
    /// The §8 attribution class.
    pub cause: DropCause,
    /// The target queue's total occupancy at the drop (bytes).
    pub queue_occupancy: u64,
    /// The quadrant's shared-pool occupancy at the drop (bytes).
    pub shared_occupancy: u64,
    /// The Choudhury–Hahne dynamic threshold at that instant (bytes),
    /// precomputed by the switch so this layer stays float-free.
    pub dt_threshold: u64,
    /// Consecutive packets of this flow arriving at this queue
    /// immediately before the drop (the in-progress burst length).
    pub burst_len: u32,
    /// Distinct *other* flows in the recent quadrant arrival window.
    pub competing_flows: u32,
    /// Bytes the dropping flow contributed to the recent arrival window.
    pub self_bytes: u64,
    /// Bytes every other flow contributed to the recent arrival window.
    pub other_bytes: u64,
    /// Whether queue occupancy was at or above the ECN marking threshold.
    pub ecn_on: bool,
    /// The kind codes of the eight preceding trace-bus events, packed
    /// little-endian one byte each (0 = no event); a micro flight
    /// recorder of what the switch was doing just before the drop.
    pub recent_kinds: u64,
}

/// Fixed-capacity store of [`DropForensic`] records plus always-exact
/// per-cause counters.
///
/// Unlike the trace ring, the store keeps the *first* `capacity` records
/// (drops early in a run are the interesting ones — they seed the
/// congestion the rest of the run lives in) and counts the overflow; the
/// per-cause attribution counters never saturate, so the §8 histogram is
/// exact even when individual records are shed.
pub struct ForensicStore {
    /// The held records, pushed into capacity reserved up front.
    records: Vec<DropForensic>,
    /// Store capacity in records (the reserved `Vec` capacity may be
    /// larger).
    cap: usize,
    shed: u64,
    by_cause: [u64; 3],
}

impl ForensicStore {
    /// Reserves storage for `capacity` records. All allocation happens
    /// here; [`ForensicStore::record`] never touches the heap.
    pub fn with_capacity(capacity: usize) -> Self {
        ForensicStore {
            records: Vec::with_capacity(capacity),
            cap: capacity,
            shed: 0,
            by_cause: [0; 3],
        }
    }

    /// Store capacity in records. Zero means forensics are disabled
    /// (recording still maintains the per-cause counters).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records one drop. The per-drop hot path: a push into reserved
    /// capacity plus counter bookkeeping — no allocation, no panic (the
    /// push stops at the capacity reserved up front).
    #[inline]
    pub fn record(&mut self, f: DropForensic) {
        self.by_cause[(f.cause.code() & 3).min(2) as usize] += 1;
        if self.records.len() < self.cap {
            self.records.push(f);
        } else {
            self.shed += 1;
        }
    }

    /// The held records, oldest first.
    pub fn records(&self) -> &[DropForensic] {
        &self.records
    }

    /// Records lost to capacity exhaustion (counters stay exact).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Exact number of drops attributed to `cause`, including shed ones.
    pub fn count(&self, cause: DropCause) -> u64 {
        self.by_cause[cause.code() as usize]
    }

    /// Exact total drops recorded, including shed ones.
    pub fn total(&self) -> u64 {
        self.by_cause.iter().sum()
    }
}

// The record array (possibly large) is deliberately left out of Debug.
#[allow(clippy::missing_fields_in_debug)]
impl std::fmt::Debug for ForensicStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForensicStore")
            .field("len", &self.records.len())
            .field("capacity", &self.cap)
            .field("shed", &self.shed)
            .field("by_cause", &self.by_cause)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An all-zero record for tests to override field by field.
    const FILLER: DropForensic = DropForensic {
        ns: 0,
        queue: 0,
        flow: 0,
        size: 0,
        reason: DropReason::SharedBufferFull,
        cause: DropCause::FabricTransient,
        queue_occupancy: 0,
        shared_occupancy: 0,
        dt_threshold: 0,
        burst_len: 0,
        competing_flows: 0,
        self_bytes: 0,
        other_bytes: 0,
        ecn_on: false,
        recent_kinds: 0,
    };

    fn forensic(ns: u64, cause: DropCause) -> DropForensic {
        DropForensic {
            ns,
            cause,
            flow: ns * 3,
            ..FILLER
        }
    }

    #[test]
    fn cause_codes_round_trip_and_labels_are_distinct() {
        for c in DropCause::ALL {
            assert_eq!(DropCause::from_code(c.code()), Some(c));
        }
        assert_eq!(DropCause::from_code(9), None);
        let mut labels: Vec<&str> = DropCause::ALL.iter().map(|c| c.as_str()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn store_keeps_first_records_and_counts_overflow_exactly() {
        let mut s = ForensicStore::with_capacity(2);
        s.record(forensic(1, DropCause::SelfBurst));
        s.record(forensic(2, DropCause::CrossContention));
        s.record(forensic(3, DropCause::CrossContention));
        assert_eq!(s.len(), 2);
        assert_eq!(s.shed(), 1);
        assert_eq!(s.records()[0].ns, 1);
        assert_eq!(s.records()[1].ns, 2);
        // Counters stay exact through the shed.
        assert_eq!(s.count(DropCause::SelfBurst), 1);
        assert_eq!(s.count(DropCause::CrossContention), 2);
        assert_eq!(s.count(DropCause::FabricTransient), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn record_drop_fixes_the_order_and_gates_the_forensic() {
        use crate::{Telemetry, TelemetryConfig, TraceEvent};
        let drop = forensic(9, DropCause::CrossContention);
        let mut on = Telemetry::new(TelemetryConfig::default().with_forensics());
        on.bus.record(TraceEvent::RtoFired { ns: 5, flow: 1 });
        on.record_drop(drop);
        assert_eq!(on.bus.len(), 3);
        assert!(matches!(
            (on.bus.recent(1), on.bus.recent(0)),
            (
                Some(TraceEvent::PacketDrop { .. }),
                Some(TraceEvent::ForensicDrop { .. })
            )
        ));
        // The flight record holds only what preceded the drop.
        let rto = TraceEvent::RtoFired { ns: 0, flow: 0 }.kind_code();
        assert_eq!(on.forensics.records()[0].recent_kinds, u64::from(rto));

        let mut off = Telemetry::new(TelemetryConfig::default());
        off.record_drop(drop);
        assert_eq!(off.bus.len(), 1, "the PacketDrop alone");
        assert_eq!(off.forensics.total(), 0);
    }

    #[test]
    fn zero_capacity_store_only_counts() {
        let mut s = ForensicStore::with_capacity(0);
        s.record(forensic(1, DropCause::FabricTransient));
        assert!(s.is_empty());
        assert_eq!(s.shed(), 1);
        assert_eq!(s.count(DropCause::FabricTransient), 1);
    }
}
