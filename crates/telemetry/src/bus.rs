//! The trace bus: typed simulation events in a capacity-reserved ring.
//!
//! [`TraceBus::record`] is on the simulator's per-packet path when tracing
//! is enabled, so it follows the same rules `simlint` enforces on the tc
//! filter: the ring's capacity is reserved once in the constructor and
//! its pages are touched only as events fill it, and recording is a push
//! into that reserved capacity or a store plus index arithmetic — no
//! allocation, no panic path. When the ring wraps, the **oldest** events
//! are overwritten (a trace is a window onto the tail of the run, like a
//! flight recorder), and the number of lost events is reported so
//! exporters can say so instead of silently presenting a truncated trace
//! as complete.

use crate::forensics::DropCause;
use ms_units::Bytes;

/// Why the switch (or a fault injector) discarded a packet.
///
/// This is the shared drop taxonomy used by both the switch's
/// `EnqueueOutcome` and [`TraceEvent::PacketDrop`], replacing the earlier
/// boolean-ish "dropped" accounting: the paper's loss analysis (§8)
/// depends on *why* admission failed, not just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// The quadrant's shared pool physically cannot fit the packet.
    SharedBufferFull,
    /// A static per-queue partition cap rejected the packet
    /// (the `StaticPartition` buffer policy).
    PerQueueCap,
    /// The Choudhury–Hahne dynamic threshold rejected the packet: the
    /// queue's shared usage was at or above `α·(B_shared − Q_shared)`.
    DynamicThresholdReject,
    /// Fault injection discarded the packet (the §4.2 NIC firmware-bug
    /// model: loss without switch congestion).
    FaultInjected,
    /// The FB-style flexible-bounds ceiling rejected the packet: the
    /// queue's shared usage was over the even split of the pool across
    /// the quadrant's active queues (`FlexibleBounds` buffer policy).
    FlexibleBoundsReject,
    /// The BShare-style delay target rejected the packet: admitting it
    /// would push the queue's estimated queueing delay past the target
    /// (`DelayDriven` buffer policy).
    DelayTargetExceeded,
}

impl DropReason {
    /// Human-readable label, used in trace exports and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::SharedBufferFull => "shared-buffer-full",
            DropReason::PerQueueCap => "per-queue-cap",
            DropReason::DynamicThresholdReject => "dynamic-threshold-reject",
            DropReason::FaultInjected => "fault-injected",
            DropReason::FlexibleBoundsReject => "flexible-bounds-reject",
            DropReason::DelayTargetExceeded => "delay-target-exceeded",
        }
    }

    /// Stable numeric code for binary serializations (determinism tests).
    pub fn code(self) -> u8 {
        match self {
            DropReason::SharedBufferFull => 0,
            DropReason::PerQueueCap => 1,
            DropReason::DynamicThresholdReject => 2,
            DropReason::FaultInjected => 3,
            DropReason::FlexibleBoundsReject => 4,
            DropReason::DelayTargetExceeded => 5,
        }
    }

    /// All variants, in `code()` order (for summary tables).
    pub const ALL: [DropReason; 6] = [
        DropReason::SharedBufferFull,
        DropReason::PerQueueCap,
        DropReason::DynamicThresholdReject,
        DropReason::FaultInjected,
        DropReason::FlexibleBoundsReject,
        DropReason::DelayTargetExceeded,
    ];
}

/// One traced simulation event.
///
/// Every variant carries `ns`: the simulation time in nanoseconds (host
/// components may stamp their *local* skewed clock — still a deterministic
/// function of sim time). Wall-clock time never appears in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was admitted to a switch egress queue.
    PacketEnqueue {
        /// Sim time (ns).
        ns: u64,
        /// Egress queue index.
        queue: u32,
        /// Packet size in bytes.
        size: u32,
        /// Queue occupancy *after* the enqueue.
        occupancy: Bytes,
        /// Whether the packet was CE-marked on admission.
        marked: bool,
    },
    /// A packet was discarded.
    PacketDrop {
        /// Sim time (ns).
        ns: u64,
        /// Egress queue (or destination server, for host-side drops).
        queue: u32,
        /// Packet size in bytes.
        size: u32,
        /// Why admission refused the packet.
        reason: DropReason,
    },
    /// An ECN-capable packet was CE-marked on enqueue.
    EcnMark {
        /// Sim time (ns).
        ns: u64,
        /// Egress queue index.
        queue: u32,
        /// Queue occupancy at the mark.
        occupancy: Bytes,
    },
    /// Queue occupancy crossed the static ECN threshold.
    ThresholdCross {
        /// Sim time (ns).
        ns: u64,
        /// Egress queue index.
        queue: u32,
        /// Queue occupancy after the crossing operation.
        occupancy: Bytes,
        /// The threshold crossed.
        threshold: Bytes,
        /// `true` when crossing upward (enqueue), `false` downward.
        up: bool,
    },
    /// A packet left a switch egress queue.
    Dequeue {
        /// Sim time (ns).
        ns: u64,
        /// Egress queue index.
        queue: u32,
        /// Packet size in bytes.
        size: u32,
        /// Queue occupancy *after* the dequeue.
        occupancy: Bytes,
    },
    /// A GRO/LRO super-segment was flushed to the kernel receive path.
    WindowFlush {
        /// Sim time (ns).
        ns: u64,
        /// Receiving server.
        host: u32,
        /// Coalesced super-segment size in bytes.
        bytes: u32,
    },
    /// A sender's congestion window changed.
    CwndChange {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
        /// New congestion window.
        cwnd: Bytes,
    },
    /// A sender's retransmission timeout genuinely fired.
    RtoFired {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A Millisampler run self-terminated (the filter cleared its own
    /// enabled flag after running past its last bucket, §4.1).
    SamplerWindowClose {
        /// Host-clock time (ns).
        ns: u64,
        /// Host whose run completed.
        host: u32,
    },
    /// A Millisampler run observed its first packet (the filter latched
    /// its window start; pairs with [`TraceEvent::SamplerWindowClose`]).
    SamplerWindowOpen {
        /// Host-clock time (ns).
        ns: u64,
        /// Host whose run started.
        host: u32,
    },
    /// A flow sent its first data packet (span root: flow → burst →
    /// recovery/HoL children share the flow id).
    FlowSpanStart {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A flow fully acknowledged its last byte (its FCT endpoint).
    FlowSpanEnd {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A sender's in-flight window went 0 → >0 (a burst began).
    BurstSpanStart {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A sender's in-flight window drained back to 0 (the burst ended).
    BurstSpanEnd {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A sender entered loss recovery.
    RecoverySpanStart {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
        /// `true` when triggered by a retransmission timeout; `false`
        /// for dup-ack fast retransmit.
        rto: bool,
    },
    /// A sender left loss recovery (the recovery point was acked).
    RecoverySpanEnd {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A receiver started buffering out-of-order data (head-of-line wait).
    HolSpanStart {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A receiver's out-of-order buffer drained (head-of-line released).
    HolSpanEnd {
        /// Sim time (ns).
        ns: u64,
        /// Flow id.
        flow: u64,
    },
    /// A drop was classified by the forensics blackbox (the full record
    /// lives in the [`crate::ForensicStore`]; this marks it on the
    /// timeline).
    ForensicDrop {
        /// Sim time (ns).
        ns: u64,
        /// Egress queue (or off-switch sentinel).
        queue: u32,
        /// The dropping flow.
        flow: u64,
        /// The §8 attribution class.
        cause: DropCause,
    },
}

impl TraceEvent {
    /// The event's timestamp in nanoseconds.
    pub fn ns(&self) -> u64 {
        match *self {
            TraceEvent::PacketEnqueue { ns, .. }
            | TraceEvent::PacketDrop { ns, .. }
            | TraceEvent::EcnMark { ns, .. }
            | TraceEvent::ThresholdCross { ns, .. }
            | TraceEvent::Dequeue { ns, .. }
            | TraceEvent::WindowFlush { ns, .. }
            | TraceEvent::CwndChange { ns, .. }
            | TraceEvent::RtoFired { ns, .. }
            | TraceEvent::SamplerWindowClose { ns, .. }
            | TraceEvent::SamplerWindowOpen { ns, .. }
            | TraceEvent::FlowSpanStart { ns, .. }
            | TraceEvent::FlowSpanEnd { ns, .. }
            | TraceEvent::BurstSpanStart { ns, .. }
            | TraceEvent::BurstSpanEnd { ns, .. }
            | TraceEvent::RecoverySpanStart { ns, .. }
            | TraceEvent::RecoverySpanEnd { ns, .. }
            | TraceEvent::HolSpanStart { ns, .. }
            | TraceEvent::HolSpanEnd { ns, .. }
            | TraceEvent::ForensicDrop { ns, .. } => ns,
        }
    }

    /// Short kind label (summary tables, tests).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketEnqueue { .. } => "packet-enqueue",
            TraceEvent::PacketDrop { .. } => "packet-drop",
            TraceEvent::EcnMark { .. } => "ecn-mark",
            TraceEvent::ThresholdCross { .. } => "threshold-cross",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::WindowFlush { .. } => "window-flush",
            TraceEvent::CwndChange { .. } => "cwnd-change",
            TraceEvent::RtoFired { .. } => "rto-fired",
            TraceEvent::SamplerWindowClose { .. } => "sampler-window-close",
            TraceEvent::SamplerWindowOpen { .. } => "sampler-window-open",
            TraceEvent::FlowSpanStart { .. } => "flow-span-start",
            TraceEvent::FlowSpanEnd { .. } => "flow-span-end",
            TraceEvent::BurstSpanStart { .. } => "burst-span-start",
            TraceEvent::BurstSpanEnd { .. } => "burst-span-end",
            TraceEvent::RecoverySpanStart { .. } => "recovery-span-start",
            TraceEvent::RecoverySpanEnd { .. } => "recovery-span-end",
            TraceEvent::HolSpanStart { .. } => "hol-span-start",
            TraceEvent::HolSpanEnd { .. } => "hol-span-end",
            TraceEvent::ForensicDrop { .. } => "forensic-drop",
        }
    }

    /// Stable one-byte kind code, used to pack the forensic flight
    /// recorder's `recent_kinds` field. Zero is reserved for "no event";
    /// 6 was `DequeueIdle` (a drain finding its queue empty, which no
    /// longer happens) and stays retired so stored records keep reading.
    pub fn kind_code(&self) -> u8 {
        match self {
            TraceEvent::PacketEnqueue { .. } => 1,
            TraceEvent::PacketDrop { .. } => 2,
            TraceEvent::EcnMark { .. } => 3,
            TraceEvent::ThresholdCross { .. } => 4,
            TraceEvent::Dequeue { .. } => 5,
            TraceEvent::WindowFlush { .. } => 7,
            TraceEvent::CwndChange { .. } => 8,
            TraceEvent::RtoFired { .. } => 9,
            TraceEvent::SamplerWindowClose { .. } => 10,
            TraceEvent::SamplerWindowOpen { .. } => 11,
            TraceEvent::FlowSpanStart { .. } => 12,
            TraceEvent::FlowSpanEnd { .. } => 13,
            TraceEvent::BurstSpanStart { .. } => 14,
            TraceEvent::BurstSpanEnd { .. } => 15,
            TraceEvent::RecoverySpanStart { .. } => 16,
            TraceEvent::RecoverySpanEnd { .. } => 17,
            TraceEvent::HolSpanStart { .. } => 18,
            TraceEvent::HolSpanEnd { .. } => 19,
            TraceEvent::ForensicDrop { .. } => 20,
        }
    }
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s.
pub struct TraceBus {
    /// The held events: pushed in order until `cap`, then overwritten
    /// in place from `head`.
    ring: Vec<TraceEvent>,
    /// Ring capacity in events (the reserved `Vec` capacity may be larger).
    cap: usize,
    /// The oldest held event, which is the next one overwritten once the
    /// ring is full; 0 until then.
    head: usize,
    /// Total `record` calls ever.
    recorded: u64,
    /// Events lost to ring wrap-around.
    overwritten: u64,
}

impl TraceBus {
    /// Reserves a ring of `capacity` events. All allocation happens here;
    /// [`TraceBus::record`] never touches the heap.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBus {
            ring: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            recorded: 0,
            overwritten: 0,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to wrap-around (oldest-first overwrite).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Records one event. The per-event hot path: a push into reserved
    /// capacity until the ring is full, then a bounded overwrite of the
    /// oldest event — no allocation, no panic (a zero-capacity ring only
    /// counts).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        if self.ring.len() < self.cap {
            self.ring.push(ev);
            return;
        }
        self.overwritten += 1;
        if let Some(slot) = self.ring.get_mut(self.head) {
            *slot = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Iterates the held events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        // Oldest at `head`, newest just before it (`head` is 0 until the
        // ring first wraps).
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// The `i`-th most recent event (0 = newest), O(1).
    ///
    /// Used by the drop forensics capture to pack a micro flight recorder
    /// of the events that immediately preceded a drop; on the per-drop
    /// path, so no allocation and no panic (bounds are checked up front).
    #[inline]
    pub fn recent(&self, i: usize) -> Option<&TraceEvent> {
        let len = self.ring.len();
        if i >= len {
            return None;
        }
        // Newest lives just before `head`; walk backwards modulo len.
        self.ring.get((self.head + len - 1 - i) % len)
    }

    /// Kind codes of the eight newest events, one per byte, newest in the
    /// low byte: the flight record a drop forensic keeps of what preceded
    /// it (`DropForensic::recent_kinds`). Call it before recording the drop.
    pub fn recent_kinds(&self) -> u64 {
        let mut packed = 0u64;
        for i in 0..8 {
            match self.recent(i) {
                Some(ev) => packed |= u64::from(ev.kind_code()) << (8 * i),
                None => break,
            }
        }
        packed
    }

    /// Forgets all held events (counters keep accumulating; the
    /// reserved capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
    }
}

// The ring itself (up to 2^16 events) is deliberately left out of Debug.
#[allow(clippy::missing_fields_in_debug)]
impl std::fmt::Debug for TraceBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBus")
            .field("len", &self.ring.len())
            .field("capacity", &self.cap)
            .field("recorded", &self.recorded)
            .field("overwritten", &self.overwritten)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> TraceEvent {
        TraceEvent::RtoFired { ns, flow: 7 }
    }

    #[test]
    fn records_in_order_until_capacity() {
        let mut bus = TraceBus::with_capacity(4);
        for i in 0..3 {
            bus.record(ev(i));
        }
        let got: Vec<u64> = bus.iter().map(TraceEvent::ns).collect();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(bus.len(), 3);
        assert_eq!(bus.overwritten(), 0);
    }

    #[test]
    fn wraps_overwriting_oldest() {
        let mut bus = TraceBus::with_capacity(4);
        for i in 0..10 {
            bus.record(ev(i));
        }
        let got: Vec<u64> = bus.iter().map(TraceEvent::ns).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "keeps the newest window");
        assert_eq!(bus.len(), 4);
        assert_eq!(bus.recorded(), 10);
        assert_eq!(bus.overwritten(), 6);
    }

    #[test]
    fn exact_fill_boundary_is_chronological() {
        let mut bus = TraceBus::with_capacity(4);
        for i in 0..4 {
            bus.record(ev(i));
        }
        let got: Vec<u64> = bus.iter().map(TraceEvent::ns).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(bus.overwritten(), 0);
    }

    #[test]
    fn zero_capacity_only_counts() {
        let mut bus = TraceBus::with_capacity(0);
        bus.record(ev(1));
        assert!(bus.is_empty());
        assert_eq!(bus.recorded(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut bus = TraceBus::with_capacity(2);
        bus.record(ev(1));
        bus.clear();
        assert!(bus.is_empty());
        assert_eq!(bus.recorded(), 1);
        bus.record(ev(2));
        assert_eq!(bus.iter().count(), 1);
    }

    #[test]
    fn drop_reason_codes_are_stable_and_distinct() {
        let codes: Vec<u8> = DropReason::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4, 5]);
        let mut labels: Vec<&str> = DropReason::ALL.iter().map(|r| r.as_str()).collect();
        labels.dedup();
        assert_eq!(labels.len(), DropReason::ALL.len());
    }

    #[test]
    fn every_event_reports_its_timestamp_and_kind() {
        let events = [
            TraceEvent::PacketEnqueue {
                ns: 1,
                queue: 0,
                size: 1500,
                occupancy: Bytes(1500),
                marked: false,
            },
            TraceEvent::PacketDrop {
                ns: 2,
                queue: 0,
                size: 1500,
                reason: DropReason::DynamicThresholdReject,
            },
            TraceEvent::EcnMark {
                ns: 3,
                queue: 0,
                occupancy: Bytes::ZERO,
            },
            TraceEvent::ThresholdCross {
                ns: 4,
                queue: 0,
                occupancy: Bytes::ZERO,
                threshold: Bytes::ZERO,
                up: true,
            },
            TraceEvent::Dequeue {
                ns: 5,
                queue: 0,
                size: 0,
                occupancy: Bytes::ZERO,
            },
            TraceEvent::WindowFlush {
                ns: 6,
                host: 0,
                bytes: 0,
            },
            TraceEvent::CwndChange {
                ns: 7,
                flow: 0,
                cwnd: Bytes::ZERO,
            },
            TraceEvent::RtoFired { ns: 8, flow: 0 },
            TraceEvent::SamplerWindowClose { ns: 9, host: 0 },
            TraceEvent::SamplerWindowOpen { ns: 10, host: 0 },
            TraceEvent::FlowSpanStart { ns: 11, flow: 0 },
            TraceEvent::FlowSpanEnd { ns: 12, flow: 0 },
            TraceEvent::BurstSpanStart { ns: 13, flow: 0 },
            TraceEvent::BurstSpanEnd { ns: 14, flow: 0 },
            TraceEvent::RecoverySpanStart {
                ns: 15,
                flow: 0,
                rto: false,
            },
            TraceEvent::RecoverySpanEnd { ns: 16, flow: 0 },
            TraceEvent::HolSpanStart { ns: 17, flow: 0 },
            TraceEvent::HolSpanEnd { ns: 18, flow: 0 },
            TraceEvent::ForensicDrop {
                ns: 19,
                queue: 0,
                flow: 0,
                cause: DropCause::CrossContention,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.ns(), i as u64 + 1);
        }
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "kind labels must be distinct");
        // Kind codes are 1-based (0 = "no event" in packed forensics) and
        // mutually distinct.
        let mut codes: Vec<u8> = events.iter().map(TraceEvent::kind_code).collect();
        assert!(codes.iter().all(|&c| c > 0));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), events.len(), "kind codes must be distinct");
        assert!(!codes.contains(&6), "6 was DequeueIdle and stays retired");
        assert_eq!(codes.last(), Some(&20), "the other codes kept their values");
    }

    #[test]
    fn recent_and_iter_agree_before_and_after_the_first_wrap() {
        let mut bus = TraceBus::with_capacity(5);
        for n in 0..13u64 {
            let held: Vec<u64> = bus.iter().map(TraceEvent::ns).collect();
            let lo = n.saturating_sub(5);
            assert_eq!(held, (lo..n).collect::<Vec<_>>(), "after {n} records");
            for (i, &ns) in held.iter().rev().enumerate() {
                assert_eq!(bus.recent(i).map(TraceEvent::ns), Some(ns));
            }
            assert_eq!(bus.recent(held.len()), None);
            assert_eq!(bus.overwritten(), lo);
            bus.record(ev(n));
        }
        assert_eq!(bus.capacity(), 5);
        bus.clear();
        assert!(bus.iter().next().is_none() && bus.recent(0).is_none());
        bus.record(ev(99));
        assert_eq!(bus.iter().map(TraceEvent::ns).collect::<Vec<_>>(), [99]);
    }

    #[test]
    fn recent_walks_newest_first_across_the_wrap() {
        let mut bus = TraceBus::with_capacity(4);
        for i in 0..6 {
            bus.record(ev(i));
        }
        // Holds [2, 3, 4, 5]; recent(0) is the newest.
        for i in 0..4 {
            assert_eq!(bus.recent(i).map(TraceEvent::ns), Some(5 - i as u64));
        }
        assert_eq!(bus.recent(4), None);
        assert_eq!(TraceBus::with_capacity(0).recent(0), None);
        // Four `RtoFired` (code 9) held, one per byte from the low end.
        assert_eq!(bus.recent_kinds(), 0x0909_0909);
        assert_eq!(TraceBus::with_capacity(0).recent_kinds(), 0);
    }
}
