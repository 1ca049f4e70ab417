//! Shared-memory ToR switch with Dynamic Threshold buffer sharing.
//!
//! This module implements the switch described in §2.1 and §3 of the paper:
//!
//! * one packet buffer shared across interfaces, divided into **quadrants**
//!   (the studied ToR has 16 MB split into four 4 MB quadrants);
//! * each egress queue maps to one quadrant (a function of input and output
//!   port in hardware; here, a configurable map defaulting to
//!   `queue % quadrants`);
//! * per queue, a small **dedicated reserve** is always admissible; the rest
//!   of the quadrant (~3.6 MB) is a **shared pool** governed by a
//!   [`crate::policy::ActivePolicy`], defaulting to the Dynamic Threshold
//!   (DT) algorithm of Choudhury & Hahne the studied fleet runs:
//!
//!   > a packet is admitted to queue *q* iff *q*'s shared-pool occupancy is
//!   > below `T(t) = α · (B_shared − Q_shared(t))`,
//!
//!   where `Q_shared(t)` is the quadrant's total shared occupancy. With
//!   `α = 1` (the fleet default), a single active queue may take at most
//!   half the shared pool, two active queues a third each, and in general
//!   `T = α·B / (1 + α·S)` for `S` fully-loaded queues — the formula behind
//!   Fig. 1;
//! * a **static ECN marking threshold** (120 KB deployed fleet-wide):
//!   ECN-capable packets are CE-marked on enqueue when the queue's total
//!   occupancy exceeds the threshold;
//! * cumulative per-queue counters ([`QueueStats`]): admitted and
//!   discarded bytes. Figs. 14 and 17 read their sums through the run
//!   outcome: Fig. 14 scales admitted bytes to a per-minute rate, standing
//!   in for the production switches' one-minute counters (§7.2), and
//!   Fig. 17 divides discards by admitted bytes.
//!
//! The switch holds packets; it never schedules events. Egress serialization
//! is the caller's job (pair each queue with a [`crate::link::Link`] and pull
//! via [`SharedBufferSwitch::dequeue`] when the link goes idle).

use crate::packet::{EcnCodepoint, Packet};
use crate::policy::{ActivePolicy, BufferPolicySpec, SharedCtx};
use crate::time::Ns;
use ms_telemetry::{DropCause, DropForensic, DropReason, SharedTelemetry, TraceBus, TraceEvent};
use ms_units::{Bps, Bytes};
use std::collections::VecDeque;

/// Arrivals remembered per quadrant for drop attribution (§8): the
/// forensic capture scans this window to split recent ingress bytes into
/// the dropping flow's own share vs competing flows'.
const ARRIVAL_WINDOW: usize = 32;

/// Simulated CPUs per server (per-CPU Millisampler counters), §3.
pub const CPUS_PER_SERVER: usize = 4;
/// Server link rate, §3: a 50 Gbps NIC shared by four servers.
pub const SERVER_LINK_BPS: Bps = Bps(12_500_000_000);
/// Server link propagation delay.
pub const SERVER_LINK_DELAY: Ns = Ns::from_micros(1);
/// NIC rate of a remote (fabric-side) sender.
pub const REMOTE_NIC_BPS: Bps = Bps(25_000_000_000);
/// One-way fabric latency between a remote sender and the ToR.
pub const FABRIC_DELAY: Ns = Ns::from_micros(20);

/// Static configuration of the shared-memory switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of egress queues (one per server in the rack scenarios).
    pub num_queues: usize,
    /// Number of buffer quadrants.
    pub num_quadrants: usize,
    /// Buffer per quadrant (dedicated reserves + shared pool).
    pub quadrant_bytes: Bytes,
    /// Dedicated reserve per queue, always admissible.
    pub dedicated_per_queue: Bytes,
    /// Static ECN marking threshold on per-queue occupancy.
    pub ecn_threshold: Bytes,
    /// Shared-pool apportioning policy (parameters ride in the variant;
    /// see [`crate::policy`] for the zoo).
    pub policy: BufferPolicySpec,
}

impl SwitchConfig {
    /// The ToR studied in the paper (§3): 16 MB buffer in four 4 MB
    /// quadrants, ~0.4 MB of each quadrant set aside as dedicated reserves
    /// (leaving ~3.6 MB shared), α = 1, and a 120 KB ECN threshold.
    ///
    /// The dedicated reserve is spread evenly over the queues mapped to a
    /// quadrant, so the shared pool is 3.6 MB regardless of rack size.
    pub fn meta_tor(num_queues: usize) -> Self {
        let num_quadrants = 4;
        let queues_per_quadrant = num_queues.div_ceil(num_quadrants).max(1);
        SwitchConfig {
            num_queues,
            num_quadrants,
            quadrant_bytes: Bytes::from_mib(4),
            dedicated_per_queue: Bytes::from_kib(400) / queues_per_quadrant as u64,
            ecn_threshold: Bytes::from_kib(120),
            policy: BufferPolicySpec::DtAlpha { alpha: 1.0 },
        }
    }

    /// Shared-pool capacity of one quadrant (quadrant minus reserves).
    pub fn shared_capacity(&self) -> Bytes {
        let queues_per_quadrant = self.num_queues.div_ceil(self.num_quadrants).max(1);
        self.quadrant_bytes
            .saturating_sub(self.dedicated_per_queue * queues_per_quadrant as u64)
    }

    /// The quadrant a queue maps to.
    pub fn quadrant_of(&self, queue: usize) -> usize {
        queue % self.num_quadrants
    }
}

/// Result of offering a packet to the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Admitted; `marked` reports whether the packet was CE-marked.
    Enqueued {
        /// Whether the ECN threshold caused a CE mark.
        marked: bool,
    },
    /// Discarded; `reason` reports which admission rule rejected it.
    Dropped {
        /// Why the buffer refused the packet.
        reason: DropReason,
    },
}

impl EnqueueOutcome {
    /// Whether the packet was admitted.
    pub fn accepted(&self) -> bool {
        matches!(self, EnqueueOutcome::Enqueued { .. })
    }
}

/// Which pool a buffered packet's bytes were drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Dedicated,
    Shared,
}

#[derive(Debug, Clone)]
struct Buffered {
    pkt: Packet,
    pool: Pool,
}

/// Per-queue cumulative counters, each with a reader: the run outcome
/// sums the byte counters, the metrics registry the high-water mark.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Bytes admitted.
    pub enq_bytes: u64,
    /// Bytes discarded by the buffer policy or pool exhaustion.
    pub drop_bytes: u64,
    /// High-water mark of queue occupancy.
    pub max_occupancy: Bytes,
}

#[derive(Debug)]
struct QueueState {
    fifo: VecDeque<Buffered>,
    dedicated_used: Bytes,
    shared_used: Bytes,
    stats: QueueStats,
    /// Flow of the most recent arrival (forensics burst tracking).
    burst_flow: u64,
    /// Consecutive arrivals from `burst_flow` — the in-progress burst
    /// length a drop forensic reports.
    burst_len: u32,
}

impl QueueState {
    fn new() -> Self {
        QueueState {
            fifo: VecDeque::new(),
            dedicated_used: Bytes::ZERO,
            shared_used: Bytes::ZERO,
            stats: QueueStats::default(),
            burst_flow: 0,
            burst_len: 0,
        }
    }

    fn occupancy(&self) -> Bytes {
        self.dedicated_used + self.shared_used
    }
}

/// The shared-memory switch.
#[derive(Debug)]
pub struct SharedBufferSwitch {
    cfg: SwitchConfig,
    queues: Vec<QueueState>,
    /// Shared-pool occupancy per quadrant.
    shared_occupancy: Vec<Bytes>,
    /// Multicast groups: group id → member queues.
    groups: Vec<(u32, Vec<usize>)>,
    /// Runtime buffer-sharing policy instantiated from `cfg.policy`.
    policy: ActivePolicy,
    /// Optional telemetry hub; `None` keeps the hot path to one branch.
    telemetry: Option<SharedTelemetry>,
    /// Cached "the hub wants drop forensics" flag so the enqueue hot path
    /// pays one branch, not a borrow, when the blackbox is off.
    forensics_on: bool,
    /// Per-quadrant ring of recent `(flow, bytes)` arrivals, flattened to
    /// `num_quadrants × ARRIVAL_WINDOW`; allocated only when forensics
    /// are enabled.
    arrivals: Vec<(u64, u32)>,
    /// Next write slot per quadrant.
    arrival_cursor: Vec<usize>,
    /// Valid entries per quadrant (saturates at [`ARRIVAL_WINDOW`]).
    arrival_len: Vec<usize>,
    /// Added to queue indices in telemetry records so multi-switch
    /// planes can attribute records per switch (see
    /// [`SharedBufferSwitch::set_queue_id_base`]).
    queue_id_base: u32,
}

impl SharedBufferSwitch {
    /// Builds a switch from configuration.
    pub fn new(cfg: SwitchConfig) -> Self {
        assert!(cfg.num_queues > 0, "switch needs at least one queue");
        assert!(cfg.num_quadrants > 0, "switch needs at least one quadrant");
        cfg.policy.assert_valid();
        let policy = ActivePolicy::from_spec(&cfg.policy);
        let queues = (0..cfg.num_queues).map(|_| QueueState::new()).collect();
        let shared_occupancy = vec![Bytes::ZERO; cfg.num_quadrants];
        SharedBufferSwitch {
            cfg,
            queues,
            shared_occupancy,
            policy,
            groups: Vec::new(),
            telemetry: None,
            forensics_on: false,
            arrivals: Vec::new(),
            arrival_cursor: Vec::new(),
            arrival_len: Vec::new(),
            queue_id_base: 0,
        }
    }

    /// Attaches a telemetry hub: every admission, drop, ECN mark, dequeue,
    /// and ECN-threshold crossing is recorded on its trace bus from now on.
    /// If the hub's forensic store has capacity, the drop forensics
    /// blackbox switches on too (its arrival window is allocated here,
    /// once — never on the enqueue path).
    pub fn set_telemetry(&mut self, telemetry: SharedTelemetry) {
        self.forensics_on = telemetry.borrow().forensics.capacity() > 0;
        if self.forensics_on {
            self.arrivals = vec![(0, 0); self.cfg.num_quadrants * ARRIVAL_WINDOW];
            self.arrival_cursor = vec![0; self.cfg.num_quadrants];
            self.arrival_len = vec![0; self.cfg.num_quadrants];
        }
        self.telemetry = Some(telemetry);
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Swaps the buffer-sharing policy at runtime. §9 of the paper
    /// discusses adapting buffer sharing to measured contention; the
    /// α-tuner and the ablation benches retune through here. Buffered
    /// packets and pool accounting are untouched — only future
    /// admissions see the new policy.
    pub fn set_policy(&mut self, spec: BufferPolicySpec) {
        spec.assert_valid();
        self.policy = ActivePolicy::from_spec(&spec);
        self.cfg.policy = spec;
    }

    /// Sets the base added to every queue index in telemetry records
    /// (trace events and drop forensics). A single-rack switch keeps
    /// the default `0`, so its records carry bare port numbers as
    /// always; a fat-tree plane gives each switch a distinct
    /// `ms_telemetry::qid::qid_base(tier, index)` so every record is
    /// attributable to one switch in one tier.
    pub fn set_queue_id_base(&mut self, base: u32) {
        self.queue_id_base = base;
    }

    /// Admission instrumentation: when a telemetry hub is attached,
    /// records the enqueue plus any ECN-threshold crossing and CE mark on
    /// the trace bus.
    fn note_admit(
        &self,
        queue: usize,
        now: Ns,
        size: u32,
        occ_before: Bytes,
        occ_after: Bytes,
        marked: bool,
    ) {
        if let Some(tr) = &self.telemetry {
            let mut tr = tr.borrow_mut();
            let ns = now.as_nanos();
            // simlint: allow(cast-truncation): queue index < num_queues
            let q = self.queue_id_base + queue as u32;
            tr.bus.record(TraceEvent::PacketEnqueue {
                ns,
                queue: q,
                size,
                occupancy: occ_after,
                marked,
            });
            self.note_threshold_cross(&mut tr.bus, ns, q, occ_before, occ_after);
            if marked {
                tr.bus.record(TraceEvent::EcnMark {
                    ns,
                    queue: q,
                    occupancy: occ_after,
                });
            }
        }
    }

    /// Records a `ThresholdCross` when a queue's occupancy moves across
    /// the static ECN threshold: up on an admission, down on a dequeue.
    fn note_threshold_cross(
        &self,
        bus: &mut TraceBus,
        ns: u64,
        queue: u32,
        occ_before: Bytes,
        occ_after: Bytes,
    ) {
        let threshold = self.cfg.ecn_threshold;
        let up = occ_after > threshold;
        if (occ_before > threshold) != up {
            bus.record(TraceEvent::ThresholdCross {
                ns,
                queue,
                occupancy: occ_after,
                threshold,
                up,
            });
        }
    }

    /// Notes one arrival for drop attribution: appends `(flow, size)` to
    /// the quadrant's arrival window and advances the queue's in-progress
    /// burst tracker. On the enqueue hot path when forensics are enabled:
    /// bounded stores and index arithmetic only — no allocation, no panic
    /// (the window was sized at attach time).
    #[inline]
    fn record_arrival(&mut self, queue: usize, quadrant: usize, flow: u64, size: u32) {
        let slot = quadrant * ARRIVAL_WINDOW + self.arrival_cursor[quadrant];
        self.arrivals[slot] = (flow, size);
        self.arrival_cursor[quadrant] += 1;
        if self.arrival_cursor[quadrant] == ARRIVAL_WINDOW {
            self.arrival_cursor[quadrant] = 0;
        }
        if self.arrival_len[quadrant] < ARRIVAL_WINDOW {
            self.arrival_len[quadrant] += 1;
        }
        let q = &mut self.queues[queue];
        if q.burst_flow == flow && q.burst_len > 0 {
            q.burst_len = q.burst_len.saturating_add(1);
        } else {
            q.burst_flow = flow;
            q.burst_len = 1;
        }
    }

    /// Splits the quadrant's recent arrival bytes into the dropping flow's
    /// own share vs competing flows' (plus the distinct competitor count)
    /// — the §8 attribution inputs.
    fn arrival_shares(&self, quadrant: usize, flow: u64) -> (u64, u64, u32) {
        let base = quadrant * ARRIVAL_WINDOW;
        let window = &self.arrivals[base..base + self.arrival_len[quadrant]];
        let mut self_bytes = 0u64;
        let mut other_bytes = 0u64;
        let mut competing = 0u32;
        for (i, &(f, bytes)) in window.iter().enumerate() {
            if f == flow {
                self_bytes += u64::from(bytes);
            } else {
                other_bytes += u64::from(bytes);
                if !window[..i].iter().any(|&(g, _)| g == f) {
                    competing += 1;
                }
            }
        }
        (self_bytes, other_bytes, competing)
    }

    /// Registers (or extends) a multicast group delivering to `queues`.
    pub fn join_multicast(&mut self, group: u32, queue: usize) {
        assert!(queue < self.cfg.num_queues);
        if let Some((_, members)) = self.groups.iter_mut().find(|(g, _)| *g == group) {
            if !members.contains(&queue) {
                members.push(queue);
            }
        } else {
            self.groups.push((group, vec![queue]));
        }
    }

    /// Member queues of a multicast group (empty if unknown).
    pub fn multicast_members(&self, group: u32) -> &[usize] {
        self.groups
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, m)| m.as_slice())
            .unwrap_or(&[])
    }

    /// The policy's view of `quadrant`'s shared pool for an admission or probe.
    /// `arriving_queue` is the queue about to receive a packet: it counts
    /// as active even while still empty, and the active-queue scan runs
    /// only for policies that ask for it, so the DT hot path stays O(1).
    fn shared_ctx(&self, quadrant: usize, arriving_queue: Option<usize>) -> SharedCtx {
        let active_queues = if self.policy.needs_active_queues() {
            let mut active = self.active_queues(quadrant) as u64;
            if let Some(q) = arriving_queue {
                if self.queues[q].fifo.is_empty() {
                    active += 1;
                }
            }
            active
        } else {
            0
        };
        SharedCtx {
            occupancy: self.shared_occupancy[quadrant],
            capacity: self.cfg.shared_capacity(),
            active_queues,
            queues_per_quadrant: self.cfg.num_queues.div_ceil(self.cfg.num_quadrants).max(1) as u64,
        }
    }

    /// The per-queue shared-pool threshold currently governing admission
    /// in `quadrant` — for DT, `α·(B_shared − Q_shared)` as an f64 product
    /// truncated to whole bytes; for the other policies, their own
    /// governing limit. This is the value every drop forensic records.
    pub fn dynamic_threshold(&self, quadrant: usize) -> Bytes {
        self.policy.threshold(&self.shared_ctx(quadrant, None))
    }

    /// Current occupancy of a queue, both pools.
    pub fn queue_occupancy(&self, queue: usize) -> Bytes {
        self.queues[queue].occupancy()
    }

    /// Current packet count of a queue.
    pub fn queue_len(&self, queue: usize) -> usize {
        self.queues[queue].fifo.len()
    }

    /// Shared-pool occupancy of a quadrant.
    pub fn shared_occupancy(&self, quadrant: usize) -> Bytes {
        self.shared_occupancy[quadrant]
    }

    /// Number of queues in `quadrant` currently holding packets — the `S`
    /// of the §2.1 analysis.
    pub fn active_queues(&self, quadrant: usize) -> usize {
        // An explicit loop, not iterator adapters: this runs on the
        // enqueue hot path when the policy needs the active-queue count.
        let mut active = 0;
        for q in 0..self.cfg.num_queues {
            if self.cfg.quadrant_of(q) == quadrant && !self.queues[q].fifo.is_empty() {
                active += 1;
            }
        }
        active
    }

    /// Per-queue counters.
    pub fn queue_stats(&self, queue: usize) -> &QueueStats {
        &self.queues[queue].stats
    }

    /// Offers `pkt` to egress `queue` at time `now`.
    ///
    /// Admission: the packet takes dedicated-reserve space if any remains
    /// for this queue (reserves are honored under every policy); otherwise
    /// it needs shared-pool space, granted only if the active
    /// [`crate::policy::ActivePolicy`] admits it *and* the pool physically
    /// fits the packet.
    ///
    /// On admission, the stored packet is CE-marked if it is ECN-capable
    /// and the queue's occupancy after enqueue exceeds the static ECN
    /// threshold, whatever the policy.
    pub fn try_enqueue(&mut self, queue: usize, mut pkt: Packet, now: Ns) -> EnqueueOutcome {
        assert!(queue < self.cfg.num_queues, "queue {queue} out of range");
        let quadrant = self.cfg.quadrant_of(queue);
        let size = Bytes(u64::from(pkt.size));
        let occ_before = self.queues[queue].occupancy();
        if self.forensics_on {
            self.record_arrival(queue, quadrant, pkt.flow.0, pkt.size);
        }

        let pool = if self.queues[queue].dedicated_used + size <= self.cfg.dedicated_per_queue {
            Pool::Dedicated
        } else {
            let fits_pool = self.shared_occupancy[quadrant] + size <= self.cfg.shared_capacity();
            let shared_ctx = self.shared_ctx(quadrant, Some(queue));
            let decision = self.policy.admit(
                self.queues[queue].shared_used,
                occ_before,
                &shared_ctx,
                size,
            );
            if decision.admitted() && fits_pool {
                Pool::Shared
            } else {
                // Which rule said no: physical pool exhaustion trumps the
                // per-queue limit; otherwise the policy names the limit.
                // (A policy that admits everything, like complete sharing,
                // only ever rejects on pool exhaustion.)
                let reason = if fits_pool {
                    decision.reason_or(DropReason::SharedBufferFull)
                } else {
                    DropReason::SharedBufferFull
                };
                self.queues[queue].stats.drop_bytes += size.as_u64();
                if let Some(tr) = &self.telemetry {
                    let flow = pkt.flow.0;
                    // The §8 attribution inputs exist only while the
                    // blackbox keeps its arrival window.
                    let (self_bytes, other_bytes, competing) = if self.forensics_on {
                        self.arrival_shares(quadrant, flow)
                    } else {
                        (0, 0, 0)
                    };
                    // The loss is self-inflicted when the dropping flow
                    // itself dominates the recent arrival window; otherwise
                    // it lost a buffer contention against competing traffic.
                    let cause = if self_bytes >= other_bytes {
                        DropCause::SelfBurst
                    } else {
                        DropCause::CrossContention
                    };
                    tr.borrow_mut().record_drop(DropForensic {
                        ns: now.as_nanos(),
                        // simlint: allow(cast-truncation): queue index < num_queues
                        queue: self.queue_id_base + queue as u32,
                        flow,
                        size: pkt.size,
                        reason,
                        cause,
                        queue_occupancy: occ_before.as_u64(),
                        shared_occupancy: self.shared_occupancy[quadrant].as_u64(),
                        dt_threshold: decision.threshold().as_u64(),
                        burst_len: self.queues[queue].burst_len,
                        competing_flows: competing,
                        self_bytes,
                        other_bytes,
                        ecn_on: occ_before > self.cfg.ecn_threshold,
                        recent_kinds: 0,
                    });
                }
                return EnqueueOutcome::Dropped { reason };
            }
        };

        match pool {
            Pool::Dedicated => self.queues[queue].dedicated_used += size,
            Pool::Shared => {
                self.queues[queue].shared_used += size;
                self.shared_occupancy[quadrant] += size;
            }
        }

        let q = &mut self.queues[queue];
        let occupancy = q.occupancy();
        q.stats.enq_bytes += size.as_u64();
        q.stats.max_occupancy = q.stats.max_occupancy.max(occupancy);

        let marked = pkt.ecn == EcnCodepoint::Ect && occupancy > self.cfg.ecn_threshold;
        if marked {
            pkt.ecn = EcnCodepoint::Ce;
        }

        let psize = pkt.size;
        q.fifo.push_back(Buffered { pkt, pool });
        self.note_admit(queue, now, psize, occ_before, occupancy, marked);
        EnqueueOutcome::Enqueued { marked }
    }

    /// Pops the head-of-line packet of `queue` at time `now`, releasing its
    /// buffer space; `None`, silently, if the queue is empty. The timestamp
    /// only feeds telemetry (occupancy tracks); admission accounting is
    /// time-independent.
    pub fn dequeue(&mut self, queue: usize, now: Ns) -> Option<Packet> {
        let quadrant = self.cfg.quadrant_of(queue);
        let q = &mut self.queues[queue];
        let occ_before = q.occupancy();
        let Buffered { pkt, pool } = q.fifo.pop_front()?;
        let size = Bytes(u64::from(pkt.size));
        match pool {
            Pool::Dedicated => {
                debug_assert!(q.dedicated_used >= size);
                q.dedicated_used -= size;
            }
            Pool::Shared => {
                debug_assert!(q.shared_used >= size);
                q.shared_used -= size;
                debug_assert!(self.shared_occupancy[quadrant] >= size);
                self.shared_occupancy[quadrant] -= size;
            }
        }
        if let Some(tr) = &self.telemetry {
            let mut tr = tr.borrow_mut();
            let ns = now.as_nanos();
            // simlint: allow(cast-truncation): queue index < num_queues
            let qid = self.queue_id_base + queue as u32;
            let occ_after = occ_before - size;
            tr.bus.record(TraceEvent::Dequeue {
                ns,
                queue: qid,
                size: pkt.size,
                occupancy: occ_after,
            });
            self.note_threshold_cross(&mut tr.bus, ns, qid, occ_before, occ_after);
        }
        Some(pkt)
    }

    /// Sum of discard bytes over all queues (cumulative).
    pub fn total_discard_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.stats.drop_bytes).sum()
    }

    /// Sum of admitted bytes over all queues (cumulative).
    pub fn total_ingress_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.stats.enq_bytes).sum()
    }

    /// Debug-time invariant check: per-queue shared usage must sum to the
    /// quadrant occupancy, and occupancy must never exceed capacity.
    pub fn check_invariants(&self) {
        for quadrant in 0..self.cfg.num_quadrants {
            let sum: Bytes = (0..self.cfg.num_queues)
                .filter(|&q| self.cfg.quadrant_of(q) == quadrant)
                .map(|q| self.queues[q].shared_used)
                .sum();
            assert_eq!(
                sum, self.shared_occupancy[quadrant],
                "quadrant {quadrant} shared accounting diverged"
            );
            assert!(
                self.shared_occupancy[quadrant] <= self.cfg.shared_capacity(),
                "quadrant {quadrant} over capacity"
            );
        }
        for (i, q) in self.queues.iter().enumerate() {
            assert!(
                q.dedicated_used <= self.cfg.dedicated_per_queue,
                "queue {i} dedicated over reserve"
            );
            let fifo_bytes: Bytes = q.fifo.iter().map(|b| Bytes(u64::from(b.pkt.size))).sum();
            assert_eq!(fifo_bytes, q.occupancy(), "queue {i} byte accounting");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn small_cfg() -> SwitchConfig {
        SwitchConfig {
            num_queues: 4,
            num_quadrants: 1,
            quadrant_bytes: Bytes(100_000),
            dedicated_per_queue: Bytes(2_000),
            ecn_threshold: Bytes(20_000),
            policy: BufferPolicySpec::DtAlpha { alpha: 1.0 },
        }
    }

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(FlowId(flow), 100, 0, 0, size)
    }

    #[test]
    fn meta_tor_shared_capacity_close_to_paper() {
        let cfg = SwitchConfig::meta_tor(32);
        // Paper: "about 3.6MB" shared per 4MB quadrant.
        let shared = cfg.shared_capacity().as_u64();
        assert!((3_500_000..=3_800_000).contains(&shared), "shared {shared}");
    }

    #[test]
    fn meta_defaults_match_paper() {
        let cfg = SwitchConfig::meta_tor(32);
        assert_eq!(SERVER_LINK_BPS, Bps(12_500_000_000));
        assert_eq!(cfg.policy, BufferPolicySpec::DtAlpha { alpha: 1.0 });
        assert_eq!(cfg.ecn_threshold, Bytes::from_kib(120));
        assert_eq!(cfg.quadrant_bytes, Bytes::from_mib(4));
    }

    #[test]
    fn one_ms_of_buffer_close_to_max_queue_share() {
        // §5: switch buffers ~1ms/queue. Max per-queue share at α=1 is
        // ~1.8MB; 1ms at 12.5Gbps is ~1.56MB: same order, slightly less.
        let cfg = SwitchConfig::meta_tor(32);
        let per_ms = Ns::from_millis(1).bytes_at_rate(SERVER_LINK_BPS).as_u64();
        let max_share = (cfg.shared_capacity() / 2).as_u64();
        assert!(per_ms as f64 / max_share as f64 > 0.7);
        assert!((per_ms as f64 / max_share as f64) < 1.3);
    }

    #[test]
    fn steady_state_share_matches_fig1_anchors() {
        // §2.1: with S fully-loaded queues each settles at αB/(1 + αS) of
        // the shared pool. α=1: B/2 for one queue, B/3 each for two;
        // α=2: 2B/3 for one, 2B/5 each for two.
        for (alpha, s, share) in [
            (1.0, 1, 0.5),
            (1.0, 2, 1.0 / 3.0),
            (2.0, 1, 2.0 / 3.0),
            (2.0, 2, 0.4),
        ] {
            let cfg = SwitchConfig {
                quadrant_bytes: Bytes(1_000_000),
                policy: BufferPolicySpec::DtAlpha { alpha },
                ..small_cfg()
            };
            let shared_cap = cfg.shared_capacity().as_u64() as f64;
            let mut sw = SharedBufferSwitch::new(cfg);
            let mut i = 0;
            let mut blocked = vec![false; s];
            while blocked.contains(&false) {
                for (q, b) in blocked.iter_mut().enumerate() {
                    i += 1;
                    if !sw.try_enqueue(q, pkt(i, 500), Ns::ZERO).accepted() {
                        *b = true;
                    }
                }
            }
            for q in 0..s {
                let got = sw.queues[q].shared_used.as_u64() as f64 / shared_cap;
                assert!(
                    (got - share).abs() < 0.005,
                    "alpha {alpha}, {s} queue(s): queue {q} share {got} vs {share}"
                );
            }
            sw.check_invariants();
        }
    }

    #[test]
    fn dedicated_reserve_always_admits() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        // Fill the shared pool from queue 1 so DT would refuse queue 0.
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(1, pkt(i, 1500), Ns::ZERO).accepted() {
                break;
            }
        }
        // Queue 0 still gets its dedicated reserve.
        assert!(sw.try_enqueue(0, pkt(999, 1500), Ns::ZERO).accepted());
        assert_eq!(sw.queue_occupancy(0), Bytes(1500));
        sw.check_invariants();
    }

    #[test]
    fn single_queue_saturates_at_half_shared_pool_alpha_1() {
        let cfg = small_cfg();
        let shared_cap = cfg.shared_capacity(); // 100k - 4*2k = 92k
        let mut sw = SharedBufferSwitch::new(cfg.clone());
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(0, pkt(i, 1000), Ns::ZERO).accepted() {
                break;
            }
        }
        // DT fixpoint: shared usage ~ shared_cap/2 (within one packet),
        // plus the dedicated reserve.
        let shared_used = sw.shared_occupancy(0);
        let target = shared_cap / 2;
        assert!(
            shared_used.abs_diff(target) <= Bytes(1000),
            "shared {shared_used} vs target {target}"
        );
        sw.check_invariants();
    }

    #[test]
    fn two_queues_settle_at_third_each() {
        let cfg = small_cfg();
        let shared_cap = cfg.shared_capacity();
        let mut sw = SharedBufferSwitch::new(cfg);
        // Alternate enqueues so both queues grow together.
        let mut i = 0;
        let mut blocked = [false; 2];
        while !(blocked[0] && blocked[1]) {
            for q in 0..2 {
                i += 1;
                if !sw.try_enqueue(q, pkt(i, 500), Ns::ZERO).accepted() {
                    blocked[q] = true;
                }
            }
        }
        for q in 0..2 {
            let used = sw.queues[q].shared_used;
            let target = shared_cap / 3;
            assert!(
                used.abs_diff(target) <= Bytes(1500),
                "queue {q} shared {used} vs {target}"
            );
        }
        sw.check_invariants();
    }

    #[test]
    fn dequeue_is_fifo_and_releases_space() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        for i in 0..5 {
            let mut p = pkt(i, 1000);
            p.seq = i * 1000;
            assert!(sw.try_enqueue(2, p, Ns::ZERO).accepted());
        }
        let occ_before = sw.queue_occupancy(2);
        for i in 0..5 {
            let p = sw.dequeue(2, Ns(i)).expect("packet");
            assert_eq!(p.seq, i * 1000);
        }
        assert_eq!(sw.queue_occupancy(2), Bytes::ZERO);
        assert!(occ_before > Bytes::ZERO);
        assert!(sw.dequeue(2, Ns(5)).is_none());
        sw.check_invariants();
    }

    #[test]
    fn ecn_marks_above_threshold_only() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let mut marked_seen = false;
        let mut unmarked_seen = false;
        for i in 0..40 {
            match sw.try_enqueue(0, pkt(i, 1000), Ns::ZERO) {
                EnqueueOutcome::Enqueued { marked } => {
                    // Threshold is 20k: the 20th packet reaches it exactly
                    // and stays unmarked; every packet past it is marked.
                    assert_eq!(marked, sw.queue_occupancy(0) > Bytes(20_000), "packet {i}");
                    unmarked_seen |= !marked;
                    marked_seen |= marked;
                }
                EnqueueOutcome::Dropped { .. } => break,
            }
        }
        assert!(marked_seen && unmarked_seen);
    }

    #[test]
    fn non_ect_packets_never_marked() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        for i in 0..40 {
            let mut p = pkt(i, 1000);
            p.ecn = EcnCodepoint::NotEct;
            if let EnqueueOutcome::Enqueued { marked } = sw.try_enqueue(0, p, Ns::ZERO) {
                assert!(!marked);
            }
        }
    }

    #[test]
    fn drops_are_counted_per_queue() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let mut drops = 0;
        for i in 0..200 {
            if !sw
                .try_enqueue(0, pkt(i, 1500), Ns::from_secs(61))
                .accepted()
            {
                drops += 1;
            }
        }
        assert!(drops > 0);
        assert_eq!(sw.queue_stats(0).drop_bytes, drops * 1500);
        assert_eq!(sw.total_discard_bytes(), drops * 1500);
    }

    #[test]
    fn multicast_membership() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        sw.join_multicast(7, 0);
        sw.join_multicast(7, 3);
        sw.join_multicast(7, 3); // idempotent
        assert_eq!(sw.multicast_members(7), &[0, 3]);
        assert!(sw.multicast_members(9).is_empty());
    }

    #[test]
    fn freeing_space_reopens_admission() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(0, pkt(i, 1000), Ns::ZERO).accepted() {
                break;
            }
        }
        // Drain half the queue; DT threshold rises as the pool frees.
        let n = sw.queue_len(0) / 2;
        for _ in 0..n {
            sw.dequeue(0, Ns::ZERO);
        }
        assert!(sw.try_enqueue(0, pkt(9999, 1000), Ns::ZERO).accepted());
        sw.check_invariants();
    }

    #[test]
    fn set_policy_retunes_admission() {
        let mut sw = SharedBufferSwitch::new(small_cfg());
        // Runtime policy retuning is visible in admission behaviour.
        sw.set_policy(BufferPolicySpec::DtAlpha { alpha: 0.25 });
        assert!(sw.dynamic_threshold(0) < sw.config().shared_capacity() / 2);
    }

    #[test]
    fn queue_id_base_offsets_every_telemetry_record() {
        // A plane switch stamps its records with its packed qid base;
        // the default base of 0 keeps single-rack records bare.
        use ms_telemetry::{Telemetry, TelemetryConfig};
        let telemetry = Telemetry::shared(TelemetryConfig::default());
        let mut sw = SharedBufferSwitch::new(small_cfg());
        sw.set_queue_id_base(0x0010_0500); // agg 5 in qid packing
        sw.set_telemetry(telemetry.clone());
        assert!(matches!(
            sw.try_enqueue(2, pkt(1, 1000), Ns(10)),
            EnqueueOutcome::Enqueued { .. }
        ));
        sw.dequeue(2, Ns(20));
        let tr = telemetry.borrow();
        let queues: Vec<u32> = tr
            .bus
            .iter()
            .map(|ev| match *ev {
                TraceEvent::PacketEnqueue { queue, .. } | TraceEvent::Dequeue { queue, .. } => {
                    queue
                }
                _ => panic!("unexpected event kind"),
            })
            .collect();
        assert_eq!(queues, vec![0x0010_0502, 0x0010_0502]);
    }

    #[test]
    fn complete_sharing_lets_one_queue_take_the_pool() {
        let mut sw = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::CompleteSharing,
            ..small_cfg()
        });
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(0, pkt(i, 1000), Ns::ZERO).accepted() {
                break;
            }
        }
        // The queue filled the whole shared pool (not just the DT half).
        let cap = sw.config().shared_capacity();
        assert!(
            sw.shared_occupancy(0) + Bytes(1000) > cap,
            "{}",
            sw.shared_occupancy(0)
        );
        sw.check_invariants();
    }

    #[test]
    fn static_partition_caps_each_queue_at_its_slice() {
        let cfg = SwitchConfig {
            policy: BufferPolicySpec::StaticPartition,
            ..small_cfg()
        };
        let slice = cfg.shared_capacity() / 4; // 4 queues, 1 quadrant
        let mut sw = SharedBufferSwitch::new(cfg);
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(0, pkt(i, 1000), Ns::ZERO).accepted() {
                break;
            }
        }
        assert!(sw.queues[0].shared_used <= slice);
        assert!(sw.queues[0].shared_used + Bytes(1000) > slice);
        // Other queues still get their slices even though queue 0 is full.
        assert!(sw.try_enqueue(1, pkt(9999, 1000), Ns::ZERO).accepted());
        sw.check_invariants();
    }

    #[test]
    fn flexible_bounds_two_active_queues_split_the_pool_evenly() {
        let cfg = SwitchConfig {
            policy: BufferPolicySpec::FlexibleBounds,
            ..small_cfg()
        };
        let half = cfg.shared_capacity() / 2;
        let mut sw = SharedBufferSwitch::new(cfg);
        let mut i = 0;
        let mut blocked = [false; 2];
        while !(blocked[0] && blocked[1]) {
            for q in 0..2 {
                i += 1;
                if !sw.try_enqueue(q, pkt(i, 500), Ns::ZERO).accepted() {
                    blocked[q] = true;
                }
            }
        }
        // Two active queues: each ceiling is the even split of the pool —
        // unlike DT/α=1, which would stop them at a third each.
        for q in 0..2 {
            let used = sw.queues[q].shared_used;
            assert!(used <= half, "queue {q} used {used} over {half}");
            assert!(used + Bytes(500) > half, "queue {q} used {used}");
        }
        sw.check_invariants();
    }

    #[test]
    fn flexible_bounds_full_quadrant_ceiling_is_the_static_slice() {
        // Every queue of the one quadrant busy, the most the switch can
        // count: FB's ceiling bottoms out at static partitioning's slice.
        let cfg = SwitchConfig {
            policy: BufferPolicySpec::FlexibleBounds,
            ..small_cfg()
        };
        let slice = cfg.shared_capacity() / cfg.num_queues as u64;
        let mut sw = SharedBufferSwitch::new(cfg);
        // 400 × 500 B round-robin is twice the quadrant: every queue fills.
        for i in 0..400 {
            sw.try_enqueue(i % 4, pkt(i as u64, 500), Ns::ZERO);
        }
        assert_eq!(sw.dynamic_threshold(0), slice);
        assert!((0..4).all(|q| sw.queues[q].shared_used + Bytes(500) > slice));
        sw.check_invariants();
    }

    #[test]
    fn flexible_bounds_lone_queue_may_take_the_whole_pool() {
        let mut sw = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::FlexibleBounds,
            ..small_cfg()
        });
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(0, pkt(i, 1000), Ns::ZERO).accepted() {
                break;
            }
        }
        // One active queue: ceiling = whole pool (DT/α=1 stops at half).
        let cap = sw.config().shared_capacity();
        assert!(sw.shared_occupancy(0) + Bytes(1000) > cap);
        sw.check_invariants();
    }

    #[test]
    fn delay_driven_caps_occupancy_at_the_delay_target() {
        // 10 µs at 12.5 Gb/s = 15 625 bytes of tolerated standing queue.
        let mut sw = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::DelayDriven {
                target: Ns::from_micros(10),
                drain: ms_units::Bps(12_500_000_000),
            },
            ..small_cfg()
        });
        let reason = loop {
            if let EnqueueOutcome::Dropped { reason } = sw.try_enqueue(0, pkt(1, 1000), Ns::ZERO) {
                break reason;
            }
        };
        assert_eq!(reason, DropReason::DelayTargetExceeded);
        let occ = sw.queue_occupancy(0);
        assert!(occ <= Bytes(15_625), "occupancy {occ}");
        assert!(occ + Bytes(1000) > Bytes(15_625), "occupancy {occ}");
        sw.check_invariants();
    }

    #[test]
    fn drop_reasons_name_the_rejecting_rule() {
        // Dynamic Threshold: the per-queue DT limit rejects first.
        let mut dt = SharedBufferSwitch::new(small_cfg());
        let mut i = 0;
        let reason = loop {
            i += 1;
            if let EnqueueOutcome::Dropped { reason } = dt.try_enqueue(0, pkt(i, 1000), Ns::ZERO) {
                break reason;
            }
        };
        assert_eq!(reason, DropReason::DynamicThresholdReject);

        // Static partition: the fixed slice cap rejects.
        let mut sp = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::StaticPartition,
            ..small_cfg()
        });
        let mut i = 0;
        let reason = loop {
            i += 1;
            if let EnqueueOutcome::Dropped { reason } = sp.try_enqueue(0, pkt(i, 1000), Ns::ZERO) {
                break reason;
            }
        };
        assert_eq!(reason, DropReason::PerQueueCap);

        // Complete sharing: only physical pool exhaustion can reject.
        let mut cs = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::CompleteSharing,
            ..small_cfg()
        });
        let mut i = 0;
        let reason = loop {
            i += 1;
            if let EnqueueOutcome::Dropped { reason } = cs.try_enqueue(0, pkt(i, 1000), Ns::ZERO) {
                break reason;
            }
        };
        assert_eq!(reason, DropReason::SharedBufferFull);
    }

    #[test]
    fn telemetry_traces_admissions_marks_and_drops() {
        use ms_telemetry::{Telemetry, TelemetryConfig};
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let hub = Telemetry::shared(TelemetryConfig::default());
        sw.set_telemetry(hub.clone());
        let mut i = 0;
        loop {
            i += 1;
            if !sw.try_enqueue(0, pkt(i, 1000), Ns(i)).accepted() {
                break;
            }
        }
        sw.dequeue(0, Ns(i + 1));
        let traced = hub.borrow().bus.recorded();
        assert_eq!(sw.dequeue(3, Ns(i + 2)), None);
        assert_eq!(
            hub.borrow().bus.recorded(),
            traced,
            "an empty pull is silent"
        );

        let hub = hub.borrow();
        let mut enqueues = 0;
        let mut drops = 0;
        let mut marks = 0;
        let mut crossings_up = 0;
        let mut dequeues = 0;
        for ev in hub.bus.iter() {
            match *ev {
                TraceEvent::PacketEnqueue { .. } => enqueues += 1,
                TraceEvent::PacketDrop { reason, .. } => {
                    assert_eq!(reason, DropReason::DynamicThresholdReject);
                    drops += 1;
                }
                TraceEvent::EcnMark { .. } => marks += 1,
                TraceEvent::ThresholdCross { up: true, .. } => crossings_up += 1,
                TraceEvent::Dequeue { .. } => dequeues += 1,
                _ => {}
            }
        }
        assert_eq!(enqueues * 1000, sw.queue_stats(0).enq_bytes);
        assert_eq!(drops, 1);
        assert!(marks > 0, "ECN threshold 20k must mark");
        assert_eq!(crossings_up, 1, "occupancy crossed the ECN threshold once");
        assert_eq!(dequeues, 1);
    }

    #[test]
    fn forensics_classify_single_flow_overflow_as_self_burst() {
        use ms_telemetry::{Telemetry, TelemetryConfig};
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let hub = Telemetry::shared(TelemetryConfig::default().with_forensics());
        sw.set_telemetry(hub.clone());
        let mut drops = 0u64;
        for i in 0..200 {
            // One flow hammering one queue: every drop is its own burst.
            if !sw.try_enqueue(0, pkt(7, 1000), Ns(i)).accepted() {
                drops += 1;
            }
        }
        assert!(drops > 0);
        let hub = hub.borrow();
        assert_eq!(hub.forensics.total(), drops, "one forensic per drop");
        assert_eq!(hub.forensics.count(DropCause::SelfBurst), drops);
        assert_eq!(hub.forensics.count(DropCause::CrossContention), 0);
        let f = hub.forensics.records()[0];
        assert_eq!(f.reason, DropReason::DynamicThresholdReject);
        assert_eq!(f.flow, 7);
        assert_eq!(f.competing_flows, 0);
        assert!(f.burst_len > 1, "the whole window was one burst");
        assert!(f.self_bytes > 0 && f.other_bytes == 0);
        assert!(f.dt_threshold > 0);
        assert!(f.queue_occupancy > 0);
        // The flight recorder saw the enqueues that filled the queue.
        assert_ne!(f.recent_kinds, 0);
    }

    #[test]
    fn forensics_classify_contended_drop_as_cross_contention() {
        use ms_telemetry::{Telemetry, TelemetryConfig};
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let hub = Telemetry::shared(TelemetryConfig::default().with_forensics());
        sw.set_telemetry(hub.clone());
        // Many flows interleaved into one queue: any single flow owns a
        // small minority of the arrival window when its packet drops.
        let mut i = 0u64;
        let mut dropped = false;
        while !dropped {
            for flow in 0..16u64 {
                i += 1;
                if !sw.try_enqueue(0, pkt(flow, 1000), Ns(i)).accepted() {
                    dropped = true;
                }
            }
        }
        let hub = hub.borrow();
        assert!(hub.forensics.count(DropCause::CrossContention) > 0);
        assert_eq!(hub.forensics.count(DropCause::SelfBurst), 0);
        let f = hub.forensics.records()[0];
        assert!(
            f.competing_flows > 1,
            "competitors seen: {}",
            f.competing_flows
        );
        assert!(f.other_bytes > f.self_bytes);
    }

    #[test]
    fn forensics_off_means_no_records_and_no_window() {
        use ms_telemetry::{Telemetry, TelemetryConfig};
        let mut sw = SharedBufferSwitch::new(small_cfg());
        let hub = Telemetry::shared(TelemetryConfig::default());
        sw.set_telemetry(hub.clone());
        for i in 0..200 {
            let _ = sw.try_enqueue(0, pkt(i, 1000), Ns(i));
        }
        assert_eq!(hub.borrow().forensics.total(), 0);
        assert!(sw.arrivals.is_empty(), "window only allocated when enabled");
    }

    #[test]
    fn higher_alpha_grants_bigger_share() {
        let mut lo = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::DtAlpha { alpha: 0.5 },
            ..small_cfg()
        });
        let mut hi = SharedBufferSwitch::new(SwitchConfig {
            policy: BufferPolicySpec::DtAlpha { alpha: 4.0 },
            ..small_cfg()
        });
        for sw in [&mut lo, &mut hi] {
            let mut i = 0;
            loop {
                i += 1;
                if !sw.try_enqueue(0, pkt(i, 500), Ns::ZERO).accepted() {
                    break;
                }
            }
        }
        assert!(hi.queue_occupancy(0) > lo.queue_occupancy(0));
    }
}
