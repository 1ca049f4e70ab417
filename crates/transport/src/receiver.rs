//! The receiving half of a connection.
//!
//! [`Receiver`] reassembles the byte stream (tracking out-of-order
//! intervals), generates cumulative ACKs with **ECN echo** (the count of
//! CE-marked bytes since the last ACK, which DCTCP senders use to estimate
//! the marked fraction), sends immediate duplicate ACKs on out-of-order
//! arrivals (feeding the sender's fast retransmit), and implements delayed
//! ACKs (every 2nd in-order segment, or a 500 µs timer).

use ms_dcsim::packet::{NodeId, PacketKind};
use ms_dcsim::{FlowId, Ns, Packet};

/// Cumulative receiver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// In-sequence stream bytes delivered (each byte counted once).
    pub bytes_delivered: u64,
    /// Bytes that arrived entirely below `rcv_nxt` (spurious retransmits).
    pub duplicate_bytes: u64,
    /// CE-marked bytes observed.
    pub ce_bytes: u64,
    /// ACKs generated.
    pub acks_sent: u64,
    /// Data packets that arrived out of order.
    pub ooo_packets: u64,
    /// Data packets observed carrying the diagnostic retransmit bit.
    pub retx_bit_packets: u64,
}

/// The receiving half of a one-directional connection.
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    /// This host (ACK source).
    host: NodeId,
    /// The remote sender (ACK destination).
    peer: NodeId,
    rcv_nxt: u64,
    /// Sorted, disjoint out-of-order intervals above `rcv_nxt`.
    ooo: Vec<(u64, u64)>,
    /// CE-marked bytes since the last ACK (echoed on the next ACK).
    pending_ce: u32,
    /// In-order segments since the last ACK.
    segs_since_ack: u32,
    /// ACK every n in-order segments.
    ack_every: u32,
    /// Delayed-ACK timeout.
    delack_after: Ns,
    delack_deadline: Option<Ns>,
    stats: ReceiverStats,
    /// Trace sink for head-of-line-wait spans; `None` = tracing off.
    telemetry: Option<ms_telemetry::SharedTelemetry>,
    /// A `hol-wait` span is open (reordered data buffered above a hole).
    hol_open: bool,
}

impl Receiver {
    /// Creates a receiver on `host` for `flow` from `peer`.
    pub fn new(flow: FlowId, host: NodeId, peer: NodeId) -> Self {
        Receiver {
            flow,
            host,
            peer,
            rcv_nxt: 0,
            ooo: Vec::new(),
            pending_ce: 0,
            segs_since_ack: 0,
            ack_every: 2,
            delack_after: Ns::from_micros(500),
            delack_deadline: None,
            stats: ReceiverStats::default(),
            telemetry: None,
            hol_open: false,
        }
    }

    /// Attaches a telemetry hub; the receiver then emits `hol-wait` spans
    /// covering the time reordered data sits buffered behind a hole.
    pub fn set_telemetry(&mut self, telemetry: ms_telemetry::SharedTelemetry) {
        self.telemetry = Some(telemetry);
    }

    #[inline]
    fn note_hol(&self, ev: ms_telemetry::TraceEvent) {
        if let Some(tr) = &self.telemetry {
            tr.borrow_mut().bus.record(ev);
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Next expected stream byte.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// The pending delayed-ACK deadline, if armed.
    pub fn next_timer(&self) -> Option<Ns> {
        self.delack_deadline
    }

    fn make_ack(&mut self) -> Packet {
        self.stats.acks_sent += 1;
        self.segs_since_ack = 0;
        self.delack_deadline = None;
        let ce = self.pending_ce;
        self.pending_ce = 0;
        Packet::ack(self.flow, self.host, self.peer, self.rcv_nxt, ce)
    }

    /// Absorbs adjacent out-of-order intervals into `rcv_nxt`.
    fn merge_ooo(&mut self) {
        while let Some(&(start, end)) = self.ooo.first() {
            if start <= self.rcv_nxt {
                if end > self.rcv_nxt {
                    self.stats.bytes_delivered += end - self.rcv_nxt;
                    self.rcv_nxt = end;
                }
                self.ooo.remove(0);
            } else {
                break;
            }
        }
    }

    fn insert_ooo(&mut self, start: u64, end: u64) {
        // Insert and coalesce overlapping intervals, keeping order.
        let mut merged = (start, end);
        let mut out = Vec::with_capacity(self.ooo.len() + 1);
        for &(s, e) in &self.ooo {
            if e < merged.0 || s > merged.1 {
                out.push((s, e));
            } else {
                merged = (merged.0.min(s), merged.1.max(e));
            }
        }
        out.push(merged);
        out.sort_unstable();
        self.ooo = out;
    }

    /// Processes an arriving data segment; returns an ACK when one is due.
    pub fn on_data(&mut self, now: Ns, pkt: &Packet) -> Option<Packet> {
        debug_assert_eq!(pkt.flow, self.flow);
        debug_assert_eq!(pkt.kind, PacketKind::Data);
        let start = pkt.seq;
        let end = pkt.seq + pkt.size as u64;

        if pkt.is_ce() {
            self.pending_ce = self.pending_ce.saturating_add(pkt.size);
            self.stats.ce_bytes += pkt.size as u64;
        }
        if pkt.retx_bit {
            self.stats.retx_bit_packets += 1;
        }

        if end <= self.rcv_nxt {
            // Entirely duplicate data: ACK immediately to resync the peer.
            self.stats.duplicate_bytes += pkt.size as u64;
            return Some(self.make_ack());
        }

        if start <= self.rcv_nxt {
            // In-order (possibly partially duplicate) delivery.
            let filled_hole = !self.ooo.is_empty();
            let new_bytes = end - self.rcv_nxt;
            self.stats.bytes_delivered += new_bytes;
            self.rcv_nxt = end;
            self.merge_ooo();
            if self.hol_open && self.ooo.is_empty() {
                self.hol_open = false;
                self.note_hol(ms_telemetry::TraceEvent::HolSpanEnd {
                    ns: now.as_nanos(),
                    flow: self.flow.0,
                });
            }
            self.segs_since_ack += 1;
            // ACK immediately on the usual cadence, while reordered data is
            // buffered, or when this segment just filled a hole (so the
            // sender learns about the repaired sequence space at once).
            if self.segs_since_ack >= self.ack_every || !self.ooo.is_empty() || filled_hole {
                return Some(self.make_ack());
            }
            if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + self.delack_after);
            }
            None
        } else {
            // Out of order: remember the interval, duplicate-ACK now.
            self.stats.ooo_packets += 1;
            if !self.hol_open && self.telemetry.is_some() {
                self.hol_open = true;
                self.note_hol(ms_telemetry::TraceEvent::HolSpanStart {
                    ns: now.as_nanos(),
                    flow: self.flow.0,
                });
            }
            self.insert_ooo(start, end);
            Some(self.make_ack())
        }
    }

    /// Handles a delayed-ACK timer expiration; a call before
    /// [`Receiver::next_timer`] is a no-op. As with `Sender::on_timer`,
    /// drive it from one re-armable timer (`ms_dcsim::TimerSlot`), not
    /// from an event per armed deadline.
    pub fn on_timer(&mut self, now: Ns) -> Option<Packet> {
        match self.delack_deadline {
            Some(deadline) if now >= deadline => Some(self.make_ack()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, size: u32) -> Packet {
        Packet::data(FlowId(1), 100, 0, seq, size)
    }

    fn rx() -> Receiver {
        Receiver::new(FlowId(1), 0, 100)
    }

    #[test]
    fn in_order_delivery_acks_every_second_segment() {
        let mut r = rx();
        assert!(r.on_data(Ns(0), &data(0, 1500)).is_none());
        let ack = r.on_data(Ns(10), &data(1500, 1500)).expect("ack");
        assert_eq!(ack.seq, 3000);
        assert_eq!(r.rcv_nxt(), 3000);
        assert_eq!(ack.src, 0);
        assert_eq!(ack.dst, 100);
    }

    #[test]
    fn delayed_ack_fires_on_timer() {
        let mut r = rx();
        assert!(r.on_data(Ns(0), &data(0, 1500)).is_none());
        let deadline = r.next_timer().expect("delack armed");
        assert!(r.on_timer(deadline - Ns(1)).is_none(), "not yet");
        let ack = r.on_timer(deadline).expect("delack fired");
        assert_eq!(ack.seq, 1500);
        assert!(r.next_timer().is_none());
    }

    #[test]
    fn out_of_order_triggers_immediate_dup_ack() {
        let mut r = rx();
        r.on_data(Ns(0), &data(0, 1500));
        // Segment 2 lost, segment 3 arrives.
        let dup = r.on_data(Ns(10), &data(3000, 1500)).expect("dup ack");
        assert_eq!(dup.seq, 1500, "cumulative ACK stays at the hole");
        let dup2 = r.on_data(Ns(20), &data(4500, 1500)).expect("dup ack");
        assert_eq!(dup2.seq, 1500);
        assert_eq!(r.stats().ooo_packets, 2);
    }

    #[test]
    fn hole_fill_advances_over_buffered_data() {
        let mut r = rx();
        r.on_data(Ns(0), &data(0, 1500));
        r.on_data(Ns(1), &data(3000, 1500));
        r.on_data(Ns(2), &data(4500, 1500));
        // The retransmission filling the hole jumps rcv_nxt over the
        // buffered out-of-order intervals.
        let ack = r.on_data(Ns(3), &data(1500, 1500)).expect("ack");
        assert_eq!(ack.seq, 6000);
        assert_eq!(r.stats().bytes_delivered, 6000);
    }

    #[test]
    fn duplicate_segments_acked_but_not_delivered_twice() {
        let mut r = rx();
        r.on_data(Ns(0), &data(0, 1500));
        r.on_data(Ns(1), &data(1500, 1500));
        let before = r.stats().bytes_delivered;
        let ack = r.on_data(Ns(2), &data(0, 1500)).expect("resync ack");
        assert_eq!(ack.seq, 3000);
        assert_eq!(r.stats().bytes_delivered, before);
        assert_eq!(r.stats().duplicate_bytes, 1500);
    }

    #[test]
    fn ecn_echo_accumulates_and_clears() {
        let mut r = rx();
        let mut ce = data(0, 1500);
        ce.ecn = ms_dcsim::EcnCodepoint::Ce;
        r.on_data(Ns(0), &ce);
        let mut ce2 = data(1500, 1500);
        ce2.ecn = ms_dcsim::EcnCodepoint::Ce;
        let ack = r.on_data(Ns(1), &ce2).expect("ack");
        assert_eq!(ack.ecn_echo_bytes, 3000);
        // Echo cleared after being sent.
        r.on_data(Ns(2), &data(3000, 1500));
        let ack2 = r.on_data(Ns(3), &data(4500, 1500)).expect("ack");
        assert_eq!(ack2.ecn_echo_bytes, 0);
    }

    #[test]
    fn retx_bit_counted() {
        let mut r = rx();
        let mut p = data(0, 1500);
        p.retx_bit = true;
        r.on_data(Ns(0), &p);
        assert_eq!(r.stats().retx_bit_packets, 1);
    }

    #[test]
    fn hol_wait_span_brackets_the_reordering_episode() {
        use ms_telemetry::{Telemetry, TelemetryConfig, TraceEvent};
        let mut r = rx();
        let hub = Telemetry::shared(TelemetryConfig::default());
        r.set_telemetry(hub.clone());
        r.on_data(Ns(0), &data(0, 1500));
        r.on_data(Ns(10), &data(3000, 1500)); // hole opens
        r.on_data(Ns(20), &data(4500, 1500)); // still the same episode
        r.on_data(Ns(30), &data(1500, 1500)); // hole filled
                                              // A second, separate episode.
        r.on_data(Ns(40), &data(7500, 1500));
        r.on_data(Ns(50), &data(6000, 1500));
        let hub = hub.borrow();
        let spans: Vec<(u64, &str)> = hub
            .bus
            .iter()
            .filter_map(|e| match e {
                TraceEvent::HolSpanStart { ns, .. } => Some((*ns, "start")),
                TraceEvent::HolSpanEnd { ns, .. } => Some((*ns, "end")),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![(10, "start"), (30, "end"), (40, "start"), (50, "end")]
        );
    }

    #[test]
    fn overlapping_ooo_intervals_coalesce() {
        let mut r = rx();
        r.on_data(Ns(0), &data(3000, 1500));
        r.on_data(Ns(1), &data(3750, 1500)); // overlaps previous
        r.on_data(Ns(2), &data(6000, 1500)); // disjoint
        assert_eq!(r.ooo, vec![(3000, 5250), (6000, 7500)]);
        // Fill from 0: everything up to 5250 delivered, hole remains.
        let ack = r.on_data(Ns(3), &data(0, 3000)).expect("ack");
        assert_eq!(ack.seq, 5250);
    }
}
