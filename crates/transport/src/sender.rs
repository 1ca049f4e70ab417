//! The sending half of a connection.
//!
//! [`Sender`] owns the byte stream, the congestion window, loss detection
//! (three duplicate ACKs → NewReno fast retransmit; RTO → slow-start
//! restart) and the **diagnostic retransmit bit**: the first segment sent
//! after a timeout or fast retransmission carries `retx_bit`, mirroring the
//! Meta kernel instrumentation that Millisampler counts (§4.2).
//!
//! The sender is a pure state machine: `poll_send`/`on_ack`/`on_timer`
//! return packets; the caller transmits them and schedules `next_timer()`.

use crate::cc::{CcAlgorithm, CongestionWindow};
use crate::rtt::RttEstimator;
use ms_dcsim::packet::NodeId;
use ms_dcsim::{Bytes, FlowId, Ns, Packet};
use std::collections::VecDeque;

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Maximum segment size (wire bytes per full segment).
    pub mss: u32,
    /// Congestion control algorithm.
    pub algorithm: CcAlgorithm,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            mss: 1500,
            algorithm: CcAlgorithm::Dctcp,
        }
    }
}

/// Cumulative sender statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data bytes handed to the network (including retransmissions).
    pub bytes_sent: u64,
    /// Data packets handed to the network.
    pub packets_sent: u64,
    /// Retransmitted bytes.
    pub bytes_retx: u64,
    /// Fast-retransmit events.
    pub fast_retx_events: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

/// A segment in flight, for RTT sampling (Karn's algorithm).
#[derive(Debug, Clone, Copy)]
struct SentSeg {
    start: u64,
    end: u64,
    sent_at: Ns,
    retransmitted: bool,
}

/// The sending half of a one-directional connection.
#[derive(Debug)]
pub struct Sender {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    cc: CongestionWindow,
    rtt: RttEstimator,

    /// Bytes the application has committed to the stream.
    app_limit: u64,
    app_closed: bool,

    snd_una: u64,
    snd_nxt: u64,

    dup_acks: u32,
    in_recovery: bool,
    /// `snd_nxt` at the moment recovery was entered (NewReno `recover`).
    recover: u64,
    /// Set by a repair event; the next outgoing segment carries the bit.
    mark_retx_bit: bool,

    sent: VecDeque<SentSeg>,
    rto_deadline: Option<Ns>,
    stats: SenderStats,

    /// Optional telemetry hub; cwnd changes and RTO firings are traced.
    telemetry: Option<ms_telemetry::SharedTelemetry>,
    /// Last cwnd reported on the trace bus, to emit changes only.
    traced_cwnd: u64,
    /// A `FlowSpanStart` has been traced and its end has not.
    span_flow_open: bool,
    /// A `BurstSpanStart` has been traced and its end has not.
    span_burst_open: bool,
    /// A `RecoverySpanStart` has been traced and its end has not.
    span_recovery_open: bool,
    /// `snd_nxt` when the open recovery span started; the span closes on
    /// the first clean ACK at or past it.
    span_recover: u64,
}

impl Sender {
    /// Creates a sender for flow `flow` from node `src` to node `dst`.
    pub fn new(flow: FlowId, src: NodeId, dst: NodeId, cfg: &SenderConfig) -> Self {
        Sender {
            flow,
            src,
            dst,
            cc: CongestionWindow::new(cfg.algorithm, cfg.mss),
            rtt: RttEstimator::datacenter(),
            app_limit: 0,
            app_closed: false,
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            mark_retx_bit: false,
            sent: VecDeque::new(),
            rto_deadline: None,
            stats: SenderStats::default(),
            telemetry: None,
            traced_cwnd: 0,
            span_flow_open: false,
            span_burst_open: false,
            span_recovery_open: false,
            span_recover: 0,
        }
    }

    /// Attaches a telemetry hub: congestion-window changes and RTO firings
    /// are recorded on its trace bus from now on.
    pub fn set_telemetry(&mut self, telemetry: ms_telemetry::SharedTelemetry) {
        self.traced_cwnd = self.cc.cwnd();
        self.telemetry = Some(telemetry);
    }

    /// Traces a cwnd change if the congestion controller moved the window
    /// since the last report. One branch when telemetry is off.
    fn note_cwnd(&mut self, now: Ns) {
        if let Some(tr) = &self.telemetry {
            let cwnd = self.cc.cwnd();
            if cwnd != self.traced_cwnd {
                self.traced_cwnd = cwnd;
                tr.borrow_mut()
                    .bus
                    .record(ms_telemetry::TraceEvent::CwndChange {
                        ns: now.as_nanos(),
                        flow: self.flow.0,
                        cwnd: Bytes(cwnd),
                    });
            }
        }
    }

    /// Records one span event on the trace bus (no-op when detached).
    fn note_span(&self, ev: ms_telemetry::TraceEvent) {
        if let Some(tr) = &self.telemetry {
            tr.borrow_mut().bus.record(ev);
        }
    }

    /// Traces span transitions after an ACK advanced `snd_una`: recovery
    /// exit, burst drain (in-flight hit zero), and flow completion —
    /// innermost-out so the Perfetto duration events nest. One branch
    /// when telemetry is off.
    fn note_ack_spans(&mut self, now: Ns) {
        if self.telemetry.is_none() {
            return;
        }
        let ns = now.as_nanos();
        let flow = self.flow.0;
        if self.span_recovery_open && !self.in_recovery && self.snd_una >= self.span_recover {
            self.span_recovery_open = false;
            self.note_span(ms_telemetry::TraceEvent::RecoverySpanEnd { ns, flow });
        }
        if self.span_burst_open && self.in_flight() == 0 {
            self.span_burst_open = false;
            self.note_span(ms_telemetry::TraceEvent::BurstSpanEnd { ns, flow });
        }
        if self.span_flow_open && self.is_complete() {
            self.span_flow_open = false;
            self.note_span(ms_telemetry::TraceEvent::FlowSpanEnd { ns, flow });
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Makes `bytes` more stream bytes available to send.
    pub fn push(&mut self, bytes: u64) {
        assert!(!self.app_closed, "push after close");
        self.app_limit += bytes;
    }

    /// Marks the stream complete: once everything is acknowledged the
    /// connection reports [`Sender::is_complete`].
    pub fn close(&mut self) {
        self.app_closed = true;
    }

    /// All committed bytes acknowledged and the stream closed.
    pub fn is_complete(&self) -> bool {
        self.app_closed && self.snd_una >= self.app_limit
    }

    /// Bytes currently unacknowledged.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> Bytes {
        Bytes(self.cc.cwnd())
    }

    /// Bytes committed but not yet sent for the first time.
    pub fn backlog(&self) -> u64 {
        self.app_limit - self.snd_nxt
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The smoothed RTT, once sampled.
    pub fn srtt(&self) -> Option<Ns> {
        self.rtt.srtt()
    }

    /// When the retransmission timer fires next (absolute), if armed.
    pub fn next_timer(&self) -> Option<Ns> {
        self.rto_deadline
    }

    fn build_segment(&mut self, start: u64, len: u32, retransmission: bool) -> Packet {
        let mut pkt = Packet::data(self.flow, self.src, self.dst, start, len);
        pkt.is_retransmission = retransmission;
        if self.mark_retx_bit {
            pkt.retx_bit = true;
            self.mark_retx_bit = false;
        }
        self.stats.bytes_sent += len as u64;
        self.stats.packets_sent += 1;
        if retransmission {
            self.stats.bytes_retx += len as u64;
        }
        pkt
    }

    fn arm_rto(&mut self, now: Ns) {
        if self.in_flight() > 0 {
            self.rto_deadline = Some(now + self.rtt.rto());
        } else {
            self.rto_deadline = None;
        }
    }

    /// Sends as much new data as the window and the app backlog allow.
    pub fn poll_send(&mut self, now: Ns) -> Vec<Packet> {
        let was_idle = self.in_flight() == 0;
        let mut out = Vec::new();
        while self.snd_nxt < self.app_limit {
            let window_room = self.cc.cwnd().saturating_sub(self.in_flight());
            if window_room == 0 {
                break;
            }
            let len = (self.app_limit - self.snd_nxt)
                .min(u64::from(self.cc.mss()))
                .min(window_room.max(1)) as u32; // simlint: allow(cast-truncation): min with mss (u32) bounds it
                                                 // Never split below MSS while more data waits, unless the
                                                 // window forces it; always send at least something when the
                                                 // window has any room and nothing is in flight (avoid silly
                                                 // window lockout at cwnd < MSS after a timeout).
            if (len as u64) < u64::from(self.cc.mss())
                && self.app_limit - self.snd_nxt > len as u64
                && self.in_flight() > 0
            {
                break;
            }
            let start = self.snd_nxt;
            let pkt = self.build_segment(start, len, false);
            // `retransmit_head` relies on this order to stop early.
            debug_assert!(
                self.sent.back().map_or(true, |last| last.end <= start),
                "sent records are pushed in stream order"
            );
            self.sent.push_back(SentSeg {
                start,
                end: start + len as u64,
                sent_at: now,
                retransmitted: false,
            });
            self.snd_nxt += len as u64;
            out.push(pkt);
        }
        if !out.is_empty() && self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        if !out.is_empty() && self.telemetry.is_some() {
            let ns = now.as_nanos();
            let flow = self.flow.0;
            if !self.span_flow_open {
                self.span_flow_open = true;
                self.note_span(ms_telemetry::TraceEvent::FlowSpanStart { ns, flow });
            }
            if was_idle && !self.span_burst_open {
                self.span_burst_open = true;
                self.note_span(ms_telemetry::TraceEvent::BurstSpanStart { ns, flow });
            }
        }
        out
    }

    fn retransmit_head(&mut self, now: Ns) -> Packet {
        let start = self.snd_una;
        // simlint: allow(cast-truncation): min with mss (u32) bounds it
        let len = (self.snd_nxt - start).min(u64::from(self.cc.mss())) as u32;
        debug_assert!(len > 0, "retransmit with nothing outstanding");
        // Karn: mark overlapping sent records so they yield no RTT sample.
        // `sent` is ordered by `start` and holds nothing wholly acked, so
        // the overlap is a prefix: stop at the first record past it.
        let end = start + len as u64;
        for seg in self.sent.iter_mut().take_while(|seg| seg.start < end) {
            debug_assert!(seg.end > start, "a wholly acked record is still queued");
            seg.retransmitted = true;
        }
        self.mark_retx_bit = true;
        let pkt = self.build_segment(start, len, true);
        self.arm_rto(now);
        pkt
    }

    /// Processes a cumulative ACK; returns segments to transmit
    /// (retransmissions and/or new data opened up by the window).
    pub fn on_ack(&mut self, now: Ns, ack: &Packet) -> Vec<Packet> {
        debug_assert_eq!(ack.flow, self.flow);
        let ack_seq = ack.seq;
        let mut out = Vec::new();

        if ack_seq > self.snd_nxt {
            // Corrupt/impossible ACK; ignore.
            return out;
        }

        if ack_seq > self.snd_una {
            let acked_bytes = ack_seq - self.snd_una;
            self.snd_una = ack_seq;
            self.dup_acks = 0;

            // RTT sample from the newest fully-acked, never-retransmitted
            // segment (Karn's algorithm).
            let mut sample = None;
            while let Some(seg) = self.sent.front() {
                if seg.end <= ack_seq {
                    if !seg.retransmitted {
                        sample = Some(now.saturating_sub(seg.sent_at));
                    }
                    self.sent.pop_front();
                } else {
                    break;
                }
            }
            if let Some(rtt) = sample {
                self.rtt.on_sample(rtt);
            }

            if self.in_recovery {
                if ack_seq >= self.recover {
                    // Full recovery.
                    self.in_recovery = false;
                } else {
                    // NewReno partial ACK: the next hole is lost too;
                    // retransmit immediately, stay in recovery.
                    out.push(self.retransmit_head(now));
                }
            }

            self.cc.on_ack(now, acked_bytes, ack.ecn_echo_bytes as u64);

            self.arm_rto(now);
            self.note_cwnd(now);
            self.note_ack_spans(now);
        } else if ack_seq == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.stats.fast_retx_events += 1;
                self.cc.on_fast_retransmit(now);
                self.note_cwnd(now);
                if self.telemetry.is_some() && !self.span_recovery_open {
                    self.span_recovery_open = true;
                    self.span_recover = self.snd_nxt;
                    self.note_span(ms_telemetry::TraceEvent::RecoverySpanStart {
                        ns: now.as_nanos(),
                        flow: self.flow.0,
                        rto: false,
                    });
                }
                out.push(self.retransmit_head(now));
            }
        }

        out.extend(self.poll_send(now));
        out
    }

    /// Handles a timer expiration. Returns retransmissions if the RTO
    /// genuinely fired; a call before [`Sender::next_timer`] is a no-op.
    /// That makes an early call harmless, not free: the deadline moves on
    /// every ACK, so a driver should keep one re-armable timer on it
    /// (`ms_dcsim::TimerSlot`) rather than schedule an event per move and
    /// let this method discard the stale ones.
    pub fn on_timer(&mut self, now: Ns) -> Vec<Packet> {
        match self.rto_deadline {
            Some(deadline) if now >= deadline => {}
            _ => return Vec::new(), // stale or unarmed
        }
        if self.in_flight() == 0 {
            self.rto_deadline = None;
            return Vec::new();
        }
        self.stats.timeouts += 1;
        self.rtt.on_timeout();
        self.cc.on_timeout(now);
        self.in_recovery = false;
        self.dup_acks = 0;
        if let Some(tr) = &self.telemetry {
            tr.borrow_mut()
                .bus
                .record(ms_telemetry::TraceEvent::RtoFired {
                    ns: now.as_nanos(),
                    flow: self.flow.0,
                });
            // An RTO supersedes any open fast-retransmit recovery span:
            // close it and open an RTO-triggered one ending at the first
            // clean ACK past the current send point.
            let ns = now.as_nanos();
            let flow = self.flow.0;
            if self.span_recovery_open {
                self.note_span(ms_telemetry::TraceEvent::RecoverySpanEnd { ns, flow });
            }
            self.span_recovery_open = true;
            self.span_recover = self.snd_nxt;
            self.note_span(ms_telemetry::TraceEvent::RecoverySpanStart {
                ns,
                flow,
                rto: true,
            });
        }
        self.note_cwnd(now);
        vec![self.retransmit_head(now)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_dcsim::packet::PacketKind;

    fn sender() -> Sender {
        Sender::new(FlowId(1), 100, 0, &SenderConfig::default())
    }

    fn ack_pkt(seq: u64) -> Packet {
        Packet::ack(FlowId(1), 0, 100, seq, 0)
    }

    #[test]
    fn initial_send_fills_initial_window() {
        let mut s = sender();
        s.push(100_000);
        let pkts = s.poll_send(Ns::ZERO);
        // IW = 10 MSS.
        assert_eq!(pkts.len(), 10);
        assert_eq!(s.in_flight(), 15_000);
        assert!(pkts.iter().all(|p| p.kind == PacketKind::Data));
        assert!(pkts.iter().all(|p| !p.retx_bit));
        // Sequences are contiguous MSS-sized segments.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.seq, i as u64 * 1500);
            assert_eq!(p.size, 1500);
        }
        assert!(s.next_timer().is_some(), "RTO armed with data in flight");
    }

    #[test]
    fn window_blocks_until_acked() {
        let mut s = sender();
        s.push(1_000_000);
        let first = s.poll_send(Ns::ZERO);
        assert!(!first.is_empty());
        assert!(s.poll_send(Ns::ZERO).is_empty(), "window exhausted");
        // Ack half; new data flows (plus slow-start growth).
        let more = s.on_ack(Ns::from_micros(100), &ack_pkt(7_500));
        assert!(!more.is_empty());
    }

    #[test]
    fn complete_when_closed_and_fully_acked() {
        let mut s = sender();
        s.push(3_000);
        s.close();
        let pkts = s.poll_send(Ns::ZERO);
        assert_eq!(pkts.len(), 2);
        assert!(!s.is_complete());
        s.on_ack(Ns::from_micros(50), &ack_pkt(3_000));
        assert!(s.is_complete());
        assert_eq!(s.in_flight(), 0);
        assert!(s.next_timer().is_none(), "RTO disarmed when idle");
    }

    #[test]
    fn short_final_segment() {
        let mut s = sender();
        s.push(2_000); // 1500 + 500
        let pkts = s.poll_send(Ns::ZERO);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[1].size, 500);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit_with_bit() {
        let mut s = sender();
        s.push(100_000);
        s.poll_send(Ns::ZERO);
        // Three duplicate ACKs at the initial sequence.
        assert!(s.on_ack(Ns(1), &ack_pkt(0)).is_empty());
        assert!(s.on_ack(Ns(2), &ack_pkt(0)).is_empty());
        let out = s.on_ack(Ns(3), &ack_pkt(0));
        assert_eq!(s.stats().fast_retx_events, 1);
        let retx = &out[0];
        assert_eq!(retx.seq, 0);
        assert!(retx.is_retransmission);
        assert!(retx.retx_bit, "repair segment must carry the retx bit");
        // Only one retransmission per recovery entry.
        assert!(s.on_ack(Ns(4), &ack_pkt(0)).is_empty());
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = sender();
        s.push(100_000);
        s.poll_send(Ns::ZERO);
        for t in 1..=3 {
            s.on_ack(Ns(t), &ack_pkt(0));
        }
        // Partial ACK: first hole repaired, second hole revealed.
        let out = s.on_ack(Ns(10), &ack_pkt(1_500));
        let retx: Vec<_> = out.iter().filter(|p| p.is_retransmission).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 1_500);
    }

    #[test]
    fn full_ack_exits_recovery() {
        let mut s = sender();
        s.push(15_000);
        s.poll_send(Ns::ZERO);
        for t in 1..=3 {
            s.on_ack(Ns(t), &ack_pkt(0));
        }
        assert!(s.in_recovery);
        s.on_ack(Ns(20), &ack_pkt(15_000));
        assert!(!s.in_recovery);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn rto_retransmits_and_collapses_window() {
        let mut s = sender();
        s.push(15_000);
        s.poll_send(Ns::ZERO);
        let deadline = s.next_timer().unwrap();
        // Nothing happens before the deadline.
        assert!(s.on_timer(deadline - Ns(1)).is_empty());
        let out = s.on_timer(deadline);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_retransmission);
        assert!(out[0].retx_bit);
        assert_eq!(out[0].seq, 0);
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(s.cwnd(), Bytes(1500));
        // Backoff: next deadline further out than the first interval.
        let second = s.next_timer().unwrap();
        assert!(second - deadline >= deadline - Ns::ZERO);
    }

    #[test]
    fn stale_timer_event_ignored() {
        let mut s = sender();
        s.push(15_000);
        s.poll_send(Ns::ZERO);
        let first_deadline = s.next_timer().unwrap();
        // ACK everything: timer disarms; the stale event is a no-op.
        s.on_ack(Ns(100), &ack_pkt(15_000));
        assert!(s.on_timer(first_deadline).is_empty());
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn rtt_sampling_skips_retransmitted_segments() {
        let mut s = sender();
        s.push(3_000);
        s.poll_send(Ns::ZERO);
        let deadline = s.next_timer().unwrap();
        s.on_timer(deadline); // segment 0 retransmitted
                              // ACK covering the retransmitted segment must not poison SRTT with
                              // the (huge) original-send-to-ack interval... sample comes from
                              // segment 2 (never retransmitted) only.
        s.on_ack(deadline + Ns::from_micros(10), &ack_pkt(3_000));
        let srtt = s.srtt().expect("sample from clean segment");
        // Clean segment was sent at t=0 and acked at deadline+10us; that IS
        // its real RTT, so just assert a sample exists and is sane.
        assert!(srtt > Ns::ZERO);
    }

    #[test]
    fn ack_beyond_snd_nxt_ignored() {
        let mut s = sender();
        s.push(1_500);
        s.poll_send(Ns::ZERO);
        let out = s.on_ack(Ns(5), &ack_pkt(999_999));
        assert!(out.is_empty());
        assert_eq!(s.in_flight(), 1_500);
    }

    #[test]
    fn retx_bit_set_only_once_per_repair() {
        let mut s = sender();
        s.push(100_000);
        s.poll_send(Ns::ZERO);
        for t in 1..=3 {
            s.on_ack(Ns(t), &ack_pkt(0));
        }
        // Recovery exits; subsequent new data has no bit.
        let out = s.on_ack(Ns(50), &ack_pkt(15_000));
        let fresh: Vec<_> = out.iter().filter(|p| !p.is_retransmission).collect();
        assert!(!fresh.is_empty());
        assert!(fresh.iter().all(|p| !p.retx_bit));
    }

    #[test]
    fn spans_trace_flow_burst_and_recovery_in_nesting_order() {
        use ms_telemetry::{Telemetry, TelemetryConfig};
        let mut s = sender();
        let hub = Telemetry::shared(TelemetryConfig::default());
        s.set_telemetry(hub.clone());
        s.push(15_000);
        s.close();
        s.poll_send(Ns::ZERO);
        for t in 1..=3 {
            s.on_ack(Ns(t), &ack_pkt(0));
        }
        s.on_ack(Ns(20), &ack_pkt(15_000));
        assert!(s.is_complete());

        let hub = hub.borrow();
        let kinds: Vec<&str> = hub.bus.iter().map(|e| e.kind()).collect();
        let pos = |k: &str| {
            kinds
                .iter()
                .position(|x| *x == k)
                .unwrap_or_else(|| panic!("missing {k} in {kinds:?}"))
        };
        let once = |k: &str| kinds.iter().filter(|x| **x == k).count() == 1;
        for k in [
            "flow-span-start",
            "burst-span-start",
            "recovery-span-start",
            "recovery-span-end",
            "burst-span-end",
            "flow-span-end",
        ] {
            assert!(once(k), "{k} must appear exactly once: {kinds:?}");
        }
        // Proper nesting: flow ⊃ burst ⊃ recovery.
        assert!(pos("flow-span-start") < pos("burst-span-start"));
        assert!(pos("burst-span-start") < pos("recovery-span-start"));
        assert!(pos("recovery-span-end") < pos("burst-span-end"));
        assert!(pos("burst-span-end") < pos("flow-span-end"));
    }

    #[test]
    fn rto_supersedes_fast_retransmit_recovery_span() {
        use ms_telemetry::{Telemetry, TelemetryConfig, TraceEvent};
        let mut s = sender();
        let hub = Telemetry::shared(TelemetryConfig::default());
        s.set_telemetry(hub.clone());
        s.push(30_000);
        s.close();
        s.poll_send(Ns::ZERO);
        for t in 1..=3 {
            s.on_ack(Ns(t), &ack_pkt(0));
        }
        let d = s.next_timer().unwrap();
        s.on_timer(d); // RTO while fast-retx recovery is open
        let mut t = d;
        for _ in 0..64 {
            if s.is_complete() {
                break;
            }
            t = t + Ns(1000);
            let nxt = s.snd_nxt;
            s.on_ack(t, &ack_pkt(nxt));
            s.poll_send(t);
        }
        assert!(s.is_complete());

        let hub = hub.borrow();
        let mut starts = Vec::new();
        let mut ends = 0;
        for ev in hub.bus.iter() {
            match *ev {
                TraceEvent::RecoverySpanStart { rto, .. } => starts.push(rto),
                TraceEvent::RecoverySpanEnd { .. } => ends += 1,
                _ => {}
            }
        }
        assert_eq!(starts, vec![false, true], "fast-retx then rto trigger");
        assert_eq!(ends, 2, "both recovery spans closed");
    }

    #[test]
    fn cwnd_below_mss_still_sends_when_idle() {
        // After a timeout cwnd = 1 MSS; ensure forward progress.
        let mut s = sender();
        s.push(50_000);
        s.poll_send(Ns::ZERO);
        let d = s.next_timer().unwrap();
        s.on_timer(d);
        // ACK the retransmission: window tiny but data must still flow.
        let out = s.on_ack(d + Ns(1000), &ack_pkt(15_000));
        assert!(!out.is_empty(), "sender stalled after timeout");
    }
}
