//! End-to-end transport tests: a Sender and Receiver wired through a
//! deterministic delay pipe built on the dcsim event queue, with optional
//! bottleneck-rate limiting and fault injection — the smoltcp-style
//! "loopback" exercise for the sans-io state machines.

use ms_dcsim::fault::DropInjector;
use ms_dcsim::packet::PacketKind;
use ms_dcsim::{Bps, Bytes, EventQueue, FlowId, Link, Ns, Packet, TimerSlot};
use ms_transport::{CcAlgorithm, Receiver, RttEstimator, Sender, SenderConfig};

#[derive(Debug)]
enum Ev {
    /// Packet arrives at the receiver host.
    ToReceiver(Packet),
    /// Packet arrives back at the sender host.
    ToSender(Packet),
    SenderTimer,
    ReceiverTimer,
}

/// Karn's rule by the full walk: the sender's RTT bookkeeping redone from
/// the packets it emits and the ACKs it gets, with every retransmission
/// checked against *every* record in flight. `Sender::retransmit_head`
/// stops at the first record past the repaired range; its samples must be
/// the ones this gives.
struct FullWalk {
    /// `(start, end, sent_at, retransmitted)` of each segment in flight.
    sent: Vec<(u64, u64, Ns, bool)>,
    snd_una: u64,
    rtt: RttEstimator,
    samples: u64,
    /// Most records a retransmission found in flight.
    max_walk: usize,
}

impl FullWalk {
    fn on_data_out(&mut self, now: Ns, p: &Packet) {
        let (start, end) = (p.seq, p.seq + u64::from(p.size));
        if !p.is_retransmission {
            self.sent.push((start, end, now, false));
            return;
        }
        self.max_walk = self.max_walk.max(self.sent.len());
        for seg in &mut self.sent {
            if seg.0 < end && seg.1 > start {
                seg.3 = true;
            }
        }
    }

    fn on_ack_in(&mut self, now: Ns, ack_seq: u64) {
        if ack_seq <= self.snd_una {
            return;
        }
        self.snd_una = ack_seq;
        let mut sample = None;
        self.sent.retain(|&(_, end, sent_at, retransmitted)| {
            if end <= ack_seq && !retransmitted {
                sample = Some(now - sent_at);
            }
            end > ack_seq
        });
        if let Some(rtt) = sample {
            self.rtt.on_sample(rtt);
            self.samples += 1;
        }
    }
}

/// A tiny closed-loop harness: one flow over a bottleneck link and a fixed
/// return delay. Returns (completion_time, sender, receiver).
struct Loopback {
    q: EventQueue<Ev>,
    tx: Sender,
    rx: Receiver,
    /// The RTO and delayed-ACK timers, driven as `RackSim` drives them.
    tx_timer: TimerSlot,
    rx_timer: TimerSlot,
    bottleneck: Link,
    back_delay: Ns,
    drops: Option<DropInjector>,
    /// Drop exactly these data-packet ordinals (1-based), for surgical
    /// loss tests.
    drop_ordinals: Vec<u64>,
    data_seen: u64,
    /// Checked against the sender's smoothed RTT after every ACK.
    karn: FullWalk,
}

impl Loopback {
    fn new(algorithm: CcAlgorithm, rate: Bps, delay: Ns) -> Self {
        let cfg = SenderConfig {
            algorithm,
            ..SenderConfig::default()
        };
        Loopback {
            q: EventQueue::new(),
            tx: Sender::new(FlowId(1), 100, 0, &cfg),
            rx: Receiver::new(FlowId(1), 0, 100),
            tx_timer: TimerSlot::default(),
            rx_timer: TimerSlot::default(),
            bottleneck: Link::new(rate, delay),
            back_delay: delay,
            drops: None,
            drop_ordinals: Vec::new(),
            data_seen: 0,
            karn: FullWalk {
                sent: Vec::new(),
                snd_una: 0,
                rtt: RttEstimator::datacenter(),
                samples: 0,
                max_walk: 0,
            },
        }
    }

    fn send_packets(&mut self, pkts: Vec<Packet>) {
        for p in pkts {
            match p.kind {
                PacketKind::Data => {
                    self.karn.on_data_out(self.q.now(), &p);
                    self.data_seen += 1;
                    if self.drop_ordinals.contains(&self.data_seen) {
                        continue;
                    }
                    if let Some(inj) = &mut self.drops {
                        if inj.should_drop() {
                            continue;
                        }
                    }
                    let (_, arrive) = self.bottleneck.transmit(self.q.now(), p.size);
                    self.q.schedule(arrive, Ev::ToReceiver(p));
                }
                PacketKind::Ack => {
                    let at = self.q.now() + self.back_delay;
                    self.q.schedule(at, Ev::ToSender(p));
                }
                PacketKind::Multicast => unreachable!(),
            }
        }
    }

    fn sync_timers(&mut self) {
        self.tx_timer
            .arm(&mut self.q, self.tx.next_timer(), || Ev::SenderTimer);
        self.rx_timer
            .arm(&mut self.q, self.rx.next_timer(), || Ev::ReceiverTimer);
    }

    /// Runs until the sender completes or the deadline passes.
    fn run(&mut self, bytes: u64, deadline: Ns) -> Option<Ns> {
        self.tx.push(bytes);
        self.tx.close();
        let first = self.tx.poll_send(Ns::ZERO);
        self.send_packets(first);
        self.sync_timers();

        while let Some((now, ev)) = self.q.pop_until(deadline) {
            match ev {
                Ev::ToReceiver(p) => {
                    let ack = self.rx.on_data(now, &p);
                    self.send_packets(ack.into_iter().collect());
                }
                Ev::ToSender(p) => {
                    let out = self.tx.on_ack(now, &p);
                    self.karn.on_ack_in(now, p.seq);
                    assert_eq!(self.tx.srtt(), self.karn.rtt.srtt(), "RTT sample at {now}");
                    self.send_packets(out);
                }
                Ev::SenderTimer => {
                    if self.tx_timer.on_pop(&mut self.q, || Ev::SenderTimer) {
                        let out = self.tx.on_timer(now);
                        self.send_packets(out);
                    }
                }
                Ev::ReceiverTimer => {
                    if self.rx_timer.on_pop(&mut self.q, || Ev::ReceiverTimer) {
                        let ack = self.rx.on_timer(now);
                        self.send_packets(ack.into_iter().collect());
                    }
                }
            }
            self.sync_timers();
            if self.tx.is_complete() {
                return Some(self.q.now());
            }
        }
        None
    }
}

#[test]
fn clean_transfer_completes_for_all_algorithms() {
    for alg in CcAlgorithm::ALL {
        let mut lb = Loopback::new(alg, Bps(10_000_000_000), Ns::from_micros(20));
        let done = lb
            .run(1_000_000, Ns::from_secs(5))
            .unwrap_or_else(|| panic!("{alg:?} did not complete"));
        // 1 MB at 10 Gbps is 800 µs of serialization; slow start and ACK
        // clocking stretch that, but it must finish well under 50 ms.
        assert!(done < Ns::from_millis(50), "{alg:?} took {done}");
        assert_eq!(lb.rx.stats().bytes_delivered, 1_000_000);
        assert_eq!(lb.tx.stats().bytes_retx, 0, "{alg:?} clean path retx");
    }
}

#[test]
fn throughput_approaches_bottleneck_rate() {
    // 10 MB over a 5 Gbps link, 10 µs delay: ideal time = 16 ms.
    let mut lb = Loopback::new(CcAlgorithm::Dctcp, Bps(5_000_000_000), Ns::from_micros(10));
    let done = lb.run(10_000_000, Ns::from_secs(5)).expect("complete");
    let ideal = Ns::tx_time(Bytes(10_000_000), Bps(5_000_000_000));
    let efficiency = ideal.as_secs_f64() / done.as_secs_f64();
    assert!(
        efficiency > 0.80,
        "efficiency {efficiency:.2} (done {done}, ideal {ideal})"
    );
}

#[test]
fn single_loss_repaired_by_fast_retransmit() {
    let mut lb = Loopback::new(CcAlgorithm::Dctcp, Bps(10_000_000_000), Ns::from_micros(20));
    lb.drop_ordinals = vec![3];
    let done = lb.run(500_000, Ns::from_secs(5)).expect("complete");
    assert_eq!(lb.rx.stats().bytes_delivered, 500_000);
    assert_eq!(lb.tx.stats().fast_retx_events, 1);
    assert_eq!(lb.tx.stats().timeouts, 0, "fast retx should beat the RTO");
    // The repair carried the diagnostic bit and the receiver saw it.
    assert_eq!(lb.rx.stats().retx_bit_packets, 1);
    assert!(done < Ns::from_millis(50));
}

#[test]
fn tail_loss_repaired_by_rto() {
    let mut lb = Loopback::new(CcAlgorithm::Dctcp, Bps(10_000_000_000), Ns::from_micros(20));
    // 3000 bytes = 2 segments; drop the last one (no dupacks possible).
    lb.drop_ordinals = vec![2];
    let done = lb.run(3_000, Ns::from_secs(5)).expect("complete");
    assert_eq!(lb.tx.stats().timeouts, 1);
    assert_eq!(lb.rx.stats().bytes_delivered, 3_000);
    // RTO floor is 4ms; completion must be just past it.
    assert!(
        done >= Ns::from_millis(4) && done < Ns::from_millis(40),
        "{done}"
    );
}

#[test]
fn random_loss_still_completes() {
    for seed in 0..5 {
        let mut lb = Loopback::new(CcAlgorithm::Dctcp, Bps(10_000_000_000), Ns::from_micros(20));
        lb.drops = Some(DropInjector::new(seed, 0.03));
        lb.run(2_000_000, Ns::from_secs(30))
            .unwrap_or_else(|| panic!("seed {seed} did not complete"));
        assert_eq!(lb.rx.stats().bytes_delivered, 2_000_000);
        assert!(lb.tx.stats().bytes_retx > 0, "3% loss must cause retx");
    }
}

#[test]
fn loss_makes_transfer_slower() {
    let clean = {
        let mut lb = Loopback::new(CcAlgorithm::Reno, Bps(10_000_000_000), Ns::from_micros(20));
        lb.run(2_000_000, Ns::from_secs(30)).unwrap()
    };
    let lossy = {
        let mut lb = Loopback::new(CcAlgorithm::Reno, Bps(10_000_000_000), Ns::from_micros(20));
        lb.drops = Some(DropInjector::new(7, 0.05));
        lb.run(2_000_000, Ns::from_secs(30)).unwrap()
    };
    assert!(lossy > clean, "lossy {lossy} <= clean {clean}");
}

#[test]
fn deterministic_under_fixed_seed() {
    let run = |seed| {
        let mut lb = Loopback::new(CcAlgorithm::Dctcp, Bps(10_000_000_000), Ns::from_micros(20));
        lb.drops = Some(DropInjector::new(seed, 0.02));
        let t = lb.run(1_000_000, Ns::from_secs(30)).unwrap();
        (t, lb.tx.stats(), lb.rx.stats().acks_sent)
    };
    assert_eq!(run(42), run(42), "same seed must reproduce bit-for-bit");
}

#[test]
fn karn_marks_by_the_short_walk_equal_the_full_walk_on_a_lossy_flight() {
    // A 100 µs pipe at 10 Gb/s keeps ~170 segments in flight; 2 % random
    // loss plus a lost run of eight repairs by fast retransmit, by NewReno
    // partial ACKs and by RTO, each with a long record list behind the
    // repaired segment. `Loopback::run` compares the smoothed RTT with the
    // full walk's after every ACK.
    let mut lb = Loopback::new(CcAlgorithm::Reno, Bps(10_000_000_000), Ns::from_micros(100));
    lb.drops = Some(DropInjector::new(11, 0.02));
    lb.drop_ordinals = (400..408).collect();
    let done = lb.run(4_000_000, Ns::from_secs(30)).expect("completes");
    let stats = lb.tx.stats();
    assert!(
        stats.fast_retx_events > 5 && stats.timeouts > 0,
        "{stats:?}"
    );
    assert!(
        lb.karn.max_walk > 50,
        "a retransmission found {} records",
        lb.karn.max_walk
    );
    assert!(lb.karn.samples > 500, "{} samples", lb.karn.samples);
    // Time and counters as the full walk in `retransmit_head` left them
    // (captured on the commit before the walk was cut short).
    assert_eq!(done, Ns(1_083_030_400));
    assert_eq!(
        stats,
        ms_transport::sender::SenderStats {
            bytes_sent: 4_090_000,
            packets_sent: 2727,
            bytes_retx: 90_000,
            fast_retx_events: 39,
            timeouts: 9,
        }
    );
}
