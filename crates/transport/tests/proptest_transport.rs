//! Randomized transport tests: reliability under arbitrary loss patterns,
//! receiver reassembly under arbitrary reordering, and congestion-window
//! sanity under arbitrary ACK streams. Inputs come from the repo's
//! deterministic [`SimRng`] (the workspace builds offline, without
//! proptest).

use ms_dcsim::{EventQueue, FlowId, Ns, Packet, SimRng};
use ms_transport::{CcAlgorithm, Receiver, Sender, SenderConfig};

/// Minimal lossy loopback: fixed delay, drop set by data-packet ordinal.
fn transfer_completes(bytes: u64, drop_ordinals: &[u64], alg: CcAlgorithm) -> bool {
    #[derive(Debug)]
    enum Ev {
        ToRx(Packet),
        ToTx(Packet),
        TxTimer,
        RxTimer,
    }
    let cfg = SenderConfig {
        algorithm: alg,
        ..SenderConfig::default()
    };
    let mut tx = Sender::new(FlowId(1), 9, 1, &cfg);
    let mut rx = Receiver::new(FlowId(1), 1, 9);
    let mut q = EventQueue::new();
    let delay = Ns::from_micros(30);
    let mut data_seen = 0u64;

    tx.push(bytes);
    tx.close();

    let send = |q: &mut EventQueue<Ev>, pkts: Vec<Packet>, data_seen: &mut u64| {
        for p in pkts {
            match p.kind {
                ms_dcsim::PacketKind::Data => {
                    *data_seen += 1;
                    if drop_ordinals.contains(data_seen) {
                        continue;
                    }
                    q.schedule(q.now() + delay, Ev::ToRx(p));
                }
                _ => q.schedule(q.now() + delay, Ev::ToTx(p)),
            }
        }
    };

    let first = tx.poll_send(Ns::ZERO);
    send(&mut q, first, &mut data_seen);
    if let Some(t) = tx.next_timer() {
        q.schedule(t, Ev::TxTimer);
    }

    let deadline = Ns::from_secs(60);
    while let Some((now, ev)) = q.pop_until(deadline) {
        match ev {
            Ev::ToRx(p) => {
                let ack = rx.on_data(now, &p);
                send(&mut q, ack.into_iter().collect(), &mut data_seen);
                if let Some(t) = rx.next_timer() {
                    q.schedule(t.max(now), Ev::RxTimer);
                }
            }
            Ev::ToTx(p) => {
                let out = tx.on_ack(now, &p);
                send(&mut q, out, &mut data_seen);
                if let Some(t) = tx.next_timer() {
                    q.schedule(t.max(now), Ev::TxTimer);
                }
            }
            Ev::TxTimer => {
                let out = tx.on_timer(now);
                send(&mut q, out, &mut data_seen);
                if let Some(t) = tx.next_timer() {
                    q.schedule(t.max(now), Ev::TxTimer);
                }
            }
            Ev::RxTimer => {
                let ack = rx.on_timer(now);
                send(&mut q, ack.into_iter().collect(), &mut data_seen);
            }
        }
        if tx.is_complete() {
            return rx.stats().bytes_delivered == bytes;
        }
    }
    false
}

#[test]
fn any_loss_pattern_is_recovered() {
    let mut rng = SimRng::new(0x7A57_0001);
    for _ in 0..48 {
        let bytes = 1_000 + rng.gen_range(199_000);
        // A random set of up to 12 distinct drop ordinals in 1..60.
        let mut drops: Vec<u64> = (0..rng.gen_range(13))
            .map(|_| 1 + rng.gen_range(59))
            .collect();
        drops.sort_unstable();
        drops.dedup();
        assert!(
            transfer_completes(bytes, &drops, CcAlgorithm::Dctcp),
            "transfer stalled: {bytes} bytes, drops {drops:?}"
        );
    }
}

#[test]
fn all_algorithms_survive_burst_loss() {
    // Drop a contiguous run of packets (burst loss, the hard case for
    // cumulative-ACK recovery).
    let mut rng = SimRng::new(0x7A57_0002);
    for _ in 0..48 {
        let start = 1 + rng.gen_range(19);
        let run_len = 1 + rng.gen_range(7);
        let drops: Vec<u64> = (start..start + run_len).collect();
        for alg in CcAlgorithm::ALL {
            assert!(
                transfer_completes(100_000, &drops, alg),
                "{alg:?} stalled on burst loss {drops:?}"
            );
        }
    }
}

#[test]
fn receiver_reassembles_any_arrival_order() {
    let mut rng = SimRng::new(0x7A57_0003);
    for _ in 0..48 {
        // Fisher-Yates shuffle of 20 segment indices.
        let mut order: Vec<usize> = (0..20).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut rx = Receiver::new(FlowId(1), 1, 9);
        let mut last_ack = 0;
        for (t, &i) in order.iter().enumerate() {
            let pkt = Packet::data(FlowId(1), 9, 1, i as u64 * 1500, 1500);
            if let Some(ack) = rx.on_data(Ns(t as u64 * 1000), &pkt) {
                assert!(ack.seq >= last_ack, "cumulative ACK went backwards");
                last_ack = ack.seq;
            }
        }
        // After all 20 segments arrive (in any order), everything is
        // delivered exactly once.
        assert_eq!(rx.rcv_nxt(), 20 * 1500);
        assert_eq!(rx.stats().bytes_delivered, 20 * 1500);
    }
}

#[test]
fn cwnd_stays_positive_under_arbitrary_acks() {
    let mut rng = SimRng::new(0x7A57_0004);
    for _ in 0..48 {
        let n = 1 + rng.gen_range(99) as usize;
        let acks: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.gen_range(200_000), rng.gen_range(20_000) as u32))
            .collect();
        let cfg = SenderConfig::default();
        let mut tx = Sender::new(FlowId(1), 9, 1, &cfg);
        tx.push(1_000_000);
        tx.poll_send(Ns::ZERO);
        for (i, &(seq, ecn)) in acks.iter().enumerate() {
            let ack = Packet::ack(FlowId(1), 1, 9, seq, ecn);
            tx.on_ack(Ns(i as u64 * 10_000), &ack);
            assert!(
                tx.cwnd() >= ms_dcsim::Bytes(1500),
                "cwnd collapsed below 1 MSS"
            );
            assert!(tx.in_flight() <= 1_000_000);
        }
    }
}
