//! Determinism regression for the switch: two runs of the same seeded
//! enqueue/dequeue schedule must produce byte-identical serialized
//! traces — outcomes, occupancies, and queue counters included. Paired
//! with `millisampler/tests/determinism.rs`, this pins the whole
//! pipeline's reproducibility claim at its two ends.

use ms_dcsim::{
    EcnCodepoint, EnqueueOutcome, FlowId, Ns, Packet, SharedBufferSwitch, SimRng, SwitchConfig,
};

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Drives a seeded workload against a fresh switch and serializes every
/// observable: per-op outcome, per-op occupancy, final stats.
fn switch_trace(seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    let cfg = SwitchConfig::meta_tor(16);
    let mut sw = SharedBufferSwitch::new(cfg);
    let queues = sw.config().num_queues;
    let mut trace = Vec::new();
    let ops = 20_000 + rng.gen_range(10_000);
    let mut now = Ns::ZERO;
    for i in 0..ops {
        now = now + Ns(rng.gen_range(50_000));
        let queue = rng.gen_range(queues as u64) as usize;
        if rng.gen_bool(0.7) {
            let size = 64 + rng.gen_range(9000 - 64) as u32;
            let mut pkt = Packet::data(FlowId(i), 0, 1, 0, size);
            if rng.gen_bool(0.2) {
                pkt.ecn = EcnCodepoint::NotEct;
            }
            match sw.try_enqueue(queue, pkt, now) {
                EnqueueOutcome::Enqueued { marked } => {
                    trace.push(if marked { 2 } else { 1 });
                }
                EnqueueOutcome::Dropped { reason } => {
                    trace.push(0);
                    trace.push(reason.code());
                }
            }
        } else {
            let popped = sw.dequeue(queue, now);
            trace.push(3);
            push_u64(&mut trace, popped.map_or(0, |p| u64::from(p.size)));
        }
        push_u64(&mut trace, sw.queue_occupancy(queue).as_u64());
        push_u64(
            &mut trace,
            sw.shared_occupancy(sw.config().quadrant_of(queue)).as_u64(),
        );
    }
    sw.check_invariants();
    for q in 0..queues {
        let st = sw.queue_stats(q);
        for v in [st.enq_bytes, st.drop_bytes, st.max_occupancy.as_u64()] {
            push_u64(&mut trace, v);
        }
    }
    trace
}

#[test]
fn identical_seeds_produce_byte_identical_traces() {
    for seed in [0xD7_0001u64, 0xD7_0002, 0xD7_0003] {
        let a = switch_trace(seed);
        let b = switch_trace(seed);
        assert_eq!(a, b, "seed {seed:#x} diverged between runs");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    assert_ne!(switch_trace(0xD7_0001), switch_trace(0xD7_0002));
}
