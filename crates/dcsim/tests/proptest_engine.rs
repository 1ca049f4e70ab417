//! Randomized tests for the event queue and link serialization, driven by
//! the repo's deterministic [`SimRng`] (the workspace builds offline,
//! without proptest).

use ms_dcsim::{Bps, Bytes, EventQueue, Link, Ns, SimRng};
use std::collections::BTreeMap;

#[test]
fn pops_are_time_sorted_and_fifo_stable() {
    let mut rng = SimRng::new(0xE1E1_0001);
    for _ in 0..128 {
        let len = 1 + rng.gen_range(299) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.gen_range(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Ns(t), i);
        }
        let mut popped: Vec<(Ns, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
    }
}

/// The engine's calendar geometry (`BUCKET_SHIFT`, `RING_BUCKETS` in
/// `engine.rs`, private there): the delays below are aimed at its
/// boundaries. Were the engine's numbers to change, the model check would
/// still hold — only its aim would be off.
const BUCKET_NS: u64 = 1 << 10;
const RING: u64 = 8192;

/// An [`EventQueue`] and the reference it must agree with: the pending
/// `(at, seq)` keys in a sorted map, the key last popped, and the deepest
/// the map has been. Every operation goes to both and ends in `check`.
struct Checked {
    q: EventQueue<u64>,
    model: BTreeMap<(Ns, u64), u64>,
    next_seq: u64,
    next_payload: u64,
    last_popped: Option<(Ns, u64)>,
    high_water: usize,
    rng: SimRng,
}

impl Checked {
    fn new(seed: u64) -> Self {
        Checked {
            q: EventQueue::new(),
            model: BTreeMap::new(),
            next_seq: 0,
            next_payload: 0,
            last_popped: None,
            high_water: 0,
            rng: SimRng::new(seed),
        }
    }

    fn now(&self) -> Ns {
        self.last_popped.map_or(Ns::ZERO, |(at, _)| at)
    }

    fn has_popped(&self, at: Ns, seq: u64) -> bool {
        self.last_popped.is_some_and(|last| (at, seq) <= last)
    }

    fn check(&mut self) {
        assert_eq!(self.q.len(), self.model.len());
        assert_eq!(self.q.is_empty(), self.model.is_empty());
        let first = self.model.keys().next().copied();
        assert_eq!(self.q.peek_time(), first.map(|(at, _)| at));
        let now = self.now();
        assert_eq!(self.q.now(), now);
        assert_eq!(self.q.pending_now(), first.is_some_and(|(at, _)| at == now));
        assert_eq!(self.q.depth_high_water(), self.high_water);
        // Keys around the dispatching one, on both sides of it.
        let mut probes = vec![(now, self.rng.gen_range(self.next_seq + 1))];
        probes.extend(self.last_popped);
        probes.extend(self.last_popped.map(|(at, seq)| (at, seq + 1)));
        probes.extend(first);
        probes.push((Ns(now.0.saturating_sub(1)), u64::MAX));
        for (at, seq) in probes {
            assert_eq!(self.q.has_popped(at, seq), self.has_popped(at, seq));
        }
    }

    fn pushed(&mut self, at: Ns, seq: u64) {
        self.model.insert((at, seq), self.next_payload);
        self.next_payload += 1;
        self.high_water = self.high_water.max(self.model.len());
        self.check();
    }

    fn schedule(&mut self, at: Ns) {
        self.q.schedule(at, self.next_payload);
        self.next_seq += 1;
        self.pushed(at, self.next_seq - 1);
    }

    fn reserve(&mut self) -> u64 {
        let seq = self.q.reserve_seq();
        assert_eq!(seq, self.next_seq);
        self.next_seq += 1;
        self.check();
        seq
    }

    /// Pushes under a number reserved earlier, unless that key has passed
    /// (a `DrainSlot` asks the same question before it pushes).
    fn schedule_keyed(&mut self, at: Ns, seq: u64) {
        if at >= self.now() && !self.has_popped(at, seq) {
            self.q.schedule_keyed(at, seq, self.next_payload);
            self.pushed(at, seq);
        }
    }

    fn popped(&mut self, got: Option<(Ns, u64)>, deadline: Ns) {
        let want = match self.model.first_key_value() {
            Some((&(at, _), _)) if at <= deadline => self.model.pop_first(),
            _ => None,
        };
        assert_eq!(got, want.map(|((at, _), payload)| (at, payload)));
        if let Some((key, _)) = want {
            assert!(self.last_popped < Some(key), "pops strictly increase");
            self.last_popped = Some(key);
        }
        self.check();
    }

    fn pop(&mut self) {
        let got = self.q.pop();
        self.popped(got, Ns(u64::MAX));
    }

    fn pop_until(&mut self, deadline: Ns) {
        let got = self.q.pop_until(deadline);
        self.popped(got, deadline);
    }

    /// A time `buckets` calendar buckets after `now`'s, anywhere in it.
    fn in_bucket(&mut self, buckets: u64) -> Ns {
        let bucket = self.now().0 / BUCKET_NS + buckets;
        Ns((bucket * BUCKET_NS + self.rng.gen_range(BUCKET_NS)).max(self.now().0))
    }

    /// A delay of the mix: this instant, this bucket, the next, the ring
    /// horizon and one bucket either side of it, and — with `far` — the
    /// sampler's 200 ms and a day.
    fn some_time(&mut self, far: bool) -> Ns {
        match self.rng.gen_range(if far { 26 } else { 24 }) {
            0..=4 => self.now(),
            5..=10 => self.in_bucket(0),
            11..=16 => self.in_bucket(1),
            17..=20 => {
                let buckets = 2 + self.rng.gen_range(40);
                self.in_bucket(buckets)
            }
            21 => self.in_bucket(RING - 1),
            22 => self.in_bucket(RING),
            23 => self.in_bucket(RING + 1),
            24 => self.now() + Ns::from_millis(200),
            _ => self.now() + Ns::from_secs(24 * 3600),
        }
    }

    /// `ops` random operations, pops a little ahead of pushes so the queue
    /// keeps running dry and time keeps moving.
    fn churn(&mut self, ops: u32, far: bool) {
        let mut reserved: Vec<(Ns, u64)> = Vec::new();
        for _ in 0..ops {
            match self.rng.gen_range(12) {
                0..=3 => {
                    let at = self.some_time(far);
                    self.schedule(at);
                }
                4 => {
                    let at = self.some_time(far);
                    let seq = self.reserve();
                    reserved.push((at, seq));
                }
                5 if !reserved.is_empty() => {
                    // Late: other numbers have been handed out since.
                    let (at, seq) = reserved.swap_remove(0);
                    self.schedule_keyed(at, seq);
                }
                5 | 6 => {
                    let deadline = self.some_time(false);
                    self.pop_until(deadline);
                }
                _ => self.pop(),
            }
        }
    }

    fn drain(&mut self) {
        while !self.model.is_empty() {
            self.pop();
        }
        self.pop();
        assert!(self.q.is_empty() && self.q.peek_time().is_none());
    }
}

/// Model check of the three-tier queue (near run, calendar ring, far heap)
/// against a sorted map of `(at, seq)` keys: after every `schedule`,
/// `reserve_seq`, late `schedule_keyed`, `pop` and `pop_until`, the queue's
/// `len`, `is_empty`, `peek_time`, `pending_now`, `has_popped`, `now` and
/// `depth_high_water` equal the model's, and pops are the model's, strictly
/// `(at, seq)`-increasing.
///
/// One-line mutations of `engine.rs` that each must fail it (all tried):
/// the ring slot computed without the mask (`bucket as usize`); `bucket <
/// self.window` for `<=` where `schedule_keyed` chooses the near run; in
/// `refill`, the ring bucket loaded but not the far entries of the same
/// bucket (the `while` over `far` run only when `ring != Some(bucket)`);
/// `pop` without the eager `refill`; `refill` clearing bit `(slot + 1) %
/// 64` instead of `slot % 64`.
#[test]
fn queue_agrees_with_a_sorted_model_across_ring_and_far_heap() {
    let span = Ns(RING * BUCKET_NS);
    for seed in 0..6 {
        let mut c = Checked::new(0xE1E1_0100 + seed);
        // A deep queue to start from: many ring buckets occupied at once.
        for _ in 0..1_500 {
            let at = c.some_time(false);
            c.schedule(at);
        }
        // Dense phase: nothing beyond the ring's edge, until the ring has
        // gone round more than three times.
        for round in 0.. {
            if round >= 20 && c.now() >= span * 4 {
                break;
            }
            c.churn(2_000, false);
        }
        // A far-heap event and ring events that land in its bucket: pushed
        // from a ring span and a bit away it goes to the far heap; a few
        // buckets of pops later the same bucket is within the ring.
        let target = c.in_bucket(RING + 20);
        c.schedule(target);
        while c.now() < target - span + Ns(8 * BUCKET_NS) {
            let at = c.in_bucket(3);
            c.schedule(at);
            c.pop();
        }
        let bucket_start = Ns(target.0 / BUCKET_NS * BUCKET_NS);
        for at in [bucket_start, target, Ns(bucket_start.0 + BUCKET_NS - 1)] {
            c.schedule(at);
        }
        // Empty, then refilled — twice, the second time from far events
        // only, so the window has to jump a day and come back to work.
        c.drain();
        c.churn(3_000, true);
        c.drain();
        c.schedule(c.now() + Ns::from_secs(24 * 3600));
        c.schedule(c.now() + Ns::from_millis(200));
        c.churn(3_000, true);
        c.drain();
        assert!(c.q.events_processed() > 15_000 && c.q.depth_high_water() > 1_000);
    }
}

#[test]
fn link_never_exceeds_line_rate() {
    let mut rng = SimRng::new(0xE1E1_0002);
    for _ in 0..128 {
        let len = 1 + rng.gen_range(199) as usize;
        let mut offers: Vec<(u64, u32)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(1_000_000),
                    64 + rng.gen_range(9001 - 64) as u32,
                )
            })
            .collect();
        let rate = Bps(10_000_000_000);
        let mut link = Link::new(rate, Ns::ZERO);
        offers.sort_by_key(|&(t, _)| t);
        let mut total_bytes = 0u64;
        let mut last_depart = Ns::ZERO;
        let first = Ns(offers[0].0);
        for &(t, size) in &offers {
            let (depart, _arrive) = link.transmit(Ns(t), size);
            assert!(depart >= last_depart, "departures must be ordered");
            last_depart = depart;
            total_bytes += u64::from(size);
        }
        // Over the whole busy horizon the link served at most line rate.
        let span = (last_depart - first).as_nanos().max(1);
        let max_bytes = u128::from(span) * u128::from(rate.as_u64()) / 8 / 1_000_000_000 + 9000;
        assert!(
            u128::from(total_bytes) <= max_bytes,
            "served {total_bytes} bytes in {span} ns"
        );
    }
}

#[test]
fn tx_time_monotone_in_size() {
    let mut rng = SimRng::new(0xE1E1_0003);
    for _ in 0..256 {
        let a = 1 + rng.gen_range(99_999);
        let b = 1 + rng.gen_range(99_999);
        let rate = Bps(12_500_000_000);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(Ns::tx_time(Bytes(lo), rate) <= Ns::tx_time(Bytes(hi), rate));
    }
}

#[test]
fn bucket_index_consistent_with_ranges() {
    let mut rng = SimRng::new(0xE1E1_0004);
    for _ in 0..256 {
        let t = rng.gen_range(10_000_000);
        let interval = 1 + rng.gen_range(99_999);
        let iv = Ns(interval);
        let idx = Ns(t).bucket_index(iv);
        assert!(idx * interval <= t);
        assert!(t < (idx + 1) * interval);
    }
}
