//! Fault injection.
//!
//! Following smoltcp's practice of building fault injection into the stack's
//! examples and tests, this module provides deterministic fault injectors
//! used to (a) harden tests against "weird" conditions and (b) reproduce the
//! diagnostic scenarios §4.2/§4.6 of the paper describes (NIC firmware bugs
//! dropping packets at low utilization; kernel lock-ups that blind the
//! sampler while the NIC keeps receiving).

use crate::rng::SimRng;
use crate::time::Ns;

/// Randomly drops packets with a fixed probability, deterministically from a
/// seed. Models the NIC firmware bug the paper credits Millisampler with
/// isolating ("packet loss although utilization was low", §4.2).
#[derive(Debug, Clone)]
pub struct DropInjector {
    rng: SimRng,
    probability: f64,
    dropped: u64,
    offered: u64,
}

impl DropInjector {
    /// Creates an injector dropping each packet with `probability`.
    pub fn new(seed: u64, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        DropInjector {
            rng: SimRng::new(seed),
            probability,
            dropped: 0,
            offered: 0,
        }
    }

    /// Returns `true` if this packet should be dropped.
    pub fn should_drop(&mut self) -> bool {
        self.offered += 1;
        let drop = self.rng.gen_bool(self.probability);
        if drop {
            self.dropped += 1;
        }
        drop
    }

    /// `(dropped, offered)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.dropped, self.offered)
    }
}

/// A schedule of kernel-stall windows (periods when interrupt processing is
/// suspended, §4.6). While stalled, hosts receive at the NIC but the tc
/// filter sees nothing; when the stall lifts, the backlog appears as an
/// artificial burst.
#[derive(Debug, Clone, Default)]
pub struct StallSchedule {
    windows: Vec<(Ns, Ns)>,
}

impl StallSchedule {
    /// An empty schedule (never stalled).
    pub fn none() -> Self {
        StallSchedule::default()
    }

    /// Adds a stall window `[from, to)`. Windows may not overlap.
    pub fn add(&mut self, from: Ns, to: Ns) {
        assert!(from < to, "stall window must be non-empty");
        assert!(
            self.windows.iter().all(|&(f, t)| to <= f || from >= t),
            "stall windows must not overlap"
        );
        self.windows.push((from, to));
        self.windows.sort();
    }

    /// Whether `now` falls inside any stall window.
    pub fn is_stalled(&self, now: Ns) -> bool {
        self.windows.iter().any(|&(f, t)| now >= f && now < t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_rate_converges() {
        let mut inj = DropInjector::new(1, 0.15);
        for _ in 0..100_000 {
            inj.should_drop();
        }
        let (d, o) = inj.counts();
        let rate = d as f64 / o as f64;
        assert!((rate - 0.15).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut inj = DropInjector::new(2, 0.0);
        assert!(!(0..1000).any(|_| inj.should_drop()));
    }

    #[test]
    fn injector_is_deterministic() {
        let mut a = DropInjector::new(7, 0.5);
        let mut b = DropInjector::new(7, 0.5);
        for _ in 0..1000 {
            assert_eq!(a.should_drop(), b.should_drop());
        }
    }

    #[test]
    fn stall_schedule_lookup() {
        let mut s = StallSchedule::none();
        s.add(Ns(100), Ns(200));
        s.add(Ns(500), Ns(600));
        assert!(!s.is_stalled(Ns(50)));
        assert!(s.is_stalled(Ns(150)));
        assert!(!s.is_stalled(Ns(300)));
        assert!(s.is_stalled(Ns(599)));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_stalls_rejected() {
        let mut s = StallSchedule::none();
        s.add(Ns(100), Ns(200));
        s.add(Ns(150), Ns(250));
    }
}
