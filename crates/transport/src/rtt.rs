//! RTT estimation and retransmission-timeout computation.
//!
//! Jacobson/Karels SRTT/RTTVAR smoothing with the RFC 6298 RTO formula,
//! tuned for data center operation: the RTO floor is [`MIN_RTO`] = 4 ms
//! rather than Linux's 200 ms, the standard setting for DCTCP deployments
//! (a 200 ms floor would make every timeout dwarf the 2 s Millisampler run
//! and suppress all the dynamics under study), and the ceiling is
//! [`MAX_RTO`] = 1 s.

use ms_dcsim::Ns;

/// RTO floor.
pub const MIN_RTO: Ns = Ns::from_millis(4);
/// RTO ceiling, backoff included.
pub const MAX_RTO: Ns = Ns::from_secs(1);

/// Smoothed RTT state and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<Ns>,
    rttvar: Ns,
    /// Current backoff multiplier (doubles per consecutive timeout).
    backoff: u32,
}

impl RttEstimator {
    /// An estimator with no sample yet, clamping to `[MIN_RTO, MAX_RTO]`.
    pub fn datacenter() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Ns::ZERO,
            backoff: 0,
        }
    }

    /// Feeds one RTT sample (from a non-retransmitted segment — Karn's
    /// algorithm is the caller's responsibility). Resets timeout backoff.
    pub fn on_sample(&mut self, rtt: Ns) {
        self.backoff = 0;
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = Ns(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|
                //           srtt   = 7/8 srtt   + 1/8 sample
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = Ns((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                self.srtt = Some(Ns((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
    }

    /// Doubles the RTO (called on each retransmission timeout).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(12);
    }

    /// The smoothed RTT, if a sample has been taken.
    pub fn srtt(&self) -> Option<Ns> {
        self.srtt
    }

    /// The current retransmission timeout: `srtt + 4·rttvar`, clamped to
    /// `[MIN_RTO, MAX_RTO]`, doubled per outstanding backoff step.
    pub fn rto(&self) -> Ns {
        let base = match self.srtt {
            Some(srtt) => Ns(srtt.as_nanos() + 4 * self.rttvar.as_nanos()),
            // Before any sample: be conservative but not glacial.
            None => MIN_RTO * 4,
        };
        let clamped = base.clamp(MIN_RTO, MAX_RTO);
        Ns(clamped.as_nanos().saturating_mul(1 << self.backoff)).min(MAX_RTO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::datacenter();
        assert!(e.srtt().is_none());
        e.on_sample(Ns::from_micros(100));
        assert_eq!(e.srtt(), Some(Ns::from_micros(100)));
    }

    #[test]
    fn srtt_converges_to_stable_rtt() {
        let mut e = RttEstimator::datacenter();
        for _ in 0..100 {
            e.on_sample(Ns::from_micros(80));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt.as_nanos().abs_diff(80_000) < 1_000, "srtt {srtt}");
    }

    #[test]
    fn rto_has_floor() {
        let mut e = RttEstimator::datacenter();
        for _ in 0..50 {
            e.on_sample(Ns::from_micros(50)); // tiny RTT
        }
        assert_eq!(e.rto(), Ns::from_millis(4), "RTO must respect the floor");
    }

    #[test]
    fn rto_tracks_variance() {
        // RTTs of a few ms, so both RTOs sit above the 4 ms floor.
        let mut stable = RttEstimator::datacenter();
        let mut jittery = RttEstimator::datacenter();
        for i in 0..100 {
            stable.on_sample(Ns::from_millis(5));
            jittery.on_sample(Ns::from_millis(if i % 2 == 0 { 1 } else { 9 }));
        }
        assert!(jittery.rto() > stable.rto());
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::datacenter();
        e.on_sample(Ns::from_millis(1));
        let base = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), base * 2);
        e.on_timeout();
        assert_eq!(e.rto(), base * 4);
        e.on_sample(Ns::from_millis(1));
        assert_eq!(e.rto(), base);
    }

    #[test]
    fn rto_capped_at_max() {
        let mut e = RttEstimator::datacenter();
        e.on_sample(Ns::from_millis(50));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), MAX_RTO);
    }
}
