//! RTT estimation and retransmission-timeout computation.
//!
//! Jacobson/Karels SRTT/RTTVAR smoothing with the RFC 6298 RTO formula,
//! tuned for data center operation: the minimum RTO defaults to 4 ms
//! rather than Linux's 200 ms, the standard setting for DCTCP deployments
//! (a 200 ms floor would make every timeout dwarf the 2 s Millisampler run
//! and suppress all the dynamics under study).

use ms_dcsim::Ns;

/// Smoothed RTT state and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<Ns>,
    rttvar: Ns,
    min_rto: Ns,
    max_rto: Ns,
    /// Current backoff multiplier (doubles per consecutive timeout).
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with the given RTO floor and ceiling.
    pub fn new(min_rto: Ns, max_rto: Ns) -> Self {
        assert!(min_rto < max_rto);
        RttEstimator {
            srtt: None,
            rttvar: Ns::ZERO,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Data-center defaults: 4 ms RTO floor, 1 s ceiling.
    pub fn datacenter() -> Self {
        RttEstimator::new(Ns::from_millis(4), Ns::from_secs(1))
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
    /// `[min_rto, max_rto]`, doubled per outstanding backoff step.
    pub fn rto(&self) -> Ns {
        let base = match self.srtt {
            Some(srtt) => Ns(srtt.as_nanos() + 4 * self.rttvar.as_nanos()),
            // Before any sample: be conservative but not glacial.
            None => self.min_rto * 4,
        };
        let clamped = Ns(base
            .as_nanos()
            .clamp(self.min_rto.as_nanos(), self.max_rto.as_nanos()));
        let backed_off = Ns(clamped.as_nanos().saturating_mul(1 << self.backoff));
        Ns(backed_off.as_nanos().min(self.max_rto.as_nanos()))
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
        let mut stable = RttEstimator::new(Ns::from_micros(1), Ns::from_secs(10));
        let mut jittery = RttEstimator::new(Ns::from_micros(1), Ns::from_secs(10));
        for i in 0..100 {
            stable.on_sample(Ns::from_micros(500));
            jittery.on_sample(Ns::from_micros(if i % 2 == 0 { 100 } else { 900 }));
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
        let mut e = RttEstimator::new(Ns::from_millis(1), Ns::from_millis(100));
        e.on_sample(Ns::from_millis(50));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), Ns::from_millis(100));
    }
}
