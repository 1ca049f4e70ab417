//! Congestion control: one byte-based congestion window, three laws.
//!
//! The Meta network runs **DCTCP** for in-region traffic and **Cubic** for
//! inter-region traffic (§3); **Reno** is the textbook baseline used in
//! ablations. A [`CongestionWindow`] holds the state all three share and a
//! private `Law` only what differs; each [`crate::Sender`] keeps one inline.
//!
//! Windows are in bytes. Every law:
//! * starts in slow start with a 10-MSS initial window,
//! * then grows by one MSS per window (Reno, DCTCP) or toward the cubic
//!   target (Cubic), never past [`MAX_CWND`],
//! * cuts on fast retransmit (Reno and DCTCP halve, Cubic multiplies by
//!   β), and Reno and Cubic make the same cut on an ECN-marked window,
//! * collapses to 1 MSS on retransmission timeout,
//! * never falls below 1 MSS.

use ms_dcsim::Ns;

/// Which congestion control algorithm a sender runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgorithm {
    /// Data Center TCP: ECN-proportional backoff (in-region default).
    Dctcp,
    /// Cubic (inter-region traffic).
    Cubic,
    /// Classic NewReno (baseline).
    Reno,
}

impl CcAlgorithm {
    /// Every algorithm, in code order.
    pub const ALL: [CcAlgorithm; 3] = [CcAlgorithm::Dctcp, CcAlgorithm::Cubic, CcAlgorithm::Reno];

    /// Stable short label (CLI token, grid-label fragment).
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Dctcp => "dctcp",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::Reno => "reno",
        }
    }

    /// Stable numeric code (scenario-spec codec).
    pub fn code(self) -> u64 {
        match self {
            CcAlgorithm::Dctcp => 0,
            CcAlgorithm::Cubic => 1,
            CcAlgorithm::Reno => 2,
        }
    }

    /// Inverse of [`CcAlgorithm::code`].
    pub fn from_code(code: u64) -> Option<CcAlgorithm> {
        CcAlgorithm::ALL.into_iter().find(|a| a.code() == code)
    }

    /// Inverse of [`CcAlgorithm::label`].
    pub fn parse(s: &str) -> Option<CcAlgorithm> {
        CcAlgorithm::ALL.into_iter().find(|a| a.label() == s)
    }
}

/// Initial window in **bytes**: 10 segments of a standard 1500 B MSS
/// (RFC 6928's IW10). Kept byte-denominated so simulations that use jumbo
/// segments to cut event counts do not inflate the incast first-wave size,
/// which would distort the §8 loss dynamics.
const INITIAL_WINDOW_BYTES: u64 = 15_000;

/// Upper bound on any congestion window (64 MB). Real stacks are bounded by
/// socket buffer sizes; an explicit cap also keeps byte arithmetic far from
/// overflow under pathological ACK streams.
pub const MAX_CWND: u64 = 64 * 1024 * 1024;

/// Cubic scaling constant (RFC 8312), in MSS/s³ units.
const CUBIC_C: f64 = 0.4;
/// Cubic multiplicative decrease factor.
const CUBIC_BETA: f64 = 0.7;
/// DCTCP's EWMA gain `g`.
const DCTCP_G: f64 = 1.0 / 16.0;

/// What one algorithm keeps beyond the shared window state.
#[derive(Debug, Clone)]
enum Law {
    /// NewReno: AIMD, ECN treated as loss (at most one cut per window,
    /// RFC 3168 style).
    Reno,
    /// Cubic (RFC 8312, without the TCP-friendly region — DC RTTs are so
    /// small that the cubic region dominates anyway; documented
    /// simplification).
    Cubic {
        /// Window size before the last reduction, in bytes.
        w_max: f64,
        /// Time of the last reduction (read only after one has happened).
        epoch_start: Ns,
    },
    /// Data Center TCP (Alizadeh et al., SIGCOMM 2010).
    ///
    /// Maintains `α ← (1 − g)·α + g·F`, an EWMA of the fraction `F` of
    /// bytes that were CE-marked per observation window (one RTT of data),
    /// and on windows containing any mark reduces `cwnd ← cwnd·(1 − α/2)`.
    /// Because the reduction is proportional to the *extent* of
    /// congestion, DCTCP holds queues near the marking threshold — which
    /// is exactly why the paper's ToRs can run a 120 KB ECN threshold
    /// against a multi-MB buffer, and why persistent-contention racks
    /// adapt so well (§8.1).
    Dctcp {
        /// The EWMA marked fraction.
        alpha: f64,
        /// Bytes acked in the current observation window.
        window_acked: u64,
        /// Marked bytes acked in the current observation window.
        window_marked: u64,
        /// Window boundary: when `total_acked` crosses this, fold the window.
        window_end: u64,
        /// Total bytes acked over the connection lifetime.
        total_acked: u64,
    },
}

/// A byte-based congestion window run by one [`CcAlgorithm`].
#[derive(Debug, Clone)]
pub struct CongestionWindow {
    mss: u32,
    cwnd: u64,
    /// Slow-start threshold in bytes (`u64::MAX` before the first cut).
    ssthresh: u64,
    /// Accumulated ACKed bytes for Reno/DCTCP congestion-avoidance growth.
    acked_accum: u64,
    /// Bytes ACKed since the last ECN-triggered cut; limits Reno and
    /// Cubic to one ECN cut per window.
    bytes_since_ecn_cut: u64,
    law: Law,
}

impl CongestionWindow {
    /// A window in slow start at the initial window for `mss`.
    pub fn new(algorithm: CcAlgorithm, mss: u32) -> Self {
        let law = match algorithm {
            CcAlgorithm::Reno => Law::Reno,
            CcAlgorithm::Cubic => Law::Cubic {
                w_max: 0.0,
                epoch_start: Ns::ZERO,
            },
            CcAlgorithm::Dctcp => Law::Dctcp {
                alpha: 1.0, // start conservative, as deployed implementations do
                window_acked: 0,
                window_marked: 0,
                window_end: 0,
                total_acked: 0,
            },
        };
        CongestionWindow {
            mss,
            cwnd: INITIAL_WINDOW_BYTES.max(2 * mss as u64),
            ssthresh: u64::MAX,
            acked_accum: 0,
            bytes_since_ecn_cut: u64::MAX / 2,
            law,
        }
    }

    /// Segment size in bytes.
    pub fn mss(&self) -> u32 {
        self.mss
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd.max(self.mss as u64)
    }

    /// Processes an ACK at `now` for `acked` newly acknowledged bytes, of
    /// which the receiver reported `marked` as CE-marked.
    pub fn on_ack(&mut self, now: Ns, acked: u64, marked: u64) {
        if let Law::Dctcp {
            alpha,
            window_acked,
            window_marked,
            window_end,
            total_acked,
        } = &mut self.law
        {
            *total_acked += acked;
            *window_acked += acked;
            *window_marked += marked.min(acked);
            if *total_acked >= *window_end && *window_acked > 0 {
                let f = *window_marked as f64 / *window_acked as f64;
                *alpha = (1.0 - DCTCP_G) * *alpha + DCTCP_G * f;
                if *window_marked > 0 {
                    // Proportional reduction, at most once per window.
                    let new = (self.cwnd as f64 * (1.0 - *alpha / 2.0)) as u64;
                    self.cwnd = new.max(2 * self.mss as u64);
                    self.ssthresh = self.ssthresh.min(self.cwnd);
                }
                *window_acked = 0;
                *window_marked = 0;
                *window_end = *total_acked + self.cwnd;
            }
        } else {
            // ECN: cut once per window of data, like a loss but
            // without retransmission.
            if marked > 0 && self.bytes_since_ecn_cut >= self.cwnd {
                self.cut(now);
                self.bytes_since_ecn_cut = 0;
                return;
            }
            self.bytes_since_ecn_cut = self.bytes_since_ecn_cut.saturating_add(acked);
        }
        self.grow(now, acked);
    }

    /// A fast retransmit fired (entering loss recovery).
    pub fn on_fast_retransmit(&mut self, now: Ns) {
        self.cut(now);
        self.restart_observation();
    }

    /// A retransmission timeout fired.
    pub fn on_timeout(&mut self, now: Ns) {
        self.cut(now);
        self.cwnd = self.mss as u64;
        self.restart_observation();
    }

    /// Slow start, then the algorithm's congestion-avoidance step; the
    /// one place the window grows, so the one place it is capped.
    fn grow(&mut self, now: Ns, acked: u64) {
        if self.cwnd < self.ssthresh {
            self.cwnd += acked;
        } else if let Law::Cubic { w_max, epoch_start } = self.law {
            let target = self.cubic_window(w_max, epoch_start, now);
            if target > self.cwnd {
                // Approach the cubic target gradually (per-ACK step bounded
                // by cwnd growth of at most one MSS per MSS acked).
                self.cwnd += (target - self.cwnd).min(acked);
            }
        } else {
            // +1 MSS per cwnd of ACKed bytes.
            self.acked_accum += acked;
            if self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd += self.mss as u64;
            }
        }
        self.cwnd = self.cwnd.min(MAX_CWND);
    }

    /// The multiplicative decrease: Cubic's β-reduction (which opens a new
    /// cubic epoch at `now`), or the Reno/DCTCP halving.
    fn cut(&mut self, now: Ns) {
        let floor = 2 * self.mss as u64;
        if let Law::Cubic { w_max, epoch_start } = &mut self.law {
            *w_max = self.cwnd as f64;
            self.cwnd = ((self.cwnd as f64 * CUBIC_BETA) as u64).max(floor);
            self.ssthresh = self.cwnd;
            *epoch_start = now;
        } else {
            self.ssthresh = (self.cwnd / 2).max(floor);
            self.cwnd = self.ssthresh;
        }
    }

    /// DCTCP: a loss cut opens a fresh observation window of the new cwnd.
    fn restart_observation(&mut self) {
        if let Law::Dctcp {
            window_end,
            total_acked,
            ..
        } = &mut self.law
        {
            *window_end = *total_acked + self.cwnd;
        }
    }

    /// Cubic's target window at `now`, `C·(t − K)³ + W_max` in segments.
    fn cubic_window(&self, w_max: f64, epoch: Ns, now: Ns) -> u64 {
        let mss = self.mss as f64;
        let w_max_seg = w_max / mss;
        let k = (w_max_seg * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let t = (now.saturating_sub(epoch)).as_secs_f64();
        let w = CUBIC_C * (t - k).powi(3) + w_max_seg;
        (w * mss) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1500;

    fn window(alg: CcAlgorithm) -> CongestionWindow {
        CongestionWindow::new(alg, MSS)
    }

    fn clean_ack(cc: &mut CongestionWindow, acked: u64) {
        cc.on_ack(Ns::ZERO, acked, 0);
    }

    fn alpha(cc: &CongestionWindow) -> f64 {
        match cc.law {
            Law::Dctcp { alpha, .. } => alpha,
            _ => panic!("not a DCTCP window"),
        }
    }

    #[test]
    fn all_start_at_initial_window() {
        for alg in CcAlgorithm::ALL {
            assert_eq!(window(alg).cwnd(), 10 * MSS as u64, "{}", alg.label());
        }
    }

    #[test]
    fn names_and_codes_round_trip() {
        for alg in CcAlgorithm::ALL {
            assert_eq!(CcAlgorithm::parse(alg.label()), Some(alg));
            assert_eq!(CcAlgorithm::from_code(alg.code()), Some(alg));
        }
        assert_eq!(CcAlgorithm::parse("bogus"), None);
        assert_eq!(CcAlgorithm::from_code(3), None);
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = window(CcAlgorithm::Reno);
        let before = cc.cwnd();
        // Ack a full window.
        clean_ack(&mut cc, before);
        assert_eq!(cc.cwnd(), 2 * before);
    }

    #[test]
    fn reno_congestion_avoidance_is_linear() {
        let mut cc = window(CcAlgorithm::Reno);
        cc.on_fast_retransmit(Ns::ZERO); // force ssthresh = cwnd
        let base = cc.cwnd();
        // One full window of ACKs ≈ +1 MSS.
        clean_ack(&mut cc, base);
        assert_eq!(cc.cwnd(), base + MSS as u64);
    }

    #[test]
    fn reno_timeout_collapses_to_one_mss() {
        let mut cc = window(CcAlgorithm::Reno);
        clean_ack(&mut cc, 30_000);
        cc.on_timeout(Ns::ZERO);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(cc.ssthresh < u64::MAX);
    }

    #[test]
    fn reno_ecn_cuts_once_per_window() {
        let mut cc = window(CcAlgorithm::Reno);
        let before = cc.cwnd();
        cc.on_ack(Ns::ZERO, MSS as u64, MSS as u64);
        let after_first = cc.cwnd();
        assert!(after_first < before);
        // Immediately-following marks in the same window are absorbed.
        cc.on_ack(Ns::ZERO, MSS as u64, MSS as u64);
        assert_eq!(cc.cwnd(), after_first);
    }

    #[test]
    fn dctcp_alpha_tracks_marked_fraction() {
        let mut cc = window(CcAlgorithm::Dctcp);
        // Feed many windows with 30% marks: alpha should approach 0.3.
        for _ in 0..2000 {
            let w = cc.cwnd();
            cc.on_ack(Ns::ZERO, w, (w as f64 * 0.3) as u64);
        }
        let a = alpha(&cc);
        assert!((a - 0.3).abs() < 0.07, "alpha {a}");
    }

    #[test]
    fn dctcp_alpha_decays_without_marks() {
        let mut cc = window(CcAlgorithm::Dctcp);
        for _ in 0..200 {
            let w = cc.cwnd();
            clean_ack(&mut cc, w);
        }
        assert!(alpha(&cc) < 0.01, "alpha {}", alpha(&cc));
    }

    #[test]
    fn dctcp_gentle_reduction_under_light_marking() {
        // DCTCP's reduction should be far gentler than halving when few
        // bytes are marked — the property that keeps throughput high at
        // the 120KB ECN threshold.
        let mut dctcp = window(CcAlgorithm::Dctcp);
        let mut reno = window(CcAlgorithm::Reno);
        // Warm both to the same moderate window with clean ACKs.
        for _ in 0..20 {
            let w = dctcp.cwnd();
            clean_ack(&mut dctcp, w);
            let w = reno.cwnd();
            clean_ack(&mut reno, w);
        }
        // Decay alpha to a small steady-state first.
        for _ in 0..300 {
            let w = dctcp.cwnd();
            clean_ack(&mut dctcp, w);
        }
        let d_before = dctcp.cwnd();
        let r_before = reno.cwnd();
        // One lightly-marked window each (5% of bytes marked).
        let w = dctcp.cwnd();
        dctcp.on_ack(Ns::ZERO, w, w / 20);
        let w = reno.cwnd();
        reno.on_ack(Ns::ZERO, w, w / 20);
        let d_drop = 1.0 - dctcp.cwnd() as f64 / d_before as f64;
        let r_drop = 1.0 - reno.cwnd() as f64 / r_before as f64;
        assert!(
            d_drop < r_drop / 2.0,
            "dctcp drop {d_drop:.3} vs reno {r_drop:.3}"
        );
    }

    #[test]
    fn dctcp_timeout_collapses() {
        let mut cc = window(CcAlgorithm::Dctcp);
        clean_ack(&mut cc, 100_000);
        cc.on_timeout(Ns::ZERO);
        assert_eq!(cc.cwnd(), MSS as u64);
    }

    #[test]
    fn cubic_recovers_toward_w_max() {
        let mut cc = window(CcAlgorithm::Cubic);
        // Grow a few slow-start rounds (keep W_max modest so the cubic
        // plateau time K = cbrt(W_max·(1−β)/C) stays in seconds).
        for _ in 0..4 {
            let w = cc.cwnd();
            clean_ack(&mut cc, w);
        }
        let peak = cc.cwnd();
        cc.on_fast_retransmit(Ns::ZERO);
        let floor = cc.cwnd();
        assert!((floor as f64) < peak as f64 * 0.75);
        // Feed ACKs over simulated time; window should climb back to W_max.
        let mut now = Ns::ZERO;
        for _ in 0..4000 {
            now += Ns::from_millis(5);
            cc.on_ack(now, MSS as u64, 0);
        }
        assert!(
            cc.cwnd() as f64 >= peak as f64 * 0.9,
            "cwnd {} vs peak {peak}",
            cc.cwnd()
        );
    }

    #[test]
    fn cwnd_never_below_one_mss() {
        for alg in CcAlgorithm::ALL {
            let mut cc = window(alg);
            for _ in 0..10 {
                cc.on_timeout(Ns::ZERO);
            }
            assert!(cc.cwnd() >= MSS as u64, "{}", alg.label());
        }
    }

    #[test]
    fn congestion_avoidance_never_exceeds_max_cwnd() {
        // Slow start up to the cap, one loss cut, then a minute of
        // window-sized ACKs at 1 ms spacing: the +1 MSS step (one per ACK
        // here) and Cubic's target past K ≈ 32 s both run past the cap
        // unless it bounds them too.
        for alg in CcAlgorithm::ALL {
            let mut cc = window(alg);
            clean_ack(&mut cc, MAX_CWND);
            assert_eq!(cc.cwnd(), MAX_CWND, "{}", alg.label());
            cc.on_fast_retransmit(Ns::ZERO);
            let mut now = Ns::ZERO;
            for _ in 0..60_000 {
                now += Ns::from_millis(1);
                cc.on_ack(now, MAX_CWND, 0);
                assert!(cc.cwnd() <= MAX_CWND, "{} at {now}", alg.label());
            }
        }
    }
}
