//! Diagnostic analyses over Millisampler history (§4.2).
//!
//! The paper highlights that the on-host week of runs "permits diagnostic
//! analysis of atypical events, including firmware bugs, kernel locking
//! errors, and large congestion events. For instance, Millisampler helped
//! uncover a NIC firmware bug by isolating examples of packet loss
//! although utilization was low at fine time-scales." This module encodes
//! those signatures as detectors over [`HostSeries`] runs.

use millisampler::HostSeries;
use ms_dcsim::Bps;

/// A diagnostic finding over a window of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finding {
    /// First bucket of the suspicious window.
    pub start: usize,
    /// One past the last bucket.
    pub end: usize,
    /// What the window looks like.
    pub kind: FindingKind,
}

/// Diagnostic signatures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FindingKind {
    /// Retransmissions while the link is nearly idle: congestion cannot
    /// explain the loss — NIC/firmware/host suspect (§4.2).
    LossAtLowUtilization {
        /// Retransmit bytes in the window.
        retx_bytes: u64,
        /// Mean utilization over the window (fraction of line rate).
        utilization: f64,
    },
}

/// Finds windows with retransmissions but near-idle utilization.
///
/// `window` is the analysis granularity in buckets; a window is flagged
/// when it contains retransmit bytes while mean utilization stays below
/// `max_utilization` (e.g. 0.10).
pub fn loss_at_low_utilization(
    series: &HostSeries,
    link: Bps,
    window: usize,
    max_utilization: f64,
) -> Vec<Finding> {
    assert!(window > 0);
    let capacity = series.interval.bytes_at_rate(link).as_u64().max(1) as f64;
    let mut out = Vec::new();
    let n = series.len();
    let mut i = 0;
    while i < n {
        let end = (i + window).min(n);
        let retx: u64 = series.in_retx[i..end].iter().sum();
        if retx > 0 {
            let vol: u64 = series.in_bytes[i..end].iter().sum();
            let util = vol as f64 / (capacity * (end - i) as f64);
            if util < max_utilization {
                out.push(Finding {
                    start: i,
                    end,
                    kind: FindingKind::LossAtLowUtilization {
                        retx_bytes: retx,
                        utilization: util,
                    },
                });
            }
        }
        i = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_dcsim::Ns;

    const LINK: Bps = Bps(12_500_000_000);

    fn series(in_bytes: Vec<u64>, in_retx: Vec<u64>) -> HostSeries {
        let n = in_bytes.len();
        let mut s = HostSeries::zeroed(0, Ns::ZERO, Ns::from_millis(1), n);
        s.in_bytes = in_bytes;
        s.in_retx = in_retx;
        s
    }

    #[test]
    fn flags_retx_on_idle_link() {
        // 10 buckets at ~1% utilization with retx in the middle.
        let mut in_bytes = vec![15_000u64; 10];
        in_bytes[5] = 20_000;
        let mut in_retx = vec![0u64; 10];
        in_retx[5] = 4_500;
        let s = series(in_bytes, in_retx);
        let findings = loss_at_low_utilization(&s, LINK, 10, 0.10);
        assert_eq!(findings.len(), 1);
        let FindingKind::LossAtLowUtilization {
            retx_bytes,
            utilization,
        } = findings[0].kind;
        assert_eq!(retx_bytes, 4_500);
        assert!(utilization < 0.02);
    }

    #[test]
    fn congestion_loss_not_flagged() {
        // Retx during a genuine full-rate burst: utilization explains it.
        let in_bytes = vec![1_500_000u64; 10];
        let mut in_retx = vec![0u64; 10];
        in_retx[5] = 50_000;
        let s = series(in_bytes, in_retx);
        assert!(loss_at_low_utilization(&s, LINK, 10, 0.10).is_empty());
    }

    #[test]
    fn clean_idle_link_not_flagged() {
        let s = series(vec![1_000; 20], vec![0; 20]);
        assert!(loss_at_low_utilization(&s, LINK, 5, 0.10).is_empty());
    }

    #[test]
    fn window_granularity_respected() {
        // Retx in the second window only.
        let mut in_retx = vec![0u64; 20];
        in_retx[15] = 100;
        let s = series(vec![100; 20], in_retx);
        let findings = loss_at_low_utilization(&s, LINK, 10, 0.10);
        assert_eq!(findings.len(), 1);
        assert_eq!((findings[0].start, findings[0].end), (10, 20));
    }
}
