//! Burst detection (§5).
//!
//! "We define a burst as any consecutive set of one or more sample data
//! points that exceeds 50 % of line rate. Traffic less than this rate does
//! not typically result in buffering."

use millisampler::HostSeries;
use ms_dcsim::{Bps, Bytes, Ns};

/// A detected burst on one server's ingress series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Server (rack-local index).
    pub server: usize,
    /// First bucket index of the burst.
    pub start: usize,
    /// Length in buckets (≥ 1).
    pub len: usize,
    /// Total ingress bytes over the burst.
    pub bytes: u64,
    /// Mean estimated connections per sample inside the burst.
    pub avg_conns: f64,
}

impl Burst {
    /// One-past-the-end bucket index.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Burst length in milliseconds given the sampling interval.
    pub fn len_ms(&self, interval_ms: f64) -> f64 {
        self.len as f64 * interval_ms
    }
}

/// The burst threshold in bytes per bucket: 50 % of line rate.
pub fn burst_threshold(interval: Ns, link: Bps) -> Bytes {
    interval.bytes_at_rate(link) / 2
}

/// Detects bursts on one host's ingress series.
pub fn detect_bursts(series: &HostSeries, link: Bps) -> Vec<Burst> {
    let threshold = burst_threshold(series.interval, link).as_u64();
    let mut out = Vec::new();
    let mut current: Option<Burst> = None;
    for (i, &bytes) in series.in_bytes.iter().enumerate() {
        if bytes > threshold {
            match current.as_mut() {
                Some(b) => {
                    b.len += 1;
                    b.bytes += bytes;
                    b.avg_conns += series.conns[i] as f64;
                }
                None => {
                    current = Some(Burst {
                        server: series.host as usize,
                        start: i,
                        len: 1,
                        bytes,
                        avg_conns: series.conns[i] as f64,
                    });
                }
            }
        } else if let Some(mut b) = current.take() {
            b.avg_conns /= b.len as f64;
            out.push(b);
        }
    }
    if let Some(mut b) = current.take() {
        b.avg_conns /= b.len as f64;
        out.push(b);
    }
    out
}

/// Whether any sample of `series` is bursty — "bursty server runs" in
/// Table 1's accounting.
pub fn is_bursty_run(series: &HostSeries, link: Bps) -> bool {
    let threshold = burst_threshold(series.interval, link).as_u64();
    series.in_bytes.iter().any(|&b| b > threshold)
}

/// Mean per-sample connection estimates inside vs. outside bursts
/// (Fig. 8). Returns `(inside, outside)`; either is NaN when that side has
/// no samples.
pub fn conns_inside_outside(series: &HostSeries, link: Bps) -> (f64, f64) {
    let threshold = burst_threshold(series.interval, link).as_u64();
    let mut inside = (0u64, 0usize);
    let mut outside = (0u64, 0usize);
    for (i, &bytes) in series.in_bytes.iter().enumerate() {
        if bytes > threshold {
            inside.0 += series.conns[i];
            inside.1 += 1;
        } else {
            outside.0 += series.conns[i];
            outside.1 += 1;
        }
    }
    let avg = |(sum, n): (u64, usize)| {
        if n == 0 {
            f64::NAN
        } else {
            sum as f64 / n as f64
        }
    };
    (avg(inside), avg(outside))
}

#[cfg(test)]
mod tests {
    use super::*;
    const LINK: Bps = Bps(12_500_000_000);
    /// 50% of 12.5 Gbps over 1 ms.
    const THRESH: u64 = 781_250;

    fn series(values: &[u64]) -> HostSeries {
        let mut s = HostSeries::zeroed(3, Ns::ZERO, Ns::from_millis(1), values.len());
        s.in_bytes = values.to_vec();
        s.conns = values.iter().map(|&v| if v > 0 { 10 } else { 0 }).collect();
        s
    }

    #[test]
    fn threshold_is_half_line_rate() {
        assert_eq!(burst_threshold(Ns::from_millis(1), LINK), Bytes(THRESH));
    }

    #[test]
    fn no_bursts_below_threshold() {
        let s = series(&[0, THRESH / 2, THRESH, 100]);
        // Exactly-at-threshold is NOT a burst ("exceeds 50%").
        assert!(detect_bursts(&s, LINK).is_empty());
        assert!(!is_bursty_run(&s, LINK));
    }

    #[test]
    fn single_sample_burst() {
        let s = series(&[0, THRESH + 1, 0]);
        let bursts = detect_bursts(&s, LINK);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].start, 1);
        assert_eq!(bursts[0].len, 1);
        assert_eq!(bursts[0].bytes, THRESH + 1);
        assert_eq!(bursts[0].server, 3);
    }

    #[test]
    fn consecutive_samples_merge() {
        let hi = THRESH + 100;
        let s = series(&[0, hi, hi, hi, 0, hi, hi, 0]);
        let bursts = detect_bursts(&s, LINK);
        assert_eq!(bursts.len(), 2);
        assert_eq!((bursts[0].start, bursts[0].len), (1, 3));
        assert_eq!((bursts[1].start, bursts[1].len), (5, 2));
        assert_eq!(bursts[0].bytes, 3 * hi);
    }

    #[test]
    fn burst_at_series_end_is_closed() {
        let hi = THRESH * 2;
        let s = series(&[0, 0, hi, hi]);
        let bursts = detect_bursts(&s, LINK);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].end(), 4);
    }

    #[test]
    fn avg_conns_averaged_over_burst() {
        let hi = THRESH + 1;
        let mut s = series(&[hi, hi]);
        s.conns = vec![10, 30];
        let bursts = detect_bursts(&s, LINK);
        assert_eq!(bursts[0].avg_conns, 20.0);
    }

    #[test]
    fn conns_inside_vs_outside() {
        let hi = THRESH + 1;
        let mut s = series(&[hi, 10, hi, 10]);
        s.conns = vec![40, 5, 60, 15];
        let (inside, outside) = conns_inside_outside(&s, LINK);
        assert_eq!(inside, 50.0);
        assert_eq!(outside, 10.0);
    }

    #[test]
    fn len_ms_scales_with_interval() {
        let b = Burst {
            server: 0,
            start: 0,
            len: 5,
            bytes: 0,
            avg_conns: 0.0,
        };
        assert_eq!(b.len_ms(1.0), 5.0);
        assert_eq!(b.len_ms(0.1), 0.5);
    }
}
