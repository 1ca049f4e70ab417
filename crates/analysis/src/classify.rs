//! Joint burst/contention/loss classification (§8 methodology).
//!
//! * Each burst is associated with the **maximum contention level it
//!   experiences during its lifetime** (§8: "we consider the contention
//!   level at each sample point of the burst, and take the maximum").
//! * A burst is **contended** if it sees contention at any point in its
//!   lifetime (§6) — i.e. some sample of the burst has contention ≥ 2
//!   (itself plus at least one other bursty server).
//! * A burst is **lossy** if retransmit-bit bytes land on its server
//!   within the burst window extended by an RTT-scale slack (§4.6:
//!   "retransmissions ... indicate when losses are repaired, not when
//!   they occur ... our analysis must look for retransmissions that occur
//!   an RTT later").

use crate::burst::{detect_bursts, is_bursty_run, Burst};
use crate::contention::{contention_series, ContentionStats};
use millisampler::AlignedRackRun;
use ms_dcsim::Bps;

/// A burst with its §8 classification attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifiedBurst {
    /// The underlying burst.
    pub burst: Burst,
    /// Maximum contention over the burst's samples.
    pub max_contention: u32,
    /// Saw contention at any point (max_contention ≥ 2).
    pub contended: bool,
    /// Retransmit bytes observed in the loss-association window.
    pub retx_bytes: u64,
    /// Experienced loss (retx_bytes > 0).
    pub lossy: bool,
}

/// Per-server-run statistics (the unit of Figs. 6 and 8 and of the §6
/// utilization claims), kept compact so whole-region sweeps can drop the
/// raw series after analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerRunStats {
    /// Server index.
    pub server: usize,
    /// Number of bursts in this server run.
    pub bursts: usize,
    /// Average ingress utilization over the run (fraction of line rate).
    pub avg_utilization: f64,
    /// Average utilization inside bursty samples (NaN if none).
    pub util_inside_bursts: f64,
    /// Average utilization outside bursty samples (NaN if none).
    pub util_outside_bursts: f64,
    /// Mean estimated connections per sample inside bursts (NaN if none).
    pub conns_inside: f64,
    /// Mean estimated connections per sample outside bursts (NaN if none).
    pub conns_outside: f64,
}

/// Everything the §6–8 analyses need from one rack run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunAnalysis {
    /// Per-sample contention.
    pub contention: Vec<u32>,
    /// Run-level contention statistics.
    pub contention_stats: ContentionStats,
    /// All classified bursts across servers.
    pub bursts: Vec<ClassifiedBurst>,
    /// Per-server-run stats for servers that saw any traffic.
    pub server_runs: Vec<ServerRunStats>,
    /// Servers that had at least one bursty sample.
    pub bursty_servers: usize,
    /// Servers with any traffic at all.
    pub active_servers: usize,
    /// Number of servers in the rack.
    pub num_servers: usize,
    /// Total ingress bytes over the run.
    pub total_in_bytes: u64,
    /// Total retransmit-bit ingress bytes over the run.
    pub total_retx_bytes: u64,
}

/// Analyzes one aligned rack run.
///
/// `loss_slack` is the number of buckets past the burst end in which a
/// retransmission is still attributed to the burst — RTT-to-RTO scale
/// (default recommendation: 5 buckets at 1 ms, covering the 4 ms
/// datacenter min-RTO).
pub fn analyze_run(run: &AlignedRackRun, link: Bps, loss_slack: usize) -> RunAnalysis {
    let contention = contention_series(run, link);
    let contention_stats = ContentionStats::from_series(&contention);
    let n = run.len();

    let mut bursts = Vec::new();
    let mut server_runs = Vec::new();
    let mut bursty_servers = 0usize;
    let mut active_servers = 0usize;
    let mut total_in = 0u64;
    let mut total_retx = 0u64;

    let threshold = crate::burst::burst_threshold(run.interval, link).as_u64();
    let capacity = run.interval.bytes_at_rate(link).as_u64().max(1) as f64;

    for server in &run.servers {
        total_in += server.total_in_bytes();
        total_retx += server.total_in_retx();
        if server.total_in_bytes() > 0 {
            active_servers += 1;
            let server_bursts = detect_bursts(server, link);
            let (conns_in, conns_out) = crate::burst::conns_inside_outside(server, link);
            let mut in_sum = (0u64, 0usize);
            let mut out_sum = (0u64, 0usize);
            for &b in &server.in_bytes {
                if b > threshold {
                    in_sum = (in_sum.0 + b, in_sum.1 + 1);
                } else {
                    out_sum = (out_sum.0 + b, out_sum.1 + 1);
                }
            }
            let util = |(sum, cnt): (u64, usize)| {
                if cnt == 0 {
                    f64::NAN
                } else {
                    sum as f64 / (cnt as f64 * capacity)
                }
            };
            server_runs.push(ServerRunStats {
                server: server.host as usize,
                bursts: server_bursts.len(),
                avg_utilization: server.avg_utilization(link),
                util_inside_bursts: util(in_sum),
                util_outside_bursts: util(out_sum),
                conns_inside: conns_in,
                conns_outside: conns_out,
            });
        }
        if is_bursty_run(server, link) {
            bursty_servers += 1;
        }
        for burst in detect_bursts(server, link) {
            let max_contention = contention[burst.start..burst.end()]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            let window_end = (burst.end() + loss_slack).min(n);
            let retx_bytes: u64 = server.in_retx[burst.start..window_end].iter().sum();
            bursts.push(ClassifiedBurst {
                burst,
                max_contention,
                contended: max_contention >= 2,
                retx_bytes,
                lossy: retx_bytes > 0,
            });
        }
    }

    RunAnalysis {
        contention,
        contention_stats,
        bursts,
        server_runs,
        bursty_servers,
        active_servers,
        num_servers: run.servers.len(),
        total_in_bytes: total_in,
        total_retx_bytes: total_retx,
    }
}

impl RunAnalysis {
    /// Fraction of bursts classified as contended.
    pub fn contended_fraction(&self) -> f64 {
        if self.bursts.is_empty() {
            return f64::NAN;
        }
        self.bursts.iter().filter(|b| b.contended).count() as f64 / self.bursts.len() as f64
    }

    /// Fraction of bursts classified as lossy.
    pub fn lossy_fraction(&self) -> f64 {
        if self.bursts.is_empty() {
            return f64::NAN;
        }
        self.bursts.iter().filter(|b| b.lossy).count() as f64 / self.bursts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millisampler::HostSeries;
    use ms_dcsim::Ns;

    const LINK: Bps = Bps(12_500_000_000);
    const HI: u64 = 800_000;

    fn make_run(data: Vec<(Vec<u64>, Vec<u64>)>) -> AlignedRackRun {
        let n = data[0].0.len();
        let servers = data
            .into_iter()
            .enumerate()
            .map(|(h, (in_bytes, in_retx))| {
                let mut s = HostSeriesBuilder::new(h as u32, n);
                s.0.in_bytes = in_bytes;
                s.0.in_retx = in_retx;
                s.0
            })
            .collect();
        AlignedRackRun {
            rack: 0,
            start: Ns::ZERO,
            interval: Ns::from_millis(1),
            servers,
        }
    }

    struct HostSeriesBuilder(HostSeries);
    impl HostSeriesBuilder {
        fn new(h: u32, n: usize) -> Self {
            HostSeriesBuilder(HostSeries::zeroed(h, Ns::ZERO, Ns::from_millis(1), n))
        }
    }

    #[test]
    fn burst_contention_is_max_over_lifetime() {
        // Server 0 bursts over samples 1-3; server 1 bursts only at 2.
        let run = make_run(vec![
            (vec![0, HI, HI, HI, 0], vec![0; 5]),
            (vec![0, 0, HI, 0, 0], vec![0; 5]),
        ]);
        let a = analyze_run(&run, LINK, 0);
        let b0 = a.bursts.iter().find(|b| b.burst.server == 0).unwrap();
        assert_eq!(b0.max_contention, 2, "peak overlap at sample 2");
        assert!(b0.contended);
        let b1 = a.bursts.iter().find(|b| b.burst.server == 1).unwrap();
        assert_eq!(b1.max_contention, 2);
    }

    #[test]
    fn solo_burst_not_contended() {
        let run = make_run(vec![
            (vec![0, HI, 0], vec![0; 3]),
            (vec![0, 0, 0], vec![0; 3]),
        ]);
        let a = analyze_run(&run, LINK, 0);
        assert_eq!(a.bursts.len(), 1);
        assert!(!a.bursts[0].contended);
        assert_eq!(a.contended_fraction(), 0.0);
    }

    #[test]
    fn loss_attributed_within_slack_window() {
        // Burst at samples 1-2; retx arrives at sample 5 (RTO later).
        let mut in_retx = vec![0u64; 8];
        in_retx[5] = 3000;
        let run = make_run(vec![(vec![0, HI, HI, 0, 0, 0, 0, 0], in_retx)]);
        // Slack 2: window [1, 5) misses the retx.
        let tight = analyze_run(&run, LINK, 2);
        assert!(!tight.bursts[0].lossy);
        // Slack 5: window [1, 8) catches it.
        let wide = analyze_run(&run, LINK, 5);
        assert!(wide.bursts[0].lossy);
        assert_eq!(wide.bursts[0].retx_bytes, 3000);
    }

    #[test]
    fn slack_window_clamped_to_run_end() {
        let run = make_run(vec![(vec![0, 0, HI], vec![0, 0, 0])]);
        let a = analyze_run(&run, LINK, 100);
        assert_eq!(a.bursts.len(), 1);
        assert!(!a.bursts[0].lossy);
    }

    #[test]
    fn run_totals_and_server_counts() {
        let run = make_run(vec![
            (vec![HI, 0], vec![100, 0]),
            (vec![5, 5], vec![0, 0]),
            (vec![0, 0], vec![0, 0]),
        ]);
        let a = analyze_run(&run, LINK, 1);
        assert_eq!(a.num_servers, 3);
        assert_eq!(a.active_servers, 2);
        assert_eq!(a.bursty_servers, 1);
        assert_eq!(a.total_in_bytes, HI + 10);
        assert_eq!(a.total_retx_bytes, 100);
    }

    #[test]
    fn fractions_nan_without_bursts() {
        let run = make_run(vec![(vec![0, 0], vec![0, 0])]);
        let a = analyze_run(&run, LINK, 1);
        assert!(a.contended_fraction().is_nan());
        assert!(a.lossy_fraction().is_nan());
    }
}
