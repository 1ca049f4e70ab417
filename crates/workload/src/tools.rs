//! The paper's two validation tools (§4.5).
//!
//! * [`schedule_multicast_validation`] — "a tool that sends periodic bursts
//!   to a rack-local multicast address": the switch replicates each burst
//!   to all subscribed servers, so when links are idle every subscriber
//!   receives the burst at the same instant. If SyncMillisampler's
//!   collection is aligned, the burst appears in the same sample on every
//!   host (Fig. 3).
//! * [`schedule_burst_requests`] — the "burst generator tool": a client
//!   periodically requests a server to transmit a burst of a specified
//!   volume (1.8 MB ≈ 3 ms at 12.5 Gbps in the paper's experiment), used
//!   to verify that post-analysis correctly identifies the number of
//!   simultaneously bursty servers (Fig. 4).
//!
//! Both helpers compose onto a [`ScenarioBuilder`], so a validation setup
//! is itself a declarative spec that sweeps can clone and serialize.

use crate::spec::ScenarioBuilder;
use crate::tasks::FlowSpec;
use ms_dcsim::Ns;
use ms_transport::CcAlgorithm;

/// Subscribes `servers` to `group` and schedules `count` multicast bursts,
/// one every `period`, each of `packets` datagrams of `size` bytes, rate
/// limited to `paced_bps` (multicast is rate limited in production, which
/// is why Fig. 3's bursts do not reach line rate).
#[allow(clippy::too_many_arguments)]
pub fn schedule_multicast_validation(
    builder: &mut ScenarioBuilder,
    group: u32,
    servers: &[usize],
    start: Ns,
    period: Ns,
    count: u32,
    packets: u32,
    size: u32,
    paced_bps: ms_dcsim::Bps,
) {
    for &s in servers {
        builder.join_multicast(group, s);
    }
    for i in 0..count {
        builder.multicast_burst(start + period * i as u64, group, packets, size, paced_bps);
    }
}

/// Schedules `count` periodic burst requests delivering `volume` bytes to
/// `client_server`, one every `period` (based on the client's local clock —
/// modeled as a fixed schedule plus the client's clock offset, which is
/// sub-millisecond and thus immaterial to the 3 ms bursts).
pub fn schedule_burst_requests(
    builder: &mut ScenarioBuilder,
    client_server: usize,
    start: Ns,
    period: Ns,
    count: u32,
    volume: u64,
    connections: u32,
) {
    for i in 0..count {
        builder.flow_at(
            start + period * i as u64,
            FlowSpec {
                dst_server: client_server,
                connections,
                total_bytes: volume,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: u64::MAX - client_server as u64,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_dcsim::Ns;

    fn builder() -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(8, 42);
        b.buckets(400).warmup(Ns::from_millis(10));
        b
    }

    #[test]
    fn multicast_validation_synchronizes_across_receivers() {
        let mut b = builder();
        let servers: Vec<usize> = (0..8).collect();
        // Bursts every 100ms, well inside the 400ms window.
        schedule_multicast_validation(
            &mut b,
            900,
            &servers,
            Ns::from_millis(20),
            Ns::from_millis(100),
            3,
            800,
            1500,
            ms_dcsim::Bps(2_000_000_000),
        );
        let report = b.build().run_sync_window(0);
        let run = report.rack_run.expect("all servers sampled");
        // Every server sees (nearly) the same replicated volume; edge
        // buckets trimmed by alignment cost at most a few percent of a
        // multi-ms burst.
        let sums: Vec<u64> = run
            .servers
            .iter()
            .map(|h| h.in_bytes.iter().sum::<u64>())
            .collect();
        let max = *sums.iter().max().unwrap();
        let min = *sums.iter().min().unwrap();
        assert!(min > 0, "{sums:?}");
        assert!(max as f64 / min as f64 <= 1.2, "{sums:?}");
        // ...and the bursts land in the same buckets (±1 for skew and
        // interpolation) on all servers.
        let peak_bucket = |h: &millisampler::HostSeries| {
            h.in_bytes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(i, _)| i as i64)
                .unwrap()
        };
        let p0 = peak_bucket(&run.servers[0]);
        for h in &run.servers[1..] {
            assert!((peak_bucket(h) - p0).abs() <= 1, "peaks misaligned");
        }
    }

    #[test]
    fn burst_requests_produce_expected_duration_bursts() {
        let mut b = builder();
        // Paper: 1.8MB bursts ≈ 3ms at 12.5Gbps (their server sends over
        // warm connections; we use 4 parallel cold connections to reach
        // line rate within the first millisecond).
        schedule_burst_requests(
            &mut b,
            2,
            Ns::from_millis(20),
            Ns::from_millis(100),
            3,
            1_800_000,
            4,
        );
        let report = b.build().run_sync_window(0);
        let run = report.rack_run.unwrap();
        let series = &run.servers[2];
        let threshold = 781_250; // 50% of line rate per 1ms
        let bursty: usize = series.in_bytes.iter().filter(|&&b| b > threshold).count();
        // 3 bursts × ~1-4 bursty ms each.
        assert!((3..=15).contains(&bursty), "bursty samples {bursty}");
        let total: u64 = series.in_bytes.iter().sum();
        assert!(total >= 3 * 1_600_000, "delivered {total}");
    }
}
