//! Fig. 1 (DT queue-share curves) and the §4.5 validation experiments
//! (Figs. 3–5).

use crate::Ctx;
use millisampler::RunConfig;
use ms_analysis::contention::{contention_series, queue_share};
use ms_bench::report::{f3, Report};
use ms_dcsim::Ns;
use ms_workload::placement::RegionKind;
use ms_workload::tools::{schedule_burst_requests, schedule_multicast_validation};
use ms_workload::{Bps, ScenarioBuilder};

/// Fig. 1: `T(S) = α/(1+αS)` for α ∈ {0.25, 0.5, 1, 2, 4}, S = 1..10.
pub fn fig1(ctx: &mut Ctx) {
    let alphas = [0.25, 0.5, 1.0, 2.0, 4.0];
    let mut r = Report::new("fig1", &["S", "a=0.25", "a=0.5", "a=1", "a=2", "a=4"]);
    for s in 1..=10usize {
        let mut row = vec![s.to_string()];
        for a in alphas {
            row.push(f3(queue_share(a, s)));
        }
        r.row(&row);
    }
    r.finish(&ctx.opts.out);
    println!("  paper anchors: a=1,S=1 -> 0.5; a=1,S=2 -> 0.333; a=2,S=1 -> 0.667 (§2.1)");
}

/// A paper-scale (1 ms × 2000) idle rack for the validation experiments,
/// with 1500 B MSS like the production fleet.
fn validation_scenario(servers: usize, seed: u64) -> ScenarioBuilder {
    let one_ms = RunConfig::one_ms();
    let mut b = ScenarioBuilder::new(servers, seed);
    b.interval(one_ms.interval)
        .buckets(one_ms.buckets)
        .count_flows(one_ms.count_flows)
        .warmup(Ns::from_millis(20));
    b
}

/// Fig. 3: multicast bursts to 8 idle servers arrive in the same sample on
/// every host — SyncMillisampler collection is synchronized.
pub fn fig3(ctx: &mut Ctx) {
    let mut scenario = validation_scenario(8, ctx.opts.sweep.seed);
    let servers: Vec<usize> = (0..8).collect();
    // Bursts every 100ms over the 2s window; rate limited (multicast is
    // rate limited in production, §4.5) so the burst spans several ms.
    schedule_multicast_validation(
        &mut scenario,
        700,
        &servers,
        Ns::from_millis(40),
        Ns::from_millis(100),
        19,
        800,
        1500,
        Bps(2_000_000_000),
    );
    let report = scenario.build().run_sync_window(0);
    let run = report.rack_run.expect("validation rack produced data");

    // Per burst occurrence: the bucket index at which each server's rate
    // first exceeds 0.5 Gbps, and the spread across servers.
    let threshold_bytes = 62_500; // 0.5 Gbps over 1ms
    let mut r = Report::new(
        "fig3",
        &["burst", "first_bucket_min", "first_bucket_max", "spread_ms"],
    );
    let n = run.len();
    let mut cursor = 0usize;
    let mut burst_no = 0;
    while cursor < n {
        // Find the next bucket where ANY server is above threshold.
        let Some(start) =
            (cursor..n).find(|&i| run.servers.iter().any(|s| s.in_bytes[i] > threshold_bytes))
        else {
            break;
        };
        // Each server's first above-threshold bucket within start..start+10.
        let window_end = (start + 10).min(n);
        let firsts: Vec<i64> = run
            .servers
            .iter()
            .filter_map(|s| {
                (start.saturating_sub(1)..window_end)
                    .find(|&i| s.in_bytes[i] > threshold_bytes)
                    .map(|i| i as i64)
            })
            .collect();
        if firsts.len() == run.servers.len() {
            burst_no += 1;
            let min = *firsts.iter().min().unwrap();
            let max = *firsts.iter().max().unwrap();
            r.row(&[
                burst_no.to_string(),
                min.to_string(),
                max.to_string(),
                (max - min).to_string(),
            ]);
        }
        cursor = window_end + 40;
    }
    r.finish(&ctx.opts.out);
    println!("  expectation: spread <= 1 sample on every burst (paper Fig. 3: lines overlap)");

    // Also dump the per-server link-rate series for plotting.
    let mut series = Report::new("fig3_series", &["sample_ms", "server", "gbps"]);
    for (sid, s) in run.servers.iter().enumerate() {
        for (i, &b) in s.in_bytes.iter().enumerate() {
            if b > 0 {
                series.row(&[
                    i.to_string(),
                    sid.to_string(),
                    f3(b as f64 * 8.0 / 1e6), // bytes/ms -> Gbps
                ]);
            }
        }
    }
    series.save(&ctx.opts.out);
}

/// Fig. 4: five clients in one rack receive synchronized 1.8 MB bursts
/// from five senders; post-analysis identifies 5 simultaneously bursty
/// servers.
pub fn fig4(ctx: &mut Ctx) {
    let mut scenario = validation_scenario(8, ctx.opts.sweep.seed ^ 4);
    // Paper: 1.8MB bursts ≈ 3ms, every 100ms, to 5 clients.
    for client in 0..5 {
        schedule_burst_requests(
            &mut scenario,
            client,
            Ns::from_millis(40),
            Ns::from_millis(100),
            19,
            1_800_000,
            4,
        );
    }
    let report = scenario.build().run_sync_window(0);
    let run = report.rack_run.expect("burst traffic sampled");
    let contention = contention_series(&run, Bps(12_500_000_000));

    let mut r = Report::new("fig4", &["sample_ms", "bursty_servers"]);
    for (i, &c) in contention.iter().enumerate() {
        if c > 0 {
            r.row(&[i.to_string(), c.to_string()]);
        }
    }
    let peak = contention.iter().copied().max().unwrap_or(0);
    let peaks_at_5 = contention.iter().filter(|&&c| c == 5).count();
    r.finish(&ctx.opts.out);
    println!("  peak simultaneous bursty servers: {peak} (expected 5)");
    println!("  samples at contention 5: {peaks_at_5} (paper: ~3ms per burst x 19 bursts)");
}

/// Fig. 5: deep dive into a low-contention and a high-contention run from
/// the busy-hour RegA sweep.
pub fn fig5(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let data = ctx.busy(RegionKind::RegA);
    // Lowest nonzero and highest average contention runs.
    let mut runs: Vec<_> = data
        .obs
        .iter()
        .filter(|o| o.analysis.contention_stats.avg > 0.0)
        .collect();
    runs.sort_by(|a, b| {
        a.analysis
            .contention_stats
            .avg
            .partial_cmp(&b.analysis.contention_stats.avg)
            .unwrap()
    });
    if runs.is_empty() {
        println!("  no active runs in sweep — increase --racks or load");
        return;
    }
    let low = runs[0];
    let high = runs[runs.len() - 1];

    let mut r = Report::new(
        "fig5",
        &["run", "rack", "avg_contention", "p90", "max", "bursts"],
    );
    for (name, o) in [("low", low), ("high", high)] {
        let cs = &o.analysis.contention_stats;
        r.row(&[
            name.to_string(),
            o.rack_id.to_string(),
            f3(cs.avg),
            cs.p90.to_string(),
            cs.max.to_string(),
            o.analysis.bursts.len().to_string(),
        ]);
    }
    r.finish(&out);

    // Time series of both runs for plotting (the Fig. 5 lower panels).
    let mut ts = Report::new("fig5_series", &["run", "sample_ms", "contention"]);
    for (name, o) in [("low", low), ("high", high)] {
        for (i, &c) in o.analysis.contention.iter().enumerate() {
            ts.row(&[name.to_string(), i.to_string(), c.to_string()]);
        }
    }
    ts.save(&out);
    // And the burst raster (Fig. 5 upper panels).
    let mut raster = Report::new("fig5_raster", &["run", "server", "start_ms", "len_ms"]);
    for (name, o) in [("low", low), ("high", high)] {
        for b in &o.analysis.bursts {
            raster.row(&[
                name.to_string(),
                b.burst.server.to_string(),
                b.burst.start.to_string(),
                b.burst.len.to_string(),
            ]);
        }
    }
    raster.save(&out);
    println!(
        "  paper: low run varies 0-3, high run varies 3-12; measured low avg {} / high avg {}",
        f3(low.analysis.contention_stats.avg),
        f3(high.analysis.contention_stats.avg)
    );
}
