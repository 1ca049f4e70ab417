//! Table 1 and the §6 burst characterization (Figs. 6–8).

use crate::Ctx;
use ms_analysis::dataset::DatasetSummary;
use ms_analysis::stats::Cdf;
use ms_bench::report::{f3, pct, Report};
use ms_bench::RegionData;
use ms_workload::placement::RegionKind;

/// Table 1: dataset summary per region over the simulated day.
pub fn table1(ctx: &mut Ctx) {
    let buckets = ctx.opts.sweep.scenario.buckets;
    let mut r = Report::new(
        "table1",
        &[
            "region",
            "runs",
            "server_runs",
            "bursty_server_runs",
            "bursts",
            "sample_points",
        ],
    );
    for kind in [RegionKind::RegA, RegionKind::RegB] {
        let data = ctx.daily(kind);
        let mut summary = DatasetSummary::default();
        let mut bursty = 0u64;
        for obs in &data.obs {
            summary.add(obs, buckets);
            bursty += obs.analysis.bursty_servers as u64;
        }
        debug_assert_eq!(bursty, summary.bursty_server_runs);
        r.row(&[
            format!("{kind:?}"),
            summary.runs.to_string(),
            summary.server_runs.to_string(),
            summary.bursty_server_runs.to_string(),
            summary.bursts.to_string(),
            summary.sample_points.to_string(),
        ]);
    }
    r.finish(&ctx.opts.out);
    println!("  paper (production scale): RegA 22.4K runs / 1.98M server runs / 0.67M bursty / 19.5M bursts");
    println!("  shape check: bursty fraction of server runs ~1/3, bursts >> runs");
}

fn duration_s(data: &RegionData) -> f64 {
    data.config.scenario.interval.as_secs_f64() * data.config.scenario.buckets as f64
}

/// Fig. 6: CDF of bursts/second over bursty server runs (RegA).
pub fn fig6(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let data = ctx.busy(RegionKind::RegA);
    let dur = duration_s(data);
    let rates: Vec<f64> = data
        .obs
        .iter()
        .flat_map(|o| o.analysis.server_runs.iter())
        .filter(|sr| sr.bursts > 0)
        .map(|sr| sr.bursts as f64 / dur)
        .collect();
    let cdf = Cdf::new(rates);
    let mut r = Report::new("fig6", &["bursts_per_sec", "pct_of_server_runs"]);
    for (x, p) in cdf.curve(40) {
        r.row(&[f3(x), f3(p)]);
    }
    r.finish(&out);
    println!(
        "  median {} /s (paper 7.5), p90 {} /s (paper 39.8), n={}",
        f3(cdf.median()),
        f3(cdf.quantile(0.9)),
        cdf.len()
    );
}

/// Fig. 7: burst-length CDFs — all, contended, non-contended (RegA).
pub fn fig7(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let data = ctx.busy(RegionKind::RegA);
    let interval_ms = data.config.scenario.interval.as_nanos() as f64 / 1e6;
    let mut all = Vec::new();
    let mut contended = Vec::new();
    let mut non = Vec::new();
    for o in &data.obs {
        for b in &o.analysis.bursts {
            let len = b.burst.len_ms(interval_ms);
            all.push(len);
            if b.contended {
                contended.push(len);
            } else {
                non.push(len);
            }
        }
    }
    let (all, con, non) = (Cdf::new(all), Cdf::new(contended), Cdf::new(non));
    let mut r = Report::new(
        "fig7",
        &["pct", "all_ms", "contended_ms", "non_contended_ms"],
    );
    for i in 1..=20 {
        let q = i as f64 / 20.0;
        r.row(&[
            f3(100.0 * q),
            f3(all.quantile(q)),
            f3(con.quantile(q)),
            f3(non.quantile(q)),
        ]);
    }
    r.finish(&out);
    println!(
        "  all: median {} ms (paper 2), p90 {} ms (paper 8); non-contended <=3ms fraction {} (paper 0.88)",
        f3(all.median()),
        f3(all.quantile(0.9)),
        f3(non.fraction_at_or_below(3.0)),
    );
    println!(
        "  contended bursts longer than non-contended: {} vs {} ms median (paper: yes)",
        f3(con.median()),
        f3(non.median())
    );
    // Volumes, for the §6 text claims (median 1.8MB / p90 9MB all bursts;
    // 1MB / 2.9MB non-contended).
    let mut vol = |want_contended: Option<bool>| {
        Cdf::new(
            ctx.busy(RegionKind::RegA)
                .obs
                .iter()
                .flat_map(|o| o.analysis.bursts.iter())
                .filter(|b| want_contended.map(|w| b.contended == w).unwrap_or(true))
                .map(|b| b.burst.bytes as f64 / 1e6)
                .collect(),
        )
    };
    let va = vol(None);
    let vn = vol(Some(false));
    println!(
        "  volumes: all median {} MB (paper 1.8), p90 {} (paper 9); non-contended median {} (paper 1.0)",
        f3(va.median()),
        f3(va.quantile(0.9)),
        f3(vn.median())
    );
}

/// Fig. 8: connection counts inside vs. outside bursts (RegA).
pub fn fig8(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let data = ctx.busy(RegionKind::RegA);
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    let mut ratios = Vec::new();
    for o in &data.obs {
        for sr in &o.analysis.server_runs {
            if sr.bursts == 0 {
                continue;
            }
            if !sr.conns_inside.is_nan() {
                inside.push(sr.conns_inside);
            }
            if !sr.conns_outside.is_nan() {
                outside.push(sr.conns_outside);
            }
            if !sr.conns_inside.is_nan() && sr.conns_outside > 0.0 {
                ratios.push(sr.conns_inside / sr.conns_outside);
            }
        }
    }
    let (ci, co, cr) = (Cdf::new(inside), Cdf::new(outside), Cdf::new(ratios));
    let mut r = Report::new(
        "fig8",
        &["pct", "inside_burst_conns", "outside_burst_conns"],
    );
    for i in 1..=20 {
        let q = i as f64 / 20.0;
        r.row(&[f3(100.0 * q), f3(ci.quantile(q)), f3(co.quantile(q))]);
    }
    r.finish(&out);
    println!(
        "  median inside {} vs outside {} conns; median ratio {} (paper 2.7x)",
        f3(ci.median()),
        f3(co.median()),
        f3(cr.median())
    );

    // §6 utilization claims while we have the sweep handy.
    let utils: Vec<f64> = ctx
        .busy(RegionKind::RegA)
        .obs
        .iter()
        .flat_map(|o| o.analysis.server_runs.iter())
        .filter(|sr| sr.bursts > 0)
        .map(|sr| 100.0 * sr.avg_utilization)
        .collect();
    let u = Cdf::new(utils);
    let ui = Cdf::new(
        ctx.busy(RegionKind::RegA)
            .obs
            .iter()
            .flat_map(|o| o.analysis.server_runs.iter())
            .filter(|sr| sr.bursts > 0 && !sr.util_inside_bursts.is_nan())
            .map(|sr| 100.0 * sr.util_inside_bursts)
            .collect(),
    );
    let uo = Cdf::new(
        ctx.busy(RegionKind::RegA)
            .obs
            .iter()
            .flat_map(|o| o.analysis.server_runs.iter())
            .filter(|sr| sr.bursts > 0 && !sr.util_outside_bursts.is_nan())
            .map(|sr| 100.0 * sr.util_outside_bursts)
            .collect(),
    );
    println!(
        "  server-link utilization (bursty runs): median {} (paper 6.4%), p95 {} (paper <45%)",
        pct(u.median()),
        pct(u.quantile(0.95))
    );
    println!(
        "  inside bursts median {} (paper 65.5%), outside median {} (paper 5.5%)",
        pct(ui.median()),
        pct(uo.median())
    );
}
