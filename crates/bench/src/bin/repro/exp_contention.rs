//! §7: contention across racks, across the day, and within runs
//! (Figs. 9–15).

use crate::Ctx;
use ms_analysis::contention::{queue_share, share_drop};
use ms_analysis::stats::{bucketed, pearson, spearman, BoxStats, Cdf};
use ms_bench::report::{f3, pct, Report};
use ms_workload::placement::{RackClass, RegionKind};

/// Fig. 9: CDF of busy-hour average rack contention, RegA vs RegB.
pub fn fig9(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let rega: Vec<f64> = ctx
        .busy(RegionKind::RegA)
        .obs
        .iter()
        .map(|o| o.analysis.contention_stats.avg)
        .collect();
    let regb: Vec<f64> = ctx
        .busy(RegionKind::RegB)
        .obs
        .iter()
        .map(|o| o.analysis.contention_stats.avg)
        .collect();
    let (ca, cb) = (Cdf::new(rega), Cdf::new(regb));
    let mut r = Report::new(
        "fig9",
        &["pct_of_racks", "rega_avg_contention", "regb_avg_contention"],
    );
    for i in 1..=25 {
        let q = i as f64 / 25.0;
        r.row(&[f3(100.0 * q), f3(ca.quantile(q)), f3(cb.quantile(q))]);
    }
    r.finish(&out);
    println!(
        "  RegA p75 {} (paper: 75% of racks < 2.2); RegA p80+ {} (paper: top 20% > 7.5)",
        f3(ca.quantile(0.75)),
        f3(ca.quantile(0.85)),
    );
    println!(
        "  bimodality check: RegA p80/p75 ratio {} (paper ~3.4x); RegB median {} > RegA median {}",
        f3(ca.quantile(0.85) / ca.quantile(0.75).max(1e-9)),
        f3(cb.median()),
        f3(ca.median()),
    );
}

/// Fig. 10: distinct tasks per rack, per contention category.
pub fn fig10(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let rega = ctx.busy(RegionKind::RegA);
    let high = rega.high_contention_racks();
    let mut typical = Vec::new();
    let mut high_tasks = Vec::new();
    let mut recovered = 0usize;
    for rack in &rega.spec.racks {
        let t = rack.distinct_tasks() as f64;
        if high.contains(&rack.rack_id) {
            high_tasks.push(t);
            if rack.class == RackClass::MlDense {
                recovered += 1;
            }
        } else {
            typical.push(t);
        }
    }
    let regb: Vec<f64> = ctx
        .busy(RegionKind::RegB)
        .spec
        .racks
        .iter()
        .map(|r| r.distinct_tasks() as f64)
        .collect();
    let (ct, ch, cb) = (Cdf::new(typical), Cdf::new(high_tasks), Cdf::new(regb));
    let mut r = Report::new(
        "fig10",
        &[
            "pct_of_racks",
            "rega_typical_tasks",
            "rega_high_tasks",
            "regb_tasks",
        ],
    );
    for i in 1..=20 {
        let q = i as f64 / 20.0;
        r.row(&[
            f3(100.0 * q),
            f3(ct.quantile(q)),
            f3(ch.quantile(q)),
            f3(cb.quantile(q)),
        ]);
    }
    r.finish(&out);
    println!(
        "  medians: RegA-High {} (paper 8), RegA-Typical {} (paper 14), RegB {} (paper 15)",
        f3(ch.median()),
        f3(ct.median()),
        f3(cb.median())
    );
    println!(
        "  contention categorization recovered {recovered}/{} ML-dense racks",
        ch.len()
    );
}

/// Fig. 11: dominant-task share, racks sorted by busy-hour contention.
pub fn fig11(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let mut r = Report::new(
        "fig11",
        &["region", "rack_rank", "avg_contention", "dominant_task_pct"],
    );
    for kind in [RegionKind::RegA, RegionKind::RegB] {
        let data = ctx.busy(kind);
        let mut rows: Vec<(f64, f64)> = data
            .obs
            .iter()
            .map(|o| {
                (
                    o.analysis.contention_stats.avg,
                    data.spec.racks[o.rack_id as usize].dominant_task_share(),
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (rank, (avg, share)) in rows.iter().enumerate() {
            r.row(&[format!("{kind:?}"), rank.to_string(), f3(*avg), f3(*share)]);
        }
    }
    r.finish(&out);
    println!("  expectation: dominant share rises with contention rank;");
    println!("  RegA right-end (high contention) racks at 60-100% (paper Fig. 11)");
}

/// Fig. 12: per-rack mean/min/max of run-average contention across the day.
pub fn fig12(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let mut r = Report::new("fig12", &["region", "rack_rank", "mean", "min", "max"]);
    let mut summary: Vec<String> = Vec::new();
    for kind in [RegionKind::RegA, RegionKind::RegB] {
        let data = ctx.daily(kind);
        let mut per_rack: Vec<(f64, f64, f64)> = Vec::new();
        for rack in 0..data.config.racks {
            let avgs: Vec<f64> = data
                .obs
                .iter()
                .filter(|o| o.rack_id as usize == rack)
                .map(|o| o.analysis.contention_stats.avg)
                .collect();
            if avgs.is_empty() {
                continue;
            }
            let mean = avgs.iter().sum::<f64>() / avgs.len() as f64;
            let min = avgs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = avgs.iter().cloned().fold(0.0, f64::max);
            per_rack.push((mean, min, max));
        }
        per_rack.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (rank, (mean, min, max)) in per_rack.iter().enumerate() {
            r.row(&[
                format!("{kind:?}"),
                rank.to_string(),
                f3(*mean),
                f3(*min),
                f3(*max),
            ]);
        }
        // Persistence check (§7.2): average per-rack range.
        let avg_range: f64 =
            per_rack.iter().map(|(_, lo, hi)| hi - lo).sum::<f64>() / per_rack.len().max(1) as f64;
        summary.push(format!("{kind:?} mean min-max range {}", f3(avg_range)));
    }
    r.finish(&out);
    println!("  {}", summary.join("; "));
    println!("  paper: RegA classes well separated & persistent; RegB ranges overlap more");
}

/// Fig. 13: diurnal box plots of run-average contention, RegA-High & RegB.
pub fn fig13(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let high = {
        let rega = ctx.daily(RegionKind::RegA);
        rega.high_contention_racks()
    };
    let mut r = Report::new(
        "fig13",
        &["group", "hour", "p25", "median", "p75", "p90", "mean", "n"],
    );
    let mut lifts: Vec<String> = Vec::new();
    for (name, kind, filter_high) in [
        ("RegA-High", RegionKind::RegA, true),
        ("RegB", RegionKind::RegB, false),
    ] {
        let data = ctx.daily(kind);
        let mut busy_vals = Vec::new();
        let mut off_vals = Vec::new();
        let hours: Vec<usize> = {
            let mut hs: Vec<usize> = data.obs.iter().map(|o| o.hour).collect();
            hs.sort_unstable();
            hs.dedup();
            hs
        };
        for &hour in &hours {
            let vals: Vec<f64> = data
                .at_hour(hour)
                .filter(|o| !filter_high || high.contains(&o.rack_id))
                .map(|o| o.analysis.contention_stats.avg)
                .collect();
            if (4..=10).contains(&hour) {
                busy_vals.extend(vals.iter());
            } else {
                off_vals.extend(vals.iter());
            }
            if let Some(b) = BoxStats::from_values(vals) {
                r.row(&[
                    name.to_string(),
                    hour.to_string(),
                    f3(b.p25),
                    f3(b.median),
                    f3(b.p75),
                    f3(b.p90),
                    f3(b.mean),
                    b.n.to_string(),
                ]);
            }
        }
        let busy_mean = busy_vals.iter().sum::<f64>() / busy_vals.len().max(1) as f64;
        let off_mean = off_vals.iter().sum::<f64>() / off_vals.len().max(1) as f64;
        lifts.push(format!(
            "{name} busy-hours lift {}",
            pct(100.0 * (busy_mean / off_mean - 1.0))
        ));
    }
    r.finish(&out);
    println!("  {}", lifts.join("; "));
    println!("  paper: RegA-High +27.6% during hours 4-10; RegB also diurnal");
}

/// Fig. 14: rack 1-minute ingress volume vs. average contention (RegA).
pub fn fig14(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let data = ctx.daily(RegionKind::RegA);
    let window_s =
        data.config.scenario.interval.as_secs_f64() * data.config.scenario.buckets as f64;
    // Scale window ingress to a 1-minute equivalent, like the production
    // counters ("switches only support ... 1 minute granularity", §7.2).
    let pairs: Vec<(f64, f64)> = data
        .obs
        .iter()
        .map(|o| {
            let per_min_gb = o.outcome.switch_ingress_bytes as f64 * (60.0 / window_s) / 1e9;
            (per_min_gb, o.analysis.contention_stats.avg)
        })
        .collect();
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let rho = pearson(&xs, &ys);
    let mut r = Report::new(
        "fig14",
        &["ingress_gb_per_min", "p25", "median", "p75", "p90", "n"],
    );
    for (center, b) in bucketed(&pairs, 10.0) {
        r.row(&[
            f3(center),
            f3(b.p25),
            f3(b.median),
            f3(b.p75),
            f3(b.p90),
            b.n.to_string(),
        ]);
    }
    r.finish(&out);
    println!(
        "  Pearson(ingress, avg contention) = {}, Spearman = {} (paper: clear positive correlation)",
        f3(rho),
        f3(spearman(&xs, &ys))
    );
}

/// Fig. 15: within-run contention variation and the buffer-share drop.
pub fn fig15(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let data = ctx.daily(RegionKind::RegA);
    // Exclude runs whose p90 contention is zero (paper excludes 6.2%).
    let mut runs: Vec<(u32, u32)> = data
        .obs
        .iter()
        .filter(|o| o.analysis.contention_stats.p90 > 0)
        .map(|o| {
            (
                o.analysis.contention_stats.min_active.unwrap_or(0),
                o.analysis.contention_stats.p90,
            )
        })
        .collect();
    let excluded = data.obs.len() - runs.len();
    runs.sort_by_key(|&(min, p90)| (min, p90));

    let mut r = Report::new(
        "fig15",
        &[
            "run_rank",
            "min_contention",
            "p90_contention",
            "share_min",
            "share_p90",
            "drop_pct",
        ],
    );
    let mut drops = Vec::new();
    for (rank, &(min, p90)) in runs.iter().enumerate() {
        let drop = share_drop(1.0, min.max(1), p90.max(1));
        drops.push(100.0 * drop);
        // Print every run to CSV; sample ranks to stdout-sized table.
        r.row(&[
            rank.to_string(),
            min.to_string(),
            p90.to_string(),
            f3(queue_share(1.0, min.max(1) as usize)),
            f3(queue_share(1.0, p90.max(1) as usize)),
            f3(100.0 * drop),
        ]);
    }
    r.save(&out);
    let cdf = Cdf::new(drops);
    println!(
        "  runs {} (excluded p90=0: {excluded}, paper 6.2%)",
        runs.len()
    );
    println!(
        "  buffer share drop: median {} (paper 33.3%), fraction >=70%: {} (paper 15%)",
        pct(cdf.median()),
        f3(1.0 - cdf.fraction_at_or_below(70.0 - 1e-9))
    );
}
