//! §8: contention, bursts, and loss (Table 2, Figs. 16–19).

use crate::Ctx;
use ms_analysis::classify::ClassifiedBurst;
use ms_analysis::dataset::{CategorySummary, RackCategory};
use ms_analysis::stats::Cdf;
use ms_bench::report::{f3, pct, Report};
use ms_bench::RegionData;
use ms_workload::placement::RegionKind;
use std::collections::BTreeSet;

/// Iterates `(category, burst)` over a region's daily observations.
fn categorized_bursts<'a>(
    data: &'a RegionData,
    high: &'a BTreeSet<u32>,
) -> impl Iterator<Item = (RackCategory, &'a ClassifiedBurst)> + 'a {
    data.obs.iter().flat_map(move |o| {
        let cat = data.category_of(o.rack_id, high);
        o.analysis.bursts.iter().map(move |b| (cat, b))
    })
}

const CATEGORIES: [RackCategory; 3] = [
    RackCategory::RegATypical,
    RackCategory::RegAHigh,
    RackCategory::RegB,
];

/// Gathers `(category, burst)` pairs for both regions.
fn all_bursts(ctx: &mut Ctx) -> Vec<(RackCategory, ClassifiedBurst)> {
    let high = ctx.daily(RegionKind::RegA).high_contention_racks();
    let mut out = Vec::new();
    {
        let rega = ctx.daily(RegionKind::RegA);
        out.extend(categorized_bursts(rega, &high).map(|(c, b)| (c, *b)));
    }
    let empty = BTreeSet::new();
    let regb = ctx.daily(RegionKind::RegB);
    out.extend(categorized_bursts(regb, &empty).map(|(c, b)| (c, *b)));
    out
}

/// Table 2: bursts per category, % contended, % lossy.
pub fn table2(ctx: &mut Ctx) {
    let bursts = all_bursts(ctx);
    let mut summaries = [CategorySummary::default(); 3];
    for (cat, b) in &bursts {
        let idx = CATEGORIES.iter().position(|c| c == cat).unwrap();
        summaries[idx].add(b);
    }
    let mut r = Report::new(
        "table2",
        &["category", "bursts", "pct_contended", "pct_lossy"],
    );
    for (cat, s) in CATEGORIES.iter().zip(&summaries) {
        r.row(&[
            cat.to_string(),
            s.bursts.to_string(),
            pct(s.pct_contended()),
            pct(s.pct_lossy()),
        ]);
    }
    r.finish(&ctx.opts.out);
    println!("  paper: Typical 10.2M/70.9%/1.05%; High 9.3M/100%/0.36%; RegB 23.9M/96.8%/0.78%");
    let typical = &summaries[0];
    let high = &summaries[1];
    if typical.bursts > 0 && high.bursts > 0 {
        println!(
            "  surprise check (Typical lossier than High despite less contention): {} vs {} -> {}",
            pct(typical.pct_lossy()),
            pct(high.pct_lossy()),
            if typical.pct_lossy() > high.pct_lossy() {
                "REPRODUCED"
            } else {
                "NOT reproduced at this scale"
            }
        );
    }
}

/// Fig. 16: % of bursts with loss vs. max contention, per category.
pub fn fig16(ctx: &mut Ctx) {
    let bursts = all_bursts(ctx);
    let mut r = Report::new(
        "fig16",
        &[
            "contention",
            "rega_typical_pct_lossy",
            "rega_high_pct_lossy",
            "regb_pct_lossy",
            "n_typical",
            "n_high",
            "n_regb",
        ],
    );
    let max_c = bursts
        .iter()
        .map(|(_, b)| b.max_contention)
        .max()
        .unwrap_or(0);
    for level in 0..=max_c.min(24) {
        let mut cells = vec![level.to_string()];
        let mut counts = Vec::new();
        for cat in CATEGORIES {
            let in_level: Vec<&ClassifiedBurst> = bursts
                .iter()
                .filter(|(c, b)| *c == cat && b.max_contention == level)
                .map(|(_, b)| b)
                .collect();
            let lossy = in_level.iter().filter(|b| b.lossy).count();
            let pct_lossy = if in_level.is_empty() {
                f64::NAN
            } else {
                100.0 * lossy as f64 / in_level.len() as f64
            };
            cells.push(f3(pct_lossy));
            counts.push(in_level.len().to_string());
        }
        cells.extend(counts);
        r.row(&cells);
    }
    r.finish(&ctx.opts.out);
    println!("  paper: loss rises with contention within each class, but Typical >> High at the same level");
}

/// Fig. 17: CDF of switch congestion discards per ingress byte, per RegA
/// category (the SNMP-counter cross-check of the Fig. 16 surprise).
pub fn fig17(ctx: &mut Ctx) {
    let out = ctx.opts.out.clone();
    let high = ctx.daily(RegionKind::RegA).high_contention_racks();
    let data = ctx.daily(RegionKind::RegA);
    let mut per_rack: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
    for o in &data.obs {
        let e = per_rack.entry(o.rack_id).or_default();
        e.0 += o.outcome.switch_discard_bytes;
        e.1 += o.outcome.switch_ingress_bytes;
    }
    let mut typical = Vec::new();
    let mut high_v = Vec::new();
    for (rack, (drops, ingress)) in &per_rack {
        if *ingress == 0 {
            continue;
        }
        // Discards per MB of traffic.
        let v = *drops as f64 / (*ingress as f64 / 1e6);
        if high.contains(rack) {
            high_v.push(v);
        } else {
            typical.push(v);
        }
    }
    let (ct, ch) = (Cdf::new(typical), Cdf::new(high_v));
    let mut r = Report::new(
        "fig17",
        &[
            "pct_of_racks",
            "typical_discard_bytes_per_mb",
            "high_discard_bytes_per_mb",
        ],
    );
    for i in 1..=20 {
        let q = i as f64 / 20.0;
        r.row(&[f3(100.0 * q), f3(ct.quantile(q)), f3(ch.quantile(q))]);
    }
    r.finish(&out);
    println!(
        "  median normalized discards: Typical {} vs High {} (paper: High sees FEWER discards/byte)",
        f3(ct.median()),
        f3(ch.median())
    );
}

/// Loss rate vs. a per-burst metric, contended vs. non-contended, in
/// RegA-Typical racks (the §8.2 methodology).
fn loss_vs_metric(
    ctx: &mut Ctx,
    name: &str,
    bucket_width: f64,
    max_bucket: f64,
    metric: impl Fn(&ClassifiedBurst, f64) -> f64,
) {
    let out = ctx.opts.out.clone();
    let interval_ms = ctx.opts.sweep.scenario.interval.as_nanos() as f64 / 1e6;
    let bursts = all_bursts(ctx);
    let typical: Vec<&ClassifiedBurst> = bursts
        .iter()
        .filter(|(c, _)| *c == RackCategory::RegATypical)
        .map(|(_, b)| b)
        .collect();

    let mut r = Report::new(
        name,
        &[
            "bucket",
            "contended_pct_lossy",
            "non_contended_pct_lossy",
            "contention3plus_pct_lossy",
            "n_contended",
            "n_non",
            "n_c3plus",
        ],
    );
    let buckets = (max_bucket / bucket_width).ceil() as usize;
    for i in 0..buckets {
        let lo = i as f64 * bucket_width;
        let hi = lo + bucket_width;
        let stats = |pred: &dyn Fn(&ClassifiedBurst) -> bool| {
            let sel: Vec<&&ClassifiedBurst> = typical
                .iter()
                .filter(|b| {
                    let m = metric(b, interval_ms);
                    pred(b) && m >= lo && m < hi
                })
                .collect();
            let lossy = sel.iter().filter(|b| b.lossy).count();
            let p = if sel.is_empty() {
                f64::NAN
            } else {
                100.0 * lossy as f64 / sel.len() as f64
            };
            (p, sel.len())
        };
        let (pc, nc) = stats(&|b| b.contended);
        let (pn, nn) = stats(&|b| !b.contended);
        // At simulator rack scale (≈28 servers vs the paper's ≈92) the
        // contended population concentrates at level 2; the ≥3 slice is
        // the regime where the paper's contended/non split shows up.
        let (p3, n3) = stats(&|b| b.max_contention >= 3);
        r.row(&[
            f3(lo + bucket_width / 2.0),
            f3(pc),
            f3(pn),
            f3(p3),
            nc.to_string(),
            nn.to_string(),
            n3.to_string(),
        ]);
    }
    r.finish(&out);
}

/// Fig. 18: % lossy vs. burst length (RegA-Typical).
pub fn fig18(ctx: &mut Ctx) {
    loss_vs_metric(ctx, "fig18", 1.0, 16.0, |b, interval_ms| {
        b.burst.len_ms(interval_ms)
    });
    println!("  paper: loss low for tiny bursts, rises sharply to ~6-10ms, then stabilizes;");
    println!("  contended bursts lossier than non-contended beyond ~8ms");
}

/// Fig. 19: % lossy vs. average connections in the burst (RegA-Typical).
pub fn fig19(ctx: &mut Ctx) {
    loss_vs_metric(ctx, "fig19", 10.0, 90.0, |b, _| b.burst.avg_conns);
    println!("  paper: loss rises with connections then stabilizes; contended 3-4x non-contended");
}
