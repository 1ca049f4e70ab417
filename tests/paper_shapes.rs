//! Small-scale assertions of the paper's headline *shapes* — the claims
//! the full harness reproduces at scale, checked here at smoke-test size
//! so regressions are caught by `cargo test`.

use ms_bench::{sweep_region, SweepConfig};
use ms_dcsim::Ns;
use ms_workload::placement::RegionKind;
use ms_workload::scenario::ScenarioConfig;

fn tiny_sweep(kind: RegionKind, racks: usize, seed: u64) -> ms_bench::RegionData {
    sweep_region(
        kind,
        &SweepConfig {
            racks,
            servers: 16,
            hours: vec![7],
            scenario: ScenarioConfig {
                buckets: 250,
                warmup: Ns::from_millis(50),
                ..ScenarioConfig::default()
            },
            seed,
            threads: 1,
        },
    )
}

#[test]
fn rega_contention_is_bimodal() {
    // §7.1 / Fig. 9: the top-20% racks' contention dwarfs the p75.
    let data = tiny_sweep(RegionKind::RegA, 10, 1);
    let mut avgs: Vec<f64> = data
        .obs
        .iter()
        .map(|o| o.analysis.contention_stats.avg)
        .collect();
    avgs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p75 = avgs[(avgs.len() * 3) / 4 - 1];
    let top = avgs[avgs.len() - 1];
    assert!(
        top > p75 * 3.0,
        "expected bimodal contention: top {top:.2} vs p75 {p75:.2}"
    );
}

#[test]
fn ml_dense_racks_mostly_contended_bursts() {
    // Table 2 shape: (nearly) all bursts on ML-dense racks are contended.
    let data = tiny_sweep(RegionKind::RegA, 10, 2);
    let high = data.high_contention_racks();
    let (mut contended, mut total) = (0usize, 0usize);
    for o in data.obs.iter().filter(|o| high.contains(&o.rack_id)) {
        for b in &o.analysis.bursts {
            total += 1;
            if b.contended {
                contended += 1;
            }
        }
    }
    assert!(total > 20, "need bursts to judge ({total})");
    let frac = contended as f64 / total as f64;
    assert!(frac > 0.85, "ML-dense contended fraction {frac:.2}");
}

#[test]
fn contended_bursts_are_longer() {
    // Fig. 7: non-contended bursts are shorter.
    let data = tiny_sweep(RegionKind::RegB, 8, 3);
    let mut contended = Vec::new();
    let mut non = Vec::new();
    for o in &data.obs {
        for b in &o.analysis.bursts {
            if b.contended {
                contended.push(b.burst.len as f64);
            } else {
                non.push(b.burst.len as f64);
            }
        }
    }
    assert!(
        contended.len() > 20 && non.len() > 5,
        "{} / {}",
        contended.len(),
        non.len()
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&contended) > mean(&non),
        "contended {:.2}ms vs non {:.2}ms",
        mean(&contended),
        mean(&non)
    );
}

#[test]
fn categorization_recovers_placement() {
    // The §7.1 categorization (by measured contention) should recover the
    // ML-dense placement class.
    let data = tiny_sweep(RegionKind::RegA, 10, 4);
    let high = data.high_contention_racks();
    for &rack in &high {
        assert_eq!(
            data.placement_class(rack),
            ms_workload::placement::RackClass::MlDense,
            "rack {rack} categorized high but placed diverse"
        );
    }
}
