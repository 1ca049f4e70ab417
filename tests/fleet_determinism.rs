//! The fleet runner's headline contracts, end to end:
//!
//! 1. **Thread-count independence** — the merged aggregate (CSV and JSON)
//!    is byte-identical whether the grid runs on 1 worker or 4.
//! 2. **Panic capture** — a cell whose spec fails validation becomes a
//!    failure row; the rest of the sweep completes untouched.

use ms_dcsim::{Ns, PolicyKind};
use ms_fleet::{run_fleet, FleetCell, FleetConfig, FleetGrid, PlacementKind, TopoPoint};
use ms_transport::CcAlgorithm;
use ms_workload::{FlowSpec, ScenarioBuilder};

/// A small 2 seeds × 2 α × 2 placements grid (8 cells) sized to run in
/// well under a second per cell.
fn small_grid() -> FleetGrid {
    FleetGrid {
        servers: 4,
        buckets: 60,
        warmup: Ns::from_millis(5),
        seeds: vec![1, 2],
        alphas: vec![0.5, 2.0],
        placements: vec![PlacementKind::SingleVictim, PlacementKind::Spread],
        ccs: vec![CcAlgorithm::Dctcp],
        policies: vec![PolicyKind::DtAlpha],
        connections: 12,
        total_bytes: 600_000,
        forensics: true,
        topos: vec![TopoPoint::SingleRack],
    }
}

/// The topo axis crossed with the small grid: single-rack cells next to
/// k=4 fat-tree cells at two cross-pod placement densities.
fn topo_grid() -> FleetGrid {
    FleetGrid {
        placements: vec![PlacementKind::SingleVictim],
        topos: vec![
            TopoPoint::SingleRack,
            TopoPoint::FatTree {
                k: 4,
                density_pct: 0,
            },
            TopoPoint::FatTree {
                k: 4,
                density_pct: 100,
            },
        ],
        ..small_grid()
    }
}

/// The policy axis crossed with everything else: DT, FB, and
/// delay-driven cells in one grid.
fn policy_grid() -> FleetGrid {
    FleetGrid {
        policies: vec![
            PolicyKind::DtAlpha,
            PolicyKind::FlexibleBounds,
            PolicyKind::DelayDriven,
        ],
        ..small_grid()
    }
}

fn cfg(jobs: usize) -> FleetConfig {
    FleetConfig {
        jobs,
        progress: false,
        ..FleetConfig::default()
    }
}

#[test]
fn jobs_1_and_jobs_4_merge_byte_identical() {
    let cells = small_grid().cells();
    assert_eq!(cells.len(), 8);

    let serial = run_fleet(&cells, &cfg(1));
    let parallel = run_fleet(&cells, &cfg(4));

    assert_eq!(serial.ok_count(), 8, "all cells must complete");
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "CSV must not depend on thread count"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "JSON must not depend on thread count"
    );
    // The merge itself is also structurally equal, not just its rendering.
    assert_eq!(serial, parallel);
}

#[test]
fn policy_sweep_is_thread_count_independent_and_stamps_rows() {
    let cells = policy_grid().cells();
    assert_eq!(cells.len(), 24);

    let serial = run_fleet(&cells, &cfg(1));
    let parallel = run_fleet(&cells, &cfg(4));
    assert_eq!(serial.ok_count(), 24, "{:?}", serial.failures());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());

    // Every outcome row carries the policy its cell ran, and the CSV
    // column agrees with the label suffix.
    for r in &serial.results {
        let o = r.outcome.as_ref().expect("cell completed");
        let suffix = r.label.rsplit('-').next().unwrap();
        assert_eq!(o.policy.label(), suffix, "row/label disagree: {}", r.label);
    }
    let by_policy = |k: PolicyKind| {
        serial
            .results
            .iter()
            .filter(|r| r.outcome.as_ref().is_ok_and(|o| o.policy == k))
            .count()
    };
    assert_eq!(by_policy(PolicyKind::DtAlpha), 8);
    assert_eq!(by_policy(PolicyKind::FlexibleBounds), 8);
    assert_eq!(by_policy(PolicyKind::DelayDriven), 8);
}

#[test]
fn topo_sweep_is_thread_count_independent_and_moves_bytes() {
    let cells = topo_grid().cells();
    assert_eq!(cells.len(), 12);

    let serial = run_fleet(&cells, &cfg(1));
    let parallel = run_fleet(&cells, &cfg(4));
    assert_eq!(serial.ok_count(), 12, "{:?}", serial.failures());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());

    for r in &serial.results {
        let o = r.outcome.as_ref().expect("cell completed");
        assert!(
            o.switch_ingress_bytes > 0,
            "{}: the incast must move bytes",
            r.label
        );
    }
}

#[test]
fn grid_results_carry_real_traffic() {
    let cells = small_grid().cells();
    let report = run_fleet(&cells, &cfg(2));
    for r in &report.results {
        let o = r.outcome.as_ref().expect("cell completed");
        assert!(
            o.switch_ingress_bytes > 0,
            "{}: the incast must move bytes",
            r.label
        );
        assert!(o.flows_started > 0, "{}: flows must start", r.label);
    }
}

#[test]
fn panicking_cell_is_reported_not_fatal() {
    let mut cells = small_grid().cells();
    // Sabotage one mid-grid cell: a flow targeting a server the rack
    // doesn't have fails ScenarioSpec::validate with a panic.
    let mut bad = ScenarioBuilder::new(4, 3);
    bad.buckets(60).flow_at(
        Ns::from_millis(10),
        FlowSpec {
            dst_server: 9, // out of range for 4 servers
            connections: 4,
            total_bytes: 100_000,
            algorithm: CcAlgorithm::Dctcp,
            paced_bps: None,
            task: 1,
        },
    );
    cells[3] = FleetCell {
        label: String::from("sabotaged"),
        spec: bad.spec(),
    };

    let report = run_fleet(&cells, &cfg(2));
    assert_eq!(report.ok_count(), cells.len() - 1, "others must survive");
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, "sabotaged");
    assert!(
        failures[0].1.contains("out of range"),
        "failure must carry the validation message, got: {}",
        failures[0].1
    );
    // The failed row stays in place, in grid order.
    assert!(report.results[3].outcome.is_err());
    // And the rendering keeps one row per cell.
    assert_eq!(report.to_csv().lines().count(), cells.len() + 1);
}

#[test]
fn failure_reports_are_thread_count_independent_too() {
    let mut cells = small_grid().cells();
    cells.truncate(4);
    let mut bad = ScenarioBuilder::new(2, 1);
    bad.buckets(10)
        .stall(7, Ns::from_millis(1), Ns::from_millis(2)); // out of range for 2 servers
    cells[1] = FleetCell {
        label: String::from("bad-stall"),
        spec: bad.spec(),
    };
    let a = run_fleet(&cells, &cfg(1));
    let b = run_fleet(&cells, &cfg(3));
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.failures(), b.failures());
}
