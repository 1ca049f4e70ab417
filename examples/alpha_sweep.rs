//! Explore the §2.2/§9 buffer-tuning question: how the DT α parameter and
//! the sharing policy trade burst absorption against fairness, under a
//! workload with both a heavy incast and a contending burst.
//!
//! The α sweep is a one-axis [`FleetGrid`]; the policy comparison is three
//! hand-built [`FleetCell`]s. Both run through `run_fleet`, so this example
//! is also the smallest demo of the fleet API.
//!
//! ```sh
//! cargo run --release -p ms-fleet --example alpha_sweep
//!
//! # Additionally persist the α-sweep cells (outcomes, classified bursts,
//! # raw series) into an ms-lake columnar lake for out-of-core queries:
//! cargo run --release -p ms-fleet --example alpha_sweep -- --out-lake /tmp/alpha-lake
//! cargo run --release -p ms-lake --bin lake -- query --dir /tmp/alpha-lake
//! ```

use ms_dcsim::{Bps, BufferPolicySpec, Ns};
use ms_fleet::{run_fleet, run_fleet_to_lake, FleetCell, FleetConfig, FleetGrid, PlacementKind};
use ms_lake::{LakeConfig, LakeWriter, TableKind};
use ms_workload::ScenarioBuilder;
use std::path::Path;

fn main() {
    let cfg = FleetConfig::default();
    let mut lake_dir: Option<String> = None;
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out-lake" => lake_dir = args.next(),
            other => {
                eprintln!("alpha_sweep: unknown flag {other:?} (only --out-lake DIR)");
                std::process::exit(2);
            }
        }
    }

    // One-axis grid: sweep α with everything else pinned.
    let grid = FleetGrid {
        alphas: vec![0.25, 0.5, 1.0, 2.0, 4.0],
        seeds: vec![3],
        placements: vec![PlacementKind::PairedVictims],
        buckets: 250,
        connections: 160,
        total_bytes: 11_000_000,
        ..FleetGrid::default()
    };
    let report = run_fleet(&grid.cells(), &cfg);

    if let Some(dir) = &lake_dir {
        // The same cells, streamed to disk: the lake's aggregate equals the
        // in-memory report (see tests/lake_roundtrip.rs), so the printed
        // table below can be regenerated later with `lake query`.
        let writer = LakeWriter::create(Path::new(dir), LakeConfig::default())
            .expect("cannot create the output lake");
        let manifest =
            run_fleet_to_lake(&grid.cells(), &cfg, &writer).expect("lake-backed sweep failed");
        println!(
            "lake written to {dir}: {} outcome rows, {} series rows\n",
            manifest.rows(TableKind::Outcomes),
            manifest.rows(TableKind::Series),
        );
    }

    println!("DT alpha sweep under a contended incast (160 connections, ~22 MB):\n");
    println!("{:>26} {:>16} {:>12}", "cell", "discard_bytes", "completed");
    for r in &report.results {
        let o = r.outcome.as_ref().expect("sweep cell failed");
        println!(
            "{:>26} {:>16} {:>12}",
            r.label, o.switch_discard_bytes, o.conns_completed
        );
    }

    // Policy comparison at α = 1: three hand-built cells on the same rack.
    let policy_cells: Vec<FleetCell> = [
        (
            "dynamic_threshold",
            BufferPolicySpec::DtAlpha { alpha: 1.0 },
        ),
        ("complete_sharing", BufferPolicySpec::CompleteSharing),
        ("static_partition", BufferPolicySpec::StaticPartition),
        ("flexible_bounds", BufferPolicySpec::FlexibleBounds),
        (
            "delay_driven",
            BufferPolicySpec::DelayDriven {
                target: Ns::from_micros(500),
                drain: Bps(12_500_000_000),
            },
        ),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let mut grid = FleetGrid {
            alphas: vec![1.0],
            seeds: vec![3],
            placements: vec![PlacementKind::PairedVictims],
            buckets: 250,
            connections: 160,
            total_bytes: 11_000_000,
            ..FleetGrid::default()
        };
        grid.warmup = Ns::from_millis(10);
        let mut cell = grid.cells().remove(0);
        let mut b = ScenarioBuilder::from_spec(cell.spec);
        b.buffer_policy(policy);
        cell.spec = b.spec();
        cell.label = String::from(name);
        cell
    })
    .collect();
    let report = run_fleet(&policy_cells, &cfg);

    println!("\nsharing policies at alpha=1:\n");
    println!(
        "{:>20} {:>16} {:>12}",
        "policy", "discard_bytes", "completed"
    );
    for r in &report.results {
        let o = r.outcome.as_ref().expect("policy cell failed");
        println!(
            "{:>20} {:>16} {:>12}",
            r.label, o.switch_discard_bytes, o.conns_completed
        );
    }
    println!("\nthe paper's implication (§9): because contention varies so much across racks");
    println!("and over time, no single alpha is right — which is why measuring contention");
    println!("(what Millisampler enables) matters for buffer tuning.");
}
