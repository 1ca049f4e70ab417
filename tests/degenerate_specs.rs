//! Degenerate and hostile specs through the sweep runners (ROADMAP 3(d)).
//!
//! One table of cells goes through `run_fleet` on two workers and through
//! `run_fleet_to_lake`: a spec that cannot run becomes a failed row whose
//! message names the offending field, a spec that is merely odd runs, and
//! neither disturbs its neighbours. An empty cell list is an empty
//! report, and a silent rack reads the same from every road out of
//! `run_cell`.

use millisampler::{RunConfig, SchedulerConfig};
use ms_analysis::RunOutcome;
use ms_dcsim::Ns;
use ms_fleet::{
    run_cell, run_fleet, run_fleet_to_lake, CellResult, FleetCell, FleetConfig, FleetReport,
};
use ms_lake::{outcomes_csv, Batch, Lake, LakeConfig, LakeWriter, TableKind, TableScan};
use ms_transport::CcAlgorithm;
use ms_workload::{
    FatTreeOpts, FlowSpec, ScenarioBuilder, ScenarioSpec, TopoFlowSpec, TopologySpec,
};
use std::path::PathBuf;

/// What a table row must do.
enum Expect {
    /// Becomes a failed row whose message contains this.
    Fails(&'static str),
    /// Runs to an `ok` row equal to its solo run.
    Runs,
}
use Expect::{Fails, Runs};

fn cfg() -> FleetConfig {
    FleetConfig {
        jobs: 2,
        ..FleetConfig::default()
    }
}

/// Four servers, a 40 ms window.
fn base(seed: u64) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(4, seed);
    b.buckets(40).warmup(Ns::from_millis(5));
    b
}

fn flow(dst_server: usize, connections: u32, total_bytes: u64) -> FlowSpec {
    FlowSpec {
        dst_server,
        connections,
        total_bytes,
        algorithm: CcAlgorithm::Dctcp,
        paced_bps: None,
        task: 1,
    }
}

/// `base` with one 8-way incast on server 1.
fn incast(seed: u64) -> ScenarioBuilder {
    let mut b = base(seed);
    b.flow_at(Ns::from_millis(8), flow(1, 8, 400_000));
    b
}

/// An agent schedule with one run configuration.
fn rotation(interval: Ns, buckets: usize) -> SchedulerConfig {
    SchedulerConfig {
        period: Ns::from_millis(30),
        rotation: vec![RunConfig {
            interval,
            buckets,
            count_flows: true,
        }],
    }
}

/// The table, runnable rows interleaved with the ones that cannot run.
fn table() -> Vec<(&'static str, ScenarioSpec, Expect)> {
    let at = Ns::from_millis(9);
    let topo_flow = TopoFlowSpec {
        src_host: 0,
        dst_host: 1,
        connections: 1,
        total_bytes: 1000,
        algorithm: CcAlgorithm::Dctcp,
        paced_bps: None,
        task: 1,
    };
    let trunk = TopologySpec::fat_tree(
        FatTreeOpts {
            k: 1,
            ..FatTreeOpts::default()
        },
        3,
    );
    // What `decode` makes of outside bytes is only as sane as the bytes.
    let wide = ScenarioSpec::decode(&ScenarioSpec::new(1 << 40, 1).encode()).expect("decodes");
    #[rustfmt::skip]
    let rows = vec![
        ("zero servers", ScenarioSpec::new(0, 1), Fails("servers")),
        ("plain incast", incast(2).spec(), Runs),
        ("zero buckets", incast(3).buckets(0).spec(), Fails("buckets")),
        ("mss 0", incast(4).mss(0).spec(), Fails("mss")),
        ("zero-byte flow", incast(5).flow_at(at, flow(2, 4, 0)).spec(), Runs),
        ("interval 0", incast(6).interval(Ns::ZERO).spec(), Fails("sampler.interval")),
        ("2^40 buckets", incast(7).buckets(1 << 40).spec(), Fails("sampler.buckets")),
        ("zero-connection flow", incast(8).flow_at(at, flow(2, 0, 200_000)).spec(), Runs),
        ("alpha tune period 0", incast(9).alpha_tune_period(Ns::ZERO).spec(), Fails("alpha_tune_period")),
        ("agent interval 0", incast(16).agent(0, rotation(Ns::ZERO, 10)).spec(), Fails("agent rotation.interval")),
        ("agent 2^40 buckets", incast(17).agent(0, rotation(at, 1 << 40)).spec(), Fails("agent rotation.buckets")),
        ("2^40 servers", wide, Fails("num_servers")),
        ("alpha 0", incast(10).alpha(0.0).spec(), Fails("alpha")),
        ("fat tree k=1", incast(11).topology(trunk).spec(), Runs),
        ("alpha -1", incast(12).alpha(-1.0).spec(), Fails("alpha")),
        ("alpha NaN", incast(13).alpha(f64::NAN).spec(), Fails("alpha")),
        ("server out of range", incast(14).flow_at(at, flow(9, 1, 1000)).spec(), Fails("out of range")),
        ("topo flow without a tree", incast(15).topo_flow_at(at, topo_flow).spec(), Fails("fat-tree topology")),
    ];
    rows
}

fn temp_dir(name: &str) -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "tests write scratch lakes under the system temp dir"
    )]
    let dir = std::env::temp_dir().join(format!("ms-degenerate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `cells` into a fresh lake and opens it.
fn lake_of(name: &str, cells: &[FleetCell]) -> (Lake, PathBuf) {
    let dir = temp_dir(name);
    let writer = LakeWriter::create(&dir, LakeConfig::default()).unwrap();
    let manifest = run_fleet_to_lake(cells, &cfg(), &writer).unwrap();
    assert_eq!(manifest.rows(TableKind::Outcomes), cells.len() as u64);
    (Lake::open(&dir).unwrap(), dir)
}

/// `(cell, error message)` of every failed row of the outcomes table.
fn lake_failures(lake: &Lake) -> Vec<(usize, String)> {
    let cols = ["cell", "status", "error"].map(|c| TableKind::Outcomes.column(c).unwrap());
    let mut scan = TableScan::new(lake, TableKind::Outcomes, &cols, Vec::new()).unwrap();
    let mut batch = Batch::new();
    let mut out = Vec::new();
    while scan.next_batch(&mut batch).unwrap() {
        for row in 0..batch.rows {
            if batch.value(1, row) != 0 {
                let message = scan.dict()[batch.value(2, row) as usize].clone();
                out.push((batch.value(0, row) as usize, message));
            }
        }
    }
    out
}

#[test]
fn degenerate_specs_fail_in_place_and_odd_ones_run() {
    let table = table();
    let cells: Vec<FleetCell> = table
        .iter()
        .map(|(label, spec, _)| FleetCell {
            label: (*label).to_string(),
            spec: spec.clone(),
        })
        .collect();

    let report = run_fleet(&cells, &cfg());
    assert_eq!(report.results.len(), cells.len());
    for ((label, spec, expect), result) in table.iter().zip(&report.results) {
        match (expect, &result.outcome) {
            (Fails(field), Err(failure)) => assert!(
                failure.message.contains(field),
                "{label}: message must name {field:?}, got {:?}",
                failure.message
            ),
            (Runs, Ok(outcome)) => {
                assert_eq!(
                    outcome,
                    &run_cell(spec, 0, &cfg()).outcome,
                    "{label}: a neighbour of failed cells must equal its solo run"
                );
                assert!(outcome.switch_ingress_bytes > 0, "{label}: moved no bytes");
            }
            (Fails(_), Ok(_)) => panic!("{label}: ran, but cannot"),
            (Runs, Err(failure)) => panic!("{label}: failed: {}", failure.message),
        }
    }

    // The lake tells the same story, row for row and message for message.
    let (lake, dir) = lake_of("table", &cells);
    assert_eq!(outcomes_csv(&lake).unwrap(), report.to_csv());
    let from_report: Vec<(usize, String)> = report
        .results
        .iter()
        .enumerate()
        .filter_map(|(idx, r)| Some((idx, r.outcome.as_ref().err()?.message.clone())))
        .collect();
    assert_eq!(lake_failures(&lake), from_report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_cell_list_is_an_empty_report_and_an_empty_lake() {
    let report = run_fleet(&[], &cfg());
    assert!(report.results.is_empty());
    assert_eq!(report.to_csv().lines().count(), 1, "header only");
    let (lake, dir) = lake_of("empty", &[]);
    assert_eq!(outcomes_csv(&lake).unwrap(), report.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_rack_reads_the_same_from_every_road() {
    // No flows, no chatter: nothing reaches a sampler, so the run has no
    // aligned window and the outcome is the ground-truth counters alone.
    let cell = FleetCell {
        label: String::from("silent"),
        spec: base(21).spec(),
    };
    let solo = run_cell(&cell.spec, 0, &cfg());
    assert!(solo.series.is_empty() && solo.analysis.bursts.is_empty());
    assert!(
        solo.outcome.events > 0,
        "the sampler enable still dispatched"
    );
    assert_eq!(
        solo.outcome,
        RunOutcome {
            events: solo.outcome.events,
            ..RunOutcome::empty()
        }
    );

    let cells = [cell];
    let report = run_fleet(&cells, &cfg());
    assert_eq!(report.results[0].outcome.as_ref().ok(), Some(&solo.outcome));

    let (lake, dir) = lake_of("silent", &cells);
    let expected = FleetReport {
        results: vec![CellResult {
            label: cells[0].label.clone(),
            outcome: Ok(solo.outcome),
        }],
    };
    assert_eq!(outcomes_csv(&lake).unwrap(), expected.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}
