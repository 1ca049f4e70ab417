//! End-to-end contracts of the lake-backed sweep path:
//!
//! 1. **Writer determinism** — `--jobs 1` and `--jobs 4` sweeps compact
//!    to byte-identical segment files (same manifest, same bytes).
//! 2. **Query fidelity** — the out-of-core aggregation over a
//!    multi-segment lake equals the in-memory fold bit for bit, and the
//!    lake's outcomes CSV equals `FleetReport::to_csv` byte for byte.
//! 3. **Bounded memory** — scanning a lake ≥10× the chunk budget never
//!    holds more than one chunk of rows per open column.
//! 4. **Pushdown** — a cell-range predicate skips non-matching chunks
//!    without reading them.
//! 5. **Compression** — a day of 1 s diurnal series compacts to at most
//!    a quarter of its raw column bytes.

use ms_dcsim::Ns;
use ms_fleet::{
    run_fleet, run_fleet_in_memory_aggregate, run_fleet_to_lake, FleetConfig, FleetGrid,
    PlacementKind,
};
use ms_lake::{
    lake_sweep_aggregate, outcomes_csv, synth_diurnal_series, Batch, CellRows, ColumnRange, Lake,
    LakeConfig, LakeWriter, TableKind, TableScan,
};
use ms_transport::CcAlgorithm;
use std::path::PathBuf;

/// A small 8-cell grid sized to run in well under a second per cell.
fn small_grid() -> FleetGrid {
    FleetGrid {
        servers: 4,
        buckets: 60,
        warmup: Ns::from_millis(5),
        seeds: vec![1, 2],
        alphas: vec![0.5, 2.0],
        placements: vec![PlacementKind::SingleVictim, PlacementKind::Spread],
        ccs: vec![CcAlgorithm::Dctcp],
        policies: vec![ms_dcsim::PolicyKind::DtAlpha],
        connections: 12,
        total_bytes: 600_000,
        forensics: true,
        topos: vec![ms_fleet::TopoPoint::SingleRack],
    }
}

fn cfg(jobs: usize) -> FleetConfig {
    FleetConfig {
        jobs,
        progress: false,
        // A low analysis line rate so the small grid's incast exceeds the
        // 50%-of-line-rate burst threshold and populates the bursts table.
        link_bps: ms_workload::Bps(1_000_000_000),
        ..FleetConfig::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "tests write scratch lakes under the system temp dir"
    )]
    let dir = std::env::temp_dir().join(format!("ms-lake-rt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small segments force the multi-segment code paths even on an 8-cell
/// grid: 4 servers × 60 buckets × 8 cells = 1920 series rows → many
/// segments of 128 rows, chunked at 32.
fn small_lake_cfg() -> LakeConfig {
    LakeConfig {
        chunk_rows: 32,
        segment_rows: 128,
    }
}

fn sweep_to_lake(dir: &PathBuf, jobs: usize) -> Lake {
    let cells = small_grid().cells();
    let writer = LakeWriter::create(dir, small_lake_cfg()).unwrap();
    run_fleet_to_lake(&cells, &cfg(jobs), &writer).unwrap();
    Lake::open(dir).unwrap()
}

#[test]
fn jobs_1_and_jobs_4_lakes_are_byte_identical() {
    let dir1 = temp_dir("j1");
    let dir4 = temp_dir("j4");
    let lake1 = sweep_to_lake(&dir1, 1);
    let lake4 = sweep_to_lake(&dir4, 4);

    assert_eq!(lake1.manifest, lake4.manifest);
    assert!(!lake1.manifest.entries.is_empty());
    for e in &lake1.manifest.entries {
        let a = std::fs::read(dir1.join(&e.file)).unwrap();
        let b = std::fs::read(dir4.join(&e.file)).unwrap();
        assert_eq!(a, b, "{} differs between jobs 1 and jobs 4", e.file);
    }
    // The grid really does span multiple segments per table.
    assert!(
        lake1
            .manifest
            .entries
            .iter()
            .filter(|e| e.table == TableKind::Series)
            .count()
            > 1,
        "series table must roll across segments"
    );
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn forensics_table_attributes_every_dropped_byte() {
    let dir = temp_dir("forensics");
    // A harder incast than small_grid(): enough synchronized senders at
    // a tight DT α that the shared buffer must discard.
    let grid = FleetGrid {
        alphas: vec![0.25, 0.5],
        connections: 160,
        total_bytes: 20_000_000,
        ..small_grid()
    };
    let cells = grid.cells();
    let writer = LakeWriter::create(&dir, small_lake_cfg()).unwrap();
    run_fleet_to_lake(&cells, &cfg(2), &writer).unwrap();
    let lake = Lake::open(&dir).unwrap();

    // Per-cell dropped bytes according to the forensics blackbox.
    let cell_col = TableKind::Forensics.column("cell").unwrap();
    let size_col = TableKind::Forensics.column("size").unwrap();
    let mut scan = TableScan::new(
        &lake,
        TableKind::Forensics,
        &[cell_col, size_col],
        Vec::new(),
    )
    .unwrap();
    let mut batch = Batch::new();
    let mut forensic_bytes = [0u64; 8];
    let mut forensic_rows = 0u64;
    while scan.next_batch(&mut batch).unwrap() {
        for r in 0..batch.rows {
            forensic_bytes[batch.value(0, r) as usize] += batch.value(1, r);
            forensic_rows += 1;
        }
    }
    assert!(forensic_rows > 0, "the incast grid must drop packets");

    // Ground truth: the outcomes table's switch discard counter. The
    // grid has no fabric tier and no NIC faults, so every drop is an
    // on-switch drop and the blackbox must account for every byte.
    let oc_cell = TableKind::Outcomes.column("cell").unwrap();
    let oc_discard = TableKind::Outcomes.column("switch_discard_bytes").unwrap();
    let mut scan = TableScan::new(
        &lake,
        TableKind::Outcomes,
        &[oc_cell, oc_discard],
        Vec::new(),
    )
    .unwrap();
    let mut discard_bytes = [0u64; 8];
    while scan.next_batch(&mut batch).unwrap() {
        for r in 0..batch.rows {
            discard_bytes[batch.value(0, r) as usize] = batch.value(1, r);
        }
    }
    assert_eq!(forensic_bytes, discard_bytes);

    // The §8 attribution histogram folds the same rows: totals match,
    // and nothing classifies as fabric-transient in a rack-only grid.
    let attr = ms_lake::lake_loss_attribution(&lake).unwrap();
    let attr_total: u64 = attr.iter().map(ms_lake::CellAttribution::total).sum();
    assert_eq!(attr_total, forensic_rows);
    assert!(attr.iter().all(|a| a.fabric_transient == 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_compare_report_folds_a_lossy_grid_per_policy() {
    use ms_dcsim::PolicyKind;
    let dir = temp_dir("pcmp");
    // One lossy base cell (tight α, hard incast) swept across three
    // buffer policies — the ISSUE's "does sharing move the loss split?"
    // fixture, kept to 3 cells so the suite stays fast.
    let grid = FleetGrid {
        seeds: vec![1],
        alphas: vec![0.25],
        placements: vec![PlacementKind::SingleVictim],
        policies: vec![
            PolicyKind::DtAlpha,
            PolicyKind::FlexibleBounds,
            PolicyKind::DelayDriven,
        ],
        connections: 160,
        total_bytes: 20_000_000,
        ..small_grid()
    };
    let cells = grid.cells();
    assert_eq!(cells.len(), 3);
    let writer = LakeWriter::create(&dir, small_lake_cfg()).unwrap();
    run_fleet_to_lake(&cells, &cfg(2), &writer).unwrap();
    let lake = Lake::open(&dir).unwrap();

    let rows = ms_lake::lake_policy_compare(&lake).unwrap();
    assert_eq!(rows.len(), 3, "one row per swept policy");
    let labels: Vec<&str> = rows.iter().map(|r| r.policy.label()).collect();
    assert_eq!(labels, vec!["dt", "fb", "delay"]);
    for r in &rows {
        assert_eq!(r.cells, 1);
        assert!(r.ingress_bytes > 0);
        // Every attributed drop is on-switch in a rack-only grid, and a
        // policy's attribution rows exist exactly when it discarded
        // (FB's laxer bounds can absorb an incast DT rejects).
        assert_eq!(r.fabric_transient, 0);
        assert_eq!(
            r.self_burst + r.cross_contention > 0,
            r.discard_bytes > 0,
            "{}: attribution must mirror discards",
            r.policy.label()
        );
    }
    let dt = &rows[0];
    assert!(dt.discard_bytes > 0, "DT at α=0.25 must drop here");

    // The rendered CSV keys rows by policy label and the attribution
    // CSV carries the per-cell policy join column.
    let csv = ms_lake::policy_compare_csv(&lake).unwrap();
    assert!(csv.starts_with("policy,cells,"));
    for label in ["\ndt,", "\nfb,", "\ndelay,"] {
        assert!(csv.contains(label), "{csv}");
    }
    let attr = ms_lake::attribution_csv(&lake).unwrap();
    assert!(attr.starts_with("cell,policy,"));
    // Each policy that dropped shows up in the per-cell join column.
    for r in rows.iter().filter(|r| r.discard_bytes > 0) {
        let key = format!(",{},", r.policy.label());
        assert!(attr.contains(&key), "{attr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_core_aggregate_equals_in_memory_fold_bit_for_bit() {
    let dir = temp_dir("agg");
    let lake = sweep_to_lake(&dir, 3);
    let cells = small_grid().cells();

    let in_memory = run_fleet_in_memory_aggregate(&cells, &cfg(1));
    let from_lake = lake_sweep_aggregate(&lake).unwrap();
    assert_eq!(from_lake, in_memory);
    assert_eq!(from_lake.to_csv(), in_memory.to_csv());
    assert_eq!(from_lake.cells, 8);
    assert!(from_lake.bursts > 0, "the incast grid must produce bursts");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lake_outcomes_csv_equals_fleet_report_csv() {
    let dir = temp_dir("csv");
    let lake = sweep_to_lake(&dir, 2);
    let cells = small_grid().cells();

    let report = run_fleet(&cells, &cfg(1));
    assert_eq!(outcomes_csv(&lake).unwrap(), report.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_memory_is_bounded_by_one_chunk_over_a_10x_lake() {
    let dir = temp_dir("mem");
    let lake = sweep_to_lake(&dir, 2);

    let chunk_rows = small_lake_cfg().chunk_rows as u64;
    let total_rows = lake.manifest.rows(TableKind::Series);
    assert!(
        total_rows >= 10 * chunk_rows,
        "lake ({total_rows} rows) must be ≥10× the chunk budget ({chunk_rows})"
    );

    let mut scan = TableScan::full(&lake, TableKind::Series).unwrap();
    let mut batch = Batch::new();
    let mut rows_seen = 0u64;
    while scan.next_batch(&mut batch).unwrap() {
        assert!(
            batch.rows as u64 <= chunk_rows,
            "a batch exceeded the chunk budget"
        );
        rows_seen += batch.rows as u64;
    }
    assert_eq!(rows_seen, total_rows);
    let stats = scan.stats();
    assert_eq!(stats.rows_scanned, total_rows);
    assert!(
        stats.peak_resident_rows <= chunk_rows,
        "peak resident rows {} exceeds chunk budget {chunk_rows}",
        stats.peak_resident_rows
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cell_predicate_pushdown_skips_chunks_unread() {
    let dir = temp_dir("push");
    let lake = sweep_to_lake(&dir, 2);

    let cell_col = TableKind::Series.column("cell").unwrap();
    let range = ColumnRange {
        col: cell_col,
        min: 6,
        max: 6,
    };
    let mut scan = TableScan::new(&lake, TableKind::Series, &[cell_col], vec![range]).unwrap();
    let mut batch = Batch::new();
    let mut matching = 0u64;
    while scan.next_batch(&mut batch).unwrap() {
        for r in 0..batch.rows {
            // Pushdown is chunk-granular: surviving chunks may straddle
            // neighbouring cells, so filter exactly here.
            if batch.value(0, r) == 6 {
                matching += 1;
            }
        }
    }
    // One cell = 4 servers × 60 buckets.
    assert_eq!(matching, 240);
    let stats = scan.stats();
    assert!(
        stats.chunks_skipped > stats.chunks_read,
        "most chunks must be skipped (read {}, skipped {})",
        stats.chunks_read,
        stats.chunks_skipped
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diurnal_day_compresses_at_least_4x_below_raw_column_bytes() {
    let dir = temp_dir("compress");
    let series = synth_diurnal_series(1, 8, 86_400, Ns::from_secs(1));
    let rows: u64 = series.iter().map(|s| s.len() as u64).sum();
    let raw_bytes = rows * 8 * TableKind::Series.columns().len() as u64;
    let writer = LakeWriter::create(&dir, LakeConfig::default()).unwrap();
    let mut shard = writer.shard_writer_named("diurnal").unwrap();
    shard
        .append(&CellRows {
            cell: 0,
            label: String::from("diurnal"),
            outcome: None,
            bursts: Vec::new(),
            series,
            forensics: Vec::new(),
        })
        .unwrap();
    shard.finish().unwrap();
    let manifest = writer.compact().unwrap();
    assert_eq!(manifest.rows(TableKind::Series), rows);
    let lake_bytes = manifest.bytes(TableKind::Series);
    assert!(
        lake_bytes * 4 <= raw_bytes,
        "{lake_bytes} lake bytes for {raw_bytes} raw column bytes is below the 4x bound"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
