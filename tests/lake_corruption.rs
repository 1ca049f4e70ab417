//! Corruption totality: every single-byte mutation and every truncation
//! of an encoded artifact must surface as `Err` — never a panic, never
//! a hang, never a silently wrong decode. Mutations are driven by the
//! deterministic `SimRng`, so a failure reproduces exactly.
//!
//! Covers all three checksummed on-disk formats ms-lake touches: the
//! millisampler run codec (`MSR3`), shard cell records (`MSC2`), and full
//! lake segments (`MSL1` version 2), the last via `verify_segment_bytes`,
//! which also decodes every column value and cross-checks footer
//! min/max. Each ends in an 8-byte XXH64 checksum
//! (`millisampler::codec::xxh64`) over the bytes it guards.
//!
//! The two formats without a checksum, scenario specs (`MSS2`) and run
//! outcomes (`MSO1`), get hostile bytes instead: flips, truncations and
//! length fields inflated to `MAX_LIST_LEN` and beyond. There a mutant
//! may decode, but only to a value that re-encodes to exactly its bytes.

use millisampler::codec;
use millisampler::HostSeries;
use ms_analysis::{BurstRow, RunOutcome};
use ms_dcsim::{Ns, SimRng};
use ms_lake::segment::{verify_segment_bytes, SegmentWriter, TableKind};
use ms_lake::CellRows;
use ms_transport::CcAlgorithm;
use ms_workload::spec::MAX_LIST_LEN;
use ms_workload::{
    Bps, Bytes, FatTreeOpts, FlowSpec, ScenarioBuilder, ScenarioSpec, TopoFlowSpec, TopologySpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn sample_series(seed: u64) -> HostSeries {
    let mut rng = SimRng::new(seed);
    let mut s = HostSeries::zeroed(3, Ns::from_millis(17), Ns::from_millis(1), 64);
    for b in 0..s.len() {
        s.in_bytes[b] = 40_000 + rng.gen_range(20_000);
        s.out_bytes[b] = 10_000 + rng.gen_range(9_000);
        s.conns[b] = 1 + rng.gen_range(16);
        if rng.gen_bool(0.05) {
            s.in_retx[b] = 1460 * (1 + rng.gen_range(3));
        }
    }
    s
}

fn sample_segment() -> Vec<u8> {
    let mut w = SegmentWriter::new(TableKind::Bursts, 16);
    w.dict_id("corruption-test");
    let mut rng = SimRng::new(99);
    for i in 0..100u64 {
        w.push_row(&[
            i / 9,
            i % 8,
            i * 3,
            1 + i % 6,
            5_000 + rng.gen_range(100_000),
            (0.25 + i as f64).to_bits(),
            i % 5,
            u64::from(i % 5 >= 2),
            u64::from(i % 7 == 0),
            rng.gen_range(3_000),
        ])
        .unwrap();
    }
    w.finish()
}

fn sample_cell_record() -> Vec<u8> {
    let mut o = RunOutcome::empty();
    o.bursts = 4;
    o.contention_avg = 1.75;
    CellRows {
        cell: 11,
        label: String::from("s2-a0.50-paired-dctcp"),
        outcome: Some(Ok(o)),
        bursts: vec![BurstRow {
            cell: 11,
            server: 2,
            start: 9,
            len: 3,
            bytes: 42_000,
            avg_conns: 3.5,
            max_contention: 4,
            contended: true,
            lossy: true,
            retx_bytes: 2920,
        }],
        series: vec![sample_series(5)],
        forensics: vec![ms_telemetry::DropForensic {
            ns: 17_500_000,
            queue: 2,
            flow: 9,
            size: 1500,
            reason: ms_telemetry::DropReason::DynamicThresholdReject,
            cause: ms_telemetry::DropCause::CrossContention,
            queue_occupancy: 90_000,
            shared_occupancy: 240_000,
            dt_threshold: 88_000,
            burst_len: 6,
            competing_flows: 3,
            self_bytes: 9_000,
            other_bytes: 27_000,
            ecn_on: true,
            recent_kinds: 0x0101_0404_0303_0101,
        }],
    }
    .encode()
}

/// Asserts `decode` fails on every truncation of `bytes` and on a
/// deterministic sweep of single-byte corruptions (every position, with
/// an rng-chosen non-zero XOR so the byte always actually changes).
fn assert_corruption_total(name: &str, bytes: &[u8], decode: &dyn Fn(&[u8]) -> bool) {
    assert!(decode(bytes), "{name}: pristine bytes must decode");
    for cut in 0..bytes.len() {
        assert!(
            !decode(&bytes[..cut]),
            "{name}: truncation to {cut}/{} bytes decoded",
            bytes.len()
        );
    }
    let mut rng = SimRng::new(0xC0FFEE);
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.to_vec();
        // simlint: allow(cast-truncation): value is masked to a byte
        let xor = (1 + rng.gen_range(255)) as u8;
        corrupt[pos] ^= xor;
        assert!(
            !decode(&corrupt),
            "{name}: flipping byte {pos} (xor {xor:#04x}) still decoded"
        );
    }
}

#[test]
fn millisampler_codec_rejects_all_corruption() {
    let series = sample_series(1);
    let bytes = codec::encode(&series);
    assert_corruption_total("codec", &bytes, &|b| codec::decode(b).is_ok());
}

#[test]
fn lake_segments_reject_all_corruption() {
    let bytes = sample_segment();
    assert_corruption_total("segment", &bytes, &|b| verify_segment_bytes(b).is_ok());
}

#[test]
fn shard_cell_records_reject_all_corruption() {
    let bytes = sample_cell_record();
    assert_corruption_total("cell-record", &bytes, &|b| CellRows::decode(b).is_ok());
}

#[test]
fn corrupted_decode_is_err_not_wrong_data() {
    // Spot-check the stronger property on the codec: when a corrupt
    // input *structurally* decodes (checksum is what saves us), the
    // checksum must catch it — i.e. no mutation may round-trip to a
    // different series.
    let series = sample_series(2);
    let bytes = codec::encode(&series);
    let mut rng = SimRng::new(7);
    for _ in 0..256 {
        let mut corrupt = bytes.clone();
        let pos = rng.gen_range(bytes.len() as u64) as usize;
        // simlint: allow(cast-truncation): value is masked to a byte
        let xor = (1 + rng.gen_range(255)) as u8;
        corrupt[pos] ^= xor;
        match codec::decode(&corrupt) {
            Err(_) => {}
            Ok(decoded) => assert_eq!(
                decoded, series,
                "byte {pos} xor {xor:#04x} decoded to different data"
            ),
        }
    }
}

/// A rack spec that fills every list and option of the `MSS2` layout.
fn rack_spec() -> ScenarioSpec {
    let mut b = ScenarioBuilder::new(8, 42);
    b.buckets(200)
        .interval(Ns::from_millis(1))
        .count_flows(true)
        .warmup(Ns::from_millis(20))
        .alpha(2.0)
        .ecn_threshold(Bytes::from_kib(60))
        .alpha_tune_period(Ns::from_millis(5))
        .fabric_smoothing(Bps(11_000_000_000))
        .forensics()
        .flow_at(
            Ns::from_millis(30),
            FlowSpec {
                dst_server: 1,
                connections: 20,
                total_bytes: 4_000_000,
                algorithm: CcAlgorithm::Cubic,
                paced_bps: Some(Bps(9_000_000_000)),
                task: 7,
            },
        )
        .nic_drops(5, 7, 0.015)
        .stall(3, Ns::from_millis(10), Ns::from_millis(20))
        .chatter(1, 40, 8_000)
        .join_multicast(77, 4)
        .multicast_burst(Ns::from_millis(50), 77, 100, 1500, Bps(2_000_000_000));
    b.spec()
}

/// A fat-tree spec, so both trailing tagged sections are present.
fn tree_spec() -> ScenarioSpec {
    let opts = FatTreeOpts {
        k: 4,
        ..FatTreeOpts::default()
    };
    let mut b = ScenarioBuilder::new(16, 11);
    b.buckets(100)
        .topology(TopologySpec::fat_tree(opts, 7))
        .topo_flow_at(
            Ns::from_millis(5),
            TopoFlowSpec {
                src_host: 12,
                dst_host: 0,
                connections: 8,
                total_bytes: 2_000_000,
                algorithm: CcAlgorithm::Reno,
                paced_bps: None,
                task: 3,
            },
        );
    b.spec()
}

fn sample_outcome() -> RunOutcome {
    let mut o = RunOutcome::empty();
    o.switch_ingress_bytes = 123_456_789;
    o.switch_discard_bytes = 4_242;
    o.events = 999_999;
    o.bursts = 41;
    o.lossy_bursts = 3;
    o.contention_avg = 1.625;
    o.contention_max = 5;
    o.active_servers = 8;
    o
}

/// Every hostile variant of `bytes`, each with a description: all
/// truncations, all eight single-bit flips and one seeded byte XOR per
/// position, and the varint starting at each position replaced by a
/// length at, just past, and far past `MAX_LIST_LEN`.
fn hostile_mutants(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = (0..bytes.len())
        .map(|cut| (format!("truncation to {cut}"), bytes[..cut].to_vec()))
        .collect();
    let mut rng = SimRng::new(0x5EED);
    for pos in 0..bytes.len() {
        // simlint: allow(cast-truncation): value is masked to a byte
        let xor = (1 + rng.gen_range(255)) as u8;
        for flip in (0..8).map(|bit| 1u8 << bit).chain([xor]) {
            let mut m = bytes.to_vec();
            m[pos] ^= flip;
            out.push((format!("xor {flip:#04x} at byte {pos}"), m));
        }
        let varint_len = bytes[pos..]
            .iter()
            .position(|b| b & 0x80 == 0)
            .map_or(bytes.len() - pos, |i| i + 1);
        for len in [MAX_LIST_LEN, MAX_LIST_LEN + 1, 1 << 40, u64::MAX] {
            let mut w = codec::WireWriter::new();
            w.u64(len);
            let mut m = bytes[..pos].to_vec();
            m.extend_from_slice(&w.finish());
            m.extend_from_slice(&bytes[pos + varint_len..]);
            out.push((format!("varint at byte {pos} inflated to {len}"), m));
        }
    }
    out
}

/// Asserts `reencode` (decode, then encode the value) turns every
/// hostile mutant of `bytes` into `None` or into exactly the mutant's
/// bytes, and never panics. A length field sized into an allocation
/// before the bytes behind it were read would abort the run at 2^40.
fn assert_hostile_total(name: &str, bytes: &[u8], reencode: &dyn Fn(&[u8]) -> Option<Vec<u8>>) {
    assert_eq!(reencode(bytes).as_deref(), Some(bytes), "{name}: pristine");
    let mut findings = Vec::new();
    for (what, m) in hostile_mutants(bytes) {
        match catch_unwind(AssertUnwindSafe(|| reencode(&m))) {
            Err(_) => findings.push(format!("{what}: panicked")),
            Ok(Some(again)) if again != m => {
                findings.push(format!(
                    "{what}: decoded to a value that re-encodes differently"
                ));
            }
            Ok(_) => {}
        }
    }
    assert!(
        findings.is_empty(),
        "{name}: {} hostile mutants misbehaved, first: {:#?}",
        findings.len(),
        &findings[..findings.len().min(8)]
    );
}

#[test]
fn scenario_specs_survive_hostile_bytes() {
    let spec = |b: &[u8]| ScenarioSpec::decode(b).ok().map(|s| s.encode());
    assert_hostile_total("rack spec", &rack_spec().encode(), &spec);
    assert_hostile_total("tree spec", &tree_spec().encode(), &spec);
}

#[test]
fn run_outcomes_survive_hostile_bytes() {
    let bytes = sample_outcome().encode();
    assert_hostile_total("outcome", &bytes, &|b| {
        RunOutcome::decode(b).ok().map(|o| o.encode())
    });
}
