//! Golden byte-identity tests for the buffer-policy refactor.
//!
//! The `BufferPolicy` redesign moved the Dynamic-Threshold admission
//! test out of `try_enqueue` and its `α·(B−Q)` threshold from an f64
//! multiply to exact integer emulation. The contract is that none of
//! that is observable: a `DtAlpha` switch must reproduce the
//! pre-refactor simulation *byte for byte*, seed for seed — same
//! Perfetto trace, same forensic records (including the recorded
//! threshold values), same analysis outcome bytes.
//!
//! The `GOLDEN` fingerprints were first captured at the commit
//! immediately before the refactor, on the pre-`BufferPolicy` code, and
//! re-captured once since, on an unchanged simulator, when the hashed
//! fields changed (see below).
//! They cover dyadic α (0.25, 1.0, 2.0 — where integer math is
//! trivially exact) and the α-tuner path (α = 4/(1+s), non-dyadic
//! values like 4/3 — where the threshold must emulate the f64
//! product's round-to-nearest-even exactly).
//!
//! The fingerprints hash *behaviour* only: trace bytes, forensic
//! records, ground-truth byte counters, the per-server Millisampler
//! series and the analysis outcome. The engine's dispatch count
//! (`report.events`) is bookkeeping — it moves whenever no-op events are
//! added or removed — so it is pinned in its own table, [`EVENTS`], which
//! an engine change may lower without touching `GOLDEN`.

use ms_analysis::analyze_run;
use ms_dcsim::{Bps, Ns};
use ms_telemetry::TelemetryConfig;
use ms_transport::CcAlgorithm;
use ms_workload::{FlowSpec, ScenarioBuilder};

/// FNV-1a, folded incrementally.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// One contended incast (300 conns into one 12.5G downlink) that forces
/// drops, marks, and forensic classification under the given α.
fn run_fingerprint(seed: u64, alpha: f64, tune: bool) -> (u64, u64) {
    let mut b = ScenarioBuilder::new(2, seed);
    b.buckets(150)
        .warmup(Ns::from_millis(10))
        .alpha(alpha)
        .telemetry(TelemetryConfig::default())
        .forensics()
        .flow_at(
            Ns::from_millis(20),
            FlowSpec {
                dst_server: 0,
                connections: 300,
                total_bytes: 30_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
    if tune {
        b.alpha_tune_period(Ns::from_millis(5));
    }
    let mut sim = b.build();
    let report = sim.run_sync_window(0);

    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    // Full event timeline: enqueues, drops (with reasons), ECN marks,
    // spans — any admission-decision or timing drift lands here.
    let mut trace = Vec::new();
    sim.write_perfetto_trace(&mut trace).expect("trace export");
    fnv(&mut h, &trace);
    // Forensic records carry the recorded threshold at each drop, so
    // even a ±1-byte threshold difference that flips no decision fails.
    let hub = sim.telemetry().expect("telemetry attached").clone();
    for f in hub.borrow().forensics.records() {
        fnv(&mut h, format!("{f:?}").as_bytes());
    }
    // Ground-truth counters + the full analysis outcome codec bytes.
    fnv(
        &mut h,
        format!(
            "{} {} {} {}",
            report.switch_ingress_bytes,
            report.switch_discard_bytes,
            report.flows_started,
            report.conns_completed,
        )
        .as_bytes(),
    );
    if let Some(run) = &report.rack_run {
        // The sampler's own output, per server and per bucket.
        for s in &run.servers {
            for series in [
                &s.in_bytes,
                &s.in_retx,
                &s.out_bytes,
                &s.out_retx,
                &s.in_ecn,
                &s.conns,
            ] {
                for v in series {
                    fnv(&mut h, &v.to_le_bytes());
                }
            }
        }
        let analysis = analyze_run(run, Bps(12_500_000_000), 5);
        let outcome = ms_analysis::RunOutcome::from_analysis(
            &analysis,
            report.switch_ingress_bytes,
            report.switch_discard_bytes,
            report.flows_started,
            report.conns_completed,
            report.events,
        );
        // Hash the outcome through the *pre-refactor* MSO1 schema minus
        // `events` (the `policy` column appended later is a schema
        // change, not a behavior change, so it must not invalidate the
        // captured fingerprints). Any drift in the scalar values still
        // lands here.
        let mut w = millisampler::codec::WireWriter::with_magic(b"MSO1");
        w.u64(outcome.switch_ingress_bytes);
        w.u64(outcome.switch_discard_bytes);
        w.u64(outcome.flows_started);
        w.u64(outcome.conns_completed);
        w.u64(outcome.total_in_bytes);
        w.u64(outcome.total_retx_bytes);
        w.u64(outcome.bursts);
        w.u64(outcome.contended_bursts);
        w.u64(outcome.lossy_bursts);
        w.f64(outcome.contention_avg);
        w.u64(u64::from(outcome.contention_p90));
        w.u64(u64::from(outcome.contention_max));
        w.u64(u64::from(outcome.active_servers));
        w.u64(u64::from(outcome.bursty_servers));
        fnv(&mut h, &w.finish());
    }
    (h, report.events)
}

/// `(seed, alpha, tune, fingerprint)`.
const GOLDEN: &[(u64, f64, bool, u64)] = &[
    (7, 1.0, false, 0x9404_ab39_59d4_7629),
    (11, 2.0, false, 0x43e1_d976_47e1_e6d7),
    (13, 0.25, false, 0x58e9_6b63_f0cf_2418),
    (7, 1.0, true, 0x47d6_5cd5_48ea_8811),
];

/// `report.events` of each `GOLDEN` case, in the same order: the number
/// of engine dispatches, not behaviour.
const EVENTS: &[u64] = &[46_550, 58_304, 28_407, 65_809];

#[test]
fn dt_alpha_reproduces_pre_refactor_traces_seed_for_seed() {
    let mut bad = Vec::new();
    assert_eq!(GOLDEN.len(), EVENTS.len(), "one dispatch count per case");
    for (&(seed, alpha, tune, expected), &expected_events) in GOLDEN.iter().zip(EVENTS) {
        let (got, events) = run_fingerprint(seed, alpha, tune);
        println!("({seed}, {alpha:?}, {tune}, {got:#018x}), events {events}");
        if got != expected {
            bad.push(format!(
                "seed {seed} alpha {alpha} tune {tune}: fingerprint {got:#018x} != golden {expected:#018x}"
            ));
        }
        if events != expected_events {
            bad.push(format!(
                "seed {seed} alpha {alpha} tune {tune}: events {events} != pinned {expected_events}"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
