//! Golden tests for the telemetry stack (workspace-level: workload →
//! switch/transport/sampler → ms-telemetry → Perfetto export).
//!
//! The determinism contract: two identical-seed runs must serialize to
//! **byte-identical** Perfetto JSON and metrics exports. Any hash-ordered
//! collection, wall-clock leak, or unstable float formatting anywhere in
//! the instrumented stack breaks these tests.

use ms_dcsim::Ns;
use ms_telemetry::{validate_json, TelemetryConfig, TraceEvent};
use ms_transport::CcAlgorithm;
use ms_workload::{FlowSpec, ScenarioBuilder};

fn incast(dst: usize, conns: u32, total: u64) -> FlowSpec {
    FlowSpec {
        dst_server: dst,
        connections: conns,
        total_bytes: total,
        algorithm: CcAlgorithm::Dctcp,
        paced_bps: None,
        task: 1,
    }
}

/// A small contended incast that forces drops, marks, retransmits, and
/// sampler activity — every event type the stack can emit.
fn traced_run(seed: u64) -> (Vec<u8>, String, String) {
    let mut scenario = ScenarioBuilder::new(2, seed);
    scenario
        .buckets(150)
        .warmup(Ns::from_millis(10))
        .telemetry(TelemetryConfig::default())
        .flow_at(Ns::from_millis(20), incast(0, 300, 30_000_000));
    let mut sim = scenario.build();
    sim.run_sync_window(0);
    let hub = sim.telemetry().expect("telemetry attached").clone();

    let mut trace = Vec::new();
    sim.write_perfetto_trace(&mut trace).expect("write trace");
    let metrics_json = hub.borrow().metrics.to_json();
    let metrics_csv = hub.borrow().metrics.to_csv();
    (trace, metrics_json, metrics_csv)
}

#[test]
fn identical_seeds_serialize_byte_identical_traces() {
    let (trace_a, json_a, csv_a) = traced_run(7);
    let (trace_b, json_b, csv_b) = traced_run(7);
    assert_eq!(trace_a, trace_b, "Perfetto export must be byte-identical");
    assert_eq!(json_a, json_b, "metrics JSON must be byte-identical");
    assert_eq!(csv_a, csv_b, "metrics CSV must be byte-identical");
}

#[test]
fn different_seeds_diverge() {
    let (trace_a, _, _) = traced_run(7);
    let (trace_b, _, _) = traced_run(8);
    assert_ne!(
        trace_a, trace_b,
        "distinct seeds must produce distinct traces"
    );
}

#[test]
fn trace_is_valid_json_with_counters_and_drops() {
    let (trace, metrics_json, _) = traced_run(7);
    let text = String::from_utf8(trace).expect("utf-8");
    validate_json(&text).expect("trace must be valid JSON");
    validate_json(&metrics_json).expect("metrics must be valid JSON");
    assert!(text.contains("\"traceEvents\""));
    // Per-queue occupancy counter track for the incast destination.
    assert!(text.contains("queue0.occupancy"), "occupancy track missing");
    assert!(text.contains("\"ph\":\"C\""), "no counter events");
    // A 300-connection incast into one 12.5G downlink must overflow the DT
    // share: drop instants must be present.
    assert!(
        text.contains("drop:dynamic-threshold-reject") || text.contains("drop:shared-buffer-full"),
        "no drop instants in trace"
    );
    assert!(text.contains("\"ph\":\"i\""), "no instant events");
}

#[test]
fn trace_events_observe_the_contended_incast() {
    let mut scenario = ScenarioBuilder::new(2, 7);
    scenario
        .buckets(150)
        .warmup(Ns::from_millis(10))
        .telemetry(TelemetryConfig::default())
        .flow_at(Ns::from_millis(20), incast(0, 300, 30_000_000));
    let mut sim = scenario.build();
    let report = sim.run_sync_window(0);
    let hub = sim.telemetry().expect("telemetry attached").clone();

    let hub = hub.borrow();
    let mut drops = 0u64;
    let mut enqueues = 0u64;
    let mut cwnd_changes = 0u64;
    let mut sampler_closes = 0u64;
    let mut last_ns = 0u64;
    for ev in hub.bus.iter() {
        if !matches!(
            ev,
            TraceEvent::SamplerWindowClose { .. }
                | TraceEvent::SamplerWindowOpen { .. }
                | TraceEvent::FlowSpanStart { .. }
                | TraceEvent::BurstSpanStart { .. }
        ) {
            // Sim-time-stamped events are recorded in order, with two
            // exceptions that carry a *local* clock: sampler window
            // edges (NTP skew, start latched at the first post-start
            // sample) and the first span of each connection (incast
            // peers get a per-machine nanosecond stagger at creation).
            assert!(ev.ns() >= last_ns, "trace must be time-ordered");
            last_ns = ev.ns();
        }
        match ev {
            TraceEvent::PacketDrop { .. } => drops += 1,
            TraceEvent::PacketEnqueue { .. } => enqueues += 1,
            TraceEvent::CwndChange { .. } => cwnd_changes += 1,
            TraceEvent::SamplerWindowClose { .. } => sampler_closes += 1,
            _ => {}
        }
    }
    assert!(enqueues > 0, "no enqueues traced");
    assert!(drops > 0, "incast should drop");
    assert!(cwnd_changes > 0, "DCTCP cwnd never moved?");
    assert!(report.switch_discard_bytes > 0);
    // Ring-buffer flight recorder: overwrites are counted, never lost.
    assert_eq!(
        hub.bus.recorded(),
        hub.bus.len() as u64 + hub.bus.overwritten()
    );
    // The sampler window closes once per host that saw traffic after the
    // window filled; with a 150ms window inside a longer run this fires.
    let _ = sampler_closes; // presence depends on post-window traffic
                            // Metrics were finalized by run_sync_window.
    assert!(!hub.metrics.is_empty(), "finalize_metrics did not run");
}

#[test]
fn span_and_forensic_traces_are_byte_identical_per_seed() {
    // Same contract as the plain trace test, but with the forensics
    // blackbox on so the export carries flow/burst/recovery span events
    // and forensic instants too.
    let run = |seed: u64| {
        let mut scenario = ScenarioBuilder::new(2, seed);
        scenario
            .buckets(150)
            .warmup(Ns::from_millis(10))
            .telemetry(TelemetryConfig::default())
            .forensics()
            .flow_at(Ns::from_millis(20), incast(0, 300, 30_000_000));
        let mut sim = scenario.build();
        sim.run_sync_window(0);
        let mut trace = Vec::new();
        sim.write_perfetto_trace(&mut trace).expect("write trace");
        (trace, sim.trace_summary(5), sim.forensic_counts())
    };
    let (trace_a, summary_a, counts_a) = run(7);
    let (trace_b, summary_b, counts_b) = run(7);
    assert_eq!(trace_a, trace_b, "span trace must be byte-identical");
    assert_eq!(summary_a, summary_b);
    assert_eq!(counts_a, counts_b);

    let text = String::from_utf8(trace_a).expect("utf-8");
    validate_json(&text).expect("span trace must be valid JSON");
    assert!(text.contains("\"name\":\"flow\""), "no flow spans exported");
    assert!(
        text.contains("\"name\":\"burst\""),
        "no burst spans exported"
    );
    assert!(text.contains("\"ph\":\"B\""), "no duration-begin events");
    assert!(text.contains("\"ph\":\"E\""), "no duration-end events");
    assert!(
        text.contains("forensic:cross-contention") || text.contains("forensic:self-burst"),
        "no forensic instants exported"
    );
    assert!(
        summary_a.contains("flow spans:"),
        "summary lacks the FCT breakdown line: {summary_a}"
    );

    let (trace_c, ..) = run(8);
    assert_ne!(String::from_utf8(trace_c).unwrap(), text);
}

#[test]
fn every_drop_yields_exactly_one_classified_forensic() {
    let mut scenario = ScenarioBuilder::new(2, 7);
    scenario
        .buckets(150)
        .warmup(Ns::from_millis(10))
        .forensics()
        .flow_at(Ns::from_millis(20), incast(0, 300, 30_000_000));
    let mut sim = scenario.build();
    let report = sim.run_sync_window(0);
    assert!(report.switch_discard_bytes > 0, "incast must drop");

    let hub = sim.telemetry().expect("forensics attaches a hub").borrow();
    assert_eq!(hub.forensics.shed(), 0, "store must hold the whole run");
    // Every dropped byte must land in exactly one forensic.
    sim.check_conservation();
    // Every record got a definite cause and a populated context.
    for f in hub.forensics.records() {
        assert!(f.dt_threshold > 0, "DT threshold not captured");
        assert!(f.queue_occupancy > 0, "occupancy not captured");
        assert!(f.recent_kinds != 0, "event ring not captured");
    }
}

#[test]
fn trace_bus_overflow_is_counted_in_metrics_exports() {
    // A ring far smaller than the event volume: overwrites must show up
    // as the trace.events_dropped gauge, and recorded == len + dropped.
    let mut scenario = ScenarioBuilder::new(2, 7);
    scenario
        .buckets(150)
        .warmup(Ns::from_millis(10))
        .telemetry(TelemetryConfig {
            ring_capacity: 64,
            ..TelemetryConfig::default()
        })
        .flow_at(Ns::from_millis(20), incast(0, 300, 30_000_000));
    let mut sim = scenario.build();
    sim.run_sync_window(0);
    let hub = sim.telemetry().expect("telemetry attached").borrow();
    let dropped = hub.bus.overwritten();
    assert!(dropped > 0, "a 64-slot ring must overflow this run");
    assert_eq!(hub.bus.recorded(), hub.bus.len() as u64 + dropped);
    let csv = hub.metrics.to_csv();
    let line = csv
        .lines()
        .find(|l| l.starts_with("gauge,trace.events_dropped,"))
        .expect("gauge missing from CSV export");
    assert_eq!(line, format!("gauge,trace.events_dropped,value,{dropped}"));
    assert!(
        hub.metrics.to_json().contains("\"trace.events_dropped\""),
        "gauge missing from JSON export"
    );
}

#[test]
fn disabled_telemetry_changes_nothing() {
    // Identical seeds, one run with a hub attached and one without: the
    // simulation outcome (report counters) must be identical — recording
    // must never feed back into behaviour.
    let run = |attach: bool| {
        let mut scenario = ScenarioBuilder::new(2, 11);
        scenario.buckets(100).warmup(Ns::from_millis(10));
        if attach {
            scenario.telemetry(TelemetryConfig::default());
        }
        let r = scenario.build().run_sync_window(0);
        (
            r.switch_discard_bytes,
            r.switch_ingress_bytes,
            r.conns_completed,
            r.events,
        )
    };
    assert_eq!(run(false), run(true));
}
