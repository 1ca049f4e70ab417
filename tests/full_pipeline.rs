//! Cross-crate integration: placement → scenario → simulation →
//! Millisampler collection → analysis, end to end.

use ms_analysis::analyze_run;
use ms_dcsim::Ns;
use ms_workload::placement::{build_region, RackClass, RegionKind};
use ms_workload::scenario::{rack_spec_for, ScenarioConfig};

const LINK: ms_workload::Bps = ms_workload::Bps(12_500_000_000);

fn small_cfg() -> ScenarioConfig {
    ScenarioConfig {
        buckets: 200,
        warmup: Ns::from_millis(30),
        ..ScenarioConfig::default()
    }
}

#[test]
fn placed_rack_produces_analyzable_data() {
    let region = build_region(RegionKind::RegA, 10, 12, 31);
    let spec = &region.racks[0];
    let mut sim = rack_spec_for(spec, &region.diurnal, 7, 0, &small_cfg()).build();
    let report = sim.run_sync_window(spec.rack_id);
    let run = report.rack_run.expect("traffic flowed");
    assert_eq!(run.servers.len(), 12, "one row per server");
    let a = analyze_run(&run, LINK, 5);
    assert!(a.total_in_bytes > 0);
    assert_eq!(a.num_servers, 12);
    // Chatter makes every server active even if not bursty.
    assert_eq!(a.active_servers, 12);
    assert_eq!(a.contention.len(), run.len());
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run_once = || {
        let region = build_region(RegionKind::RegB, 4, 10, 77);
        let spec = &region.racks[2];
        let mut sim = rack_spec_for(spec, &region.diurnal, 9, 0, &small_cfg()).build();
        let report = sim.run_sync_window(spec.rack_id);
        let run = report.rack_run.unwrap();
        let a = analyze_run(&run, LINK, 5);
        (
            report.switch_discard_bytes,
            report.events,
            a.total_in_bytes,
            a.bursts.len(),
            a.contention_stats.avg.to_bits(),
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn different_hours_differ_but_same_hour_repeats() {
    let region = build_region(RegionKind::RegA, 6, 10, 5);
    let spec = &region.racks[1];
    let cfg = small_cfg();
    let volume_at = |hour: usize| {
        let mut sim = rack_spec_for(spec, &region.diurnal, hour, 0, &cfg).build();
        sim.run_sync_window(spec.rack_id)
            .rack_run
            .map(|r| r.servers.iter().map(|s| s.total_in_bytes()).sum::<u64>())
            .unwrap_or(0)
    };
    assert_eq!(volume_at(7), volume_at(7), "same cell must repeat");
    assert_ne!(volume_at(7), volume_at(15), "different hours must differ");
}

#[test]
fn ml_dense_racks_more_contended_than_diverse() {
    let region = build_region(RegionKind::RegA, 15, 16, 13);
    let cfg = small_cfg();
    let avg_contention = |class: RackClass| {
        let specs: Vec<_> = region
            .racks
            .iter()
            .filter(|r| r.class == class)
            .take(2)
            .collect();
        let mut total = 0.0;
        for spec in &specs {
            let mut sim = rack_spec_for(spec, &region.diurnal, 7, 0, &cfg).build();
            if let Some(run) = sim.run_sync_window(spec.rack_id).rack_run {
                total += analyze_run(&run, LINK, 5).contention_stats.avg;
            }
        }
        total / specs.len() as f64
    };
    let ml = avg_contention(RackClass::MlDense);
    let diverse = avg_contention(RackClass::Diverse);
    assert!(
        ml > diverse * 2.0,
        "ML-dense contention {ml:.2} should dwarf diverse {diverse:.2}"
    );
}

#[test]
fn dctcp_holds_queue_near_ecn_threshold() {
    // §3: DCTCP + the 120 KB static ECN threshold keep steady-state queues
    // shallow — the mechanism behind "smaller stable buffers" on contended
    // racks. Drive one queue with a long greedy transfer and check the
    // occupancy distribution at the ToR, read off the trace ring's
    // admission records.
    use ms_telemetry::{TelemetryConfig, TraceEvent};
    use ms_transport::CcAlgorithm;
    use ms_workload::{FlowSpec, ScenarioBuilder};

    let mut scenario = ScenarioBuilder::new(4, 55);
    scenario
        .buckets(300)
        .warmup(Ns::from_millis(10))
        // The ring keeps the newest events: 2^16 of them cover the last
        // few tens of ms of the run, all well past slow start.
        .telemetry(TelemetryConfig {
            ring_capacity: 1 << 16,
            ..TelemetryConfig::default()
        })
        .flow_at(
            Ns::from_millis(20),
            FlowSpec {
                dst_server: 1,
                connections: 4,
                total_bytes: 200_000_000, // saturates the whole window
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: None,
                task: 1,
            },
        );
    let mut sim = scenario.build();
    sim.run_until(Ns::from_millis(300));

    // Skip slow-start (first 30ms of samples); then the queue should sit
    // near the 120KB threshold, far below the ~1.8MB DT cap.
    let hub = sim.telemetry().expect("telemetry attached").borrow();
    let samples: Vec<u64> = hub
        .bus
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::PacketEnqueue {
                ns,
                queue: 1,
                occupancy,
                ..
            } if ns > Ns::from_millis(50).as_nanos() => Some(occupancy.as_u64()),
            _ => None,
        })
        .collect();
    assert!(
        samples.len() > 1000,
        "queue saw traffic ({})",
        samples.len()
    );
    let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    assert!(
        (20_000.0..400_000.0).contains(&mean),
        "steady-state mean occupancy {mean:.0}B should sit near the 120KB threshold"
    );
    let above_cap = samples.iter().filter(|&&o| o > 1_000_000).count();
    assert_eq!(above_cap, 0, "queue never approaches the DT cap");
}

#[test]
fn millisampler_totals_track_switch_ground_truth() {
    // The sampler's view (bytes into hosts) must closely match the switch
    // counters (bytes admitted), modulo warmup traffic outside the window.
    let region = build_region(RegionKind::RegA, 6, 10, 21);
    let spec = &region.racks[0];
    let mut sim = rack_spec_for(spec, &region.diurnal, 7, 0, &small_cfg()).build();
    let report = sim.run_sync_window(spec.rack_id);
    let run = report.rack_run.unwrap();
    let sampled: u64 = run.servers.iter().map(|s| s.total_in_bytes()).sum();
    // Sampled window ⊂ whole simulation: sampled <= admitted.
    assert!(sampled <= report.switch_ingress_bytes);
    // And the window is most of the simulation, so it can't be tiny.
    assert!(
        sampled * 4 > report.switch_ingress_bytes,
        "sampled {sampled} vs admitted {}",
        report.switch_ingress_bytes
    );
}
