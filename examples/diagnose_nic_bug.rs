//! The §4.2 war story as a runnable example: "Millisampler helped uncover
//! a NIC firmware bug by isolating examples of packet loss although
//! utilization was low at fine time-scales."
//!
//! We inject a NIC-level random drop fault on one server (the packet
//! vanishes before the kernel ever sees it, so the switch is innocent),
//! collect Millisampler data, and let the diagnostic detector point at
//! the culprit.
//!
//! ```sh
//! cargo run --release -p ms-bench --example diagnose_nic_bug
//! ```

use ms_analysis::diagnose::{loss_at_low_utilization, FindingKind};
use ms_dcsim::Ns;
use ms_transport::CcAlgorithm;
use ms_workload::{Bps, FlowSpec, ScenarioBuilder};

fn main() {
    let mut scenario = ScenarioBuilder::new(8, 2024);
    scenario.buckets(600).warmup(Ns::from_millis(20));

    // Gentle paced traffic to every server — nothing here should lose.
    for dst in 0..8 {
        scenario.flow_at(
            Ns::from_millis(30),
            FlowSpec {
                dst_server: dst,
                connections: 3,
                total_bytes: 8_000_000,
                algorithm: CcAlgorithm::Dctcp,
                paced_bps: Some(Bps(1_500_000_000)), // ~12% utilization
                task: dst as u64,
            },
        );
    }
    // The buggy NIC: server 5 silently drops 1.5% of packets.
    scenario.nic_drops(5, 7, 0.015);

    let report = scenario.build().run_sync_window(0);
    println!(
        "switch discards: {} bytes (the network is innocent)",
        report.switch_discard_bytes
    );
    let run = report.rack_run.expect("traffic sampled");

    println!("\nper-server diagnosis (20ms windows, flag retx at <10% util):");
    let mut suspects = 0;
    for s in &run.servers {
        let findings = loss_at_low_utilization(s, Bps(12_500_000_000), 20, 0.10);
        let retx: u64 = s.in_retx.iter().sum();
        let util = 100.0 * s.avg_utilization(Bps(12_500_000_000));
        print!(
            "  server {}: util {:>5.2}%, retx {:>7} B, findings {:>2}",
            s.host,
            util,
            retx,
            findings.len()
        );
        if let Some(f) = findings.first() {
            let FindingKind::LossAtLowUtilization {
                retx_bytes,
                utilization,
            } = f.kind;
            print!(
                "  <-- SUSPECT: {} retx bytes at {:.1}% utilization in [{}ms,{}ms)",
                retx_bytes,
                100.0 * utilization,
                f.start,
                f.end
            );
            suspects += 1;
        }
        println!();
    }
    println!(
        "\n{} server(s) flagged; the fault was injected on server 5.",
        suspects
    );
}
