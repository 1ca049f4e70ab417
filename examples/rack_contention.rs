//! Simulate one placed rack for an hour of the day and reproduce the
//! paper's per-run analysis: contention series, burst classification, and
//! the buffer-share arithmetic of §2.1/§7.3.
//!
//! ```sh
//! cargo run --release -p ms-bench --example rack_contention [ml] [--trace PATH]
//! ```
//!
//! Pass `ml` to simulate an ML-dense (RegA-High-like) rack instead of a
//! diverse (RegA-Typical-like) one. With `--trace PATH`, telemetry is
//! attached for the whole window and a Chrome/Perfetto trace of every
//! queue's occupancy, drop, and ECN activity is written to `PATH` (open it
//! at `ui.perfetto.dev`), along with a top-N text summary on stdout.
//! With `--forensics`, the drop-forensics blackbox rides along and the
//! §8 loss attribution (self-burst vs cross-flow contention vs fabric
//! transients) is printed after the run.

use ms_analysis::contention::queue_share;
use ms_workload::placement::{build_region, RackClass, RegionKind};
use ms_workload::scenario::{rack_spec_for, ScenarioConfig};

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let args: Vec<String> = std::env::args().collect();
    let want_ml = args.iter().any(|a| a == "ml");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a path").clone());
    let region = build_region(RegionKind::RegA, 50, 24, 7);
    let spec = region
        .racks
        .iter()
        .find(|r| (r.class == RackClass::MlDense) == want_ml)
        .expect("region has both classes");

    println!(
        "rack {}: class {:?}, {} distinct tasks, dominant task on {:.0}% of servers",
        spec.rack_id,
        spec.class,
        spec.distinct_tasks(),
        spec.dominant_task_share()
    );

    let cfg = ScenarioConfig::default(); // 500 x 1ms window
    let want_forensics = args.iter().any(|a| a == "--forensics");
    let mut scenario = rack_spec_for(spec, &region.diurnal, /* busy hour */ 7, 0, &cfg);
    if trace_path.is_some() {
        scenario.telemetry_ring = Some(ms_telemetry::TelemetryConfig::default().ring_capacity);
    }
    if want_forensics {
        scenario.forensics = true;
    }
    let mut sim = scenario.build();
    let report = sim.run_sync_window(spec.rack_id);
    if want_forensics {
        let [self_burst, cross, fabric] = sim.forensic_counts();
        let total = self_burst + cross + fabric;
        println!("\nloss attribution (S8): {total} classified drops");
        if total > 0 {
            let pct = |n: u64| 100.0 * n as f64 / total as f64;
            println!(
                "  self-burst       : {self_burst:>6} ({:.1}%)",
                pct(self_burst)
            );
            println!("  cross-contention : {cross:>6} ({:.1}%)", pct(cross));
            println!("  fabric-transient : {fabric:>6} ({:.1}%)", pct(fabric));
        }
    }
    if let Some(path) = &trace_path {
        let file = std::fs::File::create(path).expect("create trace file");
        let mut w = std::io::BufWriter::new(file);
        sim.write_perfetto_trace(&mut w).expect("write trace");
        print!("{}", sim.trace_summary(5));
        println!("wrote {path} — open it at https://ui.perfetto.dev\n");
    }
    let Some(run) = report.rack_run else {
        println!("rack was silent this window");
        return;
    };
    let a = ms_analysis::analyze_run(&run, ms_workload::Bps(12_500_000_000), 5);

    let cs = &a.contention_stats;
    println!(
        "\ncontention: avg {:.2}, p90 {}, max {}, min-active {:?} over {} samples",
        cs.avg, cs.p90, cs.max, cs.min_active, cs.samples
    );
    if let Some(min) = cs.min_active {
        let share_hi = queue_share(1.0, min.max(1) as usize);
        let share_lo = queue_share(1.0, cs.p90.max(1) as usize);
        println!(
            "buffer share per queue swings {:.1}% -> {:.1}% of the shared pool (drop {:.0}%)",
            100.0 * share_hi,
            100.0 * share_lo,
            100.0 * (1.0 - share_lo / share_hi)
        );
    }

    println!(
        "\nbursts: {} total, {:.1}% contended, {:.2}% lossy",
        a.bursts.len(),
        100.0 * a.contended_fraction(),
        100.0 * a.lossy_fraction()
    );

    // A compact raster of the first 120 ms: which servers were bursty when.
    println!("\nburst raster (first 120 samples; '#' = bursty):");
    let n = run.len().min(120);
    for (sid, s) in run.servers.iter().enumerate() {
        let threshold = 781_250 * (run.interval.as_millis().max(1));
        let row: String = (0..n)
            .map(|i| if s.in_bytes[i] > threshold { '#' } else { '.' })
            .collect();
        if row.contains('#') {
            println!("  server {sid:>2} |{row}|");
        }
    }
    println!(
        "\nswitch: {} bytes discarded / {} admitted over the window",
        report.switch_discard_bytes, report.switch_ingress_bytes
    );
}
