//! The §8 microcosm: how incast fan-in and buffer contention jointly
//! determine loss.
//!
//! Sweeps the number of incast connections into one server, with and
//! without competing bursts on neighboring servers (which shrink the DT
//! buffer share), and reports drops and sampled retransmit bytes.
//!
//! ```sh
//! cargo run --release -p ms-bench --example incast_loss
//! ```
//!
//! With `--trace <path>` the sweep is skipped: one contended 200-connection
//! showcase case runs with telemetry attached and writes a Chrome/Perfetto
//! trace (open at `ui.perfetto.dev`) plus a text summary, then exits. This
//! fast path is also the CI smoke gate for the trace exporter.
//!
//! With `--forensics` the same showcase runs with the drop-forensics
//! blackbox attached and prints the §8 loss attribution: every dropped
//! packet's classified cause, cross-checked against the switch's
//! ground-truth discard counter (exits non-zero on any mismatch — this
//! is the CI forensics smoke gate).
//!
//! With `--profile <path>` the showcase runs once with a wall clock
//! injected into the deterministic engine profiler and writes the
//! per-kind dispatch table (counts and wall nanoseconds) plus a
//! collapsed-stack flamegraph text (`<path>.folded`,
//! `inferno`/`flamegraph.pl` format). Overhead figures live in `perf/`
//! (`trace_overhead_pct`, `telemetry.attached_overhead_pct`).

use ms_dcsim::Ns;
use ms_telemetry::{DropCause, TelemetryConfig};
use ms_transport::CcAlgorithm;
use ms_workload::{FlowSpec, ScenarioBuilder};

fn incast(dst: usize, conns: u32, total: u64) -> FlowSpec {
    FlowSpec {
        dst_server: dst,
        connections: conns,
        total_bytes: total,
        algorithm: CcAlgorithm::Dctcp,
        paced_bps: None,
        task: dst as u64 + 1,
    }
}

fn run_case(conns: u32, contended: bool, seed: u64) -> (u64, u64) {
    let mut scenario = ScenarioBuilder::new(8, seed);
    scenario.buckets(200).warmup(Ns::from_millis(10));
    // The burst under study: ~100 KB per connection into server 0.
    scenario.flow_at(
        Ns::from_millis(30),
        incast(0, conns, conns as u64 * 100_000),
    );
    if contended {
        // Competing bursts occupy the shared pool of the same quadrant
        // (servers 0 and 4 share quadrant 0 on an 8-server rack).
        scenario.flow_at(Ns::from_millis(29), incast(4, 60, 8_000_000));
    }
    let report = scenario.build().run_sync_window(0);
    let retx = report
        .rack_run
        .map(|r| r.servers[0].in_retx.iter().sum::<u64>())
        .unwrap_or(0);
    (report.switch_discard_bytes, retx)
}

fn run_traced(path: &str) {
    let mut scenario = showcase(42);
    scenario.telemetry(TelemetryConfig::default());
    let mut sim = scenario.build();
    let report = sim.run_sync_window(0);

    let file = std::fs::File::create(path).expect("create trace file");
    let mut w = std::io::BufWriter::new(file);
    sim.write_perfetto_trace(&mut w).expect("write trace");
    println!(
        "traced contended 200-conn incast: {} drop bytes, {} events",
        report.switch_discard_bytes, report.events
    );
    print!("{}", sim.trace_summary(5));
    println!("wrote {path} — open it at https://ui.perfetto.dev");
}

/// The contended 200-connection showcase scenario shared by the
/// `--trace`, `--forensics`, and `--profile` fast paths.
fn showcase(seed: u64) -> ScenarioBuilder {
    let mut scenario = ScenarioBuilder::new(8, seed);
    scenario
        .buckets(200)
        .warmup(Ns::from_millis(10))
        .flow_at(Ns::from_millis(30), incast(0, 200, 20_000_000))
        .flow_at(Ns::from_millis(29), incast(4, 60, 8_000_000));
    scenario
}

/// Runs the showcase with the drop-forensics blackbox and prints the §8
/// attribution. Exits non-zero unless every dropped byte is accounted
/// to exactly one classified forensic (the CI smoke contract).
fn run_forensics() {
    let mut scenario = showcase(42);
    scenario.forensics();
    let mut sim = scenario.build();
    let report = sim.run_sync_window(0);
    let hub = sim.telemetry().expect("forensics attaches telemetry");
    let tr = hub.borrow();
    let attributed: u64 = tr
        .forensics
        .records()
        .iter()
        .map(|f| u64::from(f.size))
        .sum();

    println!("drop forensics: contended 200-conn incast, seed 42");
    println!("  switch discard bytes : {}", report.switch_discard_bytes);
    println!(
        "  forensic records     : {} captured, {} shed",
        tr.forensics.len(),
        tr.forensics.shed()
    );
    for cause in DropCause::ALL {
        println!("  {:>18} : {}", cause.as_str(), tr.forensics.count(cause));
    }
    println!("  sample records (first 3):");
    for f in tr.forensics.records().iter().take(3) {
        println!(
            "    t={}ns queue={} flow={} {}B {} (queue {}B / DT {}B, burst {} pkts, \
             {} competitors, self {}B vs other {}B)",
            f.ns,
            f.queue,
            f.flow,
            f.size,
            f.cause.as_str(),
            f.queue_occupancy,
            f.dt_threshold,
            f.burst_len,
            f.competing_flows,
            f.self_bytes,
            f.other_bytes
        );
    }
    let ok = report.switch_discard_bytes > 0
        && tr.forensics.shed() == 0
        && attributed == report.switch_discard_bytes;
    if ok {
        println!("OK: every dropped byte attributed to exactly one classified forensic");
    } else {
        println!(
            "MISMATCH: {attributed} forensic bytes vs {} discarded",
            report.switch_discard_bytes
        );
        std::process::exit(1);
    }
}

/// Monotonic wall clock for the engine profiler; anchored on first call.
fn wall_clock_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "the profiler's injected wall clock times handlers, not simulated events"
    )]
    let start = START.get_or_init(std::time::Instant::now);
    // simlint: allow(cast-truncation): u64 nanoseconds cover ~584 years
    (start.elapsed().as_nanos()) as u64
}

/// Runs the showcase once with a wall clock injected into the engine
/// profiler and writes the per-kind dispatch table (`<path>`) plus the
/// collapsed-stack flamegraph text (`<path>.folded`).
fn run_profile(path: &str) {
    let mut sim = showcase(42).build();
    sim.set_profile_clock(wall_clock_ns);
    sim.run_sync_window(0);
    let profile = sim.profile();
    std::fs::write(path, profile.counts_json()).expect("write profile artifact");
    let folded = format!("{path}.folded");
    std::fs::write(&folded, profile.collapsed_stacks()).expect("write collapsed stacks");
    println!(
        "profiled {} dispatches in {:.1} ms of handler wall time",
        profile.total_dispatches(),
        profile.total_wall_ns() as f64 / 1e6
    );
    println!("wrote {path} and {folded} (feed the latter to inferno/flamegraph.pl)");
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let path = args.get(i + 1).expect("--trace needs a path");
        run_traced(path);
        return;
    }
    if args.iter().any(|a| a == "--forensics") {
        run_forensics();
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--profile") {
        let path = args.get(i + 1).expect("--profile needs a path");
        run_profile(path);
        return;
    }
    println!("incast fan-in vs loss, with and without buffer contention");
    println!("(DT alpha=1: an uncontended queue may take ~1.8MB; contention shrinks that)\n");
    println!(
        "{:>7} | {:>16} {:>14} | {:>16} {:>14}",
        "conns", "solo_drop_bytes", "solo_retx", "contended_drops", "contended_retx"
    );
    for conns in [10, 25, 50, 100, 150, 200, 300] {
        let (solo_drops, solo_retx) = run_case(conns, false, 42);
        let (cont_drops, cont_retx) = run_case(conns, true, 42);
        println!(
            "{conns:>7} | {solo_drops:>16} {solo_retx:>14} | {cont_drops:>16} {cont_retx:>14}"
        );
    }
    println!("\nreading: small incasts are absorbed; at high fan-in the aggregate initial");
    println!("windows overflow even an empty queue (§3); with contention the DT share is");
    println!("smaller and loss appears at lower fan-in (§8.2, Fig. 19).");
}
