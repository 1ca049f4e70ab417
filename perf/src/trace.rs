//! The traced pass: one workload run with benchmark-side spans around
//! every call across a layer boundary and the engine profiler's wall
//! clock switched on, the per-workload layer metrics derived from it,
//! and `trace.json` / `layers.json`.
//!
//! End-to-end numbers never come from here: the traced reps pay for the
//! profiler clock, which `trace_overhead_pct` reports.

use crate::json::{obj, Value};
use crate::layers::Table;
use crate::run::RunOpts;
use crate::spans::{self_times, SelfTime, Span, Tracer};
use crate::spec::layer_metrics;
use crate::stats::summarize;
use crate::workloads::{self, Checks, RepOutput, DISPATCH_GROUPS};
use std::time::Instant;

/// Untraced and traced reps are interleaved this many times each.
const PAIRS: usize = 2;
/// Name of the root span around one traced rep.
const REP_SPAN: &str = "perf.rep";

#[derive(Debug, Clone)]
pub struct TraceResult {
    pub name: &'static str,
    /// Set-up spans, then every traced rep under a [`REP_SPAN`] root.
    pub spans: Vec<Span>,
    /// Per-workload layer metrics, by name.
    pub metrics: Table,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// Self times of the last traced rep (root included), by span name.
    pub self_times: Vec<SelfTime>,
    /// Σ self times of the last traced rep ÷ its independently timed wall.
    pub self_time_coverage: f64,
    pub checks: Checks,
    pub fingerprint: u64,
}

/// Runs the traced pass of one workload.
pub fn trace_workload(name: &'static str, opts: &RunOpts) -> TraceResult {
    let params = opts.params();
    let mut on = Tracer::on(name);
    let mut off = Tracer::off();
    let setup = on.enter("perf.setup");
    let mut prepared = workloads::prepare(name, &params, &mut on);
    on.exit(setup);

    let warmup = prepared.rep(&mut off, false);
    prepared.cleanup();
    let mut checks = warmup.checks.clone();
    let mut stable = true;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<(RepOutput, usize, f64)> = None;
    for _ in 0..PAIRS {
        let t0 = Instant::now();
        let rep = prepared.rep(&mut off, false);
        untraced.push(t0.elapsed().as_secs_f64());
        prepared.cleanup();
        stable &= rep.fingerprint == warmup.fingerprint;
        checks.absorb(rep.checks);

        let first_span = on.spans().len();
        let t0 = Instant::now();
        let root = on.enter(REP_SPAN);
        let rep = prepared.rep(&mut on, true);
        on.exit(root);
        let wall = t0.elapsed().as_secs_f64();
        traced.push(wall);
        prepared.cleanup();
        stable &= rep.fingerprint == warmup.fingerprint;
        checks.absorb(rep.checks.clone());
        last = Some((rep, first_span, wall));
    }
    checks.check(stable, || {
        String::from("fingerprint differs between untraced and traced reps")
    });
    checks.absorb(prepared.trace_checks());
    drop(prepared);
    let _ = std::fs::remove_dir_all(&params.scratch);

    let (rep, first_span, rep_wall) = last.expect("PAIRS > 0");
    let untraced_wall_s = summarize(&untraced).median;
    let traced_wall_s = summarize(&traced).median;
    let spans = on.into_spans();
    let rep_self = self_times(&spans[first_span..]);
    let self_sum: u64 = rep_self.iter().map(|s| s.self_ns).sum();
    let metrics = workload_metrics(&rep, &rep_self, untraced_wall_s, traced_wall_s);
    TraceResult {
        name,
        spans,
        metrics,
        untraced_wall_s,
        traced_wall_s,
        self_times: rep_self,
        self_time_coverage: self_sum as f64 * 1e-9 / rep_wall,
        checks,
        fingerprint: warmup.fingerprint,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-workload layer metrics, from the traced rep's public
/// counters and its spans. Metrics that do not apply (no simulator, no
/// telemetry hub) read 0.
fn workload_metrics(
    rep: &RepOutput,
    rep_self: &[SelfTime],
    untraced_wall_s: f64,
    traced_wall_s: f64,
) -> Table {
    let sim = &rep.sim;
    let dispatches = sim.dispatches() as f64;
    let wall_ns: u64 = sim.dispatch_wall_ns.iter().sum();
    let root_ns = rep_self
        .iter()
        .find(|s| s.name == REP_SPAN)
        .map_or(0, |s| s.total_ns);
    let run_self_ns = rep_self
        .iter()
        .find(|s| s.name == "sim.run_sync_window")
        .map_or(0, |s| s.self_ns);
    let mut out: Table = vec![
        ("dcsim.engine_dispatches".into(), dispatches),
        (
            "dcsim.engine_ns_per_dispatch".into(),
            ratio(untraced_wall_s * 1e9, dispatches),
        ),
        (
            "dcsim.engine_dispatches_per_sim_mb".into(),
            ratio(dispatches, sim.ingress_bytes as f64 / 1e6),
        ),
        (
            "dcsim.engine_heap_high_water".into(),
            sim.heap_high_water as f64,
        ),
    ];
    for (g, name) in DISPATCH_GROUPS.iter().enumerate() {
        out.push((
            format!("dcsim.dispatch_share.{name}"),
            ratio(sim.dispatch[g] as f64, dispatches),
        ));
    }
    for (g, name) in DISPATCH_GROUPS.iter().enumerate() {
        out.push((
            format!("dcsim.dispatch_wall_share.{name}"),
            ratio(sim.dispatch_wall_ns[g] as f64, wall_ns as f64),
        ));
    }
    out.extend([
        (
            "dcsim.switch_drop_share".into(),
            ratio(
                sim.discard_bytes as f64,
                (sim.ingress_bytes + sim.discard_bytes) as f64,
            ),
        ),
        (
            "transport.timer_dispatch_per_data_pkt".into(),
            ratio(sim.dispatch[0] as f64, sim.host_deliver as f64),
        ),
        (
            "transport.retx_share".into(),
            ratio(sim.sampled_retx_bytes as f64, sim.sampled_in_bytes as f64),
        ),
        (
            "telemetry.events_overwritten".into(),
            sim.events_overwritten as f64,
        ),
        (
            "workload.run_self_share".into(),
            ratio(run_self_ns as f64, root_ns as f64),
        ),
        (
            "trace_overhead_pct".into(),
            (ratio(traced_wall_s, untraced_wall_s) - 1.0) * 100.0,
        ),
    ]);
    out
}

/// A table's rows with the unit `spec.rs` gives each name.
fn with_units(table: &Table) -> Vec<(&str, f64, &'static str)> {
    let units = layer_metrics();
    let unit = |name: &str| units.iter().find(|m| m.name == name).map_or("", |m| m.unit);
    table
        .iter()
        .map(|(name, value)| (name.as_str(), *value, unit(name)))
        .collect()
}

/// `{name: {value, unit}}` for a table, in the table's order.
pub fn table_json(table: &Table) -> Value {
    obj(with_units(table).into_iter().map(|(name, value, unit)| {
        (
            name,
            obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
        )
    }))
}

/// One `name value unit` line per row.
pub fn print_table(table: &Table, indent: &str) {
    for (name, value, unit) in with_units(table) {
        println!("{indent}{name:<44} {value:>16.4} {unit}");
    }
}

fn self_times_json(r: &TraceResult) -> Value {
    let root_ns = r
        .self_times
        .iter()
        .find(|s| s.name == REP_SPAN)
        .map_or(0, |s| s.total_ns);
    Value::Arr(
        r.self_times
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::from(s.name)),
                    ("count", Value::from(s.count)),
                    ("total_ms", Value::from(s.total_ns as f64 / 1e6)),
                    ("self_ms", Value::from(s.self_ns as f64 / 1e6)),
                    (
                        "self_share",
                        Value::from(ratio(s.self_ns as f64, root_ns as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

/// The `layers.json` document.
pub fn layers_json(opts: &RunOpts, global: &Table, traces: &[TraceResult]) -> Value {
    obj([
        ("seed", Value::from(opts.seed)),
        ("scale", Value::from(opts.scale)),
        ("host_cores", Value::from(crate::host::host_cores())),
        ("global", table_json(global)),
        (
            "per_workload",
            obj(traces.iter().map(|r| {
                (
                    r.name,
                    obj([
                        ("fingerprint", crate::json::hex(r.fingerprint)),
                        ("untraced_wall_s", Value::from(r.untraced_wall_s)),
                        ("traced_wall_s", Value::from(r.traced_wall_s)),
                        ("self_time_coverage", Value::from(r.self_time_coverage)),
                        ("attempted", Value::from(r.checks.attempted)),
                        ("failed", Value::from(r.checks.failed)),
                        ("failures", Value::from(r.checks.failures.clone())),
                        ("metrics", table_json(&r.metrics)),
                        ("self_time", self_times_json(r)),
                    ]),
                )
            })),
        ),
    ])
}

/// The `trace.json` document: every span of every traced workload.
pub fn trace_json(traces: &[TraceResult]) -> Value {
    let all: Vec<Span> = traces
        .iter()
        .flat_map(|r| r.spans.iter().cloned())
        .collect();
    obj([("spans", crate::spans::spans_json(&all))])
}

pub fn print_trace(r: &TraceResult) {
    println!(
        "{}  untraced {:.4} s, traced {:.4} s, self-time coverage {:.3}",
        r.name, r.untraced_wall_s, r.traced_wall_s, r.self_time_coverage
    );
    print_table(&r.metrics, "  ");
    for s in &r.self_times {
        println!(
            "  span {:<32} ×{:<5} total {:>10.3} ms  self {:>10.3} ms",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    for f in &r.checks.failures {
        println!("  FAILED: {f}");
    }
}
