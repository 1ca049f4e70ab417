//! End-to-end smoke at `--scale 0.05 --reps 1`: every workload, the
//! traced pass, the layer table and the emitted documents.

use ms_perf::api;
use ms_perf::bench::{bench, BenchArgs};
use ms_perf::json::{self, Value};
use ms_perf::layers::{global_table, Micro};
use ms_perf::run::{result_json, results_json, run_workload, Budget, RunOpts, WorkloadResult};
use ms_perf::spec::{layer_metrics, END_TO_END};
use ms_perf::trace::{layers_json, trace_json, trace_workload, TraceResult};
use ms_perf::workloads::WORKLOADS;
use std::path::PathBuf;
use std::time::Duration;

const SCALE: f64 = 0.05;

/// Tests run in parallel threads of one process, so each gets its own
/// scratch directory (under `perf/out`, which is git-ignored).
fn opts(tag: &str, seed: u64) -> RunOpts {
    RunOpts {
        seed,
        scale: SCALE,
        budget: Budget::Reps(1),
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}")),
    }
}

fn run_all(opts: &RunOpts) -> Vec<WorkloadResult> {
    WORKLOADS.iter().map(|w| run_workload(w, opts)).collect()
}

fn tiny_micro() -> Micro {
    Micro {
        batches: 1,
        min_batch: Duration::from_micros(200),
    }
}

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    let opts = opts("run", 42);
    let results = run_all(&opts);
    for r in &results {
        assert_eq!(r.checks.failed, 0, "{}: {:?}", r.name, r.checks.failures);
        assert!(r.stable, "{}: fingerprint moved between reps", r.name);
        assert!(r.checks.attempted > 0 && r.work > 0.0, "{}", r.name);
        for m in &END_TO_END {
            let v = r.median(m.name);
            assert!(v.is_finite(), "{} {} = {v}", r.name, m.name);
            if m.in_contract {
                assert!(v > 0.0, "{} {} must never be 0", r.name, m.name);
            }
        }
    }
    // Workload separation, from the always-on dispatch counters.
    let by = |name: &str| results.iter().find(|r| r.name == name).unwrap();
    assert_eq!(
        by("udp_floor").sim.dispatch[0],
        0,
        "udp_floor runs no transport timers"
    );
    assert!(
        by("fat_tree_shuffle").sim.dispatch[4] > 0,
        "fat_tree_shuffle crosses the fabric"
    );
    assert_eq!(
        by("lake_scan").sim.dispatches(),
        0,
        "lake_scan runs no simulator"
    );
    assert_eq!(
        by("incast_storm").sim.dispatch,
        by("incast_storm_traced").sim.dispatch,
        "attaching telemetry must not change the event stream"
    );

    let doc = results_json(&opts, results.iter().map(result_json).collect());
    api::validate_json(&doc.pretty()).expect("results.json is valid JSON");
    assert_eq!(json::parse(&doc.pretty()).unwrap(), doc);
    let _ = std::fs::remove_dir_all(&opts.out);
}

#[test]
fn fingerprints_repeat_per_seed_and_differ_across_seeds() {
    for w in ["incast_storm", "lake_scan"] {
        let a = run_workload(w, &opts("fp-a", 7));
        let b = run_workload(w, &opts("fp-b", 7));
        let c = run_workload(w, &opts("fp-c", 8));
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{w}: same seed, same fingerprint"
        );
        assert_eq!(a.work, b.work);
        assert_eq!(a.sim.dispatch, b.sim.dispatch);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "{w}: another seed, another fingerprint"
        );
    }
    for tag in ["fp-a", "fp-b", "fp-c"] {
        let _ = std::fs::remove_dir_all(opts(tag, 0).out);
    }
}

#[test]
fn trace_covers_every_layer_metric_and_accounts_for_the_rep() {
    let opts = opts("trace", 42);
    let traces: Vec<TraceResult> = WORKLOADS.iter().map(|w| trace_workload(w, &opts)).collect();
    let global = global_table(tiny_micro(), opts.seed, SCALE, &opts.params().scratch);

    let names = layer_metrics();
    for m in names.iter().filter(|m| m.global) {
        let hit = global.iter().find(|(n, _)| *n == m.name);
        assert!(
            hit.is_some_and(|(_, v)| v.is_finite()),
            "global metric {} missing",
            m.name
        );
    }
    assert_eq!(
        global.len(),
        names.iter().filter(|m| m.global).count(),
        "unnamed global metric"
    );
    for r in &traces {
        assert_eq!(r.checks.failed, 0, "{}: {:?}", r.name, r.checks.failures);
        for m in names.iter().filter(|m| !m.global) {
            let hit = r.metrics.iter().find(|(n, _)| *n == m.name);
            assert!(
                hit.is_some_and(|(_, v)| v.is_finite()),
                "{}: {} missing",
                r.name,
                m.name
            );
        }
        assert_eq!(r.metrics.len(), names.iter().filter(|m| !m.global).count());
        assert!(
            (r.self_time_coverage - 1.0).abs() < 0.05,
            "{}: span self times cover {} of the rep",
            r.name,
            r.self_time_coverage
        );
    }
    let lake = traces.iter().find(|r| r.name == "lake_scan").unwrap();
    assert!(
        lake.spans
            .iter()
            .all(|s| !s.name.starts_with("sim.") && !s.name.starts_with("workload.")),
        "lake_scan must not enter the simulator"
    );

    for doc in [layers_json(&opts, &global, &traces), trace_json(&traces)] {
        api::validate_json(&doc.pretty()).expect("emitted JSON is valid");
    }
    let _ = std::fs::remove_dir_all(&opts.out);
}

#[test]
fn bench_prints_the_contract_object_in_both_modes() {
    let out = opts("bench", 0).out;
    for (trace, expect) in [
        (
            false,
            END_TO_END
                .iter()
                .filter(|m| m.in_contract)
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>(),
        ),
        (true, layer_metrics().into_iter().map(|m| m.name).collect()),
    ] {
        let args = BenchArgs {
            workload: "bulk_stream",
            seed: 3,
            seconds: 0.2,
            trace,
            scale: SCALE,
        };
        let line = bench(&args, &out);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
        let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, expect, "trace={trace}");
        for (name, m) in metrics {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no numeric value"
            );
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{name} has no unit"
            );
        }
        assert!(!line.to_string().contains('\n'), "the result is one line");
    }
    let _ = std::fs::remove_dir_all(&out);
}
