//! The driver contract: `bench --workload W --seed N --seconds S
//! --trace 0|1` measures one workload for `S` seconds and returns the
//! one JSON object printed as the last line of standard output — with
//! `--trace 0` every end-to-end metric of `BENCHMARK.json`, with
//! `--trace 1` every per-layer metric.

use crate::json::{obj, Value};
use crate::layers::{global_table, Micro, Table};
use crate::run::{run_workload, Budget, RunOpts};
use crate::spec::{layer_metrics, END_TO_END};
use crate::trace::trace_workload;
use std::path::Path;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct BenchArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

fn line(attempted: u64, failed: u64, metrics: Value) -> Value {
    obj([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", metrics),
    ])
}

/// Runs one contract measurement; scratch files go under `out`.
pub fn bench(args: &BenchArgs, out: &Path) -> Value {
    let opts = RunOpts {
        seed: args.seed,
        scale: args.scale,
        budget: Budget::Seconds(args.seconds),
        out: out.to_path_buf(),
    };
    if !args.trace {
        let r = run_workload(args.workload, &opts);
        for f in &r.checks.failures {
            eprintln!("FAILED: {f}");
        }
        let metrics = END_TO_END.iter().filter(|m| m.in_contract).map(|m| {
            (
                m.name,
                obj([
                    ("value", Value::from(r.median(m.name))),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        });
        return line(r.checks.attempted, r.checks.failed, obj(metrics));
    }

    let traced = trace_workload(args.workload, &opts);
    for f in &traced.checks.failures {
        eprintln!("FAILED: {f}");
    }
    // The microbenchmarks share what is left of the run's seconds.
    let layer_names = layer_metrics();
    let micro_count = layer_names.iter().filter(|m| m.global).count() as f64;
    let micro = Micro {
        batches: 5,
        min_batch: Duration::from_secs_f64((args.seconds * 0.4 / micro_count / 6.0).max(0.001)),
    };
    let scratch = opts.params().scratch;
    let mut table: Table = global_table(micro, args.seed, args.scale, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    table.extend(traced.metrics.iter().cloned());
    let metrics = layer_names.iter().map(|m| {
        let value = table
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(f64::NAN, |(_, v)| *v);
        (
            m.name.clone(),
            obj([("value", Value::from(value)), ("unit", Value::from(m.unit))]),
        )
    });
    line(traced.checks.attempted, traced.checks.failed, obj(metrics))
}
