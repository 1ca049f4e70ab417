//! `perf` — the repository's benchmark.
//!
//! ```text
//! perf run     [--seed N] [--reps N] [--scale X] [--out DIR] [--workload W]...
//! perf trace   [--seed N] [--scale X] [--out DIR] [--workload W]...
//! perf compare A/results.json B/results.json
//! perf bench   --workload W --seed N --seconds S --trace 0|1     (driver contract)
//! perf spec                                                      (prints BENCHMARK.json)
//! ```

use ms_perf::bench::{bench, BenchArgs};
use ms_perf::layers::{global_table, Micro};
use ms_perf::run::{print_result, result_json, results_json, run_workload, Budget, RunOpts};
use ms_perf::trace::{layers_json, print_table, print_trace, trace_json, trace_workload};
use ms_perf::workloads::WORKLOADS;
use ms_perf::{compare, json, spec};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    seed: u64,
    reps: usize,
    scale: f64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    workloads: Vec<&'static str>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 42,
        reps: 5,
        scale: 1.0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        // Relative to the working directory: the repository root, which
        // is where the documented commands and the driver run from.
        out: PathBuf::from("perf/out"),
        workloads: Vec::new(),
        positional: Vec::new(),
    };
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => cli.seed = num(arg, value()?)?,
            "--reps" => cli.reps = num(arg, value()?)?,
            "--scale" => cli.scale = num(arg, value()?)?,
            "--seconds" => cli.seconds = num(arg, value()?)?,
            "--trace" => cli.trace = num::<u8>(arg, value()?)? != 0,
            "--out" => cli.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| *w == name)
                    .ok_or_else(|| format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?;
                cli.workloads.push(known);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    // Written positively so a NaN fails the check.
    let sane =
        cli.scale > 0.0 && cli.scale.is_finite() && cli.seconds > 0.0 && cli.seconds <= 600.0;
    if !sane {
        return Err(String::from(
            "--scale must be positive and --seconds in (0, 600]",
        ));
    }
    if cli.reps == 0 {
        return Err(String::from("--reps must be at least 1"));
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.to_vec();
    }
    Ok(cli)
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn opts(cli: &Cli) -> RunOpts {
    RunOpts {
        seed: cli.seed,
        scale: cli.scale,
        budget: Budget::Reps(cli.reps),
        out: cli.out.clone(),
    }
}

/// `perf run`: each workload in a fresh child of this binary, one after
/// the other, so every workload starts from the allocator and cache state
/// the driver's one-process-per-workload runs see (glibc's adaptive
/// mmap/trim thresholds otherwise make `peak_rss_mb` depend on which
/// workloads ran before).
fn cmd_run(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut blocks = Vec::new();
    for w in &cli.workloads {
        let child = std::process::Command::new(&exe)
            .arg("run-one")
            .args(["--workload", w])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--reps", &cli.reps.to_string()])
            .args(["--scale", &cli.scale.to_string()])
            .arg("--out")
            .arg(&cli.out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (table, block) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{table}");
        if !child.status.success() {
            return Err(format!("{w}: child exited with {}", child.status));
        }
        blocks.push(json::parse(block).map_err(|e| format!("{w}: bad result block: {e}"))?);
    }
    let all_passed = blocks
        .iter()
        .all(|b| b.get("failed").and_then(json::Value::as_f64) == Some(0.0));
    write(
        &cli.out.join("results.json"),
        &results_json(&opts(cli), blocks).pretty(),
    )?;
    Ok(all_passed)
}

/// One workload, in this process: the human table, then its
/// `results.json` block as the last line of stdout.
fn cmd_run_one(cli: &Cli) -> Result<bool, String> {
    let [workload] = cli.workloads.as_slice() else {
        return Err(String::from("run-one needs exactly one --workload"));
    };
    let r = run_workload(workload, &opts(cli));
    print_result(&r);
    println!("{}", result_json(&r));
    Ok(true)
}

fn cmd_trace(cli: &Cli) -> Result<bool, String> {
    let opts = opts(cli);
    let mut traces = Vec::new();
    for w in &cli.workloads {
        let r = trace_workload(w, &opts);
        print_trace(&r);
        traces.push(r);
    }
    let scratch = opts.params().scratch;
    let global = global_table(Micro::FULL, cli.seed, cli.scale, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    print_table(&global, "");
    write(&cli.out.join("trace.json"), &trace_json(&traces).pretty())?;
    write(
        &cli.out.join("layers.json"),
        &layers_json(&opts, &global, &traces).pretty(),
    )?;
    Ok(traces.iter().all(|r| r.checks.failed == 0))
}

fn cmd_compare(cli: &Cli) -> Result<bool, String> {
    let [a, b] = cli.positional.as_slice() else {
        return Err(String::from("compare needs exactly two results.json paths"));
    };
    let c = compare::compare_files(a, b)?;
    compare::print(&c);
    Ok(!c.regressed())
}

fn cmd_bench(cli: &Cli) -> Result<bool, String> {
    let [workload] = cli.workloads.as_slice() else {
        return Err(String::from("bench needs exactly one --workload"));
    };
    let args = BenchArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
    };
    let result = bench(&args, &cli.out);
    println!("{result}");
    // The verdict travels in the JSON (`correct`); the exit code only
    // says the measurement itself completed.
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perf run|trace|compare|bench|spec [options]  (see perf/README.md)");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|cli| match cmd.as_str() {
        "run" => cmd_run(&cli),
        "run-one" => cmd_run_one(&cli),
        "trace" => cmd_trace(&cli),
        "compare" => cmd_compare(&cli),
        "bench" => cmd_bench(&cli),
        "spec" => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}
