//! The untraced measurement: set-up timing, warm-up, timed reps, the
//! seven end-to-end metrics per workload, and `results.json`.

use crate::host;
use crate::json::{hex, obj, Value};
use crate::spans::Tracer;
use crate::spec::END_TO_END;
use crate::stats::{sig6, summarize};
use crate::workloads::{self, Checks, Params, Prepared, RepOutput, SimCounts};
use std::path::PathBuf;
use std::time::Instant;

/// How long to keep measuring one workload.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many timed reps (`perf run --reps`).
    Reps(usize),
    /// Timed reps until this many seconds have been measured, never
    /// fewer than [`MIN_REPS`] (the contract's `--seconds`).
    Seconds(f64),
}

/// Fewest timed reps a median is taken over.
pub const MIN_REPS: usize = 5;
/// Set-up is sampled at least this often, and until
/// [`SETUP_MIN_SECONDS`] have been spent (at most [`SETUP_MAX_REPS`]
/// samples), so `setup_s` is a median of many samples.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 400;
/// Shortest timed set-up sample, in seconds.
const SETUP_MIN_SAMPLE: f64 = 1e-3;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub scale: f64,
    pub budget: Budget,
    /// Directory for `results.json` and the lake workloads' scratch files.
    pub out: PathBuf,
}

impl RunOpts {
    pub fn params(&self) -> Params {
        Params {
            seed: self.seed,
            scale: self.scale,
            scratch: self.out.join(format!("scratch-{}", std::process::id())),
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub threads_used: usize,
    /// Seconds per set-up, one entry per sample.
    pub setup_s: Vec<f64>,
    /// One entry per timed rep, in order.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Deterministic work numerator of one rep, in the workload's unit.
    pub work: f64,
    pub checks: Checks,
    pub fingerprint: u64,
    /// Fingerprint, work numerator and dispatch counts identical across
    /// the warm-up and every timed rep.
    pub stable: bool,
    pub sim: SimCounts,
    pub facts: Vec<(&'static str, f64)>,
    pub calib_before_ns: u64,
    pub calib_after_ns: u64,
}

impl WorkloadResult {
    pub fn noisy(&self) -> bool {
        host::calib_drifted(self.calib_before_ns, self.calib_after_ns)
    }

    pub fn failed_share(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// Per-rep values of one end-to-end metric (one value for the two
    /// that exist once per workload).
    pub fn values(&self, metric: &str) -> Vec<f64> {
        match metric {
            "setup_s" => self.setup_s.clone(),
            "wall_s" => self.wall_s.clone(),
            "cpu_s" => self.cpu_s.clone(),
            "work_per_s" => self.wall_s.iter().map(|w| self.work / w).collect(),
            "peak_rss_mb" => self.peak_rss_mb.clone(),
            "failed_share" => vec![self.failed_share()],
            "sim_fingerprint_stable" => vec![f64::from(u8::from(self.stable))],
            other => panic!("unknown end-to-end metric {other:?}"),
        }
    }

    pub fn median(&self, metric: &str) -> f64 {
        summarize(&self.values(metric)).median
    }

    /// Folds one rep's checks in, plus one op: its deterministic outputs
    /// equal the warm-up's.
    fn absorb(&mut self, rep: RepOutput) {
        let same = rep.fingerprint == self.fingerprint
            && rep.work == self.work
            && rep.sim.dispatch == self.sim.dispatch;
        self.stable &= same;
        self.checks.absorb(rep.checks);
        let (fingerprint, work) = (self.fingerprint, self.work);
        self.checks.check(same, || {
            format!(
                "fingerprint {:016x} / work {} differ from the warm-up's {fingerprint:016x} / {work}",
                rep.fingerprint, rep.work
            )
        });
    }
}

/// Times set-up repeatedly and returns the samples (seconds per set-up)
/// with the last prepared instance, which the reps then use.
///
/// A set-up that only fills in a scenario spec takes well under a
/// microsecond, so one sample is a batch of set-ups sized to last at
/// least [`SETUP_MIN_SAMPLE`]; the reported median is then steady
/// whatever the clock's resolution. The first set-up is the warm-up (cold
/// page cache and allocator): it sizes the batch and is not a sample.
fn time_setup(name: &str, params: &Params) -> (Vec<f64>, Box<dyn Prepared>) {
    let mut tracer = Tracer::off();
    let t0 = Instant::now();
    let mut prepared = Some(workloads::prepare(name, params, &mut tracer));
    let first = t0.elapsed().as_secs_f64();
    let batch = ((SETUP_MIN_SAMPLE / first.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && samples.len() < SETUP_MAX_REPS)
    {
        let t0 = Instant::now();
        for _ in 0..batch {
            // Drop first: a prepared lake workload owns its directory.
            drop(prepared.take());
            prepared = Some(workloads::prepare(name, params, &mut tracer));
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    (samples, prepared.expect("at least one set-up ran"))
}

/// Measures one workload: calibration spin, repeated set-up, one
/// warm-up rep, timed reps, calibration spin.
pub fn run_workload(name: &'static str, opts: &RunOpts) -> WorkloadResult {
    let params = opts.params();
    let calib_before_ns = host::calib_spin_ns();
    let (setup_s, mut prepared) = time_setup(name, &params);

    let mut tracer = Tracer::off();
    let warmup = prepared.rep(&mut tracer, false);
    prepared.cleanup();
    let mut result = WorkloadResult {
        name,
        threads_used: workloads::threads_used(name),
        setup_s,
        wall_s: Vec::new(),
        cpu_s: Vec::new(),
        peak_rss_mb: Vec::new(),
        work: warmup.work,
        checks: Checks::default(),
        fingerprint: warmup.fingerprint,
        stable: true,
        sim: warmup.sim.clone(),
        facts: warmup.facts.clone(),
        calib_before_ns,
        calib_after_ns: 0,
    };
    result.absorb(warmup);

    let measuring = Instant::now();
    loop {
        let done = match opts.budget {
            Budget::Reps(n) => result.wall_s.len() >= n.max(1),
            Budget::Seconds(s) => {
                result.wall_s.len() >= MIN_REPS && measuring.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        // Every rep starts from a trimmed heap and a reset high-water
        // mark, so its peak is its own and not the allocator's history.
        host::reset_peak_rss();
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let rep = prepared.rep(&mut tracer, false);
        result.wall_s.push(t0.elapsed().as_secs_f64());
        result.cpu_s.push(host::process_cpu_s() - cpu0);
        result.peak_rss_mb.push(host::peak_rss_mb());
        prepared.cleanup();
        result.absorb(rep);
    }
    drop(prepared);
    let _ = std::fs::remove_dir_all(&params.scratch);
    result.calib_after_ns = host::calib_spin_ns();
    result
}

fn unit_of(metric: &crate::spec::EndToEnd, workload: &str) -> String {
    if metric.name == "work_per_s" {
        format!("{}/s", workloads::work_unit(workload))
    } else {
        metric.unit.to_string()
    }
}

/// One workload's block of `results.json`.
pub fn result_json(r: &WorkloadResult) -> Value {
    let metrics = END_TO_END.iter().map(|m| {
        let values = r.values(m.name);
        let s = summarize(&values);
        (
            m.name,
            obj([
                ("unit", Value::from(unit_of(m, r.name))),
                ("better", Value::from(m.better.as_str())),
                ("median", Value::from(s.median)),
                ("q1", Value::from(s.q1)),
                ("q3", Value::from(s.q3)),
                ("n", Value::from(s.n)),
                ("rep_spread_pct", Value::from(s.spread_pct())),
                ("values", Value::from(values)),
            ]),
        )
    });
    obj([
        ("name", Value::from(r.name)),
        ("work", Value::from(r.work)),
        ("work_unit", Value::from(workloads::work_unit(r.name))),
        ("threads_used", Value::from(r.threads_used)),
        ("fingerprint", hex(r.fingerprint)),
        ("attempted", Value::from(r.checks.attempted)),
        ("failed", Value::from(r.checks.failed)),
        ("failures", Value::from(r.checks.failures.clone())),
        ("dispatches", Value::from(r.sim.dispatches())),
        ("events", Value::from(r.sim.events)),
        (
            "calib_ns",
            Value::from(vec![r.calib_before_ns, r.calib_after_ns]),
        ),
        // The spins bracket the whole workload, so the flag covers all its reps.
        ("noisy", Value::from(r.noisy())),
        ("metrics", obj(metrics)),
    ])
}

/// The whole `results.json` document, from per-workload
/// [`result_json`] blocks.
pub fn results_json(opts: &RunOpts, workloads: Vec<Value>) -> Value {
    obj([
        ("seed", Value::from(opts.seed)),
        ("scale", Value::from(opts.scale)),
        ("host_cores", Value::from(host::host_cores())),
        ("workloads", Value::Arr(workloads)),
    ])
}

/// Human-readable table of one workload's end-to-end metrics.
pub fn print_result(r: &WorkloadResult) {
    println!(
        "{}  (work {} {}, {} thread(s), fingerprint {:016x}{})",
        r.name,
        r.work,
        workloads::work_unit(r.name),
        r.threads_used,
        r.fingerprint,
        if r.noisy() { ", NOISY host" } else { "" }
    );
    for m in &END_TO_END {
        let s = summarize(&r.values(m.name));
        println!(
            "  {:<24} {:>12} {:<12} [q1 {}, q3 {}] n={} spread {:.2}%",
            m.name,
            sig6(s.median),
            unit_of(m, r.name),
            sig6(s.q1),
            sig6(s.q3),
            s.n,
            s.spread_pct()
        );
    }
    for f in &r.checks.failures {
        println!("  FAILED: {f}");
    }
}
