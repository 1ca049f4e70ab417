//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p ms-bench --bin repro --release -- [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS
//!   fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!   fig14 fig15 fig16 fig17 fig18 fig19 table1 table2 all
//!
//! OPTIONS
//!   --racks N        racks per region                 (default 40)
//!   --servers N      servers per rack                 (default 28)
//!   --buckets N      1ms samples per run              (default 400)
//!   --hour-step N    simulate every Nth hour of day   (default 3)
//!   --seed N         experiment seed                  (default 42)
//!   --threads N      worker threads                   (default: all cores)
//!   --quick          tiny sweep for smoke-testing
//!   --paper-scale    2000-bucket (2s) windows, 1500B MSS
//!   --out DIR        CSV output directory             (default results/)
//! ```
//!
//! Each experiment prints the paper-style rows and writes
//! `<out>/<exhibit>.csv`. See `EXPERIMENTS.md` for paper-vs-measured notes.

mod exp_bursts;
mod exp_contention;
mod exp_loss;
mod exp_validation;

use ms_bench::{sweep_region, RegionData, SweepConfig};
use ms_workload::placement::RegionKind;
use std::path::PathBuf;

/// Parsed command-line options: the sweep every exhibit shares (its
/// `hours` are chosen per sweep), which hours a daily sweep visits, and
/// where the CSVs go.
#[derive(Debug, Clone)]
pub struct Opts {
    pub sweep: SweepConfig,
    pub hour_step: usize,
    pub out: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            sweep: SweepConfig::default(),
            hour_step: 3,
            out: PathBuf::from("results"),
        }
    }
}

impl Opts {
    fn sweep_config(&self, hours: Vec<usize>) -> SweepConfig {
        SweepConfig {
            hours,
            ..self.sweep.clone()
        }
    }

    fn daily_hours(&self) -> Vec<usize> {
        (0..24).step_by(self.hour_step.max(1)).collect()
    }
}

/// Lazily computed sweeps, shared across the experiments of one invocation.
pub struct Ctx {
    pub opts: Opts,
    rega_busy: Option<RegionData>,
    rega_daily: Option<RegionData>,
    regb_busy: Option<RegionData>,
    regb_daily: Option<RegionData>,
}

impl Ctx {
    fn new(opts: Opts) -> Self {
        Ctx {
            opts,
            rega_busy: None,
            rega_daily: None,
            regb_busy: None,
            regb_daily: None,
        }
    }

    /// Busy-hour (hour 7) sweep. Reuses the daily sweep when present.
    pub fn busy(&mut self, kind: RegionKind) -> &RegionData {
        let (daily, busy) = match kind {
            RegionKind::RegA => (&self.rega_daily, &mut self.rega_busy),
            RegionKind::RegB => (&self.regb_daily, &mut self.regb_busy),
        };
        if busy.is_none() {
            if let Some(d) = daily {
                // Derive the busy view from the daily sweep.
                let mut view = d.clone();
                view.obs.retain(|o| o.hour == 7);
                *busy = Some(view);
            } else {
                eprintln!(
                    "[sweep] {kind:?} busy hour ({} racks)...",
                    self.opts.sweep.racks
                );
                let cfg = self.opts.sweep_config(vec![7]);
                *busy = Some(sweep_region(kind, &cfg));
            }
        }
        busy.as_ref().unwrap()
    }

    /// Full-day sweep (every `hour_step`-th hour; always includes hour 7).
    pub fn daily(&mut self, kind: RegionKind) -> &RegionData {
        let slot = match kind {
            RegionKind::RegA => &mut self.rega_daily,
            RegionKind::RegB => &mut self.regb_daily,
        };
        if slot.is_none() {
            let mut hours = self.opts.daily_hours();
            if !hours.contains(&7) {
                hours.push(7);
                hours.sort_unstable();
            }
            eprintln!(
                "[sweep] {kind:?} daily ({} racks x {} hours)...",
                self.opts.sweep.racks,
                hours.len()
            );
            let cfg = self.opts.sweep_config(hours);
            *slot = Some(sweep_region(kind, &cfg));
        }
        slot.as_ref().unwrap()
    }
}

const ALL: &[&str] = &[
    "fig1", "fig3", "fig4", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "table2", "fig16", "fig17", "fig18", "fig19",
];

fn run_experiment(name: &str, ctx: &mut Ctx) {
    println!("\n=== {name} ===");
    #[expect(
        clippy::disallowed_methods,
        reason = "the \"done in\" readout goes to stderr; no CSV depends on it"
    )]
    let t0 = std::time::Instant::now();
    match name {
        "fig1" => exp_validation::fig1(ctx),
        "fig3" => exp_validation::fig3(ctx),
        "fig4" => exp_validation::fig4(ctx),
        "fig5" => exp_validation::fig5(ctx),
        "table1" => exp_bursts::table1(ctx),
        "fig6" => exp_bursts::fig6(ctx),
        "fig7" => exp_bursts::fig7(ctx),
        "fig8" => exp_bursts::fig8(ctx),
        "fig9" => exp_contention::fig9(ctx),
        "fig10" => exp_contention::fig10(ctx),
        "fig11" => exp_contention::fig11(ctx),
        "fig12" => exp_contention::fig12(ctx),
        "fig13" => exp_contention::fig13(ctx),
        "fig14" => exp_contention::fig14(ctx),
        "fig15" => exp_contention::fig15(ctx),
        "table2" => exp_loss::table2(ctx),
        "fig16" => exp_loss::fig16(ctx),
        "fig17" => exp_loss::fig17(ctx),
        "fig18" => exp_loss::fig18(ctx),
        "fig19" => exp_loss::fig19(ctx),
        other => {
            eprintln!("unknown experiment '{other}' (try: {})", ALL.join(" "));
            std::process::exit(2);
        }
    }
    eprintln!("[{name}] done in {:.1}s", t0.elapsed().as_secs_f64());
}

fn main() {
    let mut opts = Opts::default();
    let mut experiments: Vec<String> = Vec::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next_num = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--racks" => opts.sweep.racks = next_num("--racks") as usize,
            "--servers" => opts.sweep.servers = next_num("--servers") as usize,
            "--buckets" => opts.sweep.scenario.buckets = next_num("--buckets") as usize,
            "--hour-step" => opts.hour_step = next_num("--hour-step") as usize,
            "--seed" => opts.sweep.seed = next_num("--seed"),
            "--threads" => opts.sweep.threads = next_num("--threads") as usize,
            "--quick" => {
                opts.sweep.racks = 12;
                opts.sweep.servers = 16;
                opts.sweep.scenario.buckets = 250;
                opts.hour_step = 6;
            }
            "--paper-scale" => {
                opts.sweep.scenario.buckets = 2000;
                opts.sweep.scenario.mss = 1500;
            }
            "--out" => {
                opts.out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!("repro — regenerate the paper's tables and figures");
                println!("experiments: {} all", ALL.join(" "));
                return;
            }
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!("no experiment given; try `repro --quick all` or `repro fig9`");
        std::process::exit(2);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }

    let mut ctx = Ctx::new(opts);
    for exp in &experiments {
        run_experiment(exp, &mut ctx);
    }
}
