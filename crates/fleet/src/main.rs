//! `fleet` — run a ScenarioSpec grid across worker threads.
//!
//! ```text
//! fleet [--jobs N] [--seeds 1,2] [--alphas 0.5,2.0]
//!       [--placements single,paired,spread] [--ccs CC,CC]
//!       [--policies dt,cs,sp,fb,delay]
//!       [--servers 8] [--buckets 200] [--conns 80] [--bytes 12000000]
//!       [--csv PATH] [--json PATH] [--out-lake DIR]
//!       [--forensics] [--quiet]
//! ```
//!
//! `CC` is a congestion controller's label (`CcAlgorithm::label`);
//! `--help` lists every one in `CcAlgorithm::ALL`.
//!
//! `--out-lake DIR` switches to lake-backed execution: cells stream
//! into an `ms-lake` columnar lake (outcome + bursts + raw series, no
//! in-memory FleetReport), whose compacted segments are byte-identical
//! for any `--jobs`. Query it with `lake query --dir DIR`.
//!
//! Timing and process-environment reads live only in this binary; the
//! library stays deterministic and env-free (clippy's
//! `disallowed_methods` enforces this split, and each read here carries
//! an `#[expect]`).

use ms_dcsim::PolicyKind;
use ms_fleet::{run_fleet, run_fleet_to_lake, FleetConfig, FleetGrid, PlacementKind, TopoPoint};
use ms_lake::{LakeConfig, LakeWriter};
use ms_transport::CcAlgorithm;
use std::time::Instant;

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let (grid, cfg, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("fleet: {msg}");
            eprintln!("fleet: try --help");
            std::process::exit(2);
        }
    };

    let cells = grid.cells();
    if cells.is_empty() {
        eprintln!(
            "fleet: the grid is empty (check --seeds/--alphas/--placements/--ccs/--policies)"
        );
        std::process::exit(2);
    }
    let jobs = cfg.effective_jobs().min(cells.len()).max(1);
    if !out.quiet {
        eprintln!(
            "[fleet] {} cells ({} seeds x {} alphas x {} placements x {} ccs x {} policies x {} topos), {jobs} worker(s)",
            cells.len(),
            grid.seeds.len(),
            grid.alphas.len(),
            grid.placements.len(),
            grid.ccs.len(),
            grid.policies.len(),
            grid.topos.len(),
        );
    }

    if let Some(dir) = &out.lake_dir {
        // Lake mode: stream cells to disk, no in-memory FleetReport.
        let writer = match LakeWriter::create(std::path::Path::new(dir), LakeConfig::default()) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("fleet: cannot create lake {dir}: {e}");
                std::process::exit(1);
            }
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-time readout on stderr; the report and the lake never see it"
        )]
        let started = Instant::now();
        let manifest = match run_fleet_to_lake(&cells, &cfg, &writer) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("fleet: lake sweep failed: {e}");
                std::process::exit(1);
            }
        };
        if !out.quiet {
            eprintln!(
                "[fleet] lake written to {dir} in {:.2}s ({} outcome rows)",
                started.elapsed().as_secs_f64(),
                manifest.rows(ms_lake::TableKind::Outcomes),
            );
        }
        print!("{}", manifest.to_csv());
        return;
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-time readout on stderr; the report and the lake never see it"
    )]
    let started = Instant::now();
    let report = run_fleet(&cells, &cfg);
    if !out.quiet {
        let wall = started.elapsed().as_secs_f64();
        eprintln!(
            "[fleet] {}/{} ok in {wall:.2}s ({:.2} runs/s)",
            report.ok_count(),
            cells.len(),
            cells.len() as f64 / wall.max(1e-9),
        );
        for (label, message) in report.failures() {
            eprintln!("[fleet] FAILED {label}: {message}");
        }
    }

    let csv = report.to_csv();
    match &out.csv_path {
        Some(path) => write_or_die(path, &csv),
        None => print!("{csv}"),
    }
    if let Some(path) = &out.json_path {
        write_or_die(path, &report.to_json());
    }

    if report.ok_count() < cells.len() {
        std::process::exit(1);
    }
}

/// Output routing parsed from the command line.
struct OutputSpec {
    csv_path: Option<String>,
    json_path: Option<String>,
    lake_dir: Option<String>,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<(FleetGrid, FleetConfig, OutputSpec), String> {
    let mut grid = FleetGrid::default();
    let mut cfg = FleetConfig {
        progress: true,
        ..FleetConfig::default()
    };
    let mut out = OutputSpec {
        csv_path: None,
        json_path: None,
        lake_dir: None,
        quiet: false,
    };

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--jobs" => cfg.jobs = parse_num(value("--jobs")?, "--jobs")?,
            "--servers" => grid.servers = parse_num(value("--servers")?, "--servers")?,
            "--buckets" => grid.buckets = parse_num(value("--buckets")?, "--buckets")?,
            "--conns" => grid.connections = parse_num(value("--conns")?, "--conns")?,
            "--bytes" => grid.total_bytes = parse_num(value("--bytes")?, "--bytes")?,
            "--seeds" => {
                grid.seeds = split_list(value("--seeds")?)
                    .map(|s| parse_num(s, "--seeds"))
                    .collect::<Result<_, _>>()?;
            }
            "--alphas" => {
                grid.alphas = split_list(value("--alphas")?)
                    .map(|s| {
                        s.parse::<f64>()
                            .map_err(|_| format!("--alphas: bad value {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--placements" => {
                grid.placements = split_list(value("--placements")?)
                    .map(|s| {
                        PlacementKind::parse(s).ok_or_else(|| {
                            format!("--placements: {s:?} is not single/paired/spread")
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--ccs" => {
                grid.ccs = split_list(value("--ccs")?)
                    .map(|s| {
                        CcAlgorithm::parse(s)
                            .ok_or_else(|| format!("--ccs: {s:?} is not {}", cc_labels("/")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--policies" => {
                grid.policies = split_list(value("--policies")?)
                    .map(|s| {
                        PolicyKind::parse(s)
                            .ok_or_else(|| format!("--policies: {s:?} is not dt/cs/sp/fb/delay"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--topo" => {
                grid.topos = split_list(value("--topo")?)
                    .map(|s| {
                        TopoPoint::parse(s).ok_or_else(|| {
                            format!("--topo: {s:?} is not none or k<radix>d<density> (e.g. k4d75)")
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--forensics" => grid.forensics = true,
            "--csv" => out.csv_path = Some(value("--csv")?.clone()),
            "--json" => out.json_path = Some(value("--json")?.clone()),
            "--out-lake" => out.lake_dir = Some(value("--out-lake")?.clone()),
            "--quiet" => {
                out.quiet = true;
                cfg.progress = false;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.lake_dir.is_some() && (out.csv_path.is_some() || out.json_path.is_some()) {
        return Err(String::from(
            "--out-lake replaces the in-memory report; it cannot combine with --csv/--json",
        ));
    }
    Ok((grid, cfg, out))
}

fn split_list(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|p| !p.is_empty())
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse::<T>()
        .map_err(|_| format!("{flag}: bad value {s:?}"))
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("fleet: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Every congestion controller's label, joined by `sep`.
fn cc_labels(sep: &str) -> String {
    CcAlgorithm::ALL.map(CcAlgorithm::label).join(sep)
}

fn print_help() {
    let ccs = cc_labels("|");
    println!(
        "fleet — parallel multi-rack sweep runner\n\
         \n\
         USAGE: fleet [OPTIONS]\n\
         \n\
         Grid (cartesian product, run in seed > alpha > placement > cc > policy > topo order):\n\
         \x20 --seeds N,N,..        experiment seeds           [default 1,2]\n\
         \x20 --alphas F,F,..       DT alpha values            [default 0.5,2.0]\n\
         \x20 --placements L,L,..   single|paired|spread       [default single,paired]\n\
         \x20 --ccs L,L,..          {ccs:<27}[default dctcp]\n\
         \x20 --policies L,L,..     dt|cs|sp|fb|delay          [default dt]\n\
         \x20                       ToR buffer sharing: dynamic-threshold,\n\
         \x20                       complete sharing, static partition,\n\
         \x20                       flexible bounds, delay-driven\n\
         \x20 --topo L,L,..         none|k<radix>d<density>    [default none]\n\
         \x20                       fat-tree cells (e.g. k4d75) span k^3/4 hosts;\n\
         \x20                       density = % of incast connections sourced\n\
         \x20                       outside the victim's pod (cross-rack placement)\n\
         \x20 --servers N           servers per rack           [default 8]\n\
         \x20 --buckets N           sampler buckets (1 ms)     [default 200]\n\
         \x20 --conns N             connections per cell       [default 80]\n\
         \x20 --bytes N             bytes per connection group [default 12000000]\n\
         \n\
         Execution:\n\
         \x20 --jobs N              worker threads (0 = host cores) [default 0]\n\
         \x20 --forensics           capture a classified drop forensic per drop\n\
         \x20                       (lands in the lake's forensics table;\n\
         \x20                       query with lake --report forensics|attribution)\n\
         \x20 --quiet               suppress progress lines\n\
         \n\
         Output (aggregates are byte-identical for any --jobs):\n\
         \x20 --csv PATH            write aggregate CSV (default: stdout)\n\
         \x20 --json PATH           write aggregate JSON\n\
         \x20 --out-lake DIR        stream full results (outcomes, bursts, raw\n\
         \x20                       series) into an ms-lake columnar lake at DIR\n\
         \x20                       instead of buffering a report; segments are\n\
         \x20                       byte-identical for any --jobs"
    );
}
