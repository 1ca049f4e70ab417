//! `lake` — build, inspect, and query on-disk sample lakes.
//!
//! ```text
//! lake synth   --dir DIR [--seed N] [--hosts N] [--buckets N]
//!              [--interval-ms N] [--chunk-rows N] [--segment-rows N]
//! lake compact --dir DIR [--chunk-rows N] [--segment-rows N]
//! lake query   --dir DIR [--report aggregate|outcomes|forensics|attribution|tiers|policy-compare]
//!              [--out PATH]
//! lake stat    --dir DIR
//! ```
//!
//! `synth` writes a deterministic diurnal corpus (for testing the
//! format at scale), `compact` folds leftover shards into segments,
//! `query` streams the paper's aggregations out-of-core, and `stat`
//! verifies every chunk checksum. Process-environment reads live only
//! in this binary; the library stays deterministic (clippy's
//! `disallowed_methods` enforces the split).
//!
//! Exit status: 0 on success, 1 when a command fails (an unreadable or
//! corrupt lake, a write error), 2 on a usage error (unknown command or
//! flag, bad or missing value), which also prints the `--help` hint.

use ms_lake::segment::verify_segment_bytes;
use ms_lake::{
    lake_sweep_aggregate, outcomes_csv, synth_diurnal_series, CellRows, Lake, LakeConfig,
    LakeError, LakeWriter,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    let (cmd, opts) = match command(&args[0]).and_then(|c| Ok((c, parse_opts(&args[1..])?))) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("lake: {msg}");
            eprintln!("lake: try --help");
            return ExitCode::from(2);
        }
    };
    match cmd(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lake: {msg}");
            ExitCode::from(1)
        }
    }
}

/// A subcommand, run once its options parsed.
type Command = fn(&Opts) -> Result<(), String>;

fn command(name: &str) -> Result<Command, String> {
    match name {
        "synth" => Ok(cmd_synth),
        "compact" => Ok(cmd_compact),
        "query" => Ok(cmd_query),
        "stat" => Ok(cmd_stat),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// A `query --report` kind: the out-of-core fold that renders its CSV.
type Report = fn(&Lake) -> Result<String, LakeError>;

const REPORTS: [(&str, Report); 6] = [
    ("aggregate", |lake| {
        lake_sweep_aggregate(lake).map(|a| a.to_csv())
    }),
    ("outcomes", outcomes_csv),
    ("forensics", ms_lake::forensics_csv),
    ("attribution", ms_lake::attribution_csv),
    ("tiers", ms_lake::tiers_csv),
    ("policy-compare", ms_lake::policy_compare_csv),
];

/// Flags shared by every subcommand.
struct Opts {
    dir: PathBuf,
    seed: u64,
    hosts: u32,
    buckets: usize,
    /// Bucket width, validated against the nanosecond clock at parse
    /// time (`--interval-ms`).
    interval: ms_dcsim::Ns,
    chunk_rows: usize,
    segment_rows: u64,
    report: Report,
    out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        dir: PathBuf::new(),
        seed: 1,
        hosts: 8,
        buckets: 86_400,
        interval: ms_dcsim::Ns::from_millis(1000),
        chunk_rows: LakeConfig::default().chunk_rows,
        segment_rows: LakeConfig::default().segment_rows,
        report: REPORTS[0].1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--dir" => o.dir = PathBuf::from(value("--dir")?),
            "--seed" => o.seed = parse_num(value("--seed")?, "--seed")?,
            "--hosts" => o.hosts = parse_num(value("--hosts")?, "--hosts")?,
            "--buckets" => o.buckets = parse_num(value("--buckets")?, "--buckets")?,
            "--interval-ms" => {
                let ms: u64 = parse_num(value("--interval-ms")?, "--interval-ms")?;
                o.interval = ms_dcsim::Ns::checked_from_millis(ms)
                    .ok_or_else(|| format!("--interval-ms {ms} overflows the nanosecond clock"))?;
            }
            "--chunk-rows" => o.chunk_rows = parse_num(value("--chunk-rows")?, "--chunk-rows")?,
            "--segment-rows" => {
                o.segment_rows = parse_num(value("--segment-rows")?, "--segment-rows")?;
            }
            "--report" => {
                let name = value("--report")?;
                o.report = REPORTS
                    .iter()
                    .find(|(kind, _)| kind == name)
                    .map(|&(_, report)| report)
                    .ok_or_else(|| {
                        let kinds = REPORTS.map(|(kind, _)| kind).join("/");
                        format!("--report: {name:?} is not {kinds}")
                    })?;
            }
            "--out" => o.out = Some(value("--out")?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if o.dir.as_os_str().is_empty() {
        return Err(String::from("--dir is required"));
    }
    Ok(o)
}

fn lake_cfg(o: &Opts) -> LakeConfig {
    LakeConfig {
        chunk_rows: o.chunk_rows,
        segment_rows: o.segment_rows,
    }
}

/// Writes the synthetic diurnal corpus as one lake cell and compacts.
fn cmd_synth(o: &Opts) -> Result<(), String> {
    let manifest = synth_lake(o).map_err(|e| e.to_string())?;
    print!("{}", manifest.to_csv());
    Ok(())
}

fn synth_lake(o: &Opts) -> Result<ms_lake::LakeManifest, LakeError> {
    let series = synth_diurnal_series(o.seed, o.hosts, o.buckets, o.interval);
    let writer = LakeWriter::create(&o.dir, lake_cfg(o))?;
    let mut shard = writer.shard_writer_named("synth")?;
    shard.append(&CellRows {
        cell: 0,
        label: format!("diurnal-s{}-h{}-b{}", o.seed, o.hosts, o.buckets),
        outcome: None,
        bursts: Vec::new(),
        series,
        forensics: Vec::new(),
    })?;
    shard.finish()?;
    writer.compact()
}

fn cmd_compact(o: &Opts) -> Result<(), String> {
    let writer = LakeWriter::create(&o.dir, lake_cfg(o)).map_err(|e| e.to_string())?;
    let manifest = writer.compact().map_err(|e| e.to_string())?;
    print!("{}", manifest.to_csv());
    Ok(())
}

fn cmd_query(o: &Opts) -> Result<(), String> {
    let lake = Lake::open(&o.dir).map_err(|e| e.to_string())?;
    let text = (o.report)(&lake).map_err(|e| e.to_string())?;
    match &o.out {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Prints the manifest and fully verifies every segment (all checksums,
/// every value decoded, footer min/max cross-checked).
fn cmd_stat(o: &Opts) -> Result<(), String> {
    let lake = Lake::open(&o.dir).map_err(|e| e.to_string())?;
    print!("{}", lake.manifest.to_csv());
    for e in &lake.manifest.entries {
        let path = o.dir.join(&e.file);
        let bytes = std::fs::read(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        let rows = verify_segment_bytes(&bytes).map_err(|err| format!("{}: {err}", e.file))?;
        if rows != e.rows {
            return Err(format!(
                "{}: manifest says {} rows, file has {rows}",
                e.file, e.rows
            ));
        }
        println!("verified,{},{rows}", e.file);
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse::<T>()
        .map_err(|_| format!("{flag}: bad value {s:?}"))
}

fn print_help() {
    println!(
        "lake — columnar on-disk sample lake tools\n\
         \n\
         USAGE: lake <COMMAND> --dir DIR [OPTIONS]\n\
         \n\
         COMMANDS:\n\
         \x20 synth    write a deterministic diurnal corpus and compact it\n\
         \x20 compact  fold leftover shard files into final segments\n\
         \x20 query    stream an analysis out-of-core\n\
         \x20          (--report aggregate|outcomes|forensics|attribution|tiers|policy-compare)\n\
         \x20 stat     print the manifest and verify every segment checksum\n\
         \n\
         OPTIONS:\n\
         \x20 --dir DIR           lake directory (required)\n\
         \x20 --seed N            synthesis seed                    [default 1]\n\
         \x20 --hosts N           synthetic hosts                   [default 8]\n\
         \x20 --buckets N         samples per host                  [default 86400]\n\
         \x20 --interval-ms N     sample interval in ms             [default 1000]\n\
         \x20 --chunk-rows N      rows per chunk                    [default 4096]\n\
         \x20 --segment-rows N    rows per segment file             [default 262144]\n\
         \x20 --report KIND       query report: aggregate|outcomes|forensics|\n\
         \x20                     attribution|tiers|policy-compare [default aggregate]\n\
         \x20 --out PATH          write query output to PATH (default: stdout)"
    );
}
