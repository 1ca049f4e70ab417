//! `lake` — build, inspect, and query on-disk sample lakes.
//!
//! ```text
//! lake synth   --dir DIR [--seed N] [--hosts N] [--buckets N]
//!              [--interval-ms N] [--chunk-rows N] [--segment-rows N]
//! lake compact --dir DIR [--chunk-rows N] [--segment-rows N]
//! lake query   --dir DIR [--report aggregate|outcomes|forensics|attribution|tiers|policy-compare]
//!              [--out PATH]
//! lake stat    --dir DIR
//! lake bench   --dir DIR [--seed N] [--hosts N] [--json PATH]
//! ```
//!
//! `synth` writes a deterministic diurnal corpus (for testing the
//! format at scale), `compact` folds leftover shards into segments,
//! `query` streams the paper's aggregations out-of-core, `stat`
//! verifies every chunk checksum, and `bench` writes the
//! `BENCH_lake.json` compression/scan-rate artifact the CI gate checks.
//! Timing and process-environment reads live only in this binary; the
//! library stays deterministic (simlint enforces the split).
//!
//! Exit status: 0 on success, 1 when a command fails (an unreadable or
//! corrupt lake, a write error), 2 on a usage error (unknown command or
//! flag, bad or missing value), which also prints the `--help` hint.

use ms_lake::segment::verify_segment_bytes;
use ms_lake::{
    lake_sweep_aggregate, outcomes_csv, synth_diurnal_series, Lake, LakeConfig, LakeWriter,
    TableKind,
};
use ms_lake::{CellRows, LakeError};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
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
        "bench" => Ok(cmd_bench),
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
    json: Option<String>,
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
        json: None,
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
            "--json" => o.json = Some(value("--json")?.clone()),
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

/// Builds the diurnal corpus, then measures compression (vs raw
/// column bytes and vs the row-oriented millisampler codec) and
/// out-of-core scan rate. Writes `BENCH_lake.json`.
fn cmd_bench(o: &Opts) -> Result<(), String> {
    let series = synth_diurnal_series(o.seed, o.hosts, o.buckets, o.interval);
    let rows: u64 = series.iter().map(|s| s.len() as u64).sum();
    let raw_bytes = rows * 8 * TableKind::Series.columns().len() as u64;
    let codec_bytes: u64 = series
        .iter()
        .map(|s| millisampler::codec::encode(s).len() as u64)
        .sum();

    let writer = LakeWriter::create(&o.dir, lake_cfg(o)).map_err(|e| e.to_string())?;
    let mut shard = writer
        .shard_writer_named("bench")
        .map_err(|e| e.to_string())?;
    shard
        .append(&CellRows {
            cell: 0,
            label: String::from("bench-diurnal"),
            outcome: None,
            bursts: Vec::new(),
            series,
            forensics: Vec::new(),
        })
        .map_err(|e| e.to_string())?;
    shard.finish().map_err(|e| e.to_string())?;
    let manifest = writer.compact().map_err(|e| e.to_string())?;
    let lake_bytes = manifest.bytes(TableKind::Series);

    // Out-of-core scan: sum one column over every row, timed.
    let lake = Lake::open(&o.dir).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let in_col = TableKind::Series
        .column("in_bytes")
        .ok_or("missing in_bytes column")?;
    let mut scan = ms_lake::TableScan::new(&lake, TableKind::Series, &[in_col], Vec::new())
        .map_err(|e| e.to_string())?;
    let mut total_in = 0u64;
    let mut scanned = 0u64;
    ms_lake::for_each_row(&mut scan, |b, r| {
        total_in = total_in.wrapping_add(b.value(0, r));
        scanned += 1;
    })
    .map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    if scanned != rows {
        return Err(format!("scan returned {scanned} rows, expected {rows}"));
    }

    let compression_vs_raw = raw_bytes as f64 / lake_bytes.max(1) as f64;
    let compression_vs_codec = codec_bytes as f64 / lake_bytes.max(1) as f64;
    let rows_per_sec = rows as f64 / wall.as_secs_f64().max(1e-9);
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\n  \"bench\": \"lake\",\n  \"hosts\": {},\n  \"buckets\": {},\n  \
         \"rows\": {rows},\n  \"raw_bytes\": {raw_bytes},\n  \
         \"millisampler_codec_bytes\": {codec_bytes},\n  \"lake_bytes\": {lake_bytes},\n  \
         \"compression_vs_raw\": {compression_vs_raw:.3},\n  \
         \"compression_vs_codec\": {compression_vs_codec:.3},\n  \
         \"scan_wall_ms\": {:.3},\n  \"scan_rows_per_sec\": {rows_per_sec:.1},\n  \
         \"checksum\": {total_in},\n  \"host_cores\": {host_cores}\n}}\n",
        o.hosts,
        o.buckets,
        wall.as_secs_f64() * 1e3,
    );
    match &o.json {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[lake] bench artifact written to {path}");
        }
        None => print!("{json}"),
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
         \x20 bench    build the diurnal corpus, measure compression + scan rate\n\
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
         \x20 --out PATH          write query output to PATH (default: stdout)\n\
         \x20 --json PATH         write BENCH_lake.json to PATH (bench only)"
    );
}
