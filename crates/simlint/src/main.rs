//! CLI: `cargo run -p simlint -- [--deny] [--json] [--root DIR]
//! [--config FILE] [--bench FILE] [--explain RULE]`.
//!
//! Exit status: 0 when clean (or merely warning), 1 when `--deny` and
//! findings exist, 2 on usage/config errors.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Write to stdout, tolerating a closed pipe (`simlint --json | head`).
fn emit(s: &str) {
    if std::io::stdout().write_all(s.as_bytes()).is_err() {
        // Downstream reader went away; nothing left to report.
        std::process::exit(0);
    }
}

struct Args {
    deny: bool,
    json: bool,
    root: PathBuf,
    config: Option<PathBuf>,
    bench: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        json: false,
        root: PathBuf::from("."),
        config: None,
        bench: None,
        explain: None,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--json" => args.json = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?));
            }
            "--bench" => {
                args.bench = Some(PathBuf::from(it.next().ok_or("--bench needs a file")?));
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id")?);
            }
            "--help" | "-h" => {
                println!(
                    "simlint — hot-path, time-monotonicity and cast invariants\n\n\
                     USAGE: simlint [--deny] [--json] [--root DIR] [--config FILE]\n\
                     \x20              [--bench FILE] [--explain RULE]\n\n\
                     --deny     exit nonzero if any finding survives\n\
                     --json     machine-readable output (with call chains)\n\
                     --root     workspace root (default: current directory)\n\
                     --config   config file (default: <root>/simlint.toml)\n\
                     --bench    write scan-size counters as JSON\n\
                     --explain  print rationale + example for a rule id, then exit"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &args.explain {
        match simlint::explain::explain(rule) {
            Some(text) => {
                emit(&text);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "simlint: unknown rule {rule:?}; known rules:\n  {}",
                    simlint::explain::rule_ids()
                        .collect::<Vec<_>>()
                        .join("\n  ")
                );
                return ExitCode::from(2);
            }
        }
    }
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("simlint.toml"));
    let cfg = match simlint::Config::from_file(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = match simlint::analyze(&args.root, &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.bench {
        let s = analysis.stats;
        let json = format!(
            "{{\"files_scanned\":{},\"fns_in_call_graph\":{},\"resolved_calls\":{},\
             \"monotonic_sites\":{}}}\n",
            s.files_scanned, s.fns_in_graph, s.resolved_calls, s.monotonic_sites
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let diags = analysis.diags;
    if args.json {
        emit(&simlint::render_json(&diags));
        emit("\n");
    } else {
        emit(&simlint::render_human(&diags));
        if diags.is_empty() {
            eprintln!("simlint: clean");
        } else {
            eprintln!(
                "simlint: {} finding{}{}",
                diags.len(),
                if diags.len() == 1 { "" } else { "s" },
                if args.deny { " (denied)" } else { "" }
            );
        }
    }
    if args.deny && !diags.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
