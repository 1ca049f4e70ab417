//! simlint — workspace-local static analysis for the Millisampler
//! reproduction.
//!
//! The simulator's headline property is *reproducibility*: identical
//! seeds must produce bit-identical traces, and the per-packet hot path
//! must hold the paper's 7 ns disabled-cost budget (§4.3). Those are
//! whole-workspace invariants that no single `#[test]` can own, so this
//! crate enforces them structurally, before the code runs. It keeps the
//! checks that need its own parser or call graph:
//!
//! * hot-path discipline — the functions named in `simlint.toml`
//!   neither panic, allocate, nor block **anywhere in their call
//!   trees** (see [`graph`] and [`hotpath`]);
//! * cast safety — no silent `as u8/u16/u32` truncation;
//! * suppression hygiene — every `allow` must still suppress something
//!   (see [`suppress`]);
//! * time monotonicity — every timestamp handed to a `[monotonic]
//!   sinks` function is provably `now + positive delta`, with no
//!   subtraction, raw literal or float round-trip on the way (see
//!   [`monotonic`]).
//!
//! The determinism bans (hash-ordered collections, the host clock,
//! environment reads) are not lint passes here: clippy's
//! `disallowed_types`/`disallowed_methods`, listed in the root
//! `clippy.toml`, resolve them by type on every target. Dimensions and
//! lock discipline are not lint passes either: the `Ns`/`Bytes`/`Bps`
//! newtypes make mixing units a type error (and keep time, volume and
//! rate integral), and `ShardQueue`'s only lock site returns a value,
//! never a guard.
//!
//! Run it with `cargo run -p simlint -- --deny` (CI adds
//! `--bench BENCH_simlint.json`). Rules are configured in the
//! checked-in `simlint.toml`; one-off exceptions use
//! `// simlint: allow(rule-id): reason` on or above the offending line.
//! See `DESIGN.md` § "Invariants & static analysis".
//!
//! The analyzer stays dependency-free: a hand-rolled [`lexer`] feeds a
//! hand-rolled recursive-descent [`parser`], whose function bodies form
//! a workspace-wide call [`graph`]. Keeping `syn` out keeps the
//! workspace building offline.

pub mod config;
pub mod diag;
pub mod explain;
pub mod graph;
pub mod hotpath;
pub mod lexer;
pub mod monotonic;
pub mod parser;
pub mod rules;
pub mod suppress;

pub use config::Config;
pub use diag::{render_human, render_json, Diagnostic};

use graph::CallGraph;
use std::path::{Path, PathBuf};
use suppress::Suppressions;

/// Scan-size counters, reported via `--bench`. They hold no timing, so
/// a rerun on unchanged code reports the same bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub files_scanned: usize,
    pub fns_in_graph: usize,
    pub resolved_calls: usize,
    /// Schedule-sink call sites audited by the monotonicity pass.
    pub monotonic_sites: usize,
}

/// The result of one full analysis.
#[derive(Debug)]
pub struct Analysis {
    /// Findings, sorted by (file, line, col, rule).
    pub diags: Vec<Diagnostic>,
    pub stats: Stats,
}

/// Analyzes every `.rs` file of every configured crate under `root`.
///
/// Two phases: the cast rule runs per file while the sources are parsed
/// into the call graph, then the interprocedural passes run over
/// the whole graph. Suppression is applied centrally at the end so the
/// audit can flag allows that matched nothing.
///
/// Files are visited in sorted order so output (and JSON) is stable.
/// IO problems (unreadable config, missing crate dir) are errors,
/// because a lint run that silently scans nothing would report a
/// misleading green.
pub fn analyze(root: &Path, cfg: &Config) -> Result<Analysis, String> {
    let mut raw = Vec::new();
    let mut suppressions = Suppressions::default();
    let mut parsed_files = Vec::new();
    let mut tokens: std::collections::BTreeMap<String, Vec<lexer::Tok>> =
        std::collections::BTreeMap::new();
    let mut stats = Stats::default();

    for crate_dir in &cfg.crates {
        let dir = root.join(crate_dir);
        if !dir.is_dir() {
            return Err(format!(
                "configured crate directory {} does not exist",
                dir.display()
            ));
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            if cfg.excluded(&rel) {
                continue;
            }
            let rel_in_crate = rel
                .strip_prefix(crate_dir.trim_end_matches('/'))
                .map_or(rel.as_str(), |s| s.trim_start_matches('/'));
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let lexed = lexer::lex(&src);
            suppressions.add_file(&rel, &lexed.allows);
            // Test scaffolding counters are not packet counters.
            if !rel_in_crate.starts_with("tests/") {
                raw.extend(rules::check_casts(&rel, &lexed.toks));
            }
            parsed_files.push((
                rel.clone(),
                crate_dir.clone(),
                parser::parse_file(&lexed.toks).fns,
            ));
            // The monotonic pass re-walks raw tokens (operators and
            // literals are not in the statement tree), so keep them.
            tokens.insert(rel, lexed.toks);
            stats.files_scanned += 1;
        }
    }
    if stats.files_scanned == 0 {
        return Err("no .rs files scanned — check [scan] crates in simlint.toml".into());
    }

    let graph = CallGraph::build(parsed_files);
    stats.fns_in_graph = graph.nodes.len();
    stats.resolved_calls = graph.resolved_edges;

    raw.extend(hotpath::hotpath_pass(&graph, cfg));
    let (mono_diags, mono_stats) = monotonic::monotonic_pass(&graph, &tokens, cfg);
    raw.extend(mono_diags);
    stats.monotonic_sites = mono_stats.sites;

    let mut diags = suppressions.filter(raw);
    // The audit runs after every pass has been filtered; its findings
    // are not themselves allow-suppressible (see the suppress module).
    diags.extend(suppressions.unused());

    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(Analysis { diags, stats })
}

/// Recursively collects `.rs` files, skipping build output and hidden
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative display path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
