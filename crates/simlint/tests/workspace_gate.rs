//! The self-check the whole PR hangs on: running simlint over this very
//! workspace, with the checked-in `simlint.toml`, finds nothing. This is
//! the same invocation CI runs as `cargo run -p simlint -- --deny`.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let cfg = simlint::Config::from_file(&root.join("simlint.toml")).expect("config parses");
    assert!(
        !cfg.crates.is_empty() && !cfg.hot_functions.is_empty(),
        "config must actually cover something"
    );
    let analysis = simlint::analyze(&root, &cfg).expect("scan succeeds");
    assert!(
        analysis.diags.is_empty(),
        "workspace must be simlint-clean:\n{}",
        simlint::render_human(&analysis.diags)
    );
    // The scan must actually have covered the workspace: every crate
    // contributes files, and the call graph resolved real edges.
    assert!(analysis.stats.files_scanned > 30, "{:?}", analysis.stats);
    assert!(analysis.stats.fns_in_graph > 300, "{:?}", analysis.stats);
    assert!(analysis.stats.resolved_calls > 300, "{:?}", analysis.stats);
}

/// `[scan] crates` says "all workspace crates": a directory under
/// `crates/` with a `Cargo.toml` that the list omits goes unscanned
/// without anyone deciding that.
#[test]
fn every_workspace_crate_is_scanned() {
    let root = workspace_root();
    let cfg = simlint::Config::from_file(&root.join("simlint.toml")).expect("config parses");
    let mut unscanned = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let entry = entry.expect("crates/ entry");
        if !entry.path().join("Cargo.toml").is_file() {
            continue;
        }
        let dir = format!("crates/{}", entry.file_name().to_string_lossy());
        if !cfg.crates.contains(&dir) {
            unscanned.push(dir);
        }
    }
    assert!(
        unscanned.is_empty(),
        "missing from [scan] crates in simlint.toml: {unscanned:?}"
    );
}

/// Retired flags — `--lp-report` went with the LP-partition pass, the
/// other with the checked-in list of accepted findings — must give a
/// script that still passes one a usage error, not a silently ignored
/// flag.
#[test]
fn retired_lp_report_flag_is_a_usage_error() {
    for flag in ["--lp-report", "--baseline"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
            .args([flag, "x"])
            .output()
            .expect("simlint binary runs");
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument \"{flag}\"")),
            "{stderr}"
        );
    }
}
