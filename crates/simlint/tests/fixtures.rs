//! Rule-by-rule fixture tests: every rule must fire on its bad fixture,
//! every suppression mechanism (inline allow, `tests/` exemption,
//! `#[cfg(test)]` exemption) must suppress, and the hot-path pass must
//! see through call indirection.

use simlint::{analyze, render_json, Config, Diagnostic};
use std::path::PathBuf;

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn base_config() -> Config {
    Config {
        crates: vec![".".to_string()],
        hot_functions: vec!["Widget::poll".to_string()],
        ..Config::default()
    }
}

fn run(cfg: &Config) -> Vec<Diagnostic> {
    analyze(&fixtures_root(), cfg)
        .expect("fixture scan must succeed")
        .diags
}

fn has(diags: &[Diagnostic], file: &str, rule: &str, line: u32) -> bool {
    diags
        .iter()
        .any(|d| d.file == file && d.rule == rule && d.line == line)
}

#[test]
fn hot_path_rules_fire_only_in_hot_functions() {
    let d = run(&base_config());
    let f = "hotpath_bad.rs";
    assert!(has(&d, f, "hot-path-panic", 18), ".unwrap()");
    assert!(has(&d, f, "hot-path-panic", 20), "panic!");
    assert!(has(&d, f, "hot-path-alloc", 22), "format!");
    assert!(has(&d, f, "hot-path-alloc", 23), ".to_string()");
    assert!(has(&d, f, "hot-path-alloc", 24), "Box::new");
    assert!(has(&d, f, "hot-path-alloc", 25), "Vec::new");
    assert!(has(&d, f, "hot-path-alloc", 27), ".clone()");
    assert!(has(&d, f, "hot-path-alloc", 28), ".collect()");
    assert!(has(&d, f, "hot-path-alloc", 29), ".resize()");
    // The identical constructs in the cold `Widget::setup` stay legal.
    assert!(
        d.iter().all(|d| d.file != f || d.line >= 17),
        "cold-path code must not be flagged: {d:?}"
    );
}

#[test]
fn clean_hot_function_with_inline_allow_passes() {
    let d = run(&base_config());
    assert!(
        d.iter().all(|d| d.file != "hotpath_ok.rs"),
        "clean hot path must lint clean: {d:?}"
    );
}

#[test]
fn cast_rule_fires_and_inline_allow_suppresses() {
    let d = run(&base_config());
    let casts: Vec<&Diagnostic> = d.iter().filter(|d| d.file == "casts.rs").collect();
    assert_eq!(casts.len(), 1, "exactly the bare cast: {casts:?}");
    assert_eq!(casts[0].rule, "cast-truncation");
    assert_eq!(casts[0].line, 5);
}

/// Determinism in test code is clippy's to check (`--all-targets` lints
/// every test), so only the cast half is simlint's.
#[test]
fn cfg_test_modules_exempt_casts_but_not_determinism() {
    let d = run(&base_config());
    let f = "cfg_test_mod.rs";
    assert!(has(&d, f, "cast-truncation", 5), "shipped code cast fires");
    assert!(
        !d.iter()
            .any(|d| d.file == f && d.rule == "cast-truncation" && d.line == 11),
        "cast inside #[cfg(test)] mod is exempt: {d:?}"
    );
}

/// As above: a `tests/` file still answers to clippy's determinism bans.
#[test]
fn tests_dir_exempt_from_casts_but_not_determinism() {
    let d = run(&base_config());
    assert!(
        d.iter().all(|d| d.file != "tests/in_tests_dir.rs"),
        "tests/ files are exempt from the cast rule: {d:?}"
    );
}

#[test]
fn missing_hot_function_is_reported() {
    let mut cfg = base_config();
    cfg.hot_functions.push("Vanished::gone".to_string());
    let d = run(&cfg);
    assert!(
        d.iter()
            .any(|d| d.rule == "hot-path-missing" && d.message.contains("Vanished::gone")),
        "renamed-away hot functions must be loud: {d:?}"
    );
}

#[test]
fn nonexistent_crate_dir_is_an_error_not_a_green() {
    let cfg = Config {
        crates: vec!["no/such/dir".to_string()],
        ..Config::default()
    };
    assert!(analyze(&fixtures_root(), &cfg).is_err());
}

#[test]
fn transitive_panic_three_calls_deep_carries_full_chain() {
    let mut cfg = base_config();
    cfg.hot_functions.push("Meter::record".to_string());
    let d = run(&cfg);
    let f = "transitive/chain.rs";

    let panic = d
        .iter()
        .find(|d| d.file == f && d.rule == "hot-path-panic")
        .expect("the .unwrap() three calls down must surface");
    assert_eq!(panic.line, 13, "anchored at the `step_one(...)` call site");
    assert!(
        panic.message.contains("`Meter::record`") && panic.message.contains("via `step_one`"),
        "{}",
        panic.message
    );
    assert_eq!(
        panic.chain.len(),
        5,
        "hot fn + three hops + construct: {:?}",
        panic.chain
    );
    assert!(panic.chain[0].contains("Meter::record"));
    assert!(panic.chain[1].contains("step_one"));
    assert!(panic.chain[2].contains("step_two"));
    assert!(panic.chain[3].contains("step_three"));
    assert!(panic.chain[4].contains(".unwrap()"));

    let alloc = d
        .iter()
        .find(|d| d.file == f && d.rule == "hot-path-alloc")
        .expect("the format! one call down must surface");
    assert_eq!(alloc.line, 14, "anchored at the `label(...)` call site");
    assert!(alloc.message.contains("via `label`"), "{}", alloc.message);
}

#[test]
fn transitive_fixture_is_silent_when_its_fn_is_not_hot() {
    let d = run(&base_config());
    assert!(
        d.iter().all(|d| d.file != "transitive/chain.rs"),
        "nothing in chain.rs is hot under the base config: {d:?}"
    );
}

#[test]
fn stale_allow_is_flagged_at_its_directive_line() {
    let d = run(&base_config());
    let f = "suppress/unused_allow.rs";
    let unused: Vec<&Diagnostic> = d
        .iter()
        .filter(|d| d.file == f && d.rule == "unused-allow")
        .collect();
    assert_eq!(unused.len(), 1, "only the stale allow: {unused:?}");
    assert_eq!(unused[0].line, 5, "anchored at the directive, not the fn");
    assert!(
        unused[0].message.contains("cast-truncation"),
        "{}",
        unused[0].message
    );
    // The live cast allow two functions down stays legal and silent.
    assert!(
        !d.iter().any(|d| d.file == f && d.line > 5),
        "used allow must not be audited: {d:?}"
    );
}

fn monotonic_config() -> Config {
    let mut cfg = base_config();
    cfg.monotonic_sinks.push("EventQueue::schedule".to_string());
    cfg
}

#[test]
fn non_monotonic_schedule_fires_on_each_planted_shape() {
    let d = run(&monotonic_config());
    let f = "monotonic/sched.rs";
    assert!(has(&d, f, "non-monotonic-schedule", 19), "now - 3: {d:?}");
    assert!(has(&d, f, "non-monotonic-schedule", 23), "raw 1_000: {d:?}");
    assert!(
        has(&d, f, "non-monotonic-schedule", 28),
        "float-derived `next`: {d:?}"
    );
    let sub = d
        .iter()
        .find(|d| d.file == f && d.line == 19)
        .expect("the subtraction finding");
    assert!(sub.message.contains("subtraction"), "{}", sub.message);
    let float = d
        .iter()
        .find(|d| d.file == f && d.line == 28)
        .expect("the float finding");
    assert!(float.message.contains("floating"), "{}", float.message);
    // `now + self.fabric_delay` in `clean` is the sanctioned form.
    assert!(
        !d.iter().any(|d| d.file == f && d.line >= 31),
        "clean schedule must not flag: {d:?}"
    );
}

#[test]
fn monotonic_fixture_is_silent_without_configured_sinks() {
    let d = run(&base_config());
    assert!(
        d.iter().all(|d| d.file != "monotonic/sched.rs"),
        "no [monotonic] sinks configured — nothing may fire: {d:?}"
    );
}

#[test]
fn missing_monotonic_sink_is_reported() {
    let mut cfg = monotonic_config();
    cfg.monotonic_sinks.push("Vanished::gone".to_string());
    let d = run(&cfg);
    assert!(
        d.iter()
            .any(|d| d.rule == "monotonic-sink-missing" && d.message.contains("Vanished::gone")),
        "renamed-away sinks must be loud: {d:?}"
    );
}

#[test]
fn blocking_recv_reachable_from_hot_root_carries_the_path() {
    let mut cfg = base_config();
    cfg.hot_functions.push("Merge::pump".to_string());
    let d = run(&cfg);
    let f = "transitive/blocking.rs";
    let hit = d
        .iter()
        .find(|d| d.file == f && d.rule == "hot-path-block")
        .expect("rx.recv() under Merge::pump must surface");
    assert_eq!(hit.line, 10, "anchored at the `gather()` call site");
    assert!(
        hit.message.contains("`Merge::pump`") && hit.message.contains("via `gather`"),
        "{}",
        hit.message
    );
    assert!(hit.chain[0].contains("Merge::pump"), "{:?}", hit.chain);
    assert!(
        hit.chain.last().unwrap().contains(".recv()"),
        "{:?}",
        hit.chain
    );
}

/// Golden `--json` snapshot over the interprocedural fixtures: the
/// rendered output — chains, messages, ordering — must match the
/// checked-in snapshot byte-for-byte, and a second analysis of the same
/// tree must render identically.
#[test]
fn golden_json_snapshot_is_byte_stable() {
    let cfg = Config {
        crates: vec![
            "monotonic".to_string(),
            "suppress".to_string(),
            "transitive".to_string(),
        ],
        hot_functions: vec![
            "Meter::record".to_string(),
            "Merge::pump".to_string(),
            "Bins::note".to_string(),
        ],
        monotonic_sinks: vec!["EventQueue::schedule".to_string()],
        ..Config::default()
    };
    let first = render_json(&run(&cfg));
    let second = render_json(&run(&cfg));
    assert_eq!(first, second, "two runs must render byte-identically");

    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_fixtures.json");
    #[expect(
        clippy::disallowed_methods,
        reason = "UPDATE_GOLDEN=1 regenerates the snapshot on purpose"
    )]
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::write(&golden_path, format!("{first}\n")).expect("write golden snapshot");
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden snapshot is checked in");
    assert_eq!(
        first,
        golden.trim_end(),
        "JSON output drifted from tests/golden_fixtures.json — if the \
         change is intentional, regenerate the snapshot"
    );
}
