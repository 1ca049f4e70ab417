//! Mutation coverage for the monotonicity pass: plant the exact bugs it
//! exists to catch — a subtracted and a float round-tripped timestamp —
//! into otherwise-clean source, and assert each finding surfaces with
//! the right rule and anchor. The mutations are planted into a copy of
//! the *real* `EventQueue` so the check exercises the production
//! event-engine source, not a toy.

use simlint::{analyze, Config, Diagnostic};
use std::path::{Path, PathBuf};

fn engine_src() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../dcsim/src/engine.rs");
    std::fs::read_to_string(path).expect("the real event engine is part of the workspace")
}

fn scratch_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale scratch tree");
    }
    std::fs::create_dir_all(&root).expect("create scratch tree");
    for (rel, content) in files {
        std::fs::write(root.join(rel), content).expect("write scratch file");
    }
    root
}

fn lint(root: &Path, cfg: &Config) -> Vec<Diagnostic> {
    analyze(root, cfg).expect("scratch scan must succeed").diags
}

const REGRESSION: &str = "
impl<E> EventQueue<E> {
    pub fn regress(&mut self, delta: Ns, event: E) {
        let at = Ns(self.now.0 - delta.0);
        self.schedule(at, event);
    }

    pub fn round_trip(&mut self, event: E) {
        let at = Ns((self.now.0 as f64 * 1.0) as u64);
        self.schedule(at, event);
    }
}
";

#[test]
fn planted_now_minus_delta_in_the_real_event_queue_is_caught() {
    let cfg = Config {
        crates: vec![".".to_string()],
        monotonic_sinks: vec!["EventQueue::schedule".to_string()],
        ..Config::default()
    };

    let pristine = scratch_tree("mut_mono_pristine", &[("engine.rs", &engine_src())]);
    let before: Vec<Diagnostic> = lint(&pristine, &cfg)
        .into_iter()
        .filter(|d| d.rule == "non-monotonic-schedule")
        .collect();
    assert!(
        before.is_empty(),
        "the unmutated engine must be monotonicity-clean: {before:?}"
    );

    let mutated_src = format!("{}{REGRESSION}", engine_src());
    let mutated = scratch_tree("mut_mono_planted", &[("engine.rs", &mutated_src)]);
    let after: Vec<Diagnostic> = lint(&mutated, &cfg)
        .into_iter()
        .filter(|d| d.rule == "non-monotonic-schedule")
        .collect();
    assert_eq!(after.len(), 2, "exactly the planted regressions: {after:?}");
    assert!(
        after[0].message.contains("`EventQueue::regress`")
            && after[0].message.contains("subtraction"),
        "{}",
        after[0].message
    );
    assert!(
        after[1].message.contains("`EventQueue::round_trip`")
            && after[1].message.contains("floating-point math (`f64`)"),
        "{}",
        after[1].message
    );
    // Anchored at the planted `self.schedule(...)` sinks, five and ten
    // lines past the pristine file's end (blank, impl, fn, let, call,
    // close, blank, fn, let, call).
    let end = engine_src().lines().count() as u32;
    let anchors: Vec<(u32, u32)> = after.iter().map(|d| (d.line, d.col)).collect();
    assert_eq!(anchors, [(end + 5, 14), (end + 10, 14)], "{after:?}");
}
