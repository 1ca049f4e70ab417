//! `simlint --explain <rule>`: the rationale and a worked example for
//! every rule the analyzer can emit.
//!
//! Diagnostics are terse by design (one line + hint); this registry is
//! where the *why* lives. Each entry pairs the reproducibility or
//! performance argument behind the rule with an example diagnostic in
//! the exact output format, so a developer hitting an unfamiliar rule
//! in CI can go from finding to fix without reading pass source. The
//! registry is also the canonical rule list: a unit test scans the
//! analyzer's own sources and fails if any pass emits a rule id that is
//! not documented here.

/// `(rule, rationale, example diagnostic)` for every rule, roughly in
/// pass order.
pub const ALL_RULES: [(&str, &str, &str); 8] = [
    (
        "cast-truncation",
        "`as` silently truncates and wraps: a u64 nanosecond timestamp cast to u32 overflows \
         after ~4.3 simulated seconds, corrupting time without a panic. Narrowing conversions \
         must be checked (try_into) or justified at the site.",
        "crates/dcsim/src/engine.rs:77:30: [cast-truncation] `u64 as u32` may truncate\n    \
         hint: use try_into() or an explicit allow with the range argument",
    ),
    (
        "hot-path-panic",
        "A panic reachable from the per-event hot path turns a corner-case input into an abort \
         of a multi-hour run. unwrap/expect/indexing on the hot path must be proven infallible \
         or replaced with handled variants.",
        "crates/dcsim/src/engine.rs:102:31: [hot-path-panic] hot function `EventQueue::pop` may \
         panic via `.unwrap()`\n    \
         hint: handle the None/Err case or document why it cannot happen",
    ),
    (
        "hot-path-alloc",
        "Allocation on the per-event path (Vec::new, Box, format!) dominates runtime at the \
         paper's packet rates — millions of events per simulated second. Hot-path state must \
         be preallocated and reused.",
        "crates/dcsim/src/switch.rs:66:22: [hot-path-alloc] hot function `Switch::enqueue` \
         allocates via `Vec::push`\n    \
         hint: preallocate in setup and reuse the buffer",
    ),
    (
        "hot-path-block",
        "A blocking call (lock, recv, join) on the per-event path stalls the simulation clock \
         on OS scheduling, destroying both throughput and timing fidelity.",
        "crates/fleet/src/runner.rs:93:14: [hot-path-block] hot function `ShardQueue::next` \
         can block via `ShardQueue::pop`\n    \
         hint: restructure so the hot path never waits, or allow with a contention argument",
    ),
    (
        "hot-path-missing",
        "A `[hotpath]` entry naming a function that no longer exists means its checks silently \
         stopped running — a rename erased coverage without anyone deciding that.",
        "simlint.toml:1:1: [hot-path-missing] configured hot function `Switch::enqueue` was not \
         found in any scanned file\n    \
         hint: a rename silently disables its coverage — update [hotpath] functions",
    ),
    (
        "unused-allow",
        "A suppression that no longer matches any finding is debt: the code it excused was \
         fixed or moved, and the stale allow would silently excuse a future, different \
         finding at the same spot.",
        "crates/dcsim/src/engine.rs:60:1: [unused-allow] allow(cast-truncation) suppresses \
         nothing\n    \
         hint: the finding it excused is gone — delete the suppression",
    ),
    (
        "non-monotonic-schedule",
        "An event scheduled at a timestamp not provably >= now violates causality: the engine \
         either panics, silently reorders, or — worst — processes the past after the future, \
         corrupting queue state. Every schedule argument must be `now + positive delta` with \
         integer provenance; subtraction, raw literals, and float round-trips on the timestamp \
         are flagged.",
        "crates/workload/src/sim.rs:712:13: [non-monotonic-schedule] timestamp passed to \
         `schedule` is tainted by subtraction via `release - drain` (sim.rs:710)\n    \
         hint: scheduled times must be now + positive delta — clamp with max(now) or \
         saturating arithmetic proven non-negative",
    ),
    (
        "monotonic-sink-missing",
        "A `[monotonic]` sink naming a vanished function means timestamp checking silently \
         stopped covering that queue entry point.",
        "simlint.toml:1:1: [monotonic-sink-missing] configured monotonic sink \
         `EventQueue::schedule` was not found in any scanned file\n    \
         hint: a rename silently disables timestamp checking — update [monotonic] sinks",
    ),
];

/// Renders the explanation for one rule, or `None` for an unknown id.
pub fn explain(rule: &str) -> Option<String> {
    ALL_RULES
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(id, why, example)| format!("[{id}]\n\n{why}\n\nexample:\n{example}\n"))
}

/// All registered rule ids, for `--explain` error messages.
pub fn rule_ids() -> impl Iterator<Item = &'static str> {
    ALL_RULES.iter().map(|(id, _, _)| *id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_well_formed() {
        let mut seen = BTreeSet::new();
        for (id, why, example) in &ALL_RULES {
            assert!(seen.insert(id), "duplicate rule {id}");
            assert!(
                !why.is_empty() && !example.is_empty(),
                "empty entry for {id}"
            );
            assert!(
                example.contains(&format!("[{id}]")),
                "example for {id} must show the rule tag"
            );
            assert!(
                example.contains("hint:"),
                "example for {id} must show a hint"
            );
        }
    }

    #[test]
    fn explain_formats_known_and_rejects_unknown() {
        let text = explain("non-monotonic-schedule").expect("registered");
        assert!(text.starts_with("[non-monotonic-schedule]"), "{text}");
        assert!(text.contains("example:"), "{text}");
        assert!(explain("nonexistent").is_none());
        // Deleted passes' rules must not linger; the determinism bans
        // are clippy's `disallowed_types`/`disallowed_methods` now.
        for gone in [
            "hash-collections",
            "wall-clock",
            "ambient-rng",
            "env-read",
            "wait-cycle",
            "unit-mismatch",
            "unchecked-scale",
            "lock-cycle",
            "float-determinism",
            "float-root-missing",
        ] {
            assert!(explain(gone).is_none(), "{gone}");
        }
    }

    /// Scans the analyzer's own sources for rule-shaped string literals
    /// (kebab-case, no spaces) and checks each is documented. This is
    /// the registry's freshness guarantee: adding a pass that emits a
    /// new rule without explain text fails here.
    #[test]
    fn every_emitted_rule_has_explain_text() {
        let registered: BTreeSet<&str> = rule_ids().collect();
        let src_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut found = BTreeSet::new();
        for entry in std::fs::read_dir(src_dir).expect("src dir") {
            let path = entry.expect("entry").path();
            if path.extension() != Some(std::ffi::OsStr::new("rs")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source");
            // Assertion snippets in test modules are not emitted rules;
            // by convention the test module closes each file.
            let text = text.split("#[cfg(test)]").next().unwrap_or(&text);
            for lit in string_literals(text) {
                if is_rule_shaped(&lit) {
                    found.insert(lit);
                }
            }
        }
        for rule in &found {
            assert!(
                registered.contains(rule.as_str()),
                "rule `{rule}` is emitted in src/ but has no --explain entry"
            );
        }
        // And the reverse: no dead registry entries.
        for rule in &registered {
            assert!(
                found.contains(*rule),
                "registered rule `{rule}` never appears in src/"
            );
        }
    }

    /// Complete `"..."` literals in source text, comments skipped.
    fn string_literals(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                b'\'' => {
                    // Char literal (or lifetime): skip past a possible
                    // escaped quote like '"'.
                    if bytes.get(i + 1) == Some(&b'\\') {
                        i += 3;
                    } else if bytes.get(i + 2) == Some(&b'\'') {
                        i += 2;
                    }
                    i += 1;
                }
                b'"' => {
                    let mut lit = String::new();
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'"' {
                        if bytes[i] == b'\\' {
                            i += 1;
                        }
                        lit.push(bytes[i] as char);
                        i += 1;
                    }
                    i += 1;
                    out.push(lit);
                }
                _ => i += 1,
            }
        }
        out
    }

    /// `foo-bar-baz`: lowercase alpha segments joined by single hyphens.
    fn is_rule_shaped(s: &str) -> bool {
        s.contains('-')
            && !s.starts_with('-')
            && !s.ends_with('-')
            && !s.contains("--")
            && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
    }
}
