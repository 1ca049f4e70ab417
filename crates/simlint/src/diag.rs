//! Diagnostics: the finding type, fingerprints, and the two output
//! formats.

use std::fmt::Write as _;

/// One finding, pointing at a token in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule id, e.g. `hash-collections`.
    pub rule: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to suppress it when it is intentional).
    pub hint: String,
    /// For interprocedural findings: the call chain from the checked
    /// function to the offending construct, outermost first. Each step
    /// reads `` `Ty::fn` (file:line) ``.
    pub chain: Vec<String>,
    /// Stable identity for baseline diffing — FNV-1a 64 over the
    /// position-independent content, `#k`-suffixed for duplicates.
    /// Assigned once per run by [`crate::baseline::assign_fingerprints`].
    pub fingerprint: String,
}

impl Diagnostic {
    pub fn new(
        file: &str,
        line: u32,
        col: u32,
        rule: &str,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            col,
            rule: rule.to_string(),
            message: message.into(),
            hint: hint.into(),
            chain: Vec::new(),
            fingerprint: String::new(),
        }
    }

    #[must_use]
    pub fn with_chain(mut self, chain: Vec<String>) -> Self {
        self.chain = chain;
        self
    }

    /// The position-independent content hashed into the fingerprint.
    /// Line/column positions are stripped so findings survive unrelated
    /// edits above them; rule + file + message + chain shape remain.
    pub fn fingerprint_seed(&self) -> String {
        let mut seed = format!("{}\x1f{}\x1f{}", self.rule, self.file, self.message);
        for step in &self.chain {
            seed.push('\x1f');
            seed.push_str(&strip_positions(step));
        }
        seed
    }
}

/// Removes `:123`-style position suffixes from a chain step.
fn strip_positions(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == ':' && chars.peek().is_some_and(char::is_ascii_digit) {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// FNV-1a 64 — good enough for fingerprint identity and trivially
/// stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders findings for humans: `file:line:col: [rule] message` plus an
/// indented hint line, mirroring rustc's layout so editors linkify it.
/// Interprocedural findings show their call chain step by step.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            d.file, d.line, d.col, d.rule, d.message
        );
        for (i, step) in d.chain.iter().enumerate() {
            let arrow = if i == 0 { "chain:" } else { "    ->" };
            let _ = writeln!(out, "    {arrow} {step}");
        }
        let _ = writeln!(out, "    hint: {}", d.hint);
    }
    out
}

/// Renders findings as a single JSON object (hand-rolled — the workspace
/// builds without serde). Byte-stable for identical findings: contains
/// no timestamps or other run-varying fields.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"hint\":{},\"chain\":[",
            json_str(&d.file),
            d.line,
            d.col,
            json_str(&d.rule),
            json_str(&d.message),
            json_str(&d.hint)
        );
        for (j, step) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_str(step));
        }
        let _ = write!(out, "],\"fingerprint\":{}}}", json_str(&d.fingerprint));
    }
    let _ = write!(out, "],\"count\":{}}}", diags.len());
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_output_is_clickable() {
        let d = Diagnostic::new("a/b.rs", 3, 7, "wall-clock", "bad", "fix it");
        assert!(render_human(&[d]).starts_with("a/b.rs:3:7: [wall-clock] bad"));
    }

    #[test]
    fn human_output_shows_chain() {
        let d = Diagnostic::new("a.rs", 1, 1, "hot-path-panic", "m", "h").with_chain(vec![
            "`A::f` (a.rs:1)".into(),
            "`.unwrap()` (a.rs:9:3)".into(),
        ]);
        let text = render_human(&[d]);
        assert!(text.contains("chain: `A::f` (a.rs:1)"), "{text}");
        assert!(text.contains("-> `.unwrap()` (a.rs:9:3)"), "{text}");
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic::new("a.rs", 1, 1, "r", "say \"hi\"", "h");
        let j = render_json(&[d]);
        assert!(j.contains("say \\\"hi\\\""), "{j}");
        assert!(j.ends_with("\"count\":1}"));
    }

    #[test]
    fn empty_findings_is_valid_json() {
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}");
    }

    #[test]
    fn fingerprint_seed_ignores_positions() {
        let a =
            Diagnostic::new("a.rs", 3, 7, "r", "m", "h").with_chain(vec!["`f` (a.rs:10)".into()]);
        let b =
            Diagnostic::new("a.rs", 99, 1, "r", "m", "h").with_chain(vec!["`f` (a.rs:42)".into()]);
        assert_eq!(a.fingerprint_seed(), b.fingerprint_seed());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" per the published reference implementation.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
