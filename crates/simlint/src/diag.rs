//! Diagnostics: the finding type and the two output formats.

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
    /// Stable rule id, e.g. `cast-truncation`.
    pub rule: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to suppress it when it is intentional).
    pub hint: String,
    /// For interprocedural findings: the call chain from the checked
    /// function to the offending construct, outermost first. Each step
    /// reads `` `Ty::fn` (file:line) ``.
    pub chain: Vec<String>,
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
        }
    }

    #[must_use]
    pub fn with_chain(mut self, chain: Vec<String>) -> Self {
        self.chain = chain;
        self
    }
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
        out.push_str("]}");
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
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
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
        let d = Diagnostic::new("a/b.rs", 3, 7, "cast-truncation", "bad", "fix it");
        assert!(render_human(&[d]).starts_with("a/b.rs:3:7: [cast-truncation] bad"));
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
}
