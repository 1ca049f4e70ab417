//! Centralized suppression — and the audit that keeps it honest.
//!
//! v1 filtered findings inside each pass, which made it impossible to
//! know whether an `allow` still did anything. v2 inverts the flow:
//! every pass emits its findings unconditionally, and this module
//! applies the inline allows in one place while tracking which of them
//! actually fired. An allow that suppresses nothing is dead
//! weight at best and a silently-disabled invariant at worst (the rule
//! may have been renamed, or the offending code deleted), so each one
//! becomes an `unused-allow` finding pointing at the directive itself.
//!
//! `unused-allow` is deliberately not suppressible by allows — an allow
//! excusing another allow converges nowhere.

use crate::diag::Diagnostic;

/// An inline `// simlint: allow(rule): reason` directive.
#[derive(Debug)]
struct InlineAllow {
    file: String,
    /// Line the directive sits on; it covers findings on this line and
    /// the next (directive-above-the-offending-line style).
    line: u32,
    rule: String,
    used: bool,
}

/// Collects directives during the scan, filters findings, then reports
/// the allows that never fired.
#[derive(Debug, Default)]
pub struct Suppressions {
    inline: Vec<InlineAllow>,
}

impl Suppressions {
    /// Registers the inline directives of one scanned file
    /// (`lexed.allows`: one `(line, rule)` pair per rule named).
    pub fn add_file(&mut self, file: &str, allows: &[(u32, String)]) {
        for (line, rule) in allows {
            self.inline.push(InlineAllow {
                file: file.to_string(),
                line: *line,
                rule: rule.clone(),
                used: false,
            });
        }
    }

    /// Drops every finding an inline allow covers, marking each allow
    /// that matches.
    pub fn filter(&mut self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| {
                let mut suppressed = false;
                for a in &mut self.inline {
                    if a.rule == d.rule
                        && a.file == d.file
                        && (a.line == d.line || a.line + 1 == d.line)
                    {
                        a.used = true;
                        suppressed = true;
                    }
                }
                !suppressed
            })
            .collect()
    }

    /// The audit: one `unused-allow` finding per allow that fired on
    /// nothing. Call after *all* findings went through [`filter`].
    pub fn unused(&self) -> Vec<Diagnostic> {
        self.inline
            .iter()
            .filter(|a| !a.used)
            .map(|a| {
                Diagnostic::new(
                    &a.file,
                    a.line,
                    1,
                    "unused-allow",
                    format!(
                        "inline `simlint: allow({})` suppresses nothing — no `{}` finding on \
                         this line or the next",
                        a.rule, a.rule
                    ),
                    "the invariant is already met here: delete the directive (or fix the rule id)",
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, rule: &str) -> Diagnostic {
        Diagnostic::new(file, line, 1, rule, "m", "h")
    }

    #[test]
    fn inline_allow_covers_same_and_next_line() {
        let mut s = Suppressions::default();
        s.add_file("a.rs", &[(5, "cast-truncation".into())]);
        let kept = s.filter(vec![
            diag("a.rs", 5, "cast-truncation"),
            diag("a.rs", 6, "cast-truncation"),
            diag("a.rs", 7, "cast-truncation"),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 7);
        assert!(s.unused().is_empty());
    }

    #[test]
    fn wrong_rule_does_not_suppress_and_is_unused() {
        let mut s = Suppressions::default();
        s.add_file("a.rs", &[(5, "hot-path-alloc".into())]);
        let kept = s.filter(vec![diag("a.rs", 5, "cast-truncation")]);
        assert_eq!(kept.len(), 1);
        let unused = s.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "unused-allow");
        assert_eq!(unused[0].file, "a.rs");
        assert_eq!(unused[0].line, 5);
    }
}
