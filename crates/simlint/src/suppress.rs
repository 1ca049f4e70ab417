//! Centralized suppression — and the audit that keeps it honest.
//!
//! v1 filtered findings inside each pass, which made it impossible to
//! know whether an `allow` still did anything. v2 inverts the flow:
//! every pass emits its findings unconditionally, and this module
//! applies the two suppression levels in one place while tracking which
//! allows actually fired. An allow that suppresses nothing is dead
//! weight at best and a silently-disabled invariant at worst (the rule
//! may have been renamed, or the offending code deleted), so each one
//! becomes an `unused-allow` finding pointing at the directive itself.
//!
//! `unused-allow` is deliberately not suppressible by allows — an allow
//! excusing another allow converges nowhere.

use crate::config::Config;
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

#[derive(Debug)]
struct FileAllowState {
    rule: String,
    path: String,
    cfg_line: u32,
    used: bool,
}

/// Collects directives during the scan, filters findings, then reports
/// the allows that never fired.
#[derive(Debug, Default)]
pub struct Suppressions {
    inline: Vec<InlineAllow>,
    file_level: Vec<FileAllowState>,
}

impl Suppressions {
    pub fn new(cfg: &Config) -> Suppressions {
        Suppressions {
            inline: Vec::new(),
            file_level: cfg
                .allow
                .iter()
                .map(|a| FileAllowState {
                    rule: a.rule.clone(),
                    path: a.path.clone(),
                    cfg_line: a.line,
                    used: false,
                })
                .collect(),
        }
    }

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

    /// Applies both suppression levels, marking every allow that
    /// matches. A finding suppressed by an inline *and* a file-level
    /// allow marks both — each genuinely covers it.
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
                for a in &mut self.file_level {
                    if a.rule == d.rule && a.path == d.file {
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
        let mut out = Vec::new();
        for a in self.inline.iter().filter(|a| !a.used) {
            out.push(Diagnostic::new(
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
            ));
        }
        for a in self.file_level.iter().filter(|a| !a.used) {
            out.push(Diagnostic::new(
                "simlint.toml",
                a.cfg_line,
                1,
                "unused-allow",
                format!(
                    "file-level allow `{} {}` matches no finding",
                    a.rule, a.path
                ),
                "the file is already clean for this rule: delete the [allow] entry",
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileAllow;

    fn diag(file: &str, line: u32, rule: &str) -> Diagnostic {
        Diagnostic::new(file, line, 1, rule, "m", "h")
    }

    #[test]
    fn inline_allow_covers_same_and_next_line() {
        let mut s = Suppressions::new(&Config::default());
        s.add_file("a.rs", &[(5, "wall-clock".into())]);
        let kept = s.filter(vec![
            diag("a.rs", 5, "wall-clock"),
            diag("a.rs", 6, "wall-clock"),
            diag("a.rs", 7, "wall-clock"),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 7);
        assert!(s.unused().is_empty());
    }

    #[test]
    fn wrong_rule_does_not_suppress_and_is_unused() {
        let mut s = Suppressions::new(&Config::default());
        s.add_file("a.rs", &[(5, "env-read".into())]);
        let kept = s.filter(vec![diag("a.rs", 5, "wall-clock")]);
        assert_eq!(kept.len(), 1);
        let unused = s.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "unused-allow");
        assert_eq!(unused[0].file, "a.rs");
        assert_eq!(unused[0].line, 5);
    }

    #[test]
    fn file_level_allow_suppresses_and_tracks() {
        let cfg = Config {
            allow: vec![FileAllow {
                rule: "cast-truncation".into(),
                path: "a.rs".into(),
                line: 12,
            }],
            ..Config::default()
        };
        let mut s = Suppressions::new(&cfg);
        let kept = s.filter(vec![diag("a.rs", 3, "cast-truncation")]);
        assert!(kept.is_empty());
        assert!(s.unused().is_empty());
    }

    #[test]
    fn stale_file_level_allow_is_flagged_at_config_line() {
        let cfg = Config {
            allow: vec![FileAllow {
                rule: "cast-truncation".into(),
                path: "gone.rs".into(),
                line: 12,
            }],
            ..Config::default()
        };
        let mut s = Suppressions::new(&cfg);
        let kept = s.filter(vec![diag("a.rs", 3, "cast-truncation")]);
        assert_eq!(kept.len(), 1);
        let unused = s.unused();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].file, "simlint.toml");
        assert_eq!(unused[0].line, 12);
    }

    #[test]
    fn both_levels_marked_when_both_match() {
        let cfg = Config {
            allow: vec![FileAllow {
                rule: "wall-clock".into(),
                path: "a.rs".into(),
                line: 1,
            }],
            ..Config::default()
        };
        let mut s = Suppressions::new(&cfg);
        s.add_file("a.rs", &[(5, "wall-clock".into())]);
        let kept = s.filter(vec![diag("a.rs", 5, "wall-clock")]);
        assert!(kept.is_empty());
        assert!(s.unused().is_empty());
    }
}
