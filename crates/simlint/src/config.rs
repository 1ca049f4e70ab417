//! `simlint.toml` — the checked-in configuration driving the analysis.
//!
//! The parser understands exactly the TOML subset the config needs
//! (tables, string values, possibly-multiline string arrays, comments) so
//! the workspace stays dependency-free. Anything else is a hard error:
//! a lint config that half-parses is worse than one that refuses to.
//!
//! ```toml
//! [scan]
//! crates = ["crates/dcsim", "crates/millisampler"]
//!
//! [hotpath]
//! functions = ["TcFilter::record"]
//! ```

/// Parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Workspace-relative crate directories to scan.
    pub crates: Vec<String>,
    /// Path prefixes skipped entirely (lint-pass fixture sources).
    pub exclude: Vec<String>,
    /// `Type::function` names whose bodies must obey the hot-path rules.
    pub hot_functions: Vec<String>,
    /// Hot functions exempt from `hot-path-block` because blocking is
    /// their documented contract (`ShardQueue::next` parks on its
    /// deque by design).
    pub may_block: Vec<String>,
    /// `Type::function` event-queue insertion points checked by the
    /// time-monotonicity pass (matched by method name at call sites).
    pub monotonic_sinks: Vec<String>,
}

impl Config {
    /// Parses the TOML subset. Returns a message naming the offending line
    /// on error.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut table = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                table = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", idx + 1));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // A `[` that doesn't close on this line starts a multiline
            // array: keep consuming lines until the closing bracket.
            while value.starts_with('[') && !value.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {}: unterminated array", idx + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            let values = parse_value(&value).map_err(|e| format!("line {}: {e}", idx + 1))?;
            match (table.as_str(), key) {
                ("scan", "crates") => cfg.crates = values,
                ("scan", "exclude") => cfg.exclude = values,
                ("hotpath", "functions") => cfg.hot_functions = values,
                ("hotpath", "may_block") => cfg.may_block = values,
                ("monotonic", "sinks") => cfg.monotonic_sinks = values,
                _ => {
                    return Err(format!(
                        "line {}: unknown key `{key}` in table `[{table}]`",
                        idx + 1
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Loads and parses a config file.
    pub fn from_file(path: &std::path::Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Whether `path` (workspace-relative) is under an excluded prefix.
    pub fn excluded(&self, path: &str) -> bool {
        self.exclude
            .iter()
            .any(|e| path == e || path.starts_with(&format!("{}/", e.trim_end_matches('/'))))
    }
}

/// Strips a `#` comment — but not a `#` inside a string value.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"str"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = value.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut out = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push(parse_string(part)?);
        }
        Ok(out)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

/// Splits an array body on commas that are outside string quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

fn parse_string(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
[scan]
crates = ["crates/dcsim", "crates/millisampler"] # trailing comment

[hotpath]
functions = [
    "TcFilter::record",
    "EventQueue::pop",
]

[monotonic]
sinks = ["EventQueue::schedule", "DrainSlot::pulled"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.crates, ["crates/dcsim", "crates/millisampler"]);
        assert_eq!(cfg.hot_functions, ["TcFilter::record", "EventQueue::pop"]);
        assert_eq!(
            cfg.monotonic_sinks,
            ["EventQueue::schedule", "DrainSlot::pulled"]
        );
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Config::parse("[scan]\nfoo = \"bar\"\n").is_err());
        // The float pass is gone; a config still listing its roots
        // fails at that line rather than being half-read.
        assert_eq!(
            Config::parse("[scan]\ncrates = [\"a\"]\n[float]\nroots = [\"Q::schedule\"]\n")
                .unwrap_err(),
            "line 4: unknown key `roots` in table `[float]`"
        );
    }

    /// File-level allows are gone: an `[allow]` entry, well-formed or
    /// not, fails at its line instead of silencing a file.
    #[test]
    fn rejects_malformed_allow_entries() {
        for entry in ["no-path", "cast-truncation crates/a/src/lib.rs"] {
            assert_eq!(
                Config::parse(&format!("[allow]\nrules = [\"{entry}\"]\n")).unwrap_err(),
                "line 2: unknown key `rules` in table `[allow]`"
            );
        }
    }

    #[test]
    fn rejects_unquoted_values() {
        assert!(Config::parse("[scan]\ncrates = [bare]\n").is_err());
    }

    #[test]
    fn hash_inside_string_survives() {
        let cfg = Config::parse("[scan]\nexclude = [\"a/b#c.rs\"] # comment\n").unwrap();
        assert_eq!(cfg.exclude, ["a/b#c.rs"]);
    }

    /// Every crate gets every pass: a `relaxed` list is rejected at its
    /// line rather than read.
    #[test]
    fn scan_relaxed_exclude_and_may_block() {
        let cfg = Config::parse(
            "[scan]\ncrates = [\"crates/a\", \"crates/bench\"]\n\
             exclude = [\"crates/a/tests/fixtures\"]\n\
             [hotpath]\nfunctions = [\"Q::next\"]\nmay_block = [\"Q::next\"]\n",
        )
        .unwrap();
        assert_eq!(
            Config::parse("[scan]\nrelaxed = [\"crates/bench\"]\n").unwrap_err(),
            "line 2: unknown key `relaxed` in table `[scan]`"
        );
        assert!(cfg.excluded("crates/a/tests/fixtures/x.rs"));
        assert!(!cfg.excluded("crates/a/tests/fixtures_other.rs"));
        assert_eq!(cfg.may_block, ["Q::next"]);
    }

    /// The PDES-readiness tables are gone: a config that still carries
    /// one must fail at its line, not be half-read.
    #[test]
    fn stale_pdes_tables_are_rejected_by_line() {
        for (text, err) in [
            (
                "[scan]\ncrates = [\"a\"]\n[lp]\nstate = \"RackSim\"\n",
                "line 4: unknown key `state` in table `[lp]`",
            ),
            (
                "[channels]\ndeclare = [\"r run_pool::tx run_pool::rx mpsc\"]\n",
                "line 2: unknown key `declare` in table `[channels]`",
            ),
            (
                "[monotonic]\nsinks = [\"Q::schedule\"]\n\
                 boundaries = [\"S::f SwArrive FABRIC_DELAY\"]\n",
                "line 3: unknown key `boundaries` in table `[monotonic]`",
            ),
        ] {
            assert_eq!(Config::parse(text).unwrap_err(), err);
        }
    }
}
