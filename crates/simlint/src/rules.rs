//! The token-local lint rules.
//!
//! Two families remain expressed directly over the token stream:
//!
//! * **Determinism** (`hash-collections`, `wall-clock`, `ambient-rng`,
//!   `env-read`) — a simulation whose output depends on hasher seeds,
//!   wall-clock reads, ambient randomness, or the process environment is
//!   not reproducible, and reproducibility is the core claim the
//!   regression tests in this workspace assert (bit-identical reruns).
//! * **Cast safety** (`cast-truncation`) — `expr as u8/u16/u32` silently
//!   truncates. Widening casts should spell `u32::from(x)`; intentional
//!   truncation carries an inline allow naming the invariant that bounds
//!   the value.
//!
//! The hot-path family moved to [`crate::hotpath`], which checks whole
//! call trees over the [`crate::graph`] instead of single bodies.
//! Findings are emitted *raw* — suppression (inline and file-level) is applied centrally by
//! [`crate::suppress`], which is what lets stale allows be audited.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// Which token-local rule families apply to a file.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Determinism rules (sim crates — including their tests: a flaky
    /// test is as non-reproducible as a flaky simulation). Off in
    /// `[scan] relaxed` crates.
    pub determinism: bool,
    /// Cast rule (sim crates, excluding `tests/` files and
    /// `#[cfg(test)]` modules: test scaffolding counters are not packet
    /// counters).
    pub cast: bool,
}

/// Lints one file's token stream. `rel` is the workspace-relative path
/// used in diagnostics. Returns unsuppressed findings in token order.
pub fn check_tokens(rel: &str, toks: &[Tok], class: FileClass) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut emit = |d: Diagnostic| diags.push(d);
    if class.determinism {
        determinism_pass(rel, toks, &mut emit);
    }
    if class.cast {
        let skip = test_mod_ranges(toks);
        cast_pass(rel, toks, &skip, &mut emit);
    }
    diags
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// `toks[i] :: toks[i+3]` — whether a `::` separates token `i` from the
/// ident two puncts later, returning that ident.
fn path_seg(toks: &[Tok], i: usize) -> Option<&str> {
    if punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
        ident_at(toks, i + 3)
    } else {
        None
    }
}

const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "DefaultHasher", "RandomState"];
const ENV_READS: [&str; 8] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "temp_dir",
    "current_dir",
];

fn determinism_pass(rel: &str, toks: &[Tok], emit: &mut impl FnMut(Diagnostic)) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if HASH_TYPES.contains(&name) {
            emit(Diagnostic::new(
                rel,
                t.line,
                t.col,
                "hash-collections",
                format!("`{name}` iterates in hasher-seed order, which varies between runs"),
                "use BTreeMap/BTreeSet (deterministic order) or key by a dense index",
            ));
        } else if (name == "Instant" || name == "SystemTime") && path_seg(toks, i) == Some("now") {
            emit(Diagnostic::new(
                rel,
                t.line,
                t.col,
                "wall-clock",
                format!("`{name}::now()` reads the wall clock inside a simulation crate"),
                "derive time from the event queue (`EventQueue::now`) or take `Ns` as a parameter",
            ));
        } else if name == "thread_rng" || name == "OsRng" || name == "from_entropy" {
            emit(Diagnostic::new(
                rel,
                t.line,
                t.col,
                "ambient-rng",
                format!("`{name}` draws entropy from the OS, so reruns diverge"),
                "use `SimRng::new(seed)` (SplitMix64) and fork substreams with `SimRng::fork`",
            ));
        } else if name == "rand" && path_seg(toks, i) == Some("random") {
            emit(Diagnostic::new(
                rel,
                t.line,
                t.col,
                "ambient-rng",
                "`rand::random()` draws entropy from the OS, so reruns diverge",
                "use `SimRng::new(seed)` (SplitMix64) and fork substreams with `SimRng::fork`",
            ));
        } else if name == "env" {
            if let Some(call) = path_seg(toks, i) {
                if ENV_READS.contains(&call) {
                    emit(Diagnostic::new(
                        rel,
                        t.line,
                        t.col,
                        "env-read",
                        format!("`env::{call}` makes behaviour depend on the ambient environment"),
                        "thread configuration through explicit config structs instead",
                    ));
                }
            }
        }
    }
}

const NARROW_TARGETS: [&str; 3] = ["u8", "u16", "u32"];

fn cast_pass(rel: &str, toks: &[Tok], skip: &[(usize, usize)], emit: &mut impl FnMut(Diagnostic)) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        if skip.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let Some(target) = ident_at(toks, i + 1) else {
            continue;
        };
        if !NARROW_TARGETS.contains(&target) {
            continue;
        }
        // `use foo as u8` cannot occur (keywords); `'x' as u8` and
        // `enum as u8` discriminant reads are real casts and still lossy
        // claims worth an explicit allow.
        emit(Diagnostic::new(
            rel,
            t.line,
            t.col,
            "cast-truncation",
            format!("`as {target}` silently truncates wider values"),
            format!(
                "widening: use `{target}::from(..)`; fallible: `{target}::try_from(..)`; \
                 intentional: add `// simlint: allow(cast-truncation): <bounding invariant>`"
            ),
        ));
    }
}

/// Token ranges of `#[cfg(test)] mod … { … }` bodies.
fn test_mod_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("cfg")
            && punct_at(toks, i + 3, '(')
            && ident_at(toks, i + 4) == Some("test")
            && punct_at(toks, i + 5, ')')
            && punct_at(toks, i + 6, ']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes between the cfg and the item.
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            j = match matching(toks, j + 1, '[', ']') {
                Some(end) => end + 1,
                None => return out,
            };
        }
        if ident_at(toks, j) == Some("mod") {
            if let Some(open) = (j..toks.len()).find(|&k| punct_at(toks, k, '{')) {
                if let Some(close) = matching(toks, open, '{', '}') {
                    out.push((open, close + 1));
                    i = close + 1;
                    continue;
                }
            }
        }
        i = j;
    }
    out
}

/// Index of the token closing the bracket opened at `open`.
fn matching(toks: &[Tok], open: usize, op: char, cl: char) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(op) {
            depth += 1;
        } else if t.is_punct(cl) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, class: FileClass) -> Vec<Diagnostic> {
        check_tokens("test.rs", &lex(src).toks, class)
    }

    fn all() -> FileClass {
        FileClass {
            determinism: true,
            cast: true,
        }
    }

    #[test]
    fn wall_clock_and_rng_are_flagged() {
        let d = run(
            "fn f() { let t = Instant::now(); let r = thread_rng(); }",
            all(),
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[1].rule, "ambient-rng");
    }

    #[test]
    fn cfg_test_mod_exempts_casts_not_determinism() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn f(x: u64) -> u32 { x as u32 }\n\
                   fn g() { let m: HashMap<u8, u8> = HashMap::new(); let _ = m; }\n\
                   }";
        let d = run(src, all());
        assert!(d.iter().all(|d| d.rule == "hash-collections"), "{d:?}");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn relaxed_class_skips_determinism_and_cast() {
        let src = "fn f(x: u64) -> u32 { let t = Instant::now(); x as u32 }";
        let d = run(
            src,
            FileClass {
                determinism: false,
                cast: false,
            },
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn findings_are_emitted_raw_even_with_inline_allow() {
        // Suppression is the suppress module's job now; the pass itself
        // must keep emitting so the audit can see what an allow covers.
        let src = "// simlint: allow(wall-clock): bench harness\nlet t = Instant::now();";
        let d = run(src, all());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "wall-clock");
    }

    #[test]
    fn as_u64_is_not_flagged() {
        let d = run("fn f(x: u32) -> u64 { x as u64 }", all());
        assert!(d.is_empty(), "{d:?}");
    }
}
