//! The token-local lint rule: **cast safety** (`cast-truncation`).
//!
//! `expr as u8/u16/u32` silently truncates. Widening casts should spell
//! `u32::from(x)`; intentional truncation carries an inline allow naming
//! the invariant that bounds the value.
//!
//! The hot-path family lives in [`crate::hotpath`], which checks whole
//! call trees over the [`crate::graph`]; the determinism bans are
//! clippy's (`clippy.toml`). Findings are emitted *raw* — suppression is
//! applied centrally by [`crate::suppress`], which is what lets stale
//! allows be audited.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

const NARROW_TARGETS: [&str; 3] = ["u8", "u16", "u32"];

/// Lints one file's token stream for truncating casts outside
/// `#[cfg(test)]` modules. `rel` is the workspace-relative path used in
/// diagnostics. Returns unsuppressed findings in token order.
pub fn check_casts(rel: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    let skip = test_mod_ranges(toks);
    let mut diags = Vec::new();
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
        diags.push(Diagnostic::new(
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
    diags
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

    fn run(src: &str) -> Vec<Diagnostic> {
        check_casts("test.rs", &lex(src).toks)
    }

    /// `#[cfg(test)]` code is exempt from the cast rule only; clippy's
    /// determinism bans cover it like any other code.
    #[test]
    fn cfg_test_mod_exempts_casts_not_determinism() {
        let src = "fn s(x: u64) -> u16 { x as u16 }
#[cfg(test)]
mod tests {
                   fn f(x: u64) -> u32 { x as u32 }
                   }";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn findings_are_emitted_raw_even_with_inline_allow() {
        // Suppression is the suppress module's job; the pass itself must
        // keep emitting so the audit can see what an allow covers.
        let src = "// simlint: allow(cast-truncation): bounded
let t = x as u8;";
        let d = run(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "cast-truncation");
    }

    #[test]
    fn as_u64_is_not_flagged() {
        let d = run("fn f(x: u32) -> u64 { x as u64 }");
        assert!(d.is_empty(), "{d:?}");
    }
}
