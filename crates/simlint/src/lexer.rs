//! A minimal Rust lexer — just enough structure for token-pattern lints.
//!
//! The lexer deliberately does *not* build an AST. Every rule simlint
//! enforces is expressible over the token stream plus brace matching, and
//! a hand-rolled tokenizer keeps the workspace dependency-free (no `syn`,
//! no `proc-macro2`). What it must get right, it does get right:
//!
//! * comments (line, nested block) are skipped — but line comments are
//!   scanned for `simlint: allow(rule-id)` suppression directives;
//! * string/char literals (including raw strings `r#"…"#`, byte strings,
//!   and raw identifiers `r#type`) never leak tokens;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`).

/// What kind of token this is. Rules match on idents and punctuation;
/// literals and lifetimes exist only so they cannot be mistaken for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `as`, `HashMap`, …).
    Ident,
    /// A single punctuation character (`:`, `!`, `{`, …).
    Punct,
    /// String, char, byte, or numeric literal.
    Literal,
    /// A lifetime such as `'a` (not a char literal).
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// The result of lexing one file: the token stream plus every inline
/// suppression directive found in line comments, as `(line, rule-id)`.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub allows: Vec<(u32, String)>,
}

/// Extracts rule ids from a `simlint: allow(a, b): reason` comment body.
///
/// The directive must *start* the comment (after the `//`/`///`/`//!`
/// marker and whitespace). Anchoring matters: simlint's own docs and
/// the DESIGN chapter *mention* the directive syntax mid-sentence, and
/// a substring match would turn each mention into a live suppression —
/// which the unused-allow audit would then (correctly) flag.
fn parse_allow_directive(comment: &str, line: u32, out: &mut Vec<(u32, String)>) {
    let body = comment.trim_start_matches(['/', '!']).trim_start();
    let Some(rest) = body.strip_prefix("simlint: allow(") else {
        return;
    };
    let Some(close) = rest.find(')') else {
        return;
    };
    for rule in rest[..close].split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            out.push((line, rule.to_string()));
        }
    }
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Never fails: unrecognized bytes become punctuation and
/// unterminated literals simply run to end-of-file — a linter must degrade
/// gracefully on code that `rustc` itself would reject.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
        } else if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            parse_allow_directive(&text, line, &mut out.allows);
        } else if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
        } else if c == '"' {
            lex_string(&mut cur);
            push(&mut out, TokKind::Literal, "\"…\"", line, col);
        } else if c == 'r' && matches!(cur.peek(1), Some('"' | '#')) {
            lex_maybe_raw(&mut cur, &mut out, line, col);
        } else if c == 'b' && cur.peek(1) == Some('"') {
            cur.bump();
            lex_string(&mut cur);
            push(&mut out, TokKind::Literal, "b\"…\"", line, col);
        } else if c == 'b' && cur.peek(1) == Some('r') && matches!(cur.peek(2), Some('"' | '#')) {
            cur.bump();
            lex_raw_string(&mut cur);
            push(&mut out, TokKind::Literal, "br\"…\"", line, col);
        } else if c == '\'' {
            lex_quote(&mut cur, &mut out, line, col);
        } else if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if is_ident_continue(ch) {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            push(&mut out, TokKind::Literal, &text, line, col);
        } else if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if is_ident_continue(ch) {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            push(&mut out, TokKind::Ident, &text, line, col);
        } else {
            cur.bump();
            push(&mut out, TokKind::Punct, &c.to_string(), line, col);
        }
    }
    out
}

fn push(out: &mut Lexed, kind: TokKind, text: &str, line: u32, col: u32) {
    out.toks.push(Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    });
}

/// Consumes a `"…"` string starting at the opening quote.
fn lex_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string `r"…"` / `r#"…"#` starting at the `r`.
fn lex_raw_string(cur: &mut Cursor) {
    cur.bump(); // the `r`
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    loop {
        match cur.bump() {
            Some('"') => {
                let mut seen = 0usize;
                while seen < hashes && cur.peek(0) == Some('#') {
                    seen += 1;
                    cur.bump();
                }
                if seen == hashes {
                    break;
                }
            }
            Some(_) => {}
            None => break,
        }
    }
}

/// At an `r` followed by `"` or `#`: raw string, or raw identifier
/// (`r#type`).
fn lex_maybe_raw(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    if cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
        cur.bump(); // r
        cur.bump(); // #
        let mut text = String::new();
        while let Some(ch) = cur.peek(0) {
            if is_ident_continue(ch) {
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        }
        push(out, TokKind::Ident, &text, line, col);
    } else {
        lex_raw_string(cur);
        push(out, TokKind::Literal, "r\"…\"", line, col);
    }
}

/// At a `'`: char literal (`'a'`, `'\n'`) or lifetime (`'a`, `'static`).
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume to the closing quote.
            while let Some(ch) = cur.bump() {
                if ch == '\\' {
                    cur.bump();
                } else if ch == '\'' {
                    break;
                }
            }
            push(out, TokKind::Literal, "'…'", line, col);
        }
        Some(_) if cur.peek(1) == Some('\'') => {
            cur.bump();
            cur.bump();
            push(out, TokKind::Literal, "'…'", line, col);
        }
        _ => {
            let mut text = String::from("'");
            while let Some(ch) = cur.peek(0) {
                if is_ident_continue(ch) {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            push(out, TokKind::Lifetime, &text, line, col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_puncts() {
        let l = lex("fn main() { x.unwrap(); }");
        let idents: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "main", "x", "unwrap"]);
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let l = lex("let s = \"HashMap\"; // HashMap\n/* HashMap */ let t = 1;");
        assert!(l.toks.iter().all(|t| !t.is_ident("HashMap")));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex("let x = r#\"Box::new(1)\"#; let r#as = 1;");
        assert!(!l.toks.iter().any(|t| t.is_ident("Box")));
        assert!(l.toks.iter().any(|t| t.is_ident("as")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        let chars = l.toks.iter().filter(|t| t.text == "'…'").count();
        assert_eq!(chars, 1);
    }

    #[test]
    fn allow_directives_are_collected() {
        let l = lex("let a = 1;\nlet b = x as u32; // simlint: allow(cast-truncation): bounded\n");
        assert_eq!(l.allows, vec![(2, "cast-truncation".to_string())]);
    }

    #[test]
    fn multi_rule_allow() {
        let l = lex("// simlint: allow(hot-path-alloc, cast-truncation): setup path\n");
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].1, "hot-path-alloc");
        assert_eq!(l.allows[1].1, "cast-truncation");
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  bb");
        assert_eq!((l.toks[0].line, l.toks[0].col), (1, 1));
        assert_eq!((l.toks[1].line, l.toks[1].col), (2, 3));
    }

    #[test]
    fn nested_block_comments_emit_no_false_tokens() {
        let src = "/* outer /* HashMap inner */ Box::new(1) still comment */ let x = 1;";
        let l = lex(src);
        assert!(
            l.toks.iter().all(|t| !t.is_ident("HashMap")),
            "{:?}",
            l.toks
        );
        assert!(l.toks.iter().all(|t| !t.is_ident("Box")), "{:?}", l.toks);
        // Columns resume correctly after the comment.
        let let_tok = l.toks.iter().find(|t| t.is_ident("let")).unwrap();
        assert_eq!(let_tok.line, 1);
        assert_eq!(let_tok.col as usize, src.find("let").unwrap() + 1);
    }

    #[test]
    fn raw_strings_with_hashes_emit_no_false_tokens() {
        // A raw string containing both a quote and lint-relevant idents:
        // nothing inside may become a token, and lexing continues after
        // the matching `"#` (not at the inner quote).
        let l = lex("let s = r#\"a \" quote, HashMap::new() and thread_rng()\"#; let y = 2;");
        assert!(
            l.toks.iter().all(|t| !t.is_ident("HashMap")),
            "{:?}",
            l.toks
        );
        assert!(l.toks.iter().all(|t| !t.is_ident("thread_rng")));
        assert!(l.toks.iter().any(|t| t.is_ident("y")));
        // Multi-hash raw strings terminate on their own delimiter.
        let l2 = lex("let s = r##\"inner \"# not the end\"##; let z = 3;");
        assert!(l2.toks.iter().any(|t| t.is_ident("z")), "{:?}", l2.toks);
        assert!(!l2.toks.iter().any(|t| t.is_ident("end")));
    }

    #[test]
    fn allow_directive_must_start_the_comment() {
        // Mid-comment mentions (docs quoting the syntax) are not
        // directives...
        let l = lex("// use a `// simlint: allow(cast-truncation): reason` comment\n");
        assert!(l.allows.is_empty(), "{:?}", l.allows);
        // ...but the doc-comment markers and leading whitespace are.
        let l2 = lex("///  simlint: allow(hot-path-panic): doc-comment directive\n");
        assert_eq!(l2.allows, vec![(1, "hot-path-panic".to_string())]);
        let l3 = lex("//! simlint: allow(cast-truncation): module-doc directive\n");
        assert_eq!(l3.allows, vec![(1, "cast-truncation".to_string())]);
    }

    #[test]
    fn every_token_carries_line_and_column() {
        let l = lex("fn f() {\n    x.unwrap();\n}");
        let unwrap = l.toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
        assert!(l.toks.iter().all(|t| t.line >= 1 && t.col >= 1));
    }
}
