//! A hand-rolled recursive-descent parser over the [`crate::lexer`]
//! token stream.
//!
//! It produces just enough structure for *interprocedural* analysis —
//! items (impl/trait/mod/fn), function signatures, and bodies as
//! statement/expression trees — while staying dependency-free (no
//! `syn`). It is deliberately permissive: code that `rustc` would
//! reject still parses into *something*, because a linter must degrade
//! gracefully, and constructs it does not model (patterns, operators,
//! types) are skipped rather than rejected.
//!
//! What the tree preserves, because the passes need it:
//!
//! * every function definition with its impl/trait self type;
//! * call sites, classified as free calls (`f(..)`), path calls
//!   (`Ty::f(..)`), or method calls (`recv.f(..)`) with a normalized
//!   receiver text (`self.deques[_]`), so `self.m()` resolves against
//!   the impl type;
//! * macro invocations (`panic!`, `vec!`, …), including those in nested
//!   blocks;
//! * `#[cfg(test)]` / `#[test]` containment, so test-only code can be
//!   classified.

use crate::lexer::{Tok, TokKind};

/// One parsed source file: every function found, in source order,
/// including nested and test functions.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
}

/// A function definition (free, inherent method, trait method, or
/// trait default method).
#[derive(Debug)]
pub struct FnDef {
    /// The `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// The bare function name.
    pub name: String,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    pub col: u32,
    /// Whether the function sits inside `#[cfg(test)]` or carries
    /// `#[test]`.
    pub in_cfg_test: bool,
    pub body: Block,
    /// Token-index span `[start, end)` of the body within the file's
    /// token stream, `(0, 0)` for bodyless signatures. The monotonic
    /// pass re-walks this range — the statement tree drops operators
    /// and literals.
    pub body_range: (usize, usize),
}

impl FnDef {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `{ … }` body: statements in order.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One statement: whether it opens with a control keyword, and its
/// interesting nodes in evaluation order.
#[derive(Debug, Default)]
pub struct Stmt {
    /// Starts with `if`/`match`/`while`/`for`/`loop`/`unsafe` — such a
    /// statement may end at a closing brace without a semicolon.
    pub control: bool,
    pub nodes: Vec<Node>,
}

/// An interesting event inside a statement.
#[derive(Debug)]
pub enum Node {
    Call(CallSite),
    Macro(MacroSite),
    Block(Block),
}

/// How a call names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `f(..)`.
    Free,
    /// `qual::f(..)` — `qual` is the path segment directly before the
    /// name (`Box` in `Box::new`, `codec` in `codec::put_varint`).
    Path { qual: String },
    /// `recv.f(..)` — `recv` is the normalized receiver text with
    /// index expressions collapsed to `[_]` (`self.deques[_]`).
    Method { recv: String },
}

/// One call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// One macro invocation (`name!(..)` / `name![..]` / `name!{..}`).
#[derive(Debug, Clone)]
pub struct MacroSite {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// Parses one file's token stream.
pub fn parse_file(toks: &[Tok]) -> ParsedFile {
    let mut p = Parser {
        toks,
        out: ParsedFile::default(),
    };
    p.items(0, toks.len(), None, false);
    p.out
}

struct Parser<'t> {
    toks: &'t [Tok],
    out: ParsedFile,
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
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

/// Skips a balanced `<…>` starting at `open`, returning the index after
/// it. `->` arrows do not count as closing angles.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

const CONTROL_KEYWORDS: [&str; 6] = ["if", "match", "while", "for", "loop", "unsafe"];

/// Keywords that can never start or continue a call chain.
const NON_CHAIN_KEYWORDS: [&str; 16] = [
    "if", "else", "match", "while", "for", "loop", "unsafe", "return", "break", "continue", "in",
    "as", "ref", "move", "let", "await",
];

impl Parser<'_> {
    /// Parses items in `[i, end)` under the given impl/trait self type
    /// and test containment.
    fn items(&mut self, mut i: usize, end: usize, self_ty: Option<&str>, in_test: bool) {
        let mut attr = String::new();
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('#') && punct_at(self.toks, i + 1, '[') {
                let close = matching(self.toks, i + 1, '[', ']').unwrap_or(end);
                for k in i + 2..close.min(end) {
                    if self.toks[k].kind == TokKind::Ident {
                        attr.push_str(&self.toks[k].text);
                        attr.push(' ');
                    }
                }
                i = close + 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let attr_test = attr.contains("cfg test ") || attr.starts_with("test ");
            match t.text.as_str() {
                "impl" => {
                    let (ty, open) = self.impl_self_ty(i, end);
                    match open.and_then(|o| matching(self.toks, o, '{', '}')) {
                        Some(close) => {
                            let o = open.unwrap_or(i);
                            self.items(o + 1, close, Some(&ty), in_test || attr_test);
                            i = close + 1;
                        }
                        None => i += 1,
                    }
                }
                "trait" => {
                    let name = ident_at(self.toks, i + 1).unwrap_or("").to_string();
                    match self.find_body_open(i + 1, end) {
                        Some(open) => match matching(self.toks, open, '{', '}') {
                            Some(close) => {
                                self.items(open + 1, close, Some(&name), in_test || attr_test);
                                i = close + 1;
                            }
                            None => i += 1,
                        },
                        None => i += 1,
                    }
                }
                "mod" => match self.find_body_open(i + 1, end) {
                    Some(open) if !self.semicolon_before(i + 1, open) => {
                        match matching(self.toks, open, '{', '}') {
                            Some(close) => {
                                self.items(open + 1, close, self_ty, in_test || attr_test);
                                i = close + 1;
                            }
                            None => i += 1,
                        }
                    }
                    _ => i = self.skip_to_semicolon(i + 1, end),
                },
                "fn" => i = self.function(i, end, self_ty, in_test || attr_test),
                "struct" | "enum" | "union" => {
                    // Skip to the end of the item: `{…}` body, `(..);`
                    // tuple struct, or a bare `;`.
                    let mut j = i + 1;
                    while j < end {
                        if punct_at(self.toks, j, '{') {
                            j = matching(self.toks, j, '{', '}').map_or(end, |c| c + 1);
                            break;
                        }
                        if punct_at(self.toks, j, ';') {
                            j += 1;
                            break;
                        }
                        if punct_at(self.toks, j, '<') {
                            j = skip_angles(self.toks, j);
                            continue;
                        }
                        j += 1;
                    }
                    i = j;
                }
                "macro_rules" => {
                    // `macro_rules! name { … }`
                    let mut j = i + 1;
                    while j < end && !punct_at(self.toks, j, '{') {
                        j += 1;
                    }
                    i = matching(self.toks, j, '{', '}').map_or(end, |c| c + 1);
                }
                _ => {
                    i += 1;
                    // Visibility and other modifiers keep the pending
                    // attribute alive for the item they precede.
                    if matches!(
                        t.text.as_str(),
                        "pub" | "crate" | "async" | "const" | "default"
                    ) {
                        continue;
                    }
                }
            }
            attr.clear();
        }
    }

    /// Whether a `;` occurs strictly before `open` (a `mod name;`
    /// declaration rather than an inline module).
    fn semicolon_before(&self, from: usize, open: usize) -> bool {
        (from..open).any(|k| punct_at(self.toks, k, ';'))
    }

    /// Index just past the next `;` (or `end`).
    fn skip_to_semicolon(&self, from: usize, end: usize) -> usize {
        let mut j = from;
        while j < end && !punct_at(self.toks, j, ';') {
            j += 1;
        }
        (j + 1).min(end)
    }

    /// `impl [<..>] [Trait for] Type [<..>] [where ..] {` — returns the
    /// self type name and the index of the opening brace.
    fn impl_self_ty(&self, i: usize, end: usize) -> (String, Option<usize>) {
        let mut j = i + 1;
        if punct_at(self.toks, j, '<') {
            j = skip_angles(self.toks, j);
        }
        let mut ty = String::new();
        let mut angle = 0i64;
        let mut in_where = false;
        while j < end && !(angle == 0 && punct_at(self.toks, j, '{')) {
            let t = &self.toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && self.toks[j - 1].is_punct('-')) {
                angle -= 1;
            } else if angle == 0 && t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "for" => ty.clear(),
                    "where" => in_where = true,
                    "dyn" => {}
                    _ if !in_where => ty.clone_from(&t.text),
                    _ => {}
                }
            } else if angle == 0 && t.is_punct(';') {
                return (ty, None);
            }
            j += 1;
        }
        (ty, (j < end).then_some(j))
    }

    /// First `{` at angle-depth 0 from `from`.
    fn find_body_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut angle = 0i64;
        let mut j = from;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && self.toks[j - 1].is_punct('-')) {
                angle -= 1;
            } else if angle <= 0 && t.is_punct('{') {
                return Some(j);
            } else if angle == 0 && t.is_punct(';') {
                return None;
            }
            j += 1;
        }
        None
    }

    /// Parses `fn name …` at `i`, pushing the definition. Returns the
    /// index after the body (or signature).
    fn function(&mut self, i: usize, end: usize, self_ty: Option<&str>, in_test: bool) -> usize {
        let Some(name) = ident_at(self.toks, i + 1) else {
            return i + 1;
        };
        let name = name.to_string();
        let (line, col) = (self.toks[i].line, self.toks[i].col);
        let mut j = i + 2;
        if punct_at(self.toks, j, '<') {
            j = skip_angles(self.toks, j);
        }
        if punct_at(self.toks, j, '(') {
            j = matching(self.toks, j, '(', ')').unwrap_or(end) + 1;
        }
        // Return type and `where` clause up to the body.
        while j < end && !punct_at(self.toks, j, '{') && !punct_at(self.toks, j, ';') {
            j += 1;
        }
        let (body, body_range, next) = if punct_at(self.toks, j, '{') {
            let close = matching(self.toks, j, '{', '}').unwrap_or(end);
            (
                self.block(j + 1, close.min(end), in_test),
                (j + 1, close.min(end)),
                close + 1,
            )
        } else {
            (Block::default(), (0, 0), j + 1)
        };
        self.out.fns.push(FnDef {
            self_ty: self_ty.map(str::to_string),
            name,
            line,
            col,
            in_cfg_test: in_test,
            body,
            body_range,
        });
        next
    }

    /// Parses the statements of a block body in `[i, end)`.
    fn block(&mut self, mut i: usize, end: usize, in_test: bool) -> Block {
        let mut block = Block::default();
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(';') {
                i += 1;
                continue;
            }
            if t.is_punct('#') && punct_at(self.toks, i + 1, '[') {
                i = matching(self.toks, i + 1, '[', ']').map_or(end, |c| c + 1);
                continue;
            }
            // Nested items inside bodies are lifted into the file's
            // function list, not the statement tree.
            if t.is_ident("fn") {
                i = self.function(i, end, None, in_test);
                continue;
            }
            let (stmt, next) = self.statement(i, end, in_test);
            block.stmts.push(stmt);
            i = next;
        }
        block
    }

    /// Parses one statement starting at `i`, returning it and the index
    /// after its end.
    fn statement(&mut self, mut i: usize, end: usize, in_test: bool) -> (Stmt, usize) {
        let mut stmt = Stmt {
            control: ident_at(self.toks, i).is_some_and(|first| CONTROL_KEYWORDS.contains(&first)),
            ..Stmt::default()
        };
        let mut chain = Chain::default();
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(';') {
                return (stmt, i + 1);
            }
            if t.is_punct('{') {
                let close = matching(self.toks, i, '{', '}').unwrap_or(end);
                let inner = self.block(i + 1, close.min(end), in_test);
                stmt.nodes.push(Node::Block(inner));
                chain.reset();
                i = close + 1;
                // A control statement ends at its closing brace unless
                // the expression visibly continues.
                if stmt.control {
                    match self.toks.get(i) {
                        Some(n) if n.is_ident("else") => {
                            i += 1;
                            continue;
                        }
                        Some(n) if n.is_punct('.') || n.is_punct('?') => continue,
                        _ => return (stmt, i),
                    }
                }
                continue;
            }
            if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                // Unbalanced close: the caller's range ends here.
                return (stmt, i + 1);
            }
            i = self.expr_token(i, end, &mut chain, &mut stmt.nodes);
        }
        (stmt, end)
    }

    /// Consumes one token (or one bracketed group) of expression input,
    /// updating the chain state and appending any call/macro nodes.
    #[allow(clippy::too_many_lines)]
    fn expr_token(
        &mut self,
        i: usize,
        end: usize,
        chain: &mut Chain,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let t = &self.toks[i];
        match t.kind {
            TokKind::Ident => {
                let name = t.text.as_str();
                if NON_CHAIN_KEYWORDS.contains(&name) {
                    chain.reset();
                    return i + 1;
                }
                // `name!(..)` — macro invocation.
                if punct_at(self.toks, i + 1, '!')
                    && (punct_at(self.toks, i + 2, '(')
                        || punct_at(self.toks, i + 2, '[')
                        || punct_at(self.toks, i + 2, '{'))
                {
                    nodes.push(Node::Macro(MacroSite {
                        name: name.to_string(),
                        line: t.line,
                        col: t.col,
                    }));
                    let (op, cl) = match () {
                        () if punct_at(self.toks, i + 2, '(') => ('(', ')'),
                        () if punct_at(self.toks, i + 2, '[') => ('[', ']'),
                        () => ('{', '}'),
                    };
                    let close = matching(self.toks, i + 2, op, cl).unwrap_or(end);
                    self.group(i + 3, close.min(end), nodes);
                    chain.reset();
                    return close + 1;
                }
                chain.push_seg(name, t.line, t.col);
                i + 1
            }
            TokKind::Punct => {
                let c = t.text.chars().next().unwrap_or(' ');
                match c {
                    '.' => {
                        if ident_at(self.toks, i + 1).is_some() {
                            chain.pend_dot();
                        } else {
                            chain.reset();
                        }
                        i + 1
                    }
                    ':' if punct_at(self.toks, i + 1, ':') => {
                        // `::<Turbofish>` extends the chain invisibly.
                        if punct_at(self.toks, i + 2, '<') {
                            // The chain stays as-is; the next `(` calls it.
                            return skip_angles(self.toks, i + 2);
                        }
                        if ident_at(self.toks, i + 2).is_some() {
                            chain.pend_colon();
                        } else {
                            chain.reset();
                        }
                        i + 2
                    }
                    '(' => {
                        let close = matching(self.toks, i, '(', ')').unwrap_or(end);
                        if chain.callable() {
                            let (site_line, site_col) = chain.site();
                            let kind = chain.call_kind();
                            let name = chain.last_seg();
                            self.group(i + 1, close.min(end), nodes);
                            nodes.push(Node::Call(CallSite {
                                kind,
                                name,
                                line: site_line,
                                col: site_col,
                            }));
                            chain.become_result();
                        } else {
                            self.group(i + 1, close.min(end), nodes);
                            chain.become_group();
                        }
                        close + 1
                    }
                    '[' => {
                        let close = matching(self.toks, i, '[', ']').unwrap_or(end);
                        self.group(i + 1, close.min(end), nodes);
                        if chain.callable() {
                            chain.index_last();
                        } else {
                            chain.become_group();
                        }
                        close + 1
                    }
                    '{' | '}' | ')' | ']' | ';' => i, // handled by caller
                    '?' => i + 1,                     // try operator: chain continues
                    _ => {
                        chain.reset();
                        i + 1
                    }
                }
            }
            TokKind::Literal | TokKind::Lifetime => {
                chain.reset();
                i + 1
            }
        }
    }

    /// Walks a bracketed group (call arguments, index expression, array
    /// literal, macro body), collecting nested nodes.
    fn group(&mut self, mut i: usize, end: usize, nodes: &mut Vec<Node>) {
        let mut chain = Chain::default();
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(',') {
                chain.reset();
                i += 1;
                continue;
            }
            if t.is_punct('{') {
                let close = matching(self.toks, i, '{', '}').unwrap_or(end);
                let inner = self.block(i + 1, close.min(end), false);
                nodes.push(Node::Block(inner));
                chain.reset();
                i = close + 1;
                continue;
            }
            if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                chain.reset();
                i += 1;
                continue;
            }
            let next = self.expr_token(i, end, &mut chain, nodes);
            if next == i {
                i += 1;
            } else {
                i = next;
            }
        }
    }
}

/// The postfix-chain accumulator: segments plus the separator that
/// joined the most recent one.
#[derive(Debug, Default)]
struct Chain {
    segs: Vec<String>,
    /// Separator that will join the *next* segment.
    pending: Option<Sep>,
    /// Separator that joined the latest segment.
    last_join: Option<Sep>,
    line: u32,
    col: u32,
    /// The chain currently denotes the *result* of a call/group, so a
    /// following `(` is not a named call.
    opaque: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sep {
    Dot,
    Colon,
}

impl Chain {
    fn reset(&mut self) {
        self.segs.clear();
        self.pending = None;
        self.last_join = None;
        self.opaque = false;
    }

    fn push_seg(&mut self, name: &str, line: u32, col: u32) {
        match self.pending.take() {
            Some(sep) if !self.segs.is_empty() => {
                self.segs.push(name.to_string());
                self.last_join = Some(sep);
                // Anchor at the latest segment: a call site's position
                // is its *name* token, so two calls in one chain (even
                // a multi-line `.lock().unwrap_or_else(…)`) never share
                // a position.
                self.line = line;
                self.col = col;
                // The tail is now a named method/path segment, callable
                // even when the head was a call result.
                self.opaque = false;
            }
            _ => {
                self.segs.clear();
                self.segs.push(name.to_string());
                self.last_join = None;
                self.line = line;
                self.col = col;
                self.opaque = false;
            }
        }
        self.pending = None;
    }

    fn pend_dot(&mut self) {
        if self.segs.is_empty() {
            // `.method()` on a wrapped line or after a group we did not
            // track: receiver unknown.
            self.segs.push("?".to_string());
            self.opaque = false;
        }
        self.pending = Some(Sep::Dot);
    }

    fn pend_colon(&mut self) {
        if self.segs.is_empty() {
            self.segs.push("?".to_string());
        }
        self.pending = Some(Sep::Colon);
    }

    /// Whether a following `(` would be a call on a named target.
    fn callable(&self) -> bool {
        !self.segs.is_empty() && !self.opaque && self.pending.is_none()
    }

    fn last_seg(&self) -> String {
        self.segs.last().cloned().unwrap_or_default()
    }

    fn site(&self) -> (u32, u32) {
        (self.line, self.col)
    }

    fn call_kind(&self) -> CallKind {
        if self.segs.len() == 1 {
            CallKind::Free
        } else if self.last_join == Some(Sep::Dot) {
            CallKind::Method {
                recv: self.segs[..self.segs.len() - 1].join("."),
            }
        } else {
            CallKind::Path {
                qual: self.segs[self.segs.len() - 2].clone(),
            }
        }
    }

    /// After a call: the chain denotes the call's result.
    fn become_result(&mut self) {
        let text = format!("{}()", self.segs.join("."));
        self.segs.clear();
        self.segs.push(text);
        self.last_join = None;
        self.pending = None;
        self.opaque = true;
    }

    /// After a grouping `(..)` or array `[..]` with no receiver.
    fn become_group(&mut self) {
        self.segs.clear();
        self.segs.push("(..)".to_string());
        self.last_join = None;
        self.pending = None;
        self.opaque = true;
    }

    /// After `recv[idx]`: collapse the index into the last segment.
    fn index_last(&mut self) {
        if let Some(last) = self.segs.last_mut() {
            last.push_str("[_]");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src).toks)
    }

    fn calls(stmt: &Stmt) -> Vec<&CallSite> {
        fn walk<'a>(nodes: &'a [Node], out: &mut Vec<&'a CallSite>) {
            for n in nodes {
                match n {
                    Node::Call(c) => out.push(c),
                    Node::Block(b) => {
                        for s in &b.stmts {
                            walk(&s.nodes, out);
                        }
                    }
                    Node::Macro(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&stmt.nodes, &mut out);
        out
    }

    #[test]
    fn impl_methods_get_self_type() {
        let p = parse("impl Widget { fn poll(&mut self) -> u64 { 0 } fn helper() {} }");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qualified(), "Widget::poll");
        assert_eq!(p.fns[1].qualified(), "Widget::helper");
    }

    #[test]
    fn free_fn_params_and_ret() {
        let p = parse("fn rates<T>(m: &Vec<T>) -> std::vec::Vec<f64> { helper(m) }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "rates");
        assert_eq!(calls(&p.fns[0].body.stmts[0])[0].name, "helper");
    }

    #[test]
    fn pattern_params_are_skipped_to_the_body() {
        // A struct pattern's braces sit inside the parameter list; the
        // body is the first `{` after it.
        let p = parse(
            "impl W { fn f(&self, W { a, b }: W, (c, d): (f64, u8), s: &[u32]) \
             -> Bytes { helper(a) } }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].qualified(), "W::f");
        assert_eq!(calls(&p.fns[0].body.stmts[0])[0].name, "helper");
    }

    #[test]
    fn body_range_spans_the_body_tokens() {
        let src = "fn f(x: u64) -> u64 { x + 1 }";
        let toks = lex(src).toks;
        let p = parse_file(&toks);
        let (start, end) = p.fns[0].body_range;
        let texts: Vec<&str> = toks[start..end].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["x", "+", "1"]);
        // Bodyless trait signatures carry the empty sentinel.
        let p2 = parse("trait T { fn g(&self); }");
        assert_eq!(p2.fns[0].body_range, (0, 0));
    }

    #[test]
    fn method_call_receiver_is_normalized() {
        let p = parse("fn f(&self) { self.deques[own].lock(); }");
        let body = &p.fns[0].body;
        let cs = calls(&body.stmts[0]);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].name, "lock");
        assert_eq!(
            cs[0].kind,
            CallKind::Method {
                recv: "self.deques[_]".to_string()
            }
        );
    }

    #[test]
    fn path_call_and_free_call() {
        let p = parse("fn f() { codec::put_varint(&mut buf, v); helper(); Box::new(1); }");
        let b = &p.fns[0].body;
        let c0 = calls(&b.stmts[0]);
        assert_eq!(c0[0].name, "put_varint");
        assert_eq!(
            c0[0].kind,
            CallKind::Path {
                qual: "codec".to_string()
            }
        );
        assert_eq!(calls(&b.stmts[1])[0].kind, CallKind::Free);
        let c2 = calls(&b.stmts[2]);
        assert_eq!(c2[0].name, "new");
        assert_eq!(
            c2[0].kind,
            CallKind::Path {
                qual: "Box".to_string()
            }
        );
    }

    #[test]
    fn let_bindings_and_blocks() {
        let p = parse(
            "fn f(&self) {\n\
             let mut g = self.entries.lock();\n\
             if cond { g.push(1); }\n\
             g.len();\n\
             }",
        );
        let b = &p.fns[0].body;
        assert_eq!(b.stmts.len(), 3);
        assert_eq!(calls(&b.stmts[0])[0].name, "lock");
        assert!(b.stmts[1].control);
        assert!(matches!(
            b.stmts[1].nodes.last(),
            Some(Node::Block(inner)) if inner.stmts.len() == 1
        ));
        assert_eq!(calls(&b.stmts[2])[0].name, "len");
    }

    #[test]
    fn control_block_without_semicolon_ends_statement() {
        let p = parse("fn f() { if a { x(); } let g = m.lock(); }");
        let b = &p.fns[0].body;
        assert_eq!(b.stmts.len(), 2, "{b:?}");
        assert_eq!(calls(&b.stmts[1])[0].name, "lock");
    }

    #[test]
    fn macros_are_recorded() {
        let p = parse("fn f() { panic!(\"boom\"); vec![1, 2]; debug_assert!(x.is_some()); }");
        let names: Vec<String> = p.fns[0]
            .body
            .stmts
            .iter()
            .flat_map(|s| &s.nodes)
            .filter_map(|n| match n {
                Node::Macro(m) => Some(m.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["panic", "vec", "debug_assert"]);
    }

    #[test]
    fn cfg_test_mod_marks_functions() {
        let p = parse("fn shipped() {} #[cfg(test)] mod tests { fn helper() {} }");
        assert!(!p.fns[0].in_cfg_test);
        assert_eq!(p.fns[1].name, "helper");
        assert!(p.fns[1].in_cfg_test);
    }

    #[test]
    fn trait_default_methods_use_trait_name() {
        let p = parse("trait Runner { fn go(&self) { self.step(); } fn step(&self); }");
        assert_eq!(p.fns[0].qualified(), "Runner::go");
        assert_eq!(p.fns[1].qualified(), "Runner::step");
        assert!(p.fns[1].body.stmts.is_empty());
    }

    #[test]
    fn nested_fn_is_lifted() {
        let p = parse("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
    }

    #[test]
    fn turbofish_call_still_resolves() {
        let p = parse("fn f() { items.iter().collect::<Vec<_>>(); }");
        let cs = calls(&p.fns[0].body.stmts[0]);
        let names: Vec<&str> = cs.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"collect"), "{names:?}");
    }

    #[test]
    fn match_arms_parse_inner_calls() {
        let p = parse(
            "fn f(x: Option<u8>) { match x { Some(v) => { v.to_string(); } None => other(), } }",
        );
        let cs = calls(&p.fns[0].body.stmts[0]);
        let names: Vec<&str> = cs.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"to_string"), "{names:?}");
        assert!(names.contains(&"other"), "{names:?}");
    }
}
