//! Time-monotonicity: every timestamp handed to the event queue must be
//! provably "now or later".
//!
//! `EventQueue` clamps a past timestamp to `now` in release builds and
//! asserts in debug ones, so a handler that computes `now - delta` runs
//! on a different timeline per build profile. This pass polices the
//! property statically at every call site of the `[monotonic] sinks`
//! functions (`EventQueue::schedule`). It flags, with positive evidence
//! only:
//!
//! * **subtraction** anywhere in the timestamp expression or the `let`
//!   chain feeding it (`now - delta` lands in the past);
//! * **raw literal** timestamps (absolute times do not compose — a
//!   second caller with a different epoch reorders the timeline);
//! * **float round-trips** (`(x as f64 * r) as u64` can round below
//!   `now`, and rounds differently per platform), spotted by a token
//!   detector: `f32`/`f64` mentions, float literals, and float-only
//!   method calls.
//!
//! Unknown provenance stays silent: a timestamp that is just a
//! parameter or a call result degrades to no finding, never to noise.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::CallGraph;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Scan-size counters for the bench artifact.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicStats {
    /// Sink call sites whose timestamp argument was checked.
    pub sites: usize,
}

const HINT: &str = "derive scheduled times as `now + positive delta` in integer Ns \
                    (checked/saturating ops belong on the delta, never the absolute time); \
                    if the shape is provably safe, add `// simlint: \
                    allow(non-monotonic-schedule): why`";

/// Provenance of one `let` binding (or one argument expression):
/// positive evidence, folded through the bindings its RHS mentions.
#[derive(Debug, Default, Clone)]
struct Prov {
    /// First subtraction evidence: what the construct was.
    sub: Option<String>,
    /// First float evidence.
    float: Option<String>,
    /// The RHS is a bare literal (or `Ns(<literal>)`).
    lit: bool,
}

const SUB_METHODS: [&str; 3] = ["saturating_sub", "checked_sub", "wrapping_sub"];

/// Methods that exist only on `f32`/`f64` (or whose name declares a
/// float result). `.sqrt()` on an integer does not compile, so seeing
/// one is proof the receiver is a float.
const FLOAT_METHODS: [&str; 14] = [
    "sqrt", "cbrt", "powf", "powi", "ln", "log2", "log10", "exp", "exp2", "mul_add", "recip",
    "floor", "ceil", "round",
];

fn is_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_')
}

/// `8e9` / `1e` (the head of `1e-9`) — digit-led mantissa, `e`/`E`,
/// digit-only (possibly empty) exponent. Hex like `0x1e9` fails the
/// all-digits mantissa test on the `x`.
fn is_exponent_literal(s: &str) -> bool {
    let Some(epos) = s.bytes().position(|b| b == b'e' || b == b'E') else {
        return false;
    };
    if epos == 0 || !s.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    is_digits(&s[..epos])
        && s[epos + 1..]
            .bytes()
            .all(|b| b.is_ascii_digit() || b == b'_')
}

/// The first float evidence in a token slice, described for the
/// diagnostic: an `f32`/`f64` mention, a float-named conversion
/// (`as_secs_f64()`), a float-only method call, or a suffixed, exponent
/// or dotted literal.
fn first_float_in_slice(body: &[Tok]) -> Option<String> {
    for (i, t) in body.iter().enumerate() {
        match t.kind {
            TokKind::Ident => {
                if t.text == "f32" || t.text == "f64" {
                    return Some(format!("`{}`", t.text));
                }
                let float_method = FLOAT_METHODS.contains(&t.text.as_str())
                    && i > 0
                    && body[i - 1].is_punct('.')
                    && body.get(i + 1).is_some_and(|n| n.is_punct('('));
                // `as_secs_f64()` and friends advertise a float result
                // in their name.
                if float_method || t.text.ends_with("_f64") || t.text.ends_with("_f32") {
                    return Some(format!("`.{}()`", t.text));
                }
            }
            TokKind::Literal => {
                let digit_led = t.text.as_bytes().first().is_some_and(u8::is_ascii_digit);
                if (digit_led && (t.text.contains("f64") || t.text.contains("f32")))
                    || is_exponent_literal(&t.text)
                {
                    return Some(format!("`{}` literal", t.text));
                }
                if is_digits(&t.text)
                    && body.get(i + 1).is_some_and(|n| n.text == ".")
                    && body
                        .get(i + 2)
                        .is_some_and(|n| n.kind == TokKind::Literal && is_digits(&n.text))
                    // A leading `.` means we're inside a tuple-index
                    // chain (`x.0.1`), not a float literal.
                    && (i == 0 || body[i - 1].text != ".")
                {
                    return Some(format!("`{}.{}` literal", t.text, body[i + 2].text));
                }
            }
            _ => {}
        }
    }
    None
}

/// Analyzes a token slice, folding in the provenance of any mentioned
/// binding. One forward pass over bindings-in-source-order is exact for
/// straight-line `let` chains and conservative elsewhere.
fn analyze(slice: &[Tok], env: &BTreeMap<String, Prov>) -> Prov {
    let mut p = Prov::default();
    for (i, t) in slice.iter().enumerate() {
        match t.kind {
            TokKind::Punct if t.text == "-" => {
                // `->` (closure/fn arrows) is not a subtraction.
                if !slice.get(i + 1).is_some_and(|n| n.is_punct('>')) && p.sub.is_none() {
                    p.sub = Some("`-`".to_string());
                }
            }
            TokKind::Ident => {
                if SUB_METHODS.contains(&t.text.as_str()) && p.sub.is_none() {
                    p.sub = Some(format!("`.{}()`", t.text));
                }
                if let Some(b) = env.get(&t.text) {
                    if p.sub.is_none() {
                        p.sub.clone_from(&b.sub);
                    }
                    if p.float.is_none() {
                        p.float.clone_from(&b.float);
                    }
                }
            }
            _ => {}
        }
    }
    if p.float.is_none() {
        p.float = first_float_in_slice(slice);
    }
    p.lit = is_literal_expr(slice);
    p
}

/// Whether a slice is a bare literal timestamp: one or more literal
/// tokens (`5`, `1_000`) or a newtype-wrapped one (`Ns(5)`).
fn is_literal_expr(slice: &[Tok]) -> bool {
    match slice {
        [] => false,
        [only] => only.kind == TokKind::Literal,
        [head, open, lit, close] => {
            head.kind == TokKind::Ident
                && open.is_punct('(')
                && lit.kind == TokKind::Literal
                && close.is_punct(')')
        }
        _ => false,
    }
}

/// Index just past the end of the statement starting at `i` (the token
/// after its top-level `;`), tracking bracket depth.
fn stmt_end(toks: &[Tok], i: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    let mut k = i;
    while k < limit {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if t.is_punct(';') && depth == 0 {
            return k + 1;
        }
        k += 1;
    }
    limit
}

/// Index just past a call's first argument: the first top-level comma
/// inside `( … )`, or `close` when there is none.
fn first_arg_end(toks: &[Tok], open: usize, close: usize) -> usize {
    let mut depth = 0i64;
    for k in open + 1..close {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            return k;
        }
    }
    close
}

/// Index of the token closing the `(` at `open`.
fn close_paren(toks: &[Tok], open: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    for k in open..limit {
        if toks[k].is_punct('(') {
            depth += 1;
        } else if toks[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    limit
}

/// Runs the pass: checks every sink call site in every non-test
/// function, plus the configured guard entries.
pub fn monotonic_pass(
    graph: &CallGraph,
    tokens: &BTreeMap<String, Vec<Tok>>,
    cfg: &Config,
) -> (Vec<Diagnostic>, MonotonicStats) {
    let mut out = Vec::new();
    let mut stats = MonotonicStats::default();
    if cfg.monotonic_sinks.is_empty() {
        return (out, stats);
    }
    // Sinks are matched by *method name* at call sites (`self.q.schedule`
    // does not resolve through the graph — the receiver type is opaque
    // at the token level); the qualified spelling is the guard.
    let mut sink_names = BTreeSet::new();
    for sink in &cfg.monotonic_sinks {
        sink_names.insert(sink.rsplit("::").next().unwrap_or(sink).to_string());
        if graph.find_qualified(sink).is_empty() {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "monotonic-sink-missing",
                format!("configured monotonic sink `{sink}` was not found in any scanned file"),
                "a rename silently disables timestamp checking — update [monotonic] sinks",
            ));
        }
    }
    for node in &graph.nodes {
        if node.def.in_cfg_test || node.file.contains("tests/") {
            continue;
        }
        let Some(toks) = tokens.get(&node.file) else {
            continue;
        };
        let (bs, be) = node.def.body_range;
        let be = be.min(toks.len());
        let qualified = node.qualified();

        let mut env: BTreeMap<String, Prov> = BTreeMap::new();
        let mut i = bs;
        while i < be {
            let t = &toks[i];
            // `let name = rhs;` — record the binding's provenance.
            // Pattern lets (`let Some(x) =`, `let (a, b) =`) contribute
            // nothing; their inner tokens are still scanned for sinks.
            if t.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let name = toks.get(j).filter(|t| t.kind == TokKind::Ident);
                if let Some(name) = name {
                    if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                        let end = stmt_end(toks, j + 2, be);
                        let rhs_end = if end > j + 2 && toks[end - 1].is_punct(';') {
                            end - 1
                        } else {
                            end
                        };
                        let prov = analyze(&toks[j + 2..rhs_end], &env);
                        env.insert(name.text.clone(), prov);
                        // Keep scanning *inside* the RHS for sink calls.
                        i = j + 2;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            // A sink call: `.name(` or `::name(` (never `fn name(`).
            let is_sink = t.kind == TokKind::Ident
                && sink_names.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && i > 0
                && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
            if !is_sink {
                i += 1;
                continue;
            }
            let open = i + 1;
            let close = close_paren(toks, open, be);
            let arg = &toks[open + 1..first_arg_end(toks, open, close)];
            stats.sites += 1;
            let prov = analyze(arg, &env);
            let arg_text = || {
                arg.iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let bare_lit = prov.lit
                || (arg.len() == 1
                    && arg[0].kind == TokKind::Ident
                    && env.get(&arg[0].text).is_some_and(|p| p.lit));
            if bare_lit {
                out.push(Diagnostic::new(
                    &node.file,
                    t.line,
                    t.col,
                    "non-monotonic-schedule",
                    format!(
                        "`{}` in `{qualified}` is called with a raw literal timestamp \
                         `{}` — absolute times do not compose with `now`",
                        t.text,
                        arg_text()
                    ),
                    HINT,
                ));
            } else if let Some(what) = &prov.sub {
                out.push(Diagnostic::new(
                    &node.file,
                    t.line,
                    t.col,
                    "non-monotonic-schedule",
                    format!(
                        "timestamp passed to `{}` in `{qualified}` involves subtraction \
                         ({what}) — the result is not provably `now + positive delta`",
                        t.text
                    ),
                    HINT,
                ));
            } else if let Some(what) = &prov.float {
                out.push(Diagnostic::new(
                    &node.file,
                    t.line,
                    t.col,
                    "non-monotonic-schedule",
                    format!(
                        "timestamp passed to `{}` in `{qualified}` is derived through \
                         floating-point math ({what}) — rounding can land it in the past, \
                         differently per platform",
                        t.text
                    ),
                    HINT,
                ));
            }
            i = open + 1; // descend into the argument list (nested sinks)
        }
    }

    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run_cfg(src: &str, cfg: &Config) -> (Vec<Diagnostic>, MonotonicStats) {
        let lexed = lex(src);
        let fns = parse_file(&lexed.toks).fns;
        let graph = CallGraph::build(vec![("t.rs".to_string(), "crates/t".to_string(), fns)]);
        let mut tokens = BTreeMap::new();
        tokens.insert("t.rs".to_string(), lexed.toks);
        monotonic_pass(&graph, &tokens, cfg)
    }

    fn cfg() -> Config {
        Config {
            monotonic_sinks: vec!["EventQueue::schedule".to_string()],
            ..Config::default()
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        run_cfg(src, &cfg()).0
    }

    const QUEUE: &str = "impl EventQueue { pub fn schedule(&mut self, at: u64, ev: u32) {} }\n";

    #[test]
    fn now_plus_delta_is_clean() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ self.q.schedule(now + self.gap, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn subtraction_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ self.q.schedule(now - 5, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "non-monotonic-schedule");
        assert!(d[0].message.contains("subtraction"), "{}", d[0].message);
    }

    #[test]
    fn subtraction_through_let_chain_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
             let slack = now.saturating_sub(self.lead); let at = slack + 1; \
             self.q.schedule(at, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("saturating_sub"), "{}", d[0].message);
    }

    #[test]
    fn raw_literal_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self) {{ self.q.schedule(1_000, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("raw literal"), "{}", d[0].message);
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self) {{ self.q.schedule(Ns(99), 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn float_round_trip_is_flagged() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
             let next = (self.rate * 2.5) as u64; self.q.schedule(now + next, 1); }} }}"
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("floating"), "{}", d[0].message);
    }

    #[test]
    fn unknown_provenance_stays_silent() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, at: u64) {{ \
             let due = at.max(self.q.now()); self.q.schedule(due, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn arrow_in_closure_is_not_subtraction() {
        let d = run(&format!(
            "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
             let at = self.xs.iter().map(|x| -> u64 {{ x.t }}).fold(now, u64::max); \
             self.q.schedule(at, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sink_sites_are_counted() {
        let (_, stats) = run_cfg(
            &format!(
                "{QUEUE}impl S {{ fn f(&mut self, now: u64) {{ \
                 self.q.schedule(now, 1); self.q.schedule(now + 1, 2); }} }}"
            ),
            &cfg(),
        );
        assert_eq!(stats.sites, 2);
    }

    #[test]
    fn test_code_is_skipped() {
        let d = run(&format!(
            "{QUEUE}#[cfg(test)] mod t {{ fn f(q: &mut Q) {{ q.schedule(100, 1); }} }}"
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    fn float_in(src: &str) -> Option<String> {
        first_float_in_slice(&lex(src).toks)
    }

    #[test]
    fn exponent_literal_is_float_but_hex_is_not() {
        assert_eq!(float_in("8e9 as u64").as_deref(), Some("`8e9` literal"));
        assert_eq!(float_in("0x1e9"), None);
    }

    #[test]
    fn tuple_indexing_and_ranges_are_not_literals() {
        assert_eq!(
            float_in("let mut s = p.1 .0; for i in 0..10 { s += i } s"),
            None
        );
    }

    #[test]
    fn float_method_needs_dot_and_call() {
        // `round` as a free fn name or a bare ident is not evidence.
        assert_eq!(float_in("round(7) + round"), None);
        assert_eq!(float_in("x.round()").as_deref(), Some("`.round()`"));
    }

    #[test]
    fn missing_sink_is_guarded() {
        let d = run("fn other() {}");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "monotonic-sink-missing");
    }
}
