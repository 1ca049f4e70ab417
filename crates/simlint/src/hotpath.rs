//! Transitive hot-path discipline.
//!
//! v1 checked the *bodies* of the functions named in `[hotpath]
//! functions`; a hot function that delegated its panic or allocation to
//! a helper sailed through. This pass checks the whole call tree: the
//! three facts from [`crate::graph`] (may-panic / may-alloc / may-block)
//! are propagated caller-ward, and a hot function inheriting one gets a
//! diagnostic whose chain walks from the hot function down to the
//! concrete offending construct.
//!
//! Rules: `hot-path-panic` and `hot-path-alloc` keep their v1 ids (so
//! existing suppressions stay valid); `hot-path-block` is new — a
//! per-packet path taking a `Mutex` (or otherwise parking the thread)
//! breaks the 7 ns budget just as surely as a heap allocation.
//! Functions whose *contract* is blocking (`ShardQueue::next` parks on
//! its deque by design) are exempted via `[hotpath] may_block`.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::{CallGraph, Fact};

fn verb_phrase(fact: Fact) -> &'static str {
    match fact {
        Fact::Panic => "can panic",
        Fact::Alloc => "allocates",
        Fact::Block => "can block",
    }
}

fn hint(fact: Fact) -> &'static str {
    match fact {
        Fact::Panic => "hot paths must be total: match the Option/Result explicitly",
        Fact::Alloc => {
            "preallocate in the constructor; the per-packet path must not touch the heap"
        }
        Fact::Block => {
            "the per-packet path must not park the thread; move the lock out of the hot loop \
             or list the fn under [hotpath] may_block if blocking is its contract"
        }
    }
}

/// Runs the pass over an already-built graph. Emits raw findings —
/// suppression is applied centrally by the caller.
pub fn hotpath_pass(graph: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for hot in &cfg.hot_functions {
        let nodes = graph.find_qualified(hot);
        if nodes.is_empty() {
            out.push(Diagnostic::new(
                "simlint.toml",
                1,
                1,
                "hot-path-missing",
                format!("configured hot function `{hot}` was not found in any scanned file"),
                "a rename silently disables its coverage — update [hotpath] functions",
            ));
            continue;
        }
        for &n in nodes {
            let node = &graph.nodes[n];
            for fact in Fact::ALL {
                if fact == Fact::Block && cfg.may_block.iter().any(|f| f == hot) {
                    continue;
                }
                // Constructs directly in the hot body, one finding
                // each, anchored where they sit (so a line-targeted
                // inline allow works exactly as in v1).
                for l in node.local.iter().filter(|l| l.fact == fact) {
                    out.push(Diagnostic::new(
                        &node.file,
                        l.line,
                        l.col,
                        fact.rule(),
                        format!("{} {} in hot function `{hot}`", l.what, verb_phrase(fact)),
                        hint(fact),
                    ));
                }
                // Facts inherited through calls: one finding per direct
                // call site whose callee may reach the fact, anchored
                // at that call, with the reconstructed chain attached.
                let mut seen_sites = std::collections::BTreeSet::new();
                for edge in &node.calls {
                    let Some(callee) = edge.callee else { continue };
                    if !graph.nodes[callee].trans[fact as usize] {
                        continue;
                    }
                    if !seen_sites.insert((edge.site.line, edge.site.col)) {
                        continue;
                    }
                    let mut chain = vec![format!("`{hot}` ({}:{})", node.file, node.def.line)];
                    chain.extend(graph.chain_to_fact(callee, fact));
                    out.push(
                        Diagnostic::new(
                            &node.file,
                            edge.site.line,
                            edge.site.col,
                            fact.rule(),
                            format!(
                                "hot function `{hot}` {} via `{}`",
                                verb_phrase(fact),
                                graph.nodes[callee].qualified()
                            ),
                            hint(fact),
                        )
                        .with_chain(chain),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str, hot: &[&str], may_block: &[&str]) -> Vec<Diagnostic> {
        let graph = CallGraph::build(vec![(
            "t.rs".to_string(),
            "crates/t".to_string(),
            parse_file(&lex(src).toks).fns,
        )]);
        let cfg = Config {
            hot_functions: hot.iter().map(|s| (*s).to_string()).collect(),
            may_block: may_block.iter().map(|s| (*s).to_string()).collect(),
            ..Config::default()
        };
        hotpath_pass(&graph, &cfg)
    }

    #[test]
    fn transitive_panic_carries_chain() {
        let d = run(
            "impl Hot { pub fn record(&mut self) { helper(); } }\n\
             fn helper() { deep(); }\n\
             fn deep() { x.unwrap(); }",
            &["Hot::record"],
            &[],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "hot-path-panic");
        assert!(d[0].message.contains("via `helper`"), "{}", d[0].message);
        assert_eq!(d[0].chain.len(), 4, "{:?}", d[0].chain);
        assert!(d[0].chain[0].contains("Hot::record"));
        assert!(d[0].chain[3].contains(".unwrap()"));
    }

    #[test]
    fn local_fact_is_anchored_at_construct() {
        let d = run(
            "impl Hot { fn record(&self) { v.push(x.unwrap()); } }",
            &["Hot::record"],
            &[],
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].chain.is_empty());
        assert!(d[0].message.contains("`.unwrap()` can panic"));
    }

    #[test]
    fn may_block_exempts_only_block() {
        let src = "impl Q { fn next(&self) { recover(&self.d); } }\n\
                   fn recover(m: &M) { m.lock().unwrap(); }";
        let with = run(src, &["Q::next"], &["Q::next"]);
        assert!(with.iter().all(|d| d.rule != "hot-path-block"), "{with:?}");
        assert!(with.iter().any(|d| d.rule == "hot-path-panic"));
        let without = run(src, &["Q::next"], &[]);
        assert!(without.iter().any(|d| d.rule == "hot-path-block"));
    }

    #[test]
    fn missing_hot_fn_is_reported() {
        let d = run("fn other() {}", &["Gone::fn_name"], &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "hot-path-missing");
    }

    #[test]
    fn clean_hot_fn_is_silent() {
        let d = run(
            "impl Hot { fn record(&mut self) { self.n += 1; helper(self.n); } }\n\
             fn helper(n: u64) -> u64 { n.wrapping_mul(3) }",
            &["Hot::record"],
            &[],
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
