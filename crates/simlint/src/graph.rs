//! The workspace-wide call graph and interprocedural fact engine.
//!
//! Every parsed function becomes a node. Call sites resolve to nodes by
//! name, deliberately conservatively:
//!
//! * `self.helper()` → `SelfType::helper`, preferring the same crate;
//! * `Type::helper(..)` → exact match on `Type::helper`;
//! * `helper()` → a free function `helper`, same file first, then same
//!   crate, then a unique workspace-wide match;
//! * `expr.method()` → resolved **only** when exactly one function named
//!   `method` exists in the whole workspace — receiver types are
//!   unknown at the token level, and guessing among candidates would
//!   manufacture false call chains.
//!
//! Unresolved calls contribute no facts (std/external callees are
//! covered by the intrinsic tables instead). Three boolean facts are
//! computed per function and propagated caller-ward to a fixed point:
//! **may-panic**, **may-alloc**, and **may-block**, each seeded by the
//! same token vocabulary the v1 rules enforced locally (`.unwrap()`,
//! `vec!`, `Box::new`, `.lock()`, …).

use crate::parser::{Block, CallKind, CallSite, FnDef, Node};
use std::collections::{BTreeMap, BTreeSet};

/// The propagated facts, each driving one hot-path rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fact {
    Panic,
    Alloc,
    Block,
}

/// Number of propagated facts (the width of [`FnNode::trans`]).
pub const N_FACTS: usize = 3;

impl Fact {
    pub const ALL: [Fact; N_FACTS] = [Fact::Panic, Fact::Alloc, Fact::Block];

    pub fn rule(self) -> &'static str {
        match self {
            Fact::Panic => "hot-path-panic",
            Fact::Alloc => "hot-path-alloc",
            Fact::Block => "hot-path-block",
        }
    }
}

/// A concrete fact source inside one function body.
#[derive(Debug, Clone)]
pub struct LocalFact {
    pub fact: Fact,
    pub line: u32,
    pub col: u32,
    /// Human description of the construct (`` `.unwrap()` ``).
    pub what: String,
}

/// One resolved or unresolved call site within a function.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Index into [`CallGraph::nodes`], when resolved.
    pub callee: Option<usize>,
    pub site: CallSite,
}

/// A function node.
#[derive(Debug)]
pub struct FnNode {
    pub def: FnDef,
    /// Workspace-relative file path.
    pub file: String,
    /// Crate directory the file belongs to (`crates/fleet`).
    pub crate_dir: String,
    pub local: Vec<LocalFact>,
    pub calls: Vec<CallEdge>,
    /// Transitive facts (filled by [`CallGraph::propagate`]),
    /// indexed by `Fact as usize`.
    pub trans: [bool; N_FACTS],
}

impl FnNode {
    pub fn qualified(&self) -> String {
        self.def.qualified()
    }

    fn has_local(&self, fact: Fact) -> bool {
        self.local.iter().any(|l| l.fact == fact)
    }
}

/// The assembled graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// fn name → node indices (methods and free fns alike).
    by_name: BTreeMap<String, Vec<usize>>,
    /// `Type::name` → node indices.
    by_qualified: BTreeMap<String, Vec<usize>>,
    /// Total resolved call edges (for the bench artifact).
    pub resolved_edges: usize,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
const ALLOC_METHODS: [&str; 6] = [
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "clone",
    "resize",
];
const ALLOC_CTORS: [&str; 6] = ["Box", "Vec", "String", "VecDeque", "BTreeMap", "BTreeSet"];
const BLOCK_METHODS: [&str; 5] = ["lock", "recv", "join", "wait", "park"];

/// Intrinsic facts of a call site (independent of resolution).
pub fn intrinsic_call_fact(site: &CallSite) -> Option<(Fact, String)> {
    match &site.kind {
        CallKind::Method { .. } => {
            let n = site.name.as_str();
            if n == "unwrap" || n == "expect" {
                Some((Fact::Panic, format!("`.{n}()`")))
            } else if ALLOC_METHODS.contains(&n) {
                Some((Fact::Alloc, format!("`.{n}()`")))
            } else if BLOCK_METHODS.contains(&n) {
                Some((Fact::Block, format!("`.{n}()`")))
            } else {
                None
            }
        }
        CallKind::Path { qual } => {
            if ALLOC_CTORS.contains(&qual.as_str())
                && matches!(site.name.as_str(), "new" | "with_capacity" | "from")
            {
                Some((Fact::Alloc, format!("`{qual}::{}`", site.name)))
            } else if qual == "thread" && site.name == "sleep" {
                Some((Fact::Block, "`thread::sleep`".to_string()))
            } else {
                None
            }
        }
        CallKind::Free => None,
    }
}

/// Intrinsic fact of a macro invocation.
pub fn intrinsic_macro_fact(name: &str) -> Option<(Fact, String)> {
    if PANIC_MACROS.contains(&name) {
        Some((Fact::Panic, format!("`{name}!`")))
    } else if ALLOC_MACROS.contains(&name) {
        Some((Fact::Alloc, format!("`{name}!`")))
    } else {
        None
    }
}

/// Walks every node of a body in order, visiting call sites and macros.
pub fn visit_ops<'b>(block: &'b Block, f: &mut impl FnMut(&'b Node)) {
    for stmt in &block.stmts {
        for node in &stmt.nodes {
            f(node);
            if let Node::Block(inner) = node {
                visit_ops(inner, f);
            }
        }
    }
}

impl CallGraph {
    /// Builds the graph from parsed files: `(file, crate_dir, fns)`.
    pub fn build(files: Vec<(String, String, Vec<FnDef>)>) -> CallGraph {
        let mut g = CallGraph::default();
        for (file, crate_dir, fns) in files {
            for def in fns {
                let idx = g.nodes.len();
                g.by_name.entry(def.name.clone()).or_default().push(idx);
                g.by_qualified.entry(def.qualified()).or_default().push(idx);
                g.nodes.push(FnNode {
                    def,
                    file: file.clone(),
                    crate_dir: crate_dir.clone(),
                    local: Vec::new(),
                    calls: Vec::new(),
                    trans: [false; N_FACTS],
                });
            }
        }
        g.collect_local_and_calls();
        g.propagate();
        g
    }

    fn collect_local_and_calls(&mut self) {
        for i in 0..self.nodes.len() {
            let mut local = Vec::new();
            let mut calls = Vec::new();
            {
                let node = &self.nodes[i];
                visit_ops(&node.def.body, &mut |op| match op {
                    Node::Call(site) => {
                        if let Some((fact, what)) = intrinsic_call_fact(site) {
                            local.push(LocalFact {
                                fact,
                                line: site.line,
                                col: site.col,
                                what,
                            });
                        }
                        calls.push(CallEdge {
                            callee: self.resolve(i, site),
                            site: site.clone(),
                        });
                    }
                    Node::Macro(m) => {
                        if let Some((fact, what)) = intrinsic_macro_fact(&m.name) {
                            local.push(LocalFact {
                                fact,
                                line: m.line,
                                col: m.col,
                                what,
                            });
                        }
                    }
                    Node::Block(_) => {}
                });
            }
            self.resolved_edges += calls.iter().filter(|c| c.callee.is_some()).count();
            self.nodes[i].local = local;
            self.nodes[i].calls = calls;
        }
    }

    /// Resolves one call site from the context of `caller`.
    fn resolve(&self, caller: usize, site: &CallSite) -> Option<usize> {
        let ctx = &self.nodes[caller];
        match &site.kind {
            CallKind::Method { recv } => {
                // Only a *direct* `self` receiver means "a method of
                // this type"; a field receiver (`self.bus.record()`)
                // has an unknown type and falls through to the
                // unique-name rule.
                if recv == "self" {
                    if let Some(ty) = &ctx.def.self_ty {
                        let q = format!("{ty}::{}", site.name);
                        return self.pick(self.by_qualified.get(&q), &ctx.crate_dir, None);
                    }
                }
                // Method names std itself defines (`.lock()`,
                // `.clone()`, `.unwrap()`, …) are overwhelmingly std
                // calls; resolving them to a workspace fn that happens
                // to share the name would fabricate call chains. Their
                // effect is covered by the intrinsic tables instead.
                if intrinsic_call_fact(site).is_some() {
                    return None;
                }
                self.unique(self.by_name.get(&site.name), |n| n.def.self_ty.is_some())
            }
            CallKind::Path { qual } => {
                let q = format!("{qual}::{}", site.name);
                if let Some(hit) = self.pick(self.by_qualified.get(&q), &ctx.crate_dir, None) {
                    return Some(hit);
                }
                // `module::free_fn(..)` — the qualifier is a module
                // path segment, not a type.
                self.unique(self.by_name.get(&site.name), |n| n.def.self_ty.is_none())
            }
            CallKind::Free => self.pick(
                self.by_name.get(&site.name).map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&n| self.nodes[n].def.self_ty.is_none())
                        .collect::<Vec<_>>()
                }),
                &ctx.crate_dir,
                Some(&ctx.file),
            ),
        }
    }

    /// Picks from candidates: same file first (if given), then same
    /// crate, then a unique global match.
    fn pick<V: AsRef<[usize]>>(
        &self,
        cands: Option<V>,
        crate_dir: &str,
        file: Option<&str>,
    ) -> Option<usize> {
        let cands = cands?;
        let cands = cands.as_ref();
        if let Some(file) = file {
            let in_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&n| self.nodes[n].file == file)
                .collect();
            if in_file.len() == 1 {
                return Some(in_file[0]);
            }
        }
        let in_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| self.nodes[n].crate_dir == crate_dir)
            .collect();
        if in_crate.len() == 1 {
            return Some(in_crate[0]);
        }
        if cands.len() == 1 {
            return Some(cands[0]);
        }
        None
    }

    /// A unique candidate satisfying `filter`, or nothing.
    fn unique(
        &self,
        cands: Option<&Vec<usize>>,
        filter: impl Fn(&FnNode) -> bool,
    ) -> Option<usize> {
        let hits: Vec<usize> = cands?
            .iter()
            .copied()
            .filter(|&n| filter(&self.nodes[n]))
            .collect();
        if hits.len() == 1 {
            Some(hits[0])
        } else {
            None
        }
    }

    /// Fixed-point propagation of every fact caller-ward.
    fn propagate(&mut self) {
        for i in 0..self.nodes.len() {
            for (f, fact) in Fact::ALL.iter().enumerate() {
                self.nodes[i].trans[f] = self.nodes[i].has_local(*fact);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.nodes.len() {
                let mut update = self.nodes[i].trans;
                for c in &self.nodes[i].calls {
                    if let Some(callee) = c.callee {
                        for (u, &t) in update.iter_mut().zip(&self.nodes[callee].trans) {
                            *u = *u || t;
                        }
                    }
                }
                if update != self.nodes[i].trans {
                    self.nodes[i].trans = update;
                    changed = true;
                }
            }
        }
    }

    /// Node indices whose qualified name matches `name` exactly.
    pub fn find_qualified(&self, name: &str) -> &[usize] {
        self.by_qualified
            .get(name)
            .map_or(&[][..], |v| v.as_slice())
    }

    /// Reconstructs a shortest call chain from `start` to a function
    /// with a *local* occurrence of `fact`. Each step is rendered as
    /// `` `Type::fn` (file:line) ``; the final element names the
    /// offending construct. Deterministic: BFS in node-index order.
    pub fn chain_to_fact(&self, start: usize, fact: Fact) -> Vec<String> {
        let f = fact as usize;
        let mut prev: BTreeMap<usize, (usize, u32)> = BTreeMap::new(); // node -> (pred, call line)
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut seen = BTreeSet::new();
        seen.insert(start);
        let mut leaf = None;
        while let Some(n) = queue.pop_front() {
            if self.nodes[n].has_local(fact) {
                leaf = Some(n);
                break;
            }
            let mut nexts: Vec<(usize, u32)> = self.nodes[n]
                .calls
                .iter()
                .filter_map(|c| c.callee.map(|cal| (cal, c.site.line)))
                .filter(|(cal, _)| self.nodes[*cal].trans[f])
                .collect();
            nexts.sort_unstable();
            for (cal, line) in nexts {
                if seen.insert(cal) {
                    prev.insert(cal, (n, line));
                    queue.push_back(cal);
                }
            }
        }
        let Some(leaf) = leaf else {
            return Vec::new();
        };
        let mut path = vec![leaf];
        let mut cur = leaf;
        while let Some(&(p, _)) = prev.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        let mut out: Vec<String> = path
            .iter()
            .map(|&n| {
                let node = &self.nodes[n];
                format!("`{}` ({}:{})", node.qualified(), node.file, node.def.line)
            })
            .collect();
        let node = &self.nodes[leaf];
        if let Some(l) = node
            .local
            .iter()
            .filter(|l| l.fact == fact)
            .min_by_key(|l| (l.line, l.col))
        {
            out.push(format!("{} ({}:{}:{})", l.what, node.file, l.line, l.col));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        CallGraph::build(
            files
                .iter()
                .map(|(file, krate, src)| {
                    (
                        (*file).to_string(),
                        (*krate).to_string(),
                        parse_file(&lex(src).toks).fns,
                    )
                })
                .collect(),
        )
    }

    fn node<'g>(g: &'g CallGraph, q: &str) -> &'g FnNode {
        &g.nodes[g.find_qualified(q)[0]]
    }

    #[test]
    fn transitive_panic_through_three_levels() {
        let g = graph(&[(
            "a.rs",
            "crates/a",
            "impl Hot { pub fn record(&mut self) { step_one(); } }\n\
             fn step_one() { step_two(); }\n\
             fn step_two() { boom.unwrap(); }",
        )]);
        assert!(node(&g, "Hot::record").trans[Fact::Panic as usize]);
        assert!(!node(&g, "Hot::record").trans[Fact::Alloc as usize]);
        let start = g.find_qualified("step_one")[0];
        let chain = g.chain_to_fact(start, Fact::Panic);
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(chain[0].contains("step_one"));
        assert!(chain[2].contains(".unwrap()"));
    }

    #[test]
    fn self_calls_resolve_within_impl_type() {
        let g = graph(&[(
            "a.rs",
            "crates/a",
            "impl A { fn hot(&self) { self.helper(); } fn helper(&self) { panic!() } }\n\
             impl B { fn helper(&self) {} }",
        )]);
        assert!(node(&g, "A::hot").trans[Fact::Panic as usize]);
    }

    #[test]
    fn ambiguous_method_calls_are_not_resolved() {
        let g = graph(&[(
            "a.rs",
            "crates/a",
            "impl A { fn record(&self) { panic!() } }\n\
             impl B { fn record(&self) {} }\n\
             fn caller(x: &A) { x.record(); }",
        )]);
        assert!(!node(&g, "caller").trans[Fact::Panic as usize]);
    }

    #[test]
    fn cross_crate_path_call_resolves() {
        let g = graph(&[
            (
                "a.rs",
                "crates/a",
                "fn put_varint(b: &mut V, v: u64) { b.push(0); }",
            ),
            (
                "b.rs",
                "crates/b",
                "impl W { fn push(&mut self, v: u64) { codec::put_varint(&mut self.buf, v); } }",
            ),
        ]);
        let w = node(&g, "W::push");
        assert!(w.calls.iter().any(|c| c.callee.is_some()));
    }

    #[test]
    fn lock_is_a_block_fact() {
        let g = graph(&[(
            "a.rs",
            "crates/a",
            "fn pop_locked(m: &M) -> Option<usize> { m.lock().pop_front() }\n\
             impl Q { fn next(&self) { pop_locked(&self.d[i]); } }",
        )]);
        assert!(node(&g, "pop_locked").trans[Fact::Block as usize]);
        assert!(node(&g, "Q::next").trans[Fact::Block as usize]);
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let g = graph(&[(
            "a.rs",
            "crates/a",
            "fn a() { b(); } fn b() { a(); x.unwrap(); }",
        )]);
        assert!(node(&g, "a").trans[Fact::Panic as usize]);
        assert!(node(&g, "b").trans[Fact::Panic as usize]);
    }
}
