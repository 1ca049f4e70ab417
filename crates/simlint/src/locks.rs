//! Lock-order analysis.
//!
//! The fleet's work stealing takes per-worker `Mutex`es from multiple
//! threads; the classic failure is two call paths acquiring the same
//! pair of locks in opposite orders. This pass builds a workspace-wide
//! *lock-acquisition graph* — an edge `A -> B` whenever some function
//! acquires lock `B` while a guard for `A` is live — and reports every
//! edge that sits on a cycle (a self-edge, i.e. re-acquiring a held
//! `std::sync::Mutex`, deadlocks unconditionally) under the rule
//! `lock-cycle`.
//!
//! Lock identities are derived from receiver text, indices collapsed:
//! `self.deques[i].lock()` inside `impl ShardQueue` is the identity
//! `ShardQueue::deques[_]` — every element of a lock *array* is one
//! identity, which is exactly the conservative choice for work stealing
//! (any two elements may be taken in either order). Locals get
//! function-scoped identities. *Lock adapters* — functions returning a
//! `MutexGuard` around a single `.lock()` — are resolved through: a
//! call `lock_recover(&self.deques[i])` acquires `ShardQueue::deques[_]`
//! at the call site, and `HostStore::lock()` always acquires
//! `HostStore::entries`.
//!
//! Guard lifetimes follow two simple scoping rules: a `let g = ...`
//! binding holds its lock until the end of the enclosing block or an
//! explicit `drop(g)`; any other consumption holds it for the rest of
//! that statement (modelling Rust's temporary extension into trailing
//! sub-blocks, e.g. `if let Some(x) = m.lock().unwrap().pop() { ... }`).

use crate::diag::Diagnostic;
use crate::graph::{visit_ops, CallEdge, CallGraph, FnNode};
use crate::parser::{Block, CallKind, Node};
use std::collections::{BTreeMap, BTreeSet};

/// A function that returns a `MutexGuard` wrapping exactly one
/// `.lock()` call.
#[derive(Debug, Clone)]
enum Adapter {
    /// Always acquires this identity (`HostStore::lock` -> `HostStore::entries`).
    Fixed(String),
    /// Acquires whatever its first non-self argument names
    /// (`lock_recover(&self.deques[i])`).
    FirstArg,
}

/// Where one lock was observed taken while another was held.
#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    col: u32,
    /// Line where the *held* lock was acquired (same file).
    held_line: u32,
    /// Function containing the acquisition.
    in_fn: String,
}

/// One live guard during the scoped walk.
struct Held {
    ident: String,
    /// `let` binder, if any — `drop(binder)` releases it early.
    binder: Option<String>,
    line: u32,
    /// Scope depth at acquisition; used to pop block-scoped guards.
    depth: usize,
    /// Statement-temporary guards die at end of statement.
    temp: bool,
}

pub struct LockPass<'g> {
    graph: &'g CallGraph,
    adapters: BTreeMap<usize, Adapter>,
    /// Transitive lock identities acquirable by each function.
    may_acquire: Vec<BTreeSet<String>>,
    edges: BTreeMap<(String, String), EdgeSite>,
}

/// Qualifies a receiver/argument chain into a lock identity, or `None`
/// when the text does not name a stable place (call results, unknown
/// receivers).
fn qualify(text: &str, node: &FnNode) -> Option<String> {
    if text.is_empty() || text.contains('(') || text.contains('?') {
        return None;
    }
    if let Some(rest) = text.strip_prefix("self.") {
        return node.def.self_ty.as_ref().map(|ty| format!("{ty}::{rest}"));
    }
    if text == "self" {
        return None;
    }
    Some(format!("{}::{text}", node.qualified()))
}

impl<'g> LockPass<'g> {
    pub fn run(graph: &'g CallGraph) -> Vec<Diagnostic> {
        let mut pass = LockPass {
            graph,
            adapters: BTreeMap::new(),
            may_acquire: vec![BTreeSet::new(); graph.nodes.len()],
            edges: BTreeMap::new(),
        };
        pass.find_adapters();
        pass.fixpoint_may_acquire();
        for i in 0..graph.nodes.len() {
            pass.walk_fn(i);
        }
        pass.report()
    }

    /// A direct `.lock()` call site, as `(receiver, line, col)`.
    fn direct_lock(site: &crate::parser::CallSite) -> Option<&str> {
        if site.name != "lock" {
            return None;
        }
        match &site.kind {
            CallKind::Method { recv } => Some(recv),
            _ => None,
        }
    }

    fn find_adapters(&mut self) {
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if !node.def.ret.split(' ').any(|t| t == "MutexGuard") {
                continue;
            }
            let mut lock_recvs = Vec::new();
            visit_ops(&node.def.body, &mut |op| {
                if let Node::Call(site) = op {
                    if let Some(recv) = Self::direct_lock(site) {
                        lock_recvs.push(recv.to_string());
                    }
                }
            });
            if lock_recvs.len() != 1 {
                continue;
            }
            let recv = &lock_recvs[0];
            let first_param = node.def.params.iter().find(|p| p.as_str() != "self");
            if first_param.is_some_and(|p| p == recv) {
                self.adapters.insert(i, Adapter::FirstArg);
            } else if let Some(id) = qualify(recv, node) {
                self.adapters.insert(i, Adapter::Fixed(id));
            }
        }
    }

    /// The identity acquired by this call site (guard-producing):
    /// either a direct `.lock()` or a call to a lock adapter.
    fn site_acquisition(&self, node: &FnNode, edge: &CallEdge) -> Option<String> {
        if let Some(id) = Self::direct_lock(&edge.site).and_then(|recv| qualify(recv, node)) {
            // `self.entries.lock()` — a plain Mutex field. An adapter
            // *named* `lock` (`self.lock()`) has no nameable receiver
            // and falls through to the adapter branch below.
            return Some(id);
        }
        match edge.callee.and_then(|c| self.adapters.get(&c)) {
            Some(Adapter::Fixed(id)) => Some(id.clone()),
            Some(Adapter::FirstArg) => edge.site.arg0.as_ref().and_then(|a| qualify(a, node)),
            None => None,
        }
    }

    fn fixpoint_may_acquire(&mut self) {
        for i in 0..self.graph.nodes.len() {
            let node = &self.graph.nodes[i];
            let mut seed = BTreeSet::new();
            for edge in &node.calls {
                if let Some(id) = self.site_acquisition(node, edge) {
                    seed.insert(id);
                }
            }
            self.may_acquire[i] = seed;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.graph.nodes.len() {
                // An adapter's acquisition is substituted at each call
                // site; propagating it here too would double-count it
                // under a possibly wrong identity.
                let mut add = Vec::new();
                for edge in &self.graph.nodes[i].calls {
                    let Some(c) = edge.callee else { continue };
                    if self.adapters.contains_key(&c) {
                        continue;
                    }
                    for id in &self.may_acquire[c] {
                        if !self.may_acquire[i].contains(id) {
                            add.push(id.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    self.may_acquire[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    fn walk_fn(&mut self, i: usize) {
        let node = &self.graph.nodes[i];
        let mut held: Vec<Held> = Vec::new();
        self.walk_block(node, &node.def.body, &mut held, 0);
    }

    fn record_edge(&mut self, node: &FnNode, held: &Held, to: &str, line: u32, col: u32) {
        let key = (held.ident.clone(), to.to_string());
        self.edges.entry(key).or_insert(EdgeSite {
            file: node.file.clone(),
            line,
            col,
            held_line: held.line,
            in_fn: node.qualified(),
        });
    }

    fn walk_block(&mut self, node: &FnNode, block: &Block, held: &mut Vec<Held>, depth: usize) {
        for stmt in &block.stmts {
            let before = held.len();
            for op in &stmt.nodes {
                match op {
                    Node::Call(site) => {
                        // `drop(g)` ends a binding's guard early.
                        if site.kind == CallKind::Free && site.name == "drop" {
                            if let Some(arg) = &site.arg0 {
                                held.retain(|h| h.binder.as_deref() != Some(arg.as_str()));
                            }
                            continue;
                        }
                        let edge = node
                            .calls
                            .iter()
                            .find(|e| e.site.line == site.line && e.site.col == site.col);
                        let Some(edge) = edge else { continue };
                        if let Some(id) = self.site_acquisition(node, edge) {
                            for h in held.iter() {
                                self.record_edge(node, h, &id, site.line, site.col);
                            }
                            held.push(Held {
                                ident: id,
                                binder: None,
                                line: site.line,
                                depth,
                                temp: true,
                            });
                        } else if let Some(c) = edge.callee {
                            // The callee may take locks internally;
                            // they are released before it returns, so
                            // the held set does not grow.
                            for id in self.may_acquire[c].clone() {
                                for h in held.iter() {
                                    self.record_edge(node, h, &id, site.line, site.col);
                                }
                            }
                        }
                    }
                    Node::Block(inner) => {
                        self.walk_block(node, inner, held, depth + 1);
                    }
                    Node::Macro(_) => {}
                }
            }
            if let Some(binder) = &stmt.let_name {
                // Guards acquired in a `let` statement live until the
                // end of the enclosing block (or an explicit drop).
                for h in &mut held[before..] {
                    h.binder = Some(binder.clone());
                    h.temp = false;
                }
            } else {
                // Statement temporaries die with the statement.
                held.retain(|h| !(h.temp && h.depth == depth));
            }
        }
        // Block scope ends: bindings made at this depth die.
        held.retain(|h| h.depth < depth || (h.depth == depth && h.temp));
    }

    fn report(&self) -> Vec<Diagnostic> {
        // Adjacency over identities, sorted for deterministic paths.
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in self.edges.keys() {
            adj.entry(a.as_str()).or_default().push(b.as_str());
        }
        let mut out = Vec::new();
        for ((a, b), site) in &self.edges {
            let Some(path) = shortest_path(&adj, b, a) else {
                continue;
            };
            let mut chain = vec![
                format!(
                    "`{a}` acquired in `{}` ({}:{})",
                    site.in_fn, site.file, site.held_line
                ),
                format!(
                    "`{b}` acquired while `{a}` is held ({}:{})",
                    site.file, site.line
                ),
            ];
            // Close the loop: b -> ... -> a through the stored edges.
            for w in path.windows(2) {
                let s = &self.edges[&(w[0].to_string(), w[1].to_string())];
                chain.push(format!(
                    "`{}` acquired while `{}` is held in `{}` ({}:{})",
                    w[1], w[0], s.in_fn, s.file, s.line
                ));
            }
            let message = if a == b {
                format!(
                    "`{a}` is re-acquired while already held — std::sync::Mutex is not \
                     reentrant, this deadlocks"
                )
            } else {
                format!(
                    "acquiring `{b}` while holding `{a}` completes a lock-order cycle \
                     ({})",
                    path_display(a, &path)
                )
            };
            out.push(
                Diagnostic::new(
                    &site.file,
                    site.line,
                    site.col,
                    "lock-cycle",
                    message,
                    "impose a single global lock order (acquire in ascending identity), or \
                     narrow the first guard's scope so it drops before the second lock",
                )
                .with_chain(chain),
            );
        }
        out
    }
}

/// Shortest identity path `from -> ... -> to` over the edge set, BFS in
/// sorted order; `Some(vec![from])` when `from == to`.
fn shortest_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        let Some(nexts) = adj.get(n) else { continue };
        for &m in nexts {
            if !seen.insert(m) {
                continue;
            }
            prev.insert(m, n);
            if m == to {
                let mut path = vec![m];
                let mut cur = m;
                while let Some(&p) = prev.get(cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(m);
        }
    }
    None
}

fn path_display(a: &str, path: &[&str]) -> String {
    let mut s = format!("`{a}`");
    for p in path {
        s.push_str(" -> `");
        s.push_str(p);
        s.push('`');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<Diagnostic> {
        let graph = CallGraph::build(vec![(
            "t.rs".to_string(),
            "crates/t".to_string(),
            parse_file(&lex(src).toks).fns,
        )]);
        LockPass::run(&graph)
    }

    #[test]
    fn opposite_order_cycle_is_reported() {
        let d = run("impl S {\n\
               fn ab(&self) { let a = self.a.lock().unwrap(); let b = self.b.lock().unwrap(); }\n\
               fn ba(&self) { let b = self.b.lock().unwrap(); let a = self.a.lock().unwrap(); }\n\
             }");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "lock-cycle"));
        assert!(
            d[0].message.contains("lock-order cycle"),
            "{}",
            d[0].message
        );
        assert!(d[0].chain.len() >= 2, "{:?}", d[0].chain);
    }

    #[test]
    fn consistent_hierarchy_is_clean() {
        let d = run("impl S {\n\
               fn one(&self) { let a = self.a.lock().unwrap(); let b = self.b.lock().unwrap(); }\n\
               fn two(&self) { let a = self.a.lock().unwrap(); let b = self.b.lock().unwrap(); }\n\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn self_reacquire_is_reported() {
        let d = run(
            "impl S { fn f(&self) { let a = self.m.lock().unwrap(); let b = self.m.lock().unwrap(); } }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not"), "{}", d[0].message);
        assert!(d[0].message.contains("re-acquired"), "{}", d[0].message);
    }

    #[test]
    fn drop_releases_before_next_lock() {
        let d = run(
            "impl S { fn f(&self) { let a = self.m.lock().unwrap(); drop(a); \
             let b = self.m.lock().unwrap(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn block_scope_releases_guard() {
        let d = run(
            "impl S { fn f(&self) { { let a = self.m.lock().unwrap(); } \
             let b = self.m.lock().unwrap(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn statement_temporary_does_not_leak() {
        // Each steal takes one lock at a time — the ShardQueue pattern.
        let d = run("impl Q { fn next(&self) { \
               if let Some(x) = self.d[a].lock().unwrap().pop_front() { return x; } \
               if let Some(x) = self.d[b].lock().unwrap().pop_back() { return x; } \
             } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cycle_through_adapter_and_callee() {
        let d = run("fn rec(m: &M) -> MutexGuard { m.lock() }\n\
             impl S {\n\
               fn outer(&self) { let g = rec(&self.a); self.inner(); }\n\
               fn inner(&self) { let g = rec(&self.b); self.back(); }\n\
               fn back(&self) { let g = rec(&self.a); }\n\
             }");
        assert!(!d.is_empty(), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("S::a")), "{d:?}");
    }

    #[test]
    fn fixed_adapter_resolves_to_field() {
        let d = run(
            "impl H { fn lock(&self) -> MutexGuard { self.entries.lock() } \
               fn append(&self) { let g = self.lock(); let h = self.lock(); } }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("H::entries"), "{}", d[0].message);
    }
}
