//! Workspace call graph over the [`crate::resolve::Workspace`] symbol table.
//!
//! Nodes are function definitions; edges are resolved call sites *and* bare
//! path references (`map(Self::helper)`, `Box::new(ActiveDr::default)`), so
//! reachability covers functions passed as values. Trait dispatch is
//! over-approximated: a method call resolves to every impl of that name
//! (subject to the qualifier rules in [`crate::resolve`]), which is exactly
//! what a sound reachability certification wants — if *any* policy's `run`
//! can be invoked from the engine, all of them are on the hot path.

#![allow(
    clippy::indexing_slicing,
    reason = "function ids are dense indices produced by enumerate() over the same fn table the vectors here are sized from"
)]

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ast::{Expr, ExprKind};
use crate::resolve::Workspace;
use crate::visit;

/// The graph: `callees[f]` is the set of function ids `f` calls or
/// references; `called_by[f]` counts incoming references (for dead-API).
#[derive(Debug, Default)]
pub struct CallGraph {
    pub callees: Vec<BTreeSet<usize>>,
    pub callers: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Build the graph by resolving every call/reference in every body.
    pub fn build(ws: &Workspace<'_>) -> CallGraph {
        let n = ws.fns.len();
        let mut g = CallGraph {
            callees: vec![BTreeSet::new(); n],
            callers: vec![BTreeSet::new(); n],
        };
        for (id, def) in ws.fns.iter().enumerate() {
            let Some(body) = &def.item.body else {
                continue;
            };
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            let mut on_expr = |e: &Expr| match &e.kind {
                ExprKind::Call { callee, .. } => {
                    if let ExprKind::Path(p) = &callee.kind {
                        targets.extend(ws.resolve_path_call(p, def));
                    }
                }
                ExprKind::Method { recv, name, .. } => {
                    let recv_is_self = matches!(&recv.kind, ExprKind::Path(p) if p == "self");
                    targets.extend(ws.resolve_method_call(name, recv_is_self, def));
                }
                // A bare path in argument position may be a function
                // reference; only qualified paths are trusted (a lone
                // `run` is usually a local variable, not `Engine::run`).
                ExprKind::Path(p) if p.contains("::") => {
                    targets.extend(ws.resolve_path_call(p, def));
                }
                _ => {}
            };
            for stmt in &body.stmts {
                visit_stmt_exprs(stmt, &mut on_expr);
            }
            targets.remove(&id); // self-recursion adds nothing to reachability
            for t in &targets {
                g.callers[*t].insert(id);
            }
            g.callees[id] = targets;
        }
        g
    }

    /// Every function reachable from `seeds` (seeds included), with, for
    /// each reached function, its BFS predecessor — enough to reconstruct
    /// one witness call path for diagnostics.
    pub fn reachable_from(&self, seeds: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut pred: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            if let Entry::Vacant(v) = pred.entry(s) {
                v.insert(None);
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &t in &self.callees[f] {
                if let Entry::Vacant(v) = pred.entry(t) {
                    v.insert(Some(f));
                    queue.push_back(t);
                }
            }
        }
        pred
    }

    /// Render one witness call path `seed → … → target` using BFS
    /// predecessors, as function names.
    pub fn witness_path(
        &self,
        ws: &Workspace<'_>,
        pred: &BTreeMap<usize, Option<usize>>,
        target: usize,
    ) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut cur = Some(target);
        while let Some(f) = cur {
            names.push(&ws.fns[f].item.name);
            cur = pred.get(&f).copied().flatten();
            if names.len() > 64 {
                break; // defensive: predecessor maps are acyclic by construction
            }
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// Visit every expression under one statement (shared with the builder).
fn visit_stmt_exprs(stmt: &crate::ast::Stmt, f: &mut dyn FnMut(&Expr)) {
    use crate::ast::Stmt;
    match stmt {
        Stmt::Let { init, .. } => {
            if let Some(e) = init {
                visit::visit_expr(e, f);
            }
        }
        Stmt::Expr { expr, .. } => visit::visit_expr(expr, f),
        // Nested items hold their own workspace-indexed functions.
        Stmt::Item(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    fn build(sources: &[(&str, &str)]) -> (Vec<(String, crate::ast::File)>, Vec<usize>) {
        let files: Vec<(String, crate::ast::File)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s))))
            .collect();
        (files, Vec::new())
    }

    fn id_of(ws: &Workspace<'_>, name: &str) -> usize {
        ws.fns
            .iter()
            .enumerate()
            .find(|(_, d)| d.item.name == name)
            .map(|(i, _)| i)
            .expect("fn present")
    }

    #[test]
    fn cross_crate_calls_create_edges() {
        let (files, _) = build(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn run() { helper(); } fn helper() { score(1.0); }",
            ),
            (
                "crates/core/src/rank.rs",
                "pub fn score(x: f64) -> f64 { x }",
            ),
        ]);
        let ws = Workspace::build(&files);
        let g = CallGraph::build(&ws);
        let run = id_of(&ws, "run");
        let score = id_of(&ws, "score");
        let reach = g.reachable_from(&[run]);
        assert!(reach.contains_key(&score));
        let path = g.witness_path(&ws, &reach, score);
        assert_eq!(path, "run -> helper -> score");
    }

    #[test]
    fn method_dispatch_over_approximates_trait_impls() {
        let (files, _) = build(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn run_engine(p: &dyn RetentionPolicy) { p.decide(r); }",
            ),
            (
                "crates/core/src/policy/flt.rs",
                "impl RetentionPolicy for Flt { fn decide(&self, r: R) -> O { O } }",
            ),
            (
                "crates/core/src/policy/activedr.rs",
                "impl RetentionPolicy for ActiveDr { fn decide(&self, r: R) -> O { O } }",
            ),
        ]);
        let ws = Workspace::build(&files);
        let g = CallGraph::build(&ws);
        let run = id_of(&ws, "run_engine");
        let reach = g.reachable_from(&[run]);
        let decides = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, d)| d.item.name == "decide")
            .count();
        assert_eq!(decides, 2);
        assert_eq!(
            reach.len(),
            3,
            "both trait impls must be reachable from the dispatch site"
        );
    }

    #[test]
    fn function_references_count_as_edges() {
        let (files, _) = build(&[(
            "crates/core/src/x.rs",
            "impl S { pub fn drive(&self) { self.items.map(Self::score); } \
             fn score(x: u32) -> u32 { x } }",
        )]);
        let ws = Workspace::build(&files);
        let g = CallGraph::build(&ws);
        let drive = id_of(&ws, "drive");
        let score = id_of(&ws, "score");
        assert!(g.callees[drive].contains(&score));
    }
}
