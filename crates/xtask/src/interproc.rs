//! The four interprocedural checks: determinism-taint certification,
//! changelog-completeness, panic-reachability, and dead-API detection.
//!
//! All four run over the [`crate::resolve::Workspace`] symbol table, the
//! [`crate::callgraph::CallGraph`], and the per-function
//! [`crate::dataflow::FnFacts`]; file scoping (which crates count, where
//! the entry points live) stays in [`crate::runner`], mirroring the split
//! used by the file-local checks.

#![allow(
    clippy::indexing_slicing,
    reason = "function ids are dense indices produced by enumerate() over the same fn table the facts vector is sized from"
)]

use std::collections::{BTreeMap, BTreeSet};

use crate::baseline::Counts;
use crate::callgraph::CallGraph;
use crate::dataflow::FnFacts;
use crate::resolve::Workspace;

/// A located site backing one ratchet count:
/// `(file, category, line, message)` — the runner's site tuple shape.
pub type Site = (String, String, u32, String);

/// Counts plus the sites behind them, ready for baseline comparison.
#[derive(Debug, Default)]
pub struct RatchetFindings {
    pub counts: Counts,
    pub sites: Vec<Site>,
}

impl RatchetFindings {
    pub(crate) fn push(&mut self, file: &str, category: String, line: u32, message: String) {
        *self
            .counts
            .entry((file.to_string(), category.clone()))
            .or_insert(0) += 1;
        self.sites.push((file.to_string(), category, line, message));
    }
}

/// Check 10 — **determinism-taint**: no function reachable from the engine
/// entry points may contain a nondeterminism source. Findings are keyed
/// `(file, <category>.<function>)` and compared against the hand-audited
/// exemption file, so every tolerated source carries a written
/// justification and disappears from the file the moment it leaves the
/// hot path.
pub fn determinism_taint(
    ws: &Workspace<'_>,
    graph: &CallGraph,
    facts: &[FnFacts],
    entries: &[(&str, &str)],
) -> RatchetFindings {
    let seeds = ws.find_entries(entries);
    let pred = graph.reachable_from(&seeds);
    let mut out = RatchetFindings::default();
    for &f in pred.keys() {
        let def = &ws.fns[f];
        for fact in &facts[f].nondet {
            let path = graph.witness_path(ws, &pred, f);
            out.push(
                def.path,
                format!("{}.{}", fact.category, def.item.name),
                fact.line,
                format!(
                    "{} inside `{}`, reachable from the engine hot path ({path})",
                    fact.what, def.item.name
                ),
            );
        }
    }
    out.sites.sort();
    out
}

/// Check 11 — **changelog-completeness**, part one: every function in
/// `vfs.rs` that structurally mutates the trie must also emit a changelog
/// delta on some path — locally, or through a callee (`remove` routes
/// through `remove_id`, which logs the delta). Returns hard violations as
/// `(file, line, message)`.
pub fn changelog_completeness(
    ws: &Workspace<'_>,
    graph: &CallGraph,
    facts: &[FnFacts],
    vfs_path: &str,
) -> Vec<(String, u32, String)> {
    let mut out = Vec::new();
    for (id, def) in ws.fns.iter().enumerate() {
        if def.path != vfs_path || facts[id].trie_muts.is_empty() {
            continue;
        }
        let reach = graph.reachable_from(&[id]);
        let emits = reach.keys().any(|&g| !facts[g].emits.is_empty());
        if !emits {
            let muts: Vec<String> = facts[id]
                .trie_muts
                .iter()
                .map(|m| format!("{} (line {})", m.what, m.line))
                .collect();
            out.push((
                def.path.to_string(),
                def.item.line,
                format!(
                    "`{}` mutates the trie — {} — but no path from it records a changelog \
                     delta; route the mutation through insert_meta/remove_id or emit the \
                     Delta explicitly, or the incremental catalog silently drifts",
                    def.item.name,
                    muts.join(", ")
                ),
            ));
        }
    }
    out.sort();
    out
}

/// Check 11, part two — the **emit census**: per-variant counts of every
/// `Delta` construction in `vfs.rs`, ratcheted both ways. Deleting any
/// single emit call (even one of two on different branches of the same
/// function, which reachability alone cannot see) changes a count and
/// fails the gate until the baseline is deliberately rewritten.
pub fn changelog_emit_census(
    ws: &Workspace<'_>,
    facts: &[FnFacts],
    vfs_path: &str,
) -> RatchetFindings {
    let mut out = RatchetFindings::default();
    for (id, def) in ws.fns.iter().enumerate() {
        if def.path != vfs_path {
            continue;
        }
        for e in &facts[id].emits {
            out.push(
                def.path,
                e.category.to_string(),
                e.line,
                format!("{} in `{}`", e.what, def.item.name),
            );
        }
    }
    out.sites.sort();
    out
}

/// Check 12 — **panic-reachability**: panic sites inside functions
/// reachable from the engine entry points, counted per file and category
/// against their own ratchet baseline. The file-local panic ratchet bounds
/// the whole library; this one bounds the subset a production replay can
/// actually hit, so it can be driven to zero first.
pub fn panic_reachability(
    ws: &Workspace<'_>,
    graph: &CallGraph,
    facts: &[FnFacts],
    entries: &[(&str, &str)],
) -> RatchetFindings {
    let seeds = ws.find_entries(entries);
    let pred = graph.reachable_from(&seeds);
    let mut out = RatchetFindings::default();
    for &f in pred.keys() {
        let def = &ws.fns[f];
        for fact in &facts[f].panics {
            let path = graph.witness_path(ws, &pred, f);
            out.push(
                def.path,
                fact.category.to_string(),
                fact.line,
                format!(
                    "{} inside `{}`, reachable from the engine hot path ({path})",
                    fact.what, def.item.name
                ),
            );
        }
    }
    out.sites.sort();
    out
}

/// Check 13 — **dead-api**: `pub fn`s in the library crates that nothing in
/// the workspace references. A function is *used* when its name occurs
/// anywhere (calls, paths, re-exports, tests, examples, benches) beyond its
/// own `fn` definitions — name-based reference reachability layered over
/// the call graph, conservative in the aliasing direction: two same-named
/// functions shadow each other into "used". Trait impls and trait default
/// methods are obligations, not API, and are skipped.
pub fn dead_api(
    ws: &Workspace<'_>,
    lib_files: &BTreeSet<String>,
    mentions: &BTreeMap<String, u32>,
    fn_defs: &BTreeMap<String, u32>,
) -> RatchetFindings {
    let mut out = RatchetFindings::default();
    for def in &ws.fns {
        let name = &def.item.name;
        if !def.item.is_pub
            || def.of_trait
            || !lib_files.contains(def.path)
            || name == "main"
            || name.starts_with('_')
        {
            continue;
        }
        let uses = mentions.get(name.as_str()).copied().unwrap_or(0);
        let defs = fn_defs.get(name.as_str()).copied().unwrap_or(0);
        if uses <= defs {
            out.push(
                def.path,
                name.clone(),
                def.item.line,
                format!(
                    "pub fn `{name}` is never referenced anywhere in the workspace \
                     (sources, tests, examples, benches); delete it or demote it from \
                     the public API"
                ),
            );
        }
    }
    out.sites.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::callgraph::CallGraph;
    use crate::dataflow;
    use crate::lexer::lex;

    fn fixture(sources: &[(&str, &str)]) -> (Vec<(String, crate::ast::File)>, Vec<String>) {
        let files: Vec<(String, crate::ast::File)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s))))
            .collect();
        let srcs = sources.iter().map(|(_, s)| s.to_string()).collect();
        (files, srcs)
    }

    const ENTRIES: &[(&str, &str)] = &[("crates/sim/src/engine.rs", "run")];

    #[test]
    fn taint_crosses_crate_boundaries_and_fix_clears_it() {
        let planted = "pub fn run() { summarize(); } ";
        let leaky = "pub fn summarize() { let m = HashMap::new(); \
                     for (k, v) in m.iter() { emit(k, v); } }";
        let fixed = "pub fn summarize() { let m = BTreeMap::new(); \
                     for (k, v) in m.iter() { emit(k, v); } }";
        for (src, expect) in [(leaky, 1usize), (fixed, 0usize)] {
            let (files, srcs) = fixture(&[
                ("crates/sim/src/engine.rs", planted),
                ("crates/core/src/report.rs", src),
            ]);
            let mut ws = Workspace::build(&files);
            for s in &srcs {
                ws.scan_hash_decls(&lex(s));
            }
            let graph = CallGraph::build(&ws);
            let facts = dataflow::compute(&ws);
            let got = determinism_taint(&ws, &graph, &facts, ENTRIES);
            assert_eq!(got.sites.len(), expect, "{:?}", got.sites);
            if expect == 1 {
                assert!(got.sites[0].3.contains("run -> summarize"));
            }
        }
    }

    #[test]
    fn unreachable_nondeterminism_is_not_taint() {
        let (files, srcs) = fixture(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn run() { work(); } fn work() {}",
            ),
            (
                "crates/trace/src/import.rs",
                "pub fn import_wallclock() { let t = SystemTime::now(); go(t); }",
            ),
        ]);
        let mut ws = Workspace::build(&files);
        for s in &srcs {
            ws.scan_hash_decls(&lex(s));
        }
        let graph = CallGraph::build(&ws);
        let facts = dataflow::compute(&ws);
        let got = determinism_taint(&ws, &graph, &facts, ENTRIES);
        assert!(got.sites.is_empty());
    }

    #[test]
    fn missing_delta_emit_is_flagged_and_routing_through_remove_id_passes() {
        let bad = "impl VirtualFs { \
                   pub fn wipe(&mut self, prefix: &str) -> u64 { \
                   self.trie.remove_subtree(prefix) } }";
        let good = "impl VirtualFs { \
                    pub fn wipe(&mut self, prefix: &str) -> u64 { \
                    let victims = self.collect(prefix); \
                    victims.into_iter().filter_map(|id| self.remove_id(id)).sum() } \
                    pub fn remove_id(&mut self, id: NodeId) -> Option<FileMeta> { \
                    let meta = self.trie.remove_id(id)?; \
                    if let Some(log) = self.changelog.as_mut() { \
                    log.record(Delta::Remove { id }); } Some(meta) } }";
        for (src, expect) in [(bad, 1usize), (good, 0usize)] {
            let (files, _) = fixture(&[("crates/fs/src/vfs.rs", src)]);
            let ws = Workspace::build(&files);
            let graph = CallGraph::build(&ws);
            let facts = dataflow::compute(&ws);
            let got = changelog_completeness(&ws, &graph, &facts, "crates/fs/src/vfs.rs");
            assert_eq!(got.len(), expect, "{got:?}");
        }
    }

    #[test]
    fn emit_census_counts_per_variant() {
        let src = "impl VirtualFs { fn a(&mut self) { \
                   log.record(Delta::Upsert { path, id, meta }); \
                   log.record(Delta::Remove { id }); } \
                   fn b(&mut self) { log.record(Delta::Remove { id }); } }";
        let (files, _) = fixture(&[("crates/fs/src/vfs.rs", src)]);
        let ws = Workspace::build(&files);
        let facts = dataflow::compute(&ws);
        let got = changelog_emit_census(&ws, &facts, "crates/fs/src/vfs.rs");
        let upserts = got
            .counts
            .get(&("crates/fs/src/vfs.rs".to_string(), "upsert".to_string()))
            .copied();
        let removes = got
            .counts
            .get(&("crates/fs/src/vfs.rs".to_string(), "remove".to_string()))
            .copied();
        assert_eq!(upserts, Some(1));
        assert_eq!(removes, Some(2));
    }

    #[test]
    fn reachable_panic_is_counted_and_unreachable_is_not() {
        let (files, _) = fixture(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn run() { hot(); } fn hot() { v.sort(); }",
            ),
            (
                "crates/core/src/rank.rs",
                "pub fn hot() {} pub fn cold(o: Option<u32>) -> u32 { o.unwrap() }",
            ),
        ]);
        let ws = Workspace::build(&files);
        let graph = CallGraph::build(&ws);
        let facts = dataflow::compute(&ws);
        let got = panic_reachability(&ws, &graph, &facts, ENTRIES);
        assert!(got.sites.is_empty(), "{:?}", got.sites);

        let (files, _) = fixture(&[(
            "crates/sim/src/engine.rs",
            "pub fn run(o: Option<u32>) { hot(o); } fn hot(o: Option<u32>) -> u32 { o.unwrap() }",
        )]);
        let ws = Workspace::build(&files);
        let graph = CallGraph::build(&ws);
        let facts = dataflow::compute(&ws);
        let got = panic_reachability(&ws, &graph, &facts, ENTRIES);
        assert_eq!(got.sites.len(), 1);
        assert_eq!(got.sites[0].1, "unwrap");
    }

    #[test]
    fn dead_pub_fn_is_flagged_until_referenced() {
        let lib: BTreeSet<String> = ["crates/core/src/rank.rs".to_string()].into();
        let src_dead = "pub fn orphan(x: u32) -> u32 { x }";
        let src_used = "pub fn orphan(x: u32) -> u32 { x } fn caller() { orphan(1); }";
        for (src, expect) in [(src_dead, 1usize), (src_used, 0usize)] {
            let (files, _) = fixture(&[("crates/core/src/rank.rs", src)]);
            let ws = Workspace::build(&files);
            let mut mentions = BTreeMap::new();
            let mut fn_defs = BTreeMap::new();
            crate::runner::count_mentions(&lex(src), &mut mentions, &mut fn_defs);
            let got = dead_api(&ws, &lib, &mentions, &fn_defs);
            assert_eq!(got.sites.len(), expect, "{:?}", got.sites);
        }
    }
}
