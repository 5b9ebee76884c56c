//! Per-function forward dataflow: local facts for the interprocedural
//! checks.
//!
//! For every function in the [`crate::resolve::Workspace`] this module
//! computes, in one forward pass over the body (closures included):
//!
//! * **nondeterminism sources** — wall-clock reads (`Instant::now`,
//!   `SystemTime::now`), ambient entropy (`thread_rng`, `OsRng`,
//!   `RandomState`, `getrandom`), thread identity (`thread::current`), and
//!   — the one a token grep cannot see — *iteration over a hash
//!   container*. Hash-typed values are tracked by a small gen-only taint
//!   lattice: a binding is tainted when its declared type or initializer
//!   is a `HashMap`/`HashSet` (literally, via a hash-returning function,
//!   or by copy from another tainted binding), and iterating any tainted
//!   value, hash-typed field, or hash-returning call result is a source.
//! * **panic sites** — `unwrap`/`expect` calls, panicking macros, index
//!   expressions — with the same categories as the token-level check, so
//!   the panic-reachability ratchet reads like the file-local one.
//! * **trie mutations and changelog emits** — method calls on the `trie`
//!   field of `VirtualFs` that structurally mutate it, and `Delta`
//!   constructions handed to `Changelog::record`; the
//!   changelog-completeness check matches the two sets up.
//!
//! The pass is deliberately gen-only (no kill on rebinding): rebinding a
//! name away from a hash container and then iterating it is rare enough
//! that the false positive is worth the simpler, obviously-terminating
//! analysis.

#![allow(
    clippy::indexing_slicing,
    reason = "function ids are dense indices produced by enumerate() over the same fn table the facts vector is sized from"
)]

use std::collections::BTreeSet;

use crate::ast::{Block, Expr, ExprKind, Stmt};
use crate::resolve::Workspace;

/// Hash-container methods that observe iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// `PathTrie` methods that structurally mutate the index.
const TRIE_MUTATORS: &[&str] = &[
    "insert",
    "remove_id",
    "rename",
    "remove_subtree",
    "meta_mut",
];

/// One located fact.
#[derive(Debug, Clone)]
pub struct Fact {
    pub line: u32,
    /// Baseline category (`instant-now`, `hash-iter`, `unwrap`, `index`,
    /// `upsert`, …).
    pub category: &'static str,
    /// Human-readable description of the site.
    pub what: String,
}

/// Everything the interprocedural checks need to know about one function
/// body in isolation.
#[derive(Debug, Default)]
pub struct FnFacts {
    pub nondet: Vec<Fact>,
    pub panics: Vec<Fact>,
    /// Mutating method calls on a `trie` receiver (vfs only in practice).
    pub trie_muts: Vec<Fact>,
    /// `Delta::…` constructions (changelog emits).
    pub emits: Vec<Fact>,
}

/// Compute [`FnFacts`] for every function in the workspace, indexed like
/// [`Workspace::fns`].
pub fn compute(ws: &Workspace<'_>) -> Vec<FnFacts> {
    ws.fns
        .iter()
        .map(|def| {
            let mut a = Analysis {
                ws,
                facts: FnFacts::default(),
                tainted: BTreeSet::new(),
            };
            if let Some(body) = &def.item.body {
                a.block(body);
            }
            a.facts
        })
        .collect()
}

struct Analysis<'w, 'a> {
    ws: &'w Workspace<'a>,
    facts: FnFacts,
    /// Names of hash-typed local bindings (gen-only).
    tainted: BTreeSet<String>,
}

/// Last path segment of a space-joined path (`std :: thread :: current`
/// → `current`).
fn segments(path: &str) -> Vec<&str> {
    path.split("::")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.split_whitespace().next().unwrap_or(""))
        .collect()
}

/// The binding name a `let` pattern introduces (`mut cursors` → `cursors`);
/// `None` for `_`, tuple and struct patterns.
fn binding_name(pat: &str) -> Option<&str> {
    let words: Vec<&str> = pat
        .split_whitespace()
        .filter(|w| *w != "mut" && *w != "ref")
        .collect();
    match words.as_slice() {
        [name, rest @ ..] if (rest.is_empty() || rest.first() == Some(&":")) => {
            if *name == "_" || !name.chars().next().is_some_and(unicode_ident_start) {
                None
            } else {
                Some(name)
            }
        }
        _ => None,
    }
}

fn unicode_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

impl Analysis<'_, '_> {
    /// Is this expression a hash container, as far as the local lattice and
    /// the workspace type facts can tell?
    fn is_hash(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Path(p) => {
                let segs = segments(p);
                segs.len() == 1
                    && segs.first().is_some_and(|n| {
                        self.tainted.contains(*n) || self.ws.hash_fields.contains(*n)
                    })
            }
            ExprKind::Field { name, .. } => {
                self.ws.hash_fields.contains(name) || self.tainted.contains(name)
            }
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Path(p) = &callee.kind {
                    let segs = segments(p);
                    // `HashMap::new()` / `HashSet::with_capacity(…)` or a
                    // call to a hash-returning function.
                    segs.iter().any(|s| *s == "HashMap" || *s == "HashSet")
                        || segs
                            .last()
                            .is_some_and(|n| self.ws.hash_returning.contains(n))
                } else {
                    false
                }
            }
            ExprKind::Method { name, recv, .. } => {
                self.ws.hash_returning.contains(name.as_str())
                    || (name == "clone" && self.is_hash(recv))
            }
            ExprKind::Ref(inner) | ExprKind::Try(inner) => self.is_hash(inner),
            ExprKind::Block(b) => b.stmts.last().is_some_and(
                |s| matches!(s, Stmt::Expr { expr, semi: false } if self.is_hash(expr)),
            ),
            _ => false,
        }
    }

    fn block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { pat, init, line } => {
                    if let Some(e) = init {
                        self.expr(e);
                    }
                    let hash_ascribed = pat
                        .split_whitespace()
                        .any(|w| w == "HashMap" || w == "HashSet");
                    let hash_init = init.as_ref().is_some_and(|e| self.is_hash(e));
                    if hash_ascribed || hash_init {
                        if let Some(name) = binding_name(pat) {
                            let _ = line;
                            self.tainted.insert(name.to_string());
                        }
                    }
                }
                Stmt::Expr { expr, .. } => self.expr(expr),
                Stmt::Item(item) => {
                    // Nested fn items are indexed as their own workspace
                    // functions; don't double-count their bodies here.
                    let _ = item;
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Path(p) => self.path_facts(p, e.line),
            ExprKind::Call { callee, args } => {
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Method {
                recv, name, args, ..
            } => {
                self.method_facts(recv, name, args, e.line);
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::MacroCall { name, args } => {
                for (mac, cat) in [
                    ("panic", "panic"),
                    ("unreachable", "unreachable"),
                    ("todo", "todo"),
                    ("unimplemented", "unimplemented"),
                ] {
                    if name == mac {
                        self.facts.panics.push(Fact {
                            line: e.line,
                            category: cat,
                            what: format!("{mac}! macro"),
                        });
                    }
                }
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Index { base, index } => {
                self.facts.panics.push(Fact {
                    line: e.line,
                    category: "index",
                    what: "index expression (can panic on out-of-bounds)".to_string(),
                });
                self.expr(base);
                self.expr(index);
            }
            ExprKind::ForLoop { iter, body, .. } => {
                if self.is_hash(iter) {
                    self.facts.nondet.push(Fact {
                        line: e.line,
                        category: "hash-iter",
                        what: "for-loop over a HashMap/HashSet (iteration order is arbitrary)"
                            .to_string(),
                    });
                }
                self.expr(iter);
                self.block(body);
            }
            ExprKind::StructLit { fields, .. } => {
                // `Delta::…` literals only count as emits when they are
                // handed to `record` (see `method_facts`): a constructed-
                // but-unrecorded delta is precisely the bug the
                // changelog-completeness check exists to catch.
                for f in fields {
                    self.expr(f);
                }
            }
            ExprKind::Block(b) => self.block(b),
            ExprKind::If {
                cond, then, els, ..
            } => {
                self.expr(cond);
                self.block(then);
                if let Some(els) = els {
                    self.expr(els);
                }
            }
            ExprKind::While { cond, body, .. } => {
                self.expr(cond);
                self.block(body);
            }
            ExprKind::Loop { body } => self.block(body),
            ExprKind::Match { scrutinee, arms } => {
                self.expr(scrutinee);
                for (_, v) in arms {
                    self.expr(v);
                }
            }
            _ => crate::visit::walk_expr(e, &mut |child| self.expr(child)),
        }
    }

    fn path_facts(&mut self, path: &str, line: u32) {
        let segs = segments(path);
        let suffix2 = |a: &str, b: &str| {
            segs.len() >= 2 && segs[segs.len() - 2] == a && segs[segs.len() - 1] == b
        };
        if suffix2("Instant", "now") {
            self.push_nondet(line, "instant-now", "Instant::now() wall-clock read");
        }
        if suffix2("SystemTime", "now") {
            self.push_nondet(line, "systemtime-now", "SystemTime::now() wall-clock read");
        }
        if suffix2("thread", "current") {
            self.push_nondet(line, "thread-id", "thread::current() identity read");
        }
        if segs.contains(&"RandomState") {
            self.push_nondet(line, "random-state", "RandomState is entropy-seeded");
        }
        for ent in [
            "thread_rng",
            "from_entropy",
            "from_os_rng",
            "OsRng",
            "getrandom",
        ] {
            if segs.contains(&ent) {
                self.push_nondet(line, "entropy", &format!("`{ent}` ambient-entropy source"));
            }
        }
        if suffix2("rand", "random") {
            self.push_nondet(line, "entropy", "rand::random() ambient-entropy draw");
        }
    }

    fn push_nondet(&mut self, line: u32, category: &'static str, what: &str) {
        self.facts.nondet.push(Fact {
            line,
            category,
            what: what.to_string(),
        });
    }

    fn method_facts(&mut self, recv: &Expr, name: &str, args: &[Expr], line: u32) {
        if (name == "unwrap" || name == "expect") && args.len() <= 1 {
            self.facts.panics.push(Fact {
                line,
                category: if name == "unwrap" { "unwrap" } else { "expect" },
                what: format!("call to .{name}()"),
            });
        }
        if HASH_ITER_METHODS.contains(&name) && self.is_hash(recv) {
            self.facts.nondet.push(Fact {
                line,
                category: "hash-iter",
                what: format!(".{name}() over a HashMap/HashSet (iteration order is arbitrary)"),
            });
        }
        if TRIE_MUTATORS.contains(&name)
            && matches!(&recv.kind, ExprKind::Field { name: f, .. } if f == "trie")
        {
            self.facts.trie_muts.push(Fact {
                line,
                category: "trie-mut",
                what: format!(".{name}() on the trie"),
            });
        }
        if name == "record" {
            // `log.record(Delta::…)` — scan the argument for the variant.
            for a in args {
                self.scan_delta(a);
            }
        }
    }

    /// Record `Delta::Variant`/`Delta::Variant { … }` constructions.
    fn scan_delta(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Path(p) => self.delta_facts(p, e.line),
            ExprKind::StructLit { path, fields } => {
                self.delta_facts(path, e.line);
                for f in fields {
                    self.scan_delta(f);
                }
            }
            _ => crate::visit::walk_expr(e, &mut |child| self.scan_delta(child)),
        }
    }

    fn delta_facts(&mut self, path: &str, line: u32) {
        let segs = segments(path);
        if segs.len() >= 2 && segs[segs.len() - 2] == "Delta" {
            let category = match segs[segs.len() - 1] {
                "Upsert" => "upsert",
                "Touch" => "touch",
                "Remove" => "remove",
                _ => "other",
            };
            self.facts.emits.push(Fact {
                line,
                category,
                what: format!("Delta::{} emit", segs[segs.len() - 1]),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    fn facts_of(sources: &[(&str, &str)], fn_name: &str) -> FnFacts {
        let files: Vec<(String, crate::ast::File)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s))))
            .collect();
        let mut ws = Workspace::build(&files);
        for (_, s) in sources {
            ws.scan_hash_decls(&lex(s));
        }
        let all = compute(&ws);
        let (idx, _) = ws
            .fns
            .iter()
            .enumerate()
            .find(|(_, d)| d.item.name == fn_name)
            .expect("fn indexed");
        let f = &all[idx];
        FnFacts {
            nondet: f.nondet.clone(),
            panics: f.panics.clone(),
            trie_muts: f.trie_muts.clone(),
            emits: f.emits.clone(),
        }
    }

    #[test]
    fn local_hash_iteration_is_tainted() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); \
                   for (k, v) in m.iter() { use_it(k, v); } }";
        let f = facts_of(&[("crates/core/src/x.rs", src)], "f");
        assert_eq!(f.nondet.len(), 1);
        assert_eq!(f.nondet[0].category, "hash-iter");
    }

    #[test]
    fn hash_returning_call_iteration_is_tainted() {
        let src = "pub fn by_user() -> HashMap<u32, u64> { HashMap::new() }\n\
                   fn g() { let v: Vec<_> = by_user().into_iter().collect(); v.len(); }";
        let f = facts_of(&[("crates/core/src/x.rs", src)], "g");
        assert_eq!(f.nondet.len(), 1, "{:?}", f.nondet);
    }

    #[test]
    fn hash_field_iteration_is_tainted_and_btreemap_is_not() {
        let src = "struct S { by_id: HashMap<u32, u64>, sorted: BTreeMap<u32, u64> }\n\
                   impl S { fn a(&self) { for x in self.by_id.values() { go(x); } } \n\
                            fn b(&self) { for x in self.sorted.values() { go(x); } } }";
        let fa = facts_of(&[("crates/core/src/x.rs", src)], "a");
        assert_eq!(fa.nondet.len(), 1);
        let fb = facts_of(&[("crates/core/src/x.rs", src)], "b");
        assert!(fb.nondet.is_empty());
    }

    #[test]
    fn clocks_and_entropy_are_sources() {
        let src = "fn f() { let t = Instant::now(); let r = rand::random(); t.elapsed(); r }";
        let f = facts_of(&[("crates/core/src/x.rs", src)], "f");
        let cats: Vec<&str> = f.nondet.iter().map(|x| x.category).collect();
        assert!(cats.contains(&"instant-now"));
        assert!(cats.contains(&"entropy"));
    }

    #[test]
    fn panic_sites_are_categorised() {
        let src = "fn f(v: Vec<u32>, o: Option<u32>) -> u32 { \
                   if v.is_empty() { panic!(\"empty\"); } o.unwrap() + v[0] }";
        let f = facts_of(&[("crates/core/src/x.rs", src)], "f");
        let cats: Vec<&str> = f.panics.iter().map(|x| x.category).collect();
        assert_eq!(cats, vec!["panic", "unwrap", "index"]);
    }

    #[test]
    fn trie_mutations_and_delta_emits_are_seen() {
        let src = "impl VirtualFs { fn insert_meta(&mut self) { \
                   let inserted = self.trie.insert(path, meta); \
                   if let Some(log) = self.changelog.as_mut() { \
                   log.record(Delta::Upsert { path: p, id, meta }); } } }";
        let f = facts_of(&[("crates/fs/src/vfs.rs", src)], "insert_meta");
        assert_eq!(f.trie_muts.len(), 1);
        assert_eq!(f.emits.len(), 1);
        assert_eq!(f.emits[0].category, "upsert");
    }
}
