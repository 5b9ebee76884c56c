//! Workspace symbol table and module-aware name resolution.
//!
//! The interprocedural checks ([`crate::interproc`]) need to answer "which
//! function does this call land in?" across crate boundaries. Full Rust name
//! resolution is out of reach for a hand-rolled parser that skips `use`
//! items, so resolution is *name-based with qualifiers*: every function in
//! every product crate is indexed by bare name, by `(impl type, name)`, and
//! by defining file, and call sites are resolved with the strongest
//! qualifier available:
//!
//! * `Type::name(…)` / `Self::name(…)` paths resolve through the impl-type
//!   index (so `PathTrie::insert` never aliases `HashMap::insert`);
//! * `self.name(…)` method calls prefer candidates in the receiver's own
//!   impl block, then the same file;
//! * bare `name(…)` calls prefer same-file candidates;
//! * remaining method calls resolve to *every* function of that name — a
//!   sound over-approximation for reachability analyses — except for names
//!   on the [`AMBIGUOUS_METHODS`] list, which collide with ubiquitous std
//!   container/iterator methods and would otherwise wire the whole
//!   workspace together.
//!
//! The table also records the two type facts the dataflow engine needs
//! without a type checker: which functions *return* a `HashMap`/`HashSet`
//! (from the captured return-type text) and which struct fields or
//! ascribed bindings *are* hash containers (from a token scan for
//! `name : HashMap<…>` / `name : HashSet<…>` declarations).

#![allow(
    clippy::indexing_slicing,
    reason = "function ids are dense indices produced by enumerate() over the fn table itself; the index maps only ever hold such ids"
)]

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{File, FnItem, Item};
use crate::lexer::{Tok, Token};

/// Method names that collide with std container/iterator methods: a bare
/// `x.insert(…)` is overwhelmingly a std map/set/Vec call, so no call edge
/// is created for them unless a `self.`/`Type::` qualifier disambiguates.
pub const AMBIGUOUS_METHODS: &[&str] = &[
    "insert",
    "remove",
    "push",
    "pop",
    "replace",
    "take",
    "swap",
    "extend",
    "get",
    "get_mut",
    "new",
    "len",
    "is_empty",
    "clear",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "drain",
    "retain",
    "contains",
    "contains_key",
    "entry",
    "or_insert",
    "sort",
    "sort_by",
    "sort_by_key",
    "map",
    "filter",
    "fold",
    "collect",
    "sum",
    "min",
    "max",
    "count",
    "last",
    "first",
    "split",
    "join",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "from",
    "into",
    "with_capacity",
    "to_string",
    "write",
    "flush",
    "name",
];

/// One function definition in the workspace.
#[derive(Debug)]
pub struct FnDef<'a> {
    /// Index into the file list handed to [`Workspace::build`].
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub path: &'a str,
    /// The parsed function item (body, return type, visibility, line).
    pub item: &'a FnItem,
    /// First segment of the surrounding `impl` type (`VirtualFs` for
    /// `impl VirtualFs`, `PathTrie` for `impl Index for PathTrie`), empty
    /// for free functions.
    pub impl_ty: String,
    /// True inside `impl Trait for Type` blocks and `trait` bodies: the
    /// function satisfies an interface obligation rather than offering API.
    pub of_trait: bool,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct Workspace<'a> {
    pub fns: Vec<FnDef<'a>>,
    /// Bare name → every definition.
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// `(impl type first segment, name)` → definitions.
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    /// file index → definitions in that file.
    by_file: BTreeMap<usize, Vec<usize>>,
    /// Names whose captured return type mentions `HashMap`/`HashSet`.
    pub hash_returning: BTreeSet<&'a str>,
    /// Field/binding names declared with a hash-container type anywhere in
    /// the workspace (`quadrant_of : HashMap < … >`).
    pub hash_fields: BTreeSet<String>,
}

fn first_segment(ty: &str) -> String {
    ty.split_whitespace().next().unwrap_or_default().to_string()
}

fn ty_is_hash(ty: &str) -> bool {
    ty.split_whitespace()
        .any(|w| w == "HashMap" || w == "HashSet")
}

impl<'a> Workspace<'a> {
    /// Build the table over `files`: `(workspace-relative path, ast)` pairs,
    /// in the runner's stable file order.
    pub fn build(files: &'a [(String, File)]) -> Workspace<'a> {
        let mut ws = Workspace::default();
        for (idx, (path, file)) in files.iter().enumerate() {
            for item in &file.items {
                ws.collect_item(idx, path, item, "", false);
            }
        }
        ws
    }

    fn collect_item(
        &mut self,
        file: usize,
        path: &'a str,
        item: &'a Item,
        impl_ty: &str,
        of_trait: bool,
    ) {
        match item {
            Item::Fn(f) => {
                if f.name.is_empty() {
                    return;
                }
                let id = self.fns.len();
                if f.ret.as_deref().is_some_and(ty_is_hash) {
                    self.hash_returning.insert(&f.name);
                }
                self.fns.push(FnDef {
                    file,
                    path,
                    item: f,
                    impl_ty: impl_ty.to_string(),
                    of_trait,
                });
                self.by_name.entry(&f.name).or_default().push(id);
                if !impl_ty.is_empty() {
                    self.by_impl
                        .entry((impl_ty.to_string(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                self.by_file.entry(file).or_default().push(id);
            }
            Item::Impl {
                self_ty,
                of_trait,
                items,
            } => {
                let ty = first_segment(self_ty);
                for it in items {
                    self.collect_item(file, path, it, &ty, *of_trait);
                }
            }
            Item::Mod { items, .. } => {
                for it in items {
                    self.collect_item(file, path, it, impl_ty, of_trait);
                }
            }
        }
    }

    /// Record hash-typed field/binding names from one file's token stream
    /// (`name : HashMap <` / `name : HashSet <` at any nesting). This is a
    /// token scan because the parser skips `struct` bodies.
    pub fn scan_hash_decls(&mut self, tokens: &[Token]) {
        for i in 2..tokens.len() {
            let is_hash =
                matches!(&tokens[i].tok, Tok::Ident(s) if s == "HashMap" || s == "HashSet");
            if !is_hash {
                continue;
            }
            // Walk back over an optional qualifying path
            // (`std :: collections :: HashMap`).
            let mut j = i;
            while j >= 2
                && matches!(&tokens[j - 1].tok, Tok::Punct("::"))
                && matches!(&tokens[j - 2].tok, Tok::Ident(_))
            {
                j -= 2;
            }
            if j >= 2 {
                if let (Tok::Ident(name), Tok::Punct(":")) =
                    (&tokens[j - 2].tok, &tokens[j - 1].tok)
                {
                    self.hash_fields.insert(name.clone());
                }
            }
        }
    }

    /// All definitions of `name`.
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Definitions of `name` under impl blocks for `ty`.
    fn defs_in_impl(&self, ty: &str, name: &str) -> &[usize] {
        self.by_impl
            .get(&(ty.to_string(), name.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    fn defs_in_file(&self, file: usize, name: &str) -> Vec<usize> {
        self.by_file
            .get(&file)
            .map_or(&[] as &[usize], Vec::as_slice)
            .iter()
            .copied()
            .filter(|&id| self.fns[id].item.name == name)
            .collect()
    }

    /// Resolve a call through a path expression (`helper(…)`,
    /// `Type::method(…)`, `crate::module::helper(…)`). `from` locates the
    /// call site for same-file/same-impl preference.
    pub fn resolve_path_call(&self, path_text: &str, from: &FnDef<'a>) -> Vec<usize> {
        let segs: Vec<&str> = path_text
            .split("::")
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.split_whitespace().next().unwrap_or(""))
            .collect();
        let Some(&name) = segs.last() else {
            return Vec::new();
        };
        if self.defs_named(name).is_empty() {
            return Vec::new();
        }
        if segs.len() >= 2 {
            let qual = segs[segs.len() - 2];
            if qual == "Self" || qual == "self" {
                let same = self.defs_in_impl(&from.impl_ty, name);
                if !same.is_empty() {
                    return same.to_vec();
                }
                return self.defs_in_file(from.file, name);
            }
            // `Type::name` — only impl-type matches count; a qualified path
            // that matches nothing in the workspace (e.g. `HashMap::new`)
            // resolves to nothing rather than to every `new`.
            let in_impl = self.defs_in_impl(qual, name);
            if !in_impl.is_empty() {
                return in_impl.to_vec();
            }
            // `module::name` — fall back to the bare name only when the
            // qualifier is lowercase (a module, not a foreign type).
            if qual.chars().next().is_some_and(char::is_uppercase) {
                return Vec::new();
            }
            return self.defs_named(name).to_vec();
        }
        // Unqualified call: prefer the same file (module-local fn), else any.
        let local = self.defs_in_file(from.file, name);
        if !local.is_empty() {
            return local;
        }
        self.defs_named(name).to_vec()
    }

    /// Resolve a method call `recv.name(…)`. `recv_is_self` is true for a
    /// literal `self` receiver.
    pub fn resolve_method_call(
        &self,
        name: &str,
        recv_is_self: bool,
        from: &FnDef<'a>,
    ) -> Vec<usize> {
        if self.defs_named(name).is_empty() {
            return Vec::new();
        }
        if recv_is_self {
            let same = self.defs_in_impl(&from.impl_ty, name);
            if !same.is_empty() {
                return same.to_vec();
            }
            let local = self.defs_in_file(from.file, name);
            if !local.is_empty() {
                return local;
            }
        }
        if AMBIGUOUS_METHODS.contains(&name) {
            return Vec::new();
        }
        self.defs_named(name).to_vec()
    }

    /// Find the definition ids for `(path suffix, fn name)` entry points.
    pub fn find_entries(&self, entries: &[(&str, &str)]) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, def) in self.fns.iter().enumerate() {
            if entries
                .iter()
                .any(|(p, n)| def.path.ends_with(p) && def.item.name == *n)
            {
                out.push(id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    fn ws_from(sources: &[(&str, &str)]) -> Vec<(String, File)> {
        sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s))))
            .collect()
    }

    #[test]
    fn qualified_paths_resolve_through_impl_types() {
        let files = ws_from(&[
            (
                "crates/fs/src/trie.rs",
                "impl PathTrie { pub fn insert(&mut self) {} }",
            ),
            (
                "crates/fs/src/vfs.rs",
                "impl VirtualFs { fn go(&mut self) { PathTrie::insert(x); } }",
            ),
        ]);
        let ws = Workspace::build(&files);
        let from = ws
            .fns
            .iter()
            .find(|d| d.item.name == "go")
            .expect("go indexed");
        let hits = ws.resolve_path_call("PathTrie :: insert", from);
        assert_eq!(hits.len(), 1);
        assert_eq!(ws.fns[hits[0]].impl_ty, "PathTrie");
        // A foreign qualified path resolves to nothing, not to every `insert`.
        assert!(ws.resolve_path_call("HashMap :: insert", from).is_empty());
    }

    #[test]
    fn self_method_calls_prefer_own_impl() {
        let files = ws_from(&[(
            "crates/fs/src/vfs.rs",
            "impl VirtualFs { fn a(&self) { self.b(); } fn b(&self) {} }\n\
             impl Other { fn b(&self) {} }",
        )]);
        let ws = Workspace::build(&files);
        let from = ws.fns.iter().find(|d| d.item.name == "a").expect("a");
        let hits = ws.resolve_method_call("b", true, from);
        assert_eq!(hits.len(), 1);
        assert_eq!(ws.fns[hits[0]].impl_ty, "VirtualFs");
    }

    #[test]
    fn ambiguous_method_names_resolve_to_nothing_without_self() {
        let files = ws_from(&[(
            "crates/fs/src/trie.rs",
            "impl PathTrie { pub fn insert(&mut self) {} }\n\
             fn elsewhere(m: &mut M) { m.insert(1); }",
        )]);
        let ws = Workspace::build(&files);
        let from = ws
            .fns
            .iter()
            .find(|d| d.item.name == "elsewhere")
            .expect("elsewhere");
        assert!(ws.resolve_method_call("insert", false, from).is_empty());
    }

    #[test]
    fn hash_type_facts_are_collected() {
        let src = "struct S { quadrant_of: HashMap<UserId, Quadrant> }\n\
                   pub fn by_user() -> std::collections::HashMap<UserId, u64> { todo!() }";
        let files = ws_from(&[("crates/core/src/x.rs", src)]);
        let mut ws = Workspace::build(&files);
        ws.scan_hash_decls(&lex(src));
        assert!(ws.hash_returning.contains("by_user"));
        assert!(ws.hash_fields.contains("quadrant_of"));
    }
}
