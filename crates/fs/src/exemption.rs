//! Purge-exemption (file reservation) list (§3.4).
//!
//! Administrators may specify a list of reserved paths; the retention scan
//! skips them. The paper stores the reservation list in a compact prefix
//! tree so each encountered file can be tested efficiently — we reuse
//! [`PathTrie`] with unit metadata. Reservations are a *contract on exact
//! paths*: if a user renames a reserved file the reservation lapses (§3.4).
//! Directory reservations (reserve everything under a prefix) are supported
//! as an extension, since production reservation lists commonly contain
//! project directories.
//!
//! A catalog walk tests no path. It resolves the list against the
//! namespace once (`ExemptionList::resolve_against`) and flags each file
//! by its node; [`ExemptionList::is_exempt`] answers point queries, such as
//! the incremental catalog's upserts.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::changelog::canonical_path;
use crate::meta::FileMeta;
use crate::trie::{NodeId, PathTrie, TrieIter};
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;

/// A set of reserved paths with efficient exact and prefix tests.
///
/// ```
/// use activedr_fs::ExemptionList;
///
/// let list = ExemptionList::from_lines(
///     "# ticket 1234\n/scratch/u1/keep.dat\n/scratch/proj/\n".lines(),
/// );
/// assert!(list.is_exempt("/scratch/u1/keep.dat"));
/// assert!(list.is_exempt("/scratch/proj/deep/file"));
/// // Renaming a reserved file cancels the reservation (§3.4):
/// assert!(!list.is_exempt("/scratch/u1/keep-v2.dat"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExemptionList {
    exact: PathTrie,
    /// Reserved directory prefixes (component-normalized, re-joined).
    prefixes: Vec<String>,
}

impl ExemptionList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve one exact file path.
    pub fn reserve_file(&mut self, path: &str) {
        // Unit metadata; the trie is used purely as a set.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a path that collides with an earlier reservation is dropped by design, as the oracle model mirrors"
        )]
        let _ = self
            .exact
            .insert(path, FileMeta::new(UserId(0), 0, Timestamp::EPOCH));
    }

    /// Reserve every file under a directory.
    pub fn reserve_dir(&mut self, prefix: &str) {
        let p = canonical_path(prefix);
        if !p.is_empty() && !self.prefixes.contains(&p) {
            self.prefixes.push(p);
        }
    }

    /// Build from a plain list of lines, treating entries ending in `/` as
    /// directory reservations — the on-disk reservation-list format.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Self {
        let mut list = ExemptionList::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(dir) = line.strip_suffix('/') {
                list.reserve_dir(dir);
            } else {
                list.reserve_file(line);
            }
        }
        list
    }

    /// Is `path` reserved (exactly, or under a reserved directory)?
    pub fn is_exempt(&self, path: &str) -> bool {
        // Fast path for the common no-reservations case: every indexed or
        // scanned file asks, so skip the trie lookup when it cannot hit.
        if !self.exact.is_empty() && self.exact.lookup(path).is_some() {
            return true;
        }
        if self.prefixes.is_empty() {
            return false;
        }
        let p = canonical_path(path);
        self.prefixes.iter().any(|pre| {
            p.len() > pre.len() && p.starts_with(pre.as_str()) && p.as_bytes()[pre.len()] == b'/'
        })
    }

    /// Resolve the list against the namespace `ns` for one walk, in
    /// O(reservations × depth): each exact reservation is looked up, each
    /// directory reservation followed to where it lands
    /// ([`PathTrie::cover`]). The walk's flags then equal
    /// [`ExemptionList::is_exempt`] of each file's path. Matching is by
    /// path at resolution time, so a renamed file has lost its exact
    /// reservation by the next walk (§3.4).
    pub(crate) fn resolve_against(&self, ns: &PathTrie) -> Reserved {
        let mut reserved = Reserved::NONE;
        if !self.exact.is_empty() {
            let mut walk = TrieIter::new(&self.exact, Reserved::none(), true);
            while let Some((path, ..)) = walk.next_file() {
                reserved.files.extend(ns.lookup(path));
            }
            reserved.files.sort_unstable();
        }
        reserved.dirs = self.prefixes.iter().filter_map(|p| ns.cover(p)).collect();
        // Nested reservations may land on one node: keep it once, covered
        // itself if any of them covers it.
        reserved.dirs.sort_unstable();
        reserved.dirs.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1 |= later.1;
                true
            }
        });
        reserved
    }

    /// Number of exact-path reservations.
    pub fn exact_count(&self) -> usize {
        self.exact.len()
    }

    /// Number of directory reservations.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.prefixes.is_empty()
    }
}

/// An [`ExemptionList`] resolved against one namespace
/// ([`ExemptionList::resolve_against`]): the files its exact reservations name,
/// and the nodes its directory reservations land on. A walk consults it
/// per node by id, never by path.
#[derive(Debug)]
pub(crate) struct Reserved {
    /// Files an exact reservation names, ascending.
    files: Vec<NodeId>,
    /// Nodes a directory reservation lands on, ascending, each with
    /// whether the node itself is covered (the reservation ends inside its
    /// edge) or only its strict descendants (it ends exactly at the node).
    dirs: Vec<(NodeId, bool)>,
}

impl Reserved {
    /// No reservations: every walk's flags are false.
    const NONE: Reserved = Reserved {
        files: Vec::new(),
        dirs: Vec::new(),
    };

    /// [`Reserved::NONE`], for walks that flag nothing.
    pub(crate) fn none() -> &'static Reserved {
        static NONE: Reserved = Reserved::NONE;
        &NONE
    }

    /// Whether node `id`, reached with the `covered` bit of its parent's
    /// children, is covered itself, and whether its children are.
    #[inline]
    pub(crate) fn cover(&self, id: NodeId, covered: bool) -> (bool, bool) {
        if self.dirs.is_empty() {
            return (covered, covered);
        }
        match self.dirs.binary_search_by_key(&id, |&(node, _)| node) {
            Ok(i) => (
                covered || self.dirs.get(i).is_some_and(|&(_, itself)| itself),
                true,
            ),
            Err(_) => (covered, covered),
        }
    }

    /// Does an exact reservation name file `id`?
    #[inline]
    pub(crate) fn names(&self, id: NodeId) -> bool {
        !self.files.is_empty() && self.files.binary_search(&id).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reservation_is_exact() {
        let mut e = ExemptionList::new();
        e.reserve_file("/scratch/u1/keep.dat");
        assert!(e.is_exempt("/scratch/u1/keep.dat"));
        assert!(e.is_exempt("/scratch//u1/./keep.dat")); // normalization
        assert!(!e.is_exempt("/scratch/u1/keep.dat.bak"));
        assert!(!e.is_exempt("/scratch/u1"));
        assert_eq!(e.exact_count(), 1);
    }

    #[test]
    fn renamed_file_loses_reservation() {
        // §3.4: changing the path of a reserved file cancels the
        // reservation — i.e. the *new* path is not exempt.
        let mut e = ExemptionList::new();
        e.reserve_file("/scratch/u1/data-v1.h5");
        assert!(!e.is_exempt("/scratch/u1/data-v2.h5"));
    }

    #[test]
    fn dir_reservation_covers_subtree_on_component_boundary() {
        let mut e = ExemptionList::new();
        e.reserve_dir("/scratch/proj");
        assert!(e.is_exempt("/scratch/proj/a"));
        assert!(e.is_exempt("/scratch/proj/deep/b"));
        assert!(!e.is_exempt("/scratch/project/a")); // not a component match
        assert!(!e.is_exempt("/scratch/proj")); // the dir itself is not a file
        assert_eq!(e.prefix_count(), 1);
        e.reserve_dir("/scratch/proj/"); // duplicate, normalized away
        assert_eq!(e.prefix_count(), 1);
    }

    #[test]
    fn from_lines_parses_files_dirs_comments() {
        let e = ExemptionList::from_lines(
            "# reserved by ticket 1234\n/keep/exact.dat\n/keep/dir/\n\n  \n".lines(),
        );
        assert_eq!(e.exact_count(), 1);
        assert_eq!(e.prefix_count(), 1);
        assert!(e.is_exempt("/keep/exact.dat"));
        assert!(e.is_exempt("/keep/dir/x"));
        assert!(!e.is_exempt("/keep/other"));
    }

    #[test]
    fn empty_list_exempts_nothing() {
        let e = ExemptionList::new();
        assert!(e.is_empty());
        assert!(!e.is_exempt("/anything"));
    }
}
