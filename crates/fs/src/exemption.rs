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

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::changelog::canonical_path;
use crate::meta::FileMeta;
use crate::trie::PathTrie;
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
