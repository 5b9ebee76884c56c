//! The reference model: `VirtualFs` semantics over a flat map.
//!
//! Everything here is written for *obviousness*. The real file system is
//! a path-compressed radix trie with free-listed node ids, incremental
//! byte accounting, and a changelog; the model is a
//! `BTreeMap<String, FileMeta>` keyed by canonical path, with every
//! derived quantity (used bytes, catalogs, purge victim sets) recomputed
//! from scratch by a linear scan. The two must agree exactly; the
//! differential executor ([`crate::exec`]) checks that after every
//! operation.
//!
//! The one deliberate asymmetry is [`InjectedBug`]: a test-only knob that
//! makes the model subtly wrong, so self-tests can prove the oracle
//! detects and shrinks real divergences (rather than vacuously passing
//! because both sides share a bug).

use activedr_core::time::{TimeDelta, Timestamp};
use activedr_core::user::UserId;
use activedr_fs::vfs::FsOpCounts;
use activedr_fs::{FileMeta, InsertError};
use std::collections::{BTreeMap, BTreeSet};

/// Canonical form of a path: leading `/` before each normalized component
/// (empty and `.` components dropped) — the same form
/// `activedr_fs::changelog::canonical_path` produces. The empty string is
/// the canonical form of the root / an empty path.
pub fn canonical(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    for c in components(path) {
        out.push('/');
        out.push_str(c);
    }
    out
}

/// Path components, exactly as the trie normalizes them.
pub fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// Is `a` a strict component-prefix of `b`? (`/a/b` prefixes `/a/b/c`
/// but not `/a/bc`, and never itself.)
fn is_strict_prefix(a: &str, b: &str) -> bool {
    let a: Vec<&str> = components(a).collect();
    let b: Vec<&str> = components(b).collect();
    a.len() < b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

/// A deliberate model defect for oracle self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// Skip the atime/access-count renewal when a read hits a file that
    /// was previously re-staged — the classic "recovery path forgets to
    /// renew atime" bug class. A later purge then disagrees about the
    /// file's staleness.
    SkipRestageTouch,
}

/// Naive re-implementation of the purge-exemption list: a set of exact
/// canonical paths plus a list of directory prefixes.
#[derive(Debug, Clone, Default)]
pub struct ModelExemptions {
    files: BTreeSet<String>,
    dirs: Vec<String>,
}

impl ModelExemptions {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve one exact path. Mirrors the real list's storage in a
    /// [`activedr_fs::PathTrie`]: a reservation whose path conflicts with
    /// an existing reservation (one is a component-prefix of the other)
    /// is silently dropped, as is the empty path.
    pub fn reserve_file(&mut self, path: &str) {
        let p = canonical(path);
        if p.is_empty() {
            return;
        }
        if self.files.contains(&p) {
            return; // idempotent re-reservation
        }
        let conflicts = self
            .files
            .iter()
            .any(|q| is_strict_prefix(q, &p) || is_strict_prefix(&p, q));
        if !conflicts {
            self.files.insert(p);
        }
    }

    /// Reserve every file under a directory prefix.
    pub fn reserve_dir(&mut self, prefix: &str) {
        let p = canonical(prefix);
        if !p.is_empty() && !self.dirs.contains(&p) {
            self.dirs.push(p);
        }
    }

    /// Is `path` reserved, exactly or under a reserved directory?
    pub fn is_exempt(&self, path: &str) -> bool {
        let p = canonical(path);
        if self.files.contains(&p) {
            return true;
        }
        self.dirs.iter().any(|d| is_strict_prefix(d, &p))
    }
}

/// One user's catalog entry in the model's derivation: the policy-visible
/// fields of [`activedr_core::files::FileRecord`], minus the trie node id
/// (which the model cannot know — node ids come from a free list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRecord {
    pub path: String,
    pub size: u64,
    pub atime: Timestamp,
    pub ctime: Timestamp,
    pub access_count: u32,
    pub exempt: bool,
}

/// The flat reference file system.
#[derive(Debug, Clone, Default)]
pub struct ModelFs {
    /// Canonical path → metadata. The map invariant mirrors the trie's:
    /// stored paths are component-prefix-free (no file is a directory).
    files: BTreeMap<String, FileMeta>,
    capacity: u64,
    counts: FsOpCounts,
    /// Paths that have been re-staged at least once; only consulted when
    /// a bug is injected.
    restaged: BTreeSet<String>,
    bug: Option<InjectedBug>,
}

impl ModelFs {
    pub fn with_capacity(capacity: u64) -> Self {
        ModelFs {
            capacity,
            ..ModelFs::default()
        }
    }

    /// Arm a deliberate defect (self-tests only).
    pub fn with_injected_bug(mut self, bug: InjectedBug) -> Self {
        self.bug = Some(bug);
        self
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    /// Used bytes, recomputed from scratch.
    pub fn used_bytes(&self) -> u64 {
        self.files.values().map(|m| m.size).sum()
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    pub fn op_counts(&self) -> FsOpCounts {
        self.counts
    }

    pub fn meta(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(&canonical(path))
    }

    /// All files as `(canonical path, meta)` in the trie's iteration
    /// order: component-lexicographic.
    pub fn entries(&self) -> Vec<(String, FileMeta)> {
        let mut out: Vec<(String, FileMeta)> =
            self.files.iter().map(|(p, m)| (p.clone(), *m)).collect();
        out.sort_by(|(a, _), (b, _)| {
            let ac: Vec<&str> = components(a).collect();
            let bc: Vec<&str> = components(b).collect();
            ac.cmp(&bc)
        });
        out
    }

    /// Insert a file with full metadata. The acceptance/rejection rules
    /// restate the trie's, in map terms:
    ///
    /// 1. a path with no components is rejected (`EmptyPath`);
    /// 2. an exact match is an overwrite;
    /// 3. if an existing file is a strict component-prefix of the new
    ///    path, the file blocks descent (`FileIsNotADirectory`);
    /// 4. if the new path is a strict component-prefix of an existing
    ///    file, the path is a directory (`DirectoryExists`);
    /// 5. otherwise the file is created.
    ///
    /// The prefix-free invariant means 3 and 4 cannot hold at once.
    pub fn insert_meta(&mut self, path: &str, meta: FileMeta) -> Result<(), InsertError> {
        let p = canonical(path);
        if p.is_empty() {
            return Err(InsertError::EmptyPath);
        }
        if let std::collections::btree_map::Entry::Occupied(mut e) = self.files.entry(p.clone()) {
            e.insert(meta);
            self.counts.creates += 1;
            return Ok(());
        }
        if let Some(blocking) = self.files.keys().find(|q| is_strict_prefix(q, &p)) {
            return Err(InsertError::FileIsNotADirectory {
                file_prefix: blocking.clone(),
            });
        }
        if self.files.keys().any(|q| is_strict_prefix(&p, q)) {
            return Err(InsertError::DirectoryExists);
        }
        self.files.insert(p, meta);
        self.counts.creates += 1;
        Ok(())
    }

    /// Create a file (or overwrite the one at the same path).
    pub fn create(
        &mut self,
        path: &str,
        owner: UserId,
        size: u64,
        ts: Timestamp,
    ) -> Result<(), InsertError> {
        self.insert_meta(path, FileMeta::new(owner, size, ts))
    }

    /// Replay one access: renew atime on hit (monotone, saturating
    /// counter), report the outcome. Returns `true` on hit.
    pub fn access(&mut self, path: &str, ts: Timestamp) -> bool {
        self.counts.accesses += 1;
        let p = canonical(path);
        let skip_touch =
            self.bug == Some(InjectedBug::SkipRestageTouch) && self.restaged.contains(&p);
        match self.files.get_mut(&p) {
            Some(meta) => {
                self.counts.hits += 1;
                if !skip_touch {
                    meta.touch(ts);
                }
                true
            }
            None => {
                self.counts.misses += 1;
                false
            }
        }
    }

    /// Delete one file by path.
    pub fn remove(&mut self, path: &str) -> Option<FileMeta> {
        let meta = self.files.remove(&canonical(path))?;
        self.counts.removes += 1;
        Some(meta)
    }

    /// Move a file, POSIX replace-on-collision. Mirrors the trie's
    /// remove-then-insert with restore-on-failure, so e.g. renaming
    /// `/a/b` to `/a/b/c` *succeeds* (the source no longer blocks the
    /// destination once removed).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), activedr_fs::trie::RenameError> {
        use activedr_fs::trie::RenameError;
        let f = canonical(from);
        let meta = match self.files.get(&f) {
            Some(meta) => *meta,
            None => return Err(RenameError::SourceMissing),
        };
        if components(from).eq(components(to)) {
            self.counts.renames += 1; // no-op rename still counts
            return Ok(());
        }
        self.files.remove(&f);
        match self.insert_meta(to, meta) {
            Ok(()) => {
                // `insert_meta` bumped `creates`, but a rename is not a
                // create on the real system; undo and count the rename.
                self.counts.creates -= 1;
                self.counts.renames += 1;
                Ok(())
            }
            Err(e) => {
                self.files.insert(f, meta); // restore the source
                Err(RenameError::Destination(e))
            }
        }
    }

    /// Run an unbounded FLT purge: remove every non-exempt file strictly
    /// older than `lifetime_days` at `tc`. Returns the victims (path and
    /// pre-removal metadata) in path order.
    pub fn purge_stale(
        &mut self,
        tc: Timestamp,
        lifetime_days: u32,
        exemptions: &ModelExemptions,
    ) -> Vec<(String, FileMeta)> {
        let lifetime = TimeDelta::from_days(i64::from(lifetime_days));
        let victims: Vec<String> = self
            .files
            .iter()
            .filter(|(p, m)| tc.age_since(m.atime) > lifetime && !exemptions.is_exempt(p))
            .map(|(p, _)| p.clone())
            .collect();
        let mut out = Vec::new();
        for v in victims {
            if let Some(meta) = self.files.remove(&v) {
                self.counts.removes += 1;
                out.push((v, meta));
            }
        }
        out
    }

    /// Record that `path` has been re-staged (consulted only by
    /// [`InjectedBug::SkipRestageTouch`]).
    pub fn mark_restaged(&mut self, path: &str) {
        self.restaged.insert(canonical(path));
    }

    /// Derive the per-user catalog: users in ascending id order, each
    /// user's files in path (component) order, exemption flags resolved
    /// against `exemptions`. An O(files · log files + files · exemptions)
    /// scan — obvious, not fast.
    pub fn catalog(&self, exemptions: &ModelExemptions) -> Vec<(UserId, Vec<ModelRecord>)> {
        let mut per_user: BTreeMap<UserId, Vec<ModelRecord>> = BTreeMap::new();
        for (path, meta) in self.entries() {
            let exempt = exemptions.is_exempt(&path);
            per_user.entry(meta.owner).or_default().push(ModelRecord {
                path,
                size: meta.size,
                atime: meta.atime,
                ctime: meta.ctime,
                access_count: meta.access_count,
                exempt,
            });
        }
        per_user.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(day: i64) -> Timestamp {
        Timestamp::from_days(day)
    }

    fn u(n: u32) -> UserId {
        UserId(n)
    }

    #[test]
    fn insert_rules_match_the_trie_contract() {
        let mut m = ModelFs::with_capacity(1 << 20);
        assert_eq!(m.create("", u(1), 1, ts(0)), Err(InsertError::EmptyPath));
        assert_eq!(
            m.create("///./", u(1), 1, ts(0)),
            Err(InsertError::EmptyPath)
        );
        assert!(m.create("/a/b", u(1), 10, ts(0)).is_ok());
        // A file blocks descent below it, reporting its canonical path.
        assert_eq!(
            m.create("/a/b/c", u(1), 5, ts(0)),
            Err(InsertError::FileIsNotADirectory {
                file_prefix: "/a/b".into()
            })
        );
        // A directory (prefix of an existing file) rejects a file.
        assert_eq!(
            m.create("/a", u(1), 5, ts(0)),
            Err(InsertError::DirectoryExists)
        );
        // Exact overwrite replaces.
        assert!(m.create("/a/b", u(2), 99, ts(1)).is_ok());
        assert_eq!(m.used_bytes(), 99);
        assert_eq!(m.file_count(), 1);
        assert_eq!(m.op_counts().creates, 2);
    }

    #[test]
    fn rename_mirrors_remove_then_insert() {
        let mut m = ModelFs::with_capacity(1 << 20);
        m.create("/a/b", u(1), 10, ts(0)).unwrap();
        m.create("/a/c", u(2), 20, ts(0)).unwrap();
        // Replace-on-collision releases the destination's bytes.
        assert!(m.rename("/a/b", "/a/c").is_ok());
        assert_eq!(m.used_bytes(), 10);
        // Renaming under itself succeeds: the source is removed first.
        assert!(m.rename("/a/c", "/a/c/deep").is_ok());
        assert!(m.meta("/a/c/deep").is_some());
        // No-op rename is Ok and still counts.
        assert!(m.rename("/a/c/deep", "/a/c//deep/.").is_ok());
        assert_eq!(m.op_counts().renames, 3);
        assert_eq!(m.op_counts().creates, 2);
        // Missing source.
        assert!(m.rename("/nope", "/x").is_err());
    }

    #[test]
    fn purge_respects_age_and_exemptions() {
        let mut m = ModelFs::with_capacity(1 << 20);
        m.create("/u1/old", u(1), 10, ts(0)).unwrap();
        m.create("/u1/new", u(1), 20, ts(95)).unwrap();
        m.create("/proj/old", u(2), 30, ts(0)).unwrap();
        let mut ex = ModelExemptions::new();
        ex.reserve_dir("/proj");
        let victims = m.purge_stale(ts(100), 90, &ex);
        assert_eq!(victims.len(), 1);
        assert!(victims.iter().all(|(p, _)| p == "/u1/old"));
        // Boundary: age == lifetime is NOT stale (strict >).
        let mut m2 = ModelFs::with_capacity(1 << 20);
        m2.create("/edge", u(1), 1, ts(10)).unwrap();
        assert!(m2
            .purge_stale(ts(100), 90, &ModelExemptions::new())
            .is_empty());
    }

    #[test]
    fn exemption_conflicts_are_dropped_like_the_trie() {
        let mut ex = ModelExemptions::new();
        ex.reserve_file("/keep/a");
        ex.reserve_file("/keep/a/b"); // blocked by the file at /keep/a
        ex.reserve_file("/keep"); // /keep is a directory of reservations
        assert!(ex.is_exempt("/keep/a"));
        assert!(!ex.is_exempt("/keep/a/b"));
        assert!(!ex.is_exempt("/keep"));
        ex.reserve_dir("/proj");
        assert!(ex.is_exempt("/proj/deep/x"));
        assert!(!ex.is_exempt("/project/x"));
    }

    #[test]
    fn injected_bug_skips_touch_only_on_restaged_paths() {
        let mut m =
            ModelFs::with_capacity(1 << 20).with_injected_bug(InjectedBug::SkipRestageTouch);
        m.create("/a", u(1), 1, ts(0)).unwrap();
        m.create("/b", u(1), 1, ts(0)).unwrap();
        m.mark_restaged("/a");
        assert!(m.access("/a", ts(50)));
        assert!(m.access("/b", ts(50)));
        assert_eq!(m.meta("/a").map(|f| f.atime), Some(ts(0))); // bug: stale
        assert_eq!(m.meta("/b").map(|f| f.atime), Some(ts(50)));
    }
}
