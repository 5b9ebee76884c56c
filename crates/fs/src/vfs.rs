//! The virtual parallel file system used by the emulation.
//!
//! The paper formulates a virtual file system by indexing every file path of
//! a metadata snapshot into a compact prefix tree together with synthesized
//! sizes; trace replay then tests file existence (a missing path is a *file
//! miss*), renews access times, and applies purge decisions. This module
//! wraps [`PathTrie`] with capacity accounting and the catalog-scan bridge
//! to the `activedr-core` policy layer.

use crate::changelog::{canonical_path, Changelog, Delta};
use crate::exemption::ExemptionList;
use crate::index::record;
use crate::meta::FileMeta;
use crate::trie::{InsertError, NodeId, PathTrie, Tombstone, TrieIter};
use activedr_core::convert;
use activedr_core::files::{Catalog, FileRecord, UserFiles};
use activedr_core::policy::RetentionOutcome;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use std::collections::BTreeMap;

/// Outcome of replaying one file access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The file exists; its atime was renewed.
    Hit(NodeId),
    /// The file does not exist (never created, or purged) — a file miss.
    Miss,
}

impl Access {
    pub fn is_miss(self) -> bool {
        matches!(self, Access::Miss)
    }
}

/// Cumulative operation counts since this file system was created.
///
/// Maintained unconditionally (plain integer bumps on paths that already
/// mutate state) so they are deterministic replay facts, not telemetry:
/// the telemetry layer *samples* them into gauges at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsOpCounts {
    /// Files created or overwritten (`create`/`insert_meta`).
    pub creates: u64,
    /// Files removed (by path, by id, or purge apply).
    pub removes: u64,
    /// Access replays attempted (`access` calls).
    pub accesses: u64,
    /// Accesses that found their file.
    pub hits: u64,
    /// Accesses that missed (file absent or purged).
    pub misses: u64,
    /// Successful renames.
    pub renames: u64,
}

/// An in-memory scratch file system with capacity accounting.
#[derive(Debug, Clone, Default)]
pub struct VirtualFs {
    trie: PathTrie,
    used_bytes: u64,
    capacity: u64,
    /// When present, every namespace mutation is recorded as a [`Delta`]
    /// for the incremental catalog; `None` costs nothing on the hot path.
    changelog: Option<Changelog>,
    ops: FsOpCounts,
}

impl VirtualFs {
    /// A file system with the given total capacity in bytes. Capacity is
    /// accounting-only: creates are allowed to overshoot it (scratch file
    /// systems overfill — that is why purges exist), but utilization
    /// reports are relative to it.
    pub fn with_capacity(capacity: u64) -> Self {
        VirtualFs {
            trie: PathTrie::new(),
            used_bytes: 0,
            capacity,
            changelog: None,
            ops: FsOpCounts::default(),
        }
    }

    /// Cumulative operation counts since construction.
    pub fn op_counts(&self) -> FsOpCounts {
        self.ops
    }

    /// Deltas currently buffered in the changelog awaiting a drain
    /// (0 when recording is disabled).
    pub fn changelog_depth(&self) -> usize {
        self.changelog.as_ref().map_or(0, Changelog::len)
    }

    /// Start recording mutations into a changelog (idempotent; an already
    /// active changelog keeps its buffered deltas).
    pub fn enable_changelog(&mut self) {
        if self.changelog.is_none() {
            self.changelog = Some(Changelog::new());
        }
    }

    /// Stop recording and discard any buffered deltas.
    pub fn disable_changelog(&mut self) {
        self.changelog = None;
    }

    /// Take the buffered deltas (empty when recording is disabled).
    pub fn drain_changelog(&mut self) -> Vec<Delta> {
        self.changelog
            .as_mut()
            .map(Changelog::drain)
            .unwrap_or_default()
    }

    /// Deltas recorded since the changelog was enabled, including drained
    /// ones; 0 when disabled.
    pub fn changelog_recorded_total(&self) -> u64 {
        self.changelog.as_ref().map_or(0, Changelog::recorded_total)
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Re-anchor the accounting capacity (e.g. to the post-purge snapshot
    /// size, the way the paper defines "total storage capacity").
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Used fraction of capacity (may exceed 1.0).
    pub fn utilization(&self) -> f64 {
        convert::ratio(self.used_bytes, self.capacity)
    }

    pub fn file_count(&self) -> usize {
        self.trie.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Estimated resident memory of the index (Fig. 12a probe).
    pub fn memory_estimate(&self) -> usize {
        self.trie.memory_estimate()
    }

    /// Create a file (or overwrite an existing one at the same path).
    pub fn create(
        &mut self,
        path: &str,
        owner: UserId,
        size: u64,
        ts: Timestamp,
    ) -> Result<NodeId, InsertError> {
        self.insert_meta(path, FileMeta::new(owner, size, ts))
    }

    /// Insert a file with full metadata (snapshot load path).
    pub fn insert_meta(&mut self, path: &str, meta: FileMeta) -> Result<NodeId, InsertError> {
        let (inserted, replaced) = self.trie.upsert(path, meta)?;
        self.ops.creates += 1;
        // Replacement must not double-count bytes.
        if let Some(old) = replaced {
            self.used_bytes -= old.size;
        }
        self.used_bytes += meta.size;
        let id = inserted.id();
        if let Some(log) = self.changelog.as_mut() {
            log.record(Delta::Upsert {
                path: canonical_path(path),
                id,
                meta,
            });
        }
        Ok(id)
    }

    /// Replay one read/write access: renew atime on hit, report the miss
    /// otherwise.
    pub fn access(&mut self, path: &str, ts: Timestamp) -> Access {
        self.ops.accesses += 1;
        match self.trie.lookup(path) {
            Some(id) => {
                self.ops.hits += 1;
                let mut touched = None;
                if let Some(meta) = self.trie.meta_mut(id) {
                    meta.touch(ts);
                    touched = Some((meta.atime, meta.access_count));
                }
                if let (Some((atime, access_count)), Some(log)) = (touched, self.changelog.as_mut())
                {
                    log.record(Delta::Touch {
                        id,
                        atime,
                        access_count,
                    });
                }
                Access::Hit(id)
            }
            None => {
                self.ops.misses += 1;
                Access::Miss
            }
        }
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.trie.lookup(path).is_some()
    }

    pub fn meta(&self, path: &str) -> Option<&FileMeta> {
        self.trie.get(path)
    }

    pub fn path_of(&self, id: NodeId) -> String {
        self.trie.path_of(id)
    }

    /// Delete one file by path.
    pub fn remove(&mut self, path: &str) -> Option<FileMeta> {
        // Route through `remove_id` so removal deltas are logged in one
        // place.
        let id = self.trie.lookup(path)?;
        self.remove_id(id)
    }

    /// Delete one file by id. It leaves no tombstone.
    pub fn remove_id(&mut self, id: NodeId) -> Option<FileMeta> {
        let meta = self.trie.remove_id(id)?;
        Some(self.account_removal(id, meta))
    }

    /// Apply a policy's purge decisions, returning the bytes actually
    /// freed. Stale decisions (file already gone) are ignored. Each purge
    /// leaves a tombstone at the file's path ([`VirtualFs::tombstone`]).
    pub fn apply(&mut self, outcome: &RetentionOutcome) -> u64 {
        let mut freed = 0u64;
        for p in &outcome.purged {
            let id = NodeId(convert::u32_from_u64(p.id.0));
            if let Some(meta) = self.trie.purge_id(id) {
                freed += self.account_removal(id, meta).size;
            }
        }
        freed
    }

    /// Account a file removed or purged by id, logging its `Remove`.
    fn account_removal(&mut self, id: NodeId, meta: FileMeta) -> FileMeta {
        self.ops.removes += 1;
        self.used_bytes -= meta.size;
        if let Some(log) = self.changelog.as_mut() {
            log.record(Delta::Remove { id });
        }
        meta
    }

    /// The tombstone at `path`: the owner and size of the file last
    /// purged there, unless a file has been created there since or a
    /// restage took it. A miss reads it to decide whether to restage.
    pub fn tombstone(&self, path: &str) -> Option<Tombstone> {
        self.trie.tombstone(path)
    }

    /// Restage the file purged at `path`: create it from its tombstone,
    /// with atime `ts`, which takes the tombstone. `None` when `path`
    /// holds none; a create that fails (the path has become a directory,
    /// or a prefix of it a file) still drops it.
    pub fn restage(
        &mut self,
        path: &str,
        ts: Timestamp,
    ) -> Option<(Tombstone, Result<NodeId, InsertError>)> {
        let tombstone = self.trie.tombstone(path)?;
        let created = self.create(path, tombstone.owner, tombstone.size, ts);
        if created.is_err() {
            self.trie.take_tombstone(path);
        }
        Some((tombstone, created))
    }

    /// Scan the file system into the per-user catalog the policy layer
    /// consumes. Files matching the exemption list are flagged, not
    /// dropped. Users appear in ascending id order; files in path order.
    /// The walk spells no path: the flags come from the list resolved
    /// against the namespace once.
    pub fn catalog(&self, exemptions: &ExemptionList) -> Catalog {
        let per_user: BTreeMap<UserId, Vec<FileRecord>> =
            self.bucket_by_owner(exemptions, false, |_, id, meta, exempt| {
                record(id, meta, exempt)
            });
        Catalog::new(
            per_user
                .into_iter()
                .map(|(user, files)| UserFiles::new(user, files))
                .collect(),
        )
    }

    /// One walk of the namespace, each file mapped by `f` and bucketed by
    /// owner: owners ascending, each bucket in path order. `f` gets each
    /// file's exempt flag under `exemptions`, resolved once for the walk,
    /// and, if `spell_paths`, its path borrowed from the walk's reused
    /// buffer (else an empty string); the walk allocates nothing per file.
    /// The current owner's bucket is held out of the map while the walk
    /// stays in that owner's files, so the map is touched only where the
    /// owner changes from the previous file's.
    pub(crate) fn bucket_by_owner<T, B: Default + Extend<T>>(
        &self,
        exemptions: &ExemptionList,
        spell_paths: bool,
        mut f: impl FnMut(&str, NodeId, &FileMeta, bool) -> T,
    ) -> BTreeMap<UserId, B> {
        let reserved = exemptions.resolve_against(&self.trie);
        let mut buckets: BTreeMap<UserId, B> = BTreeMap::new();
        let mut run: Option<(UserId, B)> = None;
        let mut walk = TrieIter::new(&self.trie, &reserved, spell_paths);
        while let Some((path, id, meta, exempt)) = walk.next_file() {
            let item = f(path, id, meta, exempt);
            if run.as_ref().is_none_or(|(owner, _)| *owner != meta.owner) {
                if let Some((owner, bucket)) = run.take() {
                    buckets.insert(owner, bucket);
                }
                run = Some((meta.owner, buckets.remove(&meta.owner).unwrap_or_default()));
            }
            if let Some((_, bucket)) = run.as_mut() {
                bucket.extend([item]);
            }
        }
        if let Some((owner, bucket)) = run {
            buckets.insert(owner, bucket);
        }
        buckets
    }

    /// All files as `(path, id, meta)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (String, NodeId, &FileMeta)> {
        self.trie.iter()
    }

    /// Move a file. Renaming onto an existing file replaces it (POSIX
    /// semantics), releasing the replaced bytes. A reservation on the old
    /// path lapses per the §3.4 contract, which is the caller's
    /// (exemption list's) concern.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<NodeId, crate::trie::RenameError> {
        // The destination may already hold a file that the rename will
        // replace; its bytes must leave the accounting (unless this is a
        // no-op rename onto itself).
        let same = crate::trie::components(from).eq(crate::trie::components(to));
        let replaced = if same {
            None
        } else {
            self.trie.get(to).map(|m| m.size)
        };
        let from_id = if self.changelog.is_some() {
            self.trie.lookup(from)
        } else {
            None
        };
        match self.trie.rename(from, to) {
            Ok(id) => {
                self.ops.renames += 1;
                if let Some(size) = replaced {
                    self.used_bytes -= size;
                }
                // A same-path rename is a trie no-op: nothing to log. A
                // real move removes the source node and re-inserts at the
                // destination (replacing any file there, under its id).
                if !same {
                    let meta = self.trie.meta(id).copied();
                    if let (Some(meta), Some(log)) = (meta, self.changelog.as_mut()) {
                        if let Some(old_id) = from_id {
                            log.record(Delta::Remove { id: old_id });
                        }
                        log.record(Delta::Upsert {
                            path: canonical_path(to),
                            id,
                            meta,
                        });
                    }
                }
                Ok(id)
            }
            Err(e) => {
                // A failed rename restores the source, possibly under a
                // fresh node id; the index must follow the id change.
                if self.changelog.is_some() {
                    let now_id = self.trie.lookup(from);
                    if let (Some(old_id), Some(new_id)) = (from_id, now_id) {
                        if old_id != new_id {
                            let meta = self.trie.meta(new_id).copied();
                            if let (Some(meta), Some(log)) = (meta, self.changelog.as_mut()) {
                                log.record(Delta::Remove { id: old_id });
                                log.record(Delta::Upsert {
                                    path: canonical_path(from),
                                    id: new_id,
                                    meta,
                                });
                            }
                        }
                    }
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;
    use activedr_core::files::FileId;

    fn day(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    #[test]
    fn create_access_remove_accounting() {
        let mut fs = VirtualFs::with_capacity(1000);
        let id = fs.create("/u1/a", UserId(1), 400, day(0)).unwrap();
        fs.create("/u1/b", UserId(1), 100, day(0)).unwrap();
        assert_eq!(fs.used_bytes(), 500);
        assert!((fs.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(fs.file_count(), 2);

        match fs.access("/u1/a", day(10)) {
            Access::Hit(got) => assert_eq!(got, id),
            Access::Miss => panic!("expected hit"),
        }
        assert_eq!(fs.meta("/u1/a").unwrap().atime, day(10));
        assert!(fs.access("/u1/zzz", day(10)).is_miss());

        let removed = fs.remove("/u1/a").unwrap();
        assert_eq!(removed.size, 400);
        assert_eq!(fs.used_bytes(), 100);
        assert!(fs.access("/u1/a", day(11)).is_miss());
    }

    #[test]
    fn changelog_accounting_and_id_lookup() {
        let mut fs = VirtualFs::with_capacity(1000);
        fs.create("/u0/off", UserId(0), 1, day(0)).unwrap();
        assert_eq!(fs.changelog_depth(), 0);
        assert_eq!(fs.changelog_recorded_total(), 0);

        fs.enable_changelog();
        let id = fs.create("/u1/a", UserId(1), 400, day(0)).unwrap();
        assert_eq!(fs.changelog_depth(), 1);
        assert_eq!(fs.path_of(id), "/u1/a");
        fs.access("/u1/a", day(3));
        fs.remove("/u1/a");
        // Upsert + Touch + Remove, surviving a drain.
        assert_eq!(fs.drain_changelog().len(), 3);
        assert_eq!(fs.changelog_recorded_total(), 3);
        assert_eq!(fs.path_of(id), "");
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut fs = VirtualFs::with_capacity(1000);
        fs.create("/u1/a", UserId(1), 400, day(0)).unwrap();
        fs.create("/u1/a", UserId(1), 100, day(5)).unwrap();
        assert_eq!(fs.used_bytes(), 100);
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.meta("/u1/a").unwrap().atime, day(5));
    }

    #[test]
    fn capacity_can_overfill() {
        let mut fs = VirtualFs::with_capacity(100);
        fs.create("/a", UserId(1), 400, day(0)).unwrap();
        assert!(fs.utilization() > 1.0);
        let zero = VirtualFs::with_capacity(0);
        assert_eq!(zero.utilization(), 0.0);
    }

    #[test]
    fn catalog_groups_by_owner_and_flags_exemptions() {
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/u2/x", UserId(2), 10, day(1)).unwrap();
        fs.create("/u1/keep", UserId(1), 20, day(2)).unwrap();
        fs.create("/u1/drop", UserId(1), 30, day(3)).unwrap();
        // Owners interleaved in path order: user 1's bucket is entered
        // twice within one directory.
        fs.create("/shared/a", UserId(1), 1, day(4)).unwrap();
        fs.create("/shared/b", UserId(2), 2, day(4)).unwrap();
        fs.create("/shared/c", UserId(1), 3, day(4)).unwrap();
        // A directory reservation next to an exact one.
        fs.create("/u3/res/f", UserId(3), 4, day(5)).unwrap();
        fs.create("/u3/res.log", UserId(3), 5, day(5)).unwrap();
        fs.create("/u3/resx", UserId(3), 6, day(5)).unwrap();
        // Component order lists `/x/a/b` before `/x/a.b`; raw byte order
        // would not.
        fs.create("/x/a.b", UserId(4), 7, day(6)).unwrap();
        fs.create("/x/a/b", UserId(4), 8, day(6)).unwrap();
        // A removal prunes `/gone/deep`; two later files reuse its slots.
        fs.create("/gone/deep/a", UserId(4), 90, day(7)).unwrap();
        let b = fs.create("/gone/deep/b", UserId(4), 91, day(7)).unwrap();
        fs.create("/gone/keep", UserId(4), 92, day(7)).unwrap();
        fs.remove("/gone/deep/a").unwrap();
        fs.remove("/gone/deep/b").unwrap();
        let reused = [
            fs.create("/x/reuse/c", UserId(4), 11, day(8)).unwrap(),
            fs.create("/u1/new", UserId(1), 12, day(8)).unwrap(),
        ];
        assert!(reused.contains(&b), "{reused:?} reuses no pruned slot");
        let mut ex = ExemptionList::new();
        ex.reserve_file("/u1/keep");
        ex.reserve_dir("/u3/res");
        ex.reserve_file("/u3/res.log");

        let catalog = fs.catalog(&ex);
        // Each file as (size, exempt), per user in listing order.
        let listed: Vec<(u32, Vec<(u64, bool)>)> = catalog
            .users
            .iter()
            .map(|u| {
                (
                    u.user.0,
                    u.files.iter().map(|f| (f.size, f.exempt)).collect(),
                )
            })
            .collect();
        assert_eq!(
            listed,
            vec![
                (
                    1,
                    vec![(1, false), (3, false), (30, false), (20, true), (12, false)]
                ),
                (2, vec![(2, false), (10, false)]),
                (3, vec![(4, true), (5, true), (6, false)]),
                (4, vec![(92, false), (8, false), (7, false), (11, false)]),
            ]
        );
        assert_eq!(catalog.total_bytes(), 211);
        // Each record carries its file's trie id.
        for user in &catalog.users {
            for f in &user.files {
                let id = NodeId(convert::u32_from_u64(f.id.0));
                assert_eq!(fs.meta(&fs.path_of(id)).map(|m| m.size), Some(f.size));
            }
        }
        // The index's seed walk builds the same catalog.
        assert_eq!(
            crate::index::CatalogIndex::from_fs(&fs, &ex).snapshot(),
            &catalog
        );
    }

    #[test]
    fn apply_purge_decisions() {
        use activedr_core::policy::PurgedFile;
        let mut fs = VirtualFs::with_capacity(0);
        let a = fs.create("/u1/a", UserId(1), 10, day(0)).unwrap();
        fs.create("/u1/b", UserId(1), 20, day(0)).unwrap();
        let outcome = RetentionOutcome {
            purged: vec![
                PurgedFile {
                    user: UserId(1),
                    id: FileId(a.0 as u64),
                    size: 10,
                },
                // A stale decision for a node that never existed.
                PurgedFile {
                    user: UserId(1),
                    id: FileId(9999),
                    size: 1,
                },
            ],
            purged_bytes: 11,
            target_met: true,
            group_scans: vec![],
            exempt_skipped: 0,
        };
        let freed = fs.apply(&outcome);
        assert_eq!(freed, 10);
        assert_eq!(fs.used_bytes(), 20);
        assert!(!fs.exists("/u1/a"));
        assert!(fs.exists("/u1/b"));
    }

    #[test]
    fn rename_and_subtree_accounting() {
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/u1/proj/a", UserId(1), 100, day(0)).unwrap();
        fs.create("/u1/proj/b", UserId(1), 50, day(0)).unwrap();
        fs.create("/u1/keep", UserId(1), 25, day(0)).unwrap();

        fs.rename("/u1/proj/a", "/u1/moved").unwrap();
        assert_eq!(fs.used_bytes(), 175); // unchanged
        assert!(fs.exists("/u1/moved"));
        assert!(!fs.exists("/u1/proj/a"));

        // Emptying the directory releases its last file's bytes.
        assert_eq!(fs.remove("/u1/proj/b").unwrap().size, 50);
        assert_eq!(fs.used_bytes(), 125);
        assert_eq!(fs.file_count(), 2);
        assert_eq!(fs.iter().count(), 2);
    }

    #[test]
    fn rename_onto_existing_file_releases_its_bytes() {
        // Regression: found by the trie-vs-HashMap property test.
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/a", UserId(1), 100, day(0)).unwrap();
        fs.create("/b", UserId(1), 40, day(0)).unwrap();
        fs.rename("/a", "/b").unwrap(); // replaces /b
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.used_bytes(), 100);
        assert_eq!(fs.meta("/b").unwrap().size, 100);
        // No-op rename keeps accounting intact.
        fs.rename("/b", "//b/.").unwrap();
        assert_eq!(fs.used_bytes(), 100);
    }

    #[test]
    fn op_counts_track_every_mutation_path() {
        let mut fs = VirtualFs::with_capacity(0);
        assert_eq!(fs.op_counts(), FsOpCounts::default());
        fs.create("/u1/a", UserId(1), 10, day(0)).unwrap();
        fs.create("/u1/proj/b", UserId(1), 20, day(0)).unwrap();
        let c = fs.create("/u1/proj/c", UserId(1), 30, day(0)).unwrap();
        fs.access("/u1/a", day(1));
        fs.access("/u1/gone", day(1));
        fs.rename("/u1/a", "/u1/moved").unwrap();
        fs.remove("/u1/moved").unwrap();
        fs.remove("/u1/proj/b").unwrap();
        fs.remove_id(c).unwrap();
        let ops = fs.op_counts();
        assert_eq!(ops.creates, 3);
        assert_eq!(ops.accesses, 2);
        assert_eq!(ops.hits, 1);
        assert_eq!(ops.misses, 1);
        assert_eq!(ops.renames, 1);
        assert_eq!(ops.removes, 3);
        assert_eq!(fs.changelog_depth(), 0);
    }

    #[test]
    fn purges_leave_tombstones_that_creates_and_restages_take() {
        use activedr_core::policy::PurgedFile;
        let mut fs = VirtualFs::with_capacity(0);
        fs.enable_changelog();
        let f = fs.create("/u1/d/f", UserId(1), 10, day(0)).unwrap();
        fs.create("/u1/keep", UserId(1), 20, day(0)).unwrap();
        fs.drain_changelog();
        let purge = |id: NodeId| RetentionOutcome {
            purged: vec![PurgedFile {
                user: UserId(1),
                id: FileId(u64::from(id.0)),
                size: 10,
            }],
            purged_bytes: 10,
            target_met: true,
            group_scans: vec![],
            exempt_skipped: 0,
        };
        assert_eq!(fs.apply(&purge(f)), 10);
        assert!(matches!(
            fs.drain_changelog().as_slice(),
            [Delta::Remove { id }] if *id == f
        ));
        let tombstone = Tombstone {
            owner: UserId(1),
            size: 10,
        };
        assert_eq!(fs.tombstone("/u1/d/f"), Some(tombstone));
        assert_eq!(fs.tombstone("/u1/d"), None);
        assert_eq!(fs.tombstone("/u1/keep"), None);
        // The dead nodes are invisible to lookups and walks.
        assert!(!fs.exists("/u1/d/f"));
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.iter().count(), 1);
        assert_eq!(fs.used_bytes(), 20);
        // A restage creates the file from its tombstone under the
        // tombstone's id, and takes the tombstone.
        let (got, created) = fs.restage("/u1/d/f", day(5)).unwrap();
        assert_eq!((got, created), (tombstone, Ok(f)));
        assert_eq!(
            fs.meta("/u1/d/f").map(|m| (m.size, m.atime)),
            Some((10, day(5)))
        );
        assert_eq!(fs.tombstone("/u1/d/f"), None);
        assert!(fs.restage("/u1/d/f", day(6)).is_none());
        // A create at a purged path takes its tombstone too, and the
        // latest purge wins.
        fs.apply(&purge(f));
        assert_eq!(fs.create("/u1/d/f", UserId(2), 3, day(7)), Ok(f));
        assert_eq!(fs.tombstone("/u1/d/f"), None);
        fs.apply(&purge(f));
        let latest = Tombstone {
            owner: UserId(2),
            size: 3,
        };
        assert_eq!(fs.tombstone("/u1/d/f"), Some(latest));
        // A restage that cannot create drops its tombstone.
        fs.create("/u1/d/f/g", UserId(2), 4, day(8)).unwrap();
        assert_eq!(fs.tombstone("/u1/d/f"), Some(latest));
        let (_, created) = fs.restage("/u1/d/f", day(9)).unwrap();
        assert_eq!(created, Err(InsertError::DirectoryExists));
        assert_eq!(fs.tombstone("/u1/d/f"), None);
        fs.trie.check_structure();
    }

    #[derive(Debug, Clone)]
    enum TombOp {
        Create(String, u32, u64),
        /// Purge every file at or under the path, in one `apply`.
        Purge(String),
        Remove(String),
        Rename(String, String),
        Tombstone(String),
        Restage(String),
    }

    /// Names past the inline capacity, multi-byte UTF-8, and bytes below
    /// `/` (`a.b`, `a-1`) beside short ones that collide.
    const TOMB_COMPONENTS: [&str; 6] = [
        "a",
        "b",
        "a.b",
        "a-1",
        "données",
        "a-component-name-past-the-inline-capacity",
    ];

    fn arb_tomb_path() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        prop::collection::vec(prop::sample::select(TOMB_COMPONENTS.to_vec()), 1..5)
            .prop_map(|comps| format!("/{}", comps.join("/")))
    }

    fn arb_tomb_op() -> impl proptest::strategy::Strategy<Value = TombOp> {
        use proptest::prelude::*;
        prop_oneof![
            (arb_tomb_path(), 0u32..3, 1u64..100).prop_map(|(p, o, s)| TombOp::Create(p, o, s)),
            (arb_tomb_path(), 0u32..3, 1u64..100).prop_map(|(p, o, s)| TombOp::Create(p, o, s)),
            (arb_tomb_path(), 0u32..3, 1u64..100).prop_map(|(p, o, s)| TombOp::Create(p, o, s)),
            arb_tomb_path().prop_map(TombOp::Purge),
            arb_tomb_path().prop_map(TombOp::Purge),
            arb_tomb_path().prop_map(TombOp::Remove),
            (arb_tomb_path(), arb_tomb_path()).prop_map(|(a, b)| TombOp::Rename(a, b)),
            arb_tomb_path().prop_map(TombOp::Tombstone),
            arb_tomb_path().prop_map(TombOp::Restage),
            arb_tomb_path().prop_map(TombOp::Restage),
        ]
    }

    /// Every path of the alphabet, up to four components.
    fn every_tomb_path() -> Vec<String> {
        let mut paths: Vec<String> = vec![String::new()];
        let mut all = Vec::new();
        for _ in 0..4 {
            paths = paths
                .iter()
                .flat_map(|p| TOMB_COMPONENTS.iter().map(move |c| format!("{p}/{c}")))
                .collect();
            all.extend(paths.iter().cloned());
        }
        all
    }

    fn files(fs: &VirtualFs) -> Vec<(String, FileMeta)> {
        fs.iter().map(|(path, _, meta)| (path, *meta)).collect()
    }

    /// Whether `path` is `dir` or lies below it, component by component.
    fn at_or_under(dir: &str, path: &str) -> bool {
        let mut comps = crate::trie::components(path);
        crate::trie::components(dir).all(|d| comps.next() == Some(d))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Tombstones equal the restager's old path map, kept by its rules:
        /// a purge inserts (the latest wins), a successful create at the
        /// path removes, a restage removes. The trie keeps its structure,
        /// and its files equal a twin's that removed its purge victims.
        #[test]
        fn tombstones_equal_the_restager_map(
            ops in proptest::collection::vec(arb_tomb_op(), 1..60)
        ) {
            let every = every_tomb_path();
            let mut fs = VirtualFs::with_capacity(0);
            let mut twin = VirtualFs::with_capacity(0);
            let mut map: std::collections::HashMap<String, (UserId, u64)> =
                std::collections::HashMap::new();
            for (step, op) in ops.iter().enumerate() {
                let ts = day(i64::try_from(step).unwrap_or(0));
                match op {
                    TombOp::Create(path, owner, size) => {
                        let got = fs.create(path, UserId(*owner), *size, ts).map(|_| ());
                        let want = twin.create(path, UserId(*owner), *size, ts).map(|_| ());
                        proptest::prop_assert_eq!(&got, &want, "create {}", path);
                        if got.is_ok() {
                            map.remove(path);
                        }
                    }
                    TombOp::Purge(dir) => {
                        let victims: Vec<(String, NodeId, FileMeta)> = fs
                            .iter()
                            .filter(|(p, ..)| at_or_under(dir, p))
                            .map(|(p, id, meta)| (p, id, *meta))
                            .collect();
                        let outcome = RetentionOutcome {
                            purged: victims
                                .iter()
                                .map(|(_, id, meta)| activedr_core::policy::PurgedFile {
                                    user: meta.owner,
                                    id: FileId(u64::from(id.0)),
                                    size: meta.size,
                                })
                                .collect(),
                            purged_bytes: victims.iter().map(|(.., meta)| meta.size).sum(),
                            target_met: true,
                            group_scans: vec![],
                            exempt_skipped: 0,
                        };
                        fs.apply(&outcome);
                        for (path, _, meta) in victims {
                            let id = twin.trie.lookup(&path);
                            proptest::prop_assert!(id.and_then(|id| twin.remove_id(id)).is_some());
                            map.insert(path, (meta.owner, meta.size));
                        }
                    }
                    TombOp::Remove(path) => {
                        proptest::prop_assert_eq!(fs.remove(path), twin.remove(path));
                    }
                    TombOp::Rename(from, to) => {
                        let got = fs.rename(from, to).map(|_| ());
                        let want = twin.rename(from, to).map(|_| ());
                        proptest::prop_assert_eq!(&got, &want, "rename {} {}", from, to);
                        let same = crate::trie::components(from).eq(crate::trie::components(to));
                        if got.is_ok() && !same {
                            map.remove(&canonical_path(to));
                        }
                    }
                    TombOp::Tombstone(path) => {
                        let want = map.get(path).map(|&(owner, size)| Tombstone { owner, size });
                        proptest::prop_assert_eq!(fs.tombstone(path), want);
                    }
                    TombOp::Restage(path) => {
                        let got = fs.restage(path, ts);
                        let want = map.remove(path);
                        proptest::prop_assert_eq!(
                            got.as_ref().map(|(t, _)| (t.owner, t.size)),
                            want,
                            "restage {}", path
                        );
                        if let (Some((_, created)), Some((owner, size))) = (got, want) {
                            let twin_created = twin.create(path, owner, size, ts).map(|_| ());
                            proptest::prop_assert_eq!(created.map(|_| ()), twin_created);
                        }
                    }
                }
                fs.trie.check_structure();
                for path in &every {
                    let want = map.get(path).map(|&(owner, size)| Tombstone { owner, size });
                    proptest::prop_assert_eq!(fs.tombstone(path), want, "tombstone at {}", path);
                }
                proptest::prop_assert_eq!(files(&fs), files(&twin));
                proptest::prop_assert_eq!(fs.used_bytes(), twin.used_bytes());
            }
        }
    }

    #[test]
    fn changelog_depth_follows_buffered_deltas() {
        let mut fs = VirtualFs::with_capacity(0);
        fs.enable_changelog();
        fs.create("/u1/a", UserId(1), 10, day(0)).unwrap();
        fs.access("/u1/a", day(1));
        assert_eq!(fs.changelog_depth(), 2);
        fs.drain_changelog();
        assert_eq!(fs.changelog_depth(), 0);
    }
}
