//! Incrementally maintained retention catalog (Robinhood-style index).
//!
//! [`CatalogIndex`] is the consumer side of the [`crate::changelog`]
//! stream. It stores the policy-facing [`Catalog`] itself — users
//! ascending by id, each listing ordered exactly as a trie walk would
//! order it — and keeps each listing's path keys beside it. Buffered
//! [`Delta`] batches are folded into that catalog in place, in
//! O(changes), so a retention trigger borrows it instead of re-walking
//! the namespace: [`CatalogIndex::snapshot`] builds nothing.
//!
//! # Batched ingestion
//!
//! Deltas arrive through a [`DeltaBuffer`], which collapses a window of
//! changes to one net effect per node. [`CatalogIndex::flush`] applies a
//! drained window in two phases: first each net delta is *resolved*
//! against the pre-flush index into **positional slot events** — a dense
//! id→(user, slot) reverse map turns touches into O(1) patches of the
//! served record and overwrites/removes into integer positions, so only
//! genuinely new paths pay a binary search; then the events are ordered
//! by one integer sort and each touched user's listing is rebuilt by a
//! single **sort-merge** pass of its old records against its event run —
//! one pass per user per flush instead of one insert per delta — with the
//! index's byte and file totals updated once per listing and every
//! reshaped listing's positions re-bound in a finalize sweep.
//! [`CatalogIndex::apply`] remains as the convenience wrapper that
//! buffers and flushes in one step.
//!
//! # Equivalence guarantee
//!
//! [`CatalogIndex::snapshot`] is *identical* to
//! [`crate::VirtualFs::catalog`] over the same file system state and
//! exemption list: the same `FileId` space (trie node ids), the same user
//! order (ascending [`UserId`]), the same per-user file order
//! (component-lexicographic path order, via `PathKey`), and the same
//! exemption flags. `tests/integration_catalog_mode.rs` pins this at every
//! trigger of full replays under all four policies, and the differential
//! oracle (`crates/oracle`) additionally pins buffered application to
//! per-delta application across randomized op tapes with explicit flush
//! boundaries.

use crate::changelog::Delta;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::meta::FileMeta;
use crate::trie::NodeId;
use crate::vfs::VirtualFs;
use activedr_core::convert;
use activedr_core::files::{Catalog, FileId, FileRecord, UserFiles};
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A canonical path that orders the way the trie iterates:
/// lexicographically by *component*, not by raw string. The two differ
/// when a component contains bytes below `/` (0x2F): as raw strings
/// `"/x/a.b" < "/x/a/b"`, but component order puts `a` before `a.b`.
///
/// Backed by `Arc<str>`, so a key is `Send + Sync` and cheap to clone;
/// the flush hot path itself never clones one — each inserted path's
/// `String` moves straight into its slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PathKey(Arc<str>);

impl PathKey {
    /// Key for a path that is *already* canonical — what every changelog
    /// delta and trie walk emits — skipping re-normalization.
    pub fn from_canonical(path: String) -> PathKey {
        debug_assert_eq!(
            crate::changelog::canonical_path(&path),
            path,
            "PathKey::from_canonical requires a canonical path"
        );
        PathKey(path.into())
    }

    /// The canonical path string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Rank a path byte for comparison: the separator sorts below every
/// other byte, which makes plain byte order on canonical paths agree
/// with component-lexicographic order (the expensive per-component walk
/// the flush merge would otherwise pay on every comparison).
#[inline]
fn sep_low(b: u8) -> u16 {
    if b == b'/' {
        0
    } else {
        u16::from(b) + 1
    }
}

/// Component-lexicographic comparison of two canonical paths, as raw
/// bytes. Skips the common prefix eight bytes at a time (a word compare),
/// then ranks only the first differing pair — per-byte mapping is only
/// needed at the divergence point, since [`sep_low`] is a bijection and
/// so preserves byte equality.
fn cmp_canonical(a: &[u8], b: &[u8]) -> Ordering {
    let mut matched = 0;
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        if ca != cb {
            break;
        }
        matched += 8;
    }
    for (&x, &y) in a.iter().zip(b.iter()).skip(matched) {
        let (x, y) = (sep_low(x), sep_low(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    a.len().cmp(&b.len())
}

impl Ord for PathKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_canonical(self.0.as_bytes(), other.0.as_bytes())
    }
}

impl PartialOrd for PathKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The trie node a served record stands for: record ids are node ids,
/// widened to the catalog's `FileId` space.
fn node_of(file: &FileRecord) -> u32 {
    convert::u32_from_u64(file.id.0)
}

/// One resolution-phase event against a slot of an owner's pre-flush
/// listing. `Remove` and `Put` target an *existing* slot by position (the
/// record's path key is kept); `Insert` lands a new record ahead of a
/// position. Events are collected into a single flush-wide vector in
/// delta order and sorted by the packed (owner, position, at-slot) key —
/// an integer sort, since only same-position inserts ever compare paths.
#[derive(Debug)]
enum SlotEv {
    Remove,
    Put(FileRecord),
    Insert(PathKey, FileRecord),
}

/// Sort key for one slot event: owner in the high 32 bits, then the
/// target slot position, then an at-slot flag so insert-before events
/// order ahead of same-slot replacements.
#[inline]
fn pack(user: UserId, pos: usize, at_slot: bool) -> u64 {
    (u64::from(user.0) << 32) | (convert::u64_from_usize(pos) << 1) | u64::from(at_slot)
}

/// One user's listing as its merge pass rebuilds it, with the bytes the
/// pass retired and landed, applied to the index total once per listing
/// instead of once per delta.
#[derive(Debug, Default)]
struct MergedListing {
    keys: Vec<PathKey>,
    files: Vec<FileRecord>,
    bytes_added: u64,
    bytes_removed: u64,
}

impl MergedListing {
    fn with_capacity(n: usize) -> Self {
        MergedListing {
            keys: Vec::with_capacity(n),
            files: Vec::with_capacity(n),
            ..MergedListing::default()
        }
    }

    /// Carry an old record over unchanged.
    fn keep(&mut self, key: PathKey, file: FileRecord) {
        self.keys.push(key);
        self.files.push(file);
    }

    /// Land a new or replacement record.
    fn land(&mut self, key: PathKey, file: FileRecord) {
        self.bytes_added += file.size;
        self.keep(key, file);
    }

    /// Land an inserted record. The defensive same-key collision (two
    /// inserts on one path inside a window — the producer's id-binding
    /// invariant makes it unreachable) resolves last writer wins, exactly
    /// as per-delta application would.
    fn insert(&mut self, unmapped: &mut Vec<u32>, key: PathKey, file: FileRecord) {
        if let (Some(last_key), Some(last_file)) = (self.keys.last(), self.files.last_mut()) {
            if *last_key == key {
                if last_file.id != file.id {
                    unmapped.push(node_of(last_file));
                }
                self.bytes_removed += last_file.size;
                self.bytes_added += file.size;
                *last_file = file;
                return;
            }
        }
        self.land(key, file);
    }
}

/// Bind `id`'s reverse-map slot, growing the dense vector on demand.
fn id_slot_set(by_id: &mut Vec<Option<(UserId, u32)>>, id: u32, slot: (UserId, u32)) {
    let i = convert::usize_from_u32(id);
    if i >= by_id.len() {
        by_id.resize(i + 1, None);
    }
    if let Some(entry) = by_id.get_mut(i) {
        *entry = Some(slot);
    }
}

/// The incrementally maintained catalog: the served [`Catalog`], the
/// path keys beside each listing, and the reverse map flushes resolve
/// ids through.
#[derive(Debug, Clone, Default)]
pub struct CatalogIndex {
    /// What [`CatalogIndex::snapshot`] lends out: users ascending by id,
    /// none with an empty listing, each listing in path order.
    catalog: Catalog,
    /// `keys[i][j]` is the path of `catalog.users[i].files[j]`.
    keys: Vec<Vec<PathKey>>,
    /// Reverse map from node id to (owner, slot position in the owner's
    /// listing), so `Touch`/`Remove` deltas (which carry only ids) resolve
    /// in O(1) without a path. Node ids are trie slab indices, so a dense
    /// vector beats hashing on the flush hot path; vacant slots are
    /// `None`. Every flush that reshapes a listing rebinds the positions
    /// of all its surviving records.
    by_id: Vec<Option<(UserId, u32)>>,
    files: usize,
    total_bytes: u64,
}

impl CatalogIndex {
    /// An empty index.
    pub fn new() -> Self {
        CatalogIndex::default()
    }

    /// Seed the index with one full walk of `fs` — the single initial scan
    /// Robinhood also cannot avoid. Every subsequent trigger is fed from
    /// the changelog alone.
    pub fn from_fs(fs: &VirtualFs, exemptions: &ExemptionList) -> Self {
        let mut index = CatalogIndex::new();
        let walk = fs.iter().map(|(path, id, meta)| Delta::Upsert {
            path,
            id,
            meta: *meta,
        });
        index.apply(walk, exemptions);
        index
    }

    /// Fold a delta batch into the index in one buffered flush.
    /// `exemptions` must be the same list the full scan would use (the
    /// engine's is fixed per run).
    pub fn apply(&mut self, deltas: impl IntoIterator<Item = Delta>, exemptions: &ExemptionList) {
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb(deltas);
        self.flush(&mut buffer, exemptions);
    }

    /// Where `user`'s listing sits in the served catalog (`Err`: where it
    /// would be inserted).
    fn position(&self, user: UserId) -> Result<usize, usize> {
        self.catalog
            .users
            .binary_search_by_key(&user, |listing| listing.user)
    }

    /// The path keys of `user`'s listing (empty for a user with no files).
    fn keys_of(&self, user: UserId) -> &[PathKey] {
        self.position(user)
            .ok()
            .and_then(|i| self.keys.get(i))
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Resolve an upsert that lands on a path not currently bound to its
    /// id: binary-search the owner's pre-flush path keys, emitting a
    /// same-slot `Put` when the path already exists there (a
    /// remove-and-recreate window, or the defensive double-bind case) and
    /// an `Insert` otherwise.
    fn insert_event(
        &self,
        events: &mut Vec<(u64, u64, SlotEv)>,
        user: UserId,
        path: String,
        file: FileRecord,
    ) {
        let found = self
            .keys_of(user)
            .binary_search_by(|k| cmp_canonical(k.as_str().as_bytes(), path.as_bytes()));
        let seq = convert::u64_from_usize(events.len());
        match found {
            Ok(pos) => events.push((pack(user, pos, true), seq, SlotEv::Put(file))),
            Err(pos) => events.push((
                pack(user, pos, false),
                seq,
                SlotEv::Insert(PathKey::from_canonical(path), file),
            )),
        }
    }

    /// Drain `buffer` and fold its net deltas into the index: resolve
    /// each delta against the pre-flush state into per-user slot
    /// operations, then rebuild each touched user's listing with one
    /// sort-merge pass (see the module docs).
    pub fn flush(&mut self, buffer: &mut DeltaBuffer, exemptions: &ExemptionList) {
        if buffer.is_empty() {
            return;
        }

        // Phase 1 — resolution. `by_id` entries consumed here are
        // re-established for every surviving record in the finalize step,
        // so each net delta resolves against the pre-flush state exactly
        // once (the buffer holds at most one delta per id).
        let mut events: Vec<(u64, u64, SlotEv)> = Vec::with_capacity(buffer.len());
        let mut unmapped: Vec<u32> = Vec::new();
        for delta in buffer.drain() {
            match delta {
                Delta::Upsert { path, id, meta } => {
                    let mut file = FileRecord::new(FileId(u64::from(id.0)), meta.size, meta.atime)
                        .with_ctime(meta.ctime)
                        .with_access_count(meta.access_count);
                    file.exempt = exemptions.is_exempt(&path);
                    // The id may already be indexed (an overwrite at the
                    // same path keeps its node id; a rename re-uses the id
                    // at a new path): same slot is a positional replace,
                    // anything else kills the old slot and re-resolves.
                    let old = self
                        .by_id
                        .get_mut(convert::usize_from_u32(id.0))
                        .and_then(Option::take);
                    if let Some((old_user, old_pos)) = old {
                        let pos = convert::usize_from_u32(old_pos);
                        let seq = convert::u64_from_usize(events.len());
                        let same_slot = old_user == meta.owner
                            && self
                                .keys_of(old_user)
                                .get(pos)
                                .is_some_and(|k| k.as_str() == path);
                        if same_slot {
                            events.push((pack(old_user, pos, true), seq, SlotEv::Put(file)));
                            continue;
                        }
                        events.push((pack(old_user, pos, true), seq, SlotEv::Remove));
                    }
                    self.insert_event(&mut events, meta.owner, path, file);
                }
                Delta::Touch {
                    id,
                    atime,
                    access_count,
                } => self.touch_in_place(id, atime, access_count),
                Delta::Remove { id } => {
                    let old = self
                        .by_id
                        .get_mut(convert::usize_from_u32(id.0))
                        .and_then(Option::take);
                    if let Some((user, pos)) = old {
                        let seq = convert::u64_from_usize(events.len());
                        events.push((
                            pack(user, convert::usize_from_u32(pos), true),
                            seq,
                            SlotEv::Remove,
                        ));
                    }
                }
            }
        }
        // Order events by (owner, position, at-slot): an integer sort —
        // paths only compare between same-position inserts, with the
        // arrival sequence as the final tiebreak so the defensive
        // same-key fold stays deterministic.
        events.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| match (&a.2, &b.2) {
                    (SlotEv::Insert(ka, _), SlotEv::Insert(kb, _)) => ka.cmp(kb),
                    _ => Ordering::Equal,
                })
                .then(a.1.cmp(&b.1))
        });

        // Phase 2 — one merge pass per touched user: walk the old
        // records by position, splicing this user's run of slot events in
        // as it goes. Positions refer to the pre-flush listing, which
        // phase 1 never reshapes (touches only patch records in place).
        let mut rebound: Vec<UserId> = Vec::new();
        let mut emptied = false;
        let mut events = events.into_iter().peekable();
        while let Some(user_bits) = events.peek().map(|e| e.0 >> 32) {
            let user = UserId(convert::u32_from_u64(user_bits));
            rebound.push(user);
            let i = self.position(user).unwrap_or_else(|i| {
                self.catalog
                    .users
                    .insert(i, UserFiles::new(user, Vec::new()));
                self.keys.insert(i, Vec::new());
                i
            });
            let (Some(listing), Some(keys)) = (self.catalog.users.get_mut(i), self.keys.get_mut(i))
            else {
                // `i` was just found or inserted, so this never runs; if it
                // did, the user's events must still be consumed for the
                // loop to advance.
                while events.next_if(|e| (e.0 >> 32) == user_bits).is_some() {}
                continue;
            };
            let prior_len = listing.files.len();
            let mut merged = MergedListing::with_capacity(prior_len + 8);
            let prior = std::mem::take(keys)
                .into_iter()
                .zip(std::mem::take(&mut listing.files));
            for (pos, (old_key, old_file)) in prior.enumerate() {
                let before = pack(user, pos, false);
                let at = pack(user, pos, true);
                // New records landing ahead of this slot.
                while let Some((_, _, ev)) = events.next_if(|e| e.0 == before) {
                    if let SlotEv::Insert(key, file) = ev {
                        merged.insert(&mut unmapped, key, file);
                    }
                }
                // At most a remove plus a put target one slot (the put
                // arrives via the remove-and-recreate or defensive
                // double-bind resolution); either way the old record
                // retires, and a put re-lands on the old key.
                if events.peek().is_some_and(|e| e.0 == at) {
                    let mut put: Option<FileRecord> = None;
                    while let Some((_, _, ev)) = events.next_if(|e| e.0 == at) {
                        if let SlotEv::Put(file) = ev {
                            put = Some(file);
                        }
                    }
                    merged.bytes_removed += old_file.size;
                    if let Some(new) = put {
                        if new.id != old_file.id {
                            // The displaced record's id loses its binding
                            // — unless it relocated in this window, in
                            // which case the rebind pass below re-binds it
                            // after the unmapping sweep.
                            unmapped.push(node_of(&old_file));
                        }
                        merged.land(old_key, new);
                    }
                } else {
                    merged.keep(old_key, old_file);
                }
            }
            // Records past the last old slot are pure insertions.
            while let Some((_, _, ev)) = events.next_if(|e| (e.0 >> 32) == user_bits) {
                if let SlotEv::Insert(key, file) = ev {
                    merged.insert(&mut unmapped, key, file);
                }
            }
            self.total_bytes -= merged.bytes_removed;
            self.total_bytes += merged.bytes_added;
            self.files -= prior_len;
            self.files += merged.files.len();
            emptied |= merged.files.is_empty();
            listing.files = merged.files;
            *keys = merged.keys;
        }
        if emptied {
            // Users whose last file went leave the catalog in one pass.
            let users = std::mem::take(&mut self.catalog.users);
            let keys = std::mem::take(&mut self.keys);
            (self.catalog.users, self.keys) = users
                .into_iter()
                .zip(keys)
                .filter(|(listing, _)| !listing.files.is_empty())
                .unzip();
        }

        // Finalize the reverse map: dead ids first, then every surviving
        // record of every reshaped listing gets its (possibly shifted)
        // position re-bound — in that order, so an id whose old slot was
        // clobbered in the same window keeps its new binding.
        for id in unmapped {
            if let Some(slot) = self.by_id.get_mut(convert::usize_from_u32(id)) {
                *slot = None;
            }
        }
        for user in rebound {
            let Some(listing) = self
                .position(user)
                .ok()
                .and_then(|i| self.catalog.users.get(i))
            else {
                continue;
            };
            for (p, file) in listing.files.iter().enumerate() {
                id_slot_set(
                    &mut self.by_id,
                    node_of(file),
                    (user, convert::u32_from_usize(p)),
                );
            }
        }
    }

    /// Apply a `Touch` directly to the served record. Touches never move
    /// a record between slots, so they bypass the batch merge entirely —
    /// the reverse map points straight at the slot, no search at all.
    fn touch_in_place(&mut self, id: NodeId, atime: Timestamp, access_count: u32) {
        let Some(&(user, pos)) = self
            .by_id
            .get(convert::usize_from_u32(id.0))
            .and_then(Option::as_ref)
        else {
            return; // touch of an untracked file: nothing to update
        };
        let served = self
            .position(user)
            .ok()
            .and_then(|i| self.catalog.users.get_mut(i))
            .and_then(|listing| listing.files.get_mut(convert::usize_from_u32(pos)));
        if let Some(file) = served {
            file.atime = atime;
            file.access_count = access_count;
        }
    }

    /// The policy-facing catalog. Every flush leaves it current, so this
    /// lends it out as it stands and builds nothing. The receiver stays
    /// `&mut self`, the shape callers already bind.
    pub fn snapshot(&mut self) -> &Catalog {
        &self.catalog
    }

    /// Files currently indexed.
    pub fn file_count(&self) -> usize {
        self.files
    }

    /// Bytes currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Every indexed record as `(path, id, meta)`, ascending by (user,
    /// path), borrowed straight from the catalog — the checkpoint
    /// writer's view ([`crate::storage`]). Upserting these back through
    /// [`CatalogIndex::flush`] with the same exemption list reconstructs
    /// an index with identical contents. Stripe counts are not retained
    /// by the index, so the metadata normalizes them to 1; no index
    /// observable reads them.
    pub(crate) fn export_entries(&self) -> impl Iterator<Item = (&str, NodeId, FileMeta)> + '_ {
        self.catalog
            .users
            .iter()
            .zip(&self.keys)
            .flat_map(|(listing, keys)| {
                listing.files.iter().zip(keys).map(move |(f, key)| {
                    let meta = FileMeta {
                        owner: listing.user,
                        size: f.size,
                        atime: f.atime,
                        ctime: f.ctime,
                        stripes: 1,
                        access_count: f.access_count,
                    };
                    (key.as_str(), NodeId(node_of(f)), meta)
                })
            })
    }
}

/// Should an incremental trigger fold `net_deltas` pending net deltas
/// into an index of `indexed_files` records, or is a plain namespace
/// walk cheaper?
///
/// A flush costs O(net) resolution + sort + merge at roughly 4× the
/// per-record cost of the lean trie walk, so the crossover sits near
/// net/files ≈ 25 % — between the measured 15 %-churn (≈1.5×) and
/// 35 %-churn (≈0.8×) sweep points in `docs/results/BENCH_catalog.json`.
/// Below the threshold the engine flushes; above it the trigger falls
/// back to a full scan and leaves the index and buffer intact (the
/// buffer keeps coalescing, so `index ⊕ buffer = truth` still holds).
/// A walk does not shrink the backlog, so a fallback trigger also puts
/// the raw deltas of its own interval to this test: if they alone would
/// flush, the backlog is stale, and the engine folds it the same day
/// (`catalog.backlog_folds`) so the next trigger can flush again.
#[must_use]
pub fn flush_beats_scan(net_deltas: usize, indexed_files: usize) -> bool {
    net_deltas.saturating_mul(4) <= indexed_files.max(1)
}

/// Describe every way two catalogs differ, as human-readable lines
/// (empty when identical). Used by the engine's debug-mode catalog guard
/// to report incremental-vs-full-scan drift through the flight recorder
/// with enough detail to localize the broken delta path.
pub fn diff_catalogs(incremental: &Catalog, full_scan: &Catalog) -> Vec<String> {
    let mut out = Vec::new();
    let inc_users: BTreeMap<UserId, &UserFiles> =
        incremental.users.iter().map(|u| (u.user, u)).collect();
    let scan_users: BTreeMap<UserId, &UserFiles> =
        full_scan.users.iter().map(|u| (u.user, u)).collect();
    for (&user, _) in inc_users
        .iter()
        .filter(|(u, _)| !scan_users.contains_key(u))
    {
        out.push(format!(
            "user {}: present in index, absent in full scan",
            user.0
        ));
    }
    for (&user, &scanned) in &scan_users {
        let Some(indexed) = inc_users.get(&user) else {
            out.push(format!(
                "user {}: absent in index, present in full scan",
                user.0
            ));
            continue;
        };
        if indexed.files.len() != scanned.files.len() {
            out.push(format!(
                "user {}: {} file(s) in index, {} in full scan",
                user.0,
                indexed.files.len(),
                scanned.files.len()
            ));
        }
        for (i, s) in indexed.files.iter().zip(scanned.files.iter()) {
            if i != s {
                out.push(format!(
                    "user {} file {}: index {:?} != scan {:?}",
                    user.0, s.id.0, i, s
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::user::UserId;

    fn day(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    #[test]
    fn flush_beats_scan_crossover() {
        // Crossover at net/files = 25%: flush at or below, scan above.
        assert!(flush_beats_scan(0, 0));
        assert!(flush_beats_scan(0, 1000));
        assert!(flush_beats_scan(250, 1000));
        assert!(!flush_beats_scan(251, 1000));
        assert!(!flush_beats_scan(1000, 1000));
        // Degenerate empty index: one pending delta means a scan (the
        // walk of nothing is free), but zero pending still flushes.
        assert!(!flush_beats_scan(1, 0));
        // No overflow at the extremes.
        assert!(!flush_beats_scan(usize::MAX, usize::MAX - 1));
    }

    fn populated() -> (VirtualFs, ExemptionList) {
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/u2/x", UserId(2), 10, day(1)).unwrap();
        fs.create("/u1/keep", UserId(1), 20, day(2)).unwrap();
        fs.create("/u1/drop", UserId(1), 30, day(3)).unwrap();
        fs.create("/u1/deep/run/out.dat", UserId(1), 40, day(4))
            .unwrap();
        let mut ex = ExemptionList::new();
        ex.reserve_file("/u1/keep");
        (fs, ex)
    }

    /// Key for `path`, normalized as the trie normalizes it.
    fn key(path: &str) -> PathKey {
        PathKey::from_canonical(crate::changelog::canonical_path(path))
    }

    #[test]
    fn path_key_orders_like_the_trie() {
        // Raw string order would put "/x/a.b" first ('.' < '/'); component
        // order puts the shorter component "a" first, like the trie.
        let mut keys = [key("/x/a.b"), key("/x/a/b"), key("/x/a")];
        keys.sort();
        let sorted: Vec<&str> = keys.iter().map(PathKey::as_str).collect();
        assert_eq!(sorted, vec!["/x/a", "/x/a/b", "/x/a.b"]);
        // And normalization matches the trie's.
        assert_eq!(key("//a/./b").as_str(), "/a/b");
        // The ownership-taking constructor agrees with the normalizing one
        // on already-canonical input.
        assert_eq!(PathKey::from_canonical("/a/b".to_string()), key("/a/b"));
    }

    #[test]
    fn seeded_index_matches_full_scan() {
        let (fs, ex) = populated();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert_eq!(index.file_count(), fs.file_count());
        assert_eq!(index.total_bytes(), fs.used_bytes());
    }

    #[test]
    fn deltas_keep_index_identical_to_rescans() {
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut index = CatalogIndex::from_fs(&fs, &ex);

        // Creates, overwrites, touches, removals — then compare.
        fs.create("/u3/new", UserId(3), 7, day(5)).unwrap();
        fs.create("/u1/drop", UserId(1), 99, day(6)).unwrap(); // overwrite
        fs.access("/u2/x", day(7));
        fs.remove("/u1/keep").unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert_eq!(index.total_bytes(), fs.used_bytes());

        // Removing a user's last file drops the user entirely.
        fs.remove("/u2/x").unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert!(index.snapshot().get(UserId(2)).is_none());

        // Subtree teardown and rename flow through as deltas too.
        fs.rename("/u3/new", "/u1/moved").unwrap();
        fs.remove_subtree("/u1/deep");
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
    }

    #[test]
    fn buffered_flush_matches_per_delta_application() {
        // The batched sort-merge path and one-delta-at-a-time application
        // must land on identical indexes — including a create/remove pair
        // that coalesces to a net no-op and a rename that relocates an id.
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut per_delta = CatalogIndex::from_fs(&fs, &ex);
        let mut batched = CatalogIndex::from_fs(&fs, &ex);

        fs.create("/u3/tmp", UserId(3), 5, day(5)).unwrap();
        fs.remove("/u3/tmp").unwrap();
        fs.create("/u1/drop", UserId(1), 99, day(6)).unwrap();
        fs.access("/u1/drop", day(7));
        fs.rename("/u1/drop", "/u2/taken").unwrap();
        let deltas = fs.drain_changelog();

        for delta in deltas.clone() {
            per_delta.apply([delta], &ex);
        }
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb(deltas);
        batched.flush(&mut buffer, &ex);

        assert_eq!(batched.snapshot(), per_delta.snapshot());
        assert_eq!(batched.snapshot(), &fs.catalog(&ex));
        assert_eq!(batched.total_bytes(), per_delta.total_bytes());
        assert_eq!(batched.file_count(), per_delta.file_count());
    }

    #[test]
    fn users_enter_and_leave_the_served_catalog_in_order() {
        // Users are inserted before, between and past the seeded ones and
        // dropped when their last file goes; a touch-only window then
        // patches the served records in place.
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/u2/a", UserId(2), 10, day(1)).unwrap();
        fs.create("/u5/only", UserId(5), 20, day(1)).unwrap();
        fs.enable_changelog();
        let ex = ExemptionList::new();
        let mut index = CatalogIndex::from_fs(&fs, &ex);

        fs.create("/u1/a", UserId(1), 1, day(2)).unwrap();
        fs.create("/u3/a", UserId(3), 3, day(2)).unwrap();
        fs.create("/u9/a", UserId(9), 9, day(2)).unwrap();
        fs.remove("/u5/only").unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert_eq!(
            index.snapshot().user_ids(),
            vec![UserId(1), UserId(2), UserId(3), UserId(9)]
        );
        assert_eq!(index.file_count(), fs.file_count());
        assert_eq!(index.total_bytes(), fs.used_bytes());

        fs.access("/u2/a", day(3));
        fs.access("/u9/a", day(4));
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert_eq!(
            index.snapshot().get(UserId(9)).unwrap().files[0].atime,
            day(4)
        );
        assert_eq!(index.file_count(), fs.file_count());
        assert_eq!(index.total_bytes(), fs.used_bytes());
    }

    #[test]
    fn owner_change_on_overwrite_moves_the_record() {
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/shared/f", UserId(1), 10, day(1)).unwrap();
        fs.enable_changelog();
        let ex = ExemptionList::new();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        // Overwrite transfers ownership to user 2.
        fs.create("/shared/f", UserId(2), 25, day(2)).unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert!(index.snapshot().get(UserId(1)).is_none());
        assert_eq!(index.snapshot().get(UserId(2)).unwrap().total_bytes(), 25);
    }

    #[test]
    fn diff_catalogs_is_empty_for_identical_states() {
        let (fs, ex) = populated();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        assert!(diff_catalogs(index.snapshot(), &fs.catalog(&ex)).is_empty());
    }

    #[test]
    fn diff_catalogs_localizes_injected_drift() {
        // Regression for the KNOWN_FAILURES changelog-drift watch item:
        // fabricate a lost-delta scenario (a Remove the changelog never
        // saw reaching the index as a spurious extra delta) and assert
        // the guard's differ pinpoints the divergence.
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        let victim = fs
            .iter()
            .find(|(p, _, _)| p == "/u2/x")
            .map(|(_, id, _)| id);
        let victim = victim.expect("fixture file");
        index.apply([Delta::Remove { id: victim }], &ex);
        let diffs = diff_catalogs(index.snapshot(), &fs.catalog(&ex));
        assert!(!diffs.is_empty());
        assert!(
            diffs.iter().any(|d| d.contains("user 2")),
            "expected user 2 in {diffs:?}"
        );
        // And a size-drift divergence names the file.
        let (mut fs2, ex2) = populated();
        fs2.enable_changelog();
        let mut index2 = CatalogIndex::from_fs(&fs2, &ex2);
        let (id, meta) = fs2
            .iter()
            .find(|(p, _, _)| p == "/u1/drop")
            .map(|(_, id, m)| (id, *m))
            .expect("fixture file");
        let mut drifted = meta;
        drifted.size += 1;
        index2.apply(
            [Delta::Upsert {
                path: "/u1/drop".to_string(),
                id,
                meta: drifted,
            }],
            &ex2,
        );
        let diffs2 = diff_catalogs(index2.snapshot(), &fs2.catalog(&ex2));
        assert!(diffs2.iter().any(|d| d.contains("file")), "{diffs2:?}");
    }

    #[test]
    fn exemption_flags_follow_the_list() {
        let (fs, ex) = populated();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        let catalog = index.snapshot();
        let u1 = catalog.get(UserId(1)).unwrap();
        let keep = u1
            .files
            .iter()
            .zip(["/u1/deep/run/out.dat", "/u1/drop", "/u1/keep"])
            .find(|(_, p)| *p == "/u1/keep")
            .unwrap()
            .0;
        assert!(keep.exempt);
        assert_eq!(u1.files.iter().filter(|f| f.exempt).count(), 1);
    }
}
