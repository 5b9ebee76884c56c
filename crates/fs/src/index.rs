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
//! id→(user, slot) reverse map turns touches, and overwrites that keep
//! their id, owner and path, into O(1) patches of the served record, and
//! moves and removes into integer positions, so only genuinely new paths
//! pay a binary search, which skips the prefix the path is known to
//! share with both bounds; then the events are ordered by one integer sort
//! and each touched user's listing is **spliced**: the records ahead of
//! its first event stay where they are, and each run of untouched records
//! between two events moves in bulk. The index's byte and file totals are
//! updated once per listing, and positions are re-bound only from a
//! listing's first event onward, in a finalize sweep.
//! [`CatalogIndex::apply`] remains as the convenience wrapper that
//! buffers and flushes in one step.
//!
//! Seeding needs no flush at all. [`CatalogIndex::from_fs`] and a
//! checkpoint's rehydrate (`storage::checkpoint`) both hand per-owner
//! listings that are already in path order to one routine that binds the
//! listings, their keys, the reverse map and the totals directly: the
//! trie walk yields that order by construction, and the checkpoint
//! decoder rejects any image that does not hold it.
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
/// the flush hot path itself never clones one. A key is one allocation,
/// copied from a borrowed path: a seed walk's buffer, or a delta's path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PathKey(Arc<str>);

impl PathKey {
    /// Key for a path that is *already* canonical — what every changelog
    /// delta and trie walk emits, and what the record codec admits —
    /// skipping re-normalization.
    pub fn from_canonical(path: &str) -> PathKey {
        debug_assert!(
            crate::changelog::is_canonical(path),
            "PathKey::from_canonical requires a canonical path, got {path:?}"
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
pub(crate) fn cmp_canonical(a: &[u8], b: &[u8]) -> Ordering {
    cmp_canonical_from(a, b, 0).0
}

/// [`cmp_canonical`] of two paths known to agree on their first `from`
/// bytes, which it does not read, with the length of the prefix the two
/// share.
fn cmp_canonical_from(a: &[u8], b: &[u8], from: usize) -> (Ordering, usize) {
    let (a_rest, b_rest) = (
        a.get(from..).unwrap_or_default(),
        b.get(from..).unwrap_or_default(),
    );
    let mut matched = 0;
    for (ca, cb) in a_rest.chunks_exact(8).zip(b_rest.chunks_exact(8)) {
        if ca != cb {
            break;
        }
        matched += 8;
    }
    for (&x, &y) in a_rest.iter().zip(b_rest.iter()).skip(matched) {
        if x != y {
            return (sep_low(x).cmp(&sep_low(y)), from + matched);
        }
        matched += 1;
    }
    (a.len().cmp(&b.len()), from + matched)
}

/// Where `path` sits among one listing's keys, as `binary_search_by`
/// with [`cmp_canonical`] says (a listing's keys are distinct). Every key
/// between the two bounds probed so far shares with `path` at least the
/// shorter of the prefixes the bounds share with it, so a probe compares
/// only past that: a listing's paths share long directory prefixes,
/// which a plain search re-reads at every probe.
fn search_keys(keys: &[PathKey], path: &[u8]) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, keys.len());
    let (mut shared_lo, mut shared_hi) = (0, 0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let Some(key) = keys.get(mid) else {
            break;
        };
        match cmp_canonical_from(key.as_str().as_bytes(), path, shared_lo.min(shared_hi)) {
            (Ordering::Less, shared) => (lo, shared_lo) = (mid + 1, shared),
            (Ordering::Greater, shared) => (hi, shared_hi) = (mid, shared),
            (Ordering::Equal, _) => return Ok(mid),
        }
    }
    Err(lo)
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

/// The served record of trie node `id` with metadata `meta`.
pub(crate) fn record(id: NodeId, meta: &FileMeta, exempt: bool) -> FileRecord {
    let mut file = FileRecord::new(FileId(u64::from(id.0)), meta.size, meta.atime)
        .with_ctime(meta.ctime)
        .with_access_count(meta.access_count);
    file.exempt = exempt;
    file
}

/// One resolution-phase event against a slot of an owner's pre-flush
/// listing. `Remove` and `Put` target an *existing* slot by position (the
/// record's path key is kept; a `Put` lands a record of another id
/// there); `Insert` lands a new record ahead of a position. A flush
/// collects them in delta order and sorts them through [`Events`].
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

/// The slot position a [`pack`]ed key targets.
#[inline]
fn packed_pos(key: u64) -> usize {
    convert::usize_from_u64((key & u64::from(u32::MAX)) >> 1)
}

/// The tail of one user's listing as a flush re-lays it, from the first
/// event on, with the bytes the splice retired and landed, applied to the
/// index total once per listing instead of once per delta.
struct Splice<'a> {
    keys: &'a mut Vec<PathKey>,
    files: &'a mut Vec<FileRecord>,
    bytes_added: u64,
    bytes_removed: u64,
}

impl Splice<'_> {
    /// Land a new or replacement record.
    fn land(&mut self, key: PathKey, file: FileRecord) {
        self.bytes_added += file.size;
        self.keys.push(key);
        self.files.push(file);
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

/// A flush's slot events. Each event stays in `evs` at its arrival
/// sequence; the sort moves only `order`, one 16-byte `(packed key,
/// sequence)` entry per event, by the packed (owner, position, at-slot)
/// key — an integer sort, since only same-position inserts ever look at
/// their events, to compare paths.
struct Events {
    order: Vec<(u64, u64)>,
    evs: Vec<SlotEv>,
}

impl Events {
    fn with_capacity(n: usize) -> Self {
        Events {
            order: Vec::with_capacity(n),
            evs: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, key: u64, ev: SlotEv) {
        self.order
            .push((key, convert::u64_from_usize(self.evs.len())));
        self.evs.push(ev);
    }
}

/// One owner's listing as a seed binds it: `keys[j]` is the path of
/// `files[j]`.
pub(crate) type Listing = (Vec<PathKey>, Vec<FileRecord>);

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
    /// Listing position by user id, [`NO_LISTING`] for a user with no
    /// listing, so a touch, an overwrite and a key lookup find their
    /// listing in O(1). It spans the ids up to the largest listed one, at
    /// most [`user_table_span`] of them; ids past its end fall back to a
    /// binary search. Rebuilt by `seeded` and by a flush that adds or
    /// drops a user, never patched.
    listing_of: Vec<u32>,
    files: usize,
    total_bytes: u64,
}

/// A user-table entry for a user with no listing.
const NO_LISTING: u32 = u32::MAX;

/// How many user ids the user table may span for `users` listings: user
/// ids are dense, but a checkpoint may name any `u32`, so the table stays
/// within a small multiple of what it indexes.
fn user_table_span(users: usize) -> usize {
    users.saturating_mul(4).saturating_add(1024)
}

impl CatalogIndex {
    /// An empty index.
    pub fn new() -> Self {
        CatalogIndex::default()
    }

    /// Seed the index with one full walk of `fs` — the single initial scan
    /// Robinhood also cannot avoid. Every subsequent trigger is fed from
    /// the changelog alone.
    ///
    /// The walk visits paths in component order, so each owner's records
    /// arrive already in listing order: they are bucketed per owner and
    /// bound straight into place, with no buffer, event sort or merge.
    pub fn from_fs(fs: &VirtualFs, exemptions: &ExemptionList) -> Self {
        let per_user: BTreeMap<UserId, Listing> =
            fs.bucket_by_owner(exemptions, true, |path, id, meta, exempt| {
                (PathKey::from_canonical(path), record(id, meta, exempt))
            });
        CatalogIndex::seeded(per_user)
    }

    /// Bind per-owner listings into a fresh index as they stand: owners
    /// strictly ascending, each listing non-empty and its keys strictly
    /// ascending, no id or path twice. The walk holds that by
    /// construction, a checkpoint by validation (`storage::checkpoint`).
    pub(crate) fn seeded(listings: impl IntoIterator<Item = (UserId, Listing)>) -> Self {
        let mut index = CatalogIndex::new();
        for (user, (keys, files)) in listings {
            debug_assert!(keys.is_sorted(), "listings arrive in path order");
            for (p, file) in files.iter().enumerate() {
                id_slot_set(
                    &mut index.by_id,
                    node_of(file),
                    (user, convert::u32_from_usize(p)),
                );
                index.total_bytes += file.size;
            }
            index.files += files.len();
            index.catalog.users.push(UserFiles::new(user, files));
            index.keys.push(keys);
        }
        index.index_users();
        index
    }

    /// Rebuild the user table from the served catalog's listings.
    fn index_users(&mut self) {
        let users = &self.catalog.users;
        let span = users
            .last()
            .map_or(0, |listing| {
                convert::usize_from_u32(listing.user.0).saturating_add(1)
            })
            .min(user_table_span(users.len()));
        self.listing_of.clear();
        self.listing_of.resize(span, NO_LISTING);
        for (i, listing) in users.iter().enumerate() {
            if let Some(slot) = self
                .listing_of
                .get_mut(convert::usize_from_u32(listing.user.0))
            {
                *slot = convert::u32_from_usize(i);
            }
        }
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

    /// Where `user`'s listing sits in the served catalog, through the
    /// user table while no flush is reshaping the catalog.
    fn listing(&self, user: UserId) -> Option<usize> {
        match self.listing_of.get(convert::usize_from_u32(user.0)) {
            Some(&i) => (i != NO_LISTING).then(|| convert::usize_from_u32(i)),
            None => self.position(user).ok(),
        }
    }

    /// The served record at `pos` of `user`'s listing.
    fn served_mut(&mut self, user: UserId, pos: u32) -> Option<&mut FileRecord> {
        let i = self.listing(user)?;
        self.catalog
            .users
            .get_mut(i)?
            .files
            .get_mut(convert::usize_from_u32(pos))
    }

    /// The path keys of `user`'s listing (empty for a user with no files).
    fn keys_of(&self, user: UserId) -> &[PathKey] {
        self.listing(user)
            .and_then(|i| self.keys.get(i))
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Resolve an upsert that lands on a path not currently bound to its
    /// id: search the owner's pre-flush path keys, emitting a
    /// same-slot `Put` when the path already exists there (a
    /// remove-and-recreate window, or the defensive double-bind case) and
    /// an `Insert` otherwise.
    fn insert_event(&self, events: &mut Events, user: UserId, path: &str, file: FileRecord) {
        let found = search_keys(self.keys_of(user), path.as_bytes());
        match found {
            Ok(pos) => events.push(pack(user, pos, true), SlotEv::Put(file)),
            Err(pos) => events.push(
                pack(user, pos, false),
                SlotEv::Insert(PathKey::from_canonical(path), file),
            ),
        }
    }

    /// Drain `buffer` and fold its net deltas into the index: resolve
    /// each delta against the pre-flush state into per-user slot
    /// operations, then splice each touched user's listing (see the
    /// module docs).
    pub fn flush(&mut self, buffer: &mut DeltaBuffer, exemptions: &ExemptionList) {
        if buffer.is_empty() {
            return;
        }

        // Phase 1 — resolution. `by_id` entries consumed here are
        // re-established for every surviving record in the finalize step,
        // so each net delta resolves against the pre-flush state exactly
        // once (the buffer holds at most one delta per id).
        let mut events = Events::with_capacity(buffer.len());
        let mut unmapped: Vec<u32> = Vec::new();
        for delta in buffer.drain() {
            match delta {
                Delta::Upsert { path, id, meta } => {
                    let file = record(id, &meta, exemptions.is_exempt(&path));
                    // The id may already be indexed (an overwrite at the
                    // same path keeps its node id; a rename re-uses the id
                    // at a new path): the same slot is patched in place,
                    // anything else kills the old slot and re-resolves.
                    let old = self
                        .by_id
                        .get_mut(convert::usize_from_u32(id.0))
                        .and_then(Option::take);
                    if let Some((old_user, old_pos)) = old {
                        let pos = convert::usize_from_u32(old_pos);
                        let same_slot = old_user == meta.owner
                            && self
                                .keys_of(old_user)
                                .get(pos)
                                .is_some_and(|k| k.as_str() == path);
                        if same_slot {
                            self.overwrite_in_place(id, old_user, old_pos, file);
                            continue;
                        }
                        events.push(pack(old_user, pos, true), SlotEv::Remove);
                    }
                    self.insert_event(&mut events, meta.owner, &path, file);
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
                        events.push(
                            pack(user, convert::usize_from_u32(pos), true),
                            SlotEv::Remove,
                        );
                    }
                }
            }
        }
        let Events { mut order, mut evs } = events;
        // Order events by (owner, position, at-slot): an integer sort —
        // paths only compare between same-position inserts (the only
        // events with a path), with the arrival sequence as the final
        // tiebreak so the defensive same-key fold stays deterministic.
        let path_of = |seq: u64| match evs.get(convert::usize_from_u64(seq)) {
            Some(SlotEv::Insert(key, _)) => Some(key),
            _ => None,
        };
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| match (path_of(a.1), path_of(b.1)) {
                    (Some(ka), Some(kb)) => ka.cmp(kb),
                    _ => Ordering::Equal,
                })
                .then(a.1.cmp(&b.1))
        });
        let mut take = |seq: u64| {
            evs.get_mut(convert::usize_from_u64(seq))
                .map(|ev| std::mem::replace(ev, SlotEv::Remove))
        };

        // Phase 2 — one splice per touched user. Positions refer to the
        // pre-flush listing, which phase 1 never reshapes (its patches
        // keep every record in its slot). The records ahead of the
        // user's first event keep their slots and bindings; the tail is
        // moved into two scratch vectors, reused from user to user, and
        // re-laid from there, untouched runs in bulk. Listings may be
        // added here, so listings are found by search, not the table.
        let mut rebound: Vec<(UserId, usize)> = Vec::new();
        let (mut added, mut emptied) = (false, false);
        let mut old_files: Vec<FileRecord> = Vec::new();
        let mut old_keys: Vec<PathKey> = Vec::new();
        let mut order = order.as_slice();
        while let Some(&(head, _)) = order.first() {
            let user_bits = head >> 32;
            let user = UserId(convert::u32_from_u64(user_bits));
            let count = order.partition_point(|e| (e.0 >> 32) == user_bits);
            let (user_order, rest) = order.split_at(count);
            order = rest;
            let mut user_events = user_order.iter().copied().peekable();
            let i = self.position(user).unwrap_or_else(|i| {
                self.catalog
                    .users
                    .insert(i, UserFiles::new(user, Vec::new()));
                self.keys.insert(i, Vec::new());
                added = true;
                i
            });
            let (Some(listing), Some(keys)) = (self.catalog.users.get_mut(i), self.keys.get_mut(i))
            else {
                // `i` was just found or inserted, so this never runs.
                continue;
            };
            let prior_len = listing.files.len();
            let first = packed_pos(head).min(prior_len);
            rebound.push((user, first));
            old_files.clear();
            old_files.extend_from_slice(listing.files.get(first..).unwrap_or_default());
            listing.files.truncate(first);
            old_keys.clear();
            old_keys.extend(keys.drain(first..));
            let mut old_keys = old_keys.drain(..);
            let mut out = Splice {
                keys,
                files: &mut listing.files,
                bytes_added: 0,
                bytes_removed: 0,
            };
            // Offset into `old_files` of the first old record not yet
            // moved or retired; `old_keys` advances in step.
            let mut next = 0;
            while let Some(&(key, _)) = user_events.peek() {
                // The untouched run ahead of this position moves in bulk.
                let run = packed_pos(key).saturating_sub(first + next);
                if run > 0 {
                    out.files
                        .extend_from_slice(old_files.get(next..next + run).unwrap_or_default());
                    out.keys.extend(old_keys.by_ref().take(run));
                    next += run;
                }
                // New records landing ahead of this position.
                let (before, at) = (key & !1, key | 1);
                while let Some((_, seq)) = user_events.next_if(|e| e.0 == before) {
                    if let Some(SlotEv::Insert(path, file)) = take(seq) {
                        out.insert(&mut unmapped, path, file);
                    }
                }
                // At most a remove plus a put target one slot (the put
                // arrives via the remove-and-recreate or defensive
                // double-bind resolution); either way the old record
                // retires, and a put re-lands on the old key.
                let mut retired = false;
                let mut put = None;
                while let Some((_, seq)) = user_events.next_if(|e| e.0 == at) {
                    retired = true;
                    if let Some(SlotEv::Put(file)) = take(seq) {
                        put = Some(file);
                    }
                }
                if !retired {
                    continue;
                }
                let (Some(old_key), Some(&old_file)) = (old_keys.next(), old_files.get(next))
                else {
                    continue;
                };
                next += 1;
                out.bytes_removed += old_file.size;
                if let Some(new) = put {
                    if new.id != old_file.id {
                        // The displaced record's id loses its binding —
                        // unless it relocated in this window, in which
                        // case the rebind pass below re-binds it after
                        // the unmapping sweep.
                        unmapped.push(node_of(&old_file));
                    }
                    out.land(old_key, new);
                }
            }
            // Records past the last event keep their order.
            out.files
                .extend_from_slice(old_files.get(next..).unwrap_or_default());
            out.keys.extend(old_keys);
            // Add before subtracting: a record the defensive same-key
            // fold retired may have landed in this splice, so only the
            // total plus what landed covers every retired size.
            self.total_bytes += out.bytes_added;
            self.total_bytes -= out.bytes_removed;
            self.files -= prior_len;
            self.files += listing.files.len();
            emptied |= listing.files.is_empty();
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
        if added || emptied {
            // The user table follows the listings to their new positions.
            self.index_users();
        }

        // Finalize the reverse map: dead ids first, then every record of
        // every spliced tail gets its (possibly shifted) position
        // re-bound — in that order, so an id whose old slot was clobbered
        // in the same window keeps its new binding.
        for id in unmapped {
            if let Some(slot) = self.by_id.get_mut(convert::usize_from_u32(id)) {
                *slot = None;
            }
        }
        for (user, first) in rebound {
            let Some(listing) = self.listing(user).and_then(|i| self.catalog.users.get(i)) else {
                continue;
            };
            for (p, file) in listing.files.iter().enumerate().skip(first) {
                id_slot_set(
                    &mut self.by_id,
                    node_of(file),
                    (user, convert::u32_from_usize(p)),
                );
            }
        }
    }

    /// Patch an overwrite that keeps its id, owner and path straight into
    /// the served record, as a touch is patched: the slot and its key
    /// stay, so the splice never sees it. Re-binds the id, which the
    /// resolution step took.
    fn overwrite_in_place(&mut self, id: NodeId, user: UserId, pos: u32, file: FileRecord) {
        if let Some(slot) = self.served_mut(user, pos) {
            let old = std::mem::replace(slot, file);
            self.total_bytes -= old.size;
            self.total_bytes += file.size;
        }
        id_slot_set(&mut self.by_id, id.0, (user, pos));
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
        if let Some(file) = self.served_mut(user, pos) {
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
    /// path in component order), borrowed straight from the catalog —
    /// the checkpoint writer's view ([`crate::storage`]). Each owner's
    /// run of entries is one listing [`CatalogIndex::seeded`] binds as
    /// it stands, so grouping them back with the same exemption list
    /// reconstructs an index with identical contents; the checkpoint
    /// decoder accepts only entries in exactly this order. Stripe counts
    /// are not retained by the index, so the metadata normalizes them to
    /// 1; no index observable reads them.
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
/// The line sits at net/files = 25 %. `bench_catalog` times the flush
/// at every point of its churn sweep (`churn_sweep_flush_only_micros`):
/// against the walk, which spells no path, the walk takes 1.6–1.9× as
/// long as the flush at 15 % churn, 1.1–1.3× at 25 %, 0.9–1.1× at 30 %
/// and 0.8–1.15× at 35 % (medians at Small and Paper scale, DESIGN.md
/// §7b). The measured crossover thus lies between 25 % and 35 %, at or
/// just above the line, which stays at 25 %; the fallback and
/// backlog-fold tests are tuned to it.
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
pub(crate) mod tests {
    use super::*;
    use activedr_core::user::UserId;
    use proptest::prelude::*;

    pub(crate) fn day(d: i64) -> Timestamp {
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
        PathKey::from_canonical(&crate::changelog::canonical_path(path))
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
        // The canonical-input constructor agrees with the normalizing one
        // on already-canonical input.
        assert_eq!(PathKey::from_canonical("/a/b"), key("/a/b"));
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

        // A rename and a removal that empties a directory flow through as
        // deltas too.
        fs.rename("/u3/new", "/u1/moved").unwrap();
        fs.remove("/u1/deep/run/out.dat").unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
    }

    #[test]
    fn buffered_flush_matches_per_delta_application() {
        // The batched splice path and one-delta-at-a-time application
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

        // Touches reach every listing, the ones just added among them,
        // through the user table the flush above rebuilt.
        fs.access("/u1/a", day(3));
        fs.access("/u2/a", day(3));
        fs.access("/u3/a", day(4));
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

    /// Two ids upserted on one path in one window, as a CRC-valid WAL
    /// batch may carry, fold to the last id (the defensive same-key
    /// fold). Into an empty index the retired record's bytes count only
    /// as landed in this flush, so the total adds before it subtracts.
    #[test]
    fn same_path_upserts_fold_to_one_record_in_an_empty_index() {
        let upsert = |id, size| Delta::Upsert {
            path: "/u1/a".to_string(),
            id: NodeId(id),
            meta: FileMeta::new(UserId(1), size, day(1)),
        };
        let mut index = CatalogIndex::new();
        index.apply([upsert(1, 10), upsert(2, 5)], &ExemptionList::new());
        assert_eq!(index.file_count(), 1);
        assert_eq!(index.total_bytes(), 5);
        assert_eq!(index.snapshot().users[0].files[0].id, FileId(2));
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

    /// What `from_fs` built before it seeded listings directly: one
    /// flush of the walk's upserts into an empty index.
    fn flushed_walk(fs: &VirtualFs, ex: &ExemptionList) -> CatalogIndex {
        let mut index = CatalogIndex::new();
        let walk = fs.iter().map(|(path, id, meta)| Delta::Upsert {
            path,
            id,
            meta: *meta,
        });
        index.apply(walk, ex);
        index
    }

    /// Field-by-field equality, reverse map included (trailing vacant
    /// slots aside: they bind nothing).
    pub(crate) fn assert_same_index(got: &CatalogIndex, want: &CatalogIndex) {
        fn bound(by_id: &[Option<(UserId, u32)>]) -> &[Option<(UserId, u32)>] {
            let live = by_id.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
            by_id.get(..live).unwrap_or_default()
        }
        assert_eq!(got.catalog, want.catalog);
        assert_eq!(got.keys, want.keys);
        assert_eq!(bound(&got.by_id), bound(&want.by_id));
        assert_eq!(got.files, want.files);
        assert_eq!(got.total_bytes, want.total_bytes);
    }

    /// One namespace mutation of the `from_fs` property.
    #[derive(Debug, Clone)]
    pub(crate) enum Op {
        Touch(usize, i64),
        Overwrite(usize, u32, u64),
        Remove(usize),
        Rename(usize, String),
        Create(String, u32, u64),
        EmptyUser(u32),
    }

    /// Components with bytes below `/` (`a.b`, `a-1`), where raw string
    /// order and component order disagree.
    pub(crate) fn arb_path() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec!["a", "b", "a.b", "a-1", "dir", "x"]),
            1..4,
        )
        .prop_map(|comps| format!("/{}", comps.join("/")))
    }

    pub(crate) fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..64, 0i64..200).prop_map(|(i, d)| Op::Touch(i, d)),
            (0usize..64, 1u32..5, 1u64..1000).prop_map(|(i, u, s)| Op::Overwrite(i, u, s)),
            (0usize..64).prop_map(Op::Remove),
            (0usize..64, arb_path()).prop_map(|(i, p)| Op::Rename(i, p)),
            (arb_path(), 1u32..5, 1u64..1000).prop_map(|(p, u, s)| Op::Create(p, u, s)),
            (1u32..5).prop_map(Op::EmptyUser),
        ]
    }

    pub(crate) fn run_op(fs: &mut VirtualFs, op: Op) {
        let paths: Vec<String> = fs.iter().map(|(p, _, _)| p).collect();
        let pick = |i: usize| paths.get(i % paths.len().max(1)).cloned();
        match op {
            Op::Touch(i, d) => {
                if let Some(p) = pick(i) {
                    fs.access(&p, day(d));
                }
            }
            Op::Overwrite(i, user, size) => {
                if let Some(p) = pick(i) {
                    fs.create(&p, UserId(user), size, day(150)).ok();
                }
            }
            Op::Remove(i) => {
                if let Some(p) = pick(i) {
                    fs.remove(&p);
                }
            }
            Op::Rename(i, to) => {
                if let Some(p) = pick(i) {
                    fs.rename(&p, &to).ok();
                }
            }
            Op::Create(p, user, size) => {
                fs.create(&p, UserId(user), size, day(120)).ok();
            }
            Op::EmptyUser(user) => {
                let owned: Vec<String> = fs
                    .iter()
                    .filter(|(_, _, m)| m.owner == UserId(user))
                    .map(|(p, _, _)| p)
                    .collect();
                for p in owned {
                    fs.remove(&p);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Seeding straight from the walk builds exactly the index a flush
        /// of the walk's upserts builds, and the two stay equal through
        /// further flushes of every kind of delta.
        #[test]
        fn from_fs_equals_flushed_walk(
            files in prop::collection::vec((arb_path(), 1u32..5, 1u64..1000, 0i64..100), 1..40),
            reserved in prop::collection::vec(arb_path(), 0..3),
            rounds in prop::collection::vec(prop::collection::vec(arb_op(), 0..12), 1..4),
        ) {
            let mut fs = VirtualFs::with_capacity(0);
            for (path, user, size, d) in files {
                fs.create(&path, UserId(user), size, day(d)).ok();
            }
            let mut ex = ExemptionList::new();
            for path in &reserved {
                ex.reserve_file(path);
            }
            let mut direct = CatalogIndex::from_fs(&fs, &ex);
            let mut flushed = flushed_walk(&fs, &ex);
            assert_same_index(&direct, &flushed);
            prop_assert_eq!(direct.snapshot(), &fs.catalog(&ex));
            prop_assert_eq!(direct.file_count(), fs.file_count());
            prop_assert_eq!(direct.total_bytes(), fs.used_bytes());

            fs.enable_changelog();
            for ops in rounds {
                for op in ops {
                    run_op(&mut fs, op);
                }
                let deltas = fs.drain_changelog();
                direct.apply(deltas.clone(), &ex);
                flushed.apply(deltas, &ex);
                assert_same_index(&direct, &flushed);
                prop_assert_eq!(direct.snapshot(), &fs.catalog(&ex));
                prop_assert_eq!(direct.file_count(), fs.file_count());
                prop_assert_eq!(direct.total_bytes(), fs.used_bytes());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The prefix-skipping search lands where a binary search in
        /// component order does, for paths in and out of the listing, and
        /// each comparison reports the prefix the two paths share, from
        /// whatever shared prefix it is told to skip.
        #[test]
        fn key_search_equals_binary_search(
            listing in prop::collection::vec(arb_long_path(), 0..48),
            probes in prop::collection::vec(arb_long_path(), 1..16),
        ) {
            let mut keys: Vec<PathKey> = listing.iter().map(|p| key(p)).collect();
            keys.sort();
            keys.dedup();
            for probe in probes.iter().chain(&listing) {
                let want = keys.binary_search_by(|k| k.as_str().split('/').cmp(probe.split('/')));
                prop_assert_eq!(search_keys(&keys, probe.as_bytes()), want);
                for k in &keys {
                    let (a, b) = (k.as_str().as_bytes(), probe.as_bytes());
                    let order = k.as_str().split('/').cmp(probe.split('/'));
                    let shared = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                    prop_assert_eq!(cmp_canonical_from(a, b, 0), (order, shared));
                    prop_assert_eq!(cmp_canonical_from(a, b, shared / 2), (order, shared));
                    prop_assert_eq!(cmp_canonical_from(a, b, shared), (order, shared));
                }
            }
        }
    }

    /// Paths whose components run past a word, so listings share long
    /// prefixes, beside components with bytes below `/`.
    fn arb_long_path() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                "a",
                "a.b",
                "a-1",
                "x",
                "project-directory",
                "project-directory.b",
                "project-directory-2",
            ]),
            1..6,
        )
        .prop_map(|comps| format!("/{}", comps.join("/")))
    }

    #[test]
    fn from_fs_and_flushed_walk_agree_through_every_delta_kind() {
        // The property above, pinned on one fixture that surely holds
        // each delta kind, a reservation, and a user whose last file goes.
        let (mut fs, ex) = populated();
        fs.create("/u1/a.b", UserId(1), 5, day(4)).unwrap();
        fs.create("/u1/a-1/x", UserId(1), 6, day(4)).unwrap();
        fs.create("/u3/only", UserId(3), 7, day(4)).unwrap();
        let mut direct = CatalogIndex::from_fs(&fs, &ex);
        let mut flushed = flushed_walk(&fs, &ex);
        assert_same_index(&direct, &flushed);

        fs.enable_changelog();
        fs.access("/u1/keep", day(9));
        fs.create("/u1/drop", UserId(1), 99, day(9)).unwrap(); // overwrite, same owner
        fs.create("/u2/x", UserId(1), 11, day(9)).unwrap(); // overwrite, new owner
        fs.remove("/u1/a.b").unwrap();
        fs.rename("/u1/a-1/x", "/u2/moved").unwrap();
        fs.remove("/u3/only").unwrap(); // empties user 3
        let deltas = fs.drain_changelog();
        direct.apply(deltas.clone(), &ex);
        flushed.apply(deltas, &ex);
        assert_same_index(&direct, &flushed);
        assert_eq!(direct.snapshot(), &fs.catalog(&ex));
        assert!(direct.snapshot().get(UserId(3)).is_none());
        assert_eq!(direct.total_bytes(), fs.used_bytes());
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
