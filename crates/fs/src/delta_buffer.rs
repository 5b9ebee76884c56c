//! Bounded, coalescing staging buffer between the changelog and the
//! [`crate::index::CatalogIndex`].
//!
//! Applying drained [`Delta`]s one at a time turns every mutation into an
//! independent index update — the `apply → upsert → insert` churn that
//! made a week of changes *slower* than a full scan (ROADMAP item 4).
//! The buffer restores the batching the changelog's own semantics make
//! legal: deltas carry *absolute* post-mutation state, so a run of deltas
//! for the same node collapses to its last word, and a whole window of
//! changes flushes into the index as one per-user sort-merge pass
//! ([`crate::index::CatalogIndex::flush`]).
//!
//! # Coalescing rules (per node id)
//!
//! * `Upsert` replaces whatever is pending — it is the node's complete
//!   new state (a create-then-overwrite keeps only the overwrite).
//! * `Touch` folds into a pending `Upsert` (patching its atime and
//!   access count), replaces a pending `Touch`, and is dropped on a
//!   pending `Remove` (the record is gone either way).
//! * `Remove` replaces whatever is pending. A node created *and*
//!   removed inside one window therefore nets to a `Remove` whose id the
//!   index has never seen — applied as a no-op, which is exactly the
//!   per-delta outcome.
//!
//! Keying by node id is what makes the fold sound: the producer
//! ([`crate::VirtualFs`]) never re-binds a path to a new id without first
//! emitting a delta for the old id (remove, rename-away, or the
//! overwrite keeping its id), so per-id last-writer-wins plus the
//! index's id-resolution step reconstructs the net effect of the whole
//! window regardless of how operations interleaved across paths. The
//! differential oracle (`crates/oracle`) replays randomized op tapes with
//! explicit flush boundaries to pin buffered and per-delta application to
//! identical catalogs.
//!
//! The buffer is *bounded* in the engine's hands: past
//! [`DeltaBuffer::over_capacity`] the owner is expected to force a flush
//! (`activedr-sim`'s replay loop does, counting `catalog.forced_flushes`),
//! so a bursty trace cannot grow the pending set without limit.

use crate::changelog::Delta;
use activedr_core::convert;

/// Coalescing staging area for changelog deltas. See the module docs for
/// the folding rules and the soundness argument.
#[derive(Debug, Clone)]
pub struct DeltaBuffer {
    /// Net effect per node id. Node ids are trie slab indices, so a dense
    /// slot vector makes absorption O(1) per delta; drain order stays
    /// deterministic (ascending node id) — never hash order.
    pending: Vec<Option<Delta>>,
    /// Occupied slots in `pending` (distinct node ids).
    live: usize,
    /// Soft bound on `pending` checked by [`DeltaBuffer::over_capacity`].
    cap: usize,
    /// Raw deltas absorbed since the last drain (what the pending net
    /// set replaces).
    raw_pending: u64,
}

impl Default for DeltaBuffer {
    fn default() -> Self {
        DeltaBuffer::unbounded()
    }
}

impl DeltaBuffer {
    /// A buffer that signals [`DeltaBuffer::over_capacity`] once more
    /// than `cap` distinct nodes are pending. `cap` is a flush trigger,
    /// not a hard limit — absorption never fails.
    pub fn with_capacity(cap: usize) -> Self {
        DeltaBuffer {
            pending: Vec::new(),
            live: 0,
            cap,
            raw_pending: 0,
        }
    }

    /// A buffer that never reports itself over capacity (callers flush
    /// at their own boundaries only).
    pub fn unbounded() -> Self {
        DeltaBuffer::with_capacity(usize::MAX)
    }

    /// Fold a batch of deltas into the pending set.
    pub fn absorb(&mut self, deltas: impl IntoIterator<Item = Delta>) {
        for delta in deltas {
            self.raw_pending += 1;
            let i = convert::usize_from_u32(delta.id().0);
            if i >= self.pending.len() {
                self.pending.resize_with(i + 1, || None);
            }
            if let Some(slot) = self.pending.get_mut(i) {
                match slot {
                    Some(prev) => coalesce(prev, delta),
                    None => {
                        *slot = Some(delta);
                        self.live += 1;
                    }
                }
            }
        }
    }

    /// Distinct nodes with a pending net delta.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is nothing pending?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Has the pending set outgrown the configured capacity? The owner
    /// should flush when this turns true.
    pub fn over_capacity(&self) -> bool {
        self.live > self.cap
    }

    /// The configured capacity (flush threshold).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Raw deltas absorbed since the last [`DeltaBuffer::drain`] — the
    /// count the pending net set stands in for.
    pub fn raw_pending(&self) -> u64 {
        self.raw_pending
    }

    /// Take the pending net deltas in ascending node-id order, leaving
    /// the buffer empty. The slots are emptied in place, so the next
    /// window absorbs into the same allocation; dropping the iterator
    /// early still empties every slot.
    pub fn drain(&mut self) -> impl Iterator<Item = Delta> + '_ {
        self.raw_pending = 0;
        self.live = 0;
        Drain {
            slots: self.pending.iter_mut(),
        }
    }

    /// Borrow the pending net deltas in ascending node-id order without
    /// disturbing the buffer — the checkpoint writer's view
    /// ([`crate::storage`] serializes the pending set alongside the
    /// index so a checkpoint stays valid mid-backlog).
    pub fn pending_deltas(&self) -> impl Iterator<Item = &Delta> {
        self.pending.iter().flatten()
    }

    /// Restore the raw-pending count after a recovery rehydrates the
    /// pending set from a checkpoint: re-absorbing the *net* deltas
    /// undercounts the raw deltas they stood in for, and the live buffer
    /// and its recovered twin must agree on every observable.
    pub fn set_raw_pending(&mut self, raw: u64) {
        self.raw_pending = raw;
    }

    /// Discard everything pending (used when the consumer re-seeds from
    /// a full walk and buffered history becomes redundant).
    pub fn clear(&mut self) {
        self.raw_pending = 0;
        self.live = 0;
        self.pending.clear();
    }
}

/// [`DeltaBuffer::drain`]'s iterator: takes each occupied slot in id
/// order and, when dropped, empties the slots it did not reach.
struct Drain<'a> {
    slots: std::slice::IterMut<'a, Option<Delta>>,
}

impl Iterator for Drain<'_> {
    type Item = Delta;

    fn next(&mut self) -> Option<Delta> {
        // Test before taking: most slots are empty, and `take` would
        // write each one back, doubling the memory traffic of a drain.
        self.slots
            .find(|slot| slot.is_some())
            .and_then(Option::take)
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        self.by_ref().for_each(drop);
    }
}

/// Fold `incoming` into the pending `slot` for the same node id.
fn coalesce(slot: &mut Delta, incoming: Delta) {
    match incoming {
        up @ Delta::Upsert { .. } => *slot = up,
        Delta::Touch {
            atime,
            access_count,
            ..
        } => match slot {
            Delta::Upsert { meta, .. } => {
                // Patch the pending creation/overwrite in place: the
                // touch carries the post-access absolute values.
                meta.atime = atime;
                meta.access_count = access_count;
            }
            Delta::Touch {
                atime: pending_atime,
                access_count: pending_count,
                ..
            } => {
                *pending_atime = atime;
                *pending_count = access_count;
            }
            // A touch cannot outlive a removal; keep the removal.
            Delta::Remove { .. } => {}
        },
        rm @ Delta::Remove { .. } => *slot = rm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::FileMeta;
    use crate::trie::NodeId;
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;

    fn meta(size: u64, atime_day: i64) -> FileMeta {
        FileMeta::new(UserId(1), size, Timestamp::from_days(atime_day))
    }

    fn upsert(id: u32, size: u64, atime_day: i64) -> Delta {
        Delta::Upsert {
            path: format!("/u1/f{id}"),
            id: NodeId(id),
            meta: meta(size, atime_day),
        }
    }

    fn touch(id: u32, atime_day: i64, count: u32) -> Delta {
        Delta::Touch {
            id: NodeId(id),
            atime: Timestamp::from_days(atime_day),
            access_count: count,
        }
    }

    #[test]
    fn upsert_then_remove_nets_to_remove() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([upsert(7, 10, 1), Delta::Remove { id: NodeId(7) }]);
        let net: Vec<Delta> = buf.drain().collect();
        assert_eq!(net, vec![Delta::Remove { id: NodeId(7) }]);
        assert!(buf.is_empty());
    }

    #[test]
    fn repeated_upserts_keep_only_the_last() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([upsert(3, 10, 1), upsert(3, 99, 2)]);
        let net: Vec<Delta> = buf.drain().collect();
        assert_eq!(net, vec![upsert(3, 99, 2)]);
    }

    #[test]
    fn touch_folds_into_pending_upsert() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([upsert(5, 10, 1), touch(5, 8, 3)]);
        let net: Vec<Delta> = buf.drain().collect();
        match net.as_slice() {
            [Delta::Upsert { meta, .. }] => {
                assert_eq!(meta.atime, Timestamp::from_days(8));
                assert_eq!(meta.access_count, 3);
                assert_eq!(meta.size, 10);
            }
            other => panic!("expected one folded upsert, got {other:?}"),
        }
    }

    #[test]
    fn later_touch_replaces_earlier_touch() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([touch(4, 2, 1), touch(4, 9, 2)]);
        let net: Vec<Delta> = buf.drain().collect();
        assert_eq!(net, vec![touch(4, 9, 2)]);
    }

    #[test]
    fn touch_after_remove_keeps_the_remove() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([Delta::Remove { id: NodeId(2) }, touch(2, 9, 1)]);
        let net: Vec<Delta> = buf.drain().collect();
        assert_eq!(net, vec![Delta::Remove { id: NodeId(2) }]);
    }

    #[test]
    fn drain_is_id_ordered_and_resets_raw_count() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([upsert(9, 1, 1), upsert(2, 1, 1), upsert(5, 1, 1)]);
        assert_eq!(buf.raw_pending(), 3);
        let ids: Vec<u32> = buf.drain().map(|d| d.id().0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(buf.raw_pending(), 0);
    }

    #[test]
    fn dropping_a_drain_early_still_empties_the_buffer() {
        let mut buf = DeltaBuffer::unbounded();
        buf.absorb([upsert(9, 1, 1), upsert(2, 1, 1), upsert(5, 1, 1)]);
        let first = buf.drain().next().map(|d| d.id().0);
        assert_eq!(first, Some(2));
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.raw_pending(), 0);
        assert_eq!(buf.pending_deltas().count(), 0);
        // The emptied slots take the next window, still in id order.
        buf.absorb([upsert(7, 1, 1), touch(3, 2, 1), upsert(9, 2, 2)]);
        assert_eq!(buf.len(), 3);
        let ids: Vec<u32> = buf.drain().map(|d| d.id().0).collect();
        assert_eq!(ids, vec![3, 7, 9]);
        assert!(buf.is_empty());
    }

    #[test]
    fn capacity_is_a_soft_flush_signal() {
        let mut buf = DeltaBuffer::with_capacity(2);
        buf.absorb([upsert(1, 1, 1), upsert(2, 1, 1)]);
        assert!(!buf.over_capacity());
        buf.absorb([upsert(3, 1, 1)]);
        assert!(buf.over_capacity());
        // Coalescing keeps the pending set at distinct-node size.
        buf.absorb([upsert(3, 2, 2)]);
        assert_eq!(buf.len(), 3);
        buf.clear();
        assert!(buf.is_empty() && !buf.over_capacity());
    }
}
