//! Bounded, coalescing staging buffer between the changelog and the
//! [`crate::index::CatalogIndex`].
//!
//! Applying drained [`Delta`]s one at a time turns every mutation into an
//! independent index update — the `apply → upsert → insert` churn that
//! made a week of changes *slower* than a full scan (ROADMAP item 4).
//! The buffer restores the batching the changelog's own semantics make
//! legal: deltas carry *absolute* post-mutation state, so a run of deltas
//! for the same node collapses to its last word, and a whole window of
//! changes flushes into the index as one splice per touched listing
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
    /// Where node `i`'s net delta sits in `pending`, valid while bit `i`
    /// of `occupied` is set. Node ids are trie slab indices, so a dense
    /// vector makes absorption O(1) per delta at four bytes per id;
    /// absorbing id `i` grows it to `i + 1` entries.
    slot: Vec<u32>,
    /// The net deltas, in the order their nodes were first absorbed.
    /// A drain takes them out in ascending node id and then clears the
    /// vector, keeping its allocation for the next window.
    pending: Vec<Option<Delta>>,
    /// Bit `i` of word `i / 64` is set iff node `i` has a pending delta,
    /// so a drain visits the pending nodes only, in ascending id order
    /// (never hash order), not every id up to the largest ever absorbed.
    occupied: Vec<u64>,
    /// Soft bound on the pending set checked by
    /// [`DeltaBuffer::over_capacity`].
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
            slot: Vec::new(),
            pending: Vec::new(),
            occupied: Vec::new(),
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
            // Saturating: a rehydrated count comes from a checkpoint
            // header, which may hold any value its CRC covers.
            self.raw_pending = self.raw_pending.saturating_add(1);
            let i = convert::usize_from_u32(delta.id().0);
            if i >= self.slot.len() {
                self.slot.resize(i + 1, 0);
                self.occupied.resize(i / 64 + 1, 0);
            }
            let (Some(word), Some(slot)) = (self.occupied.get_mut(i / 64), self.slot.get_mut(i))
            else {
                continue;
            };
            let bit = 1 << (i % 64);
            if *word & bit != 0 {
                if let Some(Some(prev)) = self.pending.get_mut(convert::usize_from_u32(*slot)) {
                    coalesce(prev, delta);
                }
            } else {
                // At most one entry per distinct u32 id, so the position
                // of a new one fits a u32.
                *slot = convert::u32_from_usize(self.pending.len());
                *word |= bit;
                self.pending.push(Some(delta));
            }
        }
    }

    /// Distinct nodes with a pending net delta.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Is nothing pending?
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Has the pending set outgrown the configured capacity? The owner
    /// should flush when this turns true.
    pub fn over_capacity(&self) -> bool {
        self.pending.len() > self.cap
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
    /// the buffer empty. Only pending nodes are visited, and the
    /// pending vector keeps its allocation for the next window;
    /// dropping the iterator early still empties the buffer.
    pub fn drain(&mut self) -> impl Iterator<Item = Delta> + '_ {
        self.raw_pending = 0;
        Drain {
            slot: &self.slot,
            pending: &mut self.pending,
            words: self.occupied.iter_mut().enumerate(),
            current: SetBits { base: 0, bits: 0 },
        }
    }

    /// Borrow the pending net deltas in ascending node-id order without
    /// disturbing the buffer — the checkpoint writer's view
    /// ([`crate::storage`] serializes the pending set alongside the
    /// index so a checkpoint stays valid mid-backlog).
    pub fn pending_deltas(&self) -> impl Iterator<Item = &Delta> {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| SetBits { base: w * 64, bits })
            .filter_map(|i| {
                let at = convert::usize_from_u32(*self.slot.get(i)?);
                self.pending.get(at)?.as_ref()
            })
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
        self.drain().for_each(drop);
    }
}

/// The positions of the set bits of one occupancy word, ascending.
struct SetBits {
    base: usize,
    bits: u64,
}

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let bit = convert::usize_from_u32(self.bits.trailing_zeros());
        // Clear the lowest set bit.
        self.bits &= self.bits - 1;
        Some(self.base + bit)
    }
}

/// [`DeltaBuffer::drain`]'s iterator: takes each pending delta in id
/// order and, when dropped, empties the buffer.
struct Drain<'a> {
    slot: &'a [u32],
    pending: &'a mut Vec<Option<Delta>>,
    words: std::iter::Enumerate<std::slice::IterMut<'a, u64>>,
    /// The pending ids of the word being drained, not yet taken.
    current: SetBits,
}

impl Iterator for Drain<'_> {
    type Item = Delta;

    fn next(&mut self) -> Option<Delta> {
        loop {
            for i in self.current.by_ref() {
                let at = self.slot.get(i).map(|&at| convert::usize_from_u32(at));
                if let Some(delta) = at.and_then(|at| self.pending.get_mut(at)?.take()) {
                    return Some(delta);
                }
            }
            let (w, word) = self.words.next()?;
            // Taking a word clears its bits before its deltas are taken.
            self.current = SetBits {
                base: w * 64,
                bits: std::mem::take(word),
            };
        }
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        // Every bit is cleared once the words run out; the taken entries
        // are all `None` by then.
        self.by_ref().for_each(drop);
        self.pending.clear();
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
    use proptest::prelude::*;

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

    /// The buffer's contract, stated as a `BTreeMap` from id to net
    /// delta: the same folding rules, and ascending id order for free.
    #[derive(Default)]
    struct Model {
        net: std::collections::BTreeMap<u32, Delta>,
        raw: u64,
    }

    impl Model {
        fn absorb(&mut self, batch: &[Delta]) {
            for delta in batch.iter().cloned() {
                self.raw += 1;
                let id = delta.id().0;
                let folded = match (self.net.remove(&id), delta) {
                    (
                        Some(Delta::Upsert { path, id, mut meta }),
                        Delta::Touch {
                            atime,
                            access_count,
                            ..
                        },
                    ) => {
                        meta.atime = atime;
                        meta.access_count = access_count;
                        Delta::Upsert { path, id, meta }
                    }
                    (Some(rm @ Delta::Remove { .. }), Delta::Touch { .. }) => rm,
                    (_, incoming) => incoming,
                };
                self.net.insert(id, folded);
            }
        }

        fn take(&mut self) -> Vec<Delta> {
            self.raw = 0;
            std::mem::take(&mut self.net).into_values().collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Absorb(Vec<(u8, u32, i64)>),
        Drain,
        DrainFirst(usize),
        Pending,
        Clear,
    }

    /// Ids from a dense low range and a sparse high one, so runs of
    /// empty 64-slot words sit between occupied ones.
    fn arb_op() -> impl Strategy<Value = Op> {
        let id = prop_oneof![0u32..150, 4_000u32..4_100];
        prop_oneof![
            prop::collection::vec((0u8..3, id, 0i64..50), 0..40).prop_map(Op::Absorb),
            (0u8..1).prop_map(|_| Op::Drain),
            (0usize..6).prop_map(Op::DrainFirst),
            (0u8..1).prop_map(|_| Op::Pending),
            (0u8..1).prop_map(|_| Op::Clear),
        ]
    }

    fn delta(kind: u8, id: u32, day: i64) -> Delta {
        match kind {
            0 => upsert(id, 1 + day.unsigned_abs(), day),
            1 => touch(id, day, u32::try_from(day).unwrap_or(0)),
            _ => Delta::Remove { id: NodeId(id) },
        }
    }

    /// One occupancy bit per pending delta, each pointing at its own
    /// node's delta, and one bitmap word per 64 slots.
    fn bits_match_slots(buf: &DeltaBuffer) -> bool {
        let set: Vec<usize> = (0..buf.slot.len())
            .filter(|&i| {
                buf.occupied
                    .get(i / 64)
                    .is_some_and(|word| word & (1 << (i % 64)) != 0)
            })
            .collect();
        set.len() == buf.pending.len()
            && set.iter().all(|&i| {
                buf.pending
                    .get(convert::usize_from_u32(buf.slot[i]))
                    .and_then(Option::as_ref)
                    .is_some_and(|d| convert::usize_from_u32(d.id().0) == i)
            })
            && buf.occupied.len() == buf.slot.len().div_ceil(64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Absorb, drain (whole or dropped early), peek and clear agree
        /// with the model: net deltas in ascending id order, an early drop
        /// still empties everything, and the counts follow.
        #[test]
        fn buffer_equals_btreemap_model(ops in prop::collection::vec(arb_op(), 1..30)) {
            let mut buf = DeltaBuffer::unbounded();
            let mut model = Model::default();
            for op in ops {
                match op {
                    Op::Absorb(batch) => {
                        let batch: Vec<Delta> =
                            batch.into_iter().map(|(k, id, day)| delta(k, id, day)).collect();
                        model.absorb(&batch);
                        buf.absorb(batch);
                    }
                    Op::Drain => {
                        let got: Vec<Delta> = buf.drain().collect();
                        prop_assert_eq!(got, model.take());
                    }
                    Op::DrainFirst(n) => {
                        let got: Vec<Delta> = buf.drain().take(n).collect();
                        let want: Vec<Delta> = model.take().into_iter().take(n).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::Pending => {
                        let got: Vec<Delta> = buf.pending_deltas().cloned().collect();
                        let want: Vec<Delta> = model.net.values().cloned().collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::Clear => {
                        buf.clear();
                        model.take();
                    }
                }
                prop_assert_eq!(buf.len(), model.net.len());
                prop_assert_eq!(buf.is_empty(), model.net.is_empty());
                prop_assert_eq!(buf.raw_pending(), model.raw);
                prop_assert!(bits_match_slots(&buf));
            }
        }
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
