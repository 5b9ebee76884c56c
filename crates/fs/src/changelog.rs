//! Metadata changelog: the delta stream behind the incremental catalog.
//!
//! Rescanning the whole namespace at every retention trigger is the
//! scalability wall the Robinhood policy engine hit on billion-entry Lustre
//! systems: the scan itself becomes the bottleneck, and the production fix
//! is a changelog-fed index that is updated in O(changes) instead of
//! re-walked in O(files). [`crate::VirtualFs`] plays the role of the file
//! system's changelog producer here: when recording is enabled it emits one
//! [`Delta`] per mutation (create/overwrite, atime renewal, removal), and
//! [`crate::index::CatalogIndex`] consumes the drained stream to keep a
//! policy-ready catalog current without touching the trie.
//!
//! Deltas carry *absolute* post-mutation state (full metadata for upserts,
//! the resulting atime/access count for touches), never relative updates:
//! replaying the stream in order is therefore idempotent per file and
//! cannot drift from the trie through rounding or reordering within a
//! single file's history.
//!
//! That absoluteness is also what licenses *coalescing*: a window of
//! deltas for one node collapses to the last word said about it, so the
//! consumer side stages drained deltas in a [`crate::DeltaBuffer`] and
//! folds whole windows into the index as per-user batches instead of one
//! update per delta. The producer upholds one invariant the buffer leans
//! on: a path is never re-bound to a new node id without a delta being
//! emitted for the old id first (remove, rename-away, or an overwrite
//! that keeps its id).

use crate::meta::FileMeta;
use crate::trie::NodeId;

/// One recorded namespace mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// A file was created at `path`, or the file already there was
    /// overwritten (same [`NodeId`], replaced metadata). `meta` is the
    /// complete post-mutation metadata.
    Upsert {
        /// Canonical path (leading `/`, normalized components — exactly
        /// what [`crate::PathTrie::path_of`] reconstructs).
        path: String,
        /// The trie node holding the file; doubles as the policy-visible
        /// `FileId`.
        id: NodeId,
        /// Full metadata after the mutation.
        meta: FileMeta,
    },
    /// An existing file's atime was renewed by a replayed access. Carries
    /// the post-touch absolute values, not increments.
    Touch {
        /// The touched file's node.
        id: NodeId,
        /// Access time after the touch (atime is monotone).
        atime: activedr_core::time::Timestamp,
        /// Saturating access counter after the touch.
        access_count: u32,
    },
    /// The file at `id` was removed (purge, explicit delete, or the
    /// source side of a rename).
    Remove {
        /// The removed file's node id at the time of removal.
        id: NodeId,
    },
}

impl Delta {
    /// The node the delta applies to.
    pub fn id(&self) -> NodeId {
        match self {
            Delta::Upsert { id, .. } | Delta::Touch { id, .. } | Delta::Remove { id } => *id,
        }
    }
}

/// An append-only buffer of [`Delta`]s with lifetime counters.
///
/// The buffer is drained by the index at every retention trigger, so its
/// peak size is one trigger interval's worth of mutations — O(changes),
/// which is the entire point.
#[derive(Debug, Clone, Default)]
pub struct Changelog {
    deltas: Vec<Delta>,
    recorded_total: u64,
}

impl Changelog {
    /// An empty changelog.
    pub fn new() -> Self {
        Changelog::default()
    }

    /// Append one delta.
    pub fn record(&mut self, delta: Delta) {
        self.recorded_total += 1;
        self.deltas.push(delta);
    }

    /// Take the buffered deltas, leaving the buffer empty (the counters
    /// keep accumulating across drains).
    pub fn drain(&mut self) -> Vec<Delta> {
        std::mem::take(&mut self.deltas)
    }

    /// Buffered (not yet drained) delta count.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Deltas recorded over the changelog's lifetime, including drained
    /// ones.
    pub fn recorded_total(&self) -> u64 {
        self.recorded_total
    }

    /// Peek at the buffered deltas without draining.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }
}

/// Canonicalize a path the way the trie stores it: a leading `/` before
/// every normalized component (empty and `.` components dropped).
pub fn canonical_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    for c in crate::trie::components(path) {
        out.push('/');
        out.push_str(c);
    }
    out
}

/// Is `path` non-empty and already canonical — what [`canonical_path`]
/// would return for it? One pass over the bytes, no allocation: the
/// record codec asks this of every decoded Upsert path.
pub(crate) fn is_canonical(path: &str) -> bool {
    /// What the bytes since the last `/` spell so far.
    #[derive(PartialEq)]
    enum Component {
        Empty,
        Dot,
        Name,
    }
    let mut bytes = path.bytes();
    if bytes.next() != Some(b'/') {
        return false;
    }
    let mut seen = Component::Empty;
    for b in bytes {
        seen = match (seen, b) {
            (Component::Empty | Component::Dot, b'/') => return false,
            (Component::Name, b'/') => Component::Empty,
            (Component::Empty, b'.') => Component::Dot,
            _ => Component::Name,
        };
    }
    seen == Component::Name
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;

    #[test]
    fn record_drain_counts() {
        let mut log = Changelog::new();
        assert!(log.is_empty());
        log.record(Delta::Remove { id: NodeId(3) });
        log.record(Delta::Touch {
            id: NodeId(4),
            atime: Timestamp::from_days(9),
            access_count: 2,
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.deltas()[0].id(), NodeId(3));
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.recorded_total(), 2);
        log.record(Delta::Upsert {
            path: "/a/b".into(),
            id: NodeId(5),
            meta: FileMeta::new(UserId(1), 10, Timestamp::EPOCH),
        });
        assert_eq!(log.recorded_total(), 3);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn canonical_path_normalizes() {
        assert_eq!(canonical_path("//a///b/./c"), "/a/b/c");
        assert_eq!(canonical_path("/a/b/c"), "/a/b/c");
        assert_eq!(canonical_path(""), "");
        assert_eq!(canonical_path("///"), "");
        for path in ["/a/b/c", "/a/../b", "/x/a.b", "/x/.hidden"] {
            assert!(is_canonical(path), "{path}");
            assert_eq!(canonical_path(path), path);
        }
        for path in ["", "/", "a/b", "/a//b", "/a/./b", "/a/", "/."] {
            assert!(!is_canonical(path), "{path}");
        }
    }
}
