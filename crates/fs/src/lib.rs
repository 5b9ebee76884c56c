//! # activedr-fs — virtual parallel file system substrate
//!
//! The storage substrate that the ActiveDR emulation runs against,
//! reproducing the pieces the paper builds from the Spider II metadata
//! snapshots:
//!
//! * [`trie`] — a compact path prefix tree (path-compressed radix trie over
//!   `/`-components) serving as the virtual file system index;
//! * [`meta`] — per-file metadata (owner, size, atime, stripe count);
//! * [`striping`] — the OLCF best-practice striping guidance that maps a
//!   file size to the stripe count the initial file system records;
//! * [`vfs`] — the file-system facade: create/access/remove with capacity
//!   accounting, plus the catalog-scan bridge to the `activedr-core`
//!   policy layer;
//! * [`exemption`] — the purge-exemption (reservation) list;
//! * [`changelog`] — the per-mutation delta stream behind the incremental
//!   catalog (Robinhood-style changelog);
//! * [`delta_buffer`] — the bounded, coalescing staging buffer that
//!   collapses a window of deltas to per-node net effects before they
//!   reach the index;
//! * [`index`] — the changelog-fed [`CatalogIndex`]: the policy catalog
//!   itself, kept current in O(changes) by splicing each flushed batch
//!   into the touched users' listings, and served without re-walking the
//!   trie;
//! * [`snapshot`] — weekly metadata snapshot capture, restore and diff,
//!   archived as a sealed image in the record codec checkpoints use;
//! * [`storage`] — the opt-in durability layer behind the incremental
//!   catalog: checksummed write-ahead log of delta batches, periodic
//!   checkpoints of the index + staging buffer, and crash recovery
//!   (checkpoint + WAL-tail replay) with injected-fault crash testing.

#![forbid(unsafe_code)]

pub mod changelog;
pub mod delta_buffer;
pub mod exemption;
pub mod index;
pub mod meta;
pub mod snapshot;
pub mod storage;
pub mod striping;
pub mod trie;
pub mod vfs;

pub use changelog::{Changelog, Delta};
pub use delta_buffer::DeltaBuffer;
pub use exemption::ExemptionList;
pub use index::{diff_catalogs, flush_beats_scan, CatalogIndex};
pub use meta::FileMeta;
pub use snapshot::{Snapshot, SnapshotDiff, SnapshotEntry};
pub use storage::{
    CrashFs, DurabilityConfig, DurableCatalog, FsyncPolicy, InjectedCrash, OpenedCatalog,
    RecoveryStats, StorageError,
};
pub use striping::recommended_stripes;
pub use trie::{InsertError, Inserted, NodeId, PathTrie, Tombstone};
pub use vfs::{Access, FsOpCounts, VirtualFs};
