//! Crash recovery: newest valid checkpoint + WAL-tail replay.
//!
//! The recovery protocol (DESIGN.md §11):
//!
//! 1. Try checkpoints newest-first; the first one whose footer CRC and
//!    entry counts verify is the base (`fallback_checkpoints` counts
//!    the rejected generations).
//! 2. Scan the WAL front to back, stopping at the first torn or
//!    corrupt frame; truncate the file there so future appends extend
//!    a clean prefix.
//! 3. Replay every surviving record with a sequence past the base
//!    checkpoint's `covered_seq`, skipping duplicates: `Batch` records
//!    absorb into the staging buffer, `FlushMark` records fold the
//!    buffer into the index — the same two operations the live engine
//!    performed, in the same order, so the rebuilt
//!    `(CatalogIndex, DeltaBuffer)` pair is *identical* to the live
//!    pair at the crash boundary (the crash-point sweep in
//!    `tests/integration_wal_recovery.rs` proves bitwise-identical
//!    replay results). A replayed batch whose Upsert sizes take the
//!    checkpoint's byte bound past `u64::MAX` is `Corrupt`: no index
//!    byte total could hold what flushing it lands.
//!
//! If no valid checkpoint exists (fresh directory, or every generation
//! corrupt) recovery reports "nothing durable" and the caller re-seeds
//! from the surviving file system — the one full walk Robinhood also
//! cannot avoid.

use super::checkpoint::{add_upsert_bytes, list_checkpoints, load_checkpoint};
use super::wal::{scan_wal, WalPayload, WAL_FILE};
use super::StorageError;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::index::CatalogIndex;
use std::path::Path;

/// What a successful recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// `covered_seq` of the checkpoint used as the base.
    pub checkpoint_seq: u64,
    /// Older checkpoint generations rejected before the base verified.
    pub fallback_checkpoints: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Raw deltas inside the replayed `Batch` records.
    pub replayed_deltas: u64,
    /// Duplicate / already-covered records skipped during replay.
    pub skipped_records: u64,
    /// Torn-tail bytes truncated off the WAL.
    pub truncated_bytes: u64,
    /// The sequence the next WAL append must use.
    pub next_seq: u64,
}

/// A rebuilt live state plus the recovery ledger.
#[derive(Debug)]
pub struct RecoveredState {
    pub index: CatalogIndex,
    pub buffer: DeltaBuffer,
    pub stats: RecoveryStats,
}

/// Recover the durable catalog state in `dir`, or `Ok(None)` when
/// nothing durable (or nothing *valid*) exists there. On success the
/// WAL file has been truncated to its valid prefix.
pub fn recover(
    dir: &Path,
    buffer_cap: usize,
    exemptions: &ExemptionList,
) -> Result<Option<RecoveredState>, StorageError> {
    let mut fallbacks = 0u64;
    let mut base = None;
    for (_, path) in list_checkpoints(dir)? {
        match load_checkpoint(&path) {
            Ok(loaded) => {
                base = Some(loaded);
                break;
            }
            Err(StorageError::Corrupt(_)) => fallbacks += 1,
            Err(e) => return Err(e),
        }
    }
    let Some(base) = base else {
        return Ok(None);
    };

    let scan = scan_wal(dir)?;
    let wal_path = dir.join(WAL_FILE);
    let mut truncated_bytes = 0u64;
    if scan.torn.is_some() {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(StorageError::Io)?;
        let full = file.metadata().map_err(StorageError::Io)?.len();
        truncated_bytes = full.saturating_sub(scan.valid_len);
        file.set_len(scan.valid_len).map_err(StorageError::Io)?;
    }

    let covered = base.header.covered_seq;
    let mut byte_bound = base.byte_bound;
    let (mut index, mut buffer) = base.rehydrate(buffer_cap, exemptions);
    let mut last_applied = covered;
    let mut replayed_records = 0u64;
    let mut replayed_deltas = 0u64;
    let mut skipped_records = 0u64;
    for record in scan.records {
        if record.seq <= last_applied {
            skipped_records += 1;
            continue;
        }
        last_applied = record.seq;
        replayed_records += 1;
        match record.payload {
            WalPayload::Batch(deltas) => {
                byte_bound = add_upsert_bytes(byte_bound, &deltas).map_err(|delta| {
                    StorageError::Corrupt(format!(
                        "{}: record seq {}: delta {delta} is an Upsert whose size takes the \
                         index byte total past u64::MAX",
                        wal_path.display(),
                        record.seq
                    ))
                })?;
                replayed_deltas += u64::try_from(deltas.len()).unwrap_or(0);
                buffer.absorb(deltas);
            }
            WalPayload::FlushMark => index.flush(&mut buffer, exemptions),
        }
    }

    Ok(Some(RecoveredState {
        index,
        buffer,
        stats: RecoveryStats {
            checkpoint_seq: covered,
            fallback_checkpoints: fallbacks,
            replayed_records,
            replayed_deltas,
            skipped_records,
            truncated_bytes,
            next_seq: last_applied + 1,
        },
    }))
}
