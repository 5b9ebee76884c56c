//! Append-only write-ahead log of catalog delta batches.
//!
//! # Record framing
//!
//! Every record is one length-prefixed binary frame:
//!
//! ```text
//! [payload_len: u32 LE][seq: u64 LE][kind: u8][payload][crc32: u32 LE]
//! ```
//!
//! `kind` is 0 for a [`WalPayload::Batch`] (the raw deltas drained from
//! the changelog at one boundary, as `[count u32 LE]` then `count`
//! records in the shared binary record layout) and 1 for a
//! [`WalPayload::FlushMark`] (empty payload — the buffer was folded into
//! the index here). The CRC covers `seq ++ kind ++ payload`, so a
//! torn length prefix, a short payload, and a bit flip all surface as a
//! checksum or framing failure. Sequence numbers are assigned by the
//! appender, strictly monotone from 1; the recovery replayer skips any
//! record whose sequence it has already applied, which makes duplicated
//! frames (a re-appended batch after a torn write) idempotent.
//!
//! [`scan_wal`] walks a file front to back and stops at the first
//! record that fails to frame or checksum — everything before it is the
//! durable prefix, everything from it on is a torn tail to truncate.
//! This is the classic ARIES-style contract: an append is atomic iff
//! its whole frame (including the trailing CRC) made it to disk.

use super::checksum::crc32;
use super::codec;
use super::fault::CrashFs;
use super::{FsyncPolicy, StorageError};
use crate::changelog::Delta;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// The WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Frame overhead: length prefix + sequence + kind + CRC.
pub const FRAME_OVERHEAD: u64 = 4 + 8 + 1 + 4;

/// Defensive ceiling on one record's payload (16 MiB): a corrupt length
/// prefix must not drive a multi-gigabyte allocation during recovery.
const MAX_PAYLOAD: u32 = 16 << 20;

const KIND_BATCH: u8 = 0;
const KIND_FLUSH_MARK: u8 = 1;

/// What one WAL record says happened at a catalog boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// Raw deltas drained from the changelog at a trigger or day-end
    /// boundary, logged *before* they are absorbed into the buffer.
    Batch(Vec<Delta>),
    /// The staging buffer was flushed into the index at this point
    /// (adaptive trigger flush or forced over-capacity flush).
    FlushMark,
}

impl WalPayload {
    /// The batch's deltas, or `None` for a flush mark.
    fn batch(&self) -> Option<&[Delta]> {
        match self {
            WalPayload::Batch(deltas) => Some(deltas),
            WalPayload::FlushMark => None,
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub payload: WalPayload,
}

/// Encode one record frame (exposed for the torture tests, which plant
/// corruptions against real frames).
pub fn encode_record(seq: u64, payload: &WalPayload) -> Result<Vec<u8>, StorageError> {
    encode_frame(seq, payload.batch())
}

/// Frame a batch (`Some`) or a flush mark (`None`). The batch is
/// borrowed, so the engine logs its drained deltas without a copy.
fn encode_frame(seq: u64, batch: Option<&[Delta]>) -> Result<Vec<u8>, StorageError> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&[0; 4]); // payload length, filled in below
    frame.extend_from_slice(&seq.to_le_bytes());
    match batch {
        Some(deltas) => {
            frame.push(KIND_BATCH);
            codec::encode_batch(&mut frame, deltas)?;
        }
        None => frame.push(KIND_FLUSH_MARK),
    }
    let body_len = frame.len().saturating_sub(4 + 9);
    let len = u32::try_from(body_len)
        .ok()
        .filter(|&l| l <= MAX_PAYLOAD)
        .ok_or_else(|| StorageError::Encode(format!("payload of {body_len} bytes")))?;
    if let Some(prefix) = frame.first_chunk_mut::<4>() {
        *prefix = len.to_le_bytes();
    }
    let crc = crc32(frame.get(4..).unwrap_or_default());
    frame.extend_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// The append half of the WAL: owns the file, assigns sequence numbers,
/// and writes through the [`CrashFs`] fault shim so crash-point tests
/// can tear any append at any byte.
#[derive(Debug)]
pub struct Wal {
    sink: CrashFs<File>,
    fsync: FsyncPolicy,
    next_seq: u64,
}

impl Wal {
    /// Open `dir/wal.log` for appending. `next_seq` is the sequence the
    /// next record gets — recovery hands back `last applied + 1`, a
    /// cold start passes 1 over a fresh (truncated) file.
    pub fn open_for_append(
        dir: &Path,
        fsync: FsyncPolicy,
        next_seq: u64,
    ) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))
            .map_err(StorageError::Io)?;
        let len = file.metadata().map_err(StorageError::Io)?.len();
        Ok(Wal {
            sink: CrashFs::new(file, len),
            fsync,
            next_seq,
        })
    }

    /// Arm the injected-fault shim: the append whose frame crosses the
    /// absolute byte `offset` is torn there.
    pub fn arm_fault(&mut self, offset: u64) {
        self.sink.kill_at(offset);
    }

    /// Append one record, returning `(seq, frame_bytes)`. On an error
    /// (torn write included) the in-memory writer is stale — the owner
    /// must discard it and re-run recovery, which truncates the torn
    /// tail on disk.
    pub fn append_record(&mut self, payload: &WalPayload) -> Result<(u64, u64), StorageError> {
        self.append_frame(payload.batch())
    }

    /// [`Wal::append_record`] for a borrowed batch (`Some`) or a flush
    /// mark (`None`).
    pub(crate) fn append_frame(
        &mut self,
        batch: Option<&[Delta]>,
    ) -> Result<(u64, u64), StorageError> {
        let seq = self.next_seq;
        let frame = encode_frame(seq, batch)?;
        self.sink.write_all(&frame).map_err(StorageError::Io)?;
        if matches!(self.fsync, FsyncPolicy::Always) {
            self.sink.get_ref().sync_all().map_err(StorageError::Io)?;
        }
        self.next_seq += 1;
        Ok((seq, u64::try_from(frame.len()).unwrap_or(0)))
    }

    /// The sequence number of the most recently appended record (0 if
    /// none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }
}

/// Outcome of scanning a WAL file front to back.
#[derive(Debug)]
pub struct WalScan {
    /// Every record that framed and checksummed, in file order
    /// (duplicate sequences included — the replayer deduplicates).
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix; everything past it is torn.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
}

/// Scan `dir/wal.log`. A missing file is an empty log, not an error.
pub fn scan_wal(dir: &Path) -> Result<WalScan, StorageError> {
    let path = dir.join(WAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StorageError::Io(e)),
    };
    Ok(scan_wal_bytes(&bytes))
}

/// Scan an in-memory WAL image (the file reader above, and the torture
/// tests, both funnel here).
pub fn scan_wal_bytes(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut torn = None;
    while offset < bytes.len() {
        match decode_at(bytes, offset) {
            Ok((record, next)) => {
                records.push(record);
                offset = next;
            }
            Err(reason) => {
                torn = Some(format!("record at byte {offset}: {reason}"));
                break;
            }
        }
    }
    WalScan {
        records,
        valid_len: u64::try_from(offset).unwrap_or(0),
        torn,
    }
}

/// Decode the record starting at `offset`; returns the record and the
/// offset just past it, or the reason the frame is invalid.
fn decode_at(bytes: &[u8], offset: usize) -> Result<(WalRecord, usize), String> {
    let take = |at: usize, n: usize| -> Result<&[u8], String> {
        bytes.get(at..at.saturating_add(n)).ok_or_else(|| {
            format!(
                "truncated after {} of {n} bytes",
                bytes.len().saturating_sub(at)
            )
        })
    };
    let le_u32 = |s: &[u8]| -> u32 {
        let mut b = [0u8; 4];
        for (d, &x) in b.iter_mut().zip(s.iter()) {
            *d = x;
        }
        u32::from_le_bytes(b)
    };
    let le_u64 = |s: &[u8]| -> u64 {
        let mut b = [0u8; 8];
        for (d, &x) in b.iter_mut().zip(s.iter()) {
            *d = x;
        }
        u64::from_le_bytes(b)
    };

    let len = le_u32(take(offset, 4)?);
    if len > MAX_PAYLOAD {
        return Err(format!(
            "length prefix {len} exceeds the {MAX_PAYLOAD}-byte ceiling"
        ));
    }
    let body_len = usize::try_from(len).map_err(|_| "length does not fit".to_string())?;
    let covered = take(offset + 4, 8 + 1 + body_len)?;
    let stored_crc = le_u32(take(offset + 4 + 9 + body_len, 4)?);
    if crc32(covered) != stored_crc {
        return Err("checksum mismatch".to_string());
    }
    let seq = le_u64(covered.get(..8).unwrap_or_default());
    let kind = covered.get(8).copied().unwrap_or(u8::MAX);
    let body = covered.get(9..).unwrap_or_default();
    let payload = match kind {
        KIND_BATCH => {
            WalPayload::Batch(codec::decode_batch(body).map_err(|e| format!("batch payload: {e}"))?)
        }
        KIND_FLUSH_MARK => WalPayload::FlushMark,
        other => return Err(format!("unknown record kind {other}")),
    };
    Ok((WalRecord { seq, payload }, offset + 4 + 9 + body_len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::FileMeta;
    use crate::trie::NodeId;
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;

    fn batch(id: u32) -> WalPayload {
        WalPayload::Batch(vec![Delta::Upsert {
            path: format!("/u/f{id}"),
            id: NodeId(id),
            meta: FileMeta::new(UserId(1), 100, Timestamp::from_days(1)),
        }])
    }

    #[test]
    fn frames_round_trip() {
        let mut image = Vec::new();
        for (seq, payload) in [(1, batch(1)), (2, WalPayload::FlushMark), (3, batch(2))] {
            image.extend(encode_record(seq, &payload).expect("encode"));
        }
        let scan = scan_wal_bytes(&image);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, u64::try_from(image.len()).expect("len"));
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(
            scan.records.get(1).map(|r| &r.payload),
            Some(&WalPayload::FlushMark)
        );
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_valid_record() {
        let mut image = encode_record(1, &batch(1)).expect("encode");
        let first_len = u64::try_from(image.len()).expect("len");
        image.extend(encode_record(2, &batch(2)).expect("encode"));
        // Tear the second frame three bytes short.
        image.truncate(image.len() - 3);
        let scan = scan_wal_bytes(&image);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, first_len);
        assert!(scan.torn.is_some());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let clean = encode_record(1, &batch(1)).expect("encode");
        for i in 0..clean.len() {
            let mut image = clean.clone();
            if let Some(b) = image.get_mut(i) {
                *b ^= 0x40;
            }
            let scan = scan_wal_bytes(&image);
            assert!(
                scan.records.is_empty(),
                "flip at byte {i} survived the scan"
            );
        }
    }

    #[test]
    fn checksummed_but_undecodable_batch_ends_the_valid_prefix() {
        let mut image = encode_record(1, &batch(1)).expect("encode");
        let first_len = u64::try_from(image.len()).expect("len");
        // Frame 2 promises one record and carries none, under a correct
        // CRC: the payload decoder, not the checksum, must stop the scan.
        let mut covered = 2u64.to_le_bytes().to_vec();
        covered.push(KIND_BATCH);
        covered.extend_from_slice(&1u32.to_le_bytes());
        image.extend_from_slice(&4u32.to_le_bytes());
        image.extend_from_slice(&covered);
        image.extend_from_slice(&crc32(&covered).to_le_bytes());
        let scan = scan_wal_bytes(&image);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, first_len);
        assert!(scan.torn.is_some_and(|t| t.contains("batch payload")));
    }

    #[test]
    fn non_canonical_upsert_path_ends_the_valid_prefix() {
        // Frame 2 carries `/a//b` under a correct CRC, and a flush mark
        // follows: replaying it would key the index by a path the walk
        // never yields, so the decoder ends the valid prefix there.
        let mut image = encode_record(1, &batch(1)).expect("encode");
        let first_len = u64::try_from(image.len()).expect("len");
        let bad = WalPayload::Batch(vec![Delta::Upsert {
            path: "/a//b".to_string(),
            id: NodeId(2),
            meta: FileMeta::new(UserId(1), 100, Timestamp::from_days(1)),
        }]);
        image.extend(encode_record(2, &bad).expect("encode"));
        image.extend(encode_record(3, &WalPayload::FlushMark).expect("encode"));
        let scan = scan_wal_bytes(&image);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, first_len);
        assert!(scan.torn.is_some_and(|t| t.contains("not canonical")));
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_not_allocated() {
        let image = [0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0];
        let scan = scan_wal_bytes(&image);
        assert!(scan.records.is_empty());
        assert!(scan.torn.is_some_and(|t| t.contains("ceiling")));
    }
}
