//! Compact checkpoints of the live catalog state.
//!
//! A checkpoint is a binary file capturing everything the recovery path
//! needs to rebuild the *exact* live `(CatalogIndex, DeltaBuffer)` pair,
//! all integers little-endian:
//!
//! ```text
//! [magic "ADR-CKPT"][version u32 = 2][covered_seq u64]
//! [files u64][buffer_deltas u64][raw_pending u64]
//! <files index entries: Upsert records in (user, path) order>
//! <buffer_deltas pending buffer records in node-id order>
//! [crc32 u32 over every preceding byte]
//! ```
//!
//! Records use the shared `codec` layout. `covered_seq` is the
//! last WAL sequence folded into this state — recovery replays only
//! records past it. The pending buffer rides along (with its raw-delta
//! count) so a checkpoint taken mid-backlog — e.g. during a stretch of
//! scan fallbacks — is still a complete cut. Any other magic (a v1 JSONL
//! checkpoint included), a short file, a footer mismatch, a count the
//! records do not fill, or a trailing byte rejects the checkpoint
//! wholesale and recovery falls back to the previous one (two are
//! retained). Writes go through a `.tmp` + rename so a crash
//! mid-checkpoint can never shadow a good file with a half-written one;
//! the next checkpoint deletes any `.tmp` such a crash left behind.

use super::checksum::crc32;
use super::codec::{self, DecodeError, Reader, MIN_RECORD_LEN, UPSERT_FIXED_LEN};
use super::{FsyncPolicy, StorageError};
use crate::changelog::Delta;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::index::CatalogIndex;
use activedr_core::convert;
use std::io::Write;
use std::path::{Path, PathBuf};

/// How many checkpoint generations stay on disk.
pub const RETAINED_CHECKPOINTS: usize = 2;

/// First bytes of every checkpoint file.
const MAGIC: [u8; 8] = *b"ADR-CKPT";

/// The format [`write_checkpoint`] emits and [`load_checkpoint`] accepts.
const VERSION: u32 = 2;

/// The fixed-size header that follows the magic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Format version (currently 2).
    pub version: u32,
    /// Last WAL sequence whose effects are folded into this state.
    pub covered_seq: u64,
    /// Index entry records that follow.
    pub files: u64,
    /// Pending-buffer records that follow the index entries.
    pub buffer_deltas: u64,
    /// The buffer's raw (pre-coalescing) pending count at capture time.
    pub raw_pending: u64,
}

/// A successfully loaded checkpoint, ready to rehydrate.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub header: CheckpointHeader,
    /// Index entries (Upsert deltas) followed by nothing else.
    pub index_entries: Vec<Delta>,
    /// Pending buffer deltas in drain order.
    pub buffer_entries: Vec<Delta>,
}

impl LoadedCheckpoint {
    /// Rebuild the live pair this checkpoint captured. `exemptions`
    /// must be the run's list (exemption flags are derived, not
    /// stored — the engine's list is fixed per run, and callers that
    /// mutate theirs re-checkpoint at the mutation).
    pub fn rehydrate(
        self,
        buffer_cap: usize,
        exemptions: &ExemptionList,
    ) -> (CatalogIndex, DeltaBuffer) {
        let mut index = CatalogIndex::new();
        let mut seed = DeltaBuffer::unbounded();
        seed.absorb(self.index_entries);
        index.flush(&mut seed, exemptions);
        let mut buffer = DeltaBuffer::with_capacity(buffer_cap);
        buffer.absorb(self.buffer_entries);
        buffer.set_raw_pending(self.header.raw_pending);
        (index, buffer)
    }
}

/// The file name for a checkpoint covering `seq` (zero-padded so
/// lexical and numeric order agree).
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}.ckpt")
}

/// Write a checkpoint of `(index, buffer)` covering `covered_seq` into
/// `dir`, pruning generations beyond [`RETAINED_CHECKPOINTS`] and any
/// orphaned `.tmp` files. Returns the bytes written.
pub fn write_checkpoint(
    dir: &Path,
    covered_seq: u64,
    index: &CatalogIndex,
    buffer: &DeltaBuffer,
    fsync: FsyncPolicy,
) -> Result<u64, StorageError> {
    let image = encode_checkpoint(covered_seq, index, buffer)?;
    let final_path = dir.join(checkpoint_file_name(covered_seq));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(covered_seq)));
    {
        let mut file = std::fs::File::create(&tmp_path).map_err(StorageError::Io)?;
        file.write_all(&image).map_err(StorageError::Io)?;
        if matches!(fsync, FsyncPolicy::Always) {
            file.sync_all().map_err(StorageError::Io)?;
        }
    }
    std::fs::rename(&tmp_path, &final_path).map_err(StorageError::Io)?;
    prune_checkpoints(dir)?;
    Ok(convert::u64_from_usize(image.len()))
}

/// The whole checkpoint file image, footer included. Index entries are
/// encoded straight from the catalog's borrowed view.
fn encode_checkpoint(
    covered_seq: u64,
    index: &CatalogIndex,
    buffer: &DeltaBuffer,
) -> Result<Vec<u8>, StorageError> {
    let files = convert::u64_from_usize(index.file_count());
    let buffer_deltas = convert::u64_from_usize(buffer.len());
    let records = index.file_count().saturating_add(buffer.len());
    let mut image = Vec::with_capacity(records.saturating_mul(UPSERT_FIXED_LEN + 32));
    image.extend_from_slice(&MAGIC);
    image.extend_from_slice(&VERSION.to_le_bytes());
    for field in [covered_seq, files, buffer_deltas, buffer.raw_pending()] {
        image.extend_from_slice(&field.to_le_bytes());
    }
    let mut files_written = 0u64;
    for (path, id, meta) in index.export_entries() {
        codec::encode_upsert(&mut image, path, id, &meta)?;
        files_written += 1;
    }
    let mut deltas_written = 0u64;
    for delta in buffer.pending_deltas() {
        codec::encode_delta(&mut image, delta)?;
        deltas_written += 1;
    }
    if (files_written, deltas_written) != (files, buffer_deltas) {
        return Err(StorageError::Encode(format!(
            "header announces {files} index and {buffer_deltas} buffer record(s), \
             wrote {files_written} and {deltas_written}"
        )));
    }
    let footer = crc32(&image);
    image.extend_from_slice(&footer.to_le_bytes());
    Ok(image)
}

/// Checkpoint files as `(covered_seq, path)`.
type Generations = Vec<(u64, PathBuf)>;

/// The checkpoints in `dir`, newest first, and the `.tmp` files a crash
/// between create and rename left behind.
fn scan_dir(dir: &Path) -> Result<(Generations, Vec<PathBuf>), StorageError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), Vec::new())),
        Err(e) => return Err(StorageError::Io(e)),
    };
    let mut found = Vec::new();
    let mut orphans = Vec::new();
    for entry in entries {
        let entry = entry.map_err(StorageError::Io)?;
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("checkpoint-")) else {
            continue;
        };
        if let Some(seq) = rest
            .strip_suffix(".ckpt")
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((seq, entry.path()));
        } else if rest.ends_with(".ckpt.tmp") {
            orphans.push(entry.path());
        }
    }
    found.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    Ok((found, orphans))
}

/// List `(covered_seq, path)` of every checkpoint in `dir`, newest
/// first.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    scan_dir(dir).map(|(found, _)| found)
}

/// Delete checkpoint generations beyond the newest
/// [`RETAINED_CHECKPOINTS`], and every orphaned `.tmp`: the caller just
/// renamed its own, and one process writes a directory's checkpoints.
fn prune_checkpoints(dir: &Path) -> Result<(), StorageError> {
    let (found, orphans) = scan_dir(dir)?;
    let stale = found
        .into_iter()
        .skip(RETAINED_CHECKPOINTS)
        .map(|(_, path)| path);
    for path in stale.chain(orphans) {
        std::fs::remove_file(path).map_err(StorageError::Io)?;
    }
    Ok(())
}

/// Load and verify one checkpoint file. Any framing, decode, count, or
/// checksum problem is a `Corrupt` error — the caller falls back to an
/// older generation. Only a failure to read the file is `Io`.
pub fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, StorageError> {
    let bytes = std::fs::read(path).map_err(StorageError::Io)?;
    decode_checkpoint(&bytes).map_err(|e| StorageError::Corrupt(format!("{}: {e}", path.display())))
}

/// Verify and decode a checkpoint image. The magic is checked before
/// the footer, so a file of another format says so.
fn decode_checkpoint(bytes: &[u8]) -> Result<LoadedCheckpoint, DecodeError> {
    if bytes.first_chunk::<8>() != Some(&MAGIC) {
        return Err(DecodeError::NoMagic);
    }
    let (body, footer) = bytes
        .split_last_chunk::<4>()
        .ok_or(DecodeError::ChecksumMismatch)?;
    if crc32(body) != u32::from_le_bytes(*footer) {
        return Err(DecodeError::ChecksumMismatch);
    }
    let mut reader = Reader::new(body);
    reader.array::<8>()?;
    let version = reader.u32()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let header = CheckpointHeader {
        version,
        covered_seq: reader.u64()?,
        files: reader.u64()?,
        buffer_deltas: reader.u64()?,
        raw_pending: reader.u64()?,
    };
    let index_entries = reader.records(header.files, UPSERT_FIXED_LEN)?;
    if let Some(entry) = index_entries
        .iter()
        .position(|entry| !matches!(entry, Delta::Upsert { .. }))
    {
        return Err(DecodeError::IndexEntryNotUpsert { entry });
    }
    let buffer_entries = reader.records(header.buffer_deltas, MIN_RECORD_LEN)?;
    reader.finish()?;
    Ok(LoadedCheckpoint {
        header,
        index_entries,
        buffer_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::FileMeta;
    use crate::trie::NodeId;
    use crate::vfs::VirtualFs;
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;

    /// Bytes ahead of the first record.
    const HEADER_LEN: usize = 8 + 4 + 4 * 8;

    /// A real checkpoint image: three indexed files (one non-ASCII path)
    /// and a pending buffer holding every record kind.
    fn real_image() -> Vec<u8> {
        let mut fs = VirtualFs::with_capacity(1 << 30);
        for (path, user) in [("/u1/a", 1), ("/u1/ß/b", 1), ("/u2/c", 2)] {
            fs.create(path, UserId(user), 100, Timestamp::from_days(1))
                .expect("create");
        }
        let ex = ExemptionList::new();
        let index = CatalogIndex::from_fs(&fs, &ex);
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb([
            Delta::Upsert {
                path: "/u3/new".to_string(),
                id: NodeId(40),
                meta: FileMeta::new(UserId(3), 7, Timestamp::from_days(2)),
            },
            Delta::Touch {
                id: NodeId(41),
                atime: Timestamp::from_days(3),
                access_count: 2,
            },
            Delta::Remove { id: NodeId(42) },
        ]);
        encode_checkpoint(9, &index, &buffer).expect("encode")
    }

    /// Replace `image`'s footer with the CRC of everything before it.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    fn body_of(image: &[u8]) -> Vec<u8> {
        image[..image.len() - 4].to_vec()
    }

    #[test]
    fn image_round_trips() {
        let loaded = decode_checkpoint(&real_image()).expect("decode");
        assert_eq!(
            loaded.header,
            CheckpointHeader {
                version: VERSION,
                covered_seq: 9,
                files: 3,
                buffer_deltas: 3,
                raw_pending: 3,
            }
        );
        assert_eq!(loaded.index_entries.len(), 3);
        assert_eq!(loaded.buffer_entries.len(), 3);
    }

    #[test]
    fn every_cut_is_rejected_with_or_without_a_valid_footer() {
        let image = real_image();
        let body = body_of(&image);
        for cut in 0..image.len() {
            assert!(
                decode_checkpoint(&image[..cut]).is_err(),
                "raw cut at {cut}"
            );
        }
        // Cut the body and recompute the footer: the record decoder
        // itself, not the checksum, must reject every short image.
        for cut in 0..body.len() {
            let resealed = reseal(body[..cut].to_vec());
            assert!(
                decode_checkpoint(&resealed).is_err(),
                "resealed cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_headers_and_records_are_rejected_behind_a_valid_footer() {
        let body = body_of(&real_image());
        let planted = |at: usize, bytes: &[u8]| {
            let mut b = body.clone();
            b.splice(at..at + bytes.len(), bytes.iter().copied());
            decode_checkpoint(&reseal(b)).expect_err("must be rejected")
        };
        let truncated = |e: DecodeError| matches!(e, DecodeError::Truncated { .. });
        // Counts of u64::MAX (files, then buffer deltas).
        assert!(truncated(planted(20, &u64::MAX.to_le_bytes())));
        assert!(truncated(planted(28, &u64::MAX.to_le_bytes())));
        // A path length of u32::MAX on the first index entry.
        let len_at = HEADER_LEN + UPSERT_FIXED_LEN - 4;
        assert!(truncated(planted(len_at, &u32::MAX.to_le_bytes())));
        assert_eq!(
            planted(HEADER_LEN, &[9]),
            DecodeError::UnknownTag {
                at: HEADER_LEN,
                tag: 9
            }
        );
        let path_at = HEADER_LEN + UPSERT_FIXED_LEN;
        assert_eq!(
            planted(path_at, &[0xFF]),
            DecodeError::PathNotUtf8 { at: path_at }
        );
        assert_eq!(
            planted(8, &1u32.to_le_bytes()),
            DecodeError::UnsupportedVersion(1)
        );
        assert_eq!(planted(0, b"{\"versio"), DecodeError::NoMagic);
        // A flipped body byte under the original footer.
        let mut flipped = real_image();
        flipped[HEADER_LEN] ^= 0x80;
        assert_eq!(
            decode_checkpoint(&flipped).expect_err("flip"),
            DecodeError::ChecksumMismatch
        );
        // An index entry that is not an upsert.
        let mut removes = body.clone();
        removes.truncate(HEADER_LEN);
        removes.splice(20..28, 1u64.to_le_bytes());
        removes.splice(28..36, 0u64.to_le_bytes());
        removes.extend_from_slice(&[2, 5, 0, 0, 0]);
        assert_eq!(
            decode_checkpoint(&reseal(removes)).expect_err("remove as index entry"),
            DecodeError::IndexEntryNotUpsert { entry: 0 }
        );
        // A trailing byte after the last record.
        let mut trailing = body.clone();
        trailing.push(0);
        assert_eq!(
            decode_checkpoint(&reseal(trailing)).expect_err("trailing byte"),
            DecodeError::TrailingBytes {
                at: body.len(),
                extra: 1
            }
        );
    }
}
