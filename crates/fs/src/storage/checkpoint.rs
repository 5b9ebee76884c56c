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
//! The image is sealed and opened by the `codec` routines that snapshot
//! images share, and its records use the shared `codec` layout.
//! `covered_seq` is the last WAL sequence folded into this state —
//! recovery replays only records past it. The pending buffer rides
//! along (with its raw-delta count) so a checkpoint taken mid-backlog —
//! e.g. during a stretch of scan fallbacks — is still a complete cut.
//!
//! The index half is rehydrated the way a cold start seeds: each
//! owner's run of entries is bound as one listing, with no buffer, sort
//! or merge. So the decoder accepts only what the writer emits: owners
//! ascending, each owner's paths strictly ascending in component order,
//! no id and no path twice, buffer records strictly ascending by id, and
//! index sizes plus pending Upsert sizes whose sum fits the index's `u64`
//! byte total. That sum bounds every total a flush of the pair can reach,
//! and recovery keeps adding each replayed Upsert to it.
//! That, any other magic (a v1 JSONL checkpoint included), a short file,
//! a footer mismatch, a count the records do not fill, a record the
//! codec rejects, or a trailing byte rejects the checkpoint wholesale,
//! and recovery falls back to the previous one (two are retained).
//! Writes go through a `.tmp` + rename so a crash mid-checkpoint can
//! never shadow a good file with a half-written one; the next
//! checkpoint deletes any `.tmp` such a crash left behind.

use super::codec::{self, DecodeError, MIN_RECORD_LEN, UPSERT_FIXED_LEN};
use super::{FsyncPolicy, StorageError};
use crate::changelog::Delta;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::index::{self, cmp_canonical, CatalogIndex, Listing, PathKey};
use crate::meta::FileMeta;
use crate::trie::NodeId;
use activedr_core::convert;
use activedr_core::user::UserId;
use std::collections::HashSet;
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

/// One index entry as [`CatalogIndex::export_entries`] yields it, owned.
type IndexEntry = (String, NodeId, FileMeta);

/// A successfully loaded checkpoint, ready to rehydrate. Only
/// [`load_checkpoint`] builds one, so its entries always hold the order
/// the decoder checks (see the module docs).
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub header: CheckpointHeader,
    /// Index entries ascending by (owner, path), no id or path twice.
    index_entries: Vec<IndexEntry>,
    /// Pending buffer deltas in drain order (strictly ascending id).
    buffer_entries: Vec<Delta>,
    /// The index entries' byte total plus every pending Upsert's size,
    /// checked to fit: no flush of the rehydrated pair can push the
    /// index total past it.
    pub(super) byte_bound: u64,
}

impl LoadedCheckpoint {
    /// Rebuild the live pair this checkpoint captured. The index half is
    /// seeded as a cold start seeds it: each owner's run of entries
    /// becomes one listing, bound as it stands. The pending half is
    /// absorbed into a fresh buffer. `exemptions` must be the run's list
    /// (exemption flags are derived, not stored — the engine's list is
    /// fixed per run, and callers that mutate theirs re-checkpoint at
    /// the mutation).
    pub fn rehydrate(
        self,
        buffer_cap: usize,
        exemptions: &ExemptionList,
    ) -> (CatalogIndex, DeltaBuffer) {
        let mut listings: Vec<(UserId, Listing)> = Vec::new();
        for (path, id, meta) in self.index_entries {
            let file = index::record(id, &meta, exemptions.is_exempt(&path));
            let key = PathKey::from_canonical(&path);
            match listings.last_mut() {
                Some((owner, (keys, files))) if *owner == meta.owner => {
                    keys.push(key);
                    files.push(file);
                }
                _ => listings.push((meta.owner, (vec![key], vec![file]))),
            }
        }
        let index = CatalogIndex::seeded(listings);
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
    codec::seal(&mut image);
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

/// Verify and decode a checkpoint image.
fn decode_checkpoint(bytes: &[u8]) -> Result<LoadedCheckpoint, DecodeError> {
    let mut reader = codec::open_sealed(bytes, &MAGIC, VERSION)?;
    let header = CheckpointHeader {
        version: VERSION,
        covered_seq: reader.u64()?,
        files: reader.u64()?,
        buffer_deltas: reader.u64()?,
        raw_pending: reader.u64()?,
    };
    let index_entries = reader.upserts(header.files)?;
    let index_bytes = check_index_entries(&index_entries)?;
    let buffer_entries = reader.records(header.buffer_deltas, MIN_RECORD_LEN)?;
    let ids = buffer_entries.iter().map(Delta::id);
    if let Some(entry) = ids.clone().zip(ids.skip(1)).position(|(a, b)| a >= b) {
        return Err(DecodeError::BufferOutOfOrder { entry: entry + 1 });
    }
    let byte_bound = add_upsert_bytes(index_bytes, &buffer_entries)
        .map_err(|entry| DecodeError::BufferBytesOverflow { entry })?;
    reader.finish()?;
    Ok(LoadedCheckpoint {
        header,
        index_entries,
        buffer_entries,
        byte_bound,
    })
}

/// Add the size of every Upsert in `deltas` to `bound`. `Err` names the
/// first delta that takes the sum past `u64::MAX`. A flush only lands
/// Upserts the buffer absorbed, so an index total that starts at or
/// below `bound` stays there while every absorbed Upsert is added.
pub(super) fn add_upsert_bytes(bound: u64, deltas: &[Delta]) -> Result<u64, usize> {
    deltas
        .iter()
        .enumerate()
        .try_fold(bound, |sum, (i, delta)| match delta {
            Delta::Upsert { meta, .. } => sum.checked_add(meta.size).ok_or(i),
            Delta::Touch { .. } | Delta::Remove { .. } => Ok(sum),
        })
}

/// Accept index entries only as `export_entries` writes them, which is
/// what [`CatalogIndex::seeded`] binds without sorting or folding: owners
/// ascending, each owner's paths strictly ascending in component order,
/// no id or path anywhere twice, and a byte total that fits a `u64`,
/// which it returns.
fn check_index_entries(entries: &[IndexEntry]) -> Result<u64, DecodeError> {
    let mut ids = HashSet::with_capacity(entries.len());
    let mut paths = HashSet::with_capacity(entries.len());
    let mut last: Option<(UserId, &str)> = None;
    let mut bytes = 0u64;
    for (entry, (path, id, meta)) in entries.iter().enumerate() {
        bytes = bytes
            .checked_add(meta.size)
            .ok_or(DecodeError::IndexBytesOverflow { entry })?;
        if !paths.insert(path.as_str()) {
            return Err(DecodeError::DuplicateIndexPath { entry });
        }
        if !ids.insert(*id) {
            return Err(DecodeError::DuplicateIndexId { entry });
        }
        let ascending = last.is_none_or(|(owner, last_path)| {
            owner
                .cmp(&meta.owner)
                .then_with(|| cmp_canonical(last_path.as_bytes(), path.as_bytes()))
                .is_lt()
        });
        if !ascending {
            return Err(DecodeError::IndexOutOfOrder { entry });
        }
        last = Some((meta.owner, path));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::{arb_op, arb_path, assert_same_index, day, run_op};
    use crate::vfs::VirtualFs;
    use activedr_core::time::Timestamp;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
        codec::seal(&mut body);
        body
    }

    fn body_of(image: &[u8]) -> Vec<u8> {
        image[..image.len() - 4].to_vec()
    }

    /// A sealed image of index entries `(path, id, owner)` and buffer
    /// records, laid out as the writer lays them out but in the order
    /// given.
    fn raw_image(entries: &[(&str, u32, u32)], buffer: &[Delta]) -> Vec<u8> {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&VERSION.to_le_bytes());
        let (files, pending) = (entries.len() as u64, buffer.len() as u64);
        for field in [9, files, pending, pending] {
            body.extend_from_slice(&field.to_le_bytes());
        }
        for &(path, id, owner) in entries {
            let meta = FileMeta::new(UserId(owner), 100, Timestamp::from_days(1));
            codec::encode_upsert(&mut body, path, NodeId(id), &meta).expect("encode");
        }
        for delta in buffer {
            codec::encode_delta(&mut body, delta).expect("encode");
        }
        reseal(body)
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
        // Three indexed files of 100 bytes and one pending Upsert of 7.
        assert_eq!(loaded.byte_bound, 307);
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
        // A path the index could not key (the first entry's "/u1/a").
        assert_eq!(
            planted(path_at, b"/u1//"),
            DecodeError::PathNotCanonical { at: path_at }
        );

        // Index sections the writer never emits. Component order puts
        // `/x/a/b` before `/x/a.b`, which raw byte order reverses.
        let sorted = [
            ("/x/a", 1, 1),
            ("/x/a/b", 2, 1),
            ("/x/a.b", 3, 1),
            ("/y", 4, 2),
        ];
        assert!(decode_checkpoint(&raw_image(&sorted, &[])).is_ok());
        for (what, entries, want) in [
            (
                "owners out of order",
                vec![("/y", 4, 2), ("/x/a", 1, 1)],
                DecodeError::IndexOutOfOrder { entry: 1 },
            ),
            (
                "paths in byte order, not component order",
                vec![("/x/a.b", 3, 1), ("/x/a/b", 2, 1)],
                DecodeError::IndexOutOfOrder { entry: 1 },
            ),
            (
                "a path twice in one owner",
                vec![("/x/a", 1, 1), ("/x/a", 2, 1)],
                DecodeError::DuplicateIndexPath { entry: 1 },
            ),
            (
                "a path twice across owners",
                vec![("/x/a", 1, 1), ("/y", 4, 2), ("/x/a", 2, 3)],
                DecodeError::DuplicateIndexPath { entry: 2 },
            ),
            (
                "an id twice across owners",
                vec![("/x/a", 1, 1), ("/y", 1, 2)],
                DecodeError::DuplicateIndexId { entry: 1 },
            ),
        ] {
            assert_eq!(
                decode_checkpoint(&raw_image(&entries, &[])).expect_err(what),
                want,
                "{what}"
            );
        }
        // Sizes whose sum no index total can hold.
        let mut huge = raw_image(&sorted[..2], &[]);
        for size_at in [HEADER_LEN + 9, HEADER_LEN + UPSERT_FIXED_LEN + 4 + 9] {
            huge[size_at..size_at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        }
        assert_eq!(
            decode_checkpoint(&reseal(body_of(&huge))).expect_err("byte total"),
            DecodeError::IndexBytesOverflow { entry: 1 }
        );
        // Buffer records must be strictly ascending by id.
        let touch = |id| Delta::Touch {
            id: NodeId(id),
            atime: Timestamp::from_days(2),
            access_count: 1,
        };
        assert!(decode_checkpoint(&raw_image(&sorted, &[touch(1), touch(5)])).is_ok());
        for buffer in [[touch(5), touch(1)], [touch(5), touch(5)]] {
            assert_eq!(
                decode_checkpoint(&raw_image(&sorted, &buffer)).expect_err("buffer order"),
                DecodeError::BufferOutOfOrder { entry: 1 }
            );
        }
        // The index's 400 bytes plus the pending Upsert sizes must fit a
        // `u64`, or a flush of the rehydrated pair would overflow it.
        let pending = |id, size| Delta::Upsert {
            path: format!("/z/{id}"),
            id: NodeId(id),
            meta: FileMeta::new(UserId(3), size, Timestamp::from_days(2)),
        };
        let fits = raw_image(&sorted, &[touch(1), pending(5, u64::MAX - 400)]);
        assert_eq!(decode_checkpoint(&fits).expect("fits").byte_bound, u64::MAX);
        assert_eq!(
            decode_checkpoint(&raw_image(&sorted, &[touch(1), pending(5, u64::MAX - 399)]))
                .expect_err("pending bytes"),
            DecodeError::BufferBytesOverflow { entry: 1 }
        );
    }

    #[test]
    fn snapshot_and_checkpoint_images_refuse_each_other() {
        let snapshot = crate::Snapshot::default().encode().expect("encode");
        assert_eq!(
            decode_checkpoint(&snapshot).err(),
            Some(DecodeError::NoMagic)
        );
        let checkpoint = crate::snapshot::decode_image(&real_image()).err();
        assert_eq!(checkpoint, Some(DecodeError::NoMagic));
    }

    #[test]
    fn a_saturated_raw_pending_count_absorbs_without_overflow() {
        // The header's raw count is untrusted: a CRC-valid image may carry
        // `u64::MAX`, and recovery absorbs the first replayed WAL batch
        // on top of it.
        let mut body = body_of(&real_image());
        body[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&u64::MAX.to_le_bytes());
        let loaded = decode_checkpoint(&reseal(body)).expect("decode");
        assert_eq!(loaded.header.raw_pending, u64::MAX);
        let (_, mut buffer) = loaded.rehydrate(1 << 10, &ExemptionList::new());
        buffer.absorb([Delta::Touch {
            id: NodeId(1),
            atime: Timestamp::from_days(4),
            access_count: 2,
        }]);
        assert_eq!(buffer.raw_pending(), u64::MAX);
        assert_eq!(buffer.len(), 4);
    }

    /// What `rehydrate` built before it seeded listings directly: the
    /// index entries absorbed into a buffer and flushed into an empty
    /// index, which sorts and folds whatever arrives.
    fn flushed_rehydrate(
        loaded: LoadedCheckpoint,
        buffer_cap: usize,
        exemptions: &ExemptionList,
    ) -> (CatalogIndex, DeltaBuffer) {
        let mut index = CatalogIndex::new();
        let mut seed = DeltaBuffer::unbounded();
        seed.absorb(
            loaded
                .index_entries
                .into_iter()
                .map(|(path, id, meta)| Delta::Upsert { path, id, meta }),
        );
        index.flush(&mut seed, exemptions);
        let mut buffer = DeltaBuffer::with_capacity(buffer_cap);
        buffer.absorb(loaded.buffer_entries);
        buffer.set_raw_pending(loaded.header.raw_pending);
        (index, buffer)
    }

    fn pending_of(buffer: &DeltaBuffer) -> Vec<Delta> {
        buffer.pending_deltas().cloned().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A checkpoint of any live pair — an index that has seen
        /// flushes, reservations, and a pending buffer of several
        /// windows — rehydrates by direct seeding to exactly what a
        /// flush of its entries builds, field by field, and to the live
        /// pair itself.
        #[test]
        fn rehydrate_equals_flushed_entries(
            files in prop::collection::vec((arb_path(), 1u32..5, 1u64..1000, 0i64..100), 1..40),
            reserved in prop::collection::vec(arb_path(), 0..4),
            flushed in prop::collection::vec(arb_op(), 0..12),
            windows in prop::collection::vec(prop::collection::vec(arb_op(), 0..8), 0..3),
        ) {
            const CAP: usize = 1 << 10;
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let mut fs = VirtualFs::with_capacity(0);
            for (path, user, size, d) in files {
                fs.create(&path, UserId(user), size, day(d)).ok();
            }
            let mut ex = ExemptionList::new();
            for (i, path) in reserved.iter().enumerate() {
                if i % 2 == 0 {
                    ex.reserve_file(path);
                } else {
                    ex.reserve_dir(path);
                }
            }
            fs.enable_changelog();
            let mut live = CatalogIndex::from_fs(&fs, &ex);
            for op in flushed {
                run_op(&mut fs, op);
            }
            live.apply(fs.drain_changelog(), &ex);
            let mut buffer = DeltaBuffer::with_capacity(CAP);
            for ops in windows {
                for op in ops {
                    run_op(&mut fs, op);
                }
                buffer.absorb(fs.drain_changelog());
            }

            let dir = std::env::temp_dir().join(format!(
                "activedr-ckpt-prop-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            write_checkpoint(&dir, 7, &live, &buffer, FsyncPolicy::Never).expect("write");
            let path = dir.join(checkpoint_file_name(7));
            let (got, got_buffer) = load_checkpoint(&path).expect("load").rehydrate(CAP, &ex);
            let (want, want_buffer) =
                flushed_rehydrate(load_checkpoint(&path).expect("load"), CAP, &ex);
            std::fs::remove_dir_all(&dir).ok();

            assert_same_index(&got, &want);
            assert_same_index(&got, &live);
            prop_assert_eq!(pending_of(&got_buffer), pending_of(&want_buffer));
            prop_assert_eq!(pending_of(&got_buffer), pending_of(&buffer));
            prop_assert_eq!(got_buffer.raw_pending(), want_buffer.raw_pending());
            prop_assert_eq!(got_buffer.raw_pending(), buffer.raw_pending());
            prop_assert_eq!(got_buffer.capacity(), CAP);
        }
    }
}
