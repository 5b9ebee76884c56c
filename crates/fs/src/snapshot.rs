//! Weekly metadata snapshots.
//!
//! The paper's dataset includes weekly metadata snapshots of the Spider II
//! file system (stored as gzipped text files, one record per file). Our
//! snapshot is the same shape — `(path, owner, size, atime, ctime,
//! stripes)` per file — archived as a sealed image in the record codec,
//! so a captured population can be read back and a replay can restart
//! from a restored state (`tests/integration_snapshot_roundtrip.rs`):
//!
//! ```text
//! [magic "ADR-SNAP"][version u32 = 1][captured_at i64][capacity u64][files u64]
//! <files Upsert records: id = entry number, access_count = 0>
//! [crc32 u32 over every preceding byte]
//! ```
//!
//! The reader ignores each record's id and access count; a restore
//! resets both.

use crate::meta::FileMeta;
use crate::storage::codec::{self, DecodeError, UPSERT_FIXED_LEN};
use crate::storage::StorageError;
use crate::trie::NodeId;
use crate::vfs::VirtualFs;
use activedr_core::convert;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;

/// First bytes of every snapshot image.
const MAGIC: [u8; 8] = *b"ADR-SNAP";

/// The format [`Snapshot::encode`] writes and [`Snapshot::decode`] reads.
const VERSION: u32 = 1;

/// One file record in a metadata snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    pub path: String,
    pub owner: UserId,
    pub size: u64,
    pub atime: Timestamp,
    pub ctime: Timestamp,
    pub stripes: u8,
}

/// A full metadata snapshot: capture time plus one entry per file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub captured_at: Timestamp,
    pub capacity: u64,
    pub entries: Vec<SnapshotEntry>,
}

/// The difference between two snapshots (see [`Snapshot::diff`]). Entries
/// reference the newer snapshot for `created`/`touched` and the older one
/// for `removed`.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDiff<'a> {
    pub created: Vec<&'a SnapshotEntry>,
    pub removed: Vec<&'a SnapshotEntry>,
    /// Present in both but with changed atime or size.
    pub touched: Vec<&'a SnapshotEntry>,
}

impl SnapshotDiff<'_> {
    pub fn created_bytes(&self) -> u64 {
        self.created.iter().map(|e| e.size).sum()
    }

    pub fn removed_bytes(&self) -> u64 {
        self.removed.iter().map(|e| e.size).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.removed.is_empty() && self.touched.is_empty()
    }
}

impl Snapshot {
    /// Capture the current state of a virtual file system.
    pub fn capture(fs: &VirtualFs, at: Timestamp) -> Snapshot {
        let entries = fs
            .iter()
            .map(|(path, _, meta)| SnapshotEntry {
                path,
                owner: meta.owner,
                size: meta.size,
                atime: meta.atime,
                ctime: meta.ctime,
                stripes: meta.stripes,
            })
            .collect();
        Snapshot {
            captured_at: at,
            capacity: fs.capacity(),
            entries,
        }
    }

    /// Rebuild a virtual file system from this snapshot. Entries with
    /// conflicting paths (a file shadowing another file's directory) and
    /// entries that repeat an earlier entry's path are counted as skipped
    /// rather than aborting the load — real snapshot text files contain
    /// oddities. Of a repeated path the first entry is kept.
    pub fn restore(&self) -> (VirtualFs, usize) {
        let mut fs = VirtualFs::with_capacity(self.capacity);
        let mut skipped = 0usize;
        for e in &self.entries {
            let meta = FileMeta::new(e.owner, e.size, e.atime)
                .with_ctime(e.ctime)
                .with_stripes(e.stripes.max(1));
            if fs.exists(&e.path) || fs.insert_meta(&e.path, meta).is_err() {
                skipped += 1;
            }
        }
        (fs, skipped)
    }

    /// The entries' sizes summed, `u64::MAX` if they overflow it (only a
    /// snapshot built in memory can: [`Snapshot::decode`] refuses one).
    pub fn total_bytes(&self) -> u64 {
        self.entries
            .iter()
            .fold(0u64, |sum, e| sum.saturating_add(e.size))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compare two snapshots (typically consecutive weekly captures):
    /// which paths appeared, disappeared, or had their metadata change.
    pub fn diff<'a>(&'a self, newer: &'a Snapshot) -> SnapshotDiff<'a> {
        use std::collections::HashMap;
        let old: HashMap<&str, &SnapshotEntry> =
            self.entries.iter().map(|e| (e.path.as_str(), e)).collect();
        let new: HashMap<&str, &SnapshotEntry> =
            newer.entries.iter().map(|e| (e.path.as_str(), e)).collect();

        let mut diff = SnapshotDiff::default();
        for (path, entry) in &new {
            match old.get(path) {
                None => diff.created.push(entry),
                Some(prev) => {
                    if prev.atime != entry.atime || prev.size != entry.size {
                        diff.touched.push(entry);
                    }
                }
            }
        }
        for (path, entry) in &old {
            if !new.contains_key(path) {
                diff.removed.push(entry);
            }
        }
        diff.created.sort_by_key(|e| e.path.as_str());
        diff.removed.sort_by_key(|e| e.path.as_str());
        diff.touched.sort_by_key(|e| e.path.as_str());
        diff
    }

    /// The sealed image of this snapshot (see the module docs). Paths are
    /// written as they stand: a capture holds canonical paths, and
    /// [`Snapshot::decode`] rejects any other.
    pub fn encode(&self) -> Result<Vec<u8>, StorageError> {
        let files = self.entries.len();
        let mut image = Vec::with_capacity(files.saturating_mul(UPSERT_FIXED_LEN + 32));
        image.extend_from_slice(&MAGIC);
        image.extend_from_slice(&VERSION.to_le_bytes());
        image.extend_from_slice(&self.captured_at.secs().to_le_bytes());
        image.extend_from_slice(&self.capacity.to_le_bytes());
        image.extend_from_slice(&convert::u64_from_usize(files).to_le_bytes());
        for (entry, e) in self.entries.iter().enumerate() {
            let id = u32::try_from(entry)
                .map_err(|_| StorageError::Encode(format!("snapshot of {files} files")))?;
            let meta = FileMeta {
                ctime: e.ctime,
                stripes: e.stripes,
                ..FileMeta::new(e.owner, e.size, e.atime)
            };
            codec::encode_upsert(&mut image, &e.path, NodeId(id), &meta)?;
        }
        codec::seal(&mut image);
        Ok(image)
    }

    /// Read a snapshot image back. Any defect is
    /// [`StorageError::Corrupt`], including entry sizes that sum past
    /// `u64::MAX`, which no file system restores; the header's file count
    /// sizes nothing the bytes cannot back.
    pub fn decode(image: &[u8]) -> Result<Snapshot, StorageError> {
        decode_image(image).map_err(|e| StorageError::Corrupt(format!("snapshot image: {e}")))
    }
}

pub(crate) fn decode_image(image: &[u8]) -> Result<Snapshot, DecodeError> {
    let mut reader = codec::open_sealed(image, &MAGIC, VERSION)?;
    let captured_at = reader.timestamp()?;
    let capacity = reader.u64()?;
    let files = reader.u64()?;
    let upserts = reader.upserts(files)?;
    upserts
        .iter()
        .enumerate()
        .try_fold(0u64, |sum, (entry, (_, _, meta))| {
            sum.checked_add(meta.size)
                .ok_or(DecodeError::IndexBytesOverflow { entry })
        })?;
    let entries = upserts
        .into_iter()
        .map(|(path, _, meta)| SnapshotEntry {
            path,
            owner: meta.owner,
            size: meta.size,
            atime: meta.atime,
            ctime: meta.ctime,
            stripes: meta.stripes,
        })
        .collect();
    reader.finish()?;
    Ok(Snapshot {
        captured_at,
        capacity,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes ahead of the first entry.
    const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

    fn sample_fs() -> VirtualFs {
        let mut fs = VirtualFs::with_capacity(10_000);
        fs.create("/u1/a.dat", UserId(1), 100, Timestamp::from_days(3))
            .unwrap();
        fs.create("/u1/deep/b.dat", UserId(1), 200, Timestamp::from_days(5))
            .unwrap();
        fs.create("/u2/c.dat", UserId(2), 300, Timestamp::from_days(7))
            .unwrap();
        fs
    }

    #[test]
    fn capture_restore_round_trip() {
        let fs = sample_fs();
        let snap = Snapshot::capture(&fs, Timestamp::from_days(10));
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.total_bytes(), 600);
        assert_eq!(snap.capacity, 10_000);

        let (restored, skipped) = snap.restore();
        assert_eq!(skipped, 0);
        assert_eq!(restored.file_count(), 3);
        assert_eq!(restored.used_bytes(), 600);
        assert_eq!(
            restored.meta("/u1/deep/b.dat").unwrap().atime,
            Timestamp::from_days(5)
        );
        assert_eq!(restored.meta("/u2/c.dat").unwrap().owner, UserId(2));
    }

    fn sample() -> Snapshot {
        Snapshot::capture(&sample_fs(), Timestamp::from_days(10))
    }

    /// `body` sealed as the writer seals an image.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        codec::seal(&mut body);
        body
    }

    #[test]
    fn every_cut_is_rejected() {
        let image = sample().encode().expect("encode");
        for cut in 0..image.len() {
            let want = match cut {
                0..8 => DecodeError::NoMagic,
                _ => DecodeError::ChecksumMismatch,
            };
            let err = decode_image(&image[..cut]).err();
            assert_eq!(err, Some(want), "raw cut at {cut}");
        }
        // Resealed cuts: the record decoder, not the checksum, rejects them.
        for cut in 8..image.len() - 4 {
            let err = decode_image(&reseal(image[..cut].to_vec())).err();
            let truncated = matches!(err, Some(DecodeError::Truncated { .. }));
            assert!(truncated, "resealed cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn hostile_images_are_typed_errors() {
        let image = sample().encode().expect("encode");
        let body = image[..image.len() - 4].to_vec();
        let planted = |at: usize, bytes: &[u8]| {
            let mut b = body.clone();
            b.splice(at..at + bytes.len(), bytes.iter().copied());
            decode_image(&reseal(b)).err()
        };
        let mut flipped = image.clone();
        flipped[HEADER_LEN] ^= 0x80;
        let err = decode_image(&flipped).err();
        assert_eq!(err, Some(DecodeError::ChecksumMismatch));
        // A file count of u64::MAX runs out of bytes; it reserves only as
        // many entries as the bytes could hold.
        let huge = planted(HEADER_LEN - 8, &u64::MAX.to_le_bytes());
        assert!(
            matches!(huge, Some(DecodeError::Truncated { .. })),
            "{huge:?}"
        );
        let err = planted(8, &2u32.to_le_bytes());
        assert_eq!(err, Some(DecodeError::UnsupportedVersion(2)));
        // One entry, and it is a Remove.
        let mut removes = body[..HEADER_LEN - 8].to_vec();
        removes.extend_from_slice(&1u64.to_le_bytes());
        removes.extend_from_slice(&[2, 5, 0, 0, 0]);
        let err = decode_image(&reseal(removes)).err();
        assert_eq!(err, Some(DecodeError::IndexEntryNotUpsert { entry: 0 }));
        // The writer writes any path; the reader takes only canonical ones.
        let mut odd = sample();
        odd.entries[0].path = "/u1//a.dat".into();
        let at = HEADER_LEN + UPSERT_FIXED_LEN;
        let err = decode_image(&odd.encode().expect("encode")).err();
        assert_eq!(err, Some(DecodeError::PathNotCanonical { at }));
        // A trailing byte, which the public decoder names by its offset.
        let mut trailing = body.clone();
        trailing.push(0);
        let trailing = reseal(trailing);
        let (at, extra) = (body.len(), 1);
        let err = decode_image(&trailing).err();
        assert_eq!(err, Some(DecodeError::TrailingBytes { at, extra }));
        let err = Snapshot::decode(&trailing).expect_err("trailing byte");
        let named =
            matches!(&err, StorageError::Corrupt(what) if what.contains(&format!("byte {at}")));
        assert!(named, "{err}");
    }

    #[test]
    fn sizes_past_u64_are_corrupt() {
        let mut huge = sample();
        for e in &mut huge.entries {
            e.size = 1 << 63;
        }
        assert_eq!(huge.total_bytes(), u64::MAX);
        let image = huge.encode().expect("encode");
        let err = decode_image(&image).err();
        assert_eq!(err, Some(DecodeError::IndexBytesOverflow { entry: 1 }));
        let err = Snapshot::decode(&image).expect_err("byte total past u64::MAX");
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn restore_keeps_the_first_of_a_repeated_path() {
        let mut twice = sample();
        twice.entries[1].path = twice.entries[0].path.clone();
        let image = twice.encode().expect("encode");
        let (fs, skipped) = Snapshot::decode(&image).expect("decode").restore();
        assert_eq!(fs.file_count(), 2);
        assert_eq!(skipped, 1);
        let first = &twice.entries[0];
        assert_eq!(fs.meta(&first.path).map(|m| m.size), Some(first.size));
        assert_eq!(fs.used_bytes(), first.size + twice.entries[2].size);
    }

    #[test]
    fn restore_skips_conflicting_entries() {
        let snap = Snapshot {
            captured_at: Timestamp::EPOCH,
            capacity: 0,
            entries: vec![
                SnapshotEntry {
                    path: "/a/b".into(),
                    owner: UserId(1),
                    size: 10,
                    atime: Timestamp::EPOCH,
                    ctime: Timestamp::EPOCH,
                    stripes: 1,
                },
                SnapshotEntry {
                    path: "/a/b/c".into(), // /a/b is a file — conflict
                    owner: UserId(1),
                    size: 20,
                    atime: Timestamp::EPOCH,
                    ctime: Timestamp::EPOCH,
                    stripes: 0, // off-spec stripe count tolerated
                },
            ],
        };
        let (fs, skipped) = snap.restore();
        assert_eq!(skipped, 1);
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.used_bytes(), 10);
    }

    #[test]
    fn diff_tracks_created_removed_touched() {
        let mut fs = sample_fs();
        let before = Snapshot::capture(&fs, Timestamp::from_days(10));

        fs.remove("/u2/c.dat").unwrap();
        fs.create("/u3/new.dat", UserId(3), 77, Timestamp::from_days(11))
            .unwrap();
        fs.access("/u1/a.dat", Timestamp::from_days(12));
        let after = Snapshot::capture(&fs, Timestamp::from_days(14));

        let diff = before.diff(&after);
        assert_eq!(diff.created.len(), 1);
        assert_eq!(diff.created[0].path, "/u3/new.dat");
        assert_eq!(diff.created_bytes(), 77);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.removed[0].path, "/u2/c.dat");
        assert_eq!(diff.removed_bytes(), 300);
        assert_eq!(diff.touched.len(), 1);
        assert_eq!(diff.touched[0].path, "/u1/a.dat");
        assert!(!diff.is_empty());

        // A snapshot diffed with itself is empty.
        assert!(after.diff(&after).is_empty());
    }
}
