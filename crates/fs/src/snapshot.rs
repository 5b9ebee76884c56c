//! Weekly metadata snapshots.
//!
//! The paper's dataset includes weekly metadata snapshots of the Spider II
//! file system (stored as gzipped text files, one record per file). Our
//! snapshot is the same shape — `(path, owner, size, atime, stripes)` per
//! file — serialized as JSON lines, so a captured population can be
//! archived and read back, and a replay can restart from a restored
//! state (`tests/integration_snapshot_roundtrip.rs`).

use crate::meta::FileMeta;
use crate::vfs::VirtualFs;
use activedr_core::convert;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One file record in a metadata snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    pub path: String,
    pub owner: UserId,
    pub size: u64,
    pub atime: Timestamp,
    pub ctime: Timestamp,
    pub stripes: u8,
}

/// A full metadata snapshot: capture time plus one entry per file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
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

/// Errors while reading a snapshot stream.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        line: usize,
        source: serde_json::Error,
    },
    /// The header line was missing or malformed.
    MissingHeader,
    /// The header's `files` count disagrees with the number of records
    /// that follow it (a truncated, padded or forged stream).
    FileCountMismatch {
        header: u64,
        records: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Parse { line, source } => {
                write!(f, "snapshot parse error on line {line}: {source}")
            }
            SnapshotError::MissingHeader => write!(f, "snapshot header line missing"),
            SnapshotError::FileCountMismatch { header, records } => write!(
                f,
                "snapshot header declares {header} file(s) but {records} record(s) follow"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    captured_at: Timestamp,
    capacity: u64,
    files: u64,
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
    /// conflicting paths (a file shadowing another file's directory) are
    /// counted as skipped rather than aborting the load — real snapshot
    /// text files contain oddities.
    pub fn restore(&self) -> (VirtualFs, usize) {
        let mut fs = VirtualFs::with_capacity(self.capacity);
        let mut skipped = 0usize;
        for e in &self.entries {
            let meta = FileMeta::new(e.owner, e.size, e.atime)
                .with_ctime(e.ctime)
                .with_stripes(e.stripes.max(1));
            if fs.insert_meta(&e.path, meta).is_err() {
                skipped += 1;
            }
        }
        (fs, skipped)
    }

    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
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

    /// Serialize as JSON lines: a header record, then one record per file.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> Result<(), SnapshotError> {
        let header = Header {
            captured_at: self.captured_at,
            capacity: self.capacity,
            files: convert::u64_from_usize(self.entries.len()),
        };
        serde_json::to_writer(&mut w, &header)
            .map_err(|e| SnapshotError::Parse { line: 1, source: e })?;
        w.write_all(b"\n")?;
        for (i, e) in self.entries.iter().enumerate() {
            serde_json::to_writer(&mut w, e).map_err(|er| SnapshotError::Parse {
                line: i + 2,
                source: er,
            })?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Parse a JSON-lines snapshot stream. The header's `files` count is
    /// checked against the records read, never used to size anything: it
    /// is untrusted input.
    pub fn read_jsonl<R: BufRead>(r: R) -> Result<Snapshot, SnapshotError> {
        let mut lines = r.lines();
        let header_line = lines.next().ok_or(SnapshotError::MissingHeader)??;
        let header: Header =
            serde_json::from_str(&header_line).map_err(|_| SnapshotError::MissingHeader)?;
        let mut entries = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let entry: SnapshotEntry =
                serde_json::from_str(&line).map_err(|e| SnapshotError::Parse {
                    line: i + 2,
                    source: e,
                })?;
            entries.push(entry);
        }
        let records = convert::u64_from_usize(entries.len());
        if records != header.files {
            return Err(SnapshotError::FileCountMismatch {
                header: header.files,
                records,
            });
        }
        Ok(Snapshot {
            captured_at: header.captured_at,
            capacity: header.capacity,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn jsonl_round_trip() {
        let snap = Snapshot::capture(&sample_fs(), Timestamp::from_days(10));
        let mut buf = Vec::new();
        snap.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 4); // header + 3 files
        let back = Snapshot::read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn corrupt_line_reports_position() {
        let snap = Snapshot::capture(&sample_fs(), Timestamp::from_days(10));
        let mut buf = Vec::new();
        snap.write_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Corrupt the third line (second file record).
        let lines: Vec<&str> = text.lines().collect();
        text = format!("{}\n{}\n{}\n{}\n", lines[0], lines[1], "{garbage", lines[3]);
        match Snapshot::read_jsonl(text.as_bytes()) {
            Err(SnapshotError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn header_file_count_is_checked_not_trusted() {
        // A forged header claiming 2^40 files must not size an
        // allocation; it is checked against the records that follow.
        let forged = r#"{"captured_at":86400,"capacity":10,"files":1099511627776}"#;
        match Snapshot::read_jsonl(forged.as_bytes()) {
            Err(SnapshotError::FileCountMismatch { header, records }) => {
                assert_eq!((header, records), (1 << 40, 0));
            }
            other => panic!("expected a file-count mismatch, got {other:?}"),
        }

        // A stream that lost its last record is caught the same way.
        let snap = Snapshot::capture(&sample_fs(), Timestamp::from_days(10));
        let mut buf = Vec::new();
        snap.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            Snapshot::read_jsonl(truncated.as_bytes()),
            Err(SnapshotError::FileCountMismatch {
                header: 3,
                records: 2
            })
        ));
    }

    #[test]
    fn empty_stream_is_missing_header() {
        assert!(matches!(
            Snapshot::read_jsonl(&b""[..]),
            Err(SnapshotError::MissingHeader)
        ));
        assert!(matches!(
            Snapshot::read_jsonl(&b"not json\n"[..]),
            Err(SnapshotError::MissingHeader)
        ));
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

    #[test]
    fn blank_lines_tolerated() {
        let snap = Snapshot::capture(&sample_fs(), Timestamp::from_days(1));
        let mut buf = Vec::new();
        snap.write_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        text.push('\n');
        let back = Snapshot::read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 3);
    }
}
