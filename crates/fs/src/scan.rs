//! Parallel catalog scans.
//!
//! The paper's prototype scans metadata snapshots with 20 MPI ranks, each
//! rank processing a shard of the snapshot files and maintaining its own
//! counters (§4.1.3, Fig. 12c/d). The single-node analog is a rayon
//! data-parallel scan: the file list is split into shards, each shard is
//! classified against the exemption list and grouped per user, and the
//! shard results are merged. Per-shard wall times are reported so the
//! Fig. 12 benchmarks can show the same per-rank breakdown.

use crate::exemption::ExemptionList;
use crate::vfs::VirtualFs;
use activedr_core::files::{Catalog, FileId, FileRecord, UserFiles};
use activedr_core::user::UserId;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters and timing from one scan shard — the per-rank probes of
/// Fig. 12c/d.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardReport {
    pub shard: usize,
    pub files: u64,
    pub bytes: u64,
    pub exempt: u64,
    pub elapsed: Duration,
}

/// The result of a parallel catalog scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub catalog: Catalog,
    pub shards: Vec<ShardReport>,
    pub elapsed: Duration,
}

impl ScanResult {
    pub fn total_files(&self) -> u64 {
        self.shards.iter().map(|s| s.files).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }
}

/// Scan `fs` into a policy catalog using `shards` parallel shards.
///
/// Functionally identical to [`VirtualFs::catalog`] (same `FileId` space,
/// same ordering) but the per-file work — exemption classification —
/// fans out across the rayon pool.
pub fn parallel_catalog(fs: &VirtualFs, exemptions: &ExemptionList, shards: usize) -> ScanResult {
    let shards = shards.max(1);
    #[expect(
        clippy::disallowed_methods,
        reason = "scan timing for the Fig. 12 performance report"
    )]
    let start = std::time::Instant::now();

    // Trie iteration is inherently sequential (parent links); collect the
    // flat listing first, then fan out the per-file classification.
    let files: Vec<(String, u64, crate::FileMeta)> = fs
        .iter()
        .map(|(path, id, meta)| (path, u64::from(id.0), *meta))
        .collect();

    let chunk = files.len().div_ceil(shards).max(1);
    let mut results: Vec<(usize, BTreeMap<UserId, Vec<FileRecord>>, ShardReport)> = files
        .par_chunks(chunk)
        .enumerate()
        .map(|(shard_idx, chunk_files)| {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-shard timing for the performance report"
            )]
            let shard_start = std::time::Instant::now();
            let mut per_user: BTreeMap<UserId, Vec<FileRecord>> = BTreeMap::new();
            let mut report = ShardReport {
                shard: shard_idx,
                ..Default::default()
            };
            for (path, id, meta) in chunk_files {
                let mut rec = FileRecord::new(FileId(*id), meta.size, meta.atime)
                    .with_ctime(meta.ctime)
                    .with_access_count(meta.access_count);
                if exemptions.is_exempt(path) {
                    rec.exempt = true;
                    report.exempt += 1;
                }
                report.files += 1;
                report.bytes += meta.size;
                per_user.entry(meta.owner).or_default().push(rec);
            }
            report.elapsed = shard_start.elapsed();
            (shard_idx, per_user, report)
        })
        .collect();

    // Merge shard maps in shard order so per-user file lists stay in
    // global path order (chunks are contiguous slices of a path-ordered
    // listing).
    results.sort_by_key(|(idx, _, _)| *idx);
    let mut merged: BTreeMap<UserId, Vec<FileRecord>> = BTreeMap::new();
    let mut reports = Vec::with_capacity(results.len());
    for (_, per_user, report) in results {
        for (user, mut files) in per_user {
            merged.entry(user).or_default().append(&mut files);
        }
        reports.push(report);
    }

    let catalog = Catalog::new(
        merged
            .into_iter()
            .map(|(user, files)| UserFiles::new(user, files))
            .collect(),
    );
    ScanResult {
        catalog,
        shards: reports,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::time::Timestamp;

    fn populated_fs(n_users: u32, files_per_user: u32) -> VirtualFs {
        let mut fs = VirtualFs::with_capacity(0);
        for u in 0..n_users {
            for f in 0..files_per_user {
                fs.create(
                    &format!("/scratch/u{u}/proj/file{f:03}.dat"),
                    UserId(u),
                    (u as u64 + 1) * 10 + f as u64,
                    Timestamp::from_days((u + f) as i64),
                )
                .unwrap();
            }
        }
        fs
    }

    #[test]
    fn parallel_scan_matches_sequential_catalog() {
        let fs = populated_fs(7, 13);
        let mut ex = ExemptionList::new();
        ex.reserve_dir("/scratch/u3");
        let sequential = fs.catalog(&ex);
        for shards in [1usize, 2, 4, 16, 100] {
            let result = parallel_catalog(&fs, &ex, shards);
            assert_eq!(result.catalog, sequential, "shards = {shards}");
            assert_eq!(result.total_files(), 7 * 13);
            assert_eq!(result.total_bytes(), sequential.total_bytes());
        }
    }

    #[test]
    fn shard_reports_cover_all_files() {
        let fs = populated_fs(5, 20);
        let result = parallel_catalog(&fs, &ExemptionList::new(), 4);
        assert_eq!(result.shards.len(), 4);
        assert_eq!(result.shards.iter().map(|s| s.files).sum::<u64>(), 100);
        assert_eq!(result.shards.iter().map(|s| s.exempt).sum::<u64>(), 0);
        // Shard ids are dense and ordered.
        for (i, s) in result.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
        }
    }

    #[test]
    fn exempt_counting() {
        let fs = populated_fs(2, 5);
        let mut ex = ExemptionList::new();
        ex.reserve_dir("/scratch/u0");
        let result = parallel_catalog(&fs, &ex, 3);
        assert_eq!(result.shards.iter().map(|s| s.exempt).sum::<u64>(), 5);
        let u0 = result.catalog.get(UserId(0)).unwrap();
        assert!(u0.files.iter().all(|f| f.exempt));
    }

    #[test]
    fn empty_fs_scan() {
        let fs = VirtualFs::with_capacity(0);
        let result = parallel_catalog(&fs, &ExemptionList::new(), 8);
        assert!(result.catalog.users.is_empty());
        assert_eq!(result.total_files(), 0);
    }

    #[test]
    fn more_shards_than_files() {
        let fs = populated_fs(1, 3);
        let result = parallel_catalog(&fs, &ExemptionList::new(), 64);
        assert_eq!(result.total_files(), 3);
        assert_eq!(result.catalog.total_files(), 3);
    }
}
