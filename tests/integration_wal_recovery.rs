//! Integration: the crash-safe durable catalog (WAL + checkpoint +
//! recovery, `activedr_fs::storage`).
//!
//! Two layers of proof:
//!
//! 1. **Storage torture** — hand-corrupted on-disk state (truncated tail
//!    record, bit-flipped payload, duplicate sequence, checkpoint-footer
//!    and high-byte corruption, a CRC-valid checkpoint index out of
//!    order, CRC-valid Upsert sizes past the index byte total, leftover
//!    v1 checkpoints, orphaned `.tmp` files, cold starts) must recover
//!    to exactly the state a never-corrupted control reaches, or fail
//!    with a typed `Corrupt` error.
//! 2. **Crash-point sweep** — a durable engine replay killed at *every*
//!    trigger boundary, and at injected mid-write byte offsets inside the
//!    WAL, must recover and finish with a `SimResult` bitwise-identical
//!    to an uninterrupted run (which itself is identical to a
//!    no-durability run).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test helper plumbing panics on harness failures by design"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::storage::{
    encode_record, load_checkpoint, recover, scan_wal, write_checkpoint, Wal, WalPayload,
};
use activedr_fs::{
    diff_catalogs, CatalogIndex, Delta, DeltaBuffer, DurabilityConfig, DurableCatalog,
    ExemptionList, FsyncPolicy, InjectedCrash, StorageError, VirtualFs,
};
use activedr_sim::{
    run_instrumented, run_until, run_with_telemetry, CatalogMode, ObsConfig, Scale, Scenario,
    SimConfig, SimResult, Telemetry,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

/// A unique scratch directory per call, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "activedr-wal-test-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A file system with its changelog recording, plus the seeded index.
fn changelog_fs() -> (VirtualFs, CatalogIndex, ExemptionList) {
    let mut fs = VirtualFs::with_capacity(1 << 30);
    fs.enable_changelog();
    let ex = ExemptionList::new();
    let index = CatalogIndex::from_fs(&fs, &ex);
    (fs, index, ex)
}

/// Drive `fs` through `days` of synthetic churn (creates, touches,
/// removes, overwrites), returning one drained delta batch per day.
fn churn_batches(fs: &mut VirtualFs, days: u32) -> Vec<Vec<Delta>> {
    let mut batches = Vec::new();
    for day in 0..i64::from(days) {
        let ts = Timestamp::from_days(day);
        let user = UserId(u32::try_from(day % 3).unwrap() + 1);
        fs.create(
            &format!("/u{}/d{day}/f", user.0),
            user,
            100 + day as u64,
            ts,
        )
        .expect("create");
        if day > 0 {
            fs.access(&format!("/u{}/d{}/f", 1 + (day - 1) % 3, day - 1), ts);
        }
        if day % 4 == 3 {
            fs.remove(&format!("/u{}/d{}/f", 1 + (day - 2) % 3, day - 2));
        }
        if day % 5 == 2 {
            // Overwrite an existing path with new metadata.
            fs.create(&format!("/u{}/d{day}/f", user.0), user, 7, ts)
                .expect("overwrite");
        }
        batches.push(fs.drain_changelog());
    }
    batches
}

/// Assert the recovered `(index, buffer)` pair observably equals the
/// control pair: identical catalog snapshots after flushing both, same
/// pending-set size, same raw-pending count.
fn assert_pairs_equal(
    mut got: (CatalogIndex, DeltaBuffer),
    mut want: (CatalogIndex, DeltaBuffer),
    ex: &ExemptionList,
    label: &str,
) {
    assert_eq!(got.1.len(), want.1.len(), "{label}: pending set size");
    assert_eq!(
        got.1.raw_pending(),
        want.1.raw_pending(),
        "{label}: raw pending count"
    );
    got.0.flush(&mut got.1, ex);
    want.0.flush(&mut want.1, ex);
    assert_eq!(got.0.file_count(), want.0.file_count(), "{label}: files");
    assert_eq!(got.0.total_bytes(), want.0.total_bytes(), "{label}: bytes");
    let diffs = diff_catalogs(got.0.snapshot(), want.0.snapshot());
    assert!(diffs.is_empty(), "{label}: recovered != control: {diffs:?}");
}

/// Raw bytes of the WAL file.
fn wal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("wal.log")).expect("read wal.log")
}

fn write_wal_bytes(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join("wal.log"), bytes).expect("write wal.log");
}

// ---------------------------------------------------------------------
// Storage torture: hand-corrupted on-disk state
// ---------------------------------------------------------------------

#[test]
fn truncated_tail_record_recovers_to_last_complete_record() {
    let scratch = ScratchDir::new("trunc");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 6);

    // Durable side: checkpoint 0, then log every batch.
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    for batch in &batches {
        wal.append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
    }
    drop(wal);

    // Tear the file mid-way through the last frame, at every cut depth
    // from "only the length prefix" to "one byte short of complete".
    let full = wal_bytes(scratch.path());
    let scan = scan_wal(scratch.path()).expect("scan");
    assert!(scan.torn.is_none() && scan.records.len() == batches.len());
    let last_frame_start = {
        // Re-scan a prefix missing the final record to find its offset.
        let mut cut = full.len();
        let last = encode_record(
            scan.records.len() as u64,
            &WalPayload::Batch(batches[batches.len() - 1].clone()),
        )
        .expect("encode");
        cut -= last.len();
        cut
    };
    for cut in [last_frame_start + 3, last_frame_start + 20, full.len() - 1] {
        write_wal_bytes(scratch.path(), &full[..cut]);
        let recovered = recover(scratch.path(), 1 << 16, &ex)
            .expect("recover")
            .expect("checkpoint present");
        assert_eq!(
            recovered.stats.replayed_records,
            batches.len() as u64 - 1,
            "cut at {cut}: torn final record must not replay"
        );
        assert!(
            recovered.stats.truncated_bytes > 0,
            "cut at {cut}: torn tail must be truncated"
        );
        // Control: everything but the final batch, absorbed but never
        // flushed — exactly what the live pair held pre-crash.
        let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
        for batch in &batches[..batches.len() - 1] {
            control_buffer.absorb(batch.clone());
        }
        assert_pairs_equal(
            (recovered.index, recovered.buffer),
            (CatalogIndex::new(), control_buffer),
            &ex,
            &format!("cut at {cut}"),
        );
        // And the truncation is durable: a re-scan sees a clean log.
        let rescan = scan_wal(scratch.path()).expect("rescan");
        assert!(rescan.torn.is_none(), "cut at {cut}: tail still torn");
    }
}

#[test]
fn bit_flipped_payload_is_rejected_by_checksum() {
    let scratch = ScratchDir::new("bitflip");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 4);
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    let mut frame_starts = vec![0u64];
    for batch in &batches {
        let (_, bytes) = wal
            .append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
        frame_starts.push(frame_starts.last().unwrap() + bytes);
    }
    drop(wal);
    let full = wal_bytes(scratch.path());

    // Flip one payload byte inside the third frame: records 1-2 must
    // survive, the flipped record and everything after must not.
    let victim = usize::try_from(frame_starts[2]).unwrap() + 14; // inside seq/kind/payload
    let mut corrupt = full.clone();
    corrupt[victim] ^= 0x40;
    write_wal_bytes(scratch.path(), &corrupt);
    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("checkpoint present");
    assert_eq!(
        recovered.stats.replayed_records, 2,
        "replay must stop at the flipped record"
    );
    let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
    for batch in &batches[..2] {
        control_buffer.absorb(batch.clone());
    }
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (CatalogIndex::new(), control_buffer),
        &ex,
        "bit-flipped payload",
    );
}

#[test]
fn duplicate_sequence_replay_is_idempotent() {
    let scratch = ScratchDir::new("dupseq");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 3);
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");

    // Hand-build a log where record 2 appears twice (a crash between
    // append and ack, then a retry, produces exactly this shape).
    let mut log = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let frame = encode_record(i as u64 + 1, &WalPayload::Batch(batch.clone())).expect("encode");
        if i == 1 {
            log.extend_from_slice(&frame);
        }
        log.extend_from_slice(&frame);
    }
    write_wal_bytes(scratch.path(), &log);

    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("checkpoint present");
    assert_eq!(recovered.stats.replayed_records, 3, "each seq applies once");
    assert_eq!(recovered.stats.skipped_records, 1, "duplicate skipped");
    let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
    for batch in &batches {
        control_buffer.absorb(batch.clone());
    }
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (CatalogIndex::new(), control_buffer),
        &ex,
        "duplicate sequence",
    );
}

/// Write checkpoint 0; log batches 1-2, a flush mark and batch 3, and
/// checkpoint that live pair at seq 4 (index entries and a pending
/// buffer); log batches 4-6; then damage the newest checkpoint with
/// `corrupt`. Recovery must reject it, fall back to checkpoint 0, replay
/// the *whole* WAL and land on the live pair.
fn assert_newest_checkpoint_falls_back(tag: &str, corrupt: impl Fn(&mut Vec<u8>)) {
    let scratch = ScratchDir::new(tag);
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 6);

    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    let mut live_index = index;
    let mut live_buffer = buffer;
    for (day, batch) in batches.iter().enumerate() {
        if day == 2 {
            wal.append_record(&WalPayload::FlushMark).expect("append");
            live_index.flush(&mut live_buffer, &ex);
        }
        wal.append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
        live_buffer.absorb(batch.clone());
        if day == 2 {
            write_checkpoint(
                scratch.path(),
                4,
                &live_index,
                &live_buffer,
                FsyncPolicy::Never,
            )
            .expect("checkpoint 4");
        }
    }
    drop(wal);

    // Sanity: the newest checkpoint loads before corruption.
    let newest = scratch.path().join("checkpoint-00000000000000000004.ckpt");
    load_checkpoint(&newest).expect("newest checkpoint valid before corruption");

    let mut bytes = std::fs::read(&newest).expect("read checkpoint");
    corrupt(&mut bytes);
    std::fs::write(&newest, &bytes).expect("write corrupted checkpoint");
    assert!(
        matches!(load_checkpoint(&newest), Err(StorageError::Corrupt(_))),
        "{tag}: damage must read as Corrupt"
    );

    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("older checkpoint present");
    assert_eq!(
        recovered.stats.fallback_checkpoints, 1,
        "{tag}: one bad generation"
    );
    assert_eq!(
        recovered.stats.checkpoint_seq, 0,
        "{tag}: fell back to checkpoint 0"
    );
    assert_eq!(
        recovered.stats.replayed_records, 7,
        "{tag}: full WAL replay from the older cut"
    );
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (live_index, live_buffer),
        &ex,
        tag,
    );
}

#[test]
fn corrupt_checkpoint_footer_falls_back_to_previous_generation() {
    assert_newest_checkpoint_falls_back("footer", |bytes| {
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
    });
}

/// A checkpoint is bytes, not text: a byte that is not valid UTF-8 must
/// be a `Corrupt` generation to fall back from, not an I/O error that
/// aborts recovery.
#[test]
fn non_utf8_checkpoint_byte_falls_back_to_previous_generation() {
    assert_newest_checkpoint_falls_back("high-byte", |bytes| {
        let at = (bytes.len() / 2..bytes.len())
            .find(|&i| bytes[i] != 0xFF)
            .expect("a byte to overwrite");
        bytes[at] = 0xFF;
    });
}

/// A checkpoint whose CRC verifies but whose index section is out of
/// (owner, path) order cannot be seeded as it stands: it is `Corrupt`
/// like a torn one, and recovery falls back to the older generation.
#[test]
fn unsorted_checkpoint_index_falls_back_to_previous_generation() {
    assert_newest_checkpoint_falls_back("unsorted", |bytes| {
        // The first index entry's owner field: after the 44-byte header,
        // the record's tag byte and its `u32` id. Owner 9 sorts after
        // the owner of the entry that follows.
        const OWNER_AT: usize = 44 + 1 + 4;
        assert_eq!(bytes[OWNER_AT..OWNER_AT + 4], 1u32.to_le_bytes());
        bytes[OWNER_AT..OWNER_AT + 4].copy_from_slice(&9u32.to_le_bytes());
        let body = bytes.len() - 4;
        let footer = activedr_fs::storage::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&footer.to_le_bytes());
    });
}

/// An Upsert size that no index byte total can hold once `/u1/a`'s 100
/// bytes are indexed. Only a hostile, CRC-valid image carries one.
const PAST_THE_TOTAL: u64 = u64::MAX - 50;

/// A namespace of one 100-byte file, seeded and checkpointed at seq 0,
/// and the changelog of creating `/u1/b`: one Upsert of 10 bytes, and
/// the same Upsert with its size set to [`PAST_THE_TOTAL`].
fn seeded_with_one_upsert(dir: &Path) -> (CatalogIndex, ExemptionList, Vec<Delta>, Vec<Delta>) {
    let (mut fs, _, ex) = changelog_fs();
    let t0 = Timestamp::from_days(0);
    fs.create("/u1/a", UserId(1), 100, t0).expect("create");
    fs.drain_changelog();
    let index = CatalogIndex::from_fs(&fs, &ex);
    let empty = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(dir, 0, &index, &empty, FsyncPolicy::Never).expect("checkpoint 0");
    fs.create("/u1/b", UserId(1), 10, t0).expect("create");
    let batch = fs.drain_changelog();
    let mut hostile = batch.clone();
    let Some(Delta::Upsert { meta, .. }) = hostile.first_mut() else {
        panic!("creating a file logs an Upsert first: {hostile:?}");
    };
    meta.size = PAST_THE_TOTAL;
    (index, ex, batch, hostile)
}

/// A CRC-valid checkpoint whose pending Upserts take the index byte total
/// past `u64` is `Corrupt`: recovery falls back to the older generation
/// instead of flushing an overflowing total at the next flush mark.
#[test]
fn pending_upsert_past_the_byte_total_falls_back_to_previous_generation() {
    let scratch = ScratchDir::new("pending-bytes");
    let (mut live_index, ex, batch, hostile) = seeded_with_one_upsert(scratch.path());
    let mut live_buffer = DeltaBuffer::with_capacity(1 << 16);
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    wal.append_record(&WalPayload::Batch(batch.clone()))
        .expect("append");
    live_buffer.absorb(batch);
    let mut hostile_buffer = DeltaBuffer::with_capacity(1 << 16);
    hostile_buffer.absorb(hostile);
    write_checkpoint(
        scratch.path(),
        1,
        &live_index,
        &hostile_buffer,
        FsyncPolicy::Never,
    )
    .expect("checkpoint 1");
    wal.append_record(&WalPayload::FlushMark).expect("append");
    live_index.flush(&mut live_buffer, &ex);
    drop(wal);

    let newest = scratch.path().join("checkpoint-00000000000000000001.ckpt");
    assert!(
        matches!(load_checkpoint(&newest), Err(StorageError::Corrupt(_))),
        "pending sizes past the byte total must read as Corrupt"
    );
    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("older checkpoint present");
    assert_eq!(recovered.stats.fallback_checkpoints, 1);
    assert_eq!(recovered.stats.checkpoint_seq, 0);
    assert_eq!(recovered.stats.replayed_records, 2);
    assert_eq!(recovered.index.total_bytes(), 110);
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (live_index, live_buffer),
        &ex,
        "pending-bytes",
    );
}

/// A CRC-valid WAL batch whose Upserts take the index byte total past
/// `u64` fails recovery with a `Corrupt` error naming the record, before
/// any flush could add it up.
#[test]
fn replayed_upsert_past_the_byte_total_is_corrupt() {
    let scratch = ScratchDir::new("replayed-bytes");
    let (_, ex, _, hostile) = seeded_with_one_upsert(scratch.path());
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    wal.append_record(&WalPayload::Batch(hostile))
        .expect("append");
    wal.append_record(&WalPayload::FlushMark).expect("append");
    drop(wal);

    match recover(scratch.path(), 1 << 16, &ex) {
        Err(StorageError::Corrupt(what)) => {
            assert!(what.contains("record seq 1"), "names the record: {what}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A JSONL checkpoint from before the binary format (here a valid, empty
/// one with its correct footer CRC) has no reader: it is rejected as
/// `Corrupt`, so its directory cold-starts and writes a fresh
/// checkpoint 0 in its place.
#[test]
fn leftover_v1_jsonl_checkpoint_cold_starts() {
    let scratch = ScratchDir::new("v1");
    let v1 = scratch.path().join("checkpoint-00000000000000000000.ckpt");
    std::fs::write(
        &v1,
        concat!(
            "{\"version\":1,\"covered_seq\":0,\"files\":0,\"buffer_deltas\":0,\"raw_pending\":0}\n",
            "{\"footer_crc\":1129291972}\n",
        ),
    )
    .expect("write v1 checkpoint");
    assert!(
        matches!(load_checkpoint(&v1), Err(StorageError::Corrupt(_))),
        "a v1 checkpoint must read as Corrupt"
    );
    let ex = ExemptionList::new();
    assert!(
        recover(scratch.path(), 1 << 16, &ex)
            .expect("recover")
            .is_none(),
        "no valid checkpoint: nothing to recover"
    );

    let (mut fs, _, ex) = changelog_fs();
    fs.create("/u1/live", UserId(1), 42, Timestamp::from_days(0))
        .expect("create");
    fs.drain_changelog();
    let opened = DurableCatalog::open(&DurabilityConfig::new(scratch.path()), &fs, &ex, 1 << 16)
        .expect("open");
    assert!(opened.recovered.is_none(), "v1 directory must cold-start");
    assert_eq!(opened.index.file_count(), 1, "seeded from the namespace");
    drop(opened);
    load_checkpoint(&v1).expect("checkpoint 0 rewritten in the binary format");
}

/// A crash between creating `checkpoint-N.ckpt.tmp` and renaming it
/// leaves the `.tmp` behind; the next checkpoint deletes it.
#[test]
fn orphaned_checkpoint_tmp_is_pruned_by_the_next_checkpoint() {
    let scratch = ScratchDir::new("orphan");
    let (_, index, _) = changelog_fs();
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let orphan = scratch
        .path()
        .join("checkpoint-00000000000000000002.ckpt.tmp");
    std::fs::write(&orphan, b"half a checkpoint").expect("plant orphan");
    write_checkpoint(scratch.path(), 5, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 5");
    assert!(
        !orphan.exists(),
        "orphaned .tmp survived the next checkpoint"
    );
    let mut names: Vec<String> = std::fs::read_dir(scratch.path())
        .expect("list dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "checkpoint-00000000000000000000.ckpt",
            "checkpoint-00000000000000000005.ckpt"
        ]
    );
}

#[test]
fn cold_start_on_empty_or_stale_directory() {
    // Missing directory: recover() finds nothing.
    let scratch = ScratchDir::new("cold");
    let missing = scratch.path().join("never-created");
    let ex = ExemptionList::new();
    assert!(
        recover(&missing, 1 << 16, &ex).expect("recover").is_none(),
        "missing dir must cold-start"
    );

    // A stale WAL with no checkpoint must not be replayed: open()
    // discards it, reseeds from the live namespace, writes checkpoint 0.
    let (mut fs, _, ex) = changelog_fs();
    fs.create("/u1/live", UserId(1), 42, Timestamp::from_days(0))
        .expect("create");
    fs.drain_changelog();
    write_wal_bytes(scratch.path(), b"stale garbage that is not a wal frame");
    let cfg = DurabilityConfig::new(scratch.path());
    let opened = DurableCatalog::open(&cfg, &fs, &ex, 1 << 16).expect("open");
    assert!(opened.recovered.is_none(), "stale WAL must not recover");
    assert_eq!(opened.durable.checkpoints_written(), 1, "checkpoint 0");
    assert_eq!(opened.index.file_count(), 1, "seeded from the namespace");
    let scan = scan_wal(scratch.path()).expect("scan");
    assert!(
        scan.records.is_empty() && scan.torn.is_none(),
        "stale WAL must be discarded"
    );

    // And the cold-started state round-trips: recover() now succeeds.
    drop(opened);
    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("checkpoint 0 present");
    assert_eq!(recovered.index.file_count(), 1);
    assert_eq!(recovered.stats.replayed_records, 0);
}

#[test]
fn fsync_always_recovers_identically_to_fsync_never() {
    // `FsyncPolicy::Always` changes when bytes are forced to the device,
    // never what they are: a full log/flush/checkpoint cycle under each
    // policy must leave byte-identical WAL files and recover to the same
    // pair. (The crash matrix runs under `Never` because the injected
    // fault shim tears the buffered write itself; this pins the other
    // policy's plumbing.)
    let (mut fs, _, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 5);
    let mut images = Vec::new();
    for fsync in [FsyncPolicy::Never, FsyncPolicy::Always] {
        let scratch = ScratchDir::new("fsync");
        let cfg = DurabilityConfig::new(scratch.path()).with_fsync(fsync);
        let opened = DurableCatalog::open(&cfg, &VirtualFs::with_capacity(1 << 30), &ex, 1 << 16)
            .expect("open");
        let mut durable = opened.durable;
        let mut index = opened.index;
        let mut buffer = opened.buffer;
        for batch in &batches {
            durable.log_batch(batch).expect("log batch");
            buffer.absorb(batch.clone());
        }
        durable.log_flush_mark().expect("log flush mark");
        index.flush(&mut buffer, &ex);
        durable.checkpoint_now(&index, &buffer).expect("checkpoint");
        let recovered = recover(scratch.path(), 1 << 16, &ex)
            .expect("recover")
            .expect("checkpoint present");
        assert_pairs_equal(
            (recovered.index, recovered.buffer),
            (index, buffer),
            &ex,
            &format!("{fsync:?}"),
        );
        images.push(wal_bytes(scratch.path()));
    }
    assert_eq!(images[0], images[1], "fsync policy altered the WAL bytes");
}

// ---------------------------------------------------------------------
// Engine equivalence + crash-point sweep
// ---------------------------------------------------------------------

/// Trigger-by-trigger probe fingerprints of a run.
fn probed_run(
    scenario: &Scenario,
    config: &SimConfig,
    until: Option<i64>,
) -> (SimResult, Vec<(i64, Option<u64>)>) {
    let mut probes = Vec::new();
    let (result, _) = run_instrumented(
        &scenario.traces,
        scenario.initial_fs.clone(),
        config,
        until,
        &mut |p| probes.push((p.day, p.event.map(|e| e.purged_files))),
    );
    (result, probes)
}

#[test]
fn durable_replay_is_bitwise_identical_to_in_memory_replay() {
    let scenario = Scenario::build(Scale::Tiny, 91);
    let plain = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);
    let scratch = ScratchDir::new("equiv");
    let durable = plain
        .clone()
        .with_durability(DurabilityConfig::new(scratch.path()).with_checkpoint_every(2));

    let (plain_res, plain_probes) = probed_run(&scenario, &plain, None);
    let (durable_res, durable_probes) = probed_run(&scenario, &durable, None);
    assert_eq!(
        plain_probes, durable_probes,
        "durable replay diverged at a trigger"
    );
    assert_eq!(
        plain_res.digest(),
        durable_res.digest(),
        "durable replay result differs from in-memory replay"
    );
    assert!(
        scratch.path().join("wal.log").exists(),
        "durable run must actually write a WAL"
    );
}

#[test]
fn crash_point_sweep_recovers_identically_everywhere() {
    let scenario = Scenario::build(Scale::Tiny, 92);
    let base = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);
    // The default buffer cap never forces a flush at Tiny scale, but a
    // stale purge backlog is folded inside the swept window, so the sweep
    // tears that fold's flush mark too. A cap of 8 forces a flush most
    // days, so the WAL interleaves forced flush marks with the batches,
    // and every recovery has to replay across them.
    let window_end = i64::from(scenario.traces.replay_start_day) + SWEPT_DAYS;
    assert!(
        backlog_fold_days(&scenario, &base)
            .iter()
            .any(|&day| day < window_end),
        "default-cap: no backlog fold inside the swept window"
    );
    for (tag, config) in [
        ("default-cap", base.clone()),
        ("cap-8", base.with_delta_buffer_cap(8)),
    ] {
        let flush_marks = crash_sweep(&scenario, &config, tag);
        if tag == "cap-8" {
            // A trigger logs at most one flush mark, so any surplus over
            // the trigger count is a forced flush.
            assert!(
                flush_marks > 8,
                "{tag}: {flush_marks} flush mark(s) in 8 triggers, expected forced flushes"
            );
        }
    }
}

/// The replay days a crash sweep covers: 8 weekly trigger boundaries
/// keep the whole matrix in seconds while still crossing checkpoint
/// cadence (every 2 triggers) several times.
const SWEPT_DAYS: i64 = 8 * 7 + 1;

/// The days on which an in-memory replay of `config` folded the stale
/// backlog a scan-fallback trigger left behind.
fn backlog_fold_days(scenario: &Scenario, config: &SimConfig) -> Vec<i64> {
    let tele = Telemetry::new(&ObsConfig {
        flight_capacity: 1 << 16,
        ..ObsConfig::on()
    });
    run_with_telemetry(&scenario.traces, scenario.initial_fs.clone(), config, &tele);
    let report = tele.report();
    assert_eq!(report.dropped_flight_events, 0, "flight ring overflowed");
    report
        .flight
        .iter()
        .filter(|e| e.kind == "changelog-flush" && e.detail.starts_with("fold:"))
        .map(|e| e.day)
        .collect()
}

/// Kill a durable replay of `base` at every trigger boundary, at byte
/// offsets spread across the WAL, and inside every flush-mark frame; each
/// must recover and finish exactly like the uninterrupted run. Returns
/// the flush marks in that run's WAL.
fn crash_sweep(scenario: &Scenario, base: &SimConfig, tag: &str) -> usize {
    let until = Some(i64::from(scenario.traces.replay_start_day) + SWEPT_DAYS);

    // Golden: the uninterrupted durable run (itself proven equal to the
    // in-memory run by the test above).
    let golden_dir = ScratchDir::new(&format!("golden-{tag}"));
    let golden_cfg = base
        .clone()
        .with_durability(DurabilityConfig::new(golden_dir.path()).with_checkpoint_every(2));
    let (golden_res, golden_probes) = probed_run(scenario, &golden_cfg, until);
    let golden = golden_res.digest();
    let boundaries = u32::try_from(golden_probes.len()).unwrap();
    assert!(boundaries >= 8, "{tag}: expected 8 trigger boundaries");
    let total_wal = wal_bytes(golden_dir.path()).len() as u64;
    assert!(total_wal > 0, "{tag}: golden run wrote no WAL");

    // Kill at every trigger boundary.
    for t in 1..=boundaries {
        let scratch = ScratchDir::new(&format!("{tag}-at-trigger-{t}"));
        let cfg = base.clone().with_durability(
            DurabilityConfig::new(scratch.path())
                .with_checkpoint_every(2)
                .with_injected_crash(InjectedCrash::AtTrigger(t)),
        );
        let (res, probes) = probed_run(scenario, &cfg, until);
        assert_eq!(
            probes, golden_probes,
            "{tag}: trigger {t}: probe divergence"
        );
        assert_eq!(
            res.digest(),
            golden,
            "{tag}: trigger {t}: result divergence"
        );
    }

    // Re-encode the golden WAL's frames to locate every flush mark: a
    // trigger flush, a forced flush or a backlog fold.
    let records = scan_wal(golden_dir.path())
        .expect("scan golden WAL")
        .records;
    let mut mark_offsets = Vec::new();
    let mut frame_start = 0u64;
    for r in &records {
        let frame_len = encode_record(r.seq, &r.payload).expect("re-encode").len() as u64;
        if r.payload == WalPayload::FlushMark {
            mark_offsets.push(frame_start + frame_len / 2);
        }
        frame_start += frame_len;
    }
    assert_eq!(frame_start, total_wal, "{tag}: frames do not tile the WAL");

    // Kill mid-write at byte offsets spread across the WAL, then halfway
    // through every flush-mark frame.
    let spread = (1..=8).map(|i| i * total_wal / 9);
    for off in spread.chain(mark_offsets.iter().copied()) {
        let scratch = ScratchDir::new(&format!("{tag}-at-byte-{off}"));
        let cfg = base.clone().with_durability(
            DurabilityConfig::new(scratch.path())
                .with_checkpoint_every(2)
                .with_injected_crash(InjectedCrash::AtWalByte(off)),
        );
        let (res, probes) = probed_run(scenario, &cfg, until);
        assert_eq!(probes, golden_probes, "{tag}: byte {off}: probe divergence");
        assert_eq!(res.digest(), golden, "{tag}: byte {off}: result divergence");
    }
    mark_offsets.len()
}

#[test]
fn torn_write_recovery_is_visible_in_telemetry() {
    let scenario = Scenario::build(Scale::Tiny, 93);
    let scratch = ScratchDir::new("tele");
    let config = SimConfig::activedr(30)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_durability(
            DurabilityConfig::new(scratch.path())
                .with_checkpoint_every(2)
                // Offset 40 lands inside the first batch frame.
                .with_injected_crash(InjectedCrash::AtWalByte(40)),
        );
    let tele = Telemetry::on();
    let (_, _) = run_with_telemetry(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &config,
        &tele,
    );
    let report = tele.report();
    let json = report.to_json();
    let counter = |name: &str| -> u64 {
        let needle = format!("\"{name}\":");
        json.find(&needle)
            .and_then(|at| {
                let rest = &json[at + needle.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest[..end].trim().parse().ok()
            })
            .unwrap_or(0)
    };
    assert!(
        counter("wal.appends") > 0,
        "no WAL appends recorded: {json}"
    );
    assert!(counter("wal.bytes") > 0, "no WAL bytes recorded");
    assert_eq!(counter("wal.torn_writes"), 1, "torn write not counted");
    assert!(counter("recovery.recoveries") >= 1, "recovery not counted");
    assert!(counter("checkpoint.writes") >= 1, "no checkpoint counted");
}

/// A durability directory that cannot be opened (here a regular file)
/// degrades the catalog to in-memory before the first day: the replay
/// still matches the in-memory one, nothing is logged or checkpointed,
/// and the flight recorder says why, once.
#[test]
fn unopenable_wal_dir_degrades_to_in_memory() {
    let scenario = Scenario::build(Scale::Tiny, 95);
    let plain = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);
    let scratch = ScratchDir::new("degrade");
    let not_a_dir = scratch.path().join("wal-dir-is-a-file");
    std::fs::write(&not_a_dir, b"not a directory").expect("write file");
    let durable = plain
        .clone()
        .with_durability(DurabilityConfig::new(&not_a_dir));
    // The default 512-event ring would evict the run-start event before
    // a Tiny replay ends.
    let tele = Telemetry::new(&ObsConfig {
        flight_capacity: 1 << 16,
        ..ObsConfig::on()
    });
    let (degraded, _) = run_with_telemetry(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &durable,
        &tele,
    );
    let (in_memory, _) = run_until(&scenario.traces, scenario.initial_fs.clone(), &plain, None);
    assert_eq!(
        degraded.digest(),
        in_memory.digest(),
        "degraded replay differs from in-memory replay"
    );
    let report = tele.report();
    assert_eq!(report.dropped_flight_events, 0, "flight ring overflowed");
    assert_eq!(report.counter("wal.appends"), Some(0));
    assert_eq!(report.counter("checkpoint.writes"), Some(0));
    let degraded_events: Vec<&str> = report
        .flight
        .iter()
        .filter(|e| e.kind == "durable-degraded")
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(degraded_events.len(), 1, "{degraded_events:?}");
    assert!(
        degraded_events[0].starts_with("open failed"),
        "{degraded_events:?}"
    );
}

// Keep `run_until` exercised with durability on: stopping early and
// recovering the directory in a *fresh* engine run must pick up the
// durable state rather than cold-starting.
#[test]
fn reopened_directory_recovers_rather_than_cold_starts() {
    let scenario = Scenario::build(Scale::Tiny, 94);
    let start = i64::from(scenario.traces.replay_start_day);
    let scratch = ScratchDir::new("reopen");
    let config = SimConfig::activedr(30)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_durability(DurabilityConfig::new(scratch.path()).with_checkpoint_every(2));
    let (_, fs_after) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &config,
        Some(start + 15),
    );

    // The directory now holds a checkpoint + WAL tail. Recovering it
    // directly must match an index built fresh from the surviving fs.
    let ex = config.exemptions.clone();
    let recovered = recover(scratch.path(), config.delta_buffer_cap, &ex)
        .expect("recover")
        .expect("durable state present");
    let (mut rec_index, mut rec_buffer) = (recovered.index, recovered.buffer);
    rec_index.flush(&mut rec_buffer, &ex);
    let mut truth = CatalogIndex::from_fs(&fs_after, &ex);
    let diffs = diff_catalogs(rec_index.snapshot(), truth.snapshot());
    assert!(
        diffs.is_empty(),
        "recovered catalog != live namespace: {diffs:?}"
    );
}
