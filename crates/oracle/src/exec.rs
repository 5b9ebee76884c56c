//! The differential executors.
//!
//! Two levels of checking, both returning divergences as *values* so the
//! shrinker can treat failure as data:
//!
//! * [`run_fs_differential`] — replay one [`OpSequence`] against the real
//!   [`VirtualFs`] (changelog enabled, a [`CatalogIndex`] folding the
//!   deltas as it goes) and the flat [`ModelFs`] side by side, comparing
//!   per-op results and, after **every** op, byte accounting, file sets,
//!   op counters, the incremental-vs-full-scan catalog
//!   ([`diff_catalogs`]), and the model-vs-scan catalog. A second
//!   *batched* index rides along, staging the same deltas in a coalescing
//!   [`DeltaBuffer`] and folding them only at [`Op::Flush`] boundaries
//!   and at end of tape — pinning buffered application to per-delta
//!   application wherever the window happens to split. A *durable* twin
//!   write-ahead logs every batch the buffer absorbs; [`Op::CrashRecover`]
//!   drops the batched pair and rebuilds it from the on-disk checkpoint +
//!   WAL tail, asserting the recovered state matches the live one before
//!   the tape continues on it.
//! * [`run_engine_matrix`] — generate a small trace world and replay it
//!   through the engine under the full configuration matrix
//!   {FullScan, Incremental} × {telemetry off, on + catalog guard},
//!   asserting identical (timing-free) results,
//!   identical final file-system state, identical per-trigger catalogs,
//!   and a clean catalog guard. Two extra durability cells replay the
//!   Incremental configuration write-ahead logged — once uninterrupted,
//!   once killed at a trigger boundary and recovered in place — and must
//!   also land exactly on the reference cell. Every cell run under the
//!   probe also checks each trigger's activeness table against the batch
//!   evaluator, bit for bit.
//!
//! [`fuzz_one`] runs both for one seed — the unit `cargo xtask fuzz`
//! iterates.

use crate::gen::{gen_sequence, gen_traces};
use crate::model::{InjectedBug, ModelExemptions, ModelFs};
use crate::ops::{Op, OpSequence};
use activedr_core::activeness::{ActivenessEvaluator, ActivenessTable};
use activedr_core::convert;
use activedr_core::files::Catalog;
use activedr_core::policy::flt::FltPolicy;
use activedr_core::policy::{PurgeRequest, RetentionPolicy};
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::changelog::Delta;
use activedr_fs::{
    diff_catalogs, CatalogIndex, DeltaBuffer, DurabilityConfig, DurableCatalog, ExemptionList,
    InjectedCrash, Snapshot, VirtualFs,
};
use activedr_sim::{
    build_initial_fs, run_instrumented, run_with_telemetry, CatalogMode, SimConfig, StreamOptions,
    Telemetry,
};
use activedr_trace::{activity_events, TraceSet};
use serde_json::Value;
use std::collections::BTreeMap;

/// A detected disagreement. Never a panic: the fuzz loop reports it, the
/// shrinker minimizes the sequence that provoked it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the op after which the disagreement surfaced (`None` for
    /// engine-level matrix checks, which have no op tape).
    pub op_index: Option<usize>,
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "after op {i}: {}", self.detail),
            None => write!(f, "{}", self.detail),
        }
    }
}

/// Capacity the fs-level differential runs at. Large enough that nothing
/// the generator produces fills it; capacity is accounting-only anyway.
const FS_CAP: u64 = 1 << 40;

/// Monotone tag making every scratch durability directory unique, even
/// when fuzz seeds run in parallel inside one process.
static SCRATCH_TAG: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A unique scratch durability directory, removed on drop.
struct DurableScratch(std::path::PathBuf);

impl DurableScratch {
    fn new() -> Self {
        let tag = SCRATCH_TAG.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("activedr-oracle-wal-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        DurableScratch(dir)
    }
}

impl Drop for DurableScratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The durable twin riding along with the batched index in
/// [`run_fs_differential`]: every drained batch is write-ahead logged
/// before the buffer absorbs it, every [`Op::Flush`] boundary gets a
/// mark, and exemption re-seeds cut a fresh checkpoint (exemptions are
/// configuration, not logged state — nothing in the WAL can reproduce a
/// full walk under a new reservation list). [`Op::CrashRecover`] drops
/// the live pair and rebuilds it from disk; any observable difference
/// between the recovered and live pairs is the crash-safety contract
/// breaking, reported as a divergence value like every other oracle
/// finding.
struct DurableTwin {
    config: DurabilityConfig,
    handle: DurableCatalog,
    _scratch: DurableScratch,
}

impl DurableTwin {
    fn open(fs: &VirtualFs, ex: &ExemptionList) -> Result<DurableTwin, String> {
        let scratch = DurableScratch::new();
        let config = DurabilityConfig::new(&scratch.0);
        let opened = DurableCatalog::open(&config, fs, ex, usize::MAX)
            .map_err(|e| format!("durable twin open: {e}"))?;
        Ok(DurableTwin {
            config,
            handle: opened.durable,
            _scratch: scratch,
        })
    }

    fn log_batch(&mut self, deltas: &[Delta]) -> Result<(), String> {
        if deltas.is_empty() {
            return Ok(());
        }
        self.handle
            .log_batch(deltas)
            .map(|_| ())
            .map_err(|e| format!("durable twin WAL append: {e}"))
    }

    fn log_flush_mark(&mut self) -> Result<(), String> {
        self.handle
            .log_flush_mark()
            .map(|_| ())
            .map_err(|e| format!("durable twin flush mark: {e}"))
    }

    fn recheckpoint(&mut self, index: &CatalogIndex, buffer: &DeltaBuffer) -> Result<(), String> {
        self.handle
            .checkpoint_now(index, buffer)
            .map(|_| ())
            .map_err(|e| format!("durable twin re-seed checkpoint: {e}"))
    }

    /// Drop the live batched pair, recover from disk, compare every
    /// observable, and install the recovered pair as the live one.
    fn crash_recover(
        &mut self,
        fs: &VirtualFs,
        batched: &mut CatalogIndex,
        buffer: &mut DeltaBuffer,
        ex: &ExemptionList,
    ) -> Result<(), String> {
        let opened = DurableCatalog::open(&self.config, fs, ex, usize::MAX)
            .map_err(|e| format!("crash-recover reopen: {e}"))?;
        if opened.recovered.is_none() {
            return Err("crash-recover cold-started: durable state vanished".to_string());
        }
        let mut recovered_index = opened.index;
        let recovered_buffer = opened.buffer;
        if recovered_index.file_count() != batched.file_count()
            || recovered_index.total_bytes() != batched.total_bytes()
        {
            return Err(format!(
                "crash-recover accounting: recovered {} file(s)/{} B vs live {} file(s)/{} B",
                recovered_index.file_count(),
                recovered_index.total_bytes(),
                batched.file_count(),
                batched.total_bytes()
            ));
        }
        if recovered_buffer.raw_pending() != buffer.raw_pending() {
            return Err(format!(
                "crash-recover raw-pending: recovered {} vs live {}",
                recovered_buffer.raw_pending(),
                buffer.raw_pending()
            ));
        }
        let recovered_pending: Vec<&Delta> = recovered_buffer.pending_deltas().collect();
        let live_pending: Vec<&Delta> = buffer.pending_deltas().collect();
        if recovered_pending != live_pending {
            return Err(format!(
                "crash-recover pending set: recovered {} delta(s) vs live {}",
                recovered_pending.len(),
                live_pending.len()
            ));
        }
        let drift = diff_catalogs(recovered_index.snapshot(), batched.snapshot());
        if let Some(first) = drift.first() {
            return Err(format!(
                "crash-recover catalog drift ({} findings): {first}",
                drift.len()
            ));
        }
        *batched = recovered_index;
        *buffer = recovered_buffer;
        self.handle = opened.durable;
        Ok(())
    }
}

fn first_diff_line(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("{la:?} != {lb:?}");
        }
    }
    let (na, nb) = (a.lines().count(), b.lines().count());
    format!("line counts differ: {na} vs {nb}")
}

/// Project a real catalog into the id-free form the model can produce.
/// Node ids come from a free list the model cannot predict, so catalogs
/// are compared on the policy-relevant fields in file (path) order.
fn catalog_projection(catalog: &Catalog) -> String {
    let mut out = String::new();
    for uf in &catalog.users {
        out.push_str(&format!("user {}\n", uf.user.0));
        for f in &uf.files {
            out.push_str(&format!(
                "  size={} atime={} ctime={} count={} exempt={}\n",
                f.size,
                f.atime.secs(),
                f.ctime.secs(),
                f.access_count,
                f.exempt
            ));
        }
    }
    out
}

fn model_catalog_projection(model: &ModelFs, ex: &ModelExemptions) -> String {
    let mut out = String::new();
    for (user, files) in model.catalog(ex) {
        out.push_str(&format!("user {}\n", user.0));
        for f in files {
            out.push_str(&format!(
                "  size={} atime={} ctime={} count={} exempt={}\n",
                f.size,
                f.atime.secs(),
                f.ctime.secs(),
                f.access_count,
                f.exempt
            ));
        }
    }
    out
}

/// Render a file system's full state (paths + metadata), optionally
/// zeroing access counts (snapshot restores reset them by design).
fn fs_projection(fs: &VirtualFs, zero_access_counts: bool) -> String {
    let mut out = String::new();
    for (path, _, meta) in fs.iter() {
        let count = if zero_access_counts {
            0
        } else {
            meta.access_count
        };
        out.push_str(&format!(
            "{path} owner={} size={} atime={} ctime={} stripes={} count={count}\n",
            meta.owner.0,
            meta.size,
            meta.atime.secs(),
            meta.ctime.secs(),
            meta.stripes
        ));
    }
    out
}

fn model_projection(model: &ModelFs, zero_access_counts: bool) -> String {
    let mut out = String::new();
    for (path, meta) in model.entries() {
        let count = if zero_access_counts {
            0
        } else {
            meta.access_count
        };
        out.push_str(&format!(
            "{path} owner={} size={} atime={} ctime={} stripes={} count={count}\n",
            meta.owner.0,
            meta.size,
            meta.atime.secs(),
            meta.ctime.secs(),
            meta.stripes
        ));
    }
    out
}

/// Everything compared after every op of the fs-level differential.
fn compare_states(
    fs: &VirtualFs,
    index: &mut CatalogIndex,
    model: &ModelFs,
    ex_real: &ExemptionList,
    ex_model: &ModelExemptions,
) -> Result<(), String> {
    if fs.used_bytes() != model.used_bytes() {
        return Err(format!(
            "used bytes: system {} vs model {}",
            fs.used_bytes(),
            model.used_bytes()
        ));
    }
    if fs.file_count() != model.file_count() {
        return Err(format!(
            "file count: system {} vs model {}",
            fs.file_count(),
            model.file_count()
        ));
    }
    if fs.op_counts() != model.op_counts() {
        return Err(format!(
            "op counts: system {:?} vs model {:?}",
            fs.op_counts(),
            model.op_counts()
        ));
    }
    let real_files = fs_projection(fs, false);
    let model_files = model_projection(model, false);
    if real_files != model_files {
        return Err(format!(
            "file state: {}",
            first_diff_line(&real_files, &model_files)
        ));
    }
    let full_scan = fs.catalog(ex_real);
    let drift = diff_catalogs(index.snapshot(), &full_scan);
    if let Some(first) = drift.first() {
        return Err(format!(
            "incremental catalog drift ({} findings): {first}",
            drift.len()
        ));
    }
    let scan_proj = catalog_projection(&full_scan);
    let model_proj = model_catalog_projection(model, ex_model);
    if scan_proj != model_proj {
        return Err(format!(
            "catalog: {}",
            first_diff_line(&scan_proj, &model_proj)
        ));
    }
    Ok(())
}

/// Replay `seq` against the real file system and the reference model,
/// checking agreement after every op. `bug` arms a deliberate model
/// defect (self-tests).
pub fn run_fs_differential(seq: &OpSequence, bug: Option<InjectedBug>) -> Result<(), Divergence> {
    let mut fs = VirtualFs::with_capacity(FS_CAP);
    fs.enable_changelog();
    let mut ex_real = ExemptionList::new();
    let mut ex_model = ModelExemptions::new();
    let mut index = CatalogIndex::from_fs(&fs, &ex_real);
    // The batched twin: same deltas, staged through a coalescing buffer
    // and folded only at explicit flush boundaries.
    let mut batched = index.clone();
    let mut buffer = DeltaBuffer::unbounded();
    // The durable twin: the batched pair again, write-ahead logged to a
    // scratch directory so `Op::CrashRecover` can rebuild it from disk.
    let mut durable = match DurableTwin::open(&fs, &ex_real) {
        Ok(twin) => twin,
        Err(detail) => {
            return Err(Divergence {
                op_index: None,
                detail,
            })
        }
    };
    let mut model = ModelFs::with_capacity(FS_CAP);
    if let Some(bug) = bug {
        model = model.with_injected_bug(bug);
    }
    // Executor-level log of purged paths, feeding `Op::Restage`. Derived
    // from the model's victim list; any model-vs-system disagreement in
    // the victim set is caught by the state comparison at the purge op
    // itself, before a restage can consume a wrong entry.
    let mut purged_log: Vec<String> = Vec::new();

    for (i, op) in seq.0.iter().enumerate() {
        let logged = purged_log.len();
        let step = apply_op(
            op,
            &mut fs,
            &mut index,
            &mut batched,
            &mut buffer,
            &mut durable,
            &mut model,
            &mut ex_real,
            &mut ex_model,
            &mut purged_log,
        );
        if let Err(detail) = step {
            return Err(Divergence {
                op_index: Some(i),
                detail,
            });
        }
        let deltas = fs.drain_changelog();
        // Write-ahead: the batch reaches the log before the buffer
        // absorbs it, so recovery never trails the live pair.
        if let Err(detail) = durable.log_batch(&deltas) {
            return Err(Divergence {
                op_index: Some(i),
                detail,
            });
        }
        buffer.absorb(deltas.iter().cloned());
        index.apply(deltas, &ex_real);
        if let Err(detail) = compare_states(&fs, &mut index, &model, &ex_real, &ex_model) {
            return Err(Divergence {
                op_index: Some(i),
                detail,
            });
        }
        let victims = purged_log.get(logged..).unwrap_or_default();
        if let Err(detail) = compare_tombstones(op, victims, &purged_log, &fs, &model) {
            return Err(Divergence {
                op_index: Some(i),
                detail,
            });
        }
    }
    // End of tape is always a flush boundary: whatever is still pending
    // must fold to the per-op index's state.
    batched.flush(&mut buffer, &ex_real);
    if let Err(detail) = compare_batched(&mut batched, &mut index) {
        return Err(Divergence {
            op_index: None,
            detail,
        });
    }
    Ok(())
}

/// The purge records must agree at every path `op` named, and at each
/// path the op purged (`victims`).
fn compare_tombstones(
    op: &Op,
    victims: &[String],
    purged_log: &[String],
    fs: &VirtualFs,
    model: &ModelFs,
) -> Result<(), String> {
    let named: Vec<&str> = match op {
        Op::Create { path, .. }
        | Op::Read { path, .. }
        | Op::Remove { path }
        | Op::ReserveFile { path } => vec![path],
        Op::Rename { from, to } => vec![from, to],
        Op::ReserveDir { prefix } => vec![prefix],
        Op::Restage { slot, .. } => restage_path(*slot, purged_log).into_iter().collect(),
        Op::Purge { .. }
        | Op::SetCapacity { .. }
        | Op::SnapshotRoundtrip { .. }
        | Op::Flush
        | Op::CrashRecover => Vec::new(),
    };
    for path in named.into_iter().chain(victims.iter().map(String::as_str)) {
        let (real, mine) = (fs.tombstone(path), model.tombstone(path));
        if real != mine {
            return Err(format!(
                "tombstone at {path}: system {real:?} vs model {mine:?}"
            ));
        }
    }
    Ok(())
}

/// The purged path an [`Op::Restage`] slot picks: the log's entry at
/// `slot` modulo its length.
fn restage_path(slot: u64, purged_log: &[String]) -> Option<&str> {
    let len = convert::u64_from_usize(purged_log.len());
    if len == 0 {
        return None;
    }
    purged_log
        .get(convert::usize_from_u64(slot % len))
        .map(String::as_str)
}

/// At a flush boundary, the batched (coalescing-buffer) index must land
/// on exactly the per-op index's catalog and accounting.
fn compare_batched(batched: &mut CatalogIndex, per_op: &mut CatalogIndex) -> Result<(), String> {
    if batched.file_count() != per_op.file_count() || batched.total_bytes() != per_op.total_bytes()
    {
        return Err(format!(
            "batched index accounting: {} file(s)/{} B vs per-op {} file(s)/{} B",
            batched.file_count(),
            batched.total_bytes(),
            per_op.file_count(),
            per_op.total_bytes()
        ));
    }
    let drift = diff_catalogs(batched.snapshot(), per_op.snapshot());
    if let Some(first) = drift.first() {
        return Err(format!(
            "batched-vs-per-op catalog drift ({} findings): {first}",
            drift.len()
        ));
    }
    Ok(())
}

/// Apply one op to both sides, comparing the op's own outcome.
#[allow(
    clippy::too_many_arguments,
    reason = "one executor state bundle, plumbed once"
)]
fn apply_op(
    op: &Op,
    fs: &mut VirtualFs,
    index: &mut CatalogIndex,
    batched: &mut CatalogIndex,
    buffer: &mut DeltaBuffer,
    durable: &mut DurableTwin,
    model: &mut ModelFs,
    ex_real: &mut ExemptionList,
    ex_model: &mut ModelExemptions,
    purged_log: &mut Vec<String>,
) -> Result<(), String> {
    match op {
        Op::Create {
            path,
            owner,
            size,
            day,
        } => {
            let ts = Timestamp::from_days(*day);
            let real = fs.create(path, UserId(*owner), *size, ts).map(|_| ());
            let mine = model.create(path, UserId(*owner), *size, ts);
            if real != mine {
                return Err(format!("create {path}: system {real:?} vs model {mine:?}"));
            }
        }
        Op::Read { path, day } => {
            let ts = Timestamp::from_days(*day);
            let real_hit = !fs.access(path, ts).is_miss();
            let model_hit = model.access(path, ts);
            if real_hit != model_hit {
                return Err(format!(
                    "read {path}: system hit={real_hit} vs model hit={model_hit}"
                ));
            }
        }
        Op::Remove { path } => {
            let real = fs.remove(path);
            let mine = model.remove(path);
            if real != mine {
                return Err(format!("remove {path}: system {real:?} vs model {mine:?}"));
            }
        }
        Op::Rename { from, to } => {
            let real = fs.rename(from, to).map(|_| ());
            let mine = model.rename(from, to);
            if real != mine {
                return Err(format!(
                    "rename {from} -> {to}: system {real:?} vs model {mine:?}"
                ));
            }
        }
        Op::Purge { lifetime_days, day } => {
            let tc = Timestamp::from_days(*day);
            let catalog = fs.catalog(ex_real);
            let outcome = FltPolicy::days((*lifetime_days).max(1)).run(PurgeRequest {
                tc,
                catalog: &catalog,
                activeness: &ActivenessTable::new(),
                target_bytes: None,
            });
            let real_freed = fs.apply(&outcome);
            let victims = model.purge_stale(tc, (*lifetime_days).max(1), ex_model);
            let model_freed: u64 = victims.iter().map(|(_, m)| m.size).sum();
            purged_log.extend(victims.into_iter().map(|(path, _)| path));
            if real_freed != model_freed {
                return Err(format!(
                    "purge at day {day}: system freed {real_freed} vs model freed {model_freed}"
                ));
            }
        }
        Op::Restage { slot, day } => {
            if let Some(path) = restage_path(*slot, purged_log) {
                let ts = Timestamp::from_days(*day);
                let real = fs
                    .restage(path, ts)
                    .map(|(tombstone, created)| (tombstone, created.map(|_| ())));
                let mine = model.restage(path, ts);
                if real != mine {
                    return Err(format!("restage {path}: system {real:?} vs model {mine:?}"));
                }
            }
        }
        Op::SetCapacity { bytes } => {
            fs.set_capacity(*bytes);
            model.set_capacity(*bytes);
        }
        Op::SnapshotRoundtrip { day } => {
            let snap = Snapshot::capture(fs, Timestamp::from_days(*day));
            let image = snap.encode().map_err(|e| format!("snapshot encode: {e}"))?;
            let back = Snapshot::decode(&image).map_err(|e| format!("snapshot decode: {e}"))?;
            if back != snap {
                return Err("snapshot image round trip changed the snapshot".to_string());
            }
            let (restored, skipped) = back.restore();
            if skipped != 0 {
                return Err(format!(
                    "snapshot restore skipped {skipped} entries from a live capture"
                ));
            }
            // A restore resets access counts (FileMeta::new) by design, so
            // the round-trip is compared with counts zeroed on both sides.
            let live = fs_projection(fs, true);
            let back = fs_projection(&restored, true);
            if live != back {
                return Err(format!(
                    "snapshot round-trip vs live: {}",
                    first_diff_line(&live, &back)
                ));
            }
            let mine = model_projection(model, true);
            if back != mine {
                return Err(format!(
                    "snapshot round-trip vs model: {}",
                    first_diff_line(&back, &mine)
                ));
            }
        }
        Op::ReserveFile { path } => {
            ex_real.reserve_file(path);
            ex_model.reserve_file(path);
            // Reservation-list edits change exempt flags the incremental
            // index already cached, so they invalidate it — exactly as a
            // policy change forces a re-scan in changelog-driven engines.
            // The batched twin re-seeds too, and its buffered history is
            // now redundant with the fresh walk.
            *index = CatalogIndex::from_fs(fs, ex_real);
            *batched = index.clone();
            buffer.clear();
            durable.recheckpoint(batched, buffer)?;
        }
        Op::ReserveDir { prefix } => {
            ex_real.reserve_dir(prefix);
            ex_model.reserve_dir(prefix);
            *index = CatalogIndex::from_fs(fs, ex_real);
            *batched = index.clone();
            buffer.clear();
            durable.recheckpoint(batched, buffer)?;
        }
        Op::Flush => {
            // The buffer holds everything drained since the last boundary;
            // folding it here must land exactly on the per-op index. The
            // mark reaches the log first so recovery flushes at the same
            // tape position.
            durable.log_flush_mark()?;
            batched.flush(buffer, ex_real);
            compare_batched(batched, index)?;
        }
        Op::CrashRecover => {
            durable.crash_recover(fs, batched, buffer, ex_real)?;
        }
    }
    Ok(())
}

/// One cell of the engine configuration matrix.
#[derive(Debug, Clone, Copy)]
struct MatrixCell {
    catalog_mode: CatalogMode,
    telemetry: bool,
}

impl MatrixCell {
    fn label(&self) -> String {
        format!(
            "{:?}/{}",
            self.catalog_mode,
            if self.telemetry { "tele" } else { "quiet" }
        )
    }

    fn configure(&self, base: &SimConfig) -> SimConfig {
        let mut config = base.clone().with_catalog_mode(self.catalog_mode);
        if self.telemetry && self.catalog_mode == CatalogMode::Incremental {
            config = config.with_catalog_guard(base.purge_interval_days);
            // A tiny buffer bound makes forced mid-interval flushes
            // routine in this cell; the digest comparison against the
            // reference cell proves flush placement is semantically free.
            config = config.with_delta_buffer_cap(8);
        }
        config
    }
}

/// What one matrix run produced: result digest, final fs digest, and the
/// per-trigger catalog digests (day, projection) when the cell ran under
/// the instrumentation probe.
struct MatrixRun {
    label: String,
    result: String,
    final_fs: String,
    triggers: Vec<(i64, String)>,
    has_probe: bool,
    guard_divergences: Option<u64>,
    /// Telemetry-side invariant violation detected inside the cell
    /// (stream reconciliation, stream accounting); `None` when clean or
    /// when the cell ran without telemetry.
    telemetry_fault: Option<String>,
    /// The first trigger whose activeness table differs from the batch
    /// evaluator's (see [`activeness_fault`]); `None` when every table
    /// agreed or when the cell ran without the probe.
    activeness_fault: Option<String>,
}

/// In-memory JSONL sink for the telemetry matrix cells. Never panics:
/// a poisoned lock (impossible here — no panicking writer exists — but
/// the oracle must not be the thing that panics) degrades to writing
/// through the recovered guard.
#[derive(Clone, Default)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedSink {
    fn text(&self) -> String {
        let bytes = match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.0.lock() {
            Ok(mut guard) => guard.extend_from_slice(buf),
            Err(poisoned) => poisoned.into_inner().extend_from_slice(buf),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Cross-check the telemetry report against the JSONL the sink
/// received: the stream accounting must match the lines on the wire, and
/// for every counter the per-line deltas must sum exactly to the
/// cumulative value.
fn telemetry_fault(report: &activedr_sim::TelemetryReport, sink: &SharedSink) -> Option<String> {
    let text = sink.text();
    let lines_on_wire = convert::u64_from_usize(text.matches('\n').count());
    if report.stream_lines != lines_on_wire {
        return Some(format!(
            "stream accounting says {} line(s), sink received {lines_on_wire}",
            report.stream_lines
        ));
    }
    if report.stream_lines < 2 {
        return Some(format!(
            "stream produced only {} line(s), want at least meta + final",
            report.stream_lines
        ));
    }
    if report.stream_write_errors != 0 {
        return Some(format!(
            "in-memory sink reported {} write error(s)",
            report.stream_write_errors
        ));
    }
    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
    let events: Vec<Value> = match text.lines().skip(1).map(serde_json::from_str).collect() {
        Ok(events) => events,
        Err(e) => return Some(format!("stream line does not parse: {e}")),
    };
    for event in &events {
        let Some(Value::Map(counters)) = event.get("counters") else {
            return Some(format!("stream line has no counters object: {event:?}"));
        };
        for (name, delta) in counters {
            let Some(delta) = delta.as_u64() else {
                return Some(format!("stream delta of {name} is not a u64"));
            };
            let sum = sums.entry(name).or_insert(0);
            *sum = sum.saturating_add(delta);
        }
    }
    for counter in &report.counters {
        let summed = sums.remove(counter.name.as_str()).unwrap_or(0);
        if summed != counter.value {
            return Some(format!(
                "stream counter {} sums to {summed}, cumulative is {}",
                counter.name, counter.value
            ));
        }
    }
    sums.keys()
        .next()
        .map(|name| format!("stream names counter {name} the report does not know"))
}

fn run_cell(cell: MatrixCell, traces: &TraceSet, fs: VirtualFs, base: &SimConfig) -> MatrixRun {
    let config = cell.configure(base);
    if cell.telemetry {
        // The telemetry path exercises `run_with_telemetry` (no probe)
        // with a live JSONL stream attached; the per-trigger catalogs are
        // covered by the quiet runs of the same catalog mode.
        let tele = Telemetry::on();
        let sink = SharedSink::default();
        tele.attach_stream(
            Box::new(sink.clone()),
            StreamOptions {
                prom_path: None,
                every_days: 2,
            },
        );
        let (result, final_fs) = run_with_telemetry(traces, fs, &config, &tele);
        let report = tele.report();
        MatrixRun {
            label: cell.label(),
            result: result.digest(),
            final_fs: fs_projection(&final_fs, false),
            triggers: Vec::new(),
            has_probe: false,
            guard_divergences: report.counter("catalog.guard_divergences"),
            telemetry_fault: telemetry_fault(&report, &sink),
            activeness_fault: None,
        }
    } else {
        run_probed(cell.label(), traces, fs, &config)
    }
}

/// Replay `config` under the instrumentation probe, recording each
/// trigger's catalog projection and checking each trigger's activeness
/// table against the batch evaluator.
fn run_probed(label: String, traces: &TraceSet, fs: VirtualFs, config: &SimConfig) -> MatrixRun {
    let mut triggers: Vec<(i64, String)> = Vec::new();
    let mut fault: Option<String> = None;
    let (result, final_fs) = run_instrumented(traces, fs, config, None, &mut |probe| {
        triggers.push((probe.day, catalog_projection(probe.catalog)));
        if fault.is_none() {
            fault = activeness_fault(traces, config, probe.day, probe.activeness);
        }
    });
    MatrixRun {
        label,
        result: result.digest(),
        final_fs: fs_projection(&final_fs, false),
        triggers,
        has_probe: true,
        guard_divergences: None,
        telemetry_fault: None,
        activeness_fault: fault,
    }
}

/// The activeness table the engine handed the policy at the trigger on
/// `day`, against the batch evaluator over the events visible then: both
/// must list the same users, with ranks equal bit for bit. Describes the
/// first difference; `None` when they agree.
fn activeness_fault(
    traces: &TraceSet,
    config: &SimConfig,
    day: i64,
    table: &ActivenessTable,
) -> Option<String> {
    let tc = Timestamp::from_days(day);
    let events = activity_events(traces, &config.registry, tc);
    let reference = ActivenessEvaluator::new(config.registry.clone(), config.activeness).evaluate(
        tc,
        &traces.user_ids(),
        &events,
    );
    if table.len() != reference.len() {
        return Some(format!(
            "trigger-day {day}: activeness table lists {} user(s), batch {}",
            table.len(),
            reference.len()
        ));
    }
    for (user, want) in reference.iter() {
        let got = table.get(user);
        let equal = table.contains(user)
            && got.op.ln().to_bits() == want.op.ln().to_bits()
            && got.oc.ln().to_bits() == want.oc.ln().to_bits();
        if !equal {
            return Some(format!(
                "trigger-day {day}: user {user} activeness {got:?}, batch {want:?}"
            ));
        }
    }
    None
}

/// Faults a cell detects on its own, before any comparison with the
/// reference cell: catalog guard divergences, telemetry faults and
/// activeness tables that differ from the batch evaluator's.
fn check_run_faults(run: &MatrixRun, seed: u64) -> Result<(), Divergence> {
    let fault = |detail: String| Divergence {
        op_index: None,
        detail: format!("seed {seed}: {} {detail}", run.label),
    };
    if let Some(divs) = run.guard_divergences {
        if divs != 0 {
            return Err(fault(format!("reported {divs} catalog guard divergences")));
        }
    }
    if let Some(detail) = &run.telemetry_fault {
        return Err(fault(format!("telemetry fault: {detail}")));
    }
    if let Some(detail) = &run.activeness_fault {
        return Err(fault(format!("activeness differs from batch: {detail}")));
    }
    Ok(())
}

/// Replay one generated trace world through the full configuration
/// matrix, asserting every cell agrees with the reference cell
/// (FullScan / telemetry off).
pub fn run_engine_matrix(seed: u64) -> Result<(), Divergence> {
    let (traces, base) = gen_traces(seed);
    let fs0 = build_initial_fs(&traces);

    let mut cells = Vec::new();
    for catalog_mode in [CatalogMode::FullScan, CatalogMode::Incremental] {
        for telemetry in [false, true] {
            cells.push(MatrixCell {
                catalog_mode,
                telemetry,
            });
        }
    }

    let mut reference: Option<MatrixRun> = None;
    for cell in cells {
        let run = run_cell(cell, &traces, fs0.clone(), &base);
        check_run_faults(&run, seed)?;
        let Some(reference) = reference.as_ref() else {
            reference = Some(run);
            continue;
        };
        check_cell(&run, reference, seed)?;
    }
    let Some(reference) = reference else {
        return Ok(()); // unreachable: the matrix always has cells
    };

    // Durability cells: the Incremental replay again, write-ahead logged
    // to a scratch directory — once uninterrupted, once killed at the
    // second trigger boundary and recovered in place. Recovery must be
    // invisible: digest, final fs, and every per-trigger catalog land
    // exactly on the reference cell.
    for (tag, crash) in [
        ("durable", None),
        ("durable-crash", Some(InjectedCrash::AtTrigger(2))),
    ] {
        let scratch = DurableScratch::new();
        let mut dcfg = DurabilityConfig::new(&scratch.0).with_checkpoint_every(2);
        if let Some(crash) = crash {
            dcfg = dcfg.with_injected_crash(crash);
        }
        let config = base
            .clone()
            .with_catalog_mode(CatalogMode::Incremental)
            .with_durability(dcfg);
        let run = run_probed(format!("Incremental/{tag}"), &traces, fs0.clone(), &config);
        check_run_faults(&run, seed)?;
        check_cell(&run, &reference, seed)?;
    }
    Ok(())
}

/// One matrix cell against the reference cell: digest, final fs,
/// per-trigger catalogs.
fn check_cell(run: &MatrixRun, reference: &MatrixRun, seed: u64) -> Result<(), Divergence> {
    if run.result != reference.result {
        return Err(Divergence {
            op_index: None,
            detail: format!(
                "seed {seed}: result digest {} vs {}: {}",
                run.label,
                reference.label,
                first_diff_line(&run.result, &reference.result)
            ),
        });
    }
    if run.final_fs != reference.final_fs {
        return Err(Divergence {
            op_index: None,
            detail: format!(
                "seed {seed}: final fs {} vs {}: {}",
                run.label,
                reference.label,
                first_diff_line(&run.final_fs, &reference.final_fs)
            ),
        });
    }
    if let Err(detail) = compare_triggers(run, reference) {
        return Err(Divergence {
            op_index: None,
            detail: format!("seed {seed}: {detail}"),
        });
    }
    Ok(())
}

fn compare_triggers(run: &MatrixRun, reference: &MatrixRun) -> Result<(), String> {
    if !run.has_probe || !reference.has_probe {
        return Ok(()); // telemetry cells run without a probe
    }
    let ref_days: Vec<i64> = reference.triggers.iter().map(|(d, _)| *d).collect();
    let run_days: Vec<i64> = run.triggers.iter().map(|(d, _)| *d).collect();
    if ref_days != run_days {
        return Err(format!(
            "trigger days {}: {run_days:?} vs {}: {ref_days:?}",
            run.label, reference.label
        ));
    }
    for ((day, a), (_, b)) in run.triggers.iter().zip(reference.triggers.iter()) {
        if a != b {
            return Err(format!(
                "trigger-day {day} catalog {} vs {}: {}",
                run.label,
                reference.label,
                first_diff_line(a, b)
            ));
        }
    }
    Ok(())
}

/// The unit of `cargo xtask fuzz`: one seed drives one fs-level op tape
/// and one engine-level matrix replay.
pub fn fuzz_one(seed: u64) -> Result<OpSequence, (OpSequence, Divergence)> {
    let seq = gen_sequence(seed, &crate::gen::GenConfig::default());
    if let Err(d) = run_fs_differential(&seq, None) {
        return Err((seq, d));
    }
    if let Err(d) = run_engine_matrix(seed) {
        return Err((seq, d));
    }
    Ok(seq)
}
