//! The trace-driven emulation engine (§4.1.3).
//!
//! The engine restores a virtual file system from the initial snapshot,
//! replays the application-log access stream day by day, and triggers the
//! configured retention policy at the purge interval (the paper replays
//! 2016 with a 7-day trigger). Every file read against a path the virtual
//! file system no longer holds is a **file miss**, attributed to the
//! owner's activeness quadrant at the most recent evaluation.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::expect_used,
    reason = "expect sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use crate::archive::{ArchiveConfig, ArchiveStats, ArchiveTier};
use crate::incremental::IncrementalCatalog;
use crate::metrics::DailyMetrics;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::{diff_catalogs, DurabilityConfig, ExemptionList, VirtualFs};
use activedr_obs::{Counter, Histogram, Telemetry};
use activedr_trace::{activity_events, AccessKind, AccessRecord, TraceSet};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Which retention policy drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    Flt,
    ActiveDr,
    /// §2 related work: scratch-as-a-cache (evict everything idle longer
    /// than the purge interval).
    ScratchCache,
    /// §2 related work: global file-value ranking.
    ValueBased,
}

impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Flt => "FLT",
            PolicyKind::ActiveDr => "ActiveDR",
            PolicyKind::ScratchCache => "ScratchCache",
            PolicyKind::ValueBased => "ValueBased",
        }
    }
}

/// How the trigger-time catalog is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CatalogMode {
    /// Re-walk the whole namespace at every trigger — what the paper's
    /// prototype does (O(total files) per trigger).
    #[default]
    FullScan,
    /// Robinhood-style incremental catalog: the file system records a
    /// changelog and a [`activedr_fs::CatalogIndex`] folds it in
    /// O(changes), then snapshots a catalog identical to the full scan.
    Incremental,
}

/// How a missed (purged) file comes back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryModel {
    /// No recovery: a missed file stays missing (every later access
    /// misses again).
    None,
    /// Fixed re-staging delay after the miss (coarse model).
    FixedDelay(TimeDelta),
    /// Queue the retrieval on a modeled archive tier: recovery time
    /// depends on file size, stream contention and request latency
    /// (see [`crate::archive`]).
    Archive(ArchiveConfig),
}

impl Default for RecoveryModel {
    fn default() -> Self {
        RecoveryModel::FixedDelay(TimeDelta::from_days(2))
    }
}

/// Full configuration of one emulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub policy: PolicyKind,
    /// The facility's file lifetime `d` — also used as the activeness
    /// period length, as in the paper's evaluation (§4.4 varies both
    /// together as "period length").
    pub lifetime_days: u32,
    /// Days between purge triggers (paper: 7).
    pub purge_interval_days: u32,
    /// ActiveDR's purge target as a fraction of capacity that must remain
    /// *used* after the purge — the paper sets 0.5 ("50 % of the total
    /// storage capacity"). `None` disables targeting (unbounded scan).
    pub purge_target_utilization: Option<f64>,
    pub activeness: ActivenessConfig,
    pub registry: ActivityTypeRegistry,
    pub exemptions: ExemptionList,
    /// Users recover purged files by re-transmission or re-generation
    /// ("it can take hours to days for the users to recover their data",
    /// §2). See [`RecoveryModel`].
    pub recovery: RecoveryModel,
    /// Full-scan (paper-faithful) or changelog-driven catalogs.
    pub catalog_mode: CatalogMode,
    /// Debug-mode consistency guard for [`CatalogMode::Incremental`]:
    /// every this-many days (at a trigger), diff the incremental index
    /// snapshot against a fresh full scan and report divergence through
    /// the flight recorder and `catalog.guard_*` counters. Read-only —
    /// replay results are unaffected. `None` (default) disables it.
    pub catalog_guard_interval_days: Option<u32>,
    /// Coalescing delta-buffer bound for [`CatalogMode::Incremental`]:
    /// once more than this many distinct nodes are pending, the engine
    /// folds the buffer into the index early (a *forced flush*, counted
    /// by `catalog.forced_flushes`) instead of waiting for the next
    /// trigger, so a bursty trace cannot grow the pending set without
    /// limit. The bound is the only reason for a forced flush; the other
    /// early fold, of the stale backlog a scan-fallback trigger leaves
    /// behind, needs no setting and counts as `catalog.backlog_folds`.
    /// Ignored in [`CatalogMode::FullScan`].
    pub delta_buffer_cap: usize,
    /// Opt-in crash-safe persistence for [`CatalogMode::Incremental`]:
    /// drained delta batches are write-ahead logged and flush boundaries
    /// marked *before* the in-memory state changes, with a checkpoint of
    /// the `(index, buffer)` pair every N triggers, so a service death
    /// mid-replay recovers to the exact live state (see
    /// `activedr_fs::storage`). Strictly side-channel — replay results
    /// are byte-identical with durability on or off, crash or no crash.
    /// Ignored in [`CatalogMode::FullScan`]. `None` (default) keeps the
    /// catalog purely in memory.
    pub durability: Option<DurabilityConfig>,
}

impl SimConfig {
    /// The paper's FLT baseline at a given lifetime.
    pub fn flt(lifetime_days: u32) -> Self {
        SimConfig {
            policy: PolicyKind::Flt,
            ..SimConfig::base(lifetime_days)
        }
    }

    /// The paper's ActiveDR setup at a given lifetime, purging to 50 %
    /// utilization.
    pub fn activedr(lifetime_days: u32) -> Self {
        SimConfig {
            policy: PolicyKind::ActiveDr,
            ..SimConfig::base(lifetime_days)
        }
    }

    /// §2 scratch-as-a-cache baseline (lifetime parameter ignored by the
    /// policy itself; the eviction window is the purge interval).
    pub fn scratch_cache() -> Self {
        SimConfig {
            policy: PolicyKind::ScratchCache,
            ..SimConfig::base(7)
        }
    }

    /// §2 value-based baseline at the same 50 % utilization target as
    /// ActiveDR.
    pub fn value_based(lifetime_days: u32) -> Self {
        SimConfig {
            policy: PolicyKind::ValueBased,
            ..SimConfig::base(lifetime_days)
        }
    }

    fn base(lifetime_days: u32) -> Self {
        assert!(lifetime_days > 0);
        SimConfig {
            policy: PolicyKind::Flt,
            lifetime_days,
            purge_interval_days: 7,
            purge_target_utilization: Some(0.5),
            activeness: ActivenessConfig::year_window(lifetime_days),
            registry: ActivityTypeRegistry::paper_default(),
            exemptions: ExemptionList::new(),
            recovery: RecoveryModel::default(),
            catalog_mode: CatalogMode::default(),
            catalog_guard_interval_days: None,
            delta_buffer_cap: 1 << 16,
            durability: None,
        }
    }

    pub fn with_exemptions(mut self, exemptions: ExemptionList) -> Self {
        self.exemptions = exemptions;
        self
    }

    pub fn with_catalog_mode(mut self, mode: CatalogMode) -> Self {
        self.catalog_mode = mode;
        self
    }

    pub fn with_catalog_guard(mut self, interval_days: u32) -> Self {
        self.catalog_guard_interval_days = Some(interval_days);
        self
    }

    pub fn with_delta_buffer_cap(mut self, cap: usize) -> Self {
        self.delta_buffer_cap = cap;
        self
    }

    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }
}

/// Diagnostics from one retention trigger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetentionEvent {
    pub day: i64,
    pub used_before: u64,
    pub used_after: u64,
    pub target_bytes: Option<u64>,
    pub target_met: bool,
    pub purged_files: u64,
    pub purged_bytes: u64,
    pub users_affected: usize,
    /// The users who lost the most bytes at this trigger (top 5), for the
    /// administrator digest.
    pub top_losers: Vec<(UserId, u64)>,
    pub breakdown: RetentionBreakdown,
    pub group_scans: Vec<GroupScan>,
    /// Fig. 12b probes, microseconds.
    pub eval_micros: u64,
    pub scan_micros: u64,
    pub decision_micros: u64,
    pub apply_micros: u64,
}

/// The outcome of a full emulation run.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SimResult {
    pub policy: String,
    pub lifetime_days: u32,
    pub capacity: u64,
    pub daily: Vec<DailyMetrics>,
    pub retentions: Vec<RetentionEvent>,
    pub final_used: u64,
    pub final_files: u64,
    /// Quadrant of each user at the final activeness evaluation.
    pub final_quadrants: HashMap<UserId, Quadrant>,
    /// Archive-tier retrieval statistics (populated when
    /// [`RecoveryModel::Archive`] drives recovery).
    pub archive: Option<ArchiveStats>,
}

impl SimResult {
    pub fn total_misses(&self) -> u64 {
        self.daily.iter().map(|d| d.misses).sum()
    }

    pub fn total_reads(&self) -> u64 {
        self.daily.iter().map(|d| d.reads).sum()
    }

    pub fn misses_by_quadrant(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for d in &self.daily {
            for (acc, m) in out.iter_mut().zip(d.misses_by_quadrant.iter()) {
                *acc += m;
            }
        }
        out
    }

    pub fn total_purged_bytes(&self) -> u64 {
        self.retentions.iter().map(|r| r.purged_bytes).sum()
    }

    /// Total re-transmission traffic users paid to recover purged files —
    /// the §2 I/O burden that disqualifies scratch-as-a-cache.
    pub fn total_restage_bytes(&self) -> u64 {
        self.daily.iter().map(|d| d.restage_bytes).sum()
    }

    pub fn total_restages(&self) -> u64 {
        self.daily.iter().map(|d| d.restages).sum()
    }

    /// Timing-free digest: every deterministic field, with the wall-clock
    /// probes (`RetentionEvent::*_micros`) zeroed and the final quadrant
    /// map in user order. Two replays that made the same decisions digest
    /// equal.
    pub fn digest(&self) -> String {
        let mut out = format!(
            "policy={} lifetime={} capacity={}\n",
            self.policy, self.lifetime_days, self.capacity
        );
        for d in &self.daily {
            out.push_str(&format!("daily {d:?}\n"));
        }
        for ev in &self.retentions {
            let ev = RetentionEvent {
                eval_micros: 0,
                scan_micros: 0,
                decision_micros: 0,
                apply_micros: 0,
                ..ev.clone()
            };
            out.push_str(&format!("retention {ev:?}\n"));
        }
        out.push_str(&format!(
            "final_used={} final_files={}\n",
            self.final_used, self.final_files
        ));
        let mut quadrants: Vec<_> = self.final_quadrants.iter().collect();
        quadrants.sort_by_key(|(u, _)| **u);
        for (u, q) in quadrants {
            out.push_str(&format!("quadrant {} {q:?}\n", u.0));
        }
        out.push_str(&format!("archive {:?}\n", self.archive));
        out
    }
}

/// Build the initial virtual file system from a trace bundle. The capacity
/// is the total synthesized size of the initial snapshot, exactly as the
/// paper defines it (§4.1.3).
pub fn build_initial_fs(traces: &TraceSet) -> VirtualFs {
    let total: u64 = traces.initial_files.iter().map(|f| f.size).sum();
    let mut fs = VirtualFs::with_capacity(total);
    for f in &traces.initial_files {
        let meta = activedr_fs::FileMeta::new(f.owner, f.size, f.atime)
            .with_ctime(f.created)
            .with_stripes(activedr_fs::recommended_stripes(f.size));
        fs.insert_meta(&f.path, meta)
            .expect("initial snapshot contains conflicting paths");
    }
    fs
}

/// Apply the pre-replay FLT pass: the paper's initial snapshot "has already
/// been a result of the 90-day FLT data retention", so scenario setups run
/// one unbounded FLT-90 purge before replay begins.
pub fn pre_purge_flt(fs: &mut VirtualFs, at: Timestamp, lifetime_days: u32) -> u64 {
    let catalog = fs.catalog(&ExemptionList::new());
    let table = ActivenessTable::new();
    let outcome = FltPolicy::days(lifetime_days).run(PurgeRequest {
        tc: at,
        catalog: &catalog,
        activeness: &table,
        target_bytes: None,
    });
    fs.apply(&outcome)
}

/// Run one full emulation over the whole replay window.
pub fn run(traces: &TraceSet, fs: VirtualFs, config: &SimConfig) -> SimResult {
    run_until(traces, fs, config, None).0
}

/// Run the emulation, optionally stopping at `until_day` (exclusive), and
/// hand back the virtual file system state — used by the snapshot
/// experiments (Figs. 9-11) that dissect the state at a specific date.
pub fn run_until(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    until_day: Option<i64>,
) -> (SimResult, VirtualFs) {
    run_instrumented(traces, fs, config, until_day, &mut |_| {})
}

/// Everything a [`run_instrumented`] probe sees at one retention trigger:
/// the activeness table and the catalog the policy consumed (the catalog
/// built by whichever [`CatalogMode`] is configured), the recorded event
/// when the trigger actually purged (`None` when a targeted policy skipped
/// below-target), and the post-purge file system.
pub struct TriggerProbe<'a> {
    pub day: i64,
    pub activeness: &'a ActivenessTable,
    pub catalog: &'a Catalog,
    pub event: Option<&'a RetentionEvent>,
    pub fs: &'a VirtualFs,
}

/// [`run_until`] with a probe fired at *every* retention trigger —
/// including the skipped ones — exposing the trigger-time catalog, the
/// recorded event and the post-purge file system. This is the hook for
/// weekly-snapshot capture and audit trails; the catalog-equivalence
/// tests use it to compare [`CatalogMode`]s trigger by trigger.
pub fn run_instrumented(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    until_day: Option<i64>,
    probe: &mut dyn FnMut(TriggerProbe<'_>),
) -> (SimResult, VirtualFs) {
    run_engine(traces, fs, config, until_day, probe, &Telemetry::off())
}

/// Run one full emulation recording into a caller-owned [`Telemetry`]
/// instance, so the caller can snapshot a [`activedr_obs::TelemetryReport`]
/// afterwards (the CLI's `--telemetry` path). The passed handle decides
/// whether anything is recorded. Telemetry is strictly observational: the
/// returned `SimResult` is byte-identical to a [`run`] without it.
pub fn run_with_telemetry(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    tele: &Telemetry,
) -> (SimResult, VirtualFs) {
    run_engine(traces, fs, config, None, &mut |_| {}, tele)
}

/// Telemetry the engine touches: the handle itself, for spans, gauges and
/// flight events, plus the counters and histograms resolved once up front
/// so the replay loop never does a name lookup. The engine's helpers take
/// it as their one context argument.
///
/// The incremental catalog's fold paths each have a counter: a trigger
/// that walks instead of flushing is a `catalog.scan_fallbacks`; an early
/// fold is a `catalog.forced_flushes` when the buffer overran
/// [`SimConfig::delta_buffer_cap`], or a `catalog.backlog_folds` when a
/// fallback trigger left a stale backlog (so `backlog_folds ≤
/// scan_fallbacks`).
pub(crate) struct EngineMetrics {
    pub(crate) tele: Telemetry,
    reads: Counter,
    misses: Counter,
    writes: Counter,
    restages_enqueued: Counter,
    restages_completed: Counter,
    restage_bytes: Counter,
    purged_files: Counter,
    purged_bytes: Counter,
    triggers_fired: Counter,
    triggers_skipped: Counter,
    pub(crate) changelog_deltas: Counter,
    pub(crate) forced_flushes: Counter,
    pub(crate) backlog_folds: Counter,
    pub(crate) scan_fallbacks: Counter,
    guard_checks: Counter,
    guard_divergences: Counter,
    pub(crate) wal_appends: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) wal_torn_writes: Counter,
    pub(crate) checkpoint_writes: Counter,
    pub(crate) checkpoint_bytes: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) replayed_records: Counter,
    purged_bytes_per_trigger: Histogram,
    trigger_micros: Histogram,
    /// Per-trigger activeness classification time (`core::classify` via
    /// the evaluator) — the paper's Fig. 12b "evaluation" phase.
    eval_micros: Histogram,
    /// Per-trigger ranking + purge decision time (`core::rank` /
    /// `core::policy`).
    decision_micros: Histogram,
    /// Durable-catalog checkpoint write time.
    pub(crate) checkpoint_micros: Histogram,
}

impl EngineMetrics {
    /// Purged-bytes-per-trigger buckets: 1 MiB to 1 TiB in x16 steps.
    const BYTES_BOUNDS: [u64; 6] = [1 << 20, 1 << 24, 1 << 28, 1 << 32, 1 << 36, 1 << 40];
    /// Trigger-latency buckets: 10 µs to 10 s in decades.
    const MICROS_BOUNDS: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

    pub(crate) fn new(tele: &Telemetry) -> Self {
        EngineMetrics {
            tele: tele.clone(),
            reads: tele.counter("replay.reads"),
            misses: tele.counter("replay.misses"),
            writes: tele.counter("replay.writes"),
            restages_enqueued: tele.counter("recovery.restages_enqueued"),
            restages_completed: tele.counter("recovery.restages_completed"),
            restage_bytes: tele.counter("recovery.restage_bytes"),
            purged_files: tele.counter("retention.purged_files"),
            purged_bytes: tele.counter("retention.purged_bytes"),
            triggers_fired: tele.counter("retention.triggers_fired"),
            triggers_skipped: tele.counter("retention.triggers_skipped"),
            changelog_deltas: tele.counter("catalog.changelog_deltas"),
            forced_flushes: tele.counter("catalog.forced_flushes"),
            backlog_folds: tele.counter("catalog.backlog_folds"),
            scan_fallbacks: tele.counter("catalog.scan_fallbacks"),
            guard_checks: tele.counter("catalog.guard_checks"),
            guard_divergences: tele.counter("catalog.guard_divergences"),
            wal_appends: tele.counter("wal.appends"),
            wal_bytes: tele.counter("wal.bytes"),
            wal_torn_writes: tele.counter("wal.torn_writes"),
            checkpoint_writes: tele.counter("checkpoint.writes"),
            checkpoint_bytes: tele.counter("checkpoint.bytes"),
            recoveries: tele.counter("recovery.recoveries"),
            replayed_records: tele.counter("recovery.replayed_records"),
            purged_bytes_per_trigger: tele
                .histogram("retention.purged_bytes_per_trigger", &Self::BYTES_BOUNDS),
            trigger_micros: tele.histogram("retention.trigger_micros", &Self::MICROS_BOUNDS),
            eval_micros: tele.histogram("activeness.eval_micros", &Self::MICROS_BOUNDS),
            decision_micros: tele.histogram("policy.decision_micros", &Self::MICROS_BOUNDS),
            checkpoint_micros: tele.histogram("checkpoint.duration_micros", &Self::MICROS_BOUNDS),
        }
    }

    /// Account one fired trigger.
    fn record_retention(&self, policy: PolicyKind, r: &RetentionEvent) {
        self.triggers_fired.inc();
        self.eval_micros.record(r.eval_micros);
        self.decision_micros.record(r.decision_micros);
        self.purged_files.add(r.purged_files);
        self.purged_bytes.add(r.purged_bytes);
        self.purged_bytes_per_trigger.record(r.purged_bytes);
        self.trigger_micros
            .record(r.eval_micros + r.scan_micros + r.decision_micros + r.apply_micros);
        self.tele.flight(r.day, "trigger", || {
            format!(
                "{}: purged {} file(s) / {} B, target_met={}",
                policy.name(),
                r.purged_files,
                r.purged_bytes,
                r.target_met
            )
        });
    }

    /// End-of-run state gauges, sampled from deterministic replay facts.
    fn record_final_state(&self, fs: &VirtualFs) {
        let ops = fs.op_counts();
        let tele = &self.tele;
        tele.gauge("fs.ops_creates").set_u64(ops.creates);
        tele.gauge("fs.ops_removes").set_u64(ops.removes);
        tele.gauge("fs.ops_accesses").set_u64(ops.accesses);
        tele.gauge("fs.ops_hits").set_u64(ops.hits);
        tele.gauge("fs.ops_misses").set_u64(ops.misses);
        tele.gauge("fs.ops_renames").set_u64(ops.renames);
        tele.gauge("fs.final_files")
            .set_u64(convert::u64_from_usize(fs.file_count()));
        tele.gauge("fs.final_used_bytes").set_u64(fs.used_bytes());
    }
}

/// When a restage requested at a miss lands.
enum RestageDelay {
    Fixed(TimeDelta),
    Archive(ArchiveTier),
}

/// Miss recovery, resolved once from a [`RecoveryModel`] other than
/// `None`: metadata of purged files so a miss can recover them, the queue
/// of pending recoveries, and the in-flight path set mirroring the queue
/// (O(1) duplicate checks in the replay hot loop).
struct Restager {
    delay: RestageDelay,
    purged_meta: HashMap<String, (UserId, u64)>,
    queue: Vec<(Timestamp, String)>,
    inflight: HashSet<String>,
}

impl Restager {
    fn new(model: RecoveryModel) -> Option<Self> {
        let delay = match model {
            RecoveryModel::None => return None,
            RecoveryModel::FixedDelay(delay) => RestageDelay::Fixed(delay),
            RecoveryModel::Archive(cfg) => RestageDelay::Archive(ArchiveTier::new(cfg)),
        };
        Some(Restager {
            delay,
            purged_meta: HashMap::new(),
            queue: Vec::new(),
            inflight: HashSet::new(),
        })
    }

    /// Complete the recoveries due by `day`, accounting the
    /// re-transmission traffic. Returns the files and bytes restaged.
    fn complete_due(&mut self, day: i64, fs: &mut VirtualFs, cx: &EngineMetrics) -> (u64, u64) {
        let now = Timestamp::from_days(day);
        let (mut files, mut bytes) = (0u64, 0u64);
        let mut i = 0;
        while let Some((ready, _)) = self.queue.get(i) {
            if *ready > now {
                i += 1;
                continue;
            }
            let (ts, path) = self.queue.swap_remove(i);
            self.inflight.remove(&path);
            if fs.exists(&path) {
                // The user re-wrote the file while the restage was in
                // flight; landing it anyway would clobber the fresh file
                // with stale owner/size and a backdated atime. Drop the
                // restage and its stale metadata.
                self.purged_meta.remove(&path);
            } else if let Some((owner, size)) = self.purged_meta.remove(&path) {
                if fs.create(&path, owner, size, ts).is_ok() {
                    files += 1;
                    bytes += size;
                    cx.restages_completed.inc();
                    cx.restage_bytes.add(size);
                    cx.tele
                        .flight(day, "restage-complete", || format!("{path} ({size} B)"));
                }
            }
        }
        (files, bytes)
    }

    /// Remember what a purge removes, so a later miss can restage it.
    /// Call before the outcome is applied: paths resolve only while their
    /// nodes exist.
    fn note_purged(&mut self, fs: &VirtualFs, outcome: &RetentionOutcome) {
        self.purged_meta
            .extend(outcome.purged.iter().filter_map(|p| {
                let path = fs.path_of(activedr_fs::NodeId(convert::u32_from_u64(p.id.0)));
                (!path.is_empty()).then_some((path, (p.user, p.size)))
            }));
    }

    /// A read of `a.path` missed: if it was purged, the user notices the
    /// loss and re-stages the file from archive or regeneration.
    fn on_miss(&mut self, a: &AccessRecord, day: i64, cx: &EngineMetrics) {
        if self.inflight.contains(&a.path) {
            return;
        }
        let Some(&(_, size)) = self.purged_meta.get(&a.path) else {
            return;
        };
        let ready = match &mut self.delay {
            RestageDelay::Fixed(delay) => a.ts + *delay,
            RestageDelay::Archive(tier) => tier.request(a.ts, size),
        };
        self.inflight.insert(a.path.clone());
        self.queue.push((ready, a.path.clone()));
        cx.restages_enqueued.inc();
        cx.tele.flight(day, "restage-enqueue", || a.path.clone());
    }

    /// A write supersedes any purged version of `path`: a later miss must
    /// not restage the obsolete metadata over the fresh file.
    fn on_write(&mut self, path: &str) {
        self.purged_meta.remove(path);
    }

    fn archive_stats(&self) -> Option<ArchiveStats> {
        match &self.delay {
            RestageDelay::Fixed(_) => None,
            RestageDelay::Archive(tier) => Some(tier.stats()),
        }
    }
}

/// Bytes a trigger must free. FLT and scratch-as-a-cache purge by their
/// rule alone; the targeted policies purge down to the utilization goal.
fn purge_target(config: &SimConfig, fs: &VirtualFs) -> Option<u64> {
    match config.policy {
        PolicyKind::Flt | PolicyKind::ScratchCache => None,
        PolicyKind::ActiveDr | PolicyKind::ValueBased => config.purge_target_utilization.map(|u| {
            let allowed = convert::trunc_to_u64(convert::approx_f64(fs.capacity()) * u);
            fs.used_bytes().saturating_sub(allowed)
        }),
    }
}

/// Run the configured retention policy on one trigger's request.
fn run_policy(config: &SimConfig, request: PurgeRequest<'_>) -> RetentionOutcome {
    match config.policy {
        PolicyKind::Flt => FltPolicy::days(config.lifetime_days).run(request),
        PolicyKind::ActiveDr => {
            ActiveDrPolicy::new(RetentionConfig::new(config.lifetime_days)).run(request)
        }
        // Scratch-as-a-cache keeps only files used within the current
        // purge interval: FLT with that interval as the lifetime.
        PolicyKind::ScratchCache => FltPolicy::days(config.purge_interval_days).run(request),
        PolicyKind::ValueBased => ValueBasedPolicy::default().run(request),
    }
}

/// The users who lost the most bytes at one trigger (top 5).
fn top_losers(outcome: &RetentionOutcome) -> Vec<(UserId, u64)> {
    let mut losers: Vec<(UserId, u64)> = outcome.purged_bytes_by_user().into_iter().collect();
    losers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    losers.truncate(5);
    losers
}

/// Debug-mode consistency guard (KNOWN_FAILURES changelog-drift watch
/// item): re-walk the namespace and diff it against the incremental
/// snapshot. Read-only — it can report drift but never alters the replay.
fn guard_catalog(
    catalog: &Catalog,
    fs: &VirtualFs,
    exemptions: &ExemptionList,
    day: i64,
    cx: &EngineMetrics,
) {
    let _guard_span = cx.tele.span("guard");
    let full = fs.catalog(exemptions);
    let diffs = diff_catalogs(catalog, &full);
    cx.guard_checks.inc();
    if diffs.is_empty() {
        cx.tele.flight(day, "catalog-guard", || {
            format!("ok: index matches full scan ({} files)", full.total_files())
        });
    } else {
        cx.guard_divergences
            .add(convert::u64_from_usize(diffs.len()));
        cx.tele.flight(day, "catalog-guard", || {
            let head: Vec<String> = diffs.iter().take(5).cloned().collect();
            format!(
                "DIVERGENCE: {} difference(s): {}",
                diffs.len(),
                head.join("; ")
            )
        });
    }
}

fn run_engine(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    until_day: Option<i64>,
    probe: &mut dyn FnMut(TriggerProbe<'_>),
    tele: &Telemetry,
) -> (SimResult, VirtualFs) {
    let mut fs = fs;
    let cx = EngineMetrics::new(tele);
    // Post-mortem context: if anything below panics, dump the flight
    // recorder before unwinding out of the engine.
    let _unwind_dump = tele.unwind_dump();
    let _run_span = tele.span("run");

    let replay_start = i64::from(traces.replay_start_day);
    let horizon = until_day
        .map(|d| d.min(i64::from(traces.horizon_days)))
        .unwrap_or(i64::from(traces.horizon_days));

    let mut result = SimResult {
        policy: config.policy.name().to_string(),
        lifetime_days: config.lifetime_days,
        capacity: fs.capacity(),
        ..Default::default()
    };

    // Activeness evaluation also refreshes each user's quadrant for miss
    // attribution; the initial one covers the days before the first
    // retention trigger. It also feeds the evaluator the whole event
    // history, once, in `activity_events` order: each window sums its
    // impacts in arrival order, so that order keeps every table bitwise
    // equal to the batch evaluator's.
    let mut quadrant_of: HashMap<UserId, Quadrant> = HashMap::new();
    let mut evaluator: Option<StreamingEvaluator> = None;
    let mut evaluate = |tc, quadrant_of: &mut HashMap<UserId, Quadrant>| {
        let _eval_span = tele.span("evaluate");
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock runtime reported alongside results"
        )]
        let start = Instant::now();
        let evaluator = evaluator.get_or_insert_with(|| {
            let mut evaluator = StreamingEvaluator::new(config.registry.clone(), config.activeness);
            for user in traces.user_ids() {
                evaluator.register_user(user);
            }
            let history = Timestamp::from_days(horizon);
            evaluator.observe_all(activity_events(traces, &config.registry, history));
            evaluator
        });
        let table = evaluator.evaluate(tc);
        for (u, a) in table.iter() {
            quadrant_of.insert(u, Quadrant::of(a));
        }
        (table, convert::u64_from_micros(start.elapsed().as_micros()))
    };
    evaluate(Timestamp::from_days(replay_start), &mut quadrant_of);

    // `None` in FullScan mode, which walks the namespace at every trigger.
    let mut incremental = match config.catalog_mode {
        CatalogMode::FullScan => None,
        CatalogMode::Incremental => {
            Some(IncrementalCatalog::open(&mut fs, config, replay_start, &cx))
        }
    };
    let mut restager = Restager::new(config.recovery);
    let mut access_idx = 0usize;
    // Day of the last catalog guard check.
    let mut last_guard_day = replay_start;

    for day in replay_start..horizon {
        let _day_span = tele.span("day");
        let (restages_today, restage_bytes_today) = match restager.as_mut() {
            Some(restager) => {
                let _restage_span = tele.span("restage_drain");
                restager.complete_due(day, &mut fs, &cx)
            }
            None => (0, 0),
        };
        // Retention triggers at the start of the day, every interval,
        // beginning one interval into the replay.
        let days_in = day - replay_start;
        let is_trigger = days_in > 0 && days_in % i64::from(config.purge_interval_days) == 0;
        if is_trigger {
            let _trigger_span = tele.span("trigger");
            if let Some(incremental) = incremental.as_mut() {
                incremental.crash_if_injected(&fs, day, &cx);
            }
            let tc = Timestamp::from_days(day);
            let (table, eval_micros) = evaluate(tc, &mut quadrant_of);

            #[expect(
                clippy::disallowed_methods,
                reason = "phase timing for the performance report"
            )]
            let scan_start = Instant::now();
            let catalog_span = tele.span("catalog");
            let full_catalog;
            let catalog = match incremental
                .as_mut()
                .and_then(|incremental| incremental.trigger_catalog(&mut fs, day, &cx))
            {
                Some(catalog) => catalog,
                None => {
                    full_catalog = fs.catalog(&config.exemptions);
                    &full_catalog
                }
            };
            drop(catalog_span);
            let scan_micros = convert::u64_from_micros(scan_start.elapsed().as_micros());

            if let (CatalogMode::Incremental, Some(interval)) =
                (config.catalog_mode, config.catalog_guard_interval_days)
            {
                if day - last_guard_day >= i64::from(interval) {
                    last_guard_day = day;
                    guard_catalog(catalog, &fs, &config.exemptions, day, &cx);
                }
            }

            let target_bytes = purge_target(config, &fs);
            // Targeted policies skip the scan entirely when utilization is
            // already at or below the goal.
            let skip = target_bytes == Some(0);
            if skip {
                cx.triggers_skipped.inc();
                tele.flight(day, "trigger-skip", || {
                    "utilization already at or below target".to_string()
                });
            } else {
                let used_before = fs.used_bytes();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "phase timing for the performance report"
                )]
                let decision_start = Instant::now();
                let decide_span = tele.span("decide");
                let request = PurgeRequest {
                    tc,
                    catalog,
                    activeness: &table,
                    target_bytes,
                };
                let outcome = run_policy(config, request);
                drop(decide_span);
                let decision_micros =
                    convert::u64_from_micros(decision_start.elapsed().as_micros());

                #[expect(
                    clippy::disallowed_methods,
                    reason = "phase timing for the performance report"
                )]
                let apply_start = Instant::now();
                let apply_span = tele.span("apply");
                if let Some(restager) = restager.as_mut() {
                    restager.note_purged(&fs, &outcome);
                }
                fs.apply(&outcome);
                drop(apply_span);
                let apply_micros = convert::u64_from_micros(apply_start.elapsed().as_micros());

                let breakdown_span = tele.span("breakdown");
                let top_losers = top_losers(&outcome);
                let breakdown = RetentionBreakdown::compute(catalog, &table, &outcome);
                drop(breakdown_span);
                let event = RetentionEvent {
                    day,
                    used_before,
                    used_after: fs.used_bytes(),
                    target_bytes,
                    target_met: outcome.target_met,
                    purged_files: outcome.purged_files(),
                    purged_bytes: outcome.purged_bytes,
                    users_affected: outcome.users_affected(),
                    top_losers,
                    breakdown,
                    group_scans: outcome.group_scans.clone(),
                    eval_micros,
                    scan_micros,
                    decision_micros,
                    apply_micros,
                };
                cx.record_retention(config.policy, &event);
                result.retentions.push(event);
            }
            probe(TriggerProbe {
                day,
                activeness: &table,
                catalog,
                event: if skip { None } else { result.retentions.last() },
                fs: &fs,
            });
        }
        if is_trigger {
            // Checkpoints land in `day` self time, after the trigger span.
            if let Some(incremental) = incremental.as_mut() {
                incremental.checkpoint_if_due(day, &cx);
            }
            // Close a trigger-granularity telemetry window (fired or
            // skipped), capturing the adaptive-trigger gauges set above.
            tele.sample_trigger(day);
        }

        // Replay the day's accesses.
        let mut daily = DailyMetrics::new(day);
        daily.restages = restages_today;
        daily.restage_bytes = restage_bytes_today;
        let day_end = Timestamp::from_days(day + 1);
        let _replay_span = tele.span("replay_accesses");
        while access_idx < traces.accesses.len() && traces.accesses[access_idx].ts < day_end {
            let a = &traces.accesses[access_idx];
            access_idx += 1;
            if a.ts < Timestamp::from_days(day) {
                continue; // before replay window start (defensive)
            }
            match a.kind {
                AccessKind::Read => {
                    daily.reads += 1;
                    cx.reads.inc();
                    if fs.access(&a.path, a.ts).is_miss() {
                        daily.misses += 1;
                        cx.misses.inc();
                        let q = quadrant_of
                            .get(&a.user)
                            .copied()
                            .unwrap_or(Quadrant::BothActive); // new users are neutral
                        daily.misses_by_quadrant[q.index()] += 1;
                        if let Some(restager) = restager.as_mut() {
                            restager.on_miss(a, day, &cx);
                        }
                    }
                }
                AccessKind::Write { size } => {
                    daily.writes += 1;
                    cx.writes.inc();
                    // Overwrites and fresh creates both succeed; conflicts
                    // (a path shadowing a directory) are ignored like any
                    // failed write in the paper's emulator.
                    if fs.create(&a.path, a.user, size, a.ts).is_ok() {
                        if let Some(restager) = restager.as_mut() {
                            restager.on_write(&a.path);
                        }
                    }
                }
            }
        }
        // End-of-day changelog staging, inside the `replay_accesses` span.
        if let Some(incremental) = incremental.as_mut() {
            incremental.stage_day(&mut fs, day, &cx);
        }
        result.daily.push(daily);
        // Close a day-granularity telemetry window.
        tele.sample_day(day);
    }

    if incremental.is_some() {
        fs.disable_changelog();
    }
    result.final_used = fs.used_bytes();
    result.final_files = convert::u64_from_usize(fs.file_count());
    result.final_quadrants = quadrant_of;
    result.archive = restager.and_then(|r| r.archive_stats());

    cx.record_final_state(&fs);
    // Final sample: closes the stream's delta chain, so the per-line
    // deltas reconcile exactly with the cumulative counters.
    tele.sample_final(horizon);

    (result, fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_trace::{generate, SynthConfig};

    fn scenario() -> (TraceSet, VirtualFs) {
        let traces = generate(&SynthConfig::tiny(21));
        let mut fs = build_initial_fs(&traces);
        pre_purge_flt(&mut fs, traces.replay_start(), 90);
        (traces, fs)
    }

    #[test]
    fn build_initial_fs_matches_seeds() {
        let traces = generate(&SynthConfig::tiny(21));
        let fs = build_initial_fs(&traces);
        assert_eq!(fs.file_count(), traces.initial_files.len());
        assert_eq!(
            fs.used_bytes(),
            traces.initial_files.iter().map(|f| f.size).sum::<u64>()
        );
        assert_eq!(fs.capacity(), fs.used_bytes());
    }

    #[test]
    fn pre_purge_removes_only_stale_files() {
        let traces = generate(&SynthConfig::tiny(21));
        let mut fs = build_initial_fs(&traces);
        let at = traces.replay_start();
        let before = fs.file_count();
        pre_purge_flt(&mut fs, at, 90);
        assert!(fs.file_count() < before, "expected some stale files purged");
        // Every survivor was accessed within 90 days of replay start.
        for (_, _, meta) in fs.iter() {
            assert!(at.age_since(meta.atime) <= TimeDelta::from_days(90));
        }
    }

    #[test]
    fn flt_run_produces_daily_series_and_retentions() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::flt(90));
        let replay_days = convert::usize_from_u32(traces.horizon_days - traces.replay_start_day);
        assert_eq!(result.daily.len(), replay_days);
        // Weekly trigger -> one event per full week of replay.
        let expected_retentions = (replay_days - 1) / 7;
        assert_eq!(result.retentions.len(), expected_retentions);
        assert_eq!(result.policy, "FLT");
        assert!(result.total_reads() > 0);
    }

    #[test]
    fn activedr_run_skips_retention_below_target() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::activedr(90));
        // ActiveDR only fires when utilization exceeds the 50 % target, so
        // it must not fire more often than FLT.
        let (traces2, fs2) = scenario();
        let flt = run(&traces2, fs2, &SimConfig::flt(90));
        assert!(result.retentions.len() <= flt.retentions.len());
        for r in &result.retentions {
            assert!(r.target_bytes.unwrap() > 0);
        }
    }

    #[test]
    fn misses_attributed_to_quadrants_sum_up() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::flt(90));
        for d in &result.daily {
            assert_eq!(d.misses_by_quadrant.iter().sum::<u64>(), d.misses);
            assert!(d.misses <= d.reads);
        }
        assert_eq!(
            result.misses_by_quadrant().iter().sum::<u64>(),
            result.total_misses()
        );
    }

    #[test]
    fn byte_conservation_per_retention() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::activedr(30));
        for r in &result.retentions {
            assert_eq!(r.used_before - r.purged_bytes, r.used_after);
            assert_eq!(r.breakdown.total_purged_bytes(), r.purged_bytes);
        }
    }

    #[test]
    fn digest_ignores_timings_and_quadrant_order() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::flt(90));
        assert!(!result.retentions.is_empty());
        assert!(result.final_quadrants.len() > 1);

        let mut retimed = result.clone();
        for (ev, us) in retimed.retentions.iter_mut().zip(1u64..) {
            ev.eval_micros += us;
            ev.scan_micros += 2 * us;
            ev.decision_micros += 3 * us;
            ev.apply_micros += 4 * us;
        }
        let mut quadrants: Vec<_> = result.final_quadrants.clone().into_iter().collect();
        quadrants.sort_by_key(|(u, _)| std::cmp::Reverse(*u));
        retimed.final_quadrants = quadrants.into_iter().collect();
        assert_eq!(result.digest(), retimed.digest());

        let mut missed = result.clone();
        missed.daily[0].misses += 1;
        assert_ne!(result.digest(), missed.digest());
        let mut purged = result.clone();
        purged.retentions[0].purged_bytes += 1;
        assert_ne!(result.digest(), purged.digest());
    }

    #[test]
    fn deterministic_runs() {
        let (traces, fs) = scenario();
        let a = run(&traces, fs.clone(), &SimConfig::activedr(60));
        let b = run(&traces, fs, &SimConfig::activedr(60));
        assert_eq!(a.daily, b.daily);
        assert_eq!(a.total_purged_bytes(), b.total_purged_bytes());
    }
}
