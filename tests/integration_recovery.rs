//! Integration: the recovery (re-staging) path must never clobber user
//! data. A restage that completes after the user already re-wrote the
//! file must be dropped, and a re-created path's stale purge metadata must
//! be evicted so later misses can't resurrect obsolete state.
//!
//! The scenarios are hand-built day-precision traces, so every purge,
//! miss, write, and restage-completion lands on a known day.

use activedr_core::time::{TimeDelta, Timestamp};
use activedr_core::user::UserId;
use activedr_fs::VirtualFs;
use activedr_sim::{
    build_initial_fs, pre_purge_flt, run, run_with_telemetry, ArchiveConfig, CatalogMode,
    RecoveryModel, Scale, Scenario, SimConfig, SimResult, Telemetry,
};
use activedr_trace::{AccessKind, AccessRecord, Archetype, FileSeed, TraceSet, UserProfile};

fn day(d: i64) -> Timestamp {
    Timestamp::from_days(d)
}

fn user(id: u32) -> UserProfile {
    UserProfile {
        id: UserId(id),
        archetype: Archetype::Steady,
    }
}

fn seed_file(path: &str, owner: u32, size: u64) -> FileSeed {
    FileSeed {
        path: path.to_string(),
        owner: UserId(owner),
        size,
        created: day(0),
        atime: day(0),
    }
}

fn read(user: u32, d: i64, path: &str) -> AccessRecord {
    AccessRecord {
        user: UserId(user),
        ts: day(d),
        path: path.to_string(),
        kind: AccessKind::Read,
    }
}

fn write(user: u32, d: i64, path: &str, size: u64) -> AccessRecord {
    AccessRecord {
        user: UserId(user),
        ts: day(d),
        path: path.to_string(),
        kind: AccessKind::Write { size },
    }
}

/// FLT-5 with a weekly trigger: replay starts day 10, so the first purge
/// fires at day 17 and removes every file idle ≥ 5 days.
fn recovery_config(delay_days: i64) -> SimConfig {
    let mut cfg = SimConfig::flt(5);
    cfg.recovery = RecoveryModel::FixedDelay(TimeDelta::from_days(delay_days));
    cfg
}

fn traces(horizon: u32, accesses: Vec<AccessRecord>) -> TraceSet {
    traces_over(horizon, vec![seed_file("/u1/f", 1, 100)], accesses)
}

fn traces_over(
    horizon: u32,
    initial_files: Vec<FileSeed>,
    accesses: Vec<AccessRecord>,
) -> TraceSet {
    TraceSet {
        horizon_days: horizon,
        replay_start_day: 10,
        users: vec![user(1), user(2)],
        initial_files,
        accesses,
        ..TraceSet::default()
    }
}

/// Replay with a 2-day restage delay, returning the result, the final
/// file system and the number of restages enqueued.
fn run_counting_enqueues(traces: &TraceSet, fs: VirtualFs) -> (SimResult, VirtualFs, u64) {
    let tele = Telemetry::on();
    let (result, fs) = run_with_telemetry(traces, fs, &recovery_config(2), &tele);
    let enqueued = tele
        .report()
        .counter("recovery.restages_enqueued")
        .unwrap_or(0);
    (result, fs, enqueued)
}

/// The headline regression: purge day 17, miss day 18 queues a restage
/// due day 20, the user re-writes the file day 19. The restage must be
/// dropped — under the old engine it landed anyway, clobbering the fresh
/// 500-byte file back to the stale 100-byte purged version.
#[test]
fn completed_restage_does_not_clobber_rewritten_file() {
    let traces = traces(
        22,
        vec![
            read(1, 18, "/u1/f"),       // miss → restage queued, ready day 20
            write(1, 19, "/u1/f", 500), // user re-creates the file first
        ],
    );
    let fs = build_initial_fs(&traces);
    let (result, fs) = activedr_sim::run_until(&traces, fs, &recovery_config(2), None);

    let meta = fs.meta("/u1/f").expect("file must survive");
    assert_eq!(meta.size, 500, "restage clobbered the re-written file");
    assert_eq!(meta.owner, UserId(1));
    assert_eq!(meta.atime, day(19), "atime must be the re-write's");
    assert_eq!(result.total_restages(), 0, "restage should be dropped");
    assert_eq!(result.total_restage_bytes(), 0);
}

/// Without the intervening write the restage must still work exactly as
/// before: purged day 17, missed day 18, restaged with the purged
/// metadata on day 20.
#[test]
fn restage_still_lands_when_file_stays_missing() {
    let traces = traces(22, vec![read(1, 18, "/u1/f")]);
    let fs = build_initial_fs(&traces);
    let (result, fs) = activedr_sim::run_until(&traces, fs, &recovery_config(2), None);

    let meta = fs.meta("/u1/f").expect("restage must re-create the file");
    assert_eq!(meta.size, 100);
    assert_eq!(meta.owner, UserId(1));
    assert_eq!(result.total_restages(), 1);
    assert_eq!(result.total_restage_bytes(), 100);
}

/// Purge → re-create (by another user) → purge again → miss: the restage
/// must resurrect the *latest* purge's metadata (owner 2, 300 bytes), not
/// the first purge's (owner 1, 100 bytes).
#[test]
fn restage_uses_latest_purge_metadata_after_recreate() {
    let traces = traces(
        29,
        vec![
            write(2, 18, "/u1/f", 300), // re-created after the day-17 purge
            read(2, 25, "/u1/f"),       // misses the day-24 purge → restage
        ],
    );
    let fs = build_initial_fs(&traces);
    let (result, fs) = activedr_sim::run_until(&traces, fs, &recovery_config(2), None);

    let meta = fs.meta("/u1/f").expect("restage must re-create the file");
    assert_eq!(
        meta.owner,
        UserId(2),
        "owner must come from the second purge"
    );
    assert_eq!(meta.size, 300, "size must come from the second purge");
    assert_eq!(result.total_restages(), 1);
    assert_eq!(result.total_restage_bytes(), 300);
}

/// Repeated misses of the same purged path while a restage is in flight
/// must enqueue exactly one restage (the in-flight set, not the old
/// linear queue scan, now guards this).
#[test]
fn duplicate_misses_enqueue_one_restage() {
    let traces = traces(
        22,
        vec![
            read(1, 18, "/u1/f"),
            read(1, 18, "/u1/f"),
            read(2, 19, "/u1/f"),
        ],
    );
    let fs = build_initial_fs(&traces);
    let (result, _) = activedr_sim::run_until(&traces, fs, &recovery_config(2), None);
    assert_eq!(result.total_misses(), 3);
    assert_eq!(result.total_restages(), 1, "one restage per purged path");
    assert_eq!(result.total_restage_bytes(), 100);
}

/// A restage whose path has become a directory is dropped: `/u1/f` is
/// purged day 17, `/u1/f/g` written day 18, and the read of `/u1/f` on
/// day 19 misses a directory. The restage due day 21 cannot land, so it
/// counts nothing and drops the purge record: the read on day 22 enqueues
/// nothing.
#[test]
fn restage_onto_a_path_that_became_a_directory_is_dropped() {
    let traces = traces(
        23,
        vec![
            write(1, 18, "/u1/f/g", 50),
            read(1, 19, "/u1/f"),
            read(1, 22, "/u1/f"),
        ],
    );
    let fs = build_initial_fs(&traces);
    let (result, fs, enqueued) = run_counting_enqueues(&traces, fs);
    assert_eq!(result.total_misses(), 2);
    assert_eq!(enqueued, 1, "only the first miss finds a purge record");
    assert_eq!(result.total_restages(), 0);
    assert_eq!(result.total_restage_bytes(), 0);
    assert_eq!(fs.meta("/u1/f/g").map(|m| m.size), Some(50));
    assert!(!fs.exists("/u1/f"));
}

/// A restage whose prefix has become a file is dropped: `/u1/d/f` is
/// purged day 17, which empties `/u1/d`; `/u1/d` is written as a file day
/// 18, and the read of `/u1/d/f` on day 19 misses. The restage due day 21
/// cannot create under a file, so it counts nothing and drops the purge
/// record: the read on day 22 enqueues nothing.
#[test]
fn restage_under_a_prefix_that_became_a_file_is_dropped() {
    let traces = traces_over(
        23,
        vec![seed_file("/u1/d/f", 1, 100)],
        vec![
            write(1, 18, "/u1/d", 70),
            read(1, 19, "/u1/d/f"),
            read(1, 22, "/u1/d/f"),
        ],
    );
    let fs = build_initial_fs(&traces);
    let (result, fs, enqueued) = run_counting_enqueues(&traces, fs);
    assert_eq!(result.total_misses(), 2);
    assert_eq!(enqueued, 1, "only the first miss finds a purge record");
    assert_eq!(result.total_restages(), 0);
    assert_eq!(result.total_restage_bytes(), 0);
    assert_eq!(fs.meta("/u1/d").map(|m| m.size), Some(70));
}

/// The pre-replay FLT pass leaves nothing to restage: a miss on a path it
/// removed enqueues nothing.
#[test]
fn a_miss_on_a_pre_purged_path_enqueues_nothing() {
    let traces = traces_over(
        15,
        vec![seed_file("/u1/f", 1, 100)],
        vec![read(1, 11, "/u1/f")],
    );
    let mut fs = build_initial_fs(&traces);
    assert_eq!(pre_purge_flt(&mut fs, traces.replay_start(), 5), 100);
    let (result, _, enqueued) = run_counting_enqueues(&traces, fs);
    assert_eq!(result.total_misses(), 1);
    assert_eq!(enqueued, 0);
    assert_eq!(result.total_restages(), 0);
}

/// `RecoveryModel::Archive` runs must stay deterministic across repeats
/// after the restage-set refactor, in both catalog modes.
#[test]
fn archive_recovery_runs_are_deterministic() {
    let scenario = Scenario::build(Scale::Tiny, 63);
    let mut cfg = SimConfig::activedr(30);
    cfg.recovery = RecoveryModel::Archive(ArchiveConfig::default());

    let a = run(&scenario.traces, scenario.initial_fs.clone(), &cfg);
    let b = run(&scenario.traces, scenario.initial_fs.clone(), &cfg);
    assert_eq!(a.daily, b.daily);
    assert_eq!(a.total_restage_bytes(), b.total_restage_bytes());
    let (sa, sb) = (
        a.archive.expect("archive stats"),
        b.archive.expect("archive stats"),
    );
    assert_eq!(sa.requests, sb.requests);
    assert_eq!(sa.bytes, sb.bytes);
    assert_eq!(sa.total_wait_secs, sb.total_wait_secs);
    assert_eq!(sa.max_wait_secs, sb.max_wait_secs);

    // And the incremental catalog must not perturb archive recovery.
    let inc = run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &cfg.with_catalog_mode(CatalogMode::Incremental),
    );
    assert_eq!(a.daily, inc.daily);
    assert_eq!(a.total_restage_bytes(), inc.total_restage_bytes());
}
