//! Failure injection: malformed traces, conflicting snapshots, degenerate
//! targets and empty worlds must be handled gracefully, never panic.

use activedr_core::prelude::*;
use activedr_fs::{ExemptionList, Snapshot, SnapshotEntry, VirtualFs};
use activedr_sim::{build_initial_fs, run, Scale, Scenario, SimConfig};
use activedr_trace::{generate, read_traces, write_traces, AccessKind, AccessRecord, SynthConfig};

#[test]
fn truncated_trace_stream_is_an_error_not_a_panic() {
    let traces = generate(&SynthConfig::tiny(1));
    let mut buf = Vec::new();
    write_traces(&traces, &mut buf).unwrap();
    for cut in [0, 1, buf.len() / 2, buf.len() - 2] {
        let result = read_traces(&buf[..cut]);
        assert!(result.is_err(), "cut at {cut} should fail to parse");
    }
}

#[test]
fn duplicated_and_out_of_order_accesses_replay_fine() {
    let mut traces = generate(&SynthConfig::tiny(2));
    // Duplicate a chunk of the access stream and shuffle order; loaders
    // sort, and the engine tolerates duplicates (a second read is a hit).
    let dup: Vec<AccessRecord> = traces.accesses.iter().take(50).cloned().collect();
    traces.accesses.extend(dup);
    traces.accesses.reverse();
    traces.sort();
    let fs = build_initial_fs(&traces);
    let result = run(&traces, fs, &SimConfig::flt(90));
    assert!(result.total_reads() > 0);
}

#[test]
fn accesses_to_foreign_and_absolute_garbage_paths() {
    let mut traces = generate(&SynthConfig::tiny(3));
    let ts = traces.replay_start() + TimeDelta::from_days(10);
    for path in ["/", "///", "/nonexistent/x", "no-leading-slash", "/a/./b"] {
        traces.accesses.push(AccessRecord {
            user: UserId(0),
            ts,
            path: path.into(),
            kind: AccessKind::Read,
        });
    }
    traces.sort();
    let fs = build_initial_fs(&traces);
    let result = run(&traces, fs, &SimConfig::flt(90));
    // The garbage reads count as misses (or hits if they alias a real
    // path after normalization) without panicking.
    assert!(result.total_reads() > 0);
}

#[test]
fn conflicting_snapshot_entries_are_skipped_on_restore() {
    let snap = Snapshot {
        captured_at: Timestamp::EPOCH,
        capacity: 100,
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
                path: "/a/b/c".into(),
                owner: UserId(1),
                size: 10,
                atime: Timestamp::EPOCH,
                ctime: Timestamp::EPOCH,
                stripes: 1,
            },
            SnapshotEntry {
                path: "/a/b".into(), // duplicate: skipped, the first entry stays
                owner: UserId(2),
                size: 20,
                atime: Timestamp::EPOCH,
                ctime: Timestamp::EPOCH,
                stripes: 1,
            },
        ],
    };
    let (fs, skipped) = snap.restore();
    assert_eq!(skipped, 2);
    assert_eq!(fs.file_count(), 1);
    assert_eq!(fs.meta("/a/b").unwrap().owner, UserId(1));
    assert_eq!(fs.used_bytes(), 10);
}

#[test]
fn zero_and_absurd_purge_targets() {
    let scenario = Scenario::build(Scale::Tiny, 4);
    let catalog = scenario.initial_fs.catalog(&ExemptionList::new());
    let table = ActivenessTable::new();
    let tc = scenario.traces.replay_start();
    let policy = ActiveDrPolicy::new(RetentionConfig::new(90));

    // Zero target: trivially met, nothing needs purging... but "at any
    // time when the purge target is reached" includes before the first
    // file, so zero bytes purged is legal; the implementation purges
    // until >= 0 which is immediately true after the first file. Accept
    // either, but never panic and never exceed the catalog.
    let zero = policy.run(PurgeRequest {
        tc,
        catalog: &catalog,
        activeness: &table,
        target_bytes: Some(0),
    });
    assert!(zero.purged_bytes <= catalog.total_bytes());
    assert!(zero.target_met);

    // Absurd target: more than exists. Must report failure.
    let absurd = policy.run(PurgeRequest {
        tc,
        catalog: &catalog,
        activeness: &table,
        target_bytes: Some(u64::MAX),
    });
    assert!(!absurd.target_met);
}

#[test]
fn empty_world_runs_cleanly() {
    let mut traces = generate(&SynthConfig::tiny(5));
    traces.initial_files.clear();
    traces.accesses.clear();
    let fs = build_initial_fs(&traces);
    assert_eq!(fs.capacity(), 0);
    let result = run(&traces, fs, &SimConfig::activedr(90));
    assert_eq!(result.total_reads(), 0);
    assert_eq!(result.total_misses(), 0);
}

#[test]
fn exemption_list_with_weird_entries() {
    let list = ExemptionList::from_lines(["", "   ", "#only a comment", "/", "///", "/x//y/../z"]);
    // "/" normalizes to empty and is ignored as a file; nothing panics.
    assert!(!list.is_exempt("/anything"));
    let mut fs = VirtualFs::with_capacity(0);
    fs.create("/x/y", UserId(1), 1, Timestamp::EPOCH).unwrap();
    let catalog = fs.catalog(&list);
    assert_eq!(catalog.total_files(), 1);
}

#[test]
fn future_timestamped_activities_do_not_break_evaluation() {
    let registry = ActivityTypeRegistry::paper_default();
    let job = registry.lookup("job_submission").unwrap();
    let evaluator = ActivenessEvaluator::new(registry, ActivenessConfig::year_window(7));
    let tc = Timestamp::from_days(100);
    let events = vec![
        ActivityEvent::new(UserId(1), job, Timestamp::from_days(500), 100.0), // future
        ActivityEvent::new(UserId(1), job, Timestamp::from_days(99), 100.0),
    ];
    let table = evaluator.evaluate(tc, &[UserId(1)], &events);
    assert!(table.get(UserId(1)).op.is_active());
}
