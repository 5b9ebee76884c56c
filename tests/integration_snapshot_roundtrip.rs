//! Integration: snapshot and trace persistence across the full pipeline —
//! capture mid-replay state, serialize, reload, and continue identically.

#![allow(
    clippy::cast_possible_truncation,
    reason = "values are bounded far below the narrow type's range at paper scale"
)]

use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::{Snapshot, VirtualFs};
use activedr_sim::{run_until, Scale, Scenario, SimConfig};
use activedr_trace::{read_traces, write_traces};

#[test]
fn snapshot_of_midreplay_state_round_trips() {
    let scenario = Scenario::build(Scale::Tiny, 30);
    let stop = scenario.traces.replay_start_day as i64 + 100;
    let (_, fs) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::activedr(90),
        Some(stop),
    );

    let snap = Snapshot::capture(&fs, Timestamp::from_days(stop));
    let reloaded = Snapshot::decode(&snap.encode().unwrap()).unwrap();
    // Every field of every entry, the capture time and the capacity.
    assert_eq!(reloaded, snap);
    let (restored, skipped) = reloaded.restore();
    assert_eq!(skipped, 0);
    assert_eq!(restored.file_count(), fs.file_count());
    assert_eq!(restored.used_bytes(), fs.used_bytes());

    // Every file's metadata survives byte-for-byte.
    for (path, _, meta) in fs.iter() {
        let m = restored.meta(&path).expect("file lost in round trip");
        assert_eq!(m.size, meta.size);
        assert_eq!(m.atime, meta.atime);
        assert_eq!(m.owner, meta.owner);
    }
}

#[test]
fn traces_round_trip_preserves_simulation_results() {
    let scenario = Scenario::build(Scale::Tiny, 31);
    let mut buf = Vec::new();
    write_traces(&scenario.traces, &mut buf).unwrap();
    let reloaded = read_traces(&buf[..]).unwrap();

    let a = activedr_sim::run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(90),
    );
    let b = activedr_sim::run(&reloaded, scenario.initial_fs.clone(), &SimConfig::flt(90));
    assert_eq!(a.daily, b.daily);
    assert_eq!(a.total_purged_bytes(), b.total_purged_bytes());
}

#[test]
fn restored_snapshot_continues_the_replay_identically() {
    let scenario = Scenario::build(Scale::Tiny, 32);
    let mid = scenario.traces.replay_start_day as i64 + 50;

    // Continuous run to the horizon.
    let (continuous, _) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(60),
        None,
    );

    // Stop at `mid`, snapshot, restore, continue with a trimmed trace.
    let (_, fs_mid) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(60),
        Some(mid),
    );
    let snap = Snapshot::capture(&fs_mid, Timestamp::from_days(mid));
    let (restored, _) = snap.restore();
    let restored: VirtualFs = restored;

    // Trim the trace so replay (and the retention phase clock) restarts at
    // `mid`.
    let mut tail = scenario.traces.clone();
    tail.replay_start_day = u32::try_from(mid).expect("mid-replay day fits in u32");
    tail.accesses.retain(|a| a.ts >= Timestamp::from_days(mid));

    let (resumed, _) = run_until(&tail, restored, &SimConfig::flt(60), None);

    // The trigger phase differs (it restarts counting at `mid`), so purge
    // events may not align day-for-day; daily reads, however, must match
    // exactly, and total misses should be close. We assert reads exactly
    // and misses within a tolerance that would catch any systemic drift.
    let cont_tail: Vec<_> = continuous.daily.iter().filter(|d| d.day >= mid).collect();
    assert_eq!(cont_tail.len(), resumed.daily.len());
    for (c, r) in cont_tail.iter().zip(resumed.daily.iter()) {
        assert_eq!(c.day, r.day);
        assert_eq!(c.reads, r.reads, "day {}", c.day);
        assert_eq!(c.writes, r.writes, "day {}", c.day);
    }
    let cont_misses: u64 = cont_tail.iter().map(|d| d.misses).sum();
    let resumed_misses: u64 = resumed.daily.iter().map(|d| d.misses).sum();
    let hi = convert::approx_f64(cont_misses.max(resumed_misses));
    if hi > 0.0 {
        let rel =
            (convert::approx_f64(cont_misses) - convert::approx_f64(resumed_misses)).abs() / hi;
        assert!(
            rel < 0.35,
            "misses diverged: {cont_misses} vs {resumed_misses}"
        );
    }
}
