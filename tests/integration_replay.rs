//! Cross-crate integration: the full replay pipeline from synthetic trace
//! generation through the virtual file system to the emulation engine.

#![allow(
    clippy::cast_possible_truncation,
    reason = "values are bounded far below the narrow type's range at paper scale"
)]

use activedr_core::prelude::*;
use activedr_sim::{build_initial_fs, pre_purge_flt, run, run_until, Scale, Scenario, SimConfig};
use activedr_trace::{generate, AccessKind, SynthConfig};

#[test]
fn end_to_end_flt_replay_counts_misses_deterministically() {
    let scenario = Scenario::build(Scale::Tiny, 101);
    let a = run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(90),
    );
    let b = run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(90),
    );
    assert_eq!(a.daily, b.daily);
    assert!(a.total_reads() > 0);
    assert!(a.total_misses() <= a.total_reads());
    // Every daily record covers a day in the replay window.
    let start = scenario.traces.replay_start_day as i64;
    let end = scenario.traces.horizon_days as i64;
    for d in &a.daily {
        assert!(d.day >= start && d.day < end);
    }
}

#[test]
fn misses_without_retention_only_from_never_created_files() {
    // With no purging at all, a read can only miss if the path was never
    // written (e.g. pre-replay data that did not make the snapshot).
    let traces = generate(&SynthConfig::tiny(55));
    let fs = build_initial_fs(&traces);
    // A policy that purges nothing: FLT with an enormous lifetime.
    let config = SimConfig::flt(100_000);
    let result = run(&traces, fs.clone(), &config);

    // Cross-check by hand-replaying.
    let mut fs2 = fs;
    let mut misses = 0u64;
    for a in &traces.accesses {
        match a.kind {
            AccessKind::Read => {
                if fs2.access(&a.path, a.ts).is_miss() {
                    misses += 1;
                }
            }
            AccessKind::Write { size } => {
                fs2.create(&a.path, a.user, size, a.ts).ok();
            }
        }
    }
    assert_eq!(result.total_misses(), misses);
    // And with a generated trace every read targets a file the generator
    // created, so there are no misses at all.
    assert_eq!(misses, 0, "generator emitted reads to never-created paths");
}

#[test]
fn purging_creates_the_misses_flt_is_blamed_for() {
    let traces = generate(&SynthConfig::tiny(55));
    let mut fs = build_initial_fs(&traces);
    pre_purge_flt(&mut fs, traces.replay_start(), 90);
    let with_purge = run(&traces, fs, &SimConfig::flt(30));
    let no_purge = run(&traces, build_initial_fs(&traces), &SimConfig::flt(100_000));
    assert!(with_purge.total_misses() > no_purge.total_misses());
}

#[test]
fn run_until_is_a_prefix_of_the_full_run() {
    let scenario = Scenario::build(Scale::Tiny, 7);
    let stop = scenario.traces.replay_start_day as i64 + 60;
    let (partial, fs_state) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::activedr(90),
        Some(stop),
    );
    let full = run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::activedr(90),
    );
    assert_eq!(partial.daily.len(), 60);
    assert_eq!(&full.daily[..60], &partial.daily[..]);
    assert!(fs_state.file_count() > 0);
}

#[test]
fn retention_events_report_consistent_quadrant_breakdowns() {
    let scenario = Scenario::build(Scale::Tiny, 13);
    let result = run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::activedr(60),
    );
    for event in &result.retentions {
        let q_purged: u64 = Quadrant::ALL
            .iter()
            .map(|&q| event.breakdown.get(q).purged_bytes)
            .sum();
        assert_eq!(q_purged, event.purged_bytes);
        assert_eq!(
            event.breakdown.total_users_affected() as usize,
            event.users_affected
        );
    }
}

#[test]
fn final_quadrants_cover_every_user() {
    let scenario = Scenario::build(Scale::Tiny, 13);
    let result = run(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(90),
    );
    for u in scenario.traces.user_ids() {
        assert!(result.final_quadrants.contains_key(&u), "missing {u}");
    }
}
