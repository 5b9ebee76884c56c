//! Integration: the §3.4 purge-exemption contract over full replays —
//! reserved files survive every policy for the whole year.

use activedr_fs::ExemptionList;
use activedr_sim::{run_until, Scale, Scenario, SimConfig};

/// Reserve a handful of concrete initial files plus one whole user
/// directory, replay under each policy, and verify every reserved path is
/// still there at the horizon.
#[test]
fn reserved_paths_survive_every_policy() {
    let scenario = Scenario::build(Scale::Tiny, 44);

    // Pick reserved files from the *initial snapshot survivors* so they
    // exist when the replay starts.
    let survivors: Vec<String> = scenario
        .initial_fs
        .iter()
        .map(|(p, _, _)| p)
        .take(5)
        .collect();
    assert!(!survivors.is_empty());
    let reserved_dir_owner = scenario
        .initial_fs
        .iter()
        .map(|(_, _, m)| m.owner)
        .next()
        .expect("non-empty fs");
    let reserved_dir = format!("/scratch/u{}", reserved_dir_owner.0);

    let mut exemptions = ExemptionList::new();
    for p in &survivors {
        exemptions.reserve_file(p);
    }
    exemptions.reserve_dir(&reserved_dir);

    for config in [
        SimConfig::flt(30),
        SimConfig::activedr(30),
        SimConfig::scratch_cache(),
        SimConfig::value_based(30),
    ] {
        let config = config.with_exemptions(exemptions.clone());
        let policy = config.policy.name();
        let (result, fs) = run_until(&scenario.traces, scenario.initial_fs.clone(), &config, None);
        for p in &survivors {
            assert!(fs.exists(p), "{policy}: reserved file {p} was purged");
        }
        // The reserved directory still holds everything it started with.
        let dir_prefix = format!("{reserved_dir}/");
        let initial_under: Vec<String> = scenario
            .initial_fs
            .iter()
            .map(|(p, _, _)| p)
            .filter(|p| p.starts_with(&dir_prefix))
            .collect();
        for p in &initial_under {
            assert!(
                fs.exists(p),
                "{policy}: file {p} under reserved dir was purged"
            );
        }
        // And the scan actually encountered exempt files (the contract was
        // exercised, not vacuously true) whenever this policy purged at all.
        if result.retentions.iter().any(|r| r.purged_files > 0) {
            assert!(
                result.total_reads() > 0,
                "{policy}: replay did not exercise the exemptions"
            );
        }
    }
}

/// Exempting everything makes every policy a no-op purger.
#[test]
fn blanket_reservation_disables_purging() {
    let scenario = Scenario::build(Scale::Tiny, 45);
    let mut exemptions = ExemptionList::new();
    exemptions.reserve_dir("/scratch");

    for config in [SimConfig::flt(7), SimConfig::activedr(7)] {
        let config = config.with_exemptions(exemptions.clone());
        let policy = config.policy.name();
        let (result, _) = run_until(&scenario.traces, scenario.initial_fs.clone(), &config, None);
        let purged: u64 = result.retentions.iter().map(|r| r.purged_bytes).sum();
        assert_eq!(purged, 0, "{policy}: purged despite blanket reservation");
        // With nothing purged there is nothing to re-stage.
        assert_eq!(result.total_restage_bytes(), 0, "{policy}");
    }
}

/// The no-purge world also pins down the miss floor: starting from the
/// *unpurged* initial snapshot with a blanket reservation, nothing is ever
/// deleted, so no read can miss.
#[test]
fn blanket_reservation_eliminates_misses() {
    let traces = activedr_trace::generate(&activedr_trace::SynthConfig::tiny(46));
    let fs = activedr_sim::build_initial_fs(&traces);
    let mut exemptions = ExemptionList::new();
    exemptions.reserve_dir("/scratch");
    let config = SimConfig::flt(7).with_exemptions(exemptions);
    let (result, _) = run_until(&traces, fs, &config, None);
    assert_eq!(result.total_misses(), 0);
    assert!(result.total_reads() > 0);
}
