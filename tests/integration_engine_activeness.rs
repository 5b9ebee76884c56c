//! Integration: at every retention trigger the engine hands the policy
//! exactly the activeness table the batch evaluator derives from the
//! events visible at that instant — the same users, with ranks equal bit
//! for bit — although the engine evaluates incrementally, from one
//! streaming evaluator fed the whole history before the replay starts.

use activedr_core::activeness::ActivenessEvaluator;
use activedr_core::event::ActivityTypeRegistry;
use activedr_core::time::{TimeDelta, Timestamp};
use activedr_core::user::UserId;
use activedr_fs::VirtualFs;
use activedr_sim::{run_instrumented, CatalogMode, Scale, Scenario, SimConfig};
use activedr_trace::{activity_events, PublicationRecord, TraceSet};

fn policy_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("FLT", SimConfig::flt(90)),
        ("ActiveDR", SimConfig::activedr(30)),
        ("ScratchCache", SimConfig::scratch_cache()),
        ("ValueBased", SimConfig::value_based(90)),
    ]
}

/// Every combination of catalog mode and activity-type registry for one
/// policy configuration.
fn variants(name: &str, config: &SimConfig) -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for mode in [CatalogMode::FullScan, CatalogMode::Incremental] {
        for (registry_name, registry) in [
            ("paper", ActivityTypeRegistry::paper_default()),
            ("extended", ActivityTypeRegistry::extended()),
        ] {
            let mut config = config.clone().with_catalog_mode(mode);
            config.registry = registry;
            out.push((format!("{name}/{mode:?}/{registry_name}"), config));
        }
    }
    out
}

/// Replay `config`, comparing each trigger's table with the batch
/// evaluator's. Returns, per trigger day, whether `watch` was listed.
fn assert_tables_match_batch(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    label: &str,
    watch: UserId,
) -> Vec<(i64, bool)> {
    let batch = ActivenessEvaluator::new(config.registry.clone(), config.activeness);
    let users = traces.user_ids();
    let mut listed = Vec::new();
    run_instrumented(traces, fs, config, None, &mut |probe| {
        let day = probe.day;
        let tc = Timestamp::from_days(day);
        let want = batch.evaluate(tc, &users, &activity_events(traces, &config.registry, tc));
        let got = probe.activeness;
        assert_eq!(got.len(), want.len(), "{label} day {day}: table size");
        for (user, w) in want.iter() {
            assert!(got.contains(user), "{label} day {day}: {user} missing");
            let g = got.get(user);
            assert_eq!(
                g.op.ln().to_bits(),
                w.op.ln().to_bits(),
                "{label} day {day}: {user} op"
            );
            assert_eq!(
                g.oc.ln().to_bits(),
                w.oc.ln().to_bits(),
                "{label} day {day}: {user} oc"
            );
        }
        listed.push((day, got.contains(watch)));
    });
    assert!(!listed.is_empty(), "{label}: no trigger fired");
    listed
}

fn assert_all_variants_match(scenario: &Scenario) {
    let nobody = UserId(u32::MAX);
    for (name, config) in policy_configs() {
        for (label, config) in variants(name, &config) {
            assert_tables_match_batch(
                &scenario.traces,
                scenario.initial_fs.clone(),
                &config,
                &label,
                nobody,
            );
        }
    }
}

#[test]
fn tiny_tables_equal_batch_at_every_trigger() {
    assert_all_variants_match(&Scenario::build(Scale::Tiny, 42));
}

#[test]
fn small_tables_equal_batch_at_every_trigger() {
    assert_all_variants_match(&Scenario::build(Scale::Small, 7));
}

/// A publication whose author is not in `traces.users`, dated after the
/// first trigger: the author is unknown, and reads back neutral, until
/// the publication date, and is listed from then on.
#[test]
fn author_outside_the_user_list_appears_at_the_publication_date() {
    let mut scenario = Scenario::build(Scale::Tiny, 42);
    let traces = &mut scenario.traces;
    let newcomer = UserId(traces.users.iter().map(|u| u.id.0).max().unwrap_or(0) + 1);
    let start = traces.replay_start();
    let published = start + TimeDelta::from_days(17) + TimeDelta::from_hours(6);
    traces.publications.push(PublicationRecord {
        ts: published,
        citations: 3,
        authors: vec![newcomer],
    });
    traces.publications.sort_by_key(|p| p.ts);

    for (label, config) in variants("ActiveDR", &SimConfig::activedr(30)) {
        let listed = assert_tables_match_batch(
            &scenario.traces,
            scenario.initial_fs.clone(),
            &config,
            &label,
            newcomer,
        );
        let first_trigger = listed.first().map(|(day, _)| *day);
        assert_eq!(first_trigger, Some(start.day() + 7), "{label}");
        for (day, present) in listed {
            let visible = Timestamp::from_days(day) >= published;
            assert_eq!(present, visible, "{label} day {day}: newcomer listed");
        }
    }
}
