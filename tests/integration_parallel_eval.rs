//! Determinism of the sharded activeness evaluator behind Fig. 12b: for
//! every shard count, the sharded [`activedr_sim::parallel_evaluate`]
//! table must be **bitwise** identical to the serial
//! [`ActivenessEvaluator::evaluate`] — same users, same rank bits.

#![allow(
    clippy::expect_used,
    reason = "tests fail loudly by design; expect() is the assertion"
)]

use activedr_core::activeness::{ActivenessEvaluator, ActivenessTable};
use activedr_core::config::ActivenessConfig;
use activedr_core::event::{ActivityEvent, ActivityTypeRegistry};
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_sim::parallel_evaluate;
use activedr_trace::{activity_events, generate, SynthConfig};

fn fixture(
    seed: u64,
) -> (
    ActivenessEvaluator,
    Timestamp,
    Vec<UserId>,
    Vec<ActivityEvent>,
) {
    let traces = generate(&SynthConfig::tiny(seed));
    let registry = ActivityTypeRegistry::paper_default();
    let tc = Timestamp::from_days(400);
    let events = activity_events(&traces, &registry, tc);
    let evaluator = ActivenessEvaluator::new(registry, ActivenessConfig::year_window(7));
    (evaluator, tc, traces.user_ids(), events)
}

fn shard_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    vec![1, 2, 7, cpus]
}

/// Every user's rank pair, bit for bit. Going through `ln().to_bits()`
/// makes the comparison exact (no float tolerance): any reordering of
/// floating-point accumulation inside a shard would surface here.
fn assert_tables_bitwise_equal(serial: &ActivenessTable, sharded: &ActivenessTable, label: &str) {
    assert_eq!(serial.len(), sharded.len(), "{label}: table size");
    for (user, expected) in serial.iter() {
        let got = sharded.get(user);
        assert_eq!(
            got.op.ln().to_bits(),
            expected.op.ln().to_bits(),
            "{label}: {user} op rank bits"
        );
        assert_eq!(
            got.oc.ln().to_bits(),
            expected.oc.ln().to_bits(),
            "{label}: {user} oc rank bits"
        );
    }
}

#[test]
fn sharded_tables_bitwise_match_serial_for_all_shard_counts() {
    for seed in [14, 71, 2024] {
        let (evaluator, tc, users, events) = fixture(seed);
        let serial = evaluator.evaluate(tc, &users, &events);
        for shards in shard_counts() {
            let sharded = parallel_evaluate(&evaluator, tc, &users, &events, shards).table;
            assert_tables_bitwise_equal(
                &serial,
                &sharded,
                &format!("seed {seed}, {shards} shards"),
            );
        }
    }
}

#[test]
fn empty_and_single_user_edge_shards_are_exact() {
    let (evaluator, tc, users, events) = fixture(14);

    // No users at all: every shard is empty.
    for shards in shard_counts() {
        let sharded = parallel_evaluate(&evaluator, tc, &[], &[], shards);
        assert!(sharded.table.is_empty(), "{shards} shards: phantom users");
        assert_eq!(sharded.shards.len(), shards, "{shards} shards: reports");
    }

    // One user, many shards: all but one shard receives zero users and
    // zero events, and the populated shard must still match serial.
    let lone = *users.first().expect("fixture has users");
    let lone_events: Vec<ActivityEvent> =
        events.iter().filter(|e| e.user == lone).copied().collect();
    let serial = evaluator.evaluate(tc, &[lone], &lone_events);
    for shards in shard_counts() {
        let sharded = parallel_evaluate(&evaluator, tc, &[lone], &lone_events, shards);
        assert_tables_bitwise_equal(&serial, &sharded.table, &format!("lone user, {shards}"));
        let populated = sharded.shards.iter().filter(|s| s.users > 0).count();
        assert_eq!(populated, 1, "{shards} shards: exactly one populated");
        assert_eq!(
            sharded.shards.iter().map(|s| s.events).sum::<usize>(),
            lone_events.len(),
            "{shards} shards: events conserved"
        );
    }
}
