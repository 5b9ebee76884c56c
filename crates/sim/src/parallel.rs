//! Rayon-parallel activeness evaluation.
//!
//! The paper's prototype evaluates activeness on MPI rank 0 in ~700 ms
//! while the other 19 ranks idle (Fig. 12b) — the evaluation is cheap but
//! embarrassingly parallel over users. This module provides the
//! data-parallel version: events are grouped per user, users are sharded
//! across the rayon pool, and each shard evaluates independently. Results
//! are bitwise-identical to the sequential evaluator (per-user evaluation
//! is independent by construction).

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use activedr_core::activeness::{ActivenessEvaluator, ActivenessTable};
use activedr_core::event::ActivityEvent;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Timing of one evaluation shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalShardReport {
    pub shard: usize,
    pub users: usize,
    pub events: usize,
    pub elapsed: Duration,
}

/// Result of a parallel evaluation.
#[derive(Debug, Clone)]
pub struct ParallelEvaluation {
    pub table: ActivenessTable,
    pub shards: Vec<EvalShardReport>,
    pub elapsed: Duration,
}

/// Evaluate the population in `shards` parallel shards. Equivalent to
/// [`ActivenessEvaluator::evaluate`] over the same inputs.
pub fn parallel_evaluate(
    evaluator: &ActivenessEvaluator,
    tc: Timestamp,
    known_users: &[UserId],
    events: &[ActivityEvent],
    shards: usize,
) -> ParallelEvaluation {
    let shards = shards.max(1);
    #[expect(
        clippy::disallowed_methods,
        reason = "shard timing for the Fig. 12 performance report"
    )]
    let start = std::time::Instant::now();

    // Partition users (and their events) across shards by user id.
    let shard_of = |u: UserId| u.index() % shards;
    let mut user_shards: Vec<Vec<UserId>> = vec![Vec::new(); shards];
    for &u in known_users {
        user_shards[shard_of(u)].push(u);
    }
    let mut event_shards: Vec<Vec<ActivityEvent>> = vec![Vec::new(); shards];
    for ev in events {
        event_shards[shard_of(ev.user)].push(*ev);
    }

    let results: Vec<(EvalShardReport, ActivenessTable)> = user_shards
        .into_par_iter()
        .zip(event_shards.into_par_iter())
        .enumerate()
        .map(|(shard, (users, events))| {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-shard timing for the performance report"
            )]
            let shard_start = std::time::Instant::now();
            let table = evaluator.evaluate(tc, &users, &events);
            (
                EvalShardReport {
                    shard,
                    users: users.len(),
                    events: events.len(),
                    elapsed: shard_start.elapsed(),
                },
                table,
            )
        })
        .collect();

    let mut merged: BTreeMap<UserId, _> = BTreeMap::new();
    let mut reports = Vec::with_capacity(results.len());
    for (report, table) in results {
        for (u, a) in table.iter() {
            merged.insert(u, a);
        }
        reports.push(report);
    }

    ParallelEvaluation {
        table: merged.into_iter().collect(),
        shards: reports,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::config::ActivenessConfig;
    use activedr_core::event::ActivityTypeRegistry;
    use activedr_trace::{activity_events, generate, SynthConfig};

    fn fixture() -> (
        ActivenessEvaluator,
        Timestamp,
        Vec<UserId>,
        Vec<ActivityEvent>,
    ) {
        let traces = generate(&SynthConfig::tiny(14));
        let registry = ActivityTypeRegistry::paper_default();
        let tc = Timestamp::from_days(500);
        let events = activity_events(&traces, &registry, tc);
        let evaluator = ActivenessEvaluator::new(registry, ActivenessConfig::year_window(7));
        (evaluator, tc, traces.user_ids(), events)
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (evaluator, tc, users, events) = fixture();
        let sequential = evaluator.evaluate(tc, &users, &events);
        for shards in [1usize, 2, 4, 16] {
            let parallel = parallel_evaluate(&evaluator, tc, &users, &events, shards);
            assert_eq!(parallel.table.len(), sequential.len(), "shards {shards}");
            for (u, a) in sequential.iter() {
                let p = parallel.table.get(u);
                assert_eq!(p.op.ln().to_bits(), a.op.ln().to_bits(), "{u} op");
                assert_eq!(p.oc.ln().to_bits(), a.oc.ln().to_bits(), "{u} oc");
            }
        }
    }

    #[test]
    fn shard_reports_cover_population() {
        let (evaluator, tc, users, events) = fixture();
        let parallel = parallel_evaluate(&evaluator, tc, &users, &events, 4);
        assert_eq!(parallel.shards.len(), 4);
        assert_eq!(
            parallel.shards.iter().map(|s| s.users).sum::<usize>(),
            users.len()
        );
        assert_eq!(
            parallel.shards.iter().map(|s| s.events).sum::<usize>(),
            events.len()
        );
    }

    #[test]
    fn degenerate_shard_counts() {
        let (evaluator, tc, users, events) = fixture();
        let one = parallel_evaluate(&evaluator, tc, &users, &events, 0); // clamped to 1
        assert_eq!(one.shards.len(), 1);
        let many = parallel_evaluate(&evaluator, tc, &users, &events, 10 * users.len());
        assert_eq!(many.table.len(), users.len());
    }
}
