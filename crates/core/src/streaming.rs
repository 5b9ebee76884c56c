//! Streaming activeness evaluation.
//!
//! The batch [`crate::activeness::ActivenessEvaluator`]
//! re-derives every rank from the full activity history at each purge
//! trigger — exactly what the paper's prototype does with its trace files,
//! and fine for an emulation. A production deployment evaluates weekly,
//! forever; re-reading years of scheduler logs every Sunday is the part
//! that doesn't scale. [`StreamingEvaluator`] instead *maintains* the
//! per-user event windows: events are observed once as they happen,
//! expired events are pruned as the evaluation instant advances, and each
//! evaluation touches only the events still inside the window.
//!
//! The results are exactly — bitwise — those of the batch evaluator over
//! the same inputs (property-tested), because per-user evaluation is a
//! pure function of the in-window events.

use crate::activeness::{ActivenessEvaluator, ActivenessTable, EmptyPeriods, UserActiveness};
use crate::config::ActivenessConfig;
use crate::event::{ActivityEvent, ActivityTypeId, ActivityTypeRegistry};
use crate::rank::Rank;
use crate::time::Timestamp;
use crate::user::UserId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Incrementally maintained activeness state.
///
/// ```
/// use activedr_core::prelude::*;
///
/// let registry = ActivityTypeRegistry::paper_default();
/// let job = registry.lookup("job_submission").unwrap();
/// let mut eval = StreamingEvaluator::new(registry, ActivenessConfig::year_window(7));
///
/// eval.register_user(UserId(1));
/// eval.observe(ActivityEvent::new(UserId(1), job, Timestamp::from_days(364), 512.0));
/// let table = eval.evaluate(Timestamp::from_days(365));
/// assert!(table.get(UserId(1)).op.is_active());
///
/// // A year later the event has aged out of the window.
/// let table = eval.evaluate(Timestamp::from_days(800));
/// assert!(table.get(UserId(1)).op.is_zero());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEvaluator {
    /// The batch evaluator supplies the per-(user, type) rank math so the
    /// two implementations cannot drift apart.
    inner: ActivenessEvaluator,
    /// In-window events per (user, type), ordered by arrival. Impacts are
    /// stored raw; weights are applied by the shared rank math.
    windows: BTreeMap<(UserId, ActivityTypeId), VecDeque<(Timestamp, f64)>>,
    /// Every user ever registered or observed.
    users: BTreeSet<UserId>,
    /// The latest evaluation instant; observations older than the window
    /// behind it are dropped on sight.
    watermark: Timestamp,
}

impl StreamingEvaluator {
    /// A streaming evaluator sharing the batch evaluator's rank math.
    pub fn new(registry: ActivityTypeRegistry, config: ActivenessConfig) -> Self {
        StreamingEvaluator {
            inner: ActivenessEvaluator::new(registry, config),
            windows: BTreeMap::new(),
            users: BTreeSet::new(),
            watermark: Timestamp(i64::MIN),
        }
    }

    /// Select the empty-period semantics (ablation hook).
    pub fn with_empty_periods(mut self, semantics: EmptyPeriods) -> Self {
        self.inner = self.inner.with_empty_periods(semantics);
        self
    }

    /// The activity-type registry this evaluator was built with.
    pub fn registry(&self) -> &ActivityTypeRegistry {
        self.inner.registry()
    }

    /// Register a user with no activity yet (they evaluate to zero ranks,
    /// distinguishing them from *unknown* users who read back neutral).
    pub fn register_user(&mut self, user: UserId) {
        self.users.insert(user);
    }

    /// Observe one activity event. Events may arrive in any order;
    /// events already outside the window of the current watermark are
    /// discarded immediately.
    pub fn observe(&mut self, event: ActivityEvent) {
        self.users.insert(event.user);
        if event.ts < self.window_start(self.watermark) {
            return; // expired before it was even seen
        }
        self.windows
            .entry((event.user, event.kind))
            .or_default()
            .push_back((event.ts, event.impact));
    }

    /// Observe a batch of events.
    pub fn observe_all(&mut self, events: impl IntoIterator<Item = ActivityEvent>) {
        for e in events {
            self.observe(e);
        }
    }

    fn window_start(&self, tc: Timestamp) -> Timestamp {
        if tc.secs() == i64::MIN {
            return tc;
        }
        tc - self.inner.config().window()
    }

    /// Number of retained in-window events (diagnostics).
    pub fn retained_events(&self) -> usize {
        self.windows.values().map(VecDeque::len).sum()
    }

    /// Evaluate the whole population at `tc`, pruning expired events.
    ///
    /// `tc` should not move backwards across calls: pruning is permanent,
    /// so an earlier instant would see an artificially empty window (the
    /// watermark makes this explicit — evaluating before it panics in
    /// debug builds and clamps in release).
    pub fn evaluate(&mut self, tc: Timestamp) -> ActivenessTable {
        debug_assert!(
            tc >= self.watermark,
            "streaming evaluation must move forward in time"
        );
        let tc = tc.max(self.watermark);
        self.watermark = tc;
        let window_start = self.window_start(tc);

        let mut table = ActivenessTable::new();
        // Seed every known user with zero ranks, then overwrite from the
        // retained windows — mirroring the batch evaluator's handling of
        // idle known users.
        for &u in &self.users {
            table.insert(u, UserActiveness::new(Rank::ZERO, Rank::ZERO));
        }

        // Compute per-(user, type) ranks first, then combine per class in
        // ascending type-id order — the same fixed multiplication order as
        // the batch evaluator (f64 products are not associative).
        let mut per_type: Vec<(UserId, ActivityTypeId, Rank)> = Vec::new();
        self.windows.retain(|(user, kind), events| {
            // Prune expired events (any order: retain, not pop_front).
            events.retain(|(ts, _)| *ts >= window_start);
            if events.is_empty() {
                return false;
            }
            let weight = {
                // Apply the registry weight exactly once, as the batch
                // evaluator does when grouping.
                self.inner.registry().spec(*kind).weight
            };
            let ta = self
                .inner
                .type_activeness(tc, events.iter().map(|(ts, i)| (*ts, i * weight)));
            per_type.push((*user, *kind, ta.rank));
            true
        });
        per_type.sort_by_key(|(user, kind, _)| (*user, *kind));

        let mut per_user: BTreeMap<UserId, UserActiveness> = BTreeMap::new();
        for (user, kind, rank) in per_type {
            let entry = per_user
                .entry(user)
                .or_insert(UserActiveness::new(Rank::ZERO, Rank::ZERO));
            if rank.is_zero() {
                continue;
            }
            match self.inner.registry().spec(kind).class {
                crate::event::ActivityClass::Operation => {
                    entry.op = if entry.op.is_zero() {
                        rank
                    } else {
                        entry.op * rank
                    };
                }
                crate::event::ActivityClass::Outcome => {
                    entry.oc = if entry.oc.is_zero() {
                        rank
                    } else {
                        entry.oc * rank
                    };
                }
            }
        }

        for (user, activeness) in per_user {
            table.insert(user, activeness);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActivityTypeSpec;

    fn day(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    fn setup() -> (StreamingEvaluator, ActivityTypeId, ActivityTypeId) {
        let registry = ActivityTypeRegistry::paper_default();
        let job = registry.lookup("job_submission").unwrap();
        let publication = registry.lookup("publication").unwrap();
        (
            StreamingEvaluator::new(registry, ActivenessConfig::new(7, 4)),
            job,
            publication,
        )
    }

    #[test]
    fn matches_batch_on_simple_stream() {
        let (mut streaming, job, publication) = setup();
        let batch = ActivenessEvaluator::new(
            ActivityTypeRegistry::paper_default(),
            ActivenessConfig::new(7, 4),
        );
        let users = [UserId(1), UserId(2), UserId(3)];
        let events = vec![
            ActivityEvent::new(UserId(1), job, day(26), 100.0),
            ActivityEvent::new(UserId(1), job, day(20), 50.0),
            ActivityEvent::new(UserId(2), publication, day(10), 12.0),
        ];
        for u in users {
            streaming.register_user(u);
        }
        streaming.observe_all(events.clone());
        let s = streaming.evaluate(day(28));
        let b = batch.evaluate(day(28), &users, &events);
        assert_eq!(s.len(), b.len());
        for u in users {
            assert_eq!(
                s.get(u).op.ln().to_bits(),
                b.get(u).op.ln().to_bits(),
                "{u} op"
            );
            assert_eq!(
                s.get(u).oc.ln().to_bits(),
                b.get(u).oc.ln().to_bits(),
                "{u} oc"
            );
        }
    }

    #[test]
    fn events_expire_as_time_advances() {
        let (mut streaming, job, _) = setup();
        streaming.observe(ActivityEvent::new(UserId(1), job, day(10), 5.0));
        let t1 = streaming.evaluate(day(12));
        assert!(t1.get(UserId(1)).op.is_active());
        assert_eq!(streaming.retained_events(), 1);
        // Window is 28 days: at day 50 the event has expired.
        let t2 = streaming.evaluate(day(50));
        assert!(t2.get(UserId(1)).op.is_zero());
        assert_eq!(streaming.retained_events(), 0);
        // The user is still *known* (zero, not neutral).
        assert!(t2.contains(UserId(1)));
    }

    #[test]
    fn stale_observations_are_dropped_on_sight() {
        let (mut streaming, job, _) = setup();
        streaming.evaluate(day(100));
        streaming.observe(ActivityEvent::new(UserId(1), job, day(10), 5.0)); // long expired
        assert_eq!(streaming.retained_events(), 0);
        streaming.observe(ActivityEvent::new(UserId(1), job, day(99), 5.0));
        assert_eq!(streaming.retained_events(), 1);
    }

    #[test]
    fn weights_applied_once() {
        let mut registry = ActivityTypeRegistry::new();
        let t = registry.register(
            ActivityTypeSpec::new("x", crate::event::ActivityClass::Operation).with_weight(4.0),
        );
        let config = ActivenessConfig::new(7, 4);
        let mut streaming = StreamingEvaluator::new(registry.clone(), config);
        let batch = ActivenessEvaluator::new(registry, config);
        let events = vec![
            ActivityEvent::new(UserId(0), t, day(27), 3.0),
            ActivityEvent::new(UserId(0), t, day(5), 1.0),
        ];
        streaming.observe_all(events.clone());
        let s = streaming.evaluate(day(28));
        let b = batch.evaluate(day(28), &[UserId(0)], &events);
        assert_eq!(
            s.get(UserId(0)).op.ln().to_bits(),
            b.get(UserId(0)).op.ln().to_bits()
        );
    }

    #[test]
    fn repeated_evaluations_are_stable() {
        let (mut streaming, job, _) = setup();
        streaming.observe(ActivityEvent::new(UserId(1), job, day(27), 5.0));
        let a = streaming.evaluate(day(28));
        let b = streaming.evaluate(day(28));
        assert_eq!(
            a.get(UserId(1)).op.ln().to_bits(),
            b.get(UserId(1)).op.ln().to_bits()
        );
    }
}
