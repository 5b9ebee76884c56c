//! Streaming activeness evaluation: the engine's evaluation path.
//!
//! The batch [`crate::activeness::ActivenessEvaluator`] re-derives every
//! rank from the full activity history at each purge trigger, which is
//! what the paper's prototype does with its trace files. It stays as the
//! reference. [`StreamingEvaluator`] instead *maintains* the per-(user,
//! type) event windows: each event is observed once, expired events are
//! pruned as the evaluation instant advances, and an evaluation is one
//! pass over the windows in (user, type) order that reuses one bucket
//! buffer. The replay engine feeds it the whole trace history once, before
//! the first trigger, and then only calls [`StreamingEvaluator::evaluate`].
//!
//! The results are bitwise those of the batch evaluator over the events
//! visible at the evaluation instant (property-tested, and checked at
//! every trigger of a replay). Both evaluators call the same bucket and
//! rank arithmetic, and both sum a (user, type) group's impacts in the
//! order its events arrive, so they agree when fed the same sequence.
//! Re-sorting the events by time would break that: f64 sums depend on
//! their order.

use crate::activeness::{
    ActivenessEvaluator, ActivenessTable, EmptyPeriods, TypeActiveness, UserActiveness,
};
use crate::config::ActivenessConfig;
use crate::event::{ActivityClass, ActivityEvent, ActivityTypeId, ActivityTypeRegistry};
use crate::rank::Rank;
use crate::time::Timestamp;
use crate::user::UserId;
use std::collections::BTreeMap;

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
    /// The batch evaluator supplies the bucket and rank math, so the two
    /// implementations cannot drift apart.
    inner: ActivenessEvaluator,
    /// Retained events per (user, type) as `(timestamp, weighted impact)`,
    /// in arrival order. Events may lie after the latest evaluation
    /// instant; an evaluation skips them until their time comes. A window
    /// that pruning empties stays in the map for the user's next event.
    windows: BTreeMap<(UserId, ActivityTypeId), Vec<(Timestamp, f64)>>,
    /// Every user ever registered or observed, with the earliest instant
    /// at which the user is known: the start of time for registered users,
    /// the earliest observed event otherwise. An evaluation lists exactly
    /// the users known at its instant, as the batch evaluator does.
    first_seen: BTreeMap<UserId, Timestamp>,
    /// The latest evaluation instant; observations older than the window
    /// behind it are dropped on sight.
    watermark: Timestamp,
    /// Scratch result whose period buckets every window reuses.
    scratch: TypeActiveness,
}

impl StreamingEvaluator {
    /// A streaming evaluator sharing the batch evaluator's rank math.
    pub fn new(registry: ActivityTypeRegistry, config: ActivenessConfig) -> Self {
        StreamingEvaluator {
            inner: ActivenessEvaluator::new(registry, config),
            windows: BTreeMap::new(),
            first_seen: BTreeMap::new(),
            watermark: Timestamp(i64::MIN),
            scratch: TypeActiveness {
                rank: Rank::ZERO,
                period_activeness: Vec::new(),
                average: 0.0,
                events_in_window: 0,
            },
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
        self.first_seen.insert(user, Timestamp(i64::MIN));
    }

    /// Observe one activity event. Events may arrive in any order, also
    /// ahead of the evaluation instant; an event's user is known from the
    /// event's timestamp on. Events already outside the window of the
    /// current watermark are discarded immediately.
    pub fn observe(&mut self, event: ActivityEvent) {
        self.first_seen
            .entry(event.user)
            .and_modify(|first| *first = (*first).min(event.ts))
            .or_insert(event.ts);
        if event.ts < self.window_start(self.watermark) {
            return; // expired before it was even seen
        }
        // The registry weight is applied here, once, exactly as the batch
        // evaluator applies it when grouping.
        let impact = event.weighted_impact(self.inner.registry());
        self.windows
            .entry((event.user, event.kind))
            .or_default()
            .push((event.ts, impact));
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

    /// Number of retained events, including those after the latest
    /// evaluation instant (diagnostics).
    pub fn retained_events(&self) -> usize {
        self.windows.values().map(Vec::len).sum()
    }

    /// Evaluate the population known at `tc`, pruning expired events.
    ///
    /// One pass over the windows in (user, type) order, merged with the
    /// user list: each window is pruned, bucketed into the one scratch
    /// buffer and folded into its user's class rank in ascending type
    /// order, the batch evaluator's fixed multiplication order (f64
    /// products are not associative).
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

        let mut rows = Vec::with_capacity(self.first_seen.len());
        // Every window's user is in `first_seen`, and both maps are
        // ascending by user, so one cursor walks the windows.
        let mut windows = self.windows.iter_mut().peekable();
        for (&user, &first_seen) in &self.first_seen {
            // A user first seen after `tc` has no event at or before it:
            // the batch table leaves them out, so they read back neutral.
            // None of their events can have expired yet either.
            let known = first_seen <= tc;
            let mut activeness = UserActiveness::new(Rank::ZERO, Rank::ZERO);
            while let Some(((_, kind), events)) = windows.next_if(|((u, _), _)| *u == user) {
                if !known {
                    continue;
                }
                events.retain(|&(ts, _)| ts >= window_start);
                self.inner
                    .type_activeness_into(tc, events.iter().copied(), &mut self.scratch);
                let rank = self.scratch.rank;
                // Eq. (6): a class multiplies only its types with activity.
                if rank.is_zero() {
                    continue;
                }
                let class = match self.inner.registry().spec(*kind).class {
                    ActivityClass::Operation => &mut activeness.op,
                    ActivityClass::Outcome => &mut activeness.oc,
                };
                *class = if class.is_zero() { rank } else { *class * rank };
            }
            if known {
                rows.push((user, activeness));
            }
        }
        rows.into_iter().collect()
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
    fn users_first_seen_after_tc_read_back_neutral() {
        let (mut streaming, job, publication) = setup();
        streaming.register_user(UserId(1));
        // User 9 is not registered and has events only in the future.
        streaming.observe(ActivityEvent::new(UserId(9), publication, day(20), 3.0));
        streaming.observe(ActivityEvent::new(UserId(9), job, day(30), 3.0));
        let early = streaming.evaluate(day(10));
        assert!(early.contains(UserId(1)));
        assert!(!early.contains(UserId(9)));
        assert_eq!(early.get(UserId(9)), UserActiveness::NEUTRAL);
        // From the first event on, the user is known; the job is still
        // ahead, so the operation rank is zero.
        let later = streaming.evaluate(day(20));
        assert!(later.contains(UserId(9)));
        assert!(later.get(UserId(9)).oc.is_active());
        assert!(later.get(UserId(9)).op.is_zero());
        assert_eq!(streaming.retained_events(), 2);
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
