//! User activeness evaluation (§3.2, Eqs. 1-6).
//!
//! For each user and each activity type `λ`, the evaluator buckets the
//! user's recent activities into `m` periods of length `d` counted back from
//! the evaluation instant `t_c` (Eq. 4), computes the per-period activeness
//! `D_{p_e}` and the per-period average `Avg(D_{A_λ}) = Σ D_{a_i} / m`
//! (Eq. 2), forms the activeness ratios `b_{p_e} = D_{p_e}/Avg` (Eq. 3), and
//! combines them into the recency-weighted rank
//! `Φ_λ = Π_e (b_{p_e})^e` (Eq. 5, computed in log domain — see
//! [`crate::rank`]). Per-class ranks multiply the per-type ranks (Eq. 6).
//!
//! Interpretation notes (documented in DESIGN.md §4):
//!
//! * Periods with no activity contribute a **neutral factor** to the
//!   product rather than a zero factor. Under the zero reading every user
//!   with a single idle week would collapse to `Φ = 0`, which contradicts
//!   the continuum of ranks in the paper's Fig. 5.
//! * A (user, type) pair with **no activity at all** inside the window
//!   yields `Φ_λ = 0` — the mass of users on the `0` axis ticks of Fig. 5.
//! * A *class* rank multiplies only the types that have activity; if no
//!   type in the class has any, the class rank is `0`.
//! * Users entirely unknown to the table (new accounts) default to the
//!   neutral rank `Φ = 1` per §3.4.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::config::ActivenessConfig;
use crate::convert;
use crate::event::{ActivityClass, ActivityEvent, ActivityTypeId, ActivityTypeRegistry};
use crate::rank::Rank;
use crate::time::Timestamp;
use crate::user::UserId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a period with zero recorded activity enters the Eq. (5) product.
/// Exposed for the ablation study; the default is [`EmptyPeriods::Neutral`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EmptyPeriods {
    /// Empty periods contribute factor 1 (skip them).
    #[default]
    Neutral,
    /// Empty periods contribute factor 0, zeroing the whole rank — the
    /// literal reading of Eqs. (3)+(5).
    Zero,
}

/// The evaluated activeness of one (user, activity-type) pair, with the
/// per-period detail behind the rank (the "time-series activeness rank
/// vector" of Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeActiveness {
    /// The recency-weighted rank `Φ_λ` (Eq. 5).
    pub rank: Rank,
    /// `D_{p_e}` indexed by `e − 1` (index `m − 1` is the newest period).
    pub period_activeness: Vec<f64>,
    /// `Avg(D_{A_λ})` over the window.
    pub average: f64,
    /// Number of activities that fell inside the window.
    pub events_in_window: usize,
}

impl TypeActiveness {
    /// The activeness ratio `b_{p_e}` for period `e` (1-based).
    ///
    /// # Panics
    /// Panics if `e` is 0 or beyond the evaluation window.
    pub fn ratio(&self, e: usize) -> f64 {
        assert!(
            e >= 1 && e <= self.period_activeness.len(),
            "period index out of range"
        );
        if crate::approx::is_exactly_zero(self.average) {
            0.0
        } else {
            self.period_activeness[e - 1] / self.average
        }
    }
}

/// Combined operation/outcome activeness of one user (the two axes of the
/// Fig. 4/Fig. 5 classification matrix).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UserActiveness {
    /// Operation-class rank `Φ_op`.
    pub op: Rank,
    /// Outcome-class rank `Φ_oc`.
    pub oc: Rank,
}

impl UserActiveness {
    /// The §3.4 default for users not yet evaluated: rank 1 on both axes.
    pub const NEUTRAL: UserActiveness = UserActiveness {
        op: Rank::NEUTRAL,
        oc: Rank::NEUTRAL,
    };

    /// Pair an operation rank with an outcome rank.
    pub fn new(op: Rank, oc: Rank) -> Self {
        UserActiveness { op, oc }
    }
}

/// The result of an activeness evaluation pass: a rank pair per known user.
///
/// Users absent from the table are *new* and read back as
/// [`UserActiveness::NEUTRAL`] (§3.4: initial rank 1.0 so their files get
/// the full initial lifetime on the first scan).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActivenessTable {
    map: BTreeMap<UserId, UserActiveness>,
}

impl ActivenessTable {
    /// An empty table (every user reads back neutral).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the evaluated rank pair for `user`.
    pub fn insert(&mut self, user: UserId, activeness: UserActiveness) {
        self.map.insert(user, activeness);
    }

    /// Rank pair for `user`; neutral if the user is unknown (new account).
    pub fn get(&self, user: UserId) -> UserActiveness {
        self.map
            .get(&user)
            .copied()
            .unwrap_or(UserActiveness::NEUTRAL)
    }

    /// Whether the user was present in the evaluated population.
    pub fn contains(&self, user: UserId) -> bool {
        self.map.contains_key(&user)
    }

    /// Number of evaluated users.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no user has been evaluated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All evaluated `(user, rank pair)` entries, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, UserActiveness)> + '_ {
        self.map.iter().map(|(u, a)| (*u, *a))
    }

    /// All evaluated users, in arbitrary order.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.map.keys().copied()
    }
}

impl FromIterator<(UserId, UserActiveness)> for ActivenessTable {
    fn from_iter<T: IntoIterator<Item = (UserId, UserActiveness)>>(iter: T) -> Self {
        ActivenessTable {
            map: iter.into_iter().collect(),
        }
    }
}

/// The user-activeness evaluation algorithm.
#[derive(Debug, Clone)]
pub struct ActivenessEvaluator {
    registry: ActivityTypeRegistry,
    config: ActivenessConfig,
    empty_periods: EmptyPeriods,
}

impl ActivenessEvaluator {
    /// An evaluator over the given activity types and window configuration.
    pub fn new(registry: ActivityTypeRegistry, config: ActivenessConfig) -> Self {
        ActivenessEvaluator {
            registry,
            config,
            empty_periods: EmptyPeriods::default(),
        }
    }

    /// Select the empty-period semantics (ablation hook).
    pub fn with_empty_periods(mut self, semantics: EmptyPeriods) -> Self {
        self.empty_periods = semantics;
        self
    }

    /// The activity-type registry this evaluator was built with.
    pub fn registry(&self) -> &ActivityTypeRegistry {
        &self.registry
    }

    /// The window configuration this evaluator was built with.
    pub fn config(&self) -> ActivenessConfig {
        self.config
    }

    /// Bucket one (user, type) activity stream into periods and compute its
    /// rank. `impacts` are `(timestamp, weighted impact)` pairs in any
    /// order; events outside the window (older than `m·d`, or in the
    /// future) are ignored.
    pub fn type_activeness<I>(&self, tc: Timestamp, impacts: I) -> TypeActiveness
    where
        I: IntoIterator<Item = (Timestamp, f64)>,
    {
        let mut out = TypeActiveness {
            rank: Rank::ZERO,
            period_activeness: Vec::new(),
            average: 0.0,
            events_in_window: 0,
        };
        self.type_activeness_into(tc, impacts, &mut out);
        out
    }

    /// [`Self::type_activeness`] into `out`, reusing the allocation of
    /// `out.period_activeness`. This is the one implementation of the
    /// bucket and rank arithmetic (Eqs. 2–5); the streaming evaluator
    /// calls it with one scratch value for all its windows.
    pub(crate) fn type_activeness_into<I>(
        &self,
        tc: Timestamp,
        impacts: I,
        out: &mut TypeActiveness,
    ) where
        I: IntoIterator<Item = (Timestamp, f64)>,
    {
        let m = self.config.periods_in_window as usize;
        let buckets = &mut out.period_activeness;
        buckets.clear();
        buckets.resize(m, 0.0);
        out.events_in_window = 0;
        for (ts, impact) in impacts {
            if ts > tc {
                continue; // future event (trace clock skew); not yet observable
            }
            debug_assert!(impact >= 0.0 && impact.is_finite());
            // Eq. (4): e = m − ⌈(t_c − ts)/d⌉ + 1, with an activity exactly
            // at t_c landing in the newest period.
            let periods_back = tc.age_since(ts).div_ceil_periods(self.config.period).max(1);
            // `periods_back >= 1`, so only an age past `usize::MAX` periods
            // fails the conversion, and that is older than any window.
            let Ok(periods_back) = usize::try_from(periods_back) else {
                continue;
            };
            // Period e lives at index e − 1 = m − periods_back; more than
            // m periods back is older than the window.
            let Some(bucket) = m
                .checked_sub(periods_back)
                .and_then(|idx| buckets.get_mut(idx))
            else {
                continue;
            };
            *bucket += impact;
            out.events_in_window += 1;
        }

        out.rank = Rank::ZERO;
        out.average = 0.0;
        let total: f64 = buckets.iter().sum();
        if total <= 0.0 {
            return;
        }
        let average = total / convert::approx_f64_usize(m); // Eq. (2)
        out.average = average;

        // Eq. (5) in log domain: ln Φ = Σ_e e · ln(b_{p_e}).
        let ln_average = average.ln();
        let mut ln_phi = 0.0f64;
        for (idx, &d_pe) in buckets.iter().enumerate() {
            let e = convert::approx_f64_usize(idx + 1);
            if d_pe > 0.0 {
                ln_phi += e * (d_pe.ln() - ln_average);
            } else if self.empty_periods == EmptyPeriods::Zero {
                return;
            }
        }
        out.rank = Rank::from_ln(ln_phi);
    }

    /// Evaluate the whole population: every user in `known_users` gets an
    /// entry (zero ranks if idle); `events` may mention only a subset.
    ///
    /// Events whose user is not in `known_users` are still evaluated — the
    /// trace is the authority on who exists.
    pub fn evaluate(
        &self,
        tc: Timestamp,
        known_users: &[UserId],
        events: &[ActivityEvent],
    ) -> ActivenessTable {
        // Group (user, type) -> impact list, applying type weights once.
        let mut grouped: BTreeMap<(UserId, ActivityTypeId), Vec<(Timestamp, f64)>> =
            BTreeMap::new();
        for ev in events {
            grouped
                .entry((ev.user, ev.kind))
                .or_default()
                .push((ev.ts, ev.weighted_impact(&self.registry)));
        }

        // Per-type ranks are multiplied in ascending type-id order:
        // floating-point products are not associative, so a fixed order is
        // required for run-to-run determinism (and for bitwise equivalence
        // with the streaming evaluator).
        type TypeRanks = Vec<(ActivityTypeId, Rank)>;
        let mut per_user: BTreeMap<UserId, (TypeRanks, TypeRanks)> = BTreeMap::new();
        for u in known_users {
            per_user.entry(*u).or_default();
        }
        for ((user, kind), impacts) in grouped {
            let ta = self.type_activeness(tc, impacts);
            let slot = per_user.entry(user).or_default();
            match self.registry.spec(kind).class {
                ActivityClass::Operation => slot.0.push((kind, ta.rank)),
                ActivityClass::Outcome => slot.1.push((kind, ta.rank)),
            }
        }

        per_user
            .into_iter()
            .map(|(user, (mut op_ranks, mut oc_ranks))| {
                op_ranks.sort_by_key(|(kind, _)| *kind);
                oc_ranks.sort_by_key(|(kind, _)| *kind);
                let op: Vec<Rank> = op_ranks.into_iter().map(|(_, r)| r).collect();
                let oc: Vec<Rank> = oc_ranks.into_iter().map(|(_, r)| r).collect();
                (user, UserActiveness::new(class_rank(&op), class_rank(&oc)))
            })
            .collect()
    }
}

/// Eq. (6): the class rank is the product of the per-type ranks, taken over
/// the types that have any activity; zero when none do.
fn class_rank(type_ranks: &[Rank]) -> Rank {
    let active: Vec<Rank> = type_ranks
        .iter()
        .copied()
        .filter(|r| !r.is_zero())
        .collect();
    if active.is_empty() {
        Rank::ZERO
    } else {
        active.into_iter().product()
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;
    use crate::event::ActivityTypeSpec;
    use crate::time::TimeDelta;

    fn day(d: f64) -> Timestamp {
        Timestamp::from_days_f64(d)
    }

    fn evaluator(period_days: u32, m: u32) -> ActivenessEvaluator {
        ActivenessEvaluator::new(
            ActivityTypeRegistry::paper_default(),
            ActivenessConfig::new(period_days, m),
        )
    }

    #[test]
    fn hand_computed_rank_matches_eq5() {
        // m = 5 one-day periods, t_c = day 5.
        // Events: day 4.5 impact 10 (e=5), day 3.5 impact 5 (e=4),
        //         day 0.5 impact 5 (e=1).
        // total = 20, avg = 4, b5 = 2.5, b4 = 1.25, b1 = 1.25.
        // Φ = 2.5^5 · 1.25^4 · 1.25^1 = 298.0232238769531.
        let ev = evaluator(1, 5);
        let ta = ev.type_activeness(
            day(5.0),
            vec![(day(4.5), 10.0), (day(3.5), 5.0), (day(0.5), 5.0)],
        );
        assert_eq!(ta.events_in_window, 3);
        assert!((ta.average - 4.0).abs() < 1e-12);
        assert!((ta.ratio(5) - 2.5).abs() < 1e-12);
        assert!((ta.ratio(4) - 1.25).abs() < 1e-12);
        assert!((ta.ratio(1) - 1.25).abs() < 1e-12);
        assert!((ta.rank.value() - 298.0232238769531).abs() < 1e-9);
        assert!(ta.rank.is_active());
    }

    #[test]
    fn uniform_activity_is_exactly_neutral() {
        // Equal impact in every period: every b = 1 so Φ = 1.
        let ev = evaluator(1, 4);
        let impacts: Vec<_> = (0..4).map(|i| (day(i as f64 + 0.5), 3.0)).collect();
        let ta = ev.type_activeness(day(4.0), impacts);
        assert!((ta.rank.value() - 1.0).abs() < 1e-12);
        assert!(ta.rank.is_active()); // Φ ≥ 1 counts as active
    }

    #[test]
    fn recent_concentration_beats_old_concentration() {
        let ev = evaluator(7, 10);
        let tc = day(70.0);
        let recent = ev.type_activeness(tc, vec![(day(69.0), 8.0)]);
        let old = ev.type_activeness(tc, vec![(day(1.0), 8.0)]);
        // Single event in period e: Φ = m^e.
        assert!((recent.rank.value() - 10f64.powi(10)).abs() / 10f64.powi(10) < 1e-9);
        assert!((old.rank.value() - 10.0).abs() < 1e-9);
        assert!(recent.rank > old.rank);
        // Old-only activity is still "active" by the Φ ≥ 1 rule but ranked
        // far below the recent user, so it is scanned (purged) first.
        assert!(old.rank.is_active());
    }

    #[test]
    fn no_events_in_window_is_zero_rank() {
        let ev = evaluator(7, 4); // window = 28 days
        let tc = day(100.0);
        let ta = ev.type_activeness(tc, vec![(day(10.0), 50.0)]); // 90 days old
        assert!(ta.rank.is_zero());
        assert_eq!(ta.events_in_window, 0);
        assert_eq!(ta.average, 0.0);
        let empty = ev.type_activeness(tc, vec![]);
        assert!(empty.rank.is_zero());
    }

    #[test]
    fn future_events_are_ignored() {
        let ev = evaluator(7, 4);
        let tc = day(28.0);
        let ta = ev.type_activeness(tc, vec![(day(30.0), 99.0), (day(27.0), 1.0)]);
        assert_eq!(ta.events_in_window, 1);
    }

    #[test]
    fn event_exactly_at_tc_lands_in_newest_period() {
        let ev = evaluator(7, 4);
        let tc = day(28.0);
        let ta = ev.type_activeness(tc, vec![(tc, 5.0)]);
        assert_eq!(ta.events_in_window, 1);
        assert!(ta.period_activeness[3] > 0.0);
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let ev = evaluator(7, 4); // window = 28 days
        let tc = day(28.0);
        // Exactly 28 days old: ⌈28/7⌉ = 4 = m → oldest period, still in.
        let ta = ev.type_activeness(tc, vec![(day(0.0), 5.0)]);
        assert_eq!(ta.events_in_window, 1);
        assert!(ta.period_activeness[0] > 0.0);
        // One second older: out.
        let ta2 = ev.type_activeness(tc, vec![(Timestamp(day(0.0).secs() - 1), 5.0)]);
        assert_eq!(ta2.events_in_window, 0);
    }

    #[test]
    fn zero_semantics_kills_rank_on_any_idle_period() {
        let reg = ActivityTypeRegistry::paper_default();
        let ev = ActivenessEvaluator::new(reg, ActivenessConfig::new(1, 3))
            .with_empty_periods(EmptyPeriods::Zero);
        let ta = ev.type_activeness(day(3.0), vec![(day(2.5), 5.0), (day(1.5), 5.0)]);
        assert!(ta.rank.is_zero()); // period 1 idle
        let full = ev.type_activeness(
            day(3.0),
            vec![(day(2.5), 5.0), (day(1.5), 5.0), (day(0.5), 5.0)],
        );
        assert!(!full.rank.is_zero());
    }

    #[test]
    fn long_jobs_not_penalized_by_impact_scale() {
        // Scaling all impacts by a constant leaves every b, hence Φ, fixed.
        let ev = evaluator(7, 6);
        let tc = day(42.0);
        let base = vec![(day(40.0), 2.0), (day(30.0), 1.0), (day(5.0), 4.0)];
        let scaled: Vec<_> = base.iter().map(|(t, i)| (*t, i * 1000.0)).collect();
        let a = ev.type_activeness(tc, base);
        let b = ev.type_activeness(tc, scaled);
        assert!((a.rank.ln() - b.rank.ln()).abs() < 1e-9);
    }

    #[test]
    fn evaluate_population_classifies_idle_known_users_as_zero() {
        let reg = ActivityTypeRegistry::paper_default();
        let job = reg.lookup("job_submission").unwrap();
        let ev = ActivenessEvaluator::new(reg, ActivenessConfig::new(7, 4));
        let tc = day(28.0);
        let events = vec![ActivityEvent::new(UserId(1), job, day(27.0), 100.0)];
        let table = ev.evaluate(tc, &[UserId(1), UserId(2)], &events);
        assert_eq!(table.len(), 2);
        assert!(table.get(UserId(1)).op.is_active());
        assert!(table.get(UserId(1)).oc.is_zero()); // no publications
        assert!(table.get(UserId(2)).op.is_zero());
        assert!(table.get(UserId(2)).oc.is_zero());
        // Unknown user (new account) reads back neutral.
        assert!(!table.contains(UserId(9)));
        assert_eq!(table.get(UserId(9)), UserActiveness::NEUTRAL);
    }

    #[test]
    fn evaluate_trusts_trace_for_unlisted_users() {
        let reg = ActivityTypeRegistry::paper_default();
        let job = reg.lookup("job_submission").unwrap();
        let ev = ActivenessEvaluator::new(reg, ActivenessConfig::new(7, 4));
        let events = vec![ActivityEvent::new(UserId(5), job, day(27.0), 1.0)];
        let table = ev.evaluate(day(28.0), &[], &events);
        assert!(table.contains(UserId(5)));
    }

    #[test]
    fn class_rank_multiplies_only_types_with_activity() {
        assert!(class_rank(&[]).is_zero());
        assert!(class_rank(&[Rank::ZERO, Rank::ZERO]).is_zero());
        let r = class_rank(&[Rank::from_value(2.0), Rank::ZERO, Rank::from_value(3.0)]);
        assert!((r.value() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn type_weights_shift_class_products_not_type_ranks() {
        // Weighting a type's impact rescales its bucket sums uniformly, so
        // the per-type rank is unchanged (ratios cancel) — weights matter
        // when classes mix types with *different* temporal profiles.
        let mut reg = ActivityTypeRegistry::new();
        let t = reg.register(ActivityTypeSpec::new("x", ActivityClass::Operation).with_weight(5.0));
        let ev = ActivenessEvaluator::new(reg, ActivenessConfig::new(1, 3));
        let tc = day(3.0);
        let events = vec![
            ActivityEvent::new(UserId(0), t, day(2.5), 1.0),
            ActivityEvent::new(UserId(0), t, day(0.5), 3.0),
        ];
        let table = ev.evaluate(tc, &[UserId(0)], &events);
        // Same as unweighted impacts (1, 3).
        let reg2 = {
            let mut r = ActivityTypeRegistry::new();
            r.register(ActivityTypeSpec::new("x", ActivityClass::Operation));
            r
        };
        let ev2 = ActivenessEvaluator::new(reg2, ActivenessConfig::new(1, 3));
        let table2 = ev2.evaluate(tc, &[UserId(0)], &events);
        assert!((table.get(UserId(0)).op.ln() - table2.get(UserId(0)).op.ln()).abs() < 1e-9);
    }

    #[test]
    fn window_excludes_but_counts_only_window_events() {
        let ev = evaluator(7, 4);
        assert_eq!(ev.config().window(), TimeDelta::from_days(28));
        let tc = day(100.0);
        let ta = ev.type_activeness(
            tc,
            vec![(day(99.0), 1.0), (day(50.0), 100.0), (day(98.0), 1.0)],
        );
        assert_eq!(ta.events_in_window, 2);
        assert!((ta.average - 0.5).abs() < 1e-12);
    }
}
