//! Property-based tests for the activeness model and retention policies.

#![allow(
    clippy::cast_possible_truncation,
    reason = "property inputs are tiny; casts cannot truncate"
)]

use activedr_core::convert;
use activedr_core::prelude::*;
use proptest::prelude::*;
use proptest::strategy::ValueTree;

fn evaluator(period_days: u32, m: u32) -> ActivenessEvaluator {
    ActivenessEvaluator::new(
        ActivityTypeRegistry::paper_default(),
        ActivenessConfig::new(period_days, m),
    )
}

/// Arbitrary activity history: (day offset in window, impact) pairs.
fn history(max_days: i64) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(
        (0.0..convert::approx_f64_i64(max_days), 0.01f64..1000.0),
        0..40,
    )
}

proptest! {
    /// Scaling every impact by a positive constant leaves the rank
    /// unchanged — long jobs are not rewarded merely for being long
    /// relative to *other users* (§3.2 末: ratios are within-user).
    #[test]
    fn rank_is_scale_invariant(hist in history(70), scale in 0.001f64..1e6) {
        let ev = evaluator(7, 10);
        let tc = Timestamp::from_days(70);
        let base: Vec<_> = hist.iter()
            .map(|(d, i)| (Timestamp::from_days_f64(*d), *i)).collect();
        let scaled: Vec<_> = base.iter().map(|(t, i)| (*t, i * scale)).collect();
        let a = ev.type_activeness(tc, base);
        let b = ev.type_activeness(tc, scaled);
        if a.rank.is_zero() {
            prop_assert!(b.rank.is_zero());
        } else {
            prop_assert!((a.rank.ln() - b.rank.ln()).abs() < 1e-6 * (1.0 + a.rank.ln().abs()));
        }
    }

    /// A single activity in a more recent period never ranks below the same
    /// activity in an older period (the Eq. 5 recency weighting).
    #[test]
    fn single_event_recency_monotone(
        impact in 0.01f64..1e6,
        older in 0i64..9,
    ) {
        let ev = evaluator(7, 10);
        let tc = Timestamp::from_days(70);
        // Place events mid-period to avoid boundary ties.
        let newer_ts = Timestamp::from_days_f64(66.5 - 0.0);
        let older_ts = Timestamp::from_days_f64(66.5 - 7.0 * (convert::approx_f64_i64(older) + 1.0));
        let newer = ev.type_activeness(tc, vec![(newer_ts, impact)]);
        let old = ev.type_activeness(tc, vec![(older_ts, impact)]);
        prop_assert!(newer.rank >= old.rank);
    }

    /// The evaluated table always classifies; every user lands in exactly
    /// one quadrant and shares sum to 1.
    #[test]
    fn classification_partitions_population(
        users in prop::collection::vec(0u32..500, 1..100),
    ) {
        let ev = evaluator(7, 4);
        let mut ids: Vec<UserId> = users.iter().map(|u| UserId(*u)).collect();
        ids.sort_unstable();
        ids.dedup();
        let table = ev.evaluate(Timestamp::from_days(28), &ids, &[]);
        let c = Classification::from_table(&table);
        prop_assert_eq!(c.total_users(), ids.len());
        let s = c.shares();
        prop_assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // With no events at all everyone is both-inactive.
        prop_assert_eq!(c.group(Quadrant::BothInactive).len(), ids.len());
    }
}

proptest! {
    /// The streaming evaluator is bitwise-equivalent to the batch
    /// evaluator for any event stream over the full multi-type Table 2
    /// registry and any forward sequence of evaluation instants, fed the
    /// way the replay engine feeds it: every event is observed, in one
    /// fixed order, before the first evaluation. Users 6..10 are not
    /// registered, so one whose first event falls after an evaluation
    /// instant must be missing from that table, as in the batch table.
    /// Both empty-period readings are covered.
    #[test]
    fn streaming_equals_batch(
        events in prop::collection::vec(
            (0u32..10, 0u8..7, 0.0f64..400.0, 0.01f64..1e4),
            0..60,
        ),
        eval_days in prop::collection::vec(0i64..500, 1..5),
    ) {
        // The extended registry exercises several types per class, so the
        // class-rank product paths are covered too.
        let registry = ActivityTypeRegistry::extended();
        let config = ActivenessConfig::new(7, 10);
        let registered: Vec<UserId> = (0..6).map(UserId).collect();

        let events: Vec<ActivityEvent> = events
            .into_iter()
            .map(|(u, kind, day, impact)| {
                ActivityEvent::new(
                    UserId(u),
                    activedr_core::event::ActivityTypeId(kind as u16 % registry.len() as u16),
                    Timestamp::from_days_f64(day),
                    impact,
                )
            })
            .collect();

        let mut days = eval_days;
        days.sort_unstable(); // streaming time must move forward
        for semantics in [EmptyPeriods::Neutral, EmptyPeriods::Zero] {
            let batch = ActivenessEvaluator::new(registry.clone(), config)
                .with_empty_periods(semantics);
            let mut streaming = StreamingEvaluator::new(registry.clone(), config)
                .with_empty_periods(semantics);
            for &u in &registered {
                streaming.register_user(u);
            }
            streaming.observe_all(events.iter().copied());

            for &day in &days {
                let tc = Timestamp::from_days(day);
                let s = streaming.evaluate(tc);
                let visible: Vec<ActivityEvent> =
                    events.iter().filter(|e| e.ts <= tc).copied().collect();
                let b = batch.evaluate(tc, &registered, &visible);
                prop_assert_eq!(s.len(), b.len(), "{:?} day {} table size", semantics, day);
                for u in (0..10).map(UserId) {
                    prop_assert_eq!(
                        s.contains(u),
                        b.contains(u),
                        "{:?} day {} user {} listed", semantics, day, u
                    );
                    prop_assert_eq!(
                        s.get(u).op.ln().to_bits(),
                        b.get(u).op.ln().to_bits(),
                        "{:?} day {} user {} op", semantics, day, u
                    );
                    prop_assert_eq!(
                        s.get(u).oc.ln().to_bits(),
                        b.get(u).oc.ln().to_bits(),
                        "{:?} day {} user {} oc", semantics, day, u
                    );
                }
            }
        }
    }
}

/// Arbitrary catalog: up to 8 users, each with up to 20 files.
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    prop::collection::vec(
        prop::collection::vec(
            (1u64..1_000_000, 0i64..400, prop::bool::weighted(0.1)),
            0..20,
        ),
        1..8,
    )
    .prop_map(|users| {
        let mut next_id = 0u64;
        Catalog::new(
            users
                .into_iter()
                .enumerate()
                .map(|(u, files)| {
                    UserFiles::new(
                        UserId(u as u32),
                        files
                            .into_iter()
                            .map(|(size, atime_day, exempt)| {
                                next_id += 1;
                                let mut f = FileRecord::new(
                                    FileId(next_id),
                                    size,
                                    Timestamp::from_days(atime_day),
                                );
                                f.exempt = exempt;
                                f
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    })
}

fn arb_table(n_users: u32) -> impl Strategy<Value = ActivenessTable> {
    prop::collection::vec((0.0f64..20.0, 0.0f64..20.0), n_users as usize).prop_map(|ranks| {
        ranks
            .into_iter()
            .enumerate()
            .map(|(u, (op, oc))| {
                (
                    UserId(u as u32),
                    UserActiveness::new(Rank::from_value(op), Rank::from_value(oc)),
                )
            })
            .collect()
    })
}

proptest! {
    /// FLT purges exactly the stale non-exempt set, regardless of owners.
    #[test]
    fn flt_purges_exactly_stale_set(catalog in arb_catalog(), lifetime in 1u32..365) {
        let table = ActivenessTable::new();
        let tc = Timestamp::from_days(400);
        let policy = FltPolicy::days(lifetime);
        let out = policy.run(PurgeRequest { tc, catalog: &catalog, activeness: &table, target_bytes: None });
        let mut expected = 0u64;
        for uf in &catalog.users {
            for f in &uf.files {
                if !f.exempt && tc.age_since(f.atime) > TimeDelta::from_days(lifetime as i64) {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(out.purged_files(), expected);
        let bytes: u64 = out.purged.iter().map(|p| p.size).sum();
        prop_assert_eq!(bytes, out.purged_bytes);
    }

    /// ActiveDR invariants: no exempt file purged, no file purged twice,
    /// purged bytes consistent, and the target — when met — is not wildly
    /// overshot (overshoot is bounded by the last purged file).
    #[test]
    fn activedr_invariants(
        catalog in arb_catalog(),
        target in prop::option::of(1u64..5_000_000),
        lifetime in 1u32..365,
    ) {
        let n = catalog.users.len() as u32;
        let table_strategy = arb_table(n);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let table = table_strategy.new_tree(&mut runner).unwrap().current();

        let tc = Timestamp::from_days(400);
        let policy = ActiveDrPolicy::new(RetentionConfig::new(lifetime));
        let out = policy.run(PurgeRequest { tc, catalog: &catalog, activeness: &table, target_bytes: target });

        // No duplicates.
        let mut ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before);

        // Purged files exist in the catalog, are not exempt, and byte
        // accounting matches.
        let mut bytes = 0u64;
        for p in &out.purged {
            let uf = catalog.get(p.user).expect("purged file from unknown user");
            let f = uf.files.iter().find(|f| f.id == p.id).expect("purged unknown file");
            prop_assert!(!f.exempt, "exempt file purged");
            prop_assert_eq!(f.size, p.size);
            bytes += p.size;
        }
        prop_assert_eq!(bytes, out.purged_bytes);

        if let Some(t) = target {
            if out.target_met {
                prop_assert!(out.purged_bytes >= t);
                // Overshoot bounded by final file size.
                if let Some(last) = out.purged.last() {
                    prop_assert!(out.purged_bytes - last.size < t);
                }
            }
        } else {
            prop_assert!(out.target_met);
        }
    }

    /// With no target, ActiveDR's stale test per user is exactly
    /// age > d·multiplier — cross-check against a naive reimplementation.
    #[test]
    fn activedr_unbounded_matches_naive_model(
        catalog in arb_catalog(),
        lifetime in 1u32..200,
    ) {
        let n = catalog.users.len() as u32;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let table = arb_table(n).new_tree(&mut runner).unwrap().current();
        let tc = Timestamp::from_days(400);
        let cfg = RetentionConfig::new(lifetime);
        let policy = ActiveDrPolicy::new(cfg);
        let out = policy.run(PurgeRequest { tc, catalog: &catalog, activeness: &table, target_bytes: None });

        let mut expected: Vec<u64> = Vec::new();
        for uf in &catalog.users {
            let mult = policy.multiplier(table.get(uf.user), 0);
            let eps = cfg.initial_lifetime.scale(mult);
            for f in &uf.files {
                if !f.exempt && tc.age_since(f.atime) > eps {
                    expected.push(f.id.0);
                }
            }
        }
        expected.sort_unstable();
        let mut got: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Breakdown conservation: purged + retained == catalog totals.
    #[test]
    fn breakdown_conserves_bytes(catalog in arb_catalog(), lifetime in 1u32..365) {
        let n = catalog.users.len() as u32;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let table = arb_table(n).new_tree(&mut runner).unwrap().current();
        let tc = Timestamp::from_days(400);
        let out = ActiveDrPolicy::new(RetentionConfig::new(lifetime))
            .run(PurgeRequest { tc, catalog: &catalog, activeness: &table, target_bytes: Some(1_000) });
        let b = RetentionBreakdown::compute(&catalog, &table, &out);
        prop_assert_eq!(b.total_purged_bytes() + b.total_retained_bytes(), catalog.total_bytes());
        prop_assert_eq!(b.total_purged_bytes(), out.purged_bytes);
    }

    /// Rank decay is monotone: each retrospective pass never increases any
    /// user's multiplier.
    #[test]
    fn multiplier_monotone_in_pass(op in 0.0f64..100.0, oc in 0.0f64..100.0) {
        let p = ActiveDrPolicy::new(RetentionConfig::new(90));
        let a = UserActiveness::new(Rank::from_value(op), Rank::from_value(oc));
        let mut prev = p.multiplier(a, 0);
        for pass in 1..=5 {
            let m = p.multiplier(a, pass);
            prop_assert!(m <= prev + 1e-12);
            prev = m;
        }
    }
}

/// The §3.4 procedure as it ran before the scan ordered lazily: every
/// user's files stable-sorted by atime up front, one monotone cursor per
/// user. Besides the outcome, reports whether the target was met with a
/// stale file of the last user still unvisited (the scan stopped
/// mid-user).
fn eager_reference(policy: &ActiveDrPolicy, request: PurgeRequest<'_>) -> (RetentionOutcome, bool) {
    let mut table = request.activeness.clone();
    for uf in &request.catalog.users {
        if !table.contains(uf.user) {
            table.insert(uf.user, UserActiveness::NEUTRAL);
        }
    }
    let classification = Classification::from_table(&table);
    let mut cursors: std::collections::HashMap<UserId, (Vec<&FileRecord>, usize)> = request
        .catalog
        .users
        .iter()
        .map(|uf| {
            let mut order: Vec<&FileRecord> = uf.files.iter().collect();
            order.sort_by_key(|f| f.atime);
            (uf.user, (order, 0))
        })
        .collect();
    let cfg = policy.config;
    let mut outcome = RetentionOutcome::default();
    let target = request.target_bytes;
    if target == Some(0) {
        outcome.target_met = true;
        return (outcome, false);
    }
    let max_pass = if target.is_some() {
        cfg.retro_passes
    } else {
        0
    };
    for quadrant in Quadrant::SCAN_ORDER {
        let mut scan = GroupScan {
            quadrant,
            passes: 0,
            purged_files: 0,
            purged_bytes: 0,
        };
        for pass in 0..=max_pass {
            scan.passes += 1;
            for cu in classification.group(quadrant) {
                let Some((order, cursor)) = cursors.get_mut(&cu.user) else {
                    continue;
                };
                let eps = cfg
                    .initial_lifetime
                    .scale(policy.multiplier(cu.activeness, pass));
                let cutoff = Timestamp(request.tc.secs().saturating_sub(eps.secs()));
                while let Some(&file) = order.get(*cursor) {
                    if file.atime >= cutoff {
                        break;
                    }
                    *cursor += 1;
                    if file.exempt {
                        outcome.exempt_skipped += 1;
                        continue;
                    }
                    outcome.purged.push(PurgedFile {
                        user: cu.user,
                        id: file.id,
                        size: file.size,
                    });
                    outcome.purged_bytes += file.size;
                    scan.purged_files += 1;
                    scan.purged_bytes += file.size;
                    if target.is_some_and(|t| outcome.purged_bytes >= t) {
                        outcome.target_met = true;
                        outcome.group_scans.push(scan);
                        let mid_user = order.get(*cursor).is_some_and(|f| f.atime < cutoff);
                        return (outcome, mid_user);
                    }
                }
            }
        }
        outcome.group_scans.push(scan);
    }
    if target.is_none() {
        outcome.target_met = true;
    }
    (outcome, false)
}

/// A purge request's inputs: a catalog whose atimes come from a few
/// distinct instants (so ties are common), a table that leaves some
/// catalog users out and lists some users with no files, and a target
/// anywhere from none to more than the catalog holds.
#[derive(Debug, Clone)]
struct LazyCase {
    catalog: Catalog,
    table: ActivenessTable,
    target: Option<u64>,
    lifetime: u32,
    raw: bool,
}

fn arb_lazy_case() -> impl Strategy<Value = LazyCase> {
    let files = prop::collection::vec((1u64..50, 0u32..12, prop::bool::weighted(0.15)), 0..48);
    let user = (files, prop::option::of((0.0f64..6.0, 0.0f64..6.0)));
    (
        prop::collection::vec(user, 1..10),
        prop::collection::vec((0.0f64..6.0, 0.0f64..6.0), 0..3),
        prop::option::of(0u64..600),
        5u32..120,
        prop::bool::weighted(0.3),
    )
        .prop_map(|(users, extra, target, lifetime, raw)| {
            let mut next_id = 0u64;
            let mut table = ActivenessTable::new();
            let mut listings = Vec::new();
            for (u, (files, ranks)) in users.into_iter().enumerate() {
                let user = UserId(2 * u as u32);
                if let Some((op, oc)) = ranks {
                    table.insert(
                        user,
                        UserActiveness::new(Rank::from_value(op), Rank::from_value(oc)),
                    );
                }
                let files = files
                    .into_iter()
                    .map(|(size, slot, exempt)| {
                        next_id += 1;
                        // Twelve instants, ten days apart, ending at t_c.
                        let atime = Timestamp::from_days(290 + 10 * i64::from(slot));
                        let mut f = FileRecord::new(FileId(next_id), size, atime);
                        f.exempt = exempt;
                        f
                    })
                    .collect();
                listings.push(UserFiles::new(user, files));
            }
            // Odd ids never own files: table entries the scan must skip.
            for (k, (op, oc)) in extra.into_iter().enumerate() {
                table.insert(
                    UserId(2 * k as u32 + 1),
                    UserActiveness::new(Rank::from_value(op), Rank::from_value(oc)),
                );
            }
            LazyCase {
                catalog: Catalog::new(listings),
                table,
                target,
                lifetime,
                raw,
            }
        })
}

/// `ActiveDrPolicy::run` orders each user's files lazily; its outcome must
/// equal the eager full-sort reference above in every observable: the
/// purged list in order, the per-group scans, the exempt count and
/// whether the target was met. The run also tallies that the cases
/// reached every shape the lazy order has to get right.
#[test]
fn activedr_lazy_order_equals_eager_sort() {
    use std::cell::RefCell;
    #[derive(Debug, Default)]
    struct Seen {
        purged_ties: u32,
        exempt_skipped: u32,
        stopped_mid_user: u32,
        retro_purges: u32,
        no_target: u32,
        missing_from_table: u32,
    }
    let seen = RefCell::new(Seen::default());
    proptest::test_runner::run_cases(
        ProptestConfig::with_cases(512),
        "prop_core::activedr_lazy_order_equals_eager_sort",
        &arb_lazy_case(),
        |case| {
            let mut cfg = RetentionConfig::new(case.lifetime);
            if case.raw {
                cfg = cfg.with_adjust(LifetimeAdjust::Raw);
            }
            let policy = ActiveDrPolicy::new(cfg);
            let request = PurgeRequest {
                tc: Timestamp::from_days(400),
                catalog: &case.catalog,
                activeness: &case.table,
                target_bytes: case.target,
            };
            let got = policy.run(request);
            let (want, mid_user) = eager_reference(&policy, request);
            prop_assert_eq!(&got.purged, &want.purged);
            prop_assert_eq!(got.purged_bytes, want.purged_bytes);
            prop_assert_eq!(&got.group_scans, &want.group_scans);
            prop_assert_eq!(got.exempt_skipped, want.exempt_skipped);
            prop_assert_eq!(got.target_met, want.target_met);

            let atime_of = |id: FileId| {
                case.catalog
                    .users
                    .iter()
                    .flat_map(|u| &u.files)
                    .find(|f| f.id == id)
                    .map(|f| f.atime)
            };
            let tie = want
                .purged
                .windows(2)
                .any(|w| w[0].user == w[1].user && atime_of(w[0].id) == atime_of(w[1].id));
            let mut s = seen.borrow_mut();
            s.purged_ties += u32::from(tie);
            s.exempt_skipped += u32::from(want.exempt_skipped > 0);
            s.stopped_mid_user += u32::from(mid_user);
            s.retro_purges += u32::from(
                want.group_scans
                    .iter()
                    .any(|g| g.passes > 1 && g.purged_files > 0),
            );
            s.no_target += u32::from(case.target.is_none());
            s.missing_from_table += u32::from(
                case.catalog
                    .users
                    .iter()
                    .any(|u| !case.table.contains(u.user) && !u.files.is_empty()),
            );
        },
    );
    let seen = seen.into_inner();
    assert!(seen.purged_ties > 0, "{seen:?}");
    assert!(seen.exempt_skipped > 0, "{seen:?}");
    assert!(seen.stopped_mid_user > 0, "{seen:?}");
    assert!(seen.retro_purges > 0, "{seen:?}");
    assert!(seen.no_target > 0, "{seen:?}");
    assert!(seen.missing_from_table > 0, "{seen:?}");
}
