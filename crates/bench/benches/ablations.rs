//! Ablation benches for the design choices DESIGN.md §7 calls out:
//! log-domain vs saturating-linear rank arithmetic, retrospective-pass
//! depth, and lifetime-adjustment mode.

#![allow(
    clippy::indexing_slicing,
    reason = "bench harness code may panic on a broken fixture"
)]
#![allow(
    clippy::unwrap_used,
    reason = "bench harness code may panic on a broken fixture"
)]
#![allow(
    clippy::cast_possible_truncation,
    reason = "bench harness code may panic on a broken fixture"
)]

use activedr_bench::{decision_fixture, tiny_scenario};
use activedr_core::convert;
use activedr_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Saturating linear-domain rank product — the naive alternative to the
/// log-domain [`Rank`]; kept here purely as the ablation baseline.
fn linear_rank_product(ratios: &[(f64, u32)]) -> f64 {
    let mut phi = 1.0f64;
    for &(b, e) in ratios {
        phi *= b.powi(i32::try_from(e).unwrap());
        if phi.is_infinite() {
            return f64::MAX;
        }
    }
    phi
}

fn log_rank_product(ratios: &[(f64, u32)]) -> Rank {
    ratios
        .iter()
        .map(|&(b, e)| Rank::from_value(b).powi(e))
        .product()
}

fn bench(c: &mut Criterion) {
    // 1. Rank arithmetic: log-domain vs saturating linear.
    {
        let ratios: Vec<(f64, u32)> = (1..=53)
            .map(|e| (0.2 + (e as f64 * 0.37) % 4.0, e))
            .collect();
        let mut group = c.benchmark_group("ablation_rank_arithmetic");
        group.bench_function("log_domain", |b| {
            b.iter(|| black_box(log_rank_product(black_box(&ratios))).ln())
        });
        group.bench_function("saturating_linear", |b| {
            b.iter(|| black_box(linear_rank_product(black_box(&ratios))))
        });
        group.finish();
    }

    // 2. Retrospective depth and adjustment mode on a real catalog.
    let scenario = tiny_scenario();
    let fixture = decision_fixture(&scenario);
    let deep_target =
        convert::trunc_to_u64(convert::approx_f64(fixture.catalog.total_bytes()) * 0.7);

    {
        let mut group = c.benchmark_group("ablation_retro_passes");
        for passes in [0u32, 1, 3, 5] {
            group.bench_with_input(BenchmarkId::new("passes", passes), &passes, |b, &passes| {
                let policy = ActiveDrPolicy::new(RetentionConfig::new(30).with_retro(passes, 0.2));
                b.iter(|| {
                    black_box(policy.run(PurgeRequest {
                        tc: fixture.tc,
                        catalog: &fixture.catalog,
                        activeness: &fixture.table,
                        target_bytes: Some(deep_target),
                    }))
                    .purged_bytes
                })
            });
        }
        group.finish();
    }

    // 3. Weekly evaluation cadence over a quarter of weekly triggers:
    //    batch re-derivation vs streaming maintenance, fed the engine's
    //    way (the whole history once, in `activity_events` order, then
    //    one evaluation per week).
    {
        use activedr_trace::activity_events;
        let mut group = c.benchmark_group("ablation_eval_cadence");
        group.sample_size(10);
        let registry = ActivityTypeRegistry::paper_default();
        let config = ActivenessConfig::year_window(7);
        let users = scenario.traces.user_ids();
        let weeks: Vec<Timestamp> = (0..13)
            .map(|w| Timestamp::from_days(scenario.traces.replay_start_day as i64 + 7 * w))
            .collect();

        group.bench_function("batch_rederive_weekly", |b| {
            let evaluator = ActivenessEvaluator::new(registry.clone(), config);
            b.iter(|| {
                let mut total = 0usize;
                for &tc in &weeks {
                    let events = activity_events(&scenario.traces, &registry, tc);
                    total += evaluator.evaluate(tc, &users, &events).len();
                }
                black_box(total)
            })
        });

        group.bench_function("streaming_maintain_weekly", |b| {
            // Not re-sorted by time: each window sums its impacts in
            // arrival order, and this order is the batch evaluator's.
            let all_events = activity_events(&scenario.traces, &registry, *weeks.last().unwrap());
            b.iter(|| {
                let mut ev = StreamingEvaluator::new(registry.clone(), config);
                for &u in &users {
                    ev.register_user(u);
                }
                ev.observe_all(all_events.iter().copied());
                let mut total = 0usize;
                for &tc in &weeks {
                    total += ev.evaluate(tc).len();
                }
                black_box(total)
            })
        });
        group.finish();
    }

    {
        let mut group = c.benchmark_group("ablation_adjust_mode");
        for (name, adjust) in [
            ("clamped_per_class", LifetimeAdjust::ClampedPerClass),
            ("raw_eq7", LifetimeAdjust::Raw),
        ] {
            group.bench_function(name, |b| {
                let policy = ActiveDrPolicy::new(RetentionConfig::new(30).with_adjust(adjust));
                b.iter(|| {
                    black_box(policy.run(PurgeRequest {
                        tc: fixture.tc,
                        catalog: &fixture.catalog,
                        activeness: &fixture.table,
                        target_bytes: None,
                    }))
                    .purged_bytes
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
