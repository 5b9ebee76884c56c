//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Three knobs of the ActiveDR design are varied against the same snapshot
//! state:
//!
//! 1. **Retrospective passes** (0-5, paper default 5 with 20 % decay):
//!    does the retrospective loop actually buy purge-target attainment?
//! 2. **Lifetime adjustment** ([`LifetimeAdjust::Raw`] Eq. 7 verbatim vs
//!    the default clamped-per-class reading): how much inactive-user data
//!    is wiped immediately under the raw reading?
//! 3. **Empty-period semantics** ([`EmptyPeriods::Zero`] — the literal
//!    Eq. 3+5 reading — vs the default neutral skip): how does the
//!    activeness matrix shift?
//! 4. **Activity mix** (§5): the paper's minimal jobs+publications
//!    registry vs the full Table 2 spectrum (logins, transfers, file
//!    accesses, job completions, generated datasets) — how much does the
//!    classification move when more activity types are tracked?

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::engine::{run_until, SimConfig};
use crate::report::{fmt_bytes, render_table};
use crate::scenario::Scenario;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::ExemptionList;
use activedr_trace::activity_events;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetroRow {
    pub passes: u32,
    pub purged_bytes: u64,
    pub target_met: bool,
    pub active_users_affected: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdjustRow {
    pub mode: String,
    pub purged_bytes: u64,
    pub inactive_purged_bytes: u64,
    pub active_retained_bytes: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmptyPeriodRow {
    pub semantics: String,
    pub shares: [f64; 4],
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistryRow {
    pub registry: String,
    pub activity_types: usize,
    pub events: usize,
    pub shares: [f64; 4],
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationData {
    pub retro: Vec<RetroRow>,
    pub adjust: Vec<AdjustRow>,
    pub empty_periods: Vec<EmptyPeriodRow>,
    pub registries: Vec<RegistryRow>,
}

impl AblationData {
    pub fn compute(scenario: &Scenario) -> AblationData {
        let (_, fs) = run_until(
            &scenario.traces,
            scenario.initial_fs.clone(),
            &SimConfig::flt(90),
            Some(scenario.snapshot_day()),
        );
        let tc = Timestamp::from_days(scenario.snapshot_day());
        let registry = ActivityTypeRegistry::paper_default();
        let events = activity_events(&scenario.traces, &registry, tc);
        let users = scenario.traces.user_ids();
        let catalog = fs.catalog(&ExemptionList::new());
        let evaluator =
            ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(30));
        let table = evaluator.evaluate(tc, &users, &events);
        // A deliberately aggressive target so the retrospective loop has
        // work to do.
        let target = convert::trunc_to_u64(convert::approx_f64(catalog.total_bytes()) * 0.7);

        // 1. Retrospective passes.
        let retro = (0..=5u32)
            .map(|passes| {
                let policy = ActiveDrPolicy::new(RetentionConfig::new(30).with_retro(passes, 0.2));
                let outcome = policy.run(PurgeRequest {
                    tc,
                    catalog: &catalog,
                    activeness: &table,
                    target_bytes: Some(target),
                });
                let breakdown = RetentionBreakdown::compute(&catalog, &table, &outcome);
                let active_users_affected = breakdown.get(Quadrant::BothActive).users_affected
                    + breakdown.get(Quadrant::OperationActiveOnly).users_affected
                    + breakdown.get(Quadrant::OutcomeActiveOnly).users_affected;
                RetroRow {
                    passes,
                    purged_bytes: outcome.purged_bytes,
                    target_met: outcome.target_met,
                    active_users_affected,
                }
            })
            .collect();

        // 2. Lifetime adjustment mode.
        let adjust = [LifetimeAdjust::ClampedPerClass, LifetimeAdjust::Raw]
            .iter()
            .map(|&mode| {
                let policy = ActiveDrPolicy::new(RetentionConfig::new(30).with_adjust(mode));
                let outcome = policy.run(PurgeRequest {
                    tc,
                    catalog: &catalog,
                    activeness: &table,
                    target_bytes: None,
                });
                let breakdown = RetentionBreakdown::compute(&catalog, &table, &outcome);
                let active_retained_bytes = breakdown.get(Quadrant::BothActive).retained_bytes
                    + breakdown.get(Quadrant::OperationActiveOnly).retained_bytes
                    + breakdown.get(Quadrant::OutcomeActiveOnly).retained_bytes;
                AdjustRow {
                    mode: format!("{mode:?}"),
                    purged_bytes: outcome.purged_bytes,
                    inactive_purged_bytes: breakdown.get(Quadrant::BothInactive).purged_bytes,
                    active_retained_bytes,
                }
            })
            .collect();

        // 3. Empty-period semantics.
        let empty_periods = [EmptyPeriods::Neutral, EmptyPeriods::Zero]
            .iter()
            .map(|&sem| {
                let ev =
                    ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(30))
                        .with_empty_periods(sem);
                let t = ev.evaluate(tc, &users, &events);
                EmptyPeriodRow {
                    semantics: format!("{sem:?}"),
                    shares: Classification::from_table(&t).shares(),
                }
            })
            .collect();

        // 4. Activity mix: minimal vs extended registry.
        let registries = [
            ("paper (jobs+pubs)", ActivityTypeRegistry::paper_default()),
            ("extended (Table 2)", ActivityTypeRegistry::extended()),
        ]
        .into_iter()
        .map(|(name, reg)| {
            let evs = activity_events(&scenario.traces, &reg, tc);
            let ev_count = evs.len();
            let evaluator =
                ActivenessEvaluator::new(reg.clone(), ActivenessConfig::year_window(30));
            let t = evaluator.evaluate(tc, &users, &evs);
            RegistryRow {
                registry: name.to_string(),
                activity_types: reg.len(),
                events: ev_count,
                shares: Classification::from_table(&t).shares(),
            }
        })
        .collect();

        AblationData {
            retro,
            adjust,
            empty_periods,
            registries,
        }
    }

    pub fn render(&self) -> String {
        let mut out =
            String::from("Ablations\n\n1. Retrospective passes (target 70% of snapshot)\n");
        let rows: Vec<Vec<String>> = self
            .retro
            .iter()
            .map(|r| {
                vec![
                    r.passes.to_string(),
                    fmt_bytes(r.purged_bytes),
                    r.target_met.to_string(),
                    r.active_users_affected.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["extra passes", "purged", "target met", "active users hit"],
            &rows,
        ));

        out.push_str("\n2. Lifetime adjustment mode (unbounded scan)\n");
        let rows: Vec<Vec<String>> = self
            .adjust
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    fmt_bytes(r.purged_bytes),
                    fmt_bytes(r.inactive_purged_bytes),
                    fmt_bytes(r.active_retained_bytes),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["mode", "purged", "purged (inactive)", "retained (active)"],
            &rows,
        ));

        out.push_str("\n3. Empty-period semantics (activeness shares)\n");
        let rows: Vec<Vec<String>> = self
            .empty_periods
            .iter()
            .map(|r| {
                let mut row = vec![r.semantics.clone()];
                for q in Quadrant::ALL {
                    row.push(format!("{:.1}%", r.shares[q.index()] * 100.0));
                }
                row
            })
            .collect();
        out.push_str(&render_table(
            &[
                "semantics",
                "both active",
                "op only",
                "outcome only",
                "both inactive",
            ],
            &rows,
        ));

        out.push_str("\n4. Activity mix (activeness shares under each registry)\n");
        let rows: Vec<Vec<String>> = self
            .registries
            .iter()
            .map(|r| {
                let mut row = vec![
                    r.registry.clone(),
                    r.activity_types.to_string(),
                    r.events.to_string(),
                ];
                for q in Quadrant::ALL {
                    row.push(format!("{:.1}%", r.shares[q.index()] * 100.0));
                }
                row
            })
            .collect();
        out.push_str(&render_table(
            &[
                "registry",
                "types",
                "events",
                "both active",
                "op only",
                "outcome only",
                "both inactive",
            ],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn ablations_have_the_expected_monotonicities() {
        let scenario = Scenario::build(Scale::Tiny, 9);
        let data = AblationData::compute(&scenario);

        // More retrospective passes never purge less.
        for w in data.retro.windows(2) {
            assert!(w[1].purged_bytes >= w[0].purged_bytes);
        }

        // Raw Eq. 7 wipes at least as much inactive data as the clamped
        // reading (zero ranks => zero lifetime).
        assert!(data.adjust[1].inactive_purged_bytes >= data.adjust[0].inactive_purged_bytes);

        // The literal zero semantics can only shrink the active shares.
        let neutral = data.empty_periods[0].shares;
        let zero = data.empty_periods[1].shares;
        assert!(zero[Quadrant::BothInactive.index()] >= neutral[Quadrant::BothInactive.index()]);
        assert!(data.render().contains("Ablations"));
    }
}
