//! Figure 5 — the user activeness matrix.
//!
//! Evaluate the whole population's operation/outcome activeness at the
//! snapshot date for period lengths of 7, 30, 60 and 90 days and report
//! the share of users in each quadrant (the paper's G(1)..G(4)
//! annotations), plus the rank spread inside each quadrant.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::report::render_table;
use crate::scenario::Scenario;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_trace::activity_events;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuadrantCell {
    pub quadrant: Quadrant,
    pub users: usize,
    pub share: f64,
    /// Spread of ln-ranks inside the cell (op, oc), for the scatter shape.
    pub max_ln_op: f64,
    pub max_ln_oc: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    pub period_days: u32,
    pub cells: Vec<QuadrantCell>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Data {
    pub eval_day: i64,
    pub total_users: usize,
    pub rows: Vec<Fig5Row>,
}

impl Fig5Data {
    pub const PERIODS: [u32; 4] = [7, 30, 60, 90];

    pub fn compute(scenario: &Scenario) -> Fig5Data {
        let tc = Timestamp::from_days(scenario.snapshot_day());
        let registry = ActivityTypeRegistry::paper_default();
        let events = activity_events(&scenario.traces, &registry, tc);
        let users = scenario.traces.user_ids();

        let rows = Self::PERIODS
            .iter()
            .map(|&period_days| {
                let evaluator = ActivenessEvaluator::new(
                    registry.clone(),
                    ActivenessConfig::year_window(period_days),
                );
                let table = evaluator.evaluate(tc, &users, &events);
                let classification = Classification::from_table(&table);
                let total = convert::approx_f64_usize(classification.total_users().max(1));
                let cells = Quadrant::ALL
                    .iter()
                    .map(|&q| {
                        let group = classification.group(q);
                        let max_ln = |f: fn(&UserActiveness) -> Rank| {
                            group
                                .iter()
                                .map(|c| f(&c.activeness).ln())
                                .filter(|v| v.is_finite())
                                .fold(f64::NEG_INFINITY, f64::max)
                        };
                        QuadrantCell {
                            quadrant: q,
                            users: group.len(),
                            share: convert::approx_f64_usize(group.len()) / total,
                            max_ln_op: max_ln(|a| a.op),
                            max_ln_oc: max_ln(|a| a.oc),
                        }
                    })
                    .collect();
                Fig5Row { period_days, cells }
            })
            .collect();

        Fig5Data {
            eval_day: scenario.snapshot_day(),
            total_users: scenario.traces.users.len(),
            rows,
        }
    }

    pub fn shares(&self, period_days: u32) -> Option<[f64; 4]> {
        self.rows
            .iter()
            .find(|r| r.period_days == period_days)
            .map(|r| {
                let mut out = [0.0; 4];
                for c in &r.cells {
                    out[c.quadrant.index()] = c.share;
                }
                out
            })
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 5: user activeness matrix at day {} ({} users)\n\n",
            self.eval_day, self.total_users
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = vec![format!("{} days", r.period_days)];
                for c in &r.cells {
                    cells.push(format!("{:.1}% ({})", c.share * 100.0, c.users));
                }
                cells
            })
            .collect();
        out.push_str(&render_table(
            &[
                "period",
                "G(1) both active",
                "G(2) op only",
                "G(3) outcome only",
                "G(4) both inactive",
            ],
            &rows,
        ));
        out.push_str(
            "\npaper (13,813 users): G(1) 0.4-0.9%, G(2) 1.1-3.5%, G(3) 2.9-3.4%, G(4) 92.7-95.0%\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn fig5_quadrant_shares_are_probabilities() {
        let scenario = Scenario::build(Scale::Tiny, 3);
        let data = Fig5Data::compute(&scenario);
        assert_eq!(data.rows.len(), 4);
        for row in &data.rows {
            let total: f64 = row.cells.iter().map(|c| c.share).sum();
            assert!((total - 1.0).abs() < 1e-9, "period {}", row.period_days);
            let bi = row
                .cells
                .iter()
                .find(|c| c.quadrant == Quadrant::BothInactive)
                .unwrap();
            assert!(
                bi.share > 0.5,
                "inactive mass should dominate: {}",
                bi.share
            );
        }
        assert!(data.shares(7).is_some());
        assert!(data.shares(13).is_none());
        assert!(data.render().contains("Figure 5"));
    }
}
