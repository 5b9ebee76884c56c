//! Quadrant churn: the "dynamics of users' behavior" (§1), measured.
//!
//! The paper's whole motivation is that user behaviour is *dynamic* — FLT
//! cannot see users pausing and resuming, so it purges campaign data mid
//! interruption. This extension quantifies the dynamics ActiveDR tracks:
//! the population is evaluated at every purge trigger across the replay
//! year, and every user's movement through the 2×2 activeness matrix is
//! counted into a 4×4 transition matrix plus per-user churn statistics.

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
pub struct ChurnData {
    pub period_days: u32,
    pub evaluations: usize,
    /// `transitions[from][to]` — user-week counts of quadrant movement
    /// between consecutive weekly evaluations, indexed by
    /// [`Quadrant::index`].
    pub transitions: [[u64; 4]; 4],
    /// Users that never left their quadrant all year.
    pub stable_users: usize,
    /// Users that changed quadrant at least three times.
    pub restless_users: usize,
    pub total_users: usize,
}

impl ChurnData {
    pub fn compute(scenario: &Scenario) -> ChurnData {
        let period_days = 30;
        let registry = ActivityTypeRegistry::paper_default();
        let evaluator =
            ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(period_days));
        let users = scenario.traces.user_ids();
        let start = scenario.traces.replay_start_day as i64;
        let end = scenario.traces.horizon_days as i64;

        let mut transitions = [[0u64; 4]; 4];
        let mut changes: Vec<u32> = vec![0; users.len()];
        let mut previous: Option<Vec<Quadrant>> = None;
        let mut evaluations = 0usize;

        let mut day = start;
        while day < end {
            let tc = Timestamp::from_days(day);
            let events = activity_events(&scenario.traces, &registry, tc);
            let table = evaluator.evaluate(tc, &users, &events);
            let current: Vec<Quadrant> =
                users.iter().map(|&u| Quadrant::of(table.get(u))).collect();
            evaluations += 1;
            if let Some(prev) = &previous {
                for (i, (&from, &to)) in prev.iter().zip(current.iter()).enumerate() {
                    transitions[from.index()][to.index()] += 1;
                    if from != to {
                        changes[i] += 1;
                    }
                }
            }
            previous = Some(current);
            day += 7;
        }

        ChurnData {
            period_days,
            evaluations,
            transitions,
            stable_users: changes.iter().filter(|&&c| c == 0).count(),
            restless_users: changes.iter().filter(|&&c| c >= 3).count(),
            total_users: users.len(),
        }
    }

    /// Fraction of user-weeks that stayed in the same quadrant.
    pub fn stability(&self) -> f64 {
        let total: u64 = self.transitions.iter().flatten().sum();
        if total == 0 {
            return 1.0;
        }
        let diagonal: u64 = (0..4).map(|i| self.transitions[i][i]).sum();
        convert::ratio(diagonal, total)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "Quadrant churn over {} weekly evaluations ({}-day activeness period)\n\n",
            self.evaluations, self.period_days
        );
        let short = ["BA", "OpA", "OcA", "BI"];
        let rows: Vec<Vec<String>> = Quadrant::ALL
            .iter()
            .map(|&from| {
                let mut row = vec![short[from.index()].to_string()];
                for to in Quadrant::ALL {
                    row.push(self.transitions[from.index()][to.index()].to_string());
                }
                row
            })
            .collect();
        out.push_str(&render_table(
            &["from \\ to", "BA", "OpA", "OcA", "BI"],
            &rows,
        ));
        out.push_str(&format!(
            "\nuser-week stability: {:.1}%   users never moving: {}/{}   \
             users changing quadrant >=3 times: {}\n",
            self.stability() * 100.0,
            self.stable_users,
            self.total_users,
            self.restless_users,
        ));
        out.push_str(
            "The off-diagonal mass is exactly the behaviour FLT's fixed lifetime\n\
             cannot see (§1) and ActiveDR re-evaluates at every trigger.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn churn_matrix_captures_real_dynamics() {
        let scenario = Scenario::build(Scale::Tiny, 23);
        let data = ChurnData::compute(&scenario);
        assert!(data.evaluations > 40); // weekly over a year

        // The transition matrix covers every (user, consecutive-week) pair.
        let total: u64 = data.transitions.iter().flatten().sum();
        assert_eq!(
            total,
            (data.evaluations as u64 - 1) * data.total_users as u64
        );

        // Most user-weeks are stable (the inactive mass does not move)...
        assert!(data.stability() > 0.8, "stability {}", data.stability());
        // ...but the dynamics the paper motivates are present: someone
        // moved between quadrants.
        assert!(
            data.stability() < 1.0,
            "a fully static population has no churn"
        );
        assert!(data.stable_users < data.total_users);
        assert!(data.render().contains("from \\ to"));
    }
}
