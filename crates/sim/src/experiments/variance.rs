//! Seed-variance study: how robust are the headline claims to the
//! synthetic world's randomness?
//!
//! The paper evaluates one (real) trace; a synthetic reproduction must
//! show its conclusions are not artifacts of one lucky seed. This
//! experiment replays FLT vs ActiveDR over `n` independently generated
//! worlds and reports the distribution of the headline metrics: total
//! miss reduction, active-user miss reduction, and the user-loss-event
//! reduction.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use crate::experiments::pair::run_pair;
use crate::metrics::BoxStats;
use crate::report::render_table;
use crate::scenario::{Scale, Scenario};
use activedr_core::classify::Quadrant;
use activedr_core::convert;
use serde::{Deserialize, Serialize};

/// Headline metrics for one seed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SeedRow {
    pub seed: u64,
    /// `1 − misses_ADR / misses_FLT`.
    pub miss_reduction: f64,
    /// Same, restricted to active-quadrant misses.
    pub active_miss_reduction: f64,
    /// `1 − user_loss_events_ADR / user_loss_events_FLT`.
    pub user_loss_reduction: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VarianceData {
    pub scale: String,
    pub lifetime_days: u32,
    pub rows: Vec<SeedRow>,
    pub miss_reduction: BoxStats,
    pub active_miss_reduction: BoxStats,
    pub user_loss_reduction: BoxStats,
}

fn reduction(flt: u64, adr: u64) -> f64 {
    if flt == 0 {
        0.0
    } else {
        1.0 - convert::ratio(adr, flt)
    }
}

impl VarianceData {
    pub fn compute(scale: Scale, base_seed: u64, n_seeds: u32) -> VarianceData {
        assert!(n_seeds > 0, "need at least one seed");
        let lifetime_days = 90;
        let rows: Vec<SeedRow> = (0..n_seeds as u64)
            .map(|i| {
                let seed = base_seed + i;
                let scenario = Scenario::build(scale, seed);
                let pair = run_pair(&scenario, lifetime_days);
                let active = |r: &crate::engine::SimResult| -> u64 {
                    let q = r.misses_by_quadrant();
                    q[Quadrant::BothActive.index()]
                        + q[Quadrant::OperationActiveOnly.index()]
                        + q[Quadrant::OutcomeActiveOnly.index()]
                };
                let losses = |r: &crate::engine::SimResult| -> u64 {
                    r.retentions
                        .iter()
                        .map(|e| convert::u64_from_usize(e.users_affected))
                        .sum()
                };
                SeedRow {
                    seed,
                    miss_reduction: reduction(pair.flt.total_misses(), pair.adr.total_misses()),
                    active_miss_reduction: reduction(active(&pair.flt), active(&pair.adr)),
                    user_loss_reduction: reduction(losses(&pair.flt), losses(&pair.adr)),
                }
            })
            .collect();

        let collect = |f: fn(&SeedRow) -> f64| -> BoxStats {
            BoxStats::compute(&rows.iter().map(f).collect::<Vec<_>>())
        };
        VarianceData {
            scale: format!("{scale:?}"),
            lifetime_days,
            miss_reduction: collect(|r| r.miss_reduction),
            active_miss_reduction: collect(|r| r.active_miss_reduction),
            user_loss_reduction: collect(|r| r.user_loss_reduction),
            rows,
        }
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "Seed variance: ActiveDR vs FLT headline reductions over {} worlds \
             ({} scale, {}-day lifetime)\n\n",
            self.rows.len(),
            self.scale,
            self.lifetime_days
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.seed.to_string(),
                    format!("{:+.1}%", r.miss_reduction * 100.0),
                    format!("{:+.1}%", r.active_miss_reduction * 100.0),
                    format!("{:+.1}%", r.user_loss_reduction * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "seed",
                "miss reduction",
                "active-user miss reduction",
                "user-loss reduction",
            ],
            &rows,
        ));
        let stat = |name: &str, s: &BoxStats| {
            format!(
                "{name}: mean {:+.1}%, min {:+.1}%, max {:+.1}%\n",
                s.mean * 100.0,
                s.min * 100.0,
                s.max * 100.0
            )
        };
        out.push('\n');
        out.push_str(&stat("miss reduction       ", &self.miss_reduction));
        out.push_str(&stat("active-miss reduction", &self.active_miss_reduction));
        out.push_str(&stat("user-loss reduction  ", &self.user_loss_reduction));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_across_seeds_keeps_the_sign() {
        let data = VarianceData::compute(Scale::Tiny, 42, 3);
        assert_eq!(data.rows.len(), 3);
        // The mean reductions should favour ActiveDR even at tiny scale.
        assert!(
            data.active_miss_reduction.mean > 0.0,
            "active-miss reduction mean {:.3}",
            data.active_miss_reduction.mean
        );
        assert!(data.user_loss_reduction.mean > 0.0);
        assert!(data.render().contains("Seed variance"));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        VarianceData::compute(Scale::Tiny, 1, 0);
    }
}
