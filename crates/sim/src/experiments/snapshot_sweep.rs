//! Figures 9-11 and Tables 4-6 — single-snapshot retention across
//! lifetime settings.
//!
//! The paper takes its last weekly metadata snapshot (Aug 23, 2016 — a
//! state already shaped by OLCF's 90-day FLT), then runs both retention
//! solutions on it with 7/30/60/90-day lifetimes (which also set the
//! activeness period length) and a 50 % purge target for ActiveDR. The
//! artifacts report, per user quadrant:
//!
//! * Fig. 9 / Tables 4-5 — total retained bytes and the ActiveDR − FLT
//!   difference (ActiveDR retains *more* for every active quadrant and
//!   *less* for both-inactive);
//! * Fig. 10 / Table 6 — total purged bytes (the mirror image);
//! * Fig. 11 — number of users affected by the purge (far fewer active
//!   users affected under ActiveDR).

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::engine::{run_until, SimConfig};
use crate::report::{fmt_bytes, fmt_bytes_signed, render_table};
use crate::scenario::Scenario;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::ExemptionList;
use activedr_trace::activity_events;
use serde::{Deserialize, Serialize};

/// Retention comparison at one lifetime setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    pub lifetime_days: u32,
    pub flt: RetentionBreakdown,
    pub adr: RetentionBreakdown,
    pub adr_target_met: bool,
    pub snapshot_bytes: u64,
}

impl SweepCell {
    /// Table 5 row: ActiveDR − FLT retained bytes per quadrant.
    pub fn retained_delta(&self) -> [i64; 4] {
        retained_delta(&self.adr, &self.flt)
    }

    /// Table 4 row: percentage of bytes ActiveDR retains above FLT.
    pub fn retained_delta_pct(&self) -> [Option<f64>; 4] {
        retained_delta_pct(&self.adr, &self.flt)
    }

    /// Fig. 11 row: users affected by purge, `(flt, adr)` per quadrant.
    pub fn users_affected(&self) -> [(u64, u64); 4] {
        let mut out = [(0u64, 0u64); 4];
        for q in Quadrant::ALL {
            out[q.index()] = (
                self.flt.get(q).users_affected,
                self.adr.get(q).users_affected,
            );
        }
        out
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotSweepData {
    pub snapshot_day: i64,
    pub cells: Vec<SweepCell>,
}

impl SnapshotSweepData {
    pub const LIFETIMES: [u32; 4] = [7, 30, 60, 90];

    pub fn compute(scenario: &Scenario) -> SnapshotSweepData {
        // Reach the snapshot state: replay under the production FLT-90
        // regime up to the snapshot day.
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
        let snapshot_bytes = catalog.total_bytes();
        // §4.1.3 purge target, applied to the snapshot under examination:
        // free half of its bytes.
        let target = snapshot_bytes / 2;

        let cells = Self::LIFETIMES
            .iter()
            .map(|&lifetime_days| {
                let evaluator = ActivenessEvaluator::new(
                    registry.clone(),
                    ActivenessConfig::year_window(lifetime_days),
                );
                let table = evaluator.evaluate(tc, &users, &events);

                let flt_outcome = FltPolicy::days(lifetime_days).run(PurgeRequest {
                    tc,
                    catalog: &catalog,
                    activeness: &table,
                    target_bytes: None,
                });
                let adr_outcome =
                    ActiveDrPolicy::new(RetentionConfig::new(lifetime_days)).run(PurgeRequest {
                        tc,
                        catalog: &catalog,
                        activeness: &table,
                        target_bytes: Some(target),
                    });

                SweepCell {
                    lifetime_days,
                    flt: RetentionBreakdown::compute(&catalog, &table, &flt_outcome),
                    adr: RetentionBreakdown::compute(&catalog, &table, &adr_outcome),
                    adr_target_met: adr_outcome.target_met,
                    snapshot_bytes,
                }
            })
            .collect();

        SnapshotSweepData {
            snapshot_day: scenario.snapshot_day(),
            cells,
        }
    }

    pub fn cell(&self, lifetime_days: u32) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.lifetime_days == lifetime_days)
    }

    fn quadrant_headers() -> [&'static str; 4] {
        [
            "Both Active",
            "Op Active Only",
            "Outcome Active Only",
            "Both Inactive",
        ]
    }

    /// Fig. 9: retained bytes per quadrant.
    pub fn render_fig9(&self) -> String {
        let mut out = format!(
            "Figure 9: total size of retained files per quadrant (snapshot day {})\n\n",
            self.snapshot_day
        );
        for cell in &self.cells {
            out.push_str(&format!("-- {} days --\n", cell.lifetime_days));
            let rows: Vec<Vec<String>> = Quadrant::ALL
                .iter()
                .map(|&q| {
                    vec![
                        q.name().to_string(),
                        fmt_bytes(cell.flt.get(q).retained_bytes),
                        fmt_bytes(cell.adr.get(q).retained_bytes),
                    ]
                })
                .collect();
            out.push_str(&render_table(&["quadrant", "FLT", "ActiveDR"], &rows));
            out.push('\n');
        }
        out
    }

    /// Table 4: percentage of file size ActiveDR retains above FLT.
    pub fn render_tab4(&self) -> String {
        let mut out = String::from(
            "Table 4: percentage of file size that ActiveDR retains more than FLT\n\n",
        );
        let mut rows = Vec::new();
        for cell in &self.cells {
            let pct = cell.retained_delta_pct();
            let mut row = vec![cell.lifetime_days.to_string()];
            for q in Quadrant::ALL {
                row.push(match pct[q.index()] {
                    Some(p) => format!("{p:+.2}%"),
                    None => "n/a".to_string(),
                });
            }
            rows.push(row);
        }
        let mut header = vec!["period (days)"];
        header.extend(Self::quadrant_headers());
        out.push_str(&render_table(&header, &rows));
        out.push_str("\npaper: +71.42/+213.47/+36.32/+33.58 (BA), negative for Both Inactive\n");
        out
    }

    /// Table 5: retained-bytes difference (ActiveDR − FLT).
    pub fn render_tab5(&self) -> String {
        let mut out =
            String::from("Table 5: difference between total size retained by ActiveDR and FLT\n\n");
        let mut rows = Vec::new();
        for cell in &self.cells {
            let delta = cell.retained_delta();
            let mut row = vec![cell.lifetime_days.to_string()];
            for q in Quadrant::ALL {
                row.push(fmt_bytes_signed(delta[q.index()]));
            }
            rows.push(row);
        }
        let mut header = vec!["period (days)"];
        header.extend(Self::quadrant_headers());
        out.push_str(&render_table(&header, &rows));
        out
    }

    /// Fig. 10 + Table 6: purged bytes per quadrant and the FLT − ActiveDR
    /// difference.
    pub fn render_fig10_tab6(&self) -> String {
        let mut out = format!(
            "Figure 10 / Table 6: total size of purged files per quadrant (snapshot day {})\n\n",
            self.snapshot_day
        );
        for cell in &self.cells {
            out.push_str(&format!("-- {} days --\n", cell.lifetime_days));
            let rows: Vec<Vec<String>> = Quadrant::ALL
                .iter()
                .map(|&q| {
                    let f = cell.flt.get(q).purged_bytes;
                    let a = cell.adr.get(q).purged_bytes;
                    vec![
                        q.name().to_string(),
                        fmt_bytes(f),
                        fmt_bytes(a),
                        fmt_bytes_signed(convert::i64_from_u64(f) - convert::i64_from_u64(a)),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &["quadrant", "FLT purged", "ActiveDR purged", "FLT-ADR"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }

    /// Fig. 11: number of users affected by file purge.
    pub fn render_fig11(&self) -> String {
        let mut out = String::from("Figure 11: number of users affected by file purge\n\n");
        for q in Quadrant::ALL {
            out.push_str(&format!("-- {} --\n", q.name()));
            let rows: Vec<Vec<String>> = self
                .cells
                .iter()
                .map(|cell| {
                    let (f, a) = cell.users_affected()[q.index()];
                    vec![
                        format!("{} days", cell.lifetime_days),
                        f.to_string(),
                        a.to_string(),
                    ]
                })
                .collect();
            out.push_str(&render_table(&["period", "FLT", "ActiveDR"], &rows));
            out.push('\n');
        }
        out
    }

    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n{}",
            self.render_fig9(),
            self.render_tab4(),
            self.render_tab5(),
            self.render_fig10_tab6(),
            self.render_fig11()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn sweep_shapes_follow_the_paper() {
        let scenario = Scenario::build(Scale::Tiny, 4);
        let data = SnapshotSweepData::compute(&scenario);
        assert_eq!(data.cells.len(), 4);
        for cell in &data.cells {
            // Byte conservation per policy.
            assert_eq!(
                cell.flt.total_purged_bytes() + cell.flt.total_retained_bytes(),
                cell.snapshot_bytes
            );
            assert_eq!(
                cell.adr.total_purged_bytes() + cell.adr.total_retained_bytes(),
                cell.snapshot_bytes
            );
            // ActiveDR never affects more active users than FLT.
            for q in [
                Quadrant::BothActive,
                Quadrant::OperationActiveOnly,
                Quadrant::OutcomeActiveOnly,
            ] {
                let (f, a) = cell.users_affected()[q.index()];
                assert!(
                    a <= f,
                    "{} days, {q}: ADR {a} vs FLT {f}",
                    cell.lifetime_days
                );
            }
            // And never retains less for active users.
            for q in [
                Quadrant::BothActive,
                Quadrant::OperationActiveOnly,
                Quadrant::OutcomeActiveOnly,
            ] {
                assert!(
                    cell.adr.get(q).retained_bytes >= cell.flt.get(q).retained_bytes,
                    "{} days, {q}",
                    cell.lifetime_days
                );
            }
        }
        let text = data.render();
        assert!(text.contains("Table 4"));
        assert!(text.contains("Figure 11"));
    }
}
