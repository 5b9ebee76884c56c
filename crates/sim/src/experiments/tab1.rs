//! Table 1 — fixed-lifetime retention presets at real HPC facilities.
//!
//! Runs each facility's FLT preset against the same snapshot state and
//! reports how much each would purge — the longer the advertised lifetime,
//! the less is purged, with NCAR (120 d) gentlest and TACC (30 d)
//! harshest.

use crate::engine::{run_until, SimConfig};
use crate::report::{fmt_bytes, render_table};
use crate::scenario::Scenario;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::ExemptionList;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FacilityRow {
    pub facility: String,
    pub lifetime_days: i64,
    pub purged_files: u64,
    pub purged_bytes: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab1Data {
    pub snapshot_bytes: u64,
    pub rows: Vec<FacilityRow>,
}

impl Tab1Data {
    pub fn compute(scenario: &Scenario) -> Tab1Data {
        let (_, fs) = run_until(
            &scenario.traces,
            scenario.initial_fs.clone(),
            &SimConfig::flt(90),
            Some(scenario.snapshot_day()),
        );
        let tc = Timestamp::from_days(scenario.snapshot_day());
        let catalog = fs.catalog(&ExemptionList::new());
        let table = ActivenessTable::new();
        let rows = Facility::ALL
            .iter()
            .map(|&f| {
                let outcome = FltPolicy::facility(f).run(PurgeRequest {
                    tc,
                    catalog: &catalog,
                    activeness: &table,
                    target_bytes: None,
                });
                FacilityRow {
                    facility: f.name().to_string(),
                    lifetime_days: f.lifetime().whole_days(),
                    purged_files: outcome.purged_files(),
                    purged_bytes: outcome.purged_bytes,
                }
            })
            .collect();
        Tab1Data {
            snapshot_bytes: catalog.total_bytes(),
            rows,
        }
    }

    pub fn render(&self) -> String {
        let mut out =
            String::from("Table 1: facility FLT presets applied to the same snapshot\n\n");
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.facility.clone(),
                    format!("{} days", r.lifetime_days),
                    r.purged_files.to_string(),
                    fmt_bytes(r.purged_bytes),
                    format!(
                        "{:.1}%",
                        100.0 * convert::approx_f64(r.purged_bytes)
                            / convert::approx_f64(self.snapshot_bytes.max(1))
                    ),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "facility",
                "lifetime",
                "purged files",
                "purged bytes",
                "of snapshot",
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
    fn shorter_lifetimes_purge_at_least_as_much() {
        let scenario = Scenario::build(Scale::Tiny, 8);
        let data = Tab1Data::compute(&scenario);
        assert_eq!(data.rows.len(), 4);
        let mut sorted = data.rows.clone();
        sorted.sort_by_key(|r| r.lifetime_days);
        for pair in sorted.windows(2) {
            assert!(
                pair[0].purged_bytes >= pair[1].purged_bytes,
                "{} ({}d) should purge >= {} ({}d)",
                pair[0].facility,
                pair[0].lifetime_days,
                pair[1].facility,
                pair[1].lifetime_days
            );
        }
        assert!(data.render().contains("TACC"));
    }
}
