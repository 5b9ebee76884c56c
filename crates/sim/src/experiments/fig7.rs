//! Figure 7 — file miss reduction in the user activeness matrix.
//!
//! Cumulative file misses over the replay year, per user quadrant, under
//! both policies. The paper observes misses rising over time under both
//! (the file system ages into the retention regime) with a widening gap in
//! ActiveDR's favour.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::experiments::pair::{run_pair, PairResult};
use crate::report::render_table;
use crate::scenario::Scenario;
use activedr_core::classify::Quadrant;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Data {
    /// Sample days (relative to replay start).
    pub days: Vec<i64>,
    /// Cumulative misses per quadrant at each sample day, `[quadrant][i]`.
    pub flt_cumulative: [Vec<u64>; 4],
    pub adr_cumulative: [Vec<u64>; 4],
}

impl Fig7Data {
    pub fn compute(scenario: &Scenario) -> Fig7Data {
        let pair = run_pair(scenario, 90);
        Fig7Data::from_pair(&pair, scenario.traces.replay_start_day as i64)
    }

    pub fn from_pair(pair: &PairResult, replay_start: i64) -> Fig7Data {
        let sample_every = 7usize; // weekly samples
        let cumulate = |result: &crate::engine::SimResult| -> ([Vec<u64>; 4], Vec<i64>) {
            let mut acc = [0u64; 4];
            let mut series: [Vec<u64>; 4] = Default::default();
            let mut days = Vec::new();
            for (i, d) in result.daily.iter().enumerate() {
                for (a, m) in acc.iter_mut().zip(d.misses_by_quadrant.iter()) {
                    *a += m;
                }
                if i % sample_every == sample_every - 1 || i == result.daily.len() - 1 {
                    days.push(d.day - replay_start);
                    for q in 0..4 {
                        series[q].push(acc[q]);
                    }
                }
            }
            (series, days)
        };
        let (flt_cumulative, days) = cumulate(&pair.flt);
        let (adr_cumulative, _) = cumulate(&pair.adr);
        Fig7Data {
            days,
            flt_cumulative,
            adr_cumulative,
        }
    }

    /// Final cumulative misses per quadrant, `(flt, adr)`.
    pub fn final_misses(&self, q: Quadrant) -> (u64, u64) {
        let i = q.index();
        (
            self.flt_cumulative[i].last().copied().unwrap_or(0),
            self.adr_cumulative[i].last().copied().unwrap_or(0),
        )
    }

    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 7: cumulative file misses per quadrant (weekly samples)\n\n");
        for q in Quadrant::ALL {
            out.push_str(&format!("-- {} --\n", q.name()));
            let i = q.index();
            let rows: Vec<Vec<String>> = self
                .days
                .iter()
                .enumerate()
                .step_by(4) // print every 4th weekly sample
                .map(|(k, day)| {
                    vec![
                        day.to_string(),
                        self.flt_cumulative[i][k].to_string(),
                        self.adr_cumulative[i][k].to_string(),
                    ]
                })
                .collect();
            out.push_str(&render_table(&["day", "FLT", "ActiveDR"], &rows));
            let (f, a) = self.final_misses(q);
            out.push_str(&format!("final: FLT {f} vs ActiveDR {a}\n\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use activedr_core::convert;

    #[test]
    fn fig7_series_are_cumulative_and_aligned() {
        // Seed 3 for the same reason as fig6: seed 2 is pathological at
        // Tiny scale under the vendored rand stub's stream.
        let scenario = Scenario::build(Scale::Tiny, 3);
        let data = Fig7Data::compute(&scenario);
        assert!(!data.days.is_empty());
        for q in 0..4 {
            assert_eq!(data.flt_cumulative[q].len(), data.days.len());
            assert!(data.flt_cumulative[q].windows(2).all(|w| w[0] <= w[1]));
            assert!(data.adr_cumulative[q].windows(2).all(|w| w[0] <= w[1]));
        }
        // Totals across quadrants must not favour FLT beyond tiny-scale
        // noise (strict inequality is asserted at Small scale in the
        // integration tests).
        let flt_total: u64 = (0..4).map(|q| data.flt_cumulative[q].last().unwrap()).sum();
        let adr_total: u64 = (0..4).map(|q| data.adr_cumulative[q].last().unwrap()).sum();
        assert!(
            convert::approx_f64(adr_total) <= convert::approx_f64(flt_total) * 1.15,
            "ADR {adr_total} vs FLT {flt_total}"
        );
        assert!(data.render().contains("Both Active"));
    }
}
