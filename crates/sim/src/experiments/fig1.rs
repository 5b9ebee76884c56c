//! Figure 1 — file misses introduced by the FLT retention method.
//!
//! The paper's motivating experiment: replay the application logs of the
//! evaluation year under FLT (90-day lifetime, 7-day trigger) and report
//! (left) the daily file-miss ratio over the year and (right) how many
//! days fall into each miss-ratio range.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::engine::{run, SimConfig, SimResult};
use crate::metrics::{range_label, MissRatioHistogram};
use crate::report::{bar, render_table};
use crate::scenario::Scenario;
use activedr_core::convert;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Data {
    pub lifetime_days: u32,
    /// `(day-in-replay, miss ratio)` series — the left panel.
    pub daily_ratio: Vec<(i64, f64)>,
    /// Days per miss-ratio range — the right panel.
    pub histogram: MissRatioHistogram,
    /// The paper's headline: days with ≥ 5 % misses ("almost half of the
    /// entire year" in the paper's data).
    pub days_over_5pct: u64,
    pub days_over_1pct: u64,
    pub max_ratio: f64,
    pub total_misses: u64,
    pub total_reads: u64,
}

impl Fig1Data {
    pub fn compute(scenario: &Scenario) -> Fig1Data {
        let result = run(
            &scenario.traces,
            scenario.initial_fs.clone(),
            &SimConfig::flt(90),
        );
        Fig1Data::from_result(&result, i64::from(scenario.traces.replay_start_day))
    }

    pub fn from_result(result: &SimResult, replay_start: i64) -> Fig1Data {
        let daily_ratio: Vec<(i64, f64)> = result
            .daily
            .iter()
            .map(|d| (d.day - replay_start, d.miss_ratio()))
            .collect();
        let histogram = MissRatioHistogram::from_daily(&result.daily);
        let max_ratio = daily_ratio.iter().map(|(_, r)| *r).fold(0.0, f64::max);
        Fig1Data {
            lifetime_days: result.lifetime_days,
            daily_ratio,
            histogram,
            days_over_5pct: histogram.days_at_least(0.05),
            days_over_1pct: histogram.days_at_least(0.01),
            max_ratio,
            total_misses: result.total_misses(),
            total_reads: result.total_reads(),
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 1: file misses under FLT ({}-day lifetime, 7-day trigger)\n\n",
            self.lifetime_days
        ));
        // Monthly down-sample of the daily ratio (left panel).
        let mut rows = Vec::new();
        for chunk in self.daily_ratio.chunks(30) {
            let first_day = chunk[0].0;
            let mean: f64 =
                chunk.iter().map(|(_, r)| r).sum::<f64>() / convert::approx_f64_usize(chunk.len());
            let peak = chunk.iter().map(|(_, r)| *r).fold(0.0, f64::max);
            rows.push(vec![
                format!("{:>3}", first_day / 30 + 1),
                format!("{:.2}%", mean * 100.0),
                format!("{:.2}%", peak * 100.0),
            ]);
        }
        out.push_str(&render_table(&["month", "mean miss ratio", "peak"], &rows));

        out.push_str("\nDays per miss-ratio range:\n");
        let max_days = convert::approx_f64(self.histogram.days.iter().copied().max().unwrap_or(0));
        let rows: Vec<Vec<String>> = self
            .histogram
            .days
            .iter()
            .enumerate()
            .map(|(i, d)| {
                vec![
                    range_label(i),
                    d.to_string(),
                    bar(convert::approx_f64(*d), max_days, 40),
                ]
            })
            .collect();
        out.push_str(&render_table(&["range", "days", ""], &rows));
        out.push_str(&format!(
            "\ndays with >=5% misses: {}   days with >=1%: {}   peak daily ratio: {:.1}%\n",
            self.days_over_5pct,
            self.days_over_1pct,
            self.max_ratio * 100.0
        ));
        out.push_str(&format!(
            "total: {} misses / {} reads over {} days\n",
            self.total_misses,
            self.total_reads,
            self.daily_ratio.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn fig1_reports_nonzero_miss_days() {
        let scenario = Scenario::build(Scale::Tiny, 1);
        let data = Fig1Data::compute(&scenario);
        assert_eq!(
            convert::u32_from_usize(data.daily_ratio.len()),
            scenario.traces.horizon_days - scenario.traces.replay_start_day
        );
        // FLT must introduce misses (the paper's whole motivation).
        assert!(data.total_misses > 0, "FLT produced no misses");
        assert!(data.days_over_1pct >= data.days_over_5pct);
        let text = data.render();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("1%-5%"));
    }
}
