//! Integration: every paper artifact regenerates, and the qualitative
//! shapes the paper reports hold on the synthetic scenario.

use activedr_core::prelude::*;
use activedr_sim::experiments::{
    ablation::AblationData, fig1::Fig1Data, fig12::Fig12Data, fig5::Fig5Data, fig6::Fig6Data,
    fig7::Fig7Data, fig8::Fig8Data, run_pair, snapshot_sweep::SnapshotSweepData, tab1::Tab1Data,
};
use activedr_sim::{Scale, Scenario};

fn scenario() -> Scenario {
    Scenario::build(Scale::Small, 42)
}

#[test]
fn fig1_flt_misses_are_substantial() {
    let data = Fig1Data::compute(&scenario());
    // The paper's motivation: FLT interrupts users on a substantial number
    // of days across the year.
    assert!(
        data.days_over_1pct > 10,
        "only {} days over 1%",
        data.days_over_1pct
    );
    assert!(data.total_misses > 0);
}

#[test]
fn fig5_matrix_is_heavily_skewed_to_inactive() {
    let data = Fig5Data::compute(&scenario());
    for period in Fig5Data::PERIODS {
        let shares = data.shares(period).unwrap();
        assert!(
            shares[Quadrant::BothInactive.index()] > 0.8,
            "period {period}: inactive share {}",
            shares[Quadrant::BothInactive.index()]
        );
        assert!(shares[Quadrant::BothActive.index()] < 0.05);
    }
}

#[test]
fn fig6_fig7_fig8_share_one_pair_and_follow_the_paper() {
    let scenario = scenario();
    let pair = run_pair(&scenario, 90);

    // Fig. 6: ActiveDR reduces the days with noticeable misses.
    let fig6 = Fig6Data::from_pair(&pair);
    assert!(fig6.adr_total_misses <= fig6.flt_total_misses);
    assert!(fig6.adr_days_over_5pct <= fig6.flt_days_over_5pct);

    // Fig. 7: cumulative misses grow over the year for both policies
    // (the paper's "uprising trend"), and ActiveDR totals stay at or
    // below FLT overall.
    let fig7 = Fig7Data::from_pair(&pair, scenario.traces.replay_start_day as i64);
    let total =
        |series: &[Vec<u64>; 4]| -> u64 { (0..4).map(|q| *series[q].last().unwrap()).sum() };
    assert!(total(&fig7.adr_cumulative) <= total(&fig7.flt_cumulative));
    let first_quarter: u64 = (0..4)
        .map(|q| fig7.flt_cumulative[q][fig7.days.len() / 4])
        .sum();
    let last: u64 = total(&fig7.flt_cumulative);
    assert!(last >= first_quarter, "misses should accumulate");

    // Fig. 8: where FLT misses exist, ActiveDR's mean reduction is
    // non-negative in aggregate.
    let fig8 = Fig8Data::from_pair(&pair);
    let mean_all: f64 = Quadrant::ALL
        .iter()
        .filter(|q| fig8.stats[q.index()].n > 0)
        .map(|q| fig8.mean(*q))
        .sum::<f64>();
    assert!(mean_all >= 0.0, "aggregate mean reduction {mean_all}");
}

#[test]
fn snapshot_sweep_matches_table_shapes() {
    let data = SnapshotSweepData::compute(&scenario());
    for cell in &data.cells {
        // Table 4/5 shape: ActiveDR retains at least as much as FLT for
        // every active quadrant and no more for both-inactive.
        for q in [
            Quadrant::BothActive,
            Quadrant::OperationActiveOnly,
            Quadrant::OutcomeActiveOnly,
        ] {
            assert!(
                cell.adr.get(q).retained_bytes >= cell.flt.get(q).retained_bytes,
                "{}d {q}",
                cell.lifetime_days
            );
        }
        assert!(
            cell.adr.get(Quadrant::BothInactive).retained_bytes
                <= cell.flt.get(Quadrant::BothInactive).retained_bytes,
            "{}d inactive",
            cell.lifetime_days
        );
        // Fig. 11 shape: fewer active users affected under ActiveDR.
        for q in [
            Quadrant::BothActive,
            Quadrant::OperationActiveOnly,
            Quadrant::OutcomeActiveOnly,
        ] {
            let (f, a) = cell.users_affected()[q.index()];
            assert!(a <= f, "{}d {q}: {a} vs {f}", cell.lifetime_days);
        }
    }
    // §4.4 trend: the FLT-vs-ActiveDR retained delta for active users
    // shrinks as the lifetime grows toward the pre-purge regime's 90 days.
    let delta_ba = |lifetime: u32| -> i64 {
        data.cell(lifetime).unwrap().retained_delta()[Quadrant::BothActive.index()]
    };
    assert!(
        delta_ba(7) >= delta_ba(90),
        "7d delta {} should be >= 90d delta {}",
        delta_ba(7),
        delta_ba(90)
    );
}

#[test]
fn fig12_reports_fast_evaluation() {
    let data = Fig12Data::compute(&scenario());
    assert!(data.fired_triggers > 0);
    assert!(data.files_decided > 0);
    // The paper's resource-friendliness claim: activeness evaluation in
    // well under a second (ours evaluates a smaller population).
    assert!(
        data.eval.max < 5_000_000,
        "evaluation took up to {} µs",
        data.eval.max
    );
}

#[test]
fn tab1_and_ablation_render() {
    let s = scenario();
    let tab1 = Tab1Data::compute(&s);
    assert_eq!(tab1.rows.len(), 4);
    let ablation = AblationData::compute(&s);
    assert_eq!(ablation.retro.len(), 6);
    assert_eq!(ablation.adjust.len(), 2);
    assert_eq!(ablation.empty_periods.len(), 2);
}
