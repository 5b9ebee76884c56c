//! Cross-crate integration: the qualitative policy claims of the paper,
//! checked on full synthetic replays.

use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_sim::experiments::run_pair;
use activedr_sim::{Scale, Scenario};
use activedr_trace::Archetype;

/// The headline claim: at the same purge pressure, ActiveDR misses fewer
/// files than FLT over the replay year.
#[test]
fn activedr_reduces_total_misses() {
    let scenario = Scenario::build(Scale::Small, 42);
    let pair = run_pair(&scenario, 90);
    assert!(
        pair.adr.total_misses() <= pair.flt.total_misses(),
        "ActiveDR {} vs FLT {}",
        pair.adr.total_misses(),
        pair.flt.total_misses()
    );
    // And it should actually purge data, not win by doing nothing at all.
    assert!(pair.adr.total_purged_bytes() > 0);
}

/// Fig. 11's shape: far fewer active users are touched by ActiveDR purges.
#[test]
fn active_users_are_protected() {
    let scenario = Scenario::build(Scale::Small, 42);
    let pair = run_pair(&scenario, 90);
    let affected = |result: &activedr_sim::SimResult| -> (u64, u64) {
        let mut active = 0u64;
        let mut inactive = 0u64;
        for event in &result.retentions {
            for q in Quadrant::ALL {
                let n = event.breakdown.get(q).users_affected;
                if q == Quadrant::BothInactive {
                    inactive += n;
                } else {
                    active += n;
                }
            }
        }
        (active, inactive)
    };
    let (flt_active, _) = affected(&pair.flt);
    let (adr_active, adr_inactive) = affected(&pair.adr);
    assert!(
        adr_active <= flt_active,
        "ActiveDR hit {adr_active} active user-events vs FLT {flt_active}"
    );
    // ActiveDR's purges are concentrated on inactive users.
    assert!(adr_inactive >= adr_active);
}

/// The toucher archetype games FLT (files always fresh) but cannot game
/// ActiveDR: with no jobs or publications their rank stays inactive, so
/// their bytes are reclaimable by ActiveDR while FLT keeps them forever.
#[test]
fn touchers_cannot_game_activedr() {
    let scenario = Scenario::build(Scale::Small, 42);
    let touchers: Vec<UserId> = scenario
        .traces
        .users
        .iter()
        .filter(|u| u.archetype == Archetype::Toucher)
        .map(|u| u.id)
        .collect();
    assert!(!touchers.is_empty());

    // Run both policies to the horizon and inspect the final state.
    // Recovery (re-staging) is disabled so the purge effect is visible in
    // the final state: with it enabled the toucher would just re-stage the
    // purged files — paying the re-transmission cost ActiveDR is designed
    // to impose on the gaming behaviour.
    let mut flt_cfg = activedr_sim::SimConfig::flt(90);
    flt_cfg.recovery = activedr_sim::RecoveryModel::None;
    let mut adr_cfg = activedr_sim::SimConfig::activedr(90);
    adr_cfg.recovery = activedr_sim::RecoveryModel::None;
    let (_, fs_flt) = activedr_sim::run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &flt_cfg,
        None,
    );
    let (_, fs_adr) = activedr_sim::run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &adr_cfg,
        None,
    );
    let toucher_bytes = |fs: &activedr_fs::VirtualFs| -> u64 {
        fs.iter()
            .filter(|(_, _, m)| touchers.contains(&m.owner))
            .map(|(_, _, m)| m.size)
            .sum()
    };
    let flt_bytes = toucher_bytes(&fs_flt);
    let adr_bytes = toucher_bytes(&fs_adr);
    // FLT cannot purge a file that is touched every 30 days with a 90-day
    // lifetime, so the touchers keep everything; ActiveDR ranks them
    // inactive and is free to reclaim their space.
    assert!(flt_bytes > 0);
    assert!(
        adr_bytes < flt_bytes,
        "touchers kept as much under ActiveDR ({adr_bytes}) as under FLT ({flt_bytes})"
    );
}

/// Retention keeps utilization near the target: after each ActiveDR event
/// that met its target, utilization is at (or below) 50 %.
#[test]
fn purge_target_utilization_is_respected() {
    let scenario = Scenario::build(Scale::Small, 42);
    let pair = run_pair(&scenario, 90);
    let capacity = convert::approx_f64(pair.adr.capacity);
    for event in &pair.adr.retentions {
        if event.target_met {
            assert!(
                convert::approx_f64(event.used_after) <= capacity * 0.5 + 1.0,
                "day {}: used_after {} exceeds 50% of {}",
                event.day,
                event.used_after,
                capacity
            );
        }
    }
}

/// Shorter lifetimes cause more misses under FLT (the §4.4 sweep
/// direction).
#[test]
fn flt_misses_grow_as_lifetime_shrinks() {
    let scenario = Scenario::build(Scale::Tiny, 42);
    let mut last = u64::MAX;
    for lifetime in [7u32, 90] {
        let result = activedr_sim::run(
            &scenario.traces,
            scenario.initial_fs.clone(),
            &activedr_sim::SimConfig::flt(lifetime),
        );
        let misses = result.total_misses();
        assert!(
            misses <= last,
            "lifetime {lifetime}: {misses} misses, shorter lifetime had {last}"
        );
        last = misses;
    }
}
