//! Compare the Table 1 facility purge policies — and ActiveDR — on the
//! same synthetic scratch file system.
//!
//! ```text
//! cargo run --example facility_policies --release
//! ```
//!
//! Builds the standard synthetic scenario, replays it to the snapshot day
//! under a 90-day FLT regime, and then asks: if this state had to be
//! purged today, what would each facility's preset remove, and what would
//! ActiveDR remove to reach the same space target?

use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::ExemptionList;
use activedr_sim::{run_until, Scale, Scenario, SimConfig};
use activedr_trace::activity_events;

fn main() {
    let scenario = Scenario::build(Scale::Small, 42);
    println!(
        "scenario: {} users, {} initial files, {} bytes capacity",
        scenario.traces.users.len(),
        scenario.traces.initial_files.len(),
        scenario.initial_fs.capacity()
    );

    // Age the file system to the snapshot day under the OLCF production
    // regime.
    let (_, fs) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::flt(90),
        Some(scenario.snapshot_day()),
    );
    let tc = Timestamp::from_days(scenario.snapshot_day());
    let catalog = fs.catalog(&ExemptionList::new());
    println!(
        "snapshot day {}: {} files, {:.1}% of capacity used\n",
        scenario.snapshot_day(),
        catalog.total_files(),
        100.0 * convert::approx_f64(fs.used_bytes()) / convert::approx_f64(fs.capacity())
    );

    // What each facility's fixed-lifetime preset would purge.
    let empty_table = ActivenessTable::new();
    println!(
        "{:<8} {:>10} {:>16} {:>16}",
        "site", "lifetime", "purged files", "purged bytes"
    );
    let mut flt90_purged = 0u64;
    for facility in Facility::ALL {
        let outcome = FltPolicy::facility(facility).run(PurgeRequest {
            tc,
            catalog: &catalog,
            activeness: &empty_table,
            target_bytes: None,
        });
        if facility == Facility::Olcf {
            flt90_purged = outcome.purged_bytes;
        }
        println!(
            "{:<8} {:>7}d {:>16} {:>16}",
            facility.name(),
            facility.lifetime().whole_days(),
            outcome.purged_files(),
            outcome.purged_bytes
        );
    }

    // ActiveDR reaching the same byte target as OLCF's FLT-90 — but from
    // the least active users first.
    let registry = ActivityTypeRegistry::paper_default();
    let evaluator = ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(90));
    let events = activity_events(&scenario.traces, &registry, tc);
    let table = evaluator.evaluate(tc, &scenario.traces.user_ids(), &events);
    let outcome = ActiveDrPolicy::new(RetentionConfig::new(90)).run(PurgeRequest {
        tc,
        catalog: &catalog,
        activeness: &table,
        target_bytes: Some(flt90_purged),
    });
    let breakdown = RetentionBreakdown::compute(&catalog, &table, &outcome);
    println!(
        "\nActiveDR reaching OLCF's target ({flt90_purged} bytes): purged {} bytes, target met: {}",
        outcome.purged_bytes, outcome.target_met
    );
    println!("per quadrant (users affected / bytes purged):");
    for q in Quadrant::ALL {
        let s = breakdown.get(q);
        println!(
            "  {:<24} {:>6} users  {:>16} bytes",
            q.name(),
            s.users_affected,
            s.purged_bytes
        );
    }
}
