//! A system administrator's ActiveDR deployment, end to end:
//! configure activity types once, run the weekly retention loop with the
//! streaming evaluator, honour reservations, and read the §3.4 digest.
//!
//! ```text
//! cargo run --release --example admin_workflow
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "example code: unwrap keeps the walkthrough focused on the API"
)]
#![allow(
    clippy::cast_possible_truncation,
    reason = "example code: unwrap keeps the walkthrough focused on the API"
)]

use activedr_core::prelude::*;
use activedr_fs::{ExemptionList, Snapshot, VirtualFs};

fn main() {
    // -- one-time setup ---------------------------------------------------
    // This site tracks jobs and data transfers as operations, publications
    // as outcomes, weighting transfers down (they are cheap to generate).
    let mut registry = ActivityTypeRegistry::new();
    let job = registry.register(ActivityTypeSpec::new(
        "job_submission",
        ActivityClass::Operation,
    ));
    let transfer = registry.register(
        ActivityTypeSpec::new("data_transfer", ActivityClass::Operation).with_weight(0.25),
    );
    let publication =
        registry.register(ActivityTypeSpec::new("publication", ActivityClass::Outcome));

    let config = ActivenessConfig::year_window(30);
    let mut evaluator = StreamingEvaluator::new(registry.clone(), config);

    // The site's reservation list, maintained through tickets.
    let exemptions = ExemptionList::from_lines(
        "# ticket 881: instrument calibration tables\n/scratch/u2/calib/\n".lines(),
    );

    // -- the scratch system -----------------------------------------------
    let mut fs = VirtualFs::with_capacity(100 << 30);
    let day0 = Timestamp::from_days(0);
    for (path, owner, gib) in [
        ("/scratch/u1/run/alpha.h5", 1u32, 20u64),
        ("/scratch/u1/run/beta.h5", 1, 20),
        ("/scratch/u2/calib/tables.bin", 2, 10),
        ("/scratch/u2/old/stale.dat", 2, 25),
        ("/scratch/u3/leftover/core.dump", 3, 30),
    ] {
        fs.create(path, UserId(owner), gib << 30, day0).unwrap();
        evaluator.register_user(UserId(owner));
    }
    println!(
        "day 0: {} files, {:.0}% utilization",
        fs.file_count(),
        fs.utilization() * 100.0
    );

    // -- activity flows in as it happens ----------------------------------
    // u1 computes weekly; u2 published recently; u3 is gone.
    for week in 0..16 {
        evaluator.observe(ActivityEvent::new(
            UserId(1),
            job,
            Timestamp::from_days(7 * week),
            4096.0,
        ));
    }
    evaluator.observe(ActivityEvent::new(
        UserId(2),
        publication,
        Timestamp::from_days(100),
        (30 + 1) as f64,
    ));
    evaluator.observe(ActivityEvent::new(
        UserId(2),
        transfer,
        Timestamp::from_days(105),
        64.0, // GiB moved
    ));

    // -- the weekly retention cron job ------------------------------------
    let policy = ActiveDrPolicy::new(RetentionConfig::new(90));
    let tc = Timestamp::from_days(112);
    let table = evaluator.evaluate(tc);
    println!("\nactiveness at {tc}:");
    for u in [1u32, 2, 3] {
        let a = table.get(UserId(u));
        println!("  u{u}: {} (op {}, oc {})", Quadrant::of(a), a.op, a.oc);
    }

    // Free 40 GiB to get back under the watermark.
    let catalog = fs.catalog(&exemptions);
    let outcome = policy.run(PurgeRequest {
        tc,
        catalog: &catalog,
        activeness: &table,
        target_bytes: Some(40 << 30),
    });
    // Resolve paths before applying — ids die with their files.
    let purged_paths: Vec<(String, UserId)> = outcome
        .purged
        .iter()
        .map(|p| (fs.path_of(activedr_fs::NodeId(p.id.0 as u32)), p.user))
        .collect();
    fs.apply(&outcome);
    println!(
        "\npurge at {tc}: {} files / {} bytes, target met: {}, exempt skipped: {}",
        outcome.purged_files(),
        outcome.purged_bytes,
        outcome.target_met,
        outcome.exempt_skipped
    );
    for (path, user) in &purged_paths {
        println!("  purged {path} of {user}");
    }
    if !outcome.target_met {
        println!("  (target unreachable without touching active users' data — reported)");
    }

    // -- weekly snapshot for audit ----------------------------------------
    let snapshot = Snapshot::capture(&fs, tc);
    let image = snapshot.encode().unwrap();
    assert_eq!(Snapshot::decode(&image).unwrap(), snapshot);
    println!(
        "\nweekly snapshot: {} files, {} bytes, {} bytes of snapshot image archived",
        snapshot.len(),
        snapshot.total_bytes(),
        image.len()
    );

    // -- a user moves a reserved file: the reservation lapses --------------
    fs.rename(
        "/scratch/u2/calib/tables.bin",
        "/scratch/u2/moved/tables.bin",
    )
    .unwrap();
    println!(
        "\nu2 moved their calibration tables; still exempt? {} (per the §3.4 contract)",
        exemptions.is_exempt("/scratch/u2/moved/tables.bin")
    );
}
