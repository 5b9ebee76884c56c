//! Integration: the changelog-driven incremental catalog is identical to
//! the full-scan catalog at **every** retention trigger — same `FileId`
//! space, same user/file ordering, same exemption flags — over full
//! replays under all four policies.
//!
//! The full-scan run executes on a helper thread, streaming each trigger's
//! catalog through a bounded channel; the incremental run compares as it
//! goes, so peak memory stays at O(one catalog) even at `Small` scale.

#![allow(
    clippy::expect_used,
    reason = "test helper plumbing panics on harness failures by design"
)]

use activedr_core::files::Catalog;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{diff_catalogs, CatalogIndex, Delta, DeltaBuffer, ExemptionList, VirtualFs};
use activedr_sim::{run_instrumented, CatalogMode, Scale, Scenario, SimConfig, SimResult};
use std::sync::mpsc;

fn policy_configs(lifetime: u32) -> Vec<(&'static str, SimConfig)> {
    vec![
        ("FLT", SimConfig::flt(lifetime)),
        ("ActiveDR", SimConfig::activedr(lifetime)),
        ("ScratchCache", SimConfig::scratch_cache()),
        ("ValueBased", SimConfig::value_based(lifetime)),
    ]
}

fn assert_results_match(full: &SimResult, inc: &SimResult, label: &str) {
    assert_eq!(full.daily, inc.daily, "{label}: daily series diverged");
    assert_eq!(full.final_used, inc.final_used, "{label}: final bytes");
    assert_eq!(full.final_files, inc.final_files, "{label}: final files");
    assert_eq!(
        full.final_quadrants, inc.final_quadrants,
        "{label}: quadrants"
    );
    assert_eq!(
        full.retentions.len(),
        inc.retentions.len(),
        "{label}: trigger count"
    );
    for (f, i) in full.retentions.iter().zip(inc.retentions.iter()) {
        let day = f.day;
        assert_eq!(f.day, i.day, "{label}: trigger day");
        assert_eq!(f.used_before, i.used_before, "{label} day {day}");
        assert_eq!(f.used_after, i.used_after, "{label} day {day}");
        assert_eq!(f.target_bytes, i.target_bytes, "{label} day {day}");
        assert_eq!(f.target_met, i.target_met, "{label} day {day}");
        assert_eq!(f.purged_files, i.purged_files, "{label} day {day}");
        assert_eq!(f.purged_bytes, i.purged_bytes, "{label} day {day}");
        assert_eq!(f.users_affected, i.users_affected, "{label} day {day}");
        assert_eq!(f.top_losers, i.top_losers, "{label} day {day}");
        assert_eq!(f.breakdown, i.breakdown, "{label} day {day}");
        assert_eq!(f.group_scans, i.group_scans, "{label} day {day}");
    }
}

/// Run `cfg` in both catalog modes over the same scenario, comparing the
/// trigger-time catalogs pairwise and the final results field by field.
fn assert_modes_equivalent(scenario: &Scenario, name: &str, cfg: SimConfig) {
    let full_cfg = cfg.clone().with_catalog_mode(CatalogMode::FullScan);
    let inc_cfg = cfg.with_catalog_mode(CatalogMode::Incremental);
    let (tx, rx) = mpsc::sync_channel::<(i64, Catalog)>(2);
    let traces = &scenario.traces;
    let fs_full = scenario.initial_fs.clone();
    let fs_inc = scenario.initial_fs.clone();

    let (full_res, inc_res, triggers) = std::thread::scope(|s| {
        let producer = s.spawn(move || {
            run_instrumented(traces, fs_full, &full_cfg, None, &mut |p| {
                // The receiver disappears if the comparing side already
                // failed; finishing quietly lets its panic surface.
                tx.send((p.day, p.catalog.clone())).ok();
            })
            .0
        });
        let mut triggers = 0usize;
        let inc_res = run_instrumented(traces, fs_inc, &inc_cfg, None, &mut |p| {
            let (day, full_catalog) = rx.recv().expect("full-scan run ended early");
            assert_eq!(day, p.day, "{name}: trigger days diverged");
            assert_eq!(
                &full_catalog, p.catalog,
                "{name}: catalog mismatch at day {day}"
            );
            triggers += 1;
        })
        .0;
        let full_res = producer.join().expect("full-scan thread panicked");
        (full_res, inc_res, triggers)
    });

    assert!(triggers > 0, "{name}: no triggers compared");
    assert_results_match(&full_res, &inc_res, name);
}

#[test]
fn tiny_scale_catalogs_identical_across_modes() {
    let scenario = Scenario::build(Scale::Tiny, 71);
    for (name, cfg) in policy_configs(90) {
        assert_modes_equivalent(&scenario, name, cfg);
    }
}

#[test]
fn small_scale_catalogs_identical_across_modes_all_policies() {
    let scenario = Scenario::build(Scale::Small, 42);
    for (name, cfg) in policy_configs(90) {
        assert_modes_equivalent(&scenario, name, cfg);
    }
}

/// Drain the fs changelog into `index` and assert the incremental
/// catalog equals a fresh full scan, field by field.
fn assert_index_matches_scan(
    fs: &mut VirtualFs,
    index: &mut CatalogIndex,
    ex: &ExemptionList,
    label: &str,
) {
    index.apply(fs.drain_changelog(), ex);
    let scan = fs.catalog(ex);
    let diffs = diff_catalogs(index.snapshot(), &scan);
    assert!(diffs.is_empty(), "{label}: incremental != scan: {diffs:?}");
}

fn changelog_fs() -> (VirtualFs, CatalogIndex, ExemptionList) {
    let mut fs = VirtualFs::with_capacity(1 << 30);
    fs.enable_changelog();
    let ex = ExemptionList::new();
    let index = CatalogIndex::from_fs(&fs, &ex);
    (fs, index, ex)
}

#[test]
fn rename_chain_onto_own_ancestor_keeps_index_exact() {
    // `a/b -> a` is the adversarial shape: the destination is a strict
    // prefix of the source, so the rename only succeeds because the trie
    // removes the source before inserting the destination. Chain it both
    // ways and interleave a blocking sibling.
    let (mut fs, mut index, ex) = changelog_fs();
    let day0 = Timestamp::from_days(0);

    fs.create("/a/b", UserId(1), 100, day0).expect("create a/b");
    fs.create("/a/c", UserId(2), 50, day0).expect("create a/c");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after creates");

    // Blocked: /a/c still extends /a, so inserting /a collides.
    assert!(fs.rename("/a/b", "/a").is_err(), "sibling must block");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after blocked rename");

    fs.remove("/a/c");
    fs.rename("/a/b", "/a").expect("collapse onto ancestor");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after collapse");

    // And back down: a file can move to a path strictly beneath itself.
    fs.rename("/a", "/a/b/c").expect("descend beneath itself");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after descend");
}

#[test]
fn rename_onto_purged_path_keeps_index_exact() {
    // Remove a file (as a purge does), then rename another file onto the
    // vacated path: the index must fold Remove -> Upsert chains on the
    // same path without resurrecting the purged victim's metadata.
    let (mut fs, mut index, ex) = changelog_fs();
    let day0 = Timestamp::from_days(0);
    let day9 = Timestamp::from_days(9);

    fs.create("/scratch/victim", UserId(1), 4096, day0)
        .expect("create victim");
    fs.create("/scratch/mover", UserId(2), 512, day9)
        .expect("create mover");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after creates");

    assert!(fs.remove("/scratch/victim").is_some(), "purge victim");
    fs.rename("/scratch/mover", "/scratch/victim")
        .expect("rename onto purged path");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after rename-onto-purged");

    let meta = fs.meta("/scratch/victim").expect("moved file");
    assert_eq!(meta.owner, UserId(2), "moved file kept its owner");
    assert_eq!(meta.size, 512, "moved file kept its size");
}

#[test]
fn rename_then_restage_completion_keeps_index_exact() {
    // A restage completion re-creates a purged path with fresh metadata.
    // If the path was meanwhile occupied by a rename, the completion is
    // an exact-match replace; the index must track owner/size swaps on a
    // stable path, plus a neighbouring directory emptied and replaced by
    // a file.
    let (mut fs, mut index, ex) = changelog_fs();
    let day0 = Timestamp::from_days(0);
    let day20 = Timestamp::from_days(20);

    fs.create("/data/hot", UserId(1), 1000, day0).expect("hot");
    fs.create("/data/warm", UserId(2), 2000, day0)
        .expect("warm");
    assert!(fs.remove("/data/hot").is_some(), "purge hot");
    fs.rename("/data/warm", "/data/hot")
        .expect("squat the path");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after squat");

    // Restage completion: exact-match insert replaces the squatter.
    fs.create("/data/hot", UserId(1), 1000, day20)
        .expect("restage completion replaces squatter");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after restage completion");
    let meta = fs.meta("/data/hot").expect("restaged file");
    assert_eq!(meta.owner, UserId(1), "restage restored the owner");

    // Empty a directory beside the restaged path, then create a file at
    // the directory's own path.
    fs.create("/data/hot2/x", UserId(3), 10, day20).expect("x");
    fs.create("/data/hot2/y", UserId(3), 20, day20).expect("y");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after subtree creates");
    let x = fs.remove("/data/hot2/x").expect("remove x");
    let y = fs.remove("/data/hot2/y").expect("remove y");
    assert_eq!(
        x.size + y.size,
        30,
        "emptying the directory freed both files"
    );
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after subtree removal");
    fs.create("/data/hot2", UserId(3), 5, day20)
        .expect("file where the subtree was");
    assert_index_matches_scan(&mut fs, &mut index, &ex, "after subtree re-create");
}

/// Apply `deltas` to clones of `seed` one at a time and as one buffered
/// (coalescing) flush; both must land on identical catalogs and
/// accounting.
fn assert_batched_equals_per_delta(
    seed: &CatalogIndex,
    deltas: &[Delta],
    ex: &ExemptionList,
    label: &str,
) {
    let mut per_delta = seed.clone();
    for d in deltas {
        per_delta.apply([d.clone()], ex);
    }
    let mut batched = seed.clone();
    let mut buffer = DeltaBuffer::unbounded();
    buffer.absorb(deltas.iter().cloned());
    batched.flush(&mut buffer, ex);
    assert_eq!(
        batched.file_count(),
        per_delta.file_count(),
        "{label}: file count"
    );
    assert_eq!(
        batched.total_bytes(),
        per_delta.total_bytes(),
        "{label}: total bytes"
    );
    let diffs = diff_catalogs(batched.snapshot(), per_delta.snapshot());
    assert!(diffs.is_empty(), "{label}: batched != per-delta: {diffs:?}");
}

#[test]
fn upsert_remove_upsert_one_window_matches_per_delta() {
    // The same path goes create → touch → remove → re-create (new node
    // id, new owner) inside one buffered window. Coalescing keys by id,
    // so the window nets to a Remove of the old id plus an Upsert of the
    // new one — which must land exactly where per-delta application does.
    let (mut fs, mut index, ex) = changelog_fs();
    fs.create("/u/keep", UserId(1), 7, Timestamp::from_days(0))
        .expect("keep");
    index.apply(fs.drain_changelog(), &ex);

    fs.create("/u/f", UserId(1), 10, Timestamp::from_days(1))
        .expect("create");
    fs.access("/u/f", Timestamp::from_days(2));
    assert!(fs.remove("/u/f").is_some(), "remove");
    fs.create("/u/f", UserId(2), 99, Timestamp::from_days(3))
        .expect("re-create");
    let deltas = fs.drain_changelog();
    assert_batched_equals_per_delta(&index, &deltas, &ex, "upsert-remove-upsert");

    // Folding the window into the live index still matches a full scan.
    index.apply(deltas, &ex);
    let diffs = diff_catalogs(index.snapshot(), &fs.catalog(&ex));
    assert!(diffs.is_empty(), "index != scan: {diffs:?}");
}

#[test]
fn rename_split_across_flush_boundary_matches_per_delta() {
    // A rename reaches the changelog as a Remove (source side) plus an
    // Upsert (destination) for one node id. Split the drained window at
    // every position — including between a rename's two halves — flush
    // each part as its own batch, and assert every split lands on the
    // per-delta result.
    let (mut fs, mut index, ex) = changelog_fs();
    fs.create("/src/a", UserId(1), 64, Timestamp::from_days(0))
        .expect("a");
    fs.create("/dst/busy", UserId(2), 32, Timestamp::from_days(0))
        .expect("busy");
    index.apply(fs.drain_changelog(), &ex);

    fs.rename("/src/a", "/dst/moved").expect("rename");
    fs.rename("/dst/busy", "/src/a")
        .expect("swap into the vacated path");
    let deltas = fs.drain_changelog();
    assert!(deltas.len() >= 2, "renames must emit multiple deltas");

    let mut per_delta = index.clone();
    for d in &deltas {
        per_delta.apply([d.clone()], &ex);
    }

    for cut in 0..=deltas.len() {
        let mut split = index.clone();
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb(deltas.iter().take(cut).cloned());
        split.flush(&mut buffer, &ex);
        buffer.absorb(deltas.iter().skip(cut).cloned());
        split.flush(&mut buffer, &ex);
        let diffs = diff_catalogs(split.snapshot(), per_delta.snapshot());
        assert!(
            diffs.is_empty(),
            "cut at {cut}: split != per-delta: {diffs:?}"
        );
        assert_eq!(split.total_bytes(), per_delta.total_bytes(), "cut at {cut}");
    }
}

#[test]
fn purge_and_restage_completion_in_one_window_matches_per_delta() {
    // A purge's Remove and the restage completion's Upsert for the same
    // path land in one buffered window: the net effect is a replace with
    // the restaged metadata (fresh atime, reset access count), never a
    // resurrection of the purged record.
    let (mut fs, mut index, ex) = changelog_fs();
    fs.create("/scratch/u1/data", UserId(1), 4096, Timestamp::from_days(0))
        .expect("data");
    fs.create("/scratch/u1/other", UserId(1), 100, Timestamp::from_days(0))
        .expect("other");
    fs.access("/scratch/u1/data", Timestamp::from_days(1));
    index.apply(fs.drain_changelog(), &ex);

    assert!(fs.remove("/scratch/u1/data").is_some(), "purge");
    fs.create("/scratch/u1/data", UserId(1), 4096, Timestamp::from_days(9))
        .expect("restage completion");
    let deltas = fs.drain_changelog();
    assert_batched_equals_per_delta(&index, &deltas, &ex, "purge+restage one window");

    index.apply(deltas, &ex);
    let diffs = diff_catalogs(index.snapshot(), &fs.catalog(&ex));
    assert!(diffs.is_empty(), "index != scan: {diffs:?}");
    let meta = fs.meta("/scratch/u1/data").expect("restaged file");
    assert_eq!(meta.atime, Timestamp::from_days(9), "restage reset atime");
    assert_eq!(meta.access_count, 0, "restage reset access count");
}

#[test]
fn short_lifetime_stresses_purge_and_recreate_churn() {
    // A 30-day lifetime purges far more aggressively, so far more
    // remove-then-recreate delta chains flow through the index.
    let scenario = Scenario::build(Scale::Tiny, 72);
    assert_modes_equivalent(&scenario, "FLT-30", SimConfig::flt(30));
    assert_modes_equivalent(&scenario, "ActiveDR-30", SimConfig::activedr(30));
}
