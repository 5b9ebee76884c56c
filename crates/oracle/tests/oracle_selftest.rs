//! Self-tests of the differential oracle itself.
//!
//! The acceptance bar for an oracle is not "it passes" but "it would
//! have failed": these tests smoke a batch of clean seeds AND verify
//! that each deliberately-injected model bug (skipping the atime touch on
//! a restaged file, keeping a purge record across a create) is caught and
//! that the ddmin shrinker reduces the divergent tape to a tiny
//! reproducible sequence.

use activedr_oracle::{
    fuzz_one, gen_sequence, run_fs_differential, shrink_sequence, GenConfig, InjectedBug,
};

#[test]
fn fuzz_smoke_seeds_are_clean() {
    for seed in 0..8 {
        if let Err((_, divergence)) = fuzz_one(seed) {
            panic!("seed {seed} diverged: {divergence}");
        }
    }
}

#[test]
fn injected_bug_is_caught_and_shrunk_small() {
    // The minimal chain is create -> purge -> restage -> read.
    assert_caught_and_shrunk_small(InjectedBug::SkipRestageTouch);
}

#[test]
fn kept_tombstone_bug_is_caught_and_shrunk_small() {
    // The minimal chain is create -> purge -> create: the tombstone
    // comparison at the re-created path sees the stale record.
    assert_caught_and_shrunk_small(InjectedBug::KeepTombstoneOnCreate);
}

/// Some tape of the first 64 seeds trips `bug`, the same tape is clean
/// without it, and the shrinker reduces it to at most 12 ops that still
/// trip it.
fn assert_caught_and_shrunk_small(bug: InjectedBug) {
    let cfg = GenConfig::default();
    let bug = Some(bug);

    // Find a seed whose tape trips the injected bug; scan a small window
    // so the test stays fast.
    let mut caught = None;
    for seed in 0..64 {
        let seq = gen_sequence(seed, &cfg);
        if run_fs_differential(&seq, bug).is_err() {
            caught = Some((seed, seq));
            break;
        }
    }
    let Some((seed, seq)) = caught else {
        panic!("{bug:?} was never caught in seeds 0..64 — oracle is blind to it");
    };

    // The same tape must be clean without the bug: the divergence is the
    // injected defect, not a latent model/engine disagreement.
    assert!(
        run_fs_differential(&seq, None).is_ok(),
        "seed {seed} diverges even without the injected bug"
    );

    // Shrink against the buggy model and check the repro is tiny: anything
    // over 12 ops means the shrinker is broken.
    let minimized = shrink_sequence(&seq, |s| run_fs_differential(s, bug).is_err());
    assert!(
        run_fs_differential(&minimized, bug).is_err(),
        "minimized tape no longer reproduces the bug"
    );
    assert!(
        run_fs_differential(&minimized, None).is_ok(),
        "minimized tape diverges without the bug"
    );
    assert!(
        minimized.len() <= 12,
        "seed {seed}: shrinker left {} ops (expected <= 12):\n{minimized}",
        minimized.len()
    );
}
