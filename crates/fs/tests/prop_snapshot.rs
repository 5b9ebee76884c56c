//! Property tests for snapshot capture/diff: the weekly-snapshot workflow
//! must reconstruct states exactly and diffs must partition correctly.

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{Snapshot, VirtualFs};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_path() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec!["a", "b", "proj", "u1", "u2", "run", "out"]),
        1..5,
    )
    .prop_map(|comps| format!("/{}", comps.join("/")))
}

#[derive(Debug, Clone)]
enum Op {
    Create(String, u64, i64),
    Remove(String),
    Access(String, i64),
}

fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (arb_path(), 1u64..1000, 0i64..100).prop_map(|(p, s, d)| Op::Create(p, s, d)),
            arb_path().prop_map(Op::Remove),
            (arb_path(), 100i64..200).prop_map(|(p, d)| Op::Access(p, d)),
        ],
        0..n,
    )
}

fn apply(fs: &mut VirtualFs, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Create(p, s, d) => {
                fs.create(p, UserId(1), *s, Timestamp::from_days(*d)).ok();
            }
            Op::Remove(p) => {
                fs.remove(p);
            }
            Op::Access(p, d) => {
                fs.access(p, Timestamp::from_days(*d));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Capture → encode → decode returns the captured snapshot, and
    /// restoring it reproduces the exact file population.
    #[test]
    fn capture_restore_is_lossless(ops in arb_ops(60)) {
        let mut fs = VirtualFs::with_capacity(1 << 40);
        apply(&mut fs, &ops);
        let snap = Snapshot::capture(&fs, Timestamp::from_days(300));
        let reloaded = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        prop_assert_eq!(&reloaded, &snap);
        let (restored, skipped) = reloaded.restore();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(restored.file_count(), fs.file_count());
        prop_assert_eq!(restored.used_bytes(), fs.used_bytes());
        for (path, _, meta) in fs.iter() {
            let m = restored.meta(&path).expect("file lost");
            prop_assert_eq!(m.size, meta.size);
            prop_assert_eq!(m.atime, meta.atime);
        }
    }

    /// Diff partitions: created ∪ touched ∪ unchanged = newer snapshot;
    /// removed is disjoint from the newer snapshot; created is disjoint
    /// from the older one.
    #[test]
    fn diff_partitions_the_populations(
        ops1 in arb_ops(40),
        ops2 in arb_ops(40),
    ) {
        let mut fs = VirtualFs::with_capacity(1 << 40);
        apply(&mut fs, &ops1);
        let before = Snapshot::capture(&fs, Timestamp::from_days(100));
        apply(&mut fs, &ops2);
        let after = Snapshot::capture(&fs, Timestamp::from_days(200));

        let diff = before.diff(&after);
        let old_paths: HashSet<&str> =
            before.entries.iter().map(|e| e.path.as_str()).collect();
        let new_paths: HashSet<&str> =
            after.entries.iter().map(|e| e.path.as_str()).collect();

        for e in &diff.created {
            prop_assert!(new_paths.contains(e.path.as_str()));
            prop_assert!(!old_paths.contains(e.path.as_str()));
        }
        for e in &diff.removed {
            prop_assert!(old_paths.contains(e.path.as_str()));
            prop_assert!(!new_paths.contains(e.path.as_str()));
        }
        for e in &diff.touched {
            prop_assert!(new_paths.contains(e.path.as_str()));
            prop_assert!(old_paths.contains(e.path.as_str()));
        }
        // Count accounting: |new| = |old| - removed + created.
        prop_assert_eq!(
            after.len(),
            before.len() - diff.removed.len() + diff.created.len()
        );
        // Self-diff is empty.
        prop_assert!(after.diff(&after).is_empty());
    }
}
