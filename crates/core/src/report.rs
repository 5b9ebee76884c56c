//! Per-quadrant accounting of a retention run.
//!
//! The paper's evaluation reports everything broken down by the four user
//! activeness groups: bytes retained/purged per group (Figs. 9-10,
//! Tables 4-6) and the number of users affected by purge (Fig. 11). This
//! module derives those numbers from a [`RetentionOutcome`] plus the
//! activeness table that drove it.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::activeness::ActivenessTable;
use crate::classify::Quadrant;
use crate::convert;
use crate::files::Catalog;
use crate::policy::RetentionOutcome;
use crate::user::UserId;
use serde::{Deserialize, Serialize};

/// Retention accounting for one activeness quadrant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QuadrantStats {
    /// Users classified into the quadrant.
    pub users_total: u64,
    /// Users that lost at least one file (Fig. 11).
    pub users_affected: u64,
    /// Files purged from the quadrant's users.
    pub purged_files: u64,
    /// Bytes purged from the quadrant's users.
    pub purged_bytes: u64,
    /// Files that survived the run.
    pub retained_files: u64,
    /// Bytes that survived the run.
    pub retained_bytes: u64,
}

impl QuadrantStats {
    /// Purged plus retained bytes.
    pub fn total_bytes(&self) -> u64 {
        self.purged_bytes + self.retained_bytes
    }
}

/// Full per-quadrant breakdown of one retention run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RetentionBreakdown {
    /// Indexed by [`Quadrant::index`].
    pub by_quadrant: [QuadrantStats; 4],
}

impl RetentionBreakdown {
    /// Account every file in `catalog` as purged or retained, attributing
    /// it to the owner's quadrant under `table` (users unknown to the table
    /// are new users and count as both-active via the neutral rank).
    ///
    /// `outcome` must purge files of `catalog`, each at most once, as every
    /// policy's outcome for that catalog does. The purged `(user, size)`
    /// pairs are sorted by user and merged with `catalog.users`, which is
    /// ascending by user; a user's retained files and bytes are their
    /// totals minus what was purged. No file is looked up by id.
    pub fn compute(
        catalog: &Catalog,
        table: &ActivenessTable,
        outcome: &RetentionOutcome,
    ) -> RetentionBreakdown {
        let mut purged: Vec<(UserId, u64)> =
            outcome.purged.iter().map(|p| (p.user, p.size)).collect();
        purged.sort_unstable_by_key(|&(user, _)| user);
        let mut purged = purged.into_iter().peekable();
        let mut by_quadrant = [QuadrantStats::default(); 4];
        for uf in &catalog.users {
            let q = Quadrant::of(table.get(uf.user));
            let stats = &mut by_quadrant[q.index()];
            stats.users_total += 1;
            // Skip purges of users the catalog does not list.
            while purged.next_if(|&(user, _)| user < uf.user).is_some() {}
            let (mut files, mut bytes) = (0u64, 0u64);
            while let Some((_, size)) = purged.next_if(|&(user, _)| user == uf.user) {
                files += 1;
                bytes += size;
            }
            stats.purged_files += files;
            stats.purged_bytes += bytes;
            stats.retained_files += convert::u64_from_usize(uf.file_count()).saturating_sub(files);
            stats.retained_bytes += uf.total_bytes().saturating_sub(bytes);
            if files > 0 {
                stats.users_affected += 1;
            }
        }
        RetentionBreakdown { by_quadrant }
    }

    /// Stats for one quadrant.
    pub fn get(&self, q: Quadrant) -> QuadrantStats {
        self.by_quadrant[q.index()]
    }

    /// Bytes purged across all quadrants.
    pub fn total_purged_bytes(&self) -> u64 {
        self.by_quadrant.iter().map(|s| s.purged_bytes).sum()
    }

    /// Bytes retained across all quadrants.
    pub fn total_retained_bytes(&self) -> u64 {
        self.by_quadrant.iter().map(|s| s.retained_bytes).sum()
    }

    /// Users that lost files, across all quadrants.
    pub fn total_users_affected(&self) -> u64 {
        self.by_quadrant.iter().map(|s| s.users_affected).sum()
    }
}

/// Signed difference in retained bytes between two runs per quadrant —
/// the "ActiveDR − FLT" rows of Tables 5 and 6.
pub fn retained_delta(a: &RetentionBreakdown, b: &RetentionBreakdown) -> [i64; 4] {
    let mut out = [0i64; 4];
    for q in Quadrant::ALL {
        out[q.index()] = convert::i64_from_u64(a.get(q).retained_bytes)
            - convert::i64_from_u64(b.get(q).retained_bytes);
    }
    out
}

/// Percentage of bytes that `a` retains above `b` per quadrant — Table 4.
/// `None` when `b` retained nothing in that quadrant.
pub fn retained_delta_pct(a: &RetentionBreakdown, b: &RetentionBreakdown) -> [Option<f64>; 4] {
    let mut out = [None; 4];
    for q in Quadrant::ALL {
        let base = b.get(q).retained_bytes;
        if base > 0 {
            let delta = convert::approx_f64(a.get(q).retained_bytes) - convert::approx_f64(base);
            out[q.index()] = Some(100.0 * delta / convert::approx_f64(base));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activeness::UserActiveness;
    use crate::config::RetentionConfig;
    use crate::files::{FileId, FileRecord, UserFiles};
    use crate::policy::activedr::ActiveDrPolicy;
    use crate::policy::flt::FltPolicy;
    use crate::policy::value_based::ValueBasedPolicy;
    use crate::policy::{PurgeRequest, PurgedFile, RetentionPolicy};
    use crate::rank::Rank;
    use crate::time::Timestamp;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn act(op: f64, oc: f64) -> UserActiveness {
        UserActiveness::new(Rank::from_value(op), Rank::from_value(oc))
    }

    fn setup() -> (Catalog, ActivenessTable, RetentionOutcome) {
        let catalog = Catalog::new(vec![
            UserFiles::new(
                UserId(1), // both active
                vec![
                    FileRecord::new(FileId(1), 100, Timestamp::EPOCH),
                    FileRecord::new(FileId(2), 50, Timestamp::EPOCH),
                ],
            ),
            UserFiles::new(
                UserId(2), // both inactive
                vec![FileRecord::new(FileId(3), 200, Timestamp::EPOCH)],
            ),
            UserFiles::new(
                UserId(3), // new user -> neutral -> both active
                vec![FileRecord::new(FileId(4), 25, Timestamp::EPOCH)],
            ),
        ]);
        let table: ActivenessTable = [(UserId(1), act(2.0, 2.0)), (UserId(2), act(0.0, 0.0))]
            .into_iter()
            .collect();
        let outcome = RetentionOutcome {
            purged: vec![
                PurgedFile {
                    user: UserId(1),
                    id: FileId(2),
                    size: 50,
                },
                PurgedFile {
                    user: UserId(2),
                    id: FileId(3),
                    size: 200,
                },
            ],
            purged_bytes: 250,
            target_met: true,
            group_scans: vec![],
            exempt_skipped: 0,
        };
        (catalog, table, outcome)
    }

    #[test]
    fn breakdown_attributes_by_quadrant() {
        let (catalog, table, outcome) = setup();
        let b = RetentionBreakdown::compute(&catalog, &table, &outcome);

        let ba = b.get(Quadrant::BothActive);
        assert_eq!(ba.users_total, 2); // u1 + new u3
        assert_eq!(ba.users_affected, 1); // only u1 lost files
        assert_eq!(ba.purged_bytes, 50);
        assert_eq!(ba.retained_bytes, 125); // u1's f1 + u3's f4

        let bi = b.get(Quadrant::BothInactive);
        assert_eq!(bi.users_total, 1);
        assert_eq!(bi.users_affected, 1);
        assert_eq!(bi.purged_bytes, 200);
        assert_eq!(bi.retained_bytes, 0);

        assert_eq!(b.total_purged_bytes(), 250);
        assert_eq!(b.total_retained_bytes(), 125);
        assert_eq!(b.total_users_affected(), 2);
        assert_eq!(
            b.get(Quadrant::OperationActiveOnly),
            QuadrantStats::default()
        );
    }

    #[test]
    fn deltas_between_breakdowns() {
        let (catalog, table, outcome) = setup();
        let with_purge = RetentionBreakdown::compute(&catalog, &table, &outcome);
        let no_purge = RetentionBreakdown::compute(&catalog, &table, &RetentionOutcome::default());
        let delta = retained_delta(&no_purge, &with_purge);
        assert_eq!(delta[Quadrant::BothActive.index()], 50);
        assert_eq!(delta[Quadrant::BothInactive.index()], 200);

        let pct = retained_delta_pct(&no_purge, &with_purge);
        assert!((pct[Quadrant::BothActive.index()].unwrap() - 40.0).abs() < 1e-9);
        // Baseline retained 0 in both-inactive -> undefined pct.
        assert!(pct[Quadrant::BothInactive.index()].is_none());
    }

    /// Per-file accounting: every catalog file is looked up in a set of
    /// purged ids. The reference the merge in
    /// [`RetentionBreakdown::compute`] is tested against.
    fn compute_by_file_lookup(
        catalog: &Catalog,
        table: &ActivenessTable,
        outcome: &RetentionOutcome,
    ) -> RetentionBreakdown {
        let purged_ids: HashSet<(UserId, u64)> =
            outcome.purged.iter().map(|p| (p.user, p.id.0)).collect();
        let mut by_quadrant = [QuadrantStats::default(); 4];
        for uf in &catalog.users {
            let q = Quadrant::of(table.get(uf.user));
            let stats = &mut by_quadrant[q.index()];
            stats.users_total += 1;
            let mut affected = false;
            for f in &uf.files {
                if purged_ids.contains(&(uf.user, f.id.0)) {
                    stats.purged_files += 1;
                    stats.purged_bytes += f.size;
                    affected = true;
                } else {
                    stats.retained_files += 1;
                    stats.retained_bytes += f.size;
                }
            }
            if affected {
                stats.users_affected += 1;
            }
        }
        RetentionBreakdown { by_quadrant }
    }

    /// A catalog of up to 8 users with gaps between their ids, each with
    /// up to 12 files, and a table that ranks some of them (the rest read
    /// back neutral). Rank 0 is common, so every quadrant occurs.
    fn arb_world() -> impl Strategy<Value = (Catalog, ActivenessTable)> {
        let file = (1u64..1_000_000, 0i64..400, prop::bool::weighted(0.1));
        let user = (
            1u32..4,
            prop::collection::vec(file, 0..12),
            prop::option::of((0u32..3, 0u32..3)),
        );
        prop::collection::vec(user, 1..8).prop_map(|users| {
            let (mut id, mut next_file) = (0u32, 0u64);
            let mut table = ActivenessTable::new();
            let mut listings = Vec::new();
            for (gap, files, ranks) in users {
                id += gap;
                let files = files
                    .into_iter()
                    .map(|(size, atime_day, exempt)| {
                        next_file += 1;
                        let f = FileRecord::new(
                            FileId(next_file),
                            size,
                            Timestamp::from_days(atime_day),
                        );
                        if exempt {
                            f.exempt()
                        } else {
                            f
                        }
                    })
                    .collect();
                listings.push(UserFiles::new(UserId(id), files));
                if let Some((op, oc)) = ranks {
                    // 0 → rank 0, 1 → below 1, 2 → active.
                    let rank = |r: u32| Rank::from_value([0.0, 0.5, 4.0][r as usize]);
                    table.insert(UserId(id), UserActiveness::new(rank(op), rank(oc)));
                }
            }
            (Catalog::new(listings), table)
        })
    }

    proptest! {
        /// The merge equals the per-file lookup on the outcomes FLT,
        /// ActiveDR and the value-based policy produce for arbitrary
        /// catalogs.
        #[test]
        fn merge_equals_per_file_lookup(
            world in arb_world(),
            lifetime in 1u32..200,
            target in 0u64..4_000_000,
        ) {
            let (catalog, table) = world;
            let tc = Timestamp::from_days(400);
            let request = PurgeRequest {
                tc,
                catalog: &catalog,
                activeness: &table,
                target_bytes: Some(target),
            };
            let outcomes = [
                FltPolicy::days(lifetime).run(PurgeRequest { target_bytes: None, ..request }),
                ActiveDrPolicy::new(RetentionConfig::new(lifetime)).run(request),
                ValueBasedPolicy::default().run(request),
            ];
            for outcome in &outcomes {
                prop_assert_eq!(
                    RetentionBreakdown::compute(&catalog, &table, outcome),
                    compute_by_file_lookup(&catalog, &table, outcome)
                );
            }
        }
    }

    #[test]
    fn conservation_purged_plus_retained_is_catalog() {
        let (catalog, table, outcome) = setup();
        let b = RetentionBreakdown::compute(&catalog, &table, &outcome);
        assert_eq!(
            b.total_purged_bytes() + b.total_retained_bytes(),
            catalog.total_bytes()
        );
        let q_total: u64 = b.by_quadrant.iter().map(|s| s.total_bytes()).sum();
        assert_eq!(q_total, catalog.total_bytes());
    }
}
