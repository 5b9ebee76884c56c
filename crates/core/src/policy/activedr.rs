//! The ActiveDR retention procedure (§3.4).
//!
//! Given the evaluated activeness table, the procedure:
//!
//! 1. classifies users into the four activeness quadrants and visits them in
//!    ascending protection order (both-inactive → outcome-active-only →
//!    operation-active-only → both-active);
//! 2. for every non-exempt file of every visited user, oldest atime first,
//!    adjusts the file lifetime by the owner's activeness (Eq. 7:
//!    `ε_f = d·Φ_op·Φ_oc`, see [`crate::config::LifetimeAdjust`] for the
//!    exact multiplier semantics) and purges the file iff
//!    `t_c − atime > ε_f`;
//! 3. stops the moment the purge target is reached;
//! 4. if a group finishes without reaching the target, **retrospectively**
//!    rescans that group up to `retro_passes` times (paper: 5), decaying the
//!    users' effective rank by `retro_decay` (paper: 20 %) before each extra
//!    pass, before moving on to the next group;
//! 5. if the target is still unmet after all groups, reports failure
//!    (`target_met = false`).
//!
//! New users (absent from the activeness table) are folded in with the
//! neutral rank 1.0 so their files enjoy the full initial lifetime (§3.4).
//!
//! The scan usually stops long before it has seen every user, so it
//! orders each user's files lazily (see `UserCursor`): the purge order
//! equals a full stable sort by atime, but a listing the scan never
//! reaches, or where nothing is stale, is never sorted.

use super::{GroupScan, PurgeRequest, PurgedFile, RetentionOutcome, RetentionPolicy};
use crate::activeness::{ActivenessTable, UserActiveness};
use crate::classify::{Classification, Quadrant};
use crate::config::{LifetimeAdjust, RetentionConfig};
use crate::convert;
use crate::files::FileRecord;
use crate::time::Timestamp;
use crate::user::UserId;
use std::collections::HashMap;

/// The activeness-based data retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActiveDrPolicy {
    /// The retention parameters this policy runs with.
    pub config: RetentionConfig,
}

impl ActiveDrPolicy {
    /// A policy over a validated config.
    ///
    /// # Panics
    /// Panics if `config` fails [`RetentionConfig::validate`].
    pub fn new(config: RetentionConfig) -> Self {
        config.validate();
        ActiveDrPolicy { config }
    }

    /// The effective lifetime multiplier of a user at a given retrospective
    /// pass (pass 0 is the normal scan).
    pub fn multiplier(&self, activeness: UserActiveness, pass: u32) -> f64 {
        let base_ln = match self.config.adjust {
            LifetimeAdjust::Raw => (activeness.op * activeness.oc).ln(),
            LifetimeAdjust::ClampedPerClass => {
                activeness.op.ln().max(0.0) + activeness.oc.ln().max(0.0)
            }
        };
        // Decay in log domain: Φ·(1−δ)^pass.
        let mut decayed_ln = base_ln + (1.0 - self.config.retro_decay).ln() * pass as f64;
        // §3.4 protection: an active-quadrant user never falls below the
        // initial lifetime, i.e. is never treated worse than under FLT.
        if self.config.protect_active_floor
            && (activeness.op.is_active() || activeness.oc.is_active())
        {
            decayed_ln = decayed_ln.max(0.0);
        }
        decayed_ln.exp().clamp(0.0, self.config.multiplier_cap)
    }

    /// The adjusted lifetime cutoff: files with `atime < cutoff` are stale.
    fn cutoff(&self, tc: Timestamp, multiplier: f64) -> Timestamp {
        let eps = self.config.initial_lifetime.scale(multiplier);
        Timestamp(tc.secs().saturating_sub(eps.secs()))
    }
}

/// Per-user scan cursor, ordered lazily. `stale` holds the listing
/// positions of the files some cutoff has reached so far, in purge order
/// (ascending atime, ties in listing order); everything before `cursor`
/// has already been visited (purged or exempt-skipped). Because the
/// retrospective decay only ever *shrinks* a user's adjusted lifetime,
/// each pass's stale set is a superset of the previous pass's: a new
/// cutoff moves just the newly stale files out of `rest` (kept in listing
/// order) and stable-sorts only those behind the earlier ones, so `stale`
/// is always a prefix of the listing's full stable sort by atime. Every
/// file is visited at most once per retention run, and a listing no
/// cutoff reaches is never sorted.
struct UserCursor<'a> {
    files: &'a [FileRecord],
    stale: Vec<u32>,
    cursor: usize,
    /// Positions of the files not yet stale, in listing order; `None`
    /// while that is every file, so a visit that finds nothing stale
    /// allocates nothing.
    rest: Option<Vec<u32>>,
    /// The oldest atime left in `rest`: a cutoff at or below it moves
    /// nothing. Starts at the minimum so the first visit always looks.
    rest_oldest: Timestamp,
}

impl<'a> UserCursor<'a> {
    fn new(files: &'a [FileRecord]) -> Self {
        UserCursor {
            files,
            stale: Vec::new(),
            cursor: 0,
            rest: None,
            rest_oldest: Timestamp(i64::MIN),
        }
    }

    /// The file at listing position `i`.
    fn file(&self, i: u32) -> Option<&'a FileRecord> {
        self.files.get(convert::usize_from_u32(i))
    }

    /// Move every file with `atime < cutoff` from `rest` to the end of
    /// `stale`, in purge order.
    fn extend_to(&mut self, cutoff: Timestamp) {
        if cutoff <= self.rest_oldest {
            return;
        }
        let files = self.files;
        let atime = |i: u32| files.get(convert::usize_from_u32(i)).map(|f| f.atime);
        let start = self.stale.len();
        let mut oldest = Timestamp(i64::MAX);
        let mut split = |i: u32, at: Timestamp| {
            if at < cutoff {
                self.stale.push(i);
                false
            } else {
                oldest = oldest.min(at);
                true
            }
        };
        match &mut self.rest {
            Some(rest) => rest.retain(|&i| atime(i).is_some_and(|at| split(i, at))),
            None => {
                for (i, file) in (0..).zip(files) {
                    split(i, file.atime);
                }
                if self.stale.len() > start {
                    let rest = (0..).zip(files).filter(|(_, f)| f.atime >= cutoff);
                    self.rest = Some(rest.map(|(i, _)| i).collect());
                }
            }
        }
        self.rest_oldest = oldest;
        if let Some(newly_stale) = self.stale.get_mut(start..) {
            newly_stale.sort_by_key(|&i| atime(i));
        }
    }
}

impl RetentionPolicy for ActiveDrPolicy {
    fn name(&self) -> &'static str {
        "ActiveDR"
    }

    fn run(&self, request: PurgeRequest<'_>) -> RetentionOutcome {
        self.config.validate();

        // Fold catalog users unknown to the table in as neutral new users.
        let mut table: ActivenessTable = request.activeness.clone();
        for uf in &request.catalog.users {
            if !table.contains(uf.user) {
                table.insert(uf.user, UserActiveness::NEUTRAL);
            }
        }
        let classification = Classification::from_table(&table);

        let mut cursors: HashMap<UserId, UserCursor<'_>> = request
            .catalog
            .users
            .iter()
            .map(|uf| (uf.user, UserCursor::new(&uf.files)))
            .collect();

        let mut outcome = RetentionOutcome::default();
        let target = request.target_bytes;
        let target_reached = |purged_bytes: u64| target.is_some_and(|t| purged_bytes >= t);

        // "At any time when the purge target is reached, ActiveDR will stop
        // the data retention procedure" — including before the first file,
        // when the target is zero.
        if target_reached(0) {
            outcome.target_met = true;
            return outcome;
        }

        'groups: for quadrant in Quadrant::SCAN_ORDER {
            let group = classification.group(quadrant);
            let mut scan = GroupScan {
                quadrant,
                passes: 0,
                purged_files: 0,
                purged_bytes: 0,
            };
            // Pass 0 always runs; retrospective passes only chase a target.
            let max_pass = if target.is_some() {
                self.config.retro_passes
            } else {
                0
            };
            for pass in 0..=max_pass {
                scan.passes += 1;
                for cu in group {
                    let Some(state) = cursors.get_mut(&cu.user) else {
                        continue;
                    };
                    let cutoff = self.cutoff(request.tc, self.multiplier(cu.activeness, pass));
                    state.extend_to(cutoff);
                    while let Some(file) =
                        state.stale.get(state.cursor).and_then(|&i| state.file(i))
                    {
                        // Stale iff t_c − atime > ε_f ⇔ atime < t_c − ε_f.
                        if file.atime >= cutoff {
                            break;
                        }
                        state.cursor += 1;
                        if file.exempt {
                            outcome.exempt_skipped += 1;
                            continue;
                        }
                        outcome.purged.push(PurgedFile {
                            user: cu.user,
                            id: file.id,
                            size: file.size,
                        });
                        outcome.purged_bytes += file.size;
                        scan.purged_files += 1;
                        scan.purged_bytes += file.size;
                        if target_reached(outcome.purged_bytes) {
                            outcome.target_met = true;
                            outcome.group_scans.push(scan);
                            break 'groups;
                        }
                    }
                }
            }
            outcome.group_scans.push(scan);
        }

        if target.is_none() {
            outcome.target_met = true;
        }
        outcome
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;
    use crate::files::{Catalog, FileId, FileRecord, UserFiles};
    use crate::rank::Rank;

    fn act(op: f64, oc: f64) -> UserActiveness {
        UserActiveness::new(Rank::from_value(op), Rank::from_value(oc))
    }

    fn file(id: u64, size: u64, atime_day: i64) -> FileRecord {
        FileRecord::new(FileId(id), size, Timestamp::from_days(atime_day))
    }

    fn policy(days: u32) -> ActiveDrPolicy {
        ActiveDrPolicy::new(RetentionConfig::new(days))
    }

    #[test]
    fn multiplier_clamped_per_class() {
        let p = policy(90);
        // Both-inactive: floor at 1.
        assert_eq!(p.multiplier(act(0.2, 0.5), 0), 1.0);
        // Op-active-only: Φ_oc = 0.1 does not annihilate Φ_op = 4.
        assert!((p.multiplier(act(4.0, 0.1), 0) - 4.0).abs() < 1e-12);
        // Both-active: full Eq. 7 product.
        assert!((p.multiplier(act(4.0, 2.0), 0) - 8.0).abs() < 1e-12);
        // Decay: pass 1 multiplies by 0.8.
        assert!((p.multiplier(act(0.2, 0.5), 1) - 0.8).abs() < 1e-12);
        assert!((p.multiplier(act(4.0, 2.0), 2) - 8.0 * 0.64).abs() < 1e-9);
        // Cap.
        let huge = UserActiveness::new(Rank::from_ln(1e4), Rank::NEUTRAL);
        assert_eq!(p.multiplier(huge, 0), p.config.multiplier_cap);
    }

    #[test]
    fn multiplier_raw_mode_matches_eq7_verbatim() {
        let mut cfg = RetentionConfig::new(90).with_adjust(LifetimeAdjust::Raw);
        cfg.protect_active_floor = false; // fully verbatim Eq. 7
        let p = ActiveDrPolicy::new(cfg);
        assert!((p.multiplier(act(4.0, 0.5), 0) - 2.0).abs() < 1e-12);
        // A zero class rank zeroes the lifetime in raw mode.
        let op_only = UserActiveness::new(Rank::from_value(4.0), Rank::ZERO);
        assert_eq!(p.multiplier(op_only, 0), 0.0);
        // With the §3.4 protection floor the same user keeps at least the
        // initial lifetime, because their operation rank is active.
        let protected =
            ActiveDrPolicy::new(RetentionConfig::new(90).with_adjust(LifetimeAdjust::Raw));
        assert_eq!(protected.multiplier(op_only, 0), 1.0);
    }

    /// Unbounded run (no target): each user purged strictly by their own
    /// adjusted lifetime.
    #[test]
    fn unbounded_purge_respects_adjusted_lifetimes() {
        // t_c = day 200, initial lifetime 90 d.
        // u1 both-active, mult 2 → ε = 180 d: only files older than 180 d go.
        // u2 both-inactive, mult 1 → ε = 90 d.
        let catalog = Catalog::new(vec![
            UserFiles::new(
                UserId(1),
                vec![file(1, 10, 10), file(2, 10, 30), file(3, 10, 150)],
            ),
            UserFiles::new(UserId(2), vec![file(4, 10, 10), file(5, 10, 150)]),
        ]);
        let table: ActivenessTable = [(UserId(1), act(2.0, 1.0)), (UserId(2), act(0.0, 0.0))]
            .into_iter()
            .collect();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(200),
            catalog: &catalog,
            activeness: &table,
            target_bytes: None,
        });
        let ids: Vec<u64> = {
            let mut v: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
            v.sort_unstable();
            v
        };
        // u1: ages 190, 170, 50 → only f1 (190 > 180).
        // u2: ages 190, 50 → only f4 (190 > 90).
        assert_eq!(ids, vec![1, 4]);
        assert!(out.target_met);
        // Unbounded runs never use retrospective passes.
        assert!(out.group_scans.iter().all(|g| g.passes == 1));
    }

    #[test]
    fn inactive_users_purged_before_active_ones() {
        // Both users have one stale file; a tiny target is satisfied
        // entirely from the inactive user's files.
        let catalog = Catalog::new(vec![
            UserFiles::new(UserId(1), vec![file(1, 100, 0)]), // active
            UserFiles::new(UserId(2), vec![file(2, 100, 0)]), // inactive
        ]);
        let table: ActivenessTable = [(UserId(1), act(3.0, 3.0)), (UserId(2), act(0.0, 0.0))]
            .into_iter()
            .collect();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(365),
            catalog: &catalog,
            activeness: &table,
            target_bytes: Some(100),
        });
        assert!(out.target_met);
        assert_eq!(out.purged.len(), 1);
        assert_eq!(out.purged[0].user, UserId(2));
        // Scan stopped inside the first group: no group entry for later
        // quadrants.
        assert_eq!(out.group_scans.len(), 1);
        assert_eq!(out.group_scans[0].quadrant, Quadrant::BothInactive);
    }

    #[test]
    fn retrospective_passes_shrink_lifetimes_to_chase_target() {
        // One inactive user; file age 80 d < 90 d lifetime, so pass 0
        // purges nothing. Decay: ε = 90·0.8 = 72 d at pass 1 → age 80 > 72,
        // purged on the first retrospective pass.
        let catalog = Catalog::new(vec![UserFiles::new(UserId(1), vec![file(1, 10, 20)])]);
        let table: ActivenessTable = [(UserId(1), act(0.0, 0.0))].into_iter().collect();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &catalog,
            activeness: &table,
            target_bytes: Some(10),
        });
        assert!(out.target_met);
        assert_eq!(out.purged.len(), 1);
        assert_eq!(out.group_scans[0].passes, 2); // normal + 1 retro
    }

    #[test]
    fn reports_failure_when_target_unreachable() {
        // All files too young even after maximal decay (0.8^5 ≈ 0.33:
        // ε_min ≈ 29.5 d; file age 10 d).
        let catalog = Catalog::new(vec![UserFiles::new(UserId(1), vec![file(1, 10, 90)])]);
        let table: ActivenessTable = [(UserId(1), act(0.0, 0.0))].into_iter().collect();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &catalog,
            activeness: &table,
            target_bytes: Some(10),
        });
        assert!(!out.target_met);
        assert!(out.purged.is_empty());
        // Every group was tried with full retrospective effort.
        assert_eq!(out.group_scans.len(), 4);
        assert!(out.group_scans.iter().all(|g| g.passes == 6));
    }

    #[test]
    fn exempt_files_survive_even_under_decay() {
        let catalog = Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![file(1, 10, 0).exempt(), file(2, 10, 0)],
        )]);
        let table: ActivenessTable = [(UserId(1), act(0.0, 0.0))].into_iter().collect();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(365),
            catalog: &catalog,
            activeness: &table,
            target_bytes: Some(20),
        });
        assert_eq!(out.purged.len(), 1);
        assert_eq!(out.purged[0].id, FileId(2));
        assert_eq!(out.exempt_skipped, 1);
        assert!(!out.target_met); // exemption kept us short of the target
    }

    #[test]
    fn new_users_get_initial_lifetime() {
        // User absent from the activeness table: neutral rank → ε = d.
        let catalog = Catalog::new(vec![UserFiles::new(
            UserId(42),
            vec![file(1, 10, 50), file(2, 10, 5)],
        )]);
        let table = ActivenessTable::new();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &catalog,
            activeness: &table,
            target_bytes: None,
        });
        // Ages 50 and 95 → only the 95-day-old file is purged.
        assert_eq!(out.purged.len(), 1);
        assert_eq!(out.purged[0].id, FileId(2));
    }

    #[test]
    fn raw_mode_wipes_zero_rank_users_on_first_pass() {
        let p = ActiveDrPolicy::new(RetentionConfig::new(90).with_adjust(LifetimeAdjust::Raw));
        let catalog = Catalog::new(vec![UserFiles::new(UserId(1), vec![file(1, 10, 99)])]);
        let table: ActivenessTable = [(UserId(1), act(0.0, 0.0))].into_iter().collect();
        let out = p.run(PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &catalog,
            activeness: &table,
            target_bytes: None,
        });
        // ε = 0 → the 1-day-old file is already stale.
        assert_eq!(out.purged.len(), 1);
    }

    #[test]
    fn purge_order_within_user_is_oldest_first() {
        let catalog = Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![file(1, 1, 50), file(2, 1, 10), file(3, 1, 30)],
        )]);
        let table: ActivenessTable = [(UserId(1), act(0.0, 0.0))].into_iter().collect();
        let out = policy(30).run(PurgeRequest {
            tc: Timestamp::from_days(365),
            catalog: &catalog,
            activeness: &table,
            target_bytes: None,
        });
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn extreme_multiplier_does_not_overflow_cutoff() {
        let mut cfg = RetentionConfig::new(90);
        cfg.multiplier_cap = f64::MAX;
        let p = ActiveDrPolicy::new(cfg);
        let huge = UserActiveness::new(Rank::from_ln(700.0), Rank::NEUTRAL);
        let cutoff = p.cutoff(Timestamp::from_days(100), p.multiplier(huge, 0));
        assert!(cutoff.secs() < 0); // saturated far into the past; no panic
    }

    #[test]
    fn empty_catalog_is_a_clean_no_op() {
        let catalog = Catalog::default();
        let table = ActivenessTable::new();
        let out = policy(90).run(PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &catalog,
            activeness: &table,
            target_bytes: Some(1),
        });
        assert!(!out.target_met);
        assert!(out.purged.is_empty());
    }
}
