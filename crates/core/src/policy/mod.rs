//! Retention policies.
//!
//! Three policies cover the paper's contribution plus every retention
//! family its §2 discusses:
//!
//! * [`flt::FltPolicy`] — the fixed-lifetime baseline every facility in
//!   Table 1 runs today: purge any file whose age exceeds a fixed lifetime.
//!   The "scratch-as-a-cache" related work (Monti et al.), which evicts
//!   anything no running job is using, is FLT with the purge interval as
//!   its lifetime.
//! * [`activedr::ActiveDrPolicy`] — the paper's contribution: purge in
//!   ascending order of user activeness, with per-user lifetime adjustment
//!   and a retrospective purge-target loop.
//! * [`value_based::ValueBasedPolicy`] — a representative of the
//!   value-based family: rank all files by a recency/frequency/size value
//!   score and purge the least valuable first.
//!
//! A policy consumes a [`PurgeRequest`] (catalog + activeness table +
//! optional byte target) and returns a [`RetentionOutcome`] listing the
//! files to purge. Applying the decisions is the caller's job.

pub mod activedr;
pub mod flt;
pub mod value_based;

use crate::activeness::ActivenessTable;
use crate::classify::Quadrant;
use crate::files::{Catalog, FileId};
use crate::time::Timestamp;
use crate::user::UserId;
use serde::{Deserialize, Serialize};

/// Input to one retention run.
#[derive(Debug, Clone, Copy)]
pub struct PurgeRequest<'a> {
    /// Evaluation instant `t_c`.
    pub tc: Timestamp,
    /// The file population (typically one catalog scan of the scratch FS).
    pub catalog: &'a Catalog,
    /// Evaluated user activeness. FLT ignores it.
    pub activeness: &'a ActivenessTable,
    /// Bytes that should be freed ("purge target ... the space utilization
    /// that should be reached", §3.4). `None` means unbounded: purge every
    /// file the policy's rule marks stale.
    pub target_bytes: Option<u64>,
}

/// One purge decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PurgedFile {
    /// Owner of the purged file.
    pub user: UserId,
    /// The purged file.
    pub id: FileId,
    /// Bytes freed by the purge.
    pub size: u64,
}

/// Per-group diagnostics from an ActiveDR run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupScan {
    /// The group this scan covered.
    pub quadrant: Quadrant,
    /// 1 normal pass + retrospective passes actually executed.
    pub passes: u32,
    /// Files purged from this group.
    pub purged_files: u64,
    /// Bytes purged from this group.
    pub purged_bytes: u64,
}

/// The result of a retention run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RetentionOutcome {
    /// Files to purge, in purge order.
    pub purged: Vec<PurgedFile>,
    /// Total bytes across `purged`.
    pub purged_bytes: u64,
    /// Whether the requested byte target was reached (`true` when no target
    /// was set and the scan completed).
    pub target_met: bool,
    /// Per-quadrant scan diagnostics (ActiveDR only; empty for FLT).
    pub group_scans: Vec<GroupScan>,
    /// Files skipped because they were on the exemption list.
    pub exempt_skipped: u64,
}

impl RetentionOutcome {
    /// Number of purge decisions.
    pub fn purged_files(&self) -> u64 {
        self.purged.len() as u64
    }

    /// Distinct users that lost at least one file — the Fig. 11 metric.
    pub fn users_affected(&self) -> usize {
        let mut users: Vec<UserId> = self.purged.iter().map(|p| p.user).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }

    /// Purged bytes per user.
    pub fn purged_bytes_by_user(&self) -> std::collections::BTreeMap<UserId, u64> {
        let mut map = std::collections::BTreeMap::new();
        for p in &self.purged {
            *map.entry(p.user).or_insert(0u64) += p.size;
        }
        map
    }
}

/// Common interface for retention policies.
pub trait RetentionPolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Decide which files to purge.
    fn run(&self, request: PurgeRequest<'_>) -> RetentionOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_aggregations() {
        let o = RetentionOutcome {
            purged: vec![
                PurgedFile {
                    user: UserId(1),
                    id: FileId(1),
                    size: 10,
                },
                PurgedFile {
                    user: UserId(1),
                    id: FileId(2),
                    size: 5,
                },
                PurgedFile {
                    user: UserId(2),
                    id: FileId(3),
                    size: 7,
                },
            ],
            purged_bytes: 22,
            target_met: true,
            group_scans: vec![],
            exempt_skipped: 0,
        };
        assert_eq!(o.purged_files(), 3);
        assert_eq!(o.users_affected(), 2);
        let by_user = o.purged_bytes_by_user();
        assert_eq!(by_user[&UserId(1)], 15);
        assert_eq!(by_user[&UserId(2)], 7);
    }
}
