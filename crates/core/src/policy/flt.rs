//! The fixed-lifetime (FLT) retention baseline (§1, §2, Table 1).
//!
//! FLT is the policy in production at essentially every HPC facility: a
//! periodic scan purges any file whose `atime` is older than a fixed
//! lifetime, "in the order specified by the system" — here, catalog order.
//! FLT is file-centric: it never looks at who owns a file or what that user
//! has been doing.

use super::{PurgeRequest, PurgedFile, RetentionOutcome, RetentionPolicy};
use crate::config::Facility;
use crate::time::TimeDelta;

/// Fixed-lifetime purge policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FltPolicy {
    /// The fixed file lifetime (Table 1: 30-120 days depending on site).
    pub lifetime: TimeDelta,
}

impl FltPolicy {
    /// A fixed-lifetime policy purging files older than `lifetime`.
    ///
    /// # Panics
    /// Panics if `lifetime` is not positive.
    pub fn new(lifetime: TimeDelta) -> Self {
        assert!(lifetime.secs() > 0, "lifetime must be positive");
        FltPolicy { lifetime }
    }

    /// Shorthand for [`FltPolicy::new`] with a day count.
    pub fn days(lifetime_days: u32) -> Self {
        FltPolicy::new(TimeDelta::from_days(lifetime_days as i64))
    }

    /// The preset a given facility runs (Table 1).
    pub fn facility(f: Facility) -> Self {
        FltPolicy::new(f.lifetime())
    }

    /// Is a file with the given age stale under this policy?
    pub fn is_stale(&self, age: TimeDelta) -> bool {
        age > self.lifetime
    }
}

impl RetentionPolicy for FltPolicy {
    fn name(&self) -> &'static str {
        "FLT"
    }

    fn run(&self, request: PurgeRequest<'_>) -> RetentionOutcome {
        let mut outcome = RetentionOutcome {
            target_met: request.target_bytes.is_none(),
            ..Default::default()
        };
        for user_files in &request.catalog.users {
            for file in &user_files.files {
                if file.exempt {
                    outcome.exempt_skipped += 1;
                    continue;
                }
                if self.is_stale(request.tc.age_since(file.atime)) {
                    outcome.purged.push(PurgedFile {
                        user: user_files.user,
                        id: file.id,
                        size: file.size,
                    });
                    outcome.purged_bytes += file.size;
                    if let Some(target) = request.target_bytes {
                        if outcome.purged_bytes >= target {
                            outcome.target_met = true;
                        }
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activeness::ActivenessTable;
    use crate::files::{Catalog, FileId, FileRecord, UserFiles};
    use crate::time::Timestamp;
    use crate::user::UserId;

    fn catalog() -> Catalog {
        // t_c will be day 100. Ages: f1 = 95d (stale at 90), f2 = 10d,
        // f3 = 95d exempt, f4 = 200d.
        Catalog::new(vec![
            UserFiles::new(
                UserId(1),
                vec![
                    FileRecord::new(FileId(1), 100, Timestamp::from_days(5)),
                    FileRecord::new(FileId(2), 50, Timestamp::from_days(90)),
                ],
            ),
            UserFiles::new(
                UserId(2),
                vec![
                    FileRecord::new(FileId(3), 70, Timestamp::from_days(5)).exempt(),
                    FileRecord::new(FileId(4), 30, Timestamp::from_days(-100)),
                ],
            ),
        ])
    }

    fn request<'a>(catalog: &'a Catalog, table: &'a ActivenessTable) -> PurgeRequest<'a> {
        PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog,
            activeness: table,
            target_bytes: None,
        }
    }

    #[test]
    fn purges_exactly_the_stale_nonexempt_set() {
        let c = catalog();
        let t = ActivenessTable::new();
        let out = FltPolicy::days(90).run(request(&c, &t));
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(out.purged_bytes, 130);
        assert_eq!(out.exempt_skipped, 1);
        assert!(out.target_met);
        assert!(out.group_scans.is_empty());
    }

    #[test]
    fn boundary_age_is_retained() {
        // Age exactly == lifetime is NOT stale (strict inequality, Eq. 7's
        // `t_c − atime > ε_f` applied with Φ = 1).
        let c = Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![FileRecord::new(FileId(1), 10, Timestamp::from_days(10))],
        )]);
        let t = ActivenessTable::new();
        let req = PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog: &c,
            activeness: &t,
            target_bytes: None,
        };
        let out = FltPolicy::days(90).run(req);
        assert!(out.purged.is_empty());
    }

    /// Scratch-as-a-cache (§2) as the engine runs it: FLT whose lifetime
    /// is the 7-day purge interval. Ages at t_c = day 100: 1, 10, 60 and
    /// 5 days (exempt).
    fn cache_catalog() -> Catalog {
        Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![
                FileRecord::new(FileId(1), 10, Timestamp::from_days(99)),
                FileRecord::new(FileId(2), 10, Timestamp::from_days(90)),
                FileRecord::new(FileId(3), 10, Timestamp::from_days(40)),
                FileRecord::new(FileId(4), 10, Timestamp::from_days(95)).exempt(),
            ],
        )])
    }

    #[test]
    fn evicts_everything_outside_the_job_window() {
        let c = cache_catalog();
        let t = ActivenessTable::new();
        let out = FltPolicy::days(7).run(request(&c, &t));
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(out.exempt_skipped, 1);
        assert!(out.target_met);
    }

    #[test]
    fn always_purges_at_least_as_much_as_any_longer_flt() {
        let c = cache_catalog();
        let t = ActivenessTable::new();
        let cache = FltPolicy::days(7).run(request(&c, &t));
        let flt = FltPolicy::days(90).run(request(&c, &t));
        assert!(cache.purged_bytes >= flt.purged_bytes);
    }

    #[test]
    fn unbounded_variant_reports_target_status_but_keeps_purging() {
        let c = catalog();
        let t = ActivenessTable::new();
        let mut req = request(&c, &t);
        req.target_bytes = Some(100);
        let out = FltPolicy::days(90).run(req);
        assert_eq!(out.purged.len(), 2); // purged everything stale anyway
        assert!(out.target_met);

        req.target_bytes = Some(10_000);
        let out = FltPolicy::days(90).run(req);
        assert!(!out.target_met); // couldn't free that much
    }

    #[test]
    fn facility_presets() {
        assert_eq!(
            FltPolicy::facility(Facility::Tacc).lifetime,
            TimeDelta::from_days(30)
        );
        assert_eq!(FltPolicy::days(90).name(), "FLT");
    }

    #[test]
    #[should_panic(expected = "lifetime must be positive")]
    fn zero_lifetime_rejected() {
        FltPolicy::new(TimeDelta::ZERO);
    }
}
