//! A value-based retention baseline (paper §2).
//!
//! The value-based family (Wijnhoven et al., Turczyk et al., Shah et al.;
//! the paper's refs [43, 48] and friends) scores every file by a
//! combination of attributes — age, size, access frequency — and purges
//! the lowest-value files first. The paper excludes the family from its
//! evaluation because "there is no consensus on the definition of data
//! value"; we implement one representative, explicitly parameterized
//! scoring so the emulation can compare the *behaviour class* (file-value
//! ordering, globally ranked) against FLT's staleness rule and ActiveDR's
//! user ranking.
//!
//! Score of a file at time `t_c`:
//!
//! ```text
//! value(f) = w_recency · exp(−age(f)/τ)
//!          + w_frequency · log2(1 + accesses(f)) / 16
//!          + w_size · 1/log2(2 + size(f))
//! ```
//!
//! Recency dominates by default (matching the intuition FLT encodes);
//! frequency rewards hot files; the size term mildly prefers keeping small
//! files (purging one big cold file frees the same space as hundreds of
//! small ones, a classic ILM heuristic). Files are purged in ascending
//! value until the byte target is met; with no target, files below
//! `purge_threshold` are purged.

use super::{PurgeRequest, PurgedFile, RetentionOutcome, RetentionPolicy};
use crate::convert;
use crate::files::FileRecord;
use crate::time::{TimeDelta, Timestamp};
use serde::{Deserialize, Serialize};

/// Weights and scales of the file-value score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueParams {
    /// Weight of the recency term.
    pub w_recency: f64,
    /// Weight of the access-frequency term.
    pub w_frequency: f64,
    /// Weight of the (inverse) size term.
    pub w_size: f64,
    /// Recency decay constant τ.
    pub tau: TimeDelta,
    /// Threshold for unbounded runs: purge every file scoring below this.
    pub purge_threshold: f64,
}

impl Default for ValueParams {
    fn default() -> Self {
        ValueParams {
            w_recency: 1.0,
            w_frequency: 0.3,
            w_size: 0.1,
            tau: TimeDelta::from_days(45),
            purge_threshold: 0.15,
        }
    }
}

/// Global file-value ranking retention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueBasedPolicy {
    /// Score weights and scales.
    pub params: ValueParams,
}

impl Default for ValueBasedPolicy {
    fn default() -> Self {
        ValueBasedPolicy::new(ValueParams::default())
    }
}

impl ValueBasedPolicy {
    /// A value-based policy with the given scoring parameters.
    ///
    /// # Panics
    /// Panics if `tau` is not positive or any weight is negative.
    pub fn new(params: ValueParams) -> Self {
        assert!(params.tau.secs() > 0, "tau must be positive");
        assert!(
            params.w_recency >= 0.0 && params.w_frequency >= 0.0 && params.w_size >= 0.0,
            "weights must be non-negative"
        );
        ValueBasedPolicy { params }
    }

    /// The value score of one file at `t_c`.
    pub fn value(&self, file: &FileRecord, tc: Timestamp) -> f64 {
        let p = self.params;
        let age_days = file.age(tc).days_f64();
        let tau_days = p.tau.days_f64();
        p.w_recency * (-age_days / tau_days).exp()
            + p.w_frequency * ((1.0 + file.access_count as f64).log2() / 16.0)
            + p.w_size / (2.0 + convert::approx_f64(file.size)).log2()
    }
}

impl RetentionPolicy for ValueBasedPolicy {
    fn name(&self) -> &'static str {
        "ValueBased"
    }

    fn run(&self, request: PurgeRequest<'_>) -> RetentionOutcome {
        let mut outcome = RetentionOutcome::default();
        // Score all files, globally.
        let mut scored: Vec<(f64, PurgedFile)> = Vec::new();
        for user_files in &request.catalog.users {
            for file in &user_files.files {
                if file.exempt {
                    outcome.exempt_skipped += 1;
                    continue;
                }
                scored.push((
                    self.value(file, request.tc),
                    PurgedFile {
                        user: user_files.user,
                        id: file.id,
                        size: file.size,
                    },
                ));
            }
        }
        // Ascending value, deterministic tie-break on file id.
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));

        match request.target_bytes {
            Some(target) => {
                for (_, p) in scored {
                    if outcome.purged_bytes >= target {
                        break;
                    }
                    outcome.purged_bytes += p.size;
                    outcome.purged.push(p);
                }
                outcome.target_met = outcome.purged_bytes >= target;
            }
            None => {
                for (value, p) in scored {
                    if value < self.params.purge_threshold {
                        outcome.purged_bytes += p.size;
                        outcome.purged.push(p);
                    }
                }
                outcome.target_met = true;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activeness::ActivenessTable;
    use crate::files::{Catalog, FileId, UserFiles};
    use crate::user::UserId;

    fn file(id: u64, size: u64, atime_day: i64, accesses: u32) -> FileRecord {
        FileRecord::new(FileId(id), size, Timestamp::from_days(atime_day))
            .with_access_count(accesses)
    }

    fn catalog() -> Catalog {
        Catalog::new(vec![UserFiles::new(
            UserId(1),
            vec![
                file(1, 100, 99, 50), // fresh + hot: highest value
                file(2, 100, 60, 2),  // 40d old, cool
                file(3, 100, 0, 0),   // 100d old, cold: lowest value
                file(4, 100, 0, 0),   // same but exempt
            ],
        )
        .tap_exempt()])
    }

    trait Tap {
        fn tap_exempt(self) -> Self;
    }
    impl Tap for UserFiles {
        fn tap_exempt(mut self) -> Self {
            self.files[3].exempt = true;
            self
        }
    }

    fn request<'a>(
        catalog: &'a Catalog,
        table: &'a ActivenessTable,
        target: Option<u64>,
    ) -> PurgeRequest<'a> {
        PurgeRequest {
            tc: Timestamp::from_days(100),
            catalog,
            activeness: table,
            target_bytes: target,
        }
    }

    #[test]
    fn value_ordering_is_recency_then_frequency() {
        let policy = ValueBasedPolicy::default();
        let tc = Timestamp::from_days(100);
        let fresh_hot = policy.value(&file(1, 100, 99, 50), tc);
        let mid = policy.value(&file(2, 100, 60, 2), tc);
        let cold = policy.value(&file(3, 100, 0, 0), tc);
        assert!(fresh_hot > mid, "{fresh_hot} vs {mid}");
        assert!(mid > cold, "{mid} vs {cold}");
        // Frequency breaks ties between equally recent files.
        let hot = policy.value(&file(5, 100, 50, 40), tc);
        let cool = policy.value(&file(6, 100, 50, 0), tc);
        assert!(hot > cool);
        // The size term prefers keeping the smaller of two cold twins.
        let small = policy.value(&file(7, 1 << 10, 0, 0), tc);
        let big = policy.value(&file(8, 1 << 40, 0, 0), tc);
        assert!(small > big);
    }

    #[test]
    fn targeted_run_purges_lowest_value_first() {
        let c = catalog();
        let table = ActivenessTable::new();
        let out = ValueBasedPolicy::default().run(request(&c, &table, Some(150)));
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![3, 2]); // coldest first, exempt skipped
        assert!(out.target_met);
        assert_eq!(out.exempt_skipped, 1);
    }

    #[test]
    fn unbounded_run_uses_the_threshold() {
        let c = catalog();
        let table = ActivenessTable::new();
        let out = ValueBasedPolicy::default().run(request(&c, &table, None));
        // Only the stone-cold file scores below 0.15.
        let ids: Vec<u64> = out.purged.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![3]);
        assert!(out.target_met);
    }

    #[test]
    fn unreachable_target_reports_failure() {
        let c = catalog();
        let table = ActivenessTable::new();
        let out = ValueBasedPolicy::default().run(request(&c, &table, Some(10_000)));
        assert!(!out.target_met);
        assert_eq!(out.purged.len(), 3); // everything non-exempt went
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn zero_tau_rejected() {
        ValueBasedPolicy::new(ValueParams {
            tau: TimeDelta::ZERO,
            ..Default::default()
        });
    }
}
