//! # activedr-core — activeness-based data retention
//!
//! A from-scratch Rust implementation of **ActiveDR** (Zhang et al.,
//! *Exploiting User Activeness for Data Retention in HPC Systems*, SC '21):
//! a purge policy for HPC scratch file systems that ranks users by the
//! activeness of their recent *operations* (jobs, logins, accesses,
//! transfers) and *outcomes* (publications, completed jobs, datasets),
//! classifies them into a 2×2 activeness matrix, and purges the files of
//! inactive users first while rewarding active users with extended file
//! lifetimes.
//!
//! The crate is substrate-agnostic: it knows nothing about real file
//! systems or trace formats. It consumes activity events
//! ([`event::ActivityEvent`]) and per-user file listings
//! ([`files::Catalog`]) and produces purge decisions
//! ([`policy::RetentionOutcome`]). The companion crates provide the
//! virtual file system (`activedr-fs`), the trace model and synthetic
//! workload generators (`activedr-trace`), and the trace-driven emulation
//! harness (`activedr-sim`).
//!
//! ## Quick tour
//!
//! ```
//! use activedr_core::prelude::*;
//!
//! // 1. One-time administrator setup: activity types + evaluation window.
//! let registry = ActivityTypeRegistry::paper_default(); // jobs + publications
//! let evaluator = ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(7));
//! let job = registry.lookup("job_submission").unwrap();
//!
//! // 2. Feed activity events (time + impact is all that's needed).
//! let tc = Timestamp::from_days(400);
//! let events = vec![
//!     ActivityEvent::new(UserId(1), job, Timestamp::from_days(399), 2048.0), // core-hours
//! ];
//! let table = evaluator.evaluate(tc, &[UserId(1), UserId(2)], &events);
//! assert!(table.get(UserId(1)).op.is_active());
//! assert!(table.get(UserId(2)).op.is_zero());
//!
//! // 3. Run retention against a catalog scan.
//! let catalog = Catalog::new(vec![
//!     UserFiles::new(UserId(1), vec![FileRecord::new(FileId(10), 1 << 30, Timestamp::from_days(300))]),
//!     UserFiles::new(UserId(2), vec![FileRecord::new(FileId(20), 1 << 30, Timestamp::from_days(300))]),
//! ]);
//! let policy = ActiveDrPolicy::new(RetentionConfig::new(90));
//! let outcome = policy.run(PurgeRequest {
//!     tc,
//!     catalog: &catalog,
//!     activeness: &table,
//!     target_bytes: Some(1 << 30),
//! });
//! // The inactive user's file is purged first; the active user's survives.
//! assert_eq!(outcome.purged.len(), 1);
//! assert_eq!(outcome.purged[0].user, UserId(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activeness;
pub mod approx;
pub mod classify;
pub mod config;
pub mod convert;
pub mod event;
pub mod files;
pub mod policy;
pub mod rank;
pub mod report;
pub mod streaming;
pub mod time;
pub mod user;

/// Convenient glob import of the public API.
pub mod prelude {
    pub use crate::activeness::{
        ActivenessEvaluator, ActivenessTable, EmptyPeriods, TypeActiveness, UserActiveness,
    };
    pub use crate::classify::{Classification, ClassifiedUser, Quadrant};
    pub use crate::config::{ActivenessConfig, Facility, LifetimeAdjust, RetentionConfig};
    pub use crate::event::{
        ActivityClass, ActivityEvent, ActivityTypeId, ActivityTypeRegistry, ActivityTypeSpec,
    };
    pub use crate::files::{Catalog, FileId, FileRecord, UserFiles};
    pub use crate::policy::{
        activedr::ActiveDrPolicy,
        flt::FltPolicy,
        value_based::{ValueBasedPolicy, ValueParams},
        GroupScan, PurgeRequest, PurgedFile, RetentionOutcome, RetentionPolicy,
    };
    pub use crate::rank::Rank;
    pub use crate::report::{
        retained_delta, retained_delta_pct, QuadrantStats, RetentionBreakdown,
    };
    pub use crate::streaming::StreamingEvaluator;
    pub use crate::time::{TimeDelta, Timestamp, SECS_PER_DAY, SECS_PER_DAY_F64};
    pub use crate::user::UserId;
}
