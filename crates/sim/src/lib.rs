//! # activedr-sim — trace-driven emulation of ActiveDR vs FLT
//!
//! The evaluation harness of the reproduction (§4 of the paper):
//!
//! * [`engine`] — the day-granularity replay engine: restore the initial
//!   snapshot, replay file accesses, trigger retention every purge
//!   interval, count file misses per user quadrant;
//! * [`scenario`] — shared experiment world assembly (synthetic traces +
//!   FLT-90 pre-purged file system) at three scales;
//! * [`metrics`] — miss-ratio histograms, box statistics, per-quadrant
//!   series;
//! * [`experiments`] — one module per paper figure/table, each producing
//!   structured data plus the printed rows behind the plot;
//! * [`report`] — plain-text table rendering.

#![forbid(unsafe_code)]

pub mod archive;
pub mod engine;
pub mod experiments;
mod incremental;
pub mod metrics;
pub mod report;
pub mod scenario;

pub use archive::{ArchiveConfig, ArchiveStats, ArchiveTier};
pub use engine::{
    build_initial_fs, pre_purge_flt, run, run_instrumented, run_until, run_with_telemetry,
    CatalogMode, PolicyKind, RecoveryModel, SimConfig, SimResult, TriggerProbe,
};
// Durability surface, re-exported so integration tests and downstream
// binaries need no direct `activedr-fs` dependency.
pub use activedr_fs::{DurabilityConfig, FsyncPolicy, InjectedCrash, RecoveryStats, StorageError};
// Telemetry surface, re-exported so integration tests and downstream
// binaries need no direct `activedr-obs` dependency.
pub use activedr_obs::{complete_lines, ObsConfig, StreamOptions, Telemetry, TelemetryReport};
pub use scenario::{Scale, Scenario};
