//! # activedr-oracle — model-based differential fuzzing oracle
//!
//! The correctness backstop for the retention engine's growing set of
//! execution modes. Robinhood-style changelog engines (arXiv:1505.01448)
//! fail by *silent drift*: once the catalog is maintained incrementally,
//! nothing re-checks it against the namespace. This crate closes that gap
//! with three pieces:
//!
//! * [`model`] — a deliberately naive re-implementation of the virtual
//!   file system semantics over a flat `BTreeMap<String, FileMeta>`,
//!   written for obviousness rather than speed, plus an equally naive
//!   per-user catalog derivation and exemption list;
//! * [`gen`] + [`rng`] — a deterministic op-sequence generator (seeded
//!   hand-rolled PRNG, no entropy, consistent with the stub-RNG policy in
//!   KNOWN_FAILURES.md) producing weighted interleavings of namespace
//!   mutations, accesses, purge triggers, restages, capacity changes,
//!   reservation-list edits, and snapshot round-trips;
//! * [`exec`] — the differential executors: every sequence runs against
//!   both the model and the real [`activedr_fs::VirtualFs`] (with the
//!   changelog-fed [`activedr_fs::CatalogIndex`] riding along), and every
//!   generated trace replays through the engine's full configuration
//!   matrix — {FullScan, Incremental} × {telemetry off, on + catalog
//!   guard}, plus two durable Incremental cells — asserting identical
//!   results, final state, and per-trigger catalogs;
//! * [`shrink`] — a delta-debugging (ddmin) shrinker that minimizes any
//!   divergent sequence to a 1-minimal failing subsequence, pretty-printed
//!   by [`ops`] in a line format that round-trips through `FromStr` so
//!   repros can be checked into `tests/corpus/`.
//!
//! Divergences are *values* ([`exec::Divergence`]), never panics: the
//! shrinker treats failure as data, and the crate stays inside the
//! workspace panic-freedom ratchet.
//!
//! Entry points: `cargo xtask fuzz --seeds N` (CI smoke runs 32), the
//! `fuzz` binary directly, or [`exec::fuzz_one`] for one seed.

#![forbid(unsafe_code)]

pub mod exec;
pub mod gen;
pub mod model;
pub mod ops;
pub mod rng;
pub mod shrink;

pub use exec::{fuzz_one, run_engine_matrix, run_fs_differential, Divergence};
pub use gen::{gen_sequence, gen_traces, GenConfig};
pub use model::{InjectedBug, ModelExemptions, ModelFs};
pub use ops::{Op, OpSequence, ParseOpError};
pub use rng::OracleRng;
pub use shrink::shrink_sequence;
