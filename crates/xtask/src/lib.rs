//! Repo-specific static analysis for the ActiveDR workspace.
//!
//! `cargo xtask check` enforces nine invariants that rustc and clippy
//! cannot express because they are about *this* codebase's architecture.
//! Rules a shipped lint already covers are left to that lint: lossy casts
//! to clippy's `cast_*` family, wall-clock reads to `disallowed-methods` in
//! `clippy.toml`, and dropped `Result`s to rustc's `unused_must_use` plus
//! `clippy::let_underscore_must_use`. Four checks are token-level (over the
//! [`lexer`] stream):
//!
//! 1. **panic-freedom** — no `.unwrap()`/`.expect()`/panicking macros/index
//!    expressions in non-test library code, ratcheted by a checked-in
//!    baseline ([`baseline`]).
//! 2. **newtype** — no raw arithmetic on `.0` of the domain newtypes
//!    (`Timestamp`, `TimeDelta`, `UserId`, `FileId`, …) outside their
//!    defining modules.
//! 3. **dispatch** — no `_` wildcard arms in matches over the policy and
//!    activity enums, so adding a variant forces every dispatch site to be
//!    revisited.
//! 4. **float-cmp** — no `==`/`!=` against floats outside `core::approx`.
//!
//! One is semantic, over the expression tree built by [`ast`] and
//! traversed via [`visit`] (see [`semantic`]):
//!
//! 5. **unit-safety** — no arithmetic mixing seconds, days, bytes, and
//!    timestamps without going through the typed conversions.
//!
//! Four are interprocedural, over the workspace symbol table ([`resolve`]),
//! the call graph ([`callgraph`]), and per-function dataflow facts
//! ([`dataflow`]) — see [`interproc`]:
//!
//! 6. **determinism-taint** — no function reachable from the engine's
//!    replay entry points (`run`, `run_instrumented`, trigger evaluation)
//!    may transitively reach a nondeterminism source (hash-container
//!    iteration, wall clocks, `RandomState`, thread ids) except through
//!    the hand-audited exemption file `determinism-exemptions.txt`.
//! 7. **changelog-completeness** — every path in `fs::vfs` that mutates
//!    the trie must also reach a changelog emit (`Delta::Upsert`/`Touch`/
//!    `Remove`), and an emit census pins the exact number of emit sites.
//! 8. **panic-reachability** — the panic ratchet, restricted to panic
//!    sites reachable from the engine hot path, with its own baseline.
//! 9. **dead-api** — pub functions in the library crates that nothing in
//!    the workspace references, ratcheted so the public surface only
//!    shrinks.
//!
//! There are no inline waivers: a finding is fixed, or it is carried by a
//! ratchet or exemption file whose every entry is visible in review.

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod checks;
pub mod dataflow;
pub mod interproc;
pub mod lexer;
pub mod perf;
pub mod resolve;
pub mod runner;
pub mod semantic;
pub mod telemetry;
pub mod visit;
