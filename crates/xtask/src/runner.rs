//! Orchestration: file discovery, check scoping, reporting.
//!
//! A run has three passes. Pass 1 lexes and parses every product file
//! (parallel, one worker per core, merged in file order) and collects the
//! name-mention census the dead-API check consumes. Pass 2 runs the
//! file-local checks over each parsed file (parallel, findings merged in
//! file order, so output is deterministic regardless of scheduling). Pass 3
//! builds the interprocedural layer — symbol table ([`crate::resolve`]),
//! call graph ([`crate::callgraph`]), per-function dataflow facts
//! ([`crate::dataflow`]) — and runs the four workspace-level checks
//! ([`crate::interproc`]). Thread count follows `XTASK_THREADS` (default:
//! available parallelism); all output is byte-identical across thread
//! counts.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::baseline::{self, BaselineIssue, Counts, Ratchet};
use crate::callgraph::CallGraph;
use crate::checks::{self, Finding};
use crate::interproc;
use crate::lexer::{Tok, Token};
use crate::resolve::Workspace;
use crate::semantic;
use crate::{ast, dataflow, lexer};

/// Crates whose non-test code must be panic-free (ratcheted) and must keep
/// newtype discipline. The binary (`cli`) is allowed to panic at the
/// edges but still gets the other checks.
const LIB_CRATES: &[&str] = &["core", "fs", "trace", "sim", "obs", "oracle"];

/// Every product crate scanned by the workspace-wide checks. The vendored
/// dependency stubs under `stubs/` and xtask itself (whose sources literally
/// spell the needles it greps for) are deliberately out of scope.
const ALL_CRATES: &[&str] = &["core", "fs", "trace", "sim", "obs", "oracle", "cli"];

/// Files that define the integer/float newtypes: raw `.0` arithmetic is the
/// point of these modules, so the newtype check skips them.
const NEWTYPE_HOMES: &[&str] = &[
    "crates/core/src/time.rs",
    "crates/core/src/user.rs",
    "crates/core/src/files.rs",
    "crates/core/src/event.rs",
    "crates/core/src/rank.rs",
    "crates/fs/src/trie.rs",
];

/// Enums whose dispatch must stay exhaustive, with their defining file
/// (inside which wildcard arms are the module author's business).
const DISPATCH_ENUMS: &[(&str, &str)] = &[
    ("PolicyKind", "crates/sim/src/engine.rs"),
    ("ActivityClass", "crates/core/src/event.rs"),
    ("AccessKind", "crates/trace/src/records.rs"),
    ("Quadrant", "crates/core/src/classify.rs"),
];

/// The one module where exact float comparison is allowed (and documented).
const FLOAT_HOME: &str = "crates/core/src/approx.rs";

/// Modules that define the unit-bearing types and conversions: raw
/// second/day/byte arithmetic is their whole point, so unit-safety skips
/// them.
const UNIT_HOMES: &[&str] = &["crates/core/src/time.rs", "crates/core/src/convert.rs"];

/// Entry points of the engine hot path for the reachability-based checks:
/// the public replay drivers and the engine core they share. Trigger
/// evaluation (the policy `run` impls, the activeness evaluators) is
/// reached from these through the call graph's over-approximated dispatch.
const HOT_PATH_ENTRIES: &[(&str, &str)] = &[
    ("crates/sim/src/engine.rs", "run"),
    ("crates/sim/src/engine.rs", "run_until"),
    ("crates/sim/src/engine.rs", "run_instrumented"),
    ("crates/sim/src/engine.rs", "run_with_telemetry"),
    ("crates/sim/src/engine.rs", "run_engine"),
];

/// The file whose trie mutations the changelog-completeness check proves
/// complete.
const CHANGELOG_HOME: &str = "crates/fs/src/vfs.rs";

/// The four call-graph-based checks (pass 3).
const INTERPROC_CHECKS: &[&str] = &[
    "determinism-taint",
    "changelog-completeness",
    "panic-reachability",
    "dead-api",
];

/// How to invoke a run.
#[derive(Debug, Default)]
pub struct Config {
    /// Workspace root (the directory holding the top-level Cargo.toml).
    pub root: PathBuf,
    /// Restrict to these check names; `None` runs all nine.
    pub only: Option<Vec<String>>,
    /// Rewrite the machine-maintained ratchet files instead of comparing
    /// against them (the hand-audited determinism exemptions are never
    /// rewritten).
    pub update_baseline: bool,
    /// Include a per-phase wall-time table in the rendered report (opt-in:
    /// timings vary run to run, and the default output is byte-identical
    /// across thread counts).
    pub timings: bool,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub check: String,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// One ratcheted site: `(file, category, line, message)`.
pub type Site = (String, String, u32, String);

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard failures: non-ratcheted check findings, baseline regressions,
    /// stale baselines.
    pub errors: Vec<Violation>,
    /// Current panic-freedom counts.
    pub panic_counts: Counts,
    /// Every ratcheted panic site: `(file, category, line, message)`.
    pub panic_sites: Vec<Site>,
    /// Determinism-taint findings, keyed `(file, <category>.<function>)`,
    /// compared against the hand-audited exemption file.
    pub taint_counts: Counts,
    pub taint_sites: Vec<Site>,
    /// Panic sites reachable from the engine hot path, keyed
    /// `(file, category)`.
    pub reach_counts: Counts,
    pub reach_sites: Vec<Site>,
    /// Unreferenced pub functions, keyed `(file, fn name)`.
    pub dead_counts: Counts,
    pub dead_sites: Vec<Site>,
    /// Changelog emit census, keyed `(file, delta variant)`.
    pub emit_counts: Counts,
    pub emit_sites: Vec<Site>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Set when `--update-baseline` rewrote the ratchet files.
    pub baseline_updated: bool,
    /// Wall time of the whole run, for the CI budget line.
    pub elapsed_ms: u64,
    /// Per-phase wall times, rendered only with `--timings`.
    pub timings: Vec<(&'static str, u64)>,
    /// Echo of [`Config::timings`], so `render` knows to print the table.
    pub show_timings: bool,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable rendering: one `error[...]` block per violation (the
    /// `file:line` form is what editors and CI annotations pick up), then a
    /// one-paragraph summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.errors {
            out.push_str(&format!(
                "error[xtask::{}]: {}\n  --> {}:{}\n",
                v.check, v.message, v.file, v.line
            ));
        }
        let panic_total: u32 = self.panic_counts.values().sum();
        let reach_total: u32 = self.reach_counts.values().sum();
        let taint_total: u32 = self.taint_counts.values().sum();
        let dead_total: u32 = self.dead_counts.values().sum();
        out.push_str(&format!(
            "xtask check: {} files scanned in {} ms, {} error(s), \
             {} ratcheted panic site(s) ({} on the hot path), \
             {} audited nondeterminism source(s), {} baselined dead pub fn(s)\n",
            self.files_scanned,
            self.elapsed_ms,
            self.errors.len(),
            panic_total,
            reach_total,
            taint_total,
            dead_total,
        ));
        if self.baseline_updated {
            out.push_str(&format!(
                "baselines rewritten: {}, {}, {}, {}\n",
                baseline::BASELINE_PATH,
                baseline::PANIC_REACH_BASELINE_PATH,
                baseline::DEAD_API_BASELINE_PATH,
                baseline::CHANGELOG_BASELINE_PATH,
            ));
        }
        if self.show_timings {
            out.push_str("timings:\n");
            for (phase, ms) in &self.timings {
                out.push_str(&format!("  {phase:<28} {ms:>6} ms\n"));
            }
        }
        out
    }

    /// Machine-readable rendering: one JSON object per error, one per line
    /// (`{"check":…,"file":…,"line":…,"message":…}`), nothing else. CI
    /// turns these into GitHub annotations.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for v in &self.errors {
            out.push_str(&format!(
                "{{\"check\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}\n",
                json_escape(&v.check),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            ));
        }
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn enabled(cfg: &Config, check: &str) -> bool {
    cfg.only
        .as_ref()
        .is_none_or(|names| names.iter().any(|n| n == check))
}

/// Worker-thread count: `XTASK_THREADS` override, else available
/// parallelism, clamped to the number of work items.
fn num_threads(items: usize) -> usize {
    let env = std::env::var("XTASK_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    env.unwrap_or(hw).min(items.max(1))
}

/// Tally every identifier occurrence in `tokens` into `mentions`, and every
/// `fn <name>` definition into `fn_defs`. The dead-API check declares a pub
/// fn unreferenced when all its mentions are definitions.
pub fn count_mentions(
    tokens: &[Token],
    mentions: &mut BTreeMap<String, u32>,
    fn_defs: &mut BTreeMap<String, u32>,
) {
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else {
            continue;
        };
        *mentions.entry(name.clone()).or_insert(0) += 1;
        let prev_is_fn = i
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .is_some_and(|t| matches!(&t.tok, Tok::Ident(prev) if prev == "fn"));
        if prev_is_fn {
            *fn_defs.entry(name.clone()).or_insert(0) += 1;
        }
    }
}

/// Per-file output of pass 1.
struct FileData {
    file: String,
    /// True for tests/examples/benches files: lexed only for the mention
    /// census, not parsed or checked.
    usage_only: bool,
    tokens: Vec<Token>,
    ast: ast::File,
    mentions: BTreeMap<String, u32>,
    fn_defs: BTreeMap<String, u32>,
}

fn load_file(root: &Path, path: &Path, usage_only: bool) -> Result<FileData, String> {
    let file = rel(root, path);
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {file}: {e}"))?;
    let lexed = lexer::lex(&src);
    let mut mentions = BTreeMap::new();
    let mut fn_defs = BTreeMap::new();
    count_mentions(&lexed, &mut mentions, &mut fn_defs);
    let (tokens, ast) = if usage_only {
        (Vec::new(), ast::File::default())
    } else {
        let tokens = lexer::strip_test_regions(lexed);
        let ast = ast::parse_file(&tokens);
        (tokens, ast)
    };
    Ok(FileData {
        file,
        usage_only,
        tokens,
        ast,
        mentions,
        fn_defs,
    })
}

/// Findings of pass 2 for one file, merged into the report in file order.
#[derive(Default)]
struct FileFindings {
    errors: Vec<Violation>,
    panic: Vec<Site>,
}

/// The checker's own stopwatch, for `--timings` and the CI budget.
#[expect(
    clippy::disallowed_methods,
    reason = "times the checker itself for --timings and the CI budget; no replay reads it"
)]
fn now() -> Instant {
    Instant::now()
}

/// Run the configured checks over the workspace at `cfg.root`.
///
/// # Errors
/// Returns a message for infrastructure problems (unreadable files, broken
/// baseline, unknown check names) — distinct from check findings, which are
/// reported in the [`Report`].
pub fn run(cfg: &Config) -> Result<Report, String> {
    let started = now();
    if let Some(names) = &cfg.only {
        for n in names {
            if !checks::CHECK_NAMES.contains(&n.as_str()) {
                return Err(format!(
                    "unknown check {n:?}; valid names: {}",
                    checks::CHECK_NAMES.join(", ")
                ));
            }
        }
    }
    let mut report = Report {
        show_timings: cfg.timings,
        ..Report::default()
    };
    let mut phase_started = now();
    let mut mark = |report: &mut Report, phase: &'static str| {
        let ms = u64::try_from(phase_started.elapsed().as_millis()).unwrap_or(u64::MAX);
        report.timings.push((phase, ms));
        phase_started = now();
    };
    let lib_files: BTreeSet<String> = LIB_CRATES
        .iter()
        .flat_map(|c| rust_files(&cfg.root.join("crates").join(c).join("src")))
        .map(|p| rel(&cfg.root, &p))
        .collect();

    // Product sources, then usage-only trees (tests/examples/benches) for
    // the dead-API mention census.
    let mut work: Vec<(PathBuf, bool)> = ALL_CRATES
        .iter()
        .flat_map(|c| rust_files(&cfg.root.join("crates").join(c).join("src")))
        .map(|p| (p, false))
        .collect();
    for c in ALL_CRATES {
        for sub in ["tests", "examples", "benches"] {
            work.extend(
                rust_files(&cfg.root.join("crates").join(c).join(sub))
                    .into_iter()
                    .map(|p| (p, true)),
            );
        }
    }
    // The workspace-root integration/example trees (registered in
    // crates/sim/Cargo.toml via explicit [[test]]/[[example]] paths)
    // count for the mention census too, so an API only they exercise
    // stays off the dead list.
    for sub in ["tests", "examples", "benches"] {
        work.extend(
            rust_files(&cfg.root.join(sub))
                .into_iter()
                .map(|p| (p, true)),
        );
    }

    // Pass 1 (parallel): lex, strip tests, parse, census mentions.
    let threads = num_threads(work.len());
    let mut loaded: Vec<Option<Result<FileData, String>>> = (0..work.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let work = &work;
        let root = cfg.root.as_path();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, (path, usage_only)) in work.iter().enumerate().skip(t).step_by(threads)
                    {
                        out.push((i, load_file(root, path, *usage_only)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            if let Ok(items) = h.join() {
                for (i, r) in items {
                    if let Some(slot) = loaded.get_mut(i) {
                        *slot = Some(r);
                    }
                }
            }
        }
    });
    let mut files: Vec<FileData> = Vec::with_capacity(work.len());
    for slot in loaded {
        match slot {
            Some(Ok(data)) => files.push(data),
            Some(Err(e)) => return Err(e),
            None => return Err("xtask worker thread panicked".to_string()),
        }
    }
    mark(&mut report, "load+lex+parse");

    // Merge the mention census (sequential: the fold is order-sensitive
    // only in its merged totals).
    let mut mentions: BTreeMap<String, u32> = BTreeMap::new();
    let mut fn_defs: BTreeMap<String, u32> = BTreeMap::new();
    for data in &files {
        for (k, v) in &data.mentions {
            *mentions.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &data.fn_defs {
            *fn_defs.entry(k.clone()).or_insert(0) += v;
        }
    }

    // Pass 2 (parallel): the five file-local checks, merged in file order.
    let checked: Vec<&FileData> = files.iter().filter(|d| !d.usage_only).collect();
    report.files_scanned = checked.len();
    let threads = num_threads(checked.len());
    let mut findings: Vec<Option<FileFindings>> = (0..checked.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let checked = &checked;
        let lib_files = &lib_files;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, data) in checked.iter().enumerate().skip(t).step_by(threads) {
                        out.push((i, check_file(cfg, data, lib_files)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            if let Ok(items) = h.join() {
                for (i, r) in items {
                    if let Some(slot) = findings.get_mut(i) {
                        *slot = Some(r);
                    }
                }
            }
        }
    });
    for slot in findings {
        let Some(f) = slot else {
            return Err("xtask worker thread panicked".to_string());
        };
        report.errors.extend(f.errors);
        for (file, cat, line, msg) in f.panic {
            *report
                .panic_counts
                .entry((file.clone(), cat.clone()))
                .or_insert(0) += 1;
            report.panic_sites.push((file, cat, line, msg));
        }
    }
    mark(&mut report, "file-local checks");

    // Pass 3: the four interprocedural checks over the workspace symbol
    // table.
    if INTERPROC_CHECKS.iter().any(|c| enabled(cfg, c)) {
        let ast_files: Vec<(String, ast::File)> = files
            .iter_mut()
            .filter(|d| !d.usage_only)
            .map(|d| (d.file.clone(), std::mem::take(&mut d.ast)))
            .collect();
        let mut ws = Workspace::build(&ast_files);
        for d in files.iter().filter(|d| !d.usage_only) {
            ws.scan_hash_decls(&d.tokens);
        }
        let graph = CallGraph::build(&ws);
        let facts = dataflow::compute(&ws);
        mark(&mut report, "symbol table + call graph");

        if enabled(cfg, "determinism-taint") {
            let got = interproc::determinism_taint(&ws, &graph, &facts, HOT_PATH_ENTRIES);
            report.taint_counts = got.counts;
            report.taint_sites = got.sites;
            mark(&mut report, "determinism-taint");
        }
        if enabled(cfg, "changelog-completeness") {
            for (file, line, message) in
                interproc::changelog_completeness(&ws, &graph, &facts, CHANGELOG_HOME)
            {
                report.errors.push(Violation {
                    check: "changelog-completeness".to_string(),
                    file,
                    line,
                    message,
                });
            }
            let census = interproc::changelog_emit_census(&ws, &facts, CHANGELOG_HOME);
            report.emit_counts = census.counts;
            report.emit_sites = census.sites;
            mark(&mut report, "changelog-completeness");
        }
        if enabled(cfg, "panic-reachability") {
            let got = interproc::panic_reachability(&ws, &graph, &facts, HOT_PATH_ENTRIES);
            report.reach_counts = got.counts;
            report.reach_sites = got.sites;
            mark(&mut report, "panic-reachability");
        }
        if enabled(cfg, "dead-api") {
            let got = interproc::dead_api(&ws, &lib_files, &mentions, &fn_defs);
            report.dead_counts = got.counts;
            report.dead_sites = got.sites;
            mark(&mut report, "dead-api");
        }
    }

    // Baselines: compare or rewrite each ratchet.
    let ratchets: [(&str, Ratchet); 5] = [
        ("panic-freedom", Ratchet::PanicFreedom),
        ("panic-reachability", Ratchet::PanicReach),
        ("dead-api", Ratchet::DeadApi),
        ("determinism-taint", Ratchet::DeterminismTaint),
        ("changelog-completeness", Ratchet::ChangelogEmits),
    ];
    for (check, ratchet) in ratchets {
        if !enabled(cfg, check) {
            continue;
        }
        let (counts, sites) = match ratchet {
            Ratchet::PanicFreedom => (&report.panic_counts, &report.panic_sites),
            Ratchet::PanicReach => (&report.reach_counts, &report.reach_sites),
            Ratchet::DeadApi => (&report.dead_counts, &report.dead_sites),
            Ratchet::DeterminismTaint => (&report.taint_counts, &report.taint_sites),
            Ratchet::ChangelogEmits => (&report.emit_counts, &report.emit_sites),
        };
        if cfg.update_baseline && !ratchet.hand_maintained() {
            baseline::store(&cfg.root, ratchet, counts)?;
            report.baseline_updated = true;
            continue;
        }
        let base = baseline::load(&cfg.root, ratchet)?;
        let mut issues = Vec::new();
        for BaselineIssue {
            file,
            category,
            message,
            regression,
        } in baseline::compare(counts, &base)
        {
            let message = if ratchet == Ratchet::DeterminismTaint {
                // The exemption file is audited by hand; never suggest
                // `--update-baseline` for it.
                if regression {
                    format!(
                        "unaudited nondeterminism source(s) `{category}` on the engine hot \
                         path; make the code deterministic or add a justified exemption \
                         line to {}",
                        baseline::DETERMINISM_EXEMPTIONS_PATH
                    )
                } else {
                    format!(
                        "exemption `{category}` no longer matches any hot-path source; \
                         delete its line from {}",
                        baseline::DETERMINISM_EXEMPTIONS_PATH
                    )
                }
            } else {
                message
            };
            // Point regressions at the individual sites so the offender
            // is one click away.
            if regression {
                for (sfile, _, line, smsg) in sites
                    .iter()
                    .filter(|(sfile, scat, _, _)| *sfile == file && *scat == category)
                {
                    issues.push(Violation {
                        check: check.to_string(),
                        file: sfile.clone(),
                        line: *line,
                        message: format!("{smsg} [{message}]"),
                    });
                }
            } else {
                issues.push(Violation {
                    check: check.to_string(),
                    file,
                    line: 0,
                    message,
                });
            }
        }
        report.errors.extend(issues);
    }

    mark(&mut report, "baseline comparison");
    report
        .errors
        .sort_by(|a, b| (&a.file, a.line, &a.check).cmp(&(&b.file, b.line, &b.check)));
    report.elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    Ok(report)
}

/// Pass 2 body: the five file-local checks for one file. Pure function of
/// the parsed file, so it parallelises freely.
fn check_file(cfg: &Config, data: &FileData, lib_files: &BTreeSet<String>) -> FileFindings {
    let file = &data.file;
    let tokens = &data.tokens;
    let file_ast = &data.ast;
    let mut out = FileFindings::default();

    // Collect (check, findings) pairs for this file.
    let mut findings: Vec<(&str, Vec<Finding>)> = Vec::new();
    let in_lib = lib_files.contains(file);

    if enabled(cfg, "panic-freedom") && in_lib {
        findings.push(("panic-freedom", checks::check_panic_freedom(tokens)));
    }
    if enabled(cfg, "newtype") && in_lib && !NEWTYPE_HOMES.contains(&file.as_str()) {
        findings.push(("newtype", checks::check_newtype(tokens)));
    }
    if enabled(cfg, "dispatch") {
        let monitored: Vec<&str> = DISPATCH_ENUMS
            .iter()
            .filter(|(_, home)| *home != file)
            .map(|(name, _)| *name)
            .collect();
        findings.push(("dispatch", checks::check_dispatch(tokens, &monitored)));
    }
    if enabled(cfg, "float-cmp") && file != FLOAT_HOME {
        findings.push(("float-cmp", checks::check_float_cmp(tokens)));
    }
    if enabled(cfg, "unit-safety") && in_lib && !UNIT_HOMES.contains(&file.as_str()) {
        findings.push(("unit-safety", semantic::check_unit_safety(file_ast)));
    }

    for (check, list) in findings {
        for f in list {
            if check == "panic-freedom" {
                // Ratcheted, not individually fatal: count it, and keep
                // the site so baseline regressions can be pinpointed.
                out.panic
                    .push((file.clone(), f.category.to_string(), f.line, f.message));
            } else {
                out.errors.push(Violation {
                    check: check.to_string(),
                    file: file.clone(),
                    line: f.line,
                    message: f.message,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_only_name_is_an_error() {
        let cfg = Config {
            root: PathBuf::from("."),
            only: Some(vec!["no-such-check".to_string()]),
            update_baseline: false,
            ..Config::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
