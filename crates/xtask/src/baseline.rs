//! The baseline ratchets.
//!
//! The seed codebase predates the panic-freedom invariant, so it carries a
//! known set of `.unwrap()`/indexing sites. Rather than fixing them one by
//! one, their per-file-per-category counts are checked in here and compared
//! exactly on every run: a count above its baseline entry is a regression,
//! a count below it is a *stale* baseline (the ratchet must be tightened
//! with `cargo xtask check --update-baseline` so the improvement can never
//! be silently given back). New files start at an implicit baseline of
//! zero. The interprocedural checks keep their ratchets in the same format.

use std::collections::BTreeMap;
use std::path::Path;

/// Location of the panic-freedom ratchet file, relative to the workspace
/// root.
pub const BASELINE_PATH: &str = "crates/xtask/panic-baseline.txt";

/// Location of the panic-reachability ratchet file (panic sites reachable
/// from the engine hot path), relative to the workspace root.
pub const PANIC_REACH_BASELINE_PATH: &str = "crates/xtask/panic-reach-baseline.txt";

/// Location of the dead-API ratchet file, relative to the workspace root.
pub const DEAD_API_BASELINE_PATH: &str = "crates/xtask/dead-api-baseline.txt";

/// Location of the determinism-taint exemption file. Unlike the other
/// ratchets this file is maintained *by hand* — every entry is an audited
/// nondeterminism source on the engine hot path with a written reason in
/// an adjacent comment — so `--update-baseline` never rewrites it.
pub const DETERMINISM_EXEMPTIONS_PATH: &str = "crates/xtask/determinism-exemptions.txt";

/// Location of the changelog emit-census file, relative to the workspace
/// root.
pub const CHANGELOG_BASELINE_PATH: &str = "crates/xtask/changelog-baseline.txt";

/// Header comment written at the top of each ratchet file.
const PANIC_HEADER: &str =
    "# panic-freedom baseline: per-file counts of potentially panicking sites\n\
     # in non-test library code. Maintained by `cargo xtask check --update-baseline`.\n\
     # The ratchet only goes down: raising a count requires editing this file by\n\
     # hand in the same change that justifies the new panic site.\n";

const PANIC_REACH_HEADER: &str =
    "# panic-reachability baseline: per-file counts of panic sites inside\n\
     # functions reachable from the engine hot path (run/run_instrumented/\n\
     # trigger evaluation), computed over the workspace call graph. Maintained\n\
     # by `cargo xtask check --update-baseline`. The ratchet only goes down:\n\
     # putting a new panic site on the hot path requires editing this file by\n\
     # hand in the same change that justifies it.\n";

const DEAD_API_HEADER: &str =
    "# dead-api baseline: pub functions in the library crates that nothing in\n\
     # the workspace (sources, tests, examples, benches) references, keyed by\n\
     # function name. Maintained by `cargo xtask check --update-baseline`.\n\
     # Entries here are accepted-for-now dead API: delete the function or pick\n\
     # up a caller to shrink this file; adding a new unreferenced pub fn fails\n\
     # the gate.\n";

const DETERMINISM_EXEMPTIONS_HEADER: &str =
    "# determinism-taint exemptions: audited nondeterminism sources reachable\n\
     # from the engine hot path. Keys are `<category>.<function>`; each entry\n\
     # carries a `#` comment above it explaining why the source cannot leak\n\
     # into replay results. THIS FILE IS MAINTAINED BY HAND — `--update-baseline`\n\
     # deliberately refuses to rewrite it. A new source on the hot path fails\n\
     # the gate until it is removed or audited here; a stale entry fails the\n\
     # gate until it is deleted.\n";

const CHANGELOG_HEADER: &str =
    "# changelog emit census: per-Delta-variant counts of changelog emit sites\n\
     # in crates/fs/src/vfs.rs, maintained by `cargo xtask check\n\
     # --update-baseline`. The changelog-completeness check proves every trie\n\
     # mutation reaches *an* emit; this census additionally pins the exact\n\
     # number of emit sites, so deleting any single `log.record(Delta::…)`\n\
     # call fails the gate even when another branch still emits.\n";

/// Which ratchet file a load/store call addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ratchet {
    PanicFreedom,
    PanicReach,
    DeadApi,
    DeterminismTaint,
    ChangelogEmits,
}

impl Ratchet {
    /// Workspace-relative path of the ratchet file.
    pub fn path(self) -> &'static str {
        match self {
            Ratchet::PanicFreedom => BASELINE_PATH,
            Ratchet::PanicReach => PANIC_REACH_BASELINE_PATH,
            Ratchet::DeadApi => DEAD_API_BASELINE_PATH,
            Ratchet::DeterminismTaint => DETERMINISM_EXEMPTIONS_PATH,
            Ratchet::ChangelogEmits => CHANGELOG_BASELINE_PATH,
        }
    }

    /// The hand-audited exemption file must never be clobbered by
    /// `--update-baseline`: its value is the human-written reasons.
    pub fn hand_maintained(self) -> bool {
        matches!(self, Ratchet::DeterminismTaint)
    }

    fn header(self) -> &'static str {
        match self {
            Ratchet::PanicFreedom => PANIC_HEADER,
            Ratchet::PanicReach => PANIC_REACH_HEADER,
            Ratchet::DeadApi => DEAD_API_HEADER,
            Ratchet::DeterminismTaint => DETERMINISM_EXEMPTIONS_HEADER,
            Ratchet::ChangelogEmits => CHANGELOG_HEADER,
        }
    }
}

/// Per-file, per-category violation counts. Keys are
/// `(workspace-relative path with forward slashes, category)`.
pub type Counts = BTreeMap<(String, String), u32>;

/// One baseline comparison problem, already formatted for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineIssue {
    pub file: String,
    pub category: String,
    pub message: String,
    /// True for count increases (regressions), false for stale entries.
    pub regression: bool,
}

/// Parse the checked-in baseline. Lines are `<count> <category> <path>`;
/// `#` lines and blanks are comments.
///
/// # Errors
/// Returns a message for unreadable or malformed files (a malformed ratchet
/// must fail the build, not silently allow everything).
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let (count, category, path) = match (parts.next(), parts.next(), parts.next()) {
            (Some(c), Some(cat), Some(p)) => (c, cat, p),
            _ => {
                return Err(format!(
                    "baseline line {}: expected `<count> <category> <path>`",
                    idx + 1
                ))
            }
        };
        let count: u32 = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count {count:?}", idx + 1))?;
        counts.insert((path.to_string(), category.to_string()), count);
    }
    Ok(counts)
}

/// Render counts in the baseline file format, stable order, zeros dropped.
pub fn render(ratchet: Ratchet, counts: &Counts) -> String {
    let mut out = String::from(ratchet.header());
    for ((path, category), count) in counts {
        if *count > 0 {
            out.push_str(&format!("{count} {category} {path}\n"));
        }
    }
    out
}

/// Compare current counts against the baseline.
pub fn compare(current: &Counts, baseline: &Counts) -> Vec<BaselineIssue> {
    let mut issues = Vec::new();
    for ((path, category), &now) in current {
        let allowed = baseline
            .get(&(path.clone(), category.clone()))
            .copied()
            .unwrap_or(0);
        if now > allowed {
            issues.push(BaselineIssue {
                file: path.clone(),
                category: category.clone(),
                message: format!(
                    "{now} `{category}` site(s), baseline allows {allowed}; remove the new \
                     site(s) or justify raising the baseline by hand"
                ),
                regression: true,
            });
        } else if now < allowed {
            issues.push(BaselineIssue {
                file: path.clone(),
                category: category.clone(),
                message: format!(
                    "{now} `{category}` site(s) but baseline still says {allowed}; run \
                     `cargo xtask check --update-baseline` to lock in the improvement"
                ),
                regression: false,
            });
        }
    }
    for (path, category) in baseline.keys() {
        if !current.contains_key(&(path.clone(), category.clone())) {
            issues.push(BaselineIssue {
                file: path.clone(),
                category: category.clone(),
                message: format!(
                    "baseline entry `{category}` is obsolete (no sites remain); run \
                     `cargo xtask check --update-baseline`"
                ),
                regression: false,
            });
        }
    }
    issues
}

/// Load a baseline from `root`, tolerating a missing file (empty baseline).
///
/// # Errors
/// Propagates parse errors; a present-but-broken file must fail loudly.
pub fn load(root: &Path, ratchet: Ratchet) -> Result<Counts, String> {
    let path = root.join(ratchet.path());
    match std::fs::read_to_string(&path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Counts::new()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Write `counts` as the new baseline for `ratchet` under `root`.
///
/// # Errors
/// Returns a message when the file cannot be written.
pub fn store(root: &Path, ratchet: Ratchet, counts: &Counts) -> Result<(), String> {
    let path = root.join(ratchet.path());
    std::fs::write(&path, render(ratchet, counts))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, u32)]) -> Counts {
        entries
            .iter()
            .map(|(p, c, n)| ((p.to_string(), c.to_string()), *n))
            .collect()
    }

    #[test]
    fn roundtrip_through_text() {
        let c = counts(&[
            ("crates/fs/src/trie.rs", "unwrap", 5),
            ("crates/sim/src/engine.rs", "index", 2),
        ]);
        for ratchet in [
            Ratchet::PanicFreedom,
            Ratchet::PanicReach,
            Ratchet::DeadApi,
            Ratchet::DeterminismTaint,
            Ratchet::ChangelogEmits,
        ] {
            let parsed = parse(&render(ratchet, &c)).unwrap();
            assert_eq!(parsed, c);
        }
    }

    #[test]
    fn regression_and_stale_are_distinguished() {
        let base = counts(&[("a.rs", "unwrap", 2), ("b.rs", "index", 1)]);
        let now = counts(&[("a.rs", "unwrap", 3)]);
        let issues = compare(&now, &base);
        assert_eq!(issues.len(), 2);
        assert!(issues.iter().any(|i| i.regression && i.file == "a.rs"));
        assert!(issues.iter().any(|i| !i.regression && i.file == "b.rs"));
    }

    #[test]
    fn new_file_has_zero_baseline() {
        let issues = compare(&counts(&[("new.rs", "unwrap", 1)]), &Counts::new());
        assert_eq!(issues.len(), 1);
        assert!(issues.first().is_some_and(|i| i.regression));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("not a baseline").is_err());
        assert!(parse("x unwrap a.rs").is_err());
        assert!(parse("# comment\n\n3 unwrap a.rs\n").is_ok());
    }
}
