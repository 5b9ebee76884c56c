//! The checker must pass over the tree that ships it: `cargo xtask check`
//! clean, and the panic-freedom ratchet strictly below its
//! pre-introduction level (18 `.unwrap()`/`.expect()` sites in non-test
//! library code). The rules that moved to clippy and rustc stay pinned
//! here too, so `cargo test` still fails when one of them loses its gate.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::path::Path;

use xtask::runner::{run, Config};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let cfg = Config {
        root: workspace_root(),
        only: None,
        update_baseline: false,
        ..Config::default()
    };
    let report = run(&cfg).expect("checker runs over the shipped tree");
    assert!(
        report.is_clean(),
        "xtask check found errors on the shipped tree:\n{}",
        report.render()
    );
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — crate discovery is broken",
        report.files_scanned
    );
}

#[test]
fn unwrap_expect_ratchet_is_below_pre_introduction_level() {
    let cfg = Config {
        root: workspace_root(),
        only: Some(vec!["panic-freedom".to_string()]),
        update_baseline: false,
        ..Config::default()
    };
    let report = run(&cfg).expect("checker runs over the shipped tree");
    let total: u32 = report
        .panic_counts
        .iter()
        .filter(|((_, cat), _)| cat == "unwrap" || cat == "expect")
        .map(|(_, n)| *n)
        .sum();
    assert!(
        total < 18,
        "{total} unwrap/expect sites in library code — the ratchet started at 18 \
         and must only go down"
    );
}

/// Casts, wall clocks and dropped `Result`s are gated by lints, not by this
/// checker. Pin those gates: the workspace lint table keeps the four cast
/// lints and `let_underscore_must_use`, `clippy.toml` keeps disallowing
/// both clock reads, no library file outside `core::convert` silences a
/// cast lint, and no inline checker waiver is left anywhere.
#[test]
fn moved_rules_stay_gated_by_lints() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read Cargo.toml");
    let clippy_table = toml_table(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "cast_possible_truncation",
        "cast_possible_wrap",
        "cast_sign_loss",
        "cast_precision_loss",
        "let_underscore_must_use",
    ] {
        assert!(
            clippy_table.iter().any(|l| {
                l.split_once('=').is_some_and(|(k, v)| {
                    k.trim() == lint && (v.contains("\"warn\"") || v.contains("\"deny\""))
                })
            }),
            "[workspace.lints.clippy] must keep `{lint}` at warn or deny"
        );
    }

    let clippy_toml = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    let live: Vec<&str> = clippy_toml
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .collect();
    assert!(
        live.iter().any(|l| l.starts_with("disallowed-methods")),
        "clippy.toml must keep its disallowed-methods list"
    );
    for clock in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            live.iter().any(|l| l.contains(&format!("\"{clock}\""))),
            "clippy.toml must keep disallowing `{clock}`"
        );
    }

    let mut offenders = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("list crates") {
        let src = krate.expect("crate dir").path().join("src");
        for file in rust_files(&src) {
            if file.ends_with("crates/core/src/convert.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&file).expect("read source");
            if text.contains("clippy::cast_") {
                offenders.push(file.display().to_string());
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "cast lints may only be allowed in crates/core/src/convert.rs, found in: {offenders:?}"
    );

    let waiver = concat!("xtask", "-allow");
    let waived: Vec<String> = rust_files(&root)
        .into_iter()
        .filter(|f| std::fs::read_to_string(f).is_ok_and(|text| text.contains(waiver)))
        .map(|f| f.display().to_string())
        .collect();
    assert!(
        waived.is_empty(),
        "inline `{waiver}` waivers are gone; use the lint's #[expect] instead: {waived:?}"
    );
}

/// The lines of one `[table]` of a TOML file, up to the next table header.
fn toml_table<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .collect()
}

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                out.extend(rust_files(&path));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Every checked-in machine-maintained baseline must be a fixed point of
/// parse → render: sorted, deduplicated (BTreeMap keys), zero-free, with
/// the canonical header. This is what makes `--update-baseline` idempotent
/// — rewriting a clean tree's baselines is a byte-level no-op.
#[test]
fn checked_in_baselines_are_parse_render_fixed_points() {
    use xtask::baseline::{self, Ratchet};
    let root = workspace_root();
    for ratchet in [
        Ratchet::PanicFreedom,
        Ratchet::PanicReach,
        Ratchet::DeadApi,
        Ratchet::ChangelogEmits,
    ] {
        let path = root.join(ratchet.path());
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let counts = baseline::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(
            baseline::render(ratchet, &counts),
            text,
            "{} is not in canonical form; run `cargo xtask check --update-baseline`",
            path.display()
        );
    }
}
