//! End-to-end tests of the panic-freedom baseline ratchet, run against
//! throwaway miniature workspaces in a temp dir.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::runner::{run, Config, Report};

/// A fresh miniature workspace root: `crates/core/src/` for scanned code and
/// `crates/xtask/` for the baseline file.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-ratchet-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(dir.join("crates/core/src")).expect("create temp tree");
    fs::create_dir_all(dir.join("crates/xtask")).expect("create temp tree");
    dir
}

/// Write a lib.rs with `unwraps` many `.unwrap()` sites.
fn write_lib(root: &Path, unwraps: usize) {
    let mut body = String::from("fn f(o: Option<u32>) -> u32 {\n    let mut acc = 0;\n");
    for _ in 0..unwraps {
        body.push_str("    acc += o.unwrap();\n");
    }
    body.push_str("    acc\n}\n");
    fs::write(root.join("crates/core/src/lib.rs"), body).expect("write fixture lib");
}

fn check(root: &Path, update_baseline: bool) -> Report {
    let cfg = Config {
        root: root.to_path_buf(),
        only: None,
        update_baseline,
        ..Config::default()
    };
    run(&cfg).expect("runner succeeds on the miniature tree")
}

#[test]
fn missing_baseline_means_zero_allowance() {
    let root = temp_root("zero");
    write_lib(&root, 2);
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert_eq!(
        report.errors.len(),
        2,
        "each unwrap site is pinpointed:\n{}",
        report.render()
    );
    for e in &report.errors {
        assert_eq!(e.check, "panic-freedom");
        assert_eq!(e.file, "crates/core/src/lib.rs");
        assert!(e.line > 0, "regressions point at the offending line");
        assert!(e.message.contains("baseline allows 0"), "{}", e.message);
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn update_baseline_then_clean() {
    let root = temp_root("update");
    write_lib(&root, 2);
    let report = check(&root, true);
    assert!(
        report.baseline_updated && report.is_clean(),
        "{}",
        report.render()
    );
    let text =
        fs::read_to_string(root.join("crates/xtask/panic-baseline.txt")).expect("baseline written");
    assert!(text.contains("2 unwrap crates/core/src/lib.rs"), "{text}");
    assert!(check(&root, false).is_clean(), "baselined tree passes");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn count_above_baseline_is_a_regression() {
    let root = temp_root("regress");
    write_lib(&root, 2);
    check(&root, true);
    write_lib(&root, 3);
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert_eq!(
        report.errors.len(),
        3,
        "all candidate sites are listed:\n{}",
        report.render()
    );
    assert!(report
        .errors
        .iter()
        .all(|e| e.message.contains("baseline allows 2")));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn improvement_is_stale_until_locked_in() {
    let root = temp_root("stale");
    write_lib(&root, 2);
    check(&root, true);
    write_lib(&root, 1);
    let report = check(&root, false);
    assert!(
        !report.is_clean(),
        "an unlocked improvement must fail the check"
    );
    assert_eq!(report.errors.len(), 1);
    let err = report.errors.first().expect("one stale-baseline error");
    assert!(
        err.message.contains("lock in the improvement"),
        "{}",
        err.message
    );

    // `--update-baseline` tightens the ratchet; afterwards the tree is clean
    // and the old allowance is gone for good.
    let report = check(&root, true);
    assert!(report.baseline_updated && report.is_clean());
    let text = fs::read_to_string(root.join("crates/xtask/panic-baseline.txt"))
        .expect("baseline rewritten");
    assert!(text.contains("1 unwrap crates/core/src/lib.rs"), "{text}");
    assert!(check(&root, false).is_clean());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn removing_the_last_site_makes_the_entry_obsolete() {
    let root = temp_root("obsolete");
    write_lib(&root, 1);
    check(&root, true);
    write_lib(&root, 0);
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert!(
        report.errors.iter().any(|e| e.message.contains("obsolete")),
        "{}",
        report.render()
    );
    check(&root, true);
    assert!(check(&root, false).is_clean());
    fs::remove_dir_all(&root).ok();
}

/// `--update-baseline` must be idempotent: running it twice on an
/// unchanged tree rewrites every ratchet file byte-identically (sorted,
/// deduplicated, zero-free — the render order is the BTreeMap key order,
/// not discovery order).
#[test]
fn update_baseline_twice_is_byte_identical() {
    let root = temp_root("idempotent");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "fn f(o: Option<u32>) -> u32 {\n\
         \x20   o.unwrap() + o.expect(\"twice\")\n\
         }\n",
    )
    .expect("write fixture lib");
    assert!(check(&root, true).baseline_updated);
    let read_all = |root: &Path| -> Vec<(String, String)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(root.join("crates/xtask")).expect("baseline dir") {
            let p = entry.expect("dir entry").path();
            out.push((
                p.file_name().expect("name").to_string_lossy().into_owned(),
                fs::read_to_string(&p).expect("baseline readable"),
            ));
        }
        out.sort();
        out
    };
    let first = read_all(&root);
    assert!(
        first.iter().any(|(name, _)| name == "panic-baseline.txt"),
        "fixture produced no panic baseline: {first:?}"
    );
    assert!(check(&root, true).baseline_updated);
    assert_eq!(first, read_all(&root), "second rewrite must change nothing");
    fs::remove_dir_all(&root).ok();
}
