//! Fixture-driven tests for the five file-local checks.
//!
//! Each file under `fixtures/` annotates every line that must be flagged with
//! a trailing `//~ <check>` marker (`//~ panic-freedom:<category>` for the
//! ratcheted check; several markers may share one `//~` when a line trips
//! more than one check). The harness runs *all* file-local checks —
//! token-window and AST-based — over each fixture and requires the produced
//! findings to equal the markers exactly, so a fixture both proves its check
//! fires and proves the other four stay silent on it.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::path::Path;

use xtask::ast;
use xtask::checks;
use xtask::lexer;
use xtask::semantic;

/// Enums the dispatch check monitors when run over fixtures.
const MONITORED: [&str; 2] = ["PolicyKind", "ActivityClass"];

/// `(line, key)` pairs expected from the `//~` markers, sorted.
fn expected(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let keys: Vec<&str> = line[pos + 3..].split_whitespace().collect();
        assert!(
            !keys.is_empty(),
            "fixture line {}: empty //~ marker",
            idx + 1
        );
        let line = u32::try_from(idx + 1).expect("fixture line numbers fit in u32");
        for key in keys {
            out.push((line, key.to_string()));
        }
    }
    out.sort();
    out
}

/// `(line, key)` pairs actually produced by running every check, sorted.
fn produced(src: &str) -> Vec<(u32, String)> {
    let tokens = lexer::strip_test_regions(lexer::lex(src));
    let mut out = Vec::new();
    for f in checks::check_panic_freedom(&tokens) {
        out.push((f.line, format!("panic-freedom:{}", f.category)));
    }
    for f in checks::check_newtype(&tokens) {
        out.push((f.line, "newtype".to_string()));
    }
    for f in checks::check_dispatch(&tokens, &MONITORED) {
        out.push((f.line, "dispatch".to_string()));
    }
    for f in checks::check_float_cmp(&tokens) {
        out.push((f.line, "float-cmp".to_string()));
    }
    let file = ast::parse_file(&tokens);
    for f in semantic::check_unit_safety(&file) {
        out.push((f.line, "unit-safety".to_string()));
    }
    out.sort();
    out
}

fn assert_fixture(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let want = expected(&src);
    assert!(
        !want.is_empty(),
        "fixture {name} has no //~ markers — harness would pass vacuously"
    );
    let got = produced(&src);
    assert_eq!(
        got, want,
        "fixture {name}: findings (left) do not match //~ markers (right)"
    );
}

#[test]
fn panic_freedom_fixture() {
    assert_fixture("panic_freedom.rs");
}

#[test]
fn newtype_fixture() {
    assert_fixture("newtype.rs");
}

#[test]
fn dispatch_fixture() {
    assert_fixture("dispatch.rs");
}

#[test]
fn float_cmp_fixture() {
    assert_fixture("float_cmp.rs");
}

#[test]
fn unit_safety_fixture() {
    assert_fixture("unit_safety.rs");
}
