//! End-to-end tests of the four interprocedural checks, run through the
//! full runner against throwaway miniature workspaces: each planted bug
//! must fail the gate, and the repaired form of the same workspace must
//! pass it.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::runner::{run, Config, Report};

/// A fresh miniature workspace with the crate layout the hot-path entry
/// points and the changelog home expect.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-interproc-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    for sub in [
        "crates/core/src",
        "crates/sim/src",
        "crates/fs/src",
        "crates/xtask",
    ] {
        fs::create_dir_all(dir.join(sub)).expect("create temp tree");
    }
    dir
}

fn write(root: &Path, rel: &str, body: &str) {
    fs::write(root.join(rel), body).expect("write fixture");
}

fn check_only(root: &Path, only: &[&str], update_baseline: bool) -> Report {
    let cfg = Config {
        root: root.to_path_buf(),
        only: Some(only.iter().map(ToString::to_string).collect()),
        update_baseline,
        ..Config::default()
    };
    run(&cfg).expect("runner succeeds on the miniature tree")
}

#[test]
fn taint_leak_on_hot_path_fails_and_btreemap_fix_passes() {
    let root = temp_root("taint");
    write(
        &root,
        "crates/sim/src/engine.rs",
        "pub fn run() { activedr_core::summarize(); }\n",
    );
    // Planted bug: a helper two crates away iterates a HashMap.
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn summarize() { let mut m = HashMap::new(); m.insert(1, 2);\n\
         for (k, v) in m.iter() { drop((k, v)); } }\n",
    );
    let report = check_only(&root, &["determinism-taint"], false);
    assert!(!report.is_clean(), "hash iteration must fail the gate");
    let e = report.errors.first().expect("finding");
    assert_eq!(e.check, "determinism-taint");
    assert_eq!(e.file, "crates/core/src/lib.rs");
    assert!(
        e.message.contains("run -> summarize"),
        "witness path names the call chain: {}",
        e.message
    );
    assert!(
        e.message.contains("determinism-exemptions"),
        "the fix guidance points at the audited exemption file: {}",
        e.message
    );

    // Fixed form: same shape, ordered container.
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn summarize() { let mut m = BTreeMap::new(); m.insert(1, 2);\n\
         for (k, v) in m.iter() { drop((k, v)); } }\n",
    );
    let report = check_only(&root, &["determinism-taint"], false);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn unemitted_trie_mutation_fails_and_emitting_fix_passes() {
    let root = temp_root("changelog");
    // Planted bug: `silent_touch` mutates the trie and never reaches an
    // emit (the other two methods are complete).
    let buggy = "impl VirtualFs {\n\
         pub fn create(&mut self, path: &str) { let id = self.trie.insert(path);\n\
         if let Some(log) = self.changelog.as_mut() { log.record(Delta::Upsert { id }); } }\n\
         pub fn silent_touch(&mut self, id: NodeId) { self.trie.meta_mut(id); }\n\
         }\n";
    write(&root, "crates/fs/src/vfs.rs", buggy);
    let report = check_only(&root, &["changelog-completeness"], false);
    let hard: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.message.contains("no path from it records"))
        .collect();
    assert_eq!(hard.len(), 1, "{}", report.render());
    assert!(
        hard[0].message.contains("silent_touch"),
        "{}",
        hard[0].message
    );

    // Fixed form: the mutation routes through a fn that emits.
    let fixed = "impl VirtualFs {\n\
         pub fn create(&mut self, path: &str) { let id = self.trie.insert(path);\n\
         if let Some(log) = self.changelog.as_mut() { log.record(Delta::Upsert { id }); } }\n\
         pub fn touch(&mut self, id: NodeId) { self.trie.meta_mut(id);\n\
         if let Some(log) = self.changelog.as_mut() { log.record(Delta::Touch { id }); } }\n\
         }\n";
    write(&root, "crates/fs/src/vfs.rs", fixed);
    let report = check_only(&root, &["changelog-completeness"], true);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.baseline_updated);

    // The census baseline now pins one Upsert and one Touch emit: deleting
    // the Touch emit fails the gate even though `touch` still routes its
    // mutation through... nothing. Both the reachability proof and the
    // census must fire.
    write(&root, "crates/fs/src/vfs.rs", buggy);
    let report = check_only(&root, &["changelog-completeness"], false);
    assert!(
        report.errors.iter().any(|e| e.message.contains("touch")),
        "census catches the deleted emit:\n{}",
        report.render()
    );
}

#[test]
fn create_through_upsert_without_an_emit_fails() {
    let root = temp_root("upsert");
    // Planted defect: `insert_meta` creates through `upsert`, and its
    // `Delta::Upsert` emit sits in a private helper nothing calls, so the
    // emit census still counts it.
    let buggy = "impl VirtualFs {\n\
         pub fn insert_meta(&mut self, path: &str, meta: FileMeta) { self.trie.upsert(path, meta); }\n\
         fn log_upsert(&mut self, id: NodeId) {\n\
         if let Some(log) = self.changelog.as_mut() { log.record(Delta::Upsert { id }); } }\n\
         }\n";
    write(&root, "crates/fs/src/vfs.rs", buggy);
    let report = check_only(&root, &["changelog-completeness"], false);
    let hard: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.message.contains("no path from it records"))
        .collect();
    assert_eq!(hard.len(), 1, "{}", report.render());
    assert!(
        hard[0].message.contains("insert_meta") && hard[0].message.contains(".upsert()"),
        "{}",
        hard[0].message
    );

    // Fixed form: the create reaches the emit.
    let fixed = "impl VirtualFs {\n\
         pub fn insert_meta(&mut self, path: &str, meta: FileMeta) {\n\
         let id = self.trie.upsert(path, meta); self.log_upsert(id); }\n\
         fn log_upsert(&mut self, id: NodeId) {\n\
         if let Some(log) = self.changelog.as_mut() { log.record(Delta::Upsert { id }); } }\n\
         }\n";
    write(&root, "crates/fs/src/vfs.rs", fixed);
    let report = check_only(&root, &["changelog-completeness"], true);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn census_pins_duplicate_emits_of_one_variant() {
    let root = temp_root("census");
    // `rename` emits Remove twice (two branches); the census must count 2.
    let two = "impl VirtualFs {\n\
         pub fn rename(&mut self, id: NodeId) { self.trie.rename(id);\n\
         if self.ok { self.log.record(Delta::Remove { id }); }\n\
         else { self.log.record(Delta::Remove { id }); } }\n\
         }\n";
    write(&root, "crates/fs/src/vfs.rs", two);
    let report = check_only(&root, &["changelog-completeness"], true);
    assert!(report.is_clean(), "{}", report.render());

    // Deleting ONE of the two emits is invisible to reachability (the
    // other branch still emits) but not to the census ratchet.
    let one = "impl VirtualFs {\n\
         pub fn rename(&mut self, id: NodeId) { self.trie.rename(id);\n\
         if self.ok { self.log.record(Delta::Remove { id }); }\n\
         else { self.missing(); } }\n\
         }\n";
    write(&root, "crates/fs/src/vfs.rs", one);
    let report = check_only(&root, &["changelog-completeness"], false);
    assert!(!report.is_clean(), "census must catch the lost branch emit");
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.check == "changelog-completeness" && e.message.contains("remove")),
        "{}",
        report.render()
    );
}

#[test]
fn reachable_panic_fails_and_cold_panic_does_not() {
    let root = temp_root("panic-reach");
    write(
        &root,
        "crates/sim/src/engine.rs",
        "pub fn run() { helper(); }\n\
         fn helper(o: Option<u32>) -> u32 { o.unwrap() }\n\
         pub fn cold(o: Option<u32>) -> u32 { o.expect(\"not on the hot path\") }\n",
    );
    let report = check_only(&root, &["panic-reachability"], false);
    let reach: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.check == "panic-reachability")
        .collect();
    assert_eq!(reach.len(), 1, "{}", report.render());
    assert!(
        reach[0].message.contains("run -> helper"),
        "{}",
        reach[0].message
    );
    assert!(
        !report.render().contains("cold"),
        "panics outside the hot path belong to the plain panic-freedom \
         ratchet, not this one"
    );

    // Fixed form: the hot-path helper degrades instead of panicking.
    write(
        &root,
        "crates/sim/src/engine.rs",
        "pub fn run() { helper(); }\n\
         fn helper(o: Option<u32>) -> u32 { o.unwrap_or(0) }\n\
         pub fn cold(o: Option<u32>) -> u32 { o.expect(\"not on the hot path\") }\n",
    );
    let report = check_only(&root, &["panic-reachability"], false);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn dead_pub_fn_fails_until_referenced() {
    let root = temp_root("dead-api");
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn used() -> u32 { 1 }\npub fn orphan() -> u32 { 2 }\n",
    );
    // Non-pub on purpose: a pub `run` with no caller would itself be dead
    // in this miniature workspace.
    write(
        &root,
        "crates/sim/src/engine.rs",
        "fn run() -> u32 { activedr_core::used() }\n",
    );
    let report = check_only(&root, &["dead-api"], false);
    let dead: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.check == "dead-api")
        .collect();
    assert_eq!(dead.len(), 1, "{}", report.render());
    assert!(dead[0].message.contains("orphan"), "{}", dead[0].message);

    // A test-module caller counts as a reference (tests document API).
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn used() -> u32 { 1 }\npub fn orphan() -> u32 { 2 }\n\
         #[cfg(test)]\nmod tests { #[test] fn t() { assert_eq!(super::orphan(), 2); } }\n",
    );
    let report = check_only(&root, &["dead-api"], false);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn json_rendering_is_one_object_per_error() {
    let root = temp_root("json");
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub fn orphan() -> u32 { 2 }\n",
    );
    let report = check_only(&root, &["dead-api"], false);
    let json = report.render_json();
    assert_eq!(json.lines().count(), report.errors.len());
    let line = json.lines().next().expect("one finding");
    assert!(line.starts_with("{\"check\":\"dead-api\""), "{line}");
    assert!(
        line.contains("\"file\":\"crates/core/src/lib.rs\""),
        "{line}"
    );
    assert!(line.ends_with('}'), "{line}");
}
