//! Property tests: the path trie must behave exactly like a
//! `HashMap<String, FileMeta>` under arbitrary insert/remove/lookup
//! sequences, and the virtual file system's byte accounting must stay
//! consistent.

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{ExemptionList, FileMeta, PathTrie, VirtualFs};
use proptest::prelude::*;
use std::collections::HashMap;

/// Small component alphabet so paths collide and force splits/merges.
/// `a.b` and `a-1` hold bytes that sort below `/`, so raw string order and
/// component order disagree on them (`/a/x` vs `/a.b`). The trie holds a
/// name of up to 22 bytes in place and spills a longer one to the heap;
/// the alphabet has one of each kind past ASCII as well.
fn arb_path() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "a",
            "b",
            "c",
            "dir",
            "u1",
            "u2",
            "data",
            "x",
            "a.b",
            "a-1",
            "données",
            "a-component-name-past-the-inline-capacity",
        ]),
        1..6,
    )
    .prop_map(|comps| format!("/{}", comps.join("/")))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(String, u64),
    Remove(String),
    Access(String, i64),
    Rename(String, String),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_path(), 1u64..10_000).prop_map(|(p, s)| Op::Insert(p, s)),
        arb_path().prop_map(Op::Remove),
        (arb_path(), 0i64..1000).prop_map(|(p, d)| Op::Access(p, d)),
        (arb_path(), arb_path()).prop_map(|(a, b)| Op::Rename(a, b)),
    ]
}

fn norm(path: &str) -> String {
    let comps: Vec<&str> = path
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect();
    format!("/{}", comps.join("/"))
}

/// Iteration yields exactly the model's paths, in component order (the
/// order the catalog's files follow), each under the id a lookup returns
/// and with the model's size.
fn sweep(trie: &PathTrie, model: &HashMap<String, u64>) {
    let mut listed: Vec<String> = Vec::new();
    for (path, id, meta) in trie.iter() {
        assert_eq!(trie.lookup(&path), Some(id));
        assert_eq!(model.get(&path), Some(&meta.size));
        listed.push(path);
    }
    let mut expected: Vec<String> = model.keys().cloned().collect();
    expected.sort_by(|x, y| x.split('/').cmp(y.split('/')));
    assert_eq!(listed, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trie agrees with a HashMap model on membership, metadata, and
    /// count after any operation sequence. The model must reject the same
    /// file/directory conflicts the trie rejects.
    #[test]
    fn trie_equals_hashmap_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut trie = PathTrie::new();
        let mut model: HashMap<String, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(path, size) => {
                    let key = norm(&path);
                    // Model-side conflict check: a strict prefix that is a
                    // file, or an existing longer path extending us.
                    let is_prefix_of_existing_file = model
                        .keys()
                        .any(|k| k.len() > key.len() && k.starts_with(&key) && k.as_bytes()[key.len()] == b'/');
                    let has_file_prefix = model.keys().any(|k| {
                        key.len() > k.len() && key.starts_with(k.as_str()) && key.as_bytes()[k.len()] == b'/'
                    });
                    let meta = FileMeta::new(UserId(1), size, Timestamp::EPOCH);
                    let result = trie.insert(&path, meta);
                    if has_file_prefix || is_prefix_of_existing_file {
                        prop_assert!(result.is_err(), "expected conflict on {key}");
                    } else {
                        prop_assert!(result.is_ok(), "unexpected error on {key}: {result:?}");
                        model.insert(key, size);
                    }
                }
                Op::Remove(path) => {
                    let key = norm(&path);
                    let expected = model.remove(&key);
                    let got = trie.remove(&path).map(|m| m.size);
                    prop_assert_eq!(got, expected);
                }
                Op::Access(path, day) => {
                    let key = norm(&path);
                    let ts = Timestamp::from_days(day);
                    if model.contains_key(&key) {
                        prop_assert!(trie.get(&path).is_some());
                        trie.get_mut(&path).unwrap().touch(ts);
                        prop_assert!(trie.get(&path).unwrap().atime >= Timestamp::EPOCH);
                    } else {
                        prop_assert!(trie.get(&path).is_none());
                    }
                }
                Op::Rename(from, to) => {
                    let from_key = norm(&from);
                    let to_key = norm(&to);
                    let result = trie.rename(&from, &to);
                    if !model.contains_key(&from_key) {
                        prop_assert!(result.is_err(), "rename of missing {from_key}");
                    } else if from_key == to_key {
                        prop_assert!(result.is_ok());
                    } else {
                        // Model-side destination validity: same conflict
                        // rules as insert, after the source is removed.
                        let size = model[&from_key];
                        let mut without = model.clone();
                        without.remove(&from_key);
                        let dest_extends_file = without.keys().any(|k| {
                            to_key.len() > k.len()
                                && to_key.starts_with(k.as_str())
                                && to_key.as_bytes()[k.len()] == b'/'
                        });
                        let dest_is_dir_of_file = without.keys().any(|k| {
                            k.len() > to_key.len()
                                && k.starts_with(&to_key)
                                && k.as_bytes()[to_key.len()] == b'/'
                        });
                        if dest_extends_file || dest_is_dir_of_file {
                            prop_assert!(result.is_err(), "expected rename conflict to {to_key}");
                            // Source survives a failed rename.
                            prop_assert!(trie.get(&from).is_some());
                        } else {
                            prop_assert!(result.is_ok(), "rename {from_key} -> {to_key}: {result:?}");
                            model.remove(&from_key);
                            model.insert(to_key, size);
                        }
                    }
                }
            }
            prop_assert_eq!(trie.len(), model.len());
            // The walk follows sibling chains that every op relinks, so
            // its order is checked after each op, not only at the end.
            sweep(&trie, &model);
        }
        for (k, v) in &model {
            let id = trie.lookup(k).expect("model file missing from trie");
            prop_assert_eq!(trie.meta(id).unwrap().size, *v);
            prop_assert_eq!(&trie.path_of(id), k);
        }
    }

    /// VFS used_bytes always equals the sum of live file sizes, and the
    /// catalog covers exactly the live files.
    #[test]
    fn vfs_byte_accounting(ops in prop::collection::vec(arb_op(), 1..100)) {
        let mut fs = VirtualFs::with_capacity(1 << 30);
        let mut model: HashMap<String, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(path, size) => {
                    let key = norm(&path);
                    if fs.create(&path, UserId(0), size, Timestamp::EPOCH).is_ok() {
                        model.insert(key, size);
                    }
                }
                Op::Remove(path) => {
                    if fs.remove(&path).is_some() {
                        model.remove(&norm(&path));
                    }
                }
                Op::Access(path, day) => {
                    let hit = !fs.access(&path, Timestamp::from_days(day)).is_miss();
                    prop_assert_eq!(hit, model.contains_key(&norm(&path)));
                }
                Op::Rename(from, to) => {
                    if fs.rename(&from, &to).is_ok() {
                        let from_key = norm(&from);
                        let to_key = norm(&to);
                        if let Some(size) = model.remove(&from_key) {
                            model.insert(to_key, size);
                        }
                    }
                }
            }
            prop_assert_eq!(fs.used_bytes(), model.values().sum::<u64>());
            prop_assert_eq!(fs.file_count(), model.len());
        }
        let catalog = fs.catalog(&ExemptionList::new());
        prop_assert_eq!(catalog.total_bytes(), fs.used_bytes());
        prop_assert_eq!(catalog.total_files(), fs.file_count());
    }
}
