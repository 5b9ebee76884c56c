//! Property test: the catalog walk resolves the reservation list against
//! the namespace once and flags files by node, never by path. Its flags
//! must equal `ExemptionList::is_exempt` of each file's path, for every
//! namespace shape and every reservation list.

use activedr_core::files::{Catalog, FileId, FileRecord, UserFiles};
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{CatalogIndex, ExemptionList, VirtualFs};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Components of up to six levels from a small alphabet: unbranched
/// chains become compressed edges, and `a.b` sorts apart from `a/b`.
fn arb_comps() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(
        prop::sample::select(vec!["a", "b", "a.b", "a-1", "deep", "x"]),
        1..7,
    )
}

fn arb_file() -> impl Strategy<Value = (Vec<&'static str>, u32, u64, i64)> {
    (arb_comps(), 1u32..4, 1u64..1000, 0i64..100)
}

/// Spell `comps` canonically, or with doubled separators, `.`
/// components or a trailing `/`.
fn spell(comps: &[&str], style: u8) -> String {
    match style % 4 {
        0 => format!("/{}", comps.join("/")),
        1 => format!("//{}", comps.join("//")),
        2 => format!("/./{}", comps.join("/./")),
        _ => format!("/{}/", comps.join("/")),
    }
}

/// One reservation: `(kind, file, depth, random comps, style)`. Kinds 0
/// and 1 reserve the first `depth` components of the `file`-th live file
/// (a directory that ends inside a compressed edge or at a node, or the
/// file itself), as a directory or an exact path; kinds 2 and 3 reserve a
/// random path the same two ways.
type Reservation = (u8, usize, usize, Vec<&'static str>, u8);

fn arb_reservation() -> impl Strategy<Value = Reservation> {
    (0u8..4, 0usize..64, 1usize..8, arb_comps(), 0u8..4)
}

fn day(d: i64) -> Timestamp {
    Timestamp::from_days(d)
}

/// The catalog built the way the walk is specified: every file of
/// `fs.iter()`, flagged by `is_exempt` of its path, bucketed per owner.
fn reference(fs: &VirtualFs, ex: &ExemptionList) -> Catalog {
    let mut per_user: BTreeMap<UserId, Vec<FileRecord>> = BTreeMap::new();
    for (path, id, meta) in fs.iter() {
        let mut file = FileRecord::new(FileId(u64::from(id.0)), meta.size, meta.atime)
            .with_ctime(meta.ctime)
            .with_access_count(meta.access_count);
        file.exempt = ex.is_exempt(&path);
        per_user.entry(meta.owner).or_default().push(file);
    }
    Catalog::new(
        per_user
            .into_iter()
            .map(|(user, files)| UserFiles::new(user, files))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The walk's flags equal `is_exempt`, in `VirtualFs::catalog` and in
    /// `CatalogIndex::from_fs`, over namespaces whose removed slots are
    /// reused by later files and over reservation lists that nest,
    /// overlap, collide and are spelled non-canonically.
    #[test]
    fn walk_flags_equal_is_exempt(
        files in prop::collection::vec(arb_file(), 1..40),
        removals in prop::collection::vec(0usize..64, 0..12),
        late in prop::collection::vec(arb_file(), 0..12),
        reservations in prop::collection::vec(arb_reservation(), 0..8),
    ) {
        let mut fs = VirtualFs::with_capacity(0);
        let create = |fs: &mut VirtualFs, (comps, user, size, d): (Vec<&str>, u32, u64, i64)| {
            fs.create(&spell(&comps, 0), UserId(user), size, day(d)).ok();
        };
        for file in files {
            create(&mut fs, file);
        }
        let paths: Vec<String> = fs.iter().map(|(path, _, _)| path).collect();
        for i in removals {
            if let Some(path) = paths.get(i % paths.len().max(1)) {
                fs.remove(path);
            }
        }
        // Later files take the slots the removals freed.
        for file in late {
            create(&mut fs, file);
        }

        let live: Vec<Vec<String>> = fs
            .iter()
            .map(|(path, _, _)| path.split('/').skip(1).map(str::to_owned).collect())
            .collect();
        let mut ex = ExemptionList::new();
        for (kind, file, depth, comps, style) in reservations {
            let comps: Vec<&str> = if kind < 2 {
                let Some(target) = live.get(file % live.len().max(1)) else {
                    continue;
                };
                target.iter().take(depth).map(String::as_str).collect()
            } else {
                comps
            };
            let path = spell(&comps, style);
            if kind % 2 == 0 {
                ex.reserve_dir(&path);
            } else {
                ex.reserve_file(&path);
            }
        }

        let want = reference(&fs, &ex);
        prop_assert_eq!(&fs.catalog(&ex), &want);
        prop_assert_eq!(CatalogIndex::from_fs(&fs, &ex).snapshot(), &want);
    }
}

/// The edge cases of the resolution, one fixture each: a directory
/// reservation ending inside a compressed edge covers the node whose edge
/// it ends in; one ending exactly at a node covers only what lies below;
/// one naming a file covers nothing; an exact reservation below a
/// reserved file collides and is dropped.
#[test]
fn reservations_resolve_at_edges_and_nodes() {
    let mut fs = VirtualFs::with_capacity(0);
    // One compressed edge `/p/q/r/f`, and a branch at `/s/t`.
    fs.create("/p/q/r/f", UserId(1), 1, day(0)).unwrap();
    fs.create("/s/t/u", UserId(1), 2, day(0)).unwrap();
    fs.create("/s/t/v/w", UserId(1), 3, day(0)).unwrap();
    fs.create("/s/t.x", UserId(1), 4, day(0)).unwrap();
    fs.create("/k", UserId(1), 5, day(0)).unwrap();
    let flags = |ex: &ExemptionList| -> Vec<(u64, bool)> {
        let catalog = fs.catalog(ex);
        assert_eq!(catalog, reference(&fs, ex));
        catalog.users[0]
            .files
            .iter()
            .map(|f| (f.size, f.exempt))
            .collect()
    };
    let only = |dirs: &[&str], exact: &[&str]| {
        let mut ex = ExemptionList::new();
        for dir in dirs {
            ex.reserve_dir(dir);
        }
        for path in exact {
            ex.reserve_file(path);
        }
        ex
    };
    // Listing order: /k, /p/q/r/f, /s/t/u, /s/t/v/w, /s/t.x.
    assert_eq!(
        flags(&only(&["/p/q"], &[])),
        [(5, false), (1, true), (2, false), (3, false), (4, false)]
    );
    assert_eq!(
        flags(&only(&["//s/./t"], &[])),
        [(5, false), (1, false), (2, true), (3, true), (4, false)]
    );
    assert_eq!(
        flags(&only(&["/k", "/p/q/r/f", "/s/t/v"], &[])),
        [(5, false), (1, false), (2, false), (3, true), (4, false)]
    );
    assert_eq!(
        flags(&only(&[], &["/k", "/k/below", "/s/t.x/"])),
        [(5, true), (1, false), (2, false), (3, false), (4, true)]
    );
}

/// §3.4: renaming a reserved file cancels its reservation. The walk
/// matches reservations by path when it runs, so the renamed file's flag
/// is clear in the next catalog even though it keeps its node, and comes
/// back when the file returns to the reserved path.
#[test]
fn renaming_a_reserved_file_clears_its_flag() {
    let mut fs = VirtualFs::with_capacity(0);
    fs.create("/u1/keep.dat", UserId(1), 10, day(0)).unwrap();
    fs.create("/u1/other", UserId(1), 20, day(0)).unwrap();
    let mut ex = ExemptionList::new();
    ex.reserve_file("/u1/keep.dat");
    let exempt = |fs: &VirtualFs| -> Vec<(u64, bool)> {
        let mut index = CatalogIndex::from_fs(fs, &ex);
        let catalog = fs.catalog(&ex);
        assert_eq!(index.snapshot(), &catalog);
        catalog.users[0]
            .files
            .iter()
            .map(|f| (f.size, f.exempt))
            .collect()
    };
    assert_eq!(exempt(&fs), [(10, true), (20, false)]);

    fs.rename("/u1/keep.dat", "/u1/keep-v2.dat").unwrap();
    assert_eq!(exempt(&fs), [(10, false), (20, false)]);

    fs.rename("/u1/keep-v2.dat", "/u1/keep.dat").unwrap();
    assert_eq!(exempt(&fs), [(10, true), (20, false)]);
}
