//! Compact path prefix tree (radix trie over path components).
//!
//! The paper indexes every file path of the Spider metadata snapshot into a
//! "compact prefix tree" that serves as the virtual file system for the
//! emulation: it answers "does this path exist?" during trace replay (a
//! miss means the file was purged or never existed) and hands back the
//! per-file metadata. The same structure backs the purge-exemption
//! (reservation) list.
//!
//! This implementation is a path-compressed trie over `/`-separated
//! components: each edge carries one *or more* components, and chains with
//! no branching collapse into a single node, which is what makes the
//! structure compact for deep HPC directory layouts
//! (`/lustre/atlas/u123/proj4/run17/out/part-00001.dat`).
//!
//! Nodes live in an arena with a free list; a file's [`NodeId`] is stable
//! for as long as the file exists and doubles as the
//! [`FileId`](activedr_core::files::FileId) seen by the retention policies.
//! Each component is a [`Name`] held in place, so no component costs an
//! allocation of its own. A node finds a child by name in a `BTreeMap`
//! and also chains its children in key order through sibling links, which
//! is what a walk follows.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::expect_used,
    reason = "expect sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use crate::exemption::Reserved;
use crate::meta::FileMeta;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// Index of a trie node in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    pub const ROOT: NodeId = NodeId(0);

    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A sibling or child link: the root is never anyone's child, so
/// [`NodeId::ROOT`] in a link field means "no node".
fn link(id: NodeId) -> Option<NodeId> {
    (id != NodeId::ROOT).then_some(id)
}

/// Bytes a [`Name`] holds in place; a longer name spills to the heap.
const INLINE: usize = 22;

/// One path component as an edge or a child-map key holds it: in place up
/// to [`INLINE`] bytes, on the heap past that. Names compare by their
/// bytes, exactly as `str` does, so a child map is searched with a
/// component's bytes and a lookup builds no `Name`.
#[derive(Clone)]
enum Name {
    Inline { len: u8, bytes: [u8; INLINE] },
    Spilled(Box<str>),
}

impl Name {
    fn new(comp: &str) -> Name {
        let mut bytes = [0u8; INLINE];
        match (bytes.get_mut(..comp.len()), u8::try_from(comp.len())) {
            (Some(head), Ok(len)) => {
                head.copy_from_slice(comp.as_bytes());
                Name::Inline { len, bytes }
            }
            _ => Name::Spilled(comp.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Name::Spilled(name) => name.as_bytes(),
        }
    }

    /// The component as text. An inline name is a whole `&str` copied in
    /// place, so its bytes are UTF-8 and the check cannot fail.
    fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Name::Spilled(name) => name,
        }
    }

    /// Heap bytes the name owns: none when it is inline.
    fn spilled_len(&self) -> usize {
        match self {
            Name::Inline { .. } => 0,
            Name::Spilled(name) => name.len(),
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Components of the edge leading into this node (empty only for the
    /// root and freed slots). `edge[0]` equals the key under which the
    /// parent holds this node.
    edge: Box<[Name]>,
    parent: NodeId,
    /// The child with the smallest key ([`link`]: `ROOT` when childless).
    first: NodeId,
    /// The siblings just before and just after this node in its parent's
    /// key order (`ROOT` at either end of the chain).
    prev: NodeId,
    next: NodeId,
    /// The children by their edge's first component: the chain from
    /// `first` lists exactly these, in this order.
    children: BTreeMap<Name, NodeId>,
    /// `Some` iff a file terminates exactly at this node.
    meta: Option<FileMeta>,
    /// Whether the slot holds a node; false while it waits on the free
    /// list, so stale ids are detected.
    live: bool,
}

impl Node {
    fn new(edge: Box<[Name]>, parent: NodeId, meta: Option<FileMeta>) -> Node {
        Node {
            edge,
            parent,
            first: NodeId::ROOT,
            prev: NodeId::ROOT,
            next: NodeId::ROOT,
            children: BTreeMap::new(),
            meta,
            live: true,
        }
    }
}

/// Why an insert was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The path is empty or normalizes to the root.
    EmptyPath,
    /// A strict prefix of the path is an existing *file* — a file cannot
    /// also be a directory.
    FileIsNotADirectory { file_prefix: String },
    /// The exact path already exists as a directory with children.
    DirectoryExists,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::EmptyPath => write!(f, "empty path"),
            InsertError::FileIsNotADirectory { file_prefix } => {
                write!(f, "path prefix {file_prefix:?} is an existing file")
            }
            InsertError::DirectoryExists => write!(f, "path is an existing directory"),
        }
    }
}

impl std::error::Error for InsertError {}

/// Why a rename failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenameError {
    /// No file at the source path.
    SourceMissing,
    /// The destination path was invalid; the source is untouched.
    Destination(InsertError),
}

impl fmt::Display for RenameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenameError::SourceMissing => write!(f, "rename source does not exist"),
            RenameError::Destination(e) => write!(f, "rename destination invalid: {e}"),
        }
    }
}

impl std::error::Error for RenameError {}

/// Result of a successful insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// A new file node was created.
    Created(NodeId),
    /// The path already held a file; its metadata was replaced.
    Replaced(NodeId),
}

impl Inserted {
    pub fn id(self) -> NodeId {
        match self {
            Inserted::Created(id) | Inserted::Replaced(id) => id,
        }
    }
}

/// Split a path into normalized components.
pub fn components(path: &str) -> impl Iterator<Item = &str> + Clone {
    path.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// A compact path prefix tree mapping absolute paths to [`FileMeta`].
///
/// ```
/// use activedr_fs::{PathTrie, FileMeta};
/// use activedr_core::{time::Timestamp, user::UserId};
///
/// let mut trie = PathTrie::new();
/// let meta = FileMeta::new(UserId(7), 4096, Timestamp::from_days(10));
/// trie.insert("/lustre/u7/run/out.h5", meta).unwrap();
///
/// assert!(trie.lookup("/lustre/u7/run/out.h5").is_some());
/// assert!(trie.lookup("/lustre/u7").is_none()); // a directory, not a file
/// assert_eq!(trie.iter().count(), 1);
/// assert_eq!(trie.remove("/lustre/u7/run/out.h5").unwrap().size, 4096);
/// assert!(trie.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PathTrie {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    file_count: usize,
}

impl Default for PathTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl PathTrie {
    pub fn new() -> PathTrie {
        PathTrie {
            nodes: vec![Node::new(Box::default(), NodeId::ROOT, None)],
            free: Vec::new(),
            file_count: 0,
        }
    }

    /// Number of files (not internal nodes) stored.
    pub fn len(&self) -> usize {
        self.file_count
    }

    pub fn is_empty(&self) -> bool {
        self.file_count == 0
    }

    fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.idx()];
        debug_assert!(n.live, "access to freed node {id}");
        n
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let n = &mut self.nodes[id.idx()];
        debug_assert!(n.live, "access to freed node {id}");
        n
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.idx()] = node;
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("trie arena overflow"));
            self.nodes.push(node);
            id
        }
    }

    fn release(&mut self, id: NodeId) {
        debug_assert_ne!(id, NodeId::ROOT);
        let n = &mut self.nodes[id.idx()];
        *n = Node::new(Box::default(), NodeId::ROOT, None);
        n.live = false;
        self.free.push(id);
    }

    /// Hang the new node `id` under `parent` by `key`: into the child map
    /// and into the sibling chain, between its neighbours in key order.
    fn attach(&mut self, parent: NodeId, key: Name, id: NodeId) {
        let children = &self.node(parent).children;
        // A sorted load appends, so try the last child before searching.
        let prev = match children.last_key_value() {
            Some((last, &last_id)) if *last < key => last_id,
            Some(_) => children
                .range::<[u8], _>((Bound::Unbounded, Bound::Excluded(key.as_bytes())))
                .next_back()
                .map_or(NodeId::ROOT, |(_, &prev)| prev),
            None => NodeId::ROOT,
        };
        let next = match link(prev) {
            Some(prev) => self.node(prev).next,
            None => self.node(parent).first,
        };
        self.splice(parent, prev, id, next);
        self.node_mut(parent).children.insert(key, id);
    }

    /// Link `id` between `prev` and `next` in `parent`'s chain.
    fn splice(&mut self, parent: NodeId, prev: NodeId, id: NodeId, next: NodeId) {
        let node = self.node_mut(id);
        (node.parent, node.prev, node.next) = (parent, prev, next);
        match link(prev) {
            Some(prev) => self.node_mut(prev).next = id,
            None => self.node_mut(parent).first = id,
        }
        if let Some(next) = link(next) {
            self.node_mut(next).prev = id;
        }
    }

    /// Take `id` out of its parent's sibling chain (not out of the map).
    fn unlink(&mut self, id: NodeId) {
        let &Node {
            parent, prev, next, ..
        } = self.node(id);
        match link(prev) {
            Some(prev) => self.node_mut(prev).next = next,
            None => self.node_mut(parent).first = next,
        }
        if let Some(next) = link(next) {
            self.node_mut(next).prev = prev;
        }
    }

    /// Insert (or replace) a file at `path`.
    pub fn insert(&mut self, path: &str, meta: FileMeta) -> Result<Inserted, InsertError> {
        self.upsert(path, meta).map(|(inserted, _)| inserted)
    }

    /// [`PathTrie::insert`], also handing back the metadata a replaced
    /// file held, so a caller that accounts for it walks the trie once.
    pub(crate) fn upsert(
        &mut self,
        path: &str,
        meta: FileMeta,
    ) -> Result<(Inserted, Option<FileMeta>), InsertError> {
        let mut comps = components(path).peekable();
        if comps.peek().is_none() {
            return Err(InsertError::EmptyPath);
        }
        let mut cur = NodeId::ROOT;
        while let Some(first) = comps.next() {
            // A file node along the way blocks descent.
            if self.node(cur).meta.is_some() {
                return Err(InsertError::FileIsNotADirectory {
                    file_prefix: self.path_of(cur),
                });
            }
            let Some(&child) = self.node(cur).children.get(first.as_bytes()) else {
                // No branch: hang the whole remainder as one compressed
                // edge, allocated at its exact length.
                let key = Name::new(first);
                let mut edge = Vec::with_capacity(1 + comps.clone().count());
                edge.push(key.clone());
                edge.extend(comps.map(Name::new));
                let new_id = self.alloc(Node::new(edge.into_boxed_slice(), cur, Some(meta)));
                self.attach(cur, key, new_id);
                self.file_count += 1;
                return Ok((Inserted::Created(new_id), None));
            };
            // Walk the shared prefix of the child's edge and our remainder;
            // its first component is the key `first` just matched.
            let shared = {
                let edge = &self.node(child).edge;
                let mut shared = 1usize;
                while let (Some(comp), Some(&next)) = (edge.get(shared), comps.peek()) {
                    if comp.as_bytes() != next.as_bytes() {
                        break;
                    }
                    comps.next();
                    shared += 1;
                }
                shared
            };
            if shared == self.node(child).edge.len() {
                // Full edge consumed; descend.
                cur = child;
                continue;
            }
            if comps.peek().is_none() {
                // The path ends inside the edge: it names a directory on
                // the way to `child`. Fail before splitting, or the split
                // would leave a node behind.
                return Err(InsertError::DirectoryExists);
            }
            // Split the child's edge at `shared`: a new middle node takes
            // the head and the child's place in `cur`'s map and chain, and
            // the child hangs under it by the tail's first component.
            let mut head = std::mem::take(&mut self.node_mut(child).edge).into_vec();
            let tail = head.split_off(shared);
            let tail_key = tail.first().cloned().unwrap_or_else(|| Name::new(""));
            let (prev, next) = {
                let node = self.node_mut(child);
                node.edge = tail.into_boxed_slice();
                (node.prev, node.next)
            };
            let mid = self.alloc(Node::new(head.into_boxed_slice(), cur, None));
            self.splice(cur, prev, mid, next);
            self.node_mut(mid).children.insert(tail_key, child);
            self.splice(mid, NodeId::ROOT, child, NodeId::ROOT);
            if let Some(slot) = self.node_mut(cur).children.get_mut(first.as_bytes()) {
                *slot = mid;
            }
            cur = mid;
        }
        // Path fully consumed at `cur`.
        debug_assert_ne!(cur, NodeId::ROOT);
        let node = self.node_mut(cur);
        if node.meta.is_none() && !node.children.is_empty() {
            return Err(InsertError::DirectoryExists);
        }
        match node.meta.replace(meta) {
            Some(old) => Ok((Inserted::Replaced(cur), Some(old))),
            None => {
                // `cur` is a childless intermediate: it becomes the file.
                self.file_count += 1;
                Ok((Inserted::Created(cur), None))
            }
        }
    }

    /// Walk to the node exactly matching `path`, file or directory,
    /// matching components straight from the path.
    fn walk(&self, path: &str) -> Option<NodeId> {
        let mut comps = components(path);
        let mut cur = NodeId::ROOT;
        while let Some(first) = comps.next() {
            let &child = self.node(cur).children.get(first.as_bytes())?;
            // The edge's first component is the key just matched; a path
            // that ends inside the edge names no node.
            for comp in self.node(child).edge.iter().skip(1) {
                if comp.as_bytes() != comps.next()?.as_bytes() {
                    return None;
                }
            }
            cur = child;
        }
        (cur != NodeId::ROOT).then_some(cur)
    }

    /// Where the directory reservation `dir` lands: the node under which it
    /// reserves every file, and whether it reserves that node too. A
    /// reservation that ends inside a node's compressed edge covers the
    /// node and its subtree; one that ends exactly at a node covers only
    /// the node's strict descendants, since the reserved directory itself
    /// is not a file. `None` when no file lies under `dir`.
    pub(crate) fn cover(&self, dir: &str) -> Option<(NodeId, bool)> {
        let mut comps = components(dir);
        let mut cur = NodeId::ROOT;
        while let Some(first) = comps.next() {
            let &child = self.node(cur).children.get(first.as_bytes())?;
            for comp in self.node(child).edge.iter().skip(1) {
                match comps.next() {
                    None => return Some((child, true)),
                    Some(next) if next.as_bytes() == comp.as_bytes() => {}
                    Some(_) => return None,
                }
            }
            cur = child;
        }
        (cur != NodeId::ROOT).then_some((cur, false))
    }

    /// Id of the file at `path`, if one exists.
    pub fn lookup(&self, path: &str) -> Option<NodeId> {
        let id = self.walk(path)?;
        self.node(id).meta.is_some().then_some(id)
    }

    /// Metadata of the file at `path`.
    pub fn get(&self, path: &str) -> Option<&FileMeta> {
        self.lookup(path).and_then(|id| self.node(id).meta.as_ref())
    }

    /// Mutable metadata of the file at `path`.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut FileMeta> {
        let id = self.lookup(path)?;
        self.meta_mut(id)
    }

    /// Metadata by node id.
    pub fn meta(&self, id: NodeId) -> Option<&FileMeta> {
        self.nodes
            .get(id.idx())
            .filter(|n| n.live)
            .and_then(|n| n.meta.as_ref())
    }

    /// Mutable metadata by node id.
    pub fn meta_mut(&mut self, id: NodeId) -> Option<&mut FileMeta> {
        self.nodes
            .get_mut(id.idx())
            .filter(|n| n.live)
            .and_then(|n| n.meta.as_mut())
    }

    /// Remove the file at `path`, pruning now-empty directories.
    pub fn remove(&mut self, path: &str) -> Option<FileMeta> {
        let id = self.lookup(path)?;
        self.remove_id(id)
    }

    /// Remove a file by node id.
    pub fn remove_id(&mut self, id: NodeId) -> Option<FileMeta> {
        let meta = self
            .nodes
            .get_mut(id.idx())
            .filter(|n| n.live)?
            .meta
            .take()?;
        self.file_count -= 1;
        // Prune childless non-file nodes upward.
        let mut cur = id;
        while cur != NodeId::ROOT
            && self.node(cur).meta.is_none()
            && self.node(cur).children.is_empty()
        {
            let parent = self.node(cur).parent;
            self.unlink(cur);
            // The parent holds this node under its edge's first
            // component; take the edge (`release` empties it anyway)
            // rather than clone that component.
            let edge = std::mem::take(&mut self.node_mut(cur).edge);
            if let Some(key) = edge.first() {
                self.node_mut(parent).children.remove(key);
            }
            self.release(cur);
            cur = parent;
        }
        Some(meta)
    }

    /// Reconstruct the absolute path of a node. Returns an empty string
    /// for freed or out-of-range ids (a purged file has no path).
    pub fn path_of(&self, id: NodeId) -> String {
        if !self.nodes.get(id.idx()).is_some_and(|n| n.live) {
            return String::new();
        }
        let mut parts: Vec<&[Name]> = Vec::new();
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            parts.push(&n.edge);
            cur = n.parent;
        }
        let mut out = String::new();
        for edge in parts.iter().rev() {
            for comp in edge.iter() {
                out.push('/');
                out.push_str(comp.as_str());
            }
        }
        out
    }

    /// Depth-first iteration over all files as `(path, id, &meta)`, in
    /// path order compared component by component (`/x/a/b` before
    /// `/x/a.b`). The catalog's per-user file order is this order.
    pub fn iter(&self) -> TrieIter<'_> {
        TrieIter::new(self, Reserved::none(), true)
    }

    /// Move the file at `from` to `to` (metadata preserved, including
    /// atime). Fails if `from` does not exist or `to` cannot be created;
    /// on failure the file is restored at the source path (its [`NodeId`]
    /// may change). Renaming is how users cancel purge reservations
    /// (§3.4), so the caller is responsible for the exemption-list
    /// consequences.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<NodeId, RenameError> {
        let from_id = self.lookup(from).ok_or(RenameError::SourceMissing)?;
        if components(from).eq(components(to)) {
            return Ok(from_id); // no-op rename
        }
        // Validate the destination *before* removing the source: walk the
        // insert path read-only. A cheap sufficient check: destination must
        // not exist as a file-blocked path. We probe by attempting the
        // insert with the real metadata only after removing the source,
        // restoring on failure.
        let meta = self.remove_id(from_id).expect("lookup guaranteed presence");
        match self.insert(to, meta) {
            Ok(inserted) => Ok(inserted.id()),
            Err(e) => {
                // Restore the source; the original path must re-insert
                // cleanly because we just removed it.
                self.insert(from, meta).expect("restoring renamed source");
                Err(RenameError::Destination(e))
            }
        }
    }

    /// Estimated resident memory of the structure in bytes: the arena
    /// (each node with its sibling links and edge header), each edge's
    /// names, each child-map entry (its key held in place, its id and
    /// per-entry B-tree overhead), every name spilled to the heap, and the
    /// free list. Mirrors the paper's Fig. 12a memory-footprint probe.
    pub fn memory_estimate(&self) -> usize {
        use std::mem::size_of;
        let name = |n: &Name| size_of::<Name>() + n.spilled_len();
        let mut bytes = size_of::<Self>() + self.nodes.capacity() * size_of::<Node>();
        for n in &self.nodes {
            if !n.live {
                continue;
            }
            bytes += n.edge.iter().map(name).sum::<usize>();
            bytes += n
                .children
                .keys()
                .map(|k| name(k) + size_of::<NodeId>() + 16)
                .sum::<usize>();
        }
        bytes + self.free.capacity() * size_of::<NodeId>()
    }
}

/// One node still to visit: its id, the length of its parent's path in
/// the walk's buffer, and whether a directory reservation covers it.
#[derive(Clone, Copy)]
struct Frame {
    id: NodeId,
    parent_len: usize,
    covered: bool,
}

/// Depth-first walk over the files of a [`PathTrie`] (see
/// [`PathTrie::iter`]), the one routine every namespace walk runs.
///
/// The walk follows the sibling chains, never a child map: popping a node
/// pushes its next sibling, then its first child, so the child's subtree
/// is visited before the sibling, in key order. Each stack frame carries a
/// `covered` bit beside its node, so each file's exempt flag follows from
/// the reservations resolved once for the walk (`Reserved`) without a
/// path. A walk that spells paths builds them in one reused buffer:
/// popping a node truncates the buffer to its parent's path and appends
/// the node's edge, so a directory costs no allocation. A next-sibling
/// frame shares its parent, so it carries the popped frame's path length
/// and bit. A walk that spells none never reads an edge. `next_file`
/// lends each file's path out of that buffer; [`Iterator::next`] clones
/// it.
pub struct TrieIter<'t> {
    trie: &'t PathTrie,
    reserved: &'t Reserved,
    /// Nodes still to visit, in reverse visiting order.
    stack: Vec<Frame>,
    /// The path of the node visited last; `None` when the walk spells no
    /// paths.
    path: Option<String>,
}

impl<'t> TrieIter<'t> {
    /// A walk of `trie` from its root that flags files against
    /// `reserved`, resolved against this same trie, and spells each
    /// file's path only if `spell_paths`.
    pub(crate) fn new(trie: &'t PathTrie, reserved: &'t Reserved, spell_paths: bool) -> Self {
        TrieIter {
            trie,
            reserved,
            stack: vec![Frame {
                id: NodeId::ROOT,
                parent_len: 0,
                covered: false,
            }],
            path: spell_paths.then(String::new),
        }
    }

    /// The next file with its exempt flag, its path borrowed from the
    /// walk's buffer until the next call (empty when the walk spells no
    /// paths).
    pub(crate) fn next_file(&mut self) -> Option<(&str, NodeId, &'t FileMeta, bool)> {
        while let Some(Frame {
            id,
            parent_len,
            covered,
        }) = self.stack.pop()
        {
            let node = self.trie.node(id);
            if let Some(next) = link(node.next) {
                self.stack.push(Frame {
                    id: next,
                    parent_len,
                    covered,
                });
            }
            let len = match self.path.as_mut() {
                Some(path) => {
                    path.truncate(parent_len);
                    for comp in &node.edge {
                        path.push('/');
                        path.push_str(comp.as_str());
                    }
                    path.len()
                }
                None => 0,
            };
            let (covered, below) = self.reserved.cover(id, covered);
            if let Some(first) = link(node.first) {
                self.stack.push(Frame {
                    id: first,
                    parent_len: len,
                    covered: below,
                });
            }
            if let Some(meta) = node.meta.as_ref() {
                let exempt = covered || self.reserved.names(id);
                return Some((self.path.as_deref().unwrap_or_default(), id, meta, exempt));
            }
        }
        None
    }
}

impl<'t> Iterator for TrieIter<'t> {
    type Item = (String, NodeId, &'t FileMeta);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_file()
            .map(|(path, id, meta, _)| (path.to_owned(), id, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;
    use proptest::prelude::*;

    fn meta(owner: u32, size: u64) -> FileMeta {
        FileMeta::new(UserId(owner), size, Timestamp::EPOCH)
    }

    /// Live arena nodes, including directories and the root.
    fn node_count(t: &PathTrie) -> usize {
        t.nodes.len() - t.free.len()
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = PathTrie::new();
        let id = t
            .insert("/lustre/atlas/u1/a.dat", meta(1, 100))
            .unwrap()
            .id();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("/lustre/atlas/u1/a.dat"), Some(id));
        assert_eq!(t.get("/lustre/atlas/u1/a.dat").unwrap().size, 100);
        assert_eq!(t.lookup("/lustre/atlas/u1"), None); // dir, not file
        assert_eq!(t.lookup("/lustre/atlas/u1/b.dat"), None);
        assert_eq!(t.path_of(id), "/lustre/atlas/u1/a.dat");
    }

    #[test]
    fn path_normalization() {
        let mut t = PathTrie::new();
        let id = t.insert("//a///b/./c", meta(1, 1)).unwrap().id();
        assert_eq!(t.lookup("/a/b/c"), Some(id));
        assert_eq!(t.path_of(id), "/a/b/c");
    }

    #[test]
    fn compression_splits_on_branch() {
        let mut t = PathTrie::new();
        let a = t.insert("/x/y/z/one.dat", meta(1, 1)).unwrap().id();
        // Whole path is one compressed node: root + file.
        assert_eq!(node_count(&t), 2);
        let b = t.insert("/x/y/w/two.dat", meta(1, 2)).unwrap().id();
        // Split at /x/y: root + mid(x,y) + branch z/one.dat + branch w/two.dat.
        assert_eq!(node_count(&t), 4);
        assert_eq!(t.lookup("/x/y/z/one.dat"), Some(a));
        assert_eq!(t.lookup("/x/y/w/two.dat"), Some(b));
        assert_eq!(t.path_of(a), "/x/y/z/one.dat");
        assert_eq!(t.path_of(b), "/x/y/w/two.dat");
    }

    #[test]
    fn ids_stable_across_splits() {
        let mut t = PathTrie::new();
        let a = t.insert("/p/q/r/s/file1", meta(1, 1)).unwrap().id();
        let before = t.path_of(a);
        // Force multiple splits above and below.
        t.insert("/p/q/other", meta(1, 2)).unwrap();
        t.insert("/p/q/r/s/file2", meta(1, 3)).unwrap();
        t.insert("/p/zzz", meta(1, 4)).unwrap();
        assert_eq!(t.lookup("/p/q/r/s/file1"), Some(a));
        assert_eq!(t.path_of(a), before);
        assert_eq!(t.get("/p/q/r/s/file1").unwrap().size, 1);
    }

    #[test]
    fn replace_updates_meta() {
        let mut t = PathTrie::new();
        let a = t.insert("/a/f", meta(1, 1)).unwrap().id();
        match t.insert("/a/f", meta(2, 99)).unwrap() {
            Inserted::Replaced(id) => assert_eq!(id, a),
            other => panic!("expected replace, got {other:?}"),
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get("/a/f").unwrap().owner, UserId(2));
    }

    #[test]
    fn file_cannot_be_directory() {
        let mut t = PathTrie::new();
        t.insert("/a/b", meta(1, 1)).unwrap();
        let err = t.insert("/a/b/c", meta(1, 2)).unwrap_err();
        assert_eq!(
            err,
            InsertError::FileIsNotADirectory {
                file_prefix: "/a/b".into()
            }
        );
        // And a directory cannot become a file.
        t.insert("/d/e/f", meta(1, 1)).unwrap();
        assert_eq!(
            t.insert("/d/e", meta(1, 2)).unwrap_err(),
            InsertError::DirectoryExists
        );
        assert_eq!(
            t.insert("", meta(1, 1)).unwrap_err(),
            InsertError::EmptyPath
        );
        assert_eq!(
            t.insert("///", meta(1, 1)).unwrap_err(),
            InsertError::EmptyPath
        );
    }

    #[test]
    fn failed_creates_and_renames_leave_no_node_behind() {
        let mut t = PathTrie::new();
        t.insert("/d/e/f", meta(1, 1)).unwrap();
        t.insert("/src/g", meta(1, 2)).unwrap();
        let nodes = node_count(&t);
        // `/d/e` ends inside the compressed edge `d/e/f`.
        assert_eq!(
            t.insert("/d/e", meta(1, 3)).unwrap_err(),
            InsertError::DirectoryExists
        );
        assert_eq!(node_count(&t), nodes);
        assert_eq!(
            t.rename("/src/g", "/d").unwrap_err(),
            RenameError::Destination(InsertError::DirectoryExists)
        );
        assert_eq!(node_count(&t), nodes);
        assert_eq!(t.get("/src/g").unwrap().size, 2);
    }

    #[test]
    fn remove_prunes_empty_chains() {
        let mut t = PathTrie::new();
        t.insert("/deep/chain/of/dirs/file", meta(1, 5)).unwrap();
        t.insert("/deep/other", meta(1, 6)).unwrap();
        let removed = t.remove("/deep/chain/of/dirs/file").unwrap();
        assert_eq!(removed.size, 5);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("/deep/chain/of/dirs/file"), None);
        assert!(t.get("/deep/other").is_some());
        // Arena slots were recycled.
        assert_eq!(node_count(&t), 3); // root + /deep + other
        assert!(t.remove("/deep/chain/of/dirs/file").is_none());
        // No directory is left at the pruned path: a file fits there.
        t.insert("/deep/chain/of/dirs", meta(1, 7)).unwrap();
    }

    #[test]
    fn remove_by_id_and_slot_reuse() {
        let mut t = PathTrie::new();
        let a = t.insert("/x/a", meta(1, 1)).unwrap().id();
        t.insert("/x/b", meta(1, 2)).unwrap();
        assert!(t.remove_id(a).is_some());
        assert!(t.remove_id(a).is_none()); // stale id
        assert!(t.meta(a).is_none());
        let c = t.insert("/x/c", meta(1, 3)).unwrap().id();
        assert_eq!(t.get("/x/c").unwrap().size, 3);
        assert_eq!(t.path_of(c), "/x/c");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iteration_is_lexicographic_and_complete() {
        let mut t = PathTrie::new();
        let paths = ["/u2/b", "/u1/x/deep/f", "/u1/a", "/u3/q", "/u1/x/deep/e"];
        for (i, p) in paths.iter().enumerate() {
            t.insert(p, meta(1, i as u64)).unwrap();
        }
        let listed: Vec<String> = t.iter().map(|(p, _, _)| p).collect();
        assert_eq!(
            listed,
            vec!["/u1/a", "/u1/x/deep/e", "/u1/x/deep/f", "/u2/b", "/u3/q"]
        );
    }

    #[test]
    fn memory_estimate_grows_with_content() {
        let mut t = PathTrie::new();
        let empty = t.memory_estimate();
        for i in 0..100 {
            t.insert(
                &format!("/users/u{}/data/file{}.dat", i % 10, i),
                meta(i % 10, 1),
            )
            .unwrap();
        }
        assert!(t.memory_estimate() > empty);
    }

    #[test]
    fn rename_preserves_metadata() {
        let mut t = PathTrie::new();
        t.insert("/a/b/old.dat", meta(3, 77)).unwrap();
        t.insert("/a/other", meta(1, 1)).unwrap();
        let id = t.rename("/a/b/old.dat", "/x/new.dat").unwrap();
        assert_eq!(t.lookup("/a/b/old.dat"), None);
        assert_eq!(t.lookup("/x/new.dat"), Some(id));
        let m = t.get("/x/new.dat").unwrap();
        assert_eq!(m.owner, UserId(3));
        assert_eq!(m.size, 77);
        assert_eq!(t.len(), 2);
        // Source directory chain was pruned: root + /a + other + new.dat,
        // and a file fits where the directory was.
        assert_eq!(node_count(&t), 4);
        t.insert("/a/b", meta(1, 1)).unwrap();
    }

    #[test]
    fn rename_failures_leave_the_file_in_place() {
        let mut t = PathTrie::new();
        t.insert("/src/f", meta(1, 5)).unwrap();
        t.insert("/blocker", meta(1, 1)).unwrap();
        assert_eq!(t.rename("/missing", "/x"), Err(RenameError::SourceMissing));
        // Destination under an existing file is invalid.
        let err = t.rename("/src/f", "/blocker/inside").unwrap_err();
        assert!(matches!(err, RenameError::Destination(_)));
        assert_eq!(t.get("/src/f").unwrap().size, 5);
        assert_eq!(t.len(), 2);
        // No-op rename (same path modulo normalization) succeeds.
        t.rename("/src/f", "//src/./f").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn large_flat_directory() {
        let mut t = PathTrie::new();
        for i in 0..1000 {
            t.insert(&format!("/flat/f{i:04}"), meta(1, i)).unwrap();
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.iter().count(), 1000);
        assert_eq!(t.get("/flat/f0500").unwrap().size, 500);
        for i in 0..1000 {
            assert!(t.remove(&format!("/flat/f{i:04}")).is_some());
        }
        assert!(t.is_empty());
        assert_eq!(node_count(&t), 1); // just the root
    }

    /// Every live node's sibling chain lists exactly its child-map entries
    /// in key order, each child's `parent`, `prev` and `next` agree with
    /// the chain, and the nodes reachable from the root are exactly the
    /// live ones: no freed slot is reachable.
    fn check_structure(t: &PathTrie) {
        let mut reached = 0usize;
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let n = &t.nodes[id.idx()];
            assert!(n.live, "freed slot {id} is reachable");
            reached += 1;
            let mut chain = Vec::new();
            let (mut prev, mut cur) = (NodeId::ROOT, n.first);
            while let Some(c) = link(cur) {
                assert!(
                    chain.len() < n.children.len(),
                    "{id}'s chain outruns its map"
                );
                let child = &t.nodes[c.idx()];
                assert!(child.live, "freed slot {c} is chained under {id}");
                assert_eq!(child.parent, id, "parent of {c}");
                assert_eq!(child.prev, prev, "prev of {c}");
                chain.push(c);
                (prev, cur) = (c, child.next);
            }
            let mapped: Vec<NodeId> = n.children.values().copied().collect();
            assert_eq!(chain, mapped, "{id}'s chain against its map");
            for (key, &c) in &n.children {
                assert_eq!(t.nodes[c.idx()].edge.first(), Some(key), "key of {c}");
            }
            stack.extend(chain);
        }
        assert_eq!(
            reached,
            node_count(t),
            "live nodes unreachable from the root"
        );
        for &f in &t.free {
            assert!(!t.nodes[f.idx()].live, "{f} is on the free list but live");
        }
    }

    #[test]
    fn names_order_and_spill_like_str() {
        // A trailing NUL byte, bytes below `/`, names either side of the
        // inline capacity, and long shared prefixes.
        let names = [
            "",
            "a",
            "a\0",
            "a-1",
            "a.b",
            "a/",
            "0123456789abcdeZ",
            "0123456789abcdefXYZ",
            "0123456789abcdefXZ",
            "0123456789abcdefXYZ\0",
            "exactly-22-bytes-long!",
            "exactly-22-bytes-long!!",
            "données",
            "éééééééééééé",
            "a-component-name-past-the-inline-capacity",
        ];
        for x in names {
            let n = Name::new(x);
            assert_eq!(n.as_str(), x);
            assert_eq!(n.spilled_len() > 0, x.len() > INLINE, "{x:?}");
            for y in names {
                assert_eq!(n.cmp(&Name::new(y)), x.cmp(y), "{x:?} against {y:?}");
            }
        }
        // A map keyed by names finds each by its bytes alone.
        let map: BTreeMap<Name, usize> = names.iter().map(|x| Name::new(x)).zip(0..).collect();
        for (i, x) in names.iter().enumerate() {
            assert_eq!(map.get(x.as_bytes()), Some(&i), "{x:?}");
        }
        assert_eq!(map.get("a\0\0".as_bytes()), None);
    }

    #[derive(Debug, Clone)]
    enum TreeOp {
        Insert(String),
        Remove(String),
        Rename(String, String),
    }

    /// Names past the inline capacity, multi-byte UTF-8, and bytes below
    /// `/` (`a.b`, `a-1`) beside short ones that collide.
    fn arb_tree_path() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                "a",
                "b",
                "dir",
                "a.b",
                "a-1",
                "données",
                "a-component-name-past-the-inline-capacity",
            ]),
            1..5,
        )
        .prop_map(|comps| format!("/{}", comps.join("/")))
    }

    fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
        prop_oneof![
            arb_tree_path().prop_map(TreeOp::Insert),
            arb_tree_path().prop_map(TreeOp::Insert),
            arb_tree_path().prop_map(TreeOp::Remove),
            (arb_tree_path(), arb_tree_path()).prop_map(|(a, b)| TreeOp::Rename(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The links stay consistent through every insert, remove, rename
        /// and failed create, and a failed create allocates nothing.
        #[test]
        fn sibling_chains_follow_the_child_maps(ops in prop::collection::vec(arb_tree_op(), 1..80)) {
            let mut t = PathTrie::new();
            for op in ops {
                match op {
                    TreeOp::Insert(path) => {
                        let nodes = node_count(&t);
                        if t.insert(&path, meta(1, 1)).is_err() {
                            prop_assert_eq!(node_count(&t), nodes, "failed create of {}", path);
                        }
                    }
                    TreeOp::Remove(path) => {
                        t.remove(&path);
                    }
                    TreeOp::Rename(from, to) => {
                        t.rename(&from, &to).ok();
                    }
                }
                check_structure(&t);
            }
        }
    }

    #[test]
    fn a_wide_directory_built_in_descending_order() {
        const FILES: u32 = 100_000;
        let path = |i: u32| format!("/wide/f{i:06}");
        let mut t = PathTrie::new();
        for i in (0..FILES).rev() {
            t.insert(&path(i), meta(1, u64::from(i))).unwrap();
        }
        for i in (0..FILES).step_by(2) {
            assert_eq!(t.remove(&path(i)).map(|m| m.size), Some(u64::from(i)));
        }
        check_structure(&t);
        let listed: Vec<String> = t.iter().map(|(p, ..)| p).collect();
        let kept: Vec<String> = (1..FILES).step_by(2).map(path).collect();
        assert_eq!(listed, kept);
        for i in 0..FILES {
            let found = t.get(&path(i)).map(|m| m.size);
            assert_eq!(found, (i % 2 == 1).then_some(u64::from(i)), "{}", path(i));
        }
    }
}
