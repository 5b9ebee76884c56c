//! The policy-facing view of the file population.
//!
//! The retention policies in this crate are deliberately decoupled from any
//! concrete file system: they consume flat per-user listings of
//! `(file id, size, atime, exempt)` records — exactly the attributes the
//! paper's procedures read — and return purge *decisions*. The virtual file
//! system in `activedr-fs` produces these listings and applies the
//! decisions.

use crate::time::Timestamp;
use crate::user::UserId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Opaque file identity assigned by the catalog owner (in `activedr-fs`
/// this is the path-trie node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One file as the retention scan sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileRecord {
    /// Catalog-assigned identity.
    pub id: FileId,
    /// File size in bytes.
    pub size: u64,
    /// Last access time — what both FLT and ActiveDR age against.
    pub atime: Timestamp,
    /// Creation time (read only by the value-based baseline).
    pub ctime: Timestamp,
    /// Accesses since creation (read only by the value-based baseline).
    pub access_count: u32,
    /// On the administrator's purge-exemption (reservation) list (§3.4).
    pub exempt: bool,
}

impl FileRecord {
    /// A plain record: `ctime = atime`, zero access count, not exempt.
    pub fn new(id: FileId, size: u64, atime: Timestamp) -> Self {
        FileRecord {
            id,
            size,
            atime,
            ctime: atime,
            access_count: 0,
            exempt: false,
        }
    }

    /// Mark the file as purge-exempt.
    pub fn exempt(mut self) -> Self {
        self.exempt = true;
        self
    }

    /// Set the creation time.
    pub fn with_ctime(mut self, ctime: Timestamp) -> Self {
        self.ctime = ctime;
        self
    }

    /// Set the access count.
    pub fn with_access_count(mut self, count: u32) -> Self {
        self.access_count = count;
        self
    }

    /// Age of the file's last access relative to `now`.
    pub fn age(&self, now: Timestamp) -> crate::time::TimeDelta {
        now.age_since(self.atime)
    }
}

/// A user's directory listing, as produced by one catalog scan.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UserFiles {
    /// The owning user.
    pub user: UserId,
    /// The user's files, in scan order.
    pub files: Vec<FileRecord>,
}

impl UserFiles {
    /// A listing of `files` owned by `user`.
    pub fn new(user: UserId, files: Vec<FileRecord>) -> Self {
        UserFiles { user, files }
    }

    /// Sum of the listed files' sizes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Number of listed files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// A whole-population catalog snapshot handed to a policy.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Catalog {
    /// Per-user listings, ascending by user id: every producer in this
    /// workspace emits that order, the incremental index
    /// (`activedr_fs::CatalogIndex`) binary-searches users by it, and
    /// comparing an index against a full scan relies on both sharing it.
    pub users: Vec<UserFiles>,
}

impl Catalog {
    /// A catalog over the given per-user listings.
    pub fn new(users: Vec<UserFiles>) -> Self {
        Catalog { users }
    }

    /// Total bytes across all users.
    pub fn total_bytes(&self) -> u64 {
        self.users.iter().map(UserFiles::total_bytes).sum()
    }

    /// Total files across all users.
    pub fn total_files(&self) -> usize {
        self.users.iter().map(UserFiles::file_count).sum()
    }

    /// The owners present in the catalog, in catalog order.
    pub fn user_ids(&self) -> Vec<UserId> {
        self.users.iter().map(|u| u.user).collect()
    }

    /// The listing for `user`, if present.
    pub fn get(&self, user: UserId) -> Option<&UserFiles> {
        self.users.iter().find(|u| u.user == user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, size: u64, atime_day: i64) -> FileRecord {
        FileRecord::new(FileId(id), size, Timestamp::from_days(atime_day))
    }

    #[test]
    fn user_files_totals() {
        let uf = UserFiles::new(UserId(1), vec![rec(1, 100, 0), rec(2, 50, 3)]);
        assert_eq!(uf.total_bytes(), 150);
        assert_eq!(uf.file_count(), 2);
    }

    #[test]
    fn catalog_totals_and_lookup() {
        let c = Catalog::new(vec![
            UserFiles::new(UserId(1), vec![rec(1, 10, 0)]),
            UserFiles::new(UserId(2), vec![rec(2, 20, 0), rec(3, 30, 1)]),
        ]);
        assert_eq!(c.total_bytes(), 60);
        assert_eq!(c.total_files(), 3);
        assert_eq!(c.user_ids(), vec![UserId(1), UserId(2)]);
        assert_eq!(c.get(UserId(2)).unwrap().file_count(), 2);
        assert!(c.get(UserId(3)).is_none());
    }

    #[test]
    fn exempt_builder() {
        let f = rec(1, 1, 0).exempt();
        assert!(f.exempt);
        assert_eq!(f.id.to_string(), "f1");
    }
}
