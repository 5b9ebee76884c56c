//! Per-file metadata carried by the virtual file system.
//!
//! This mirrors the fields the paper extracts from the Spider II weekly
//! Lustre metadata snapshots: owner, access time, stripe count, and the
//! *synthesized* file size (the snapshots expose stripe counts, not sizes;
//! here the generator samples the size and [`crate::striping`] derives the
//! stripe count from it).

#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;

/// Metadata of one file in the virtual file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    pub owner: UserId,
    /// File size in bytes (sampled by the synthetic generator).
    pub size: u64,
    /// Last access time — the field both retention policies age against.
    pub atime: Timestamp,
    /// Creation time (for diagnostics; FLT/ActiveDR never read it, the
    /// value-based baseline does).
    pub ctime: Timestamp,
    /// Lustre stripe count this file is laid out across.
    pub stripes: u8,
    /// Number of recorded accesses since creation (drives the
    /// access-frequency term of the value-based baseline).
    pub access_count: u32,
}

impl FileMeta {
    pub fn new(owner: UserId, size: u64, atime: Timestamp) -> Self {
        FileMeta {
            owner,
            size,
            atime,
            ctime: atime,
            stripes: 1,
            access_count: 0,
        }
    }

    pub fn with_stripes(mut self, stripes: u8) -> Self {
        assert!(stripes >= 1, "stripe count must be at least 1");
        self.stripes = stripes;
        self
    }

    pub fn with_ctime(mut self, ctime: Timestamp) -> Self {
        self.ctime = ctime;
        self
    }

    /// Record an access at `ts`. `atime` is monotone: replaying an
    /// out-of-order trace never moves it backwards. The access counter
    /// saturates rather than wrapping.
    pub fn touch(&mut self, ts: Timestamp) {
        if ts > self.atime {
            self.atime = ts;
        }
        self.access_count = self.access_count.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_is_monotone() {
        let mut m = FileMeta::new(UserId(1), 100, Timestamp::from_days(10));
        m.touch(Timestamp::from_days(20));
        assert_eq!(m.atime, Timestamp::from_days(20));
        m.touch(Timestamp::from_days(5)); // out-of-order event
        assert_eq!(m.atime, Timestamp::from_days(20));
        assert_eq!(m.ctime, Timestamp::from_days(10));
    }

    #[test]
    fn builders() {
        let m = FileMeta::new(UserId(2), 1, Timestamp::EPOCH)
            .with_stripes(4)
            .with_ctime(Timestamp::from_days(-5));
        assert_eq!(m.stripes, 4);
        assert_eq!(m.ctime, Timestamp::from_days(-5));
    }

    #[test]
    #[should_panic(expected = "stripe count")]
    fn zero_stripes_rejected() {
        FileMeta::new(UserId(1), 1, Timestamp::EPOCH).with_stripes(0);
    }
}
