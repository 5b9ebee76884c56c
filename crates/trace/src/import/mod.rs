//! Importing real facility logs.
//!
//! §5 of the paper: "the system administrator can utilize various
//! techniques to collect the traces about the selected activities ...
//! either utilize logs or traces that are readily available in the HPC
//! system or develop scripts or tools". These importers parse the three
//! log families the paper's own evaluation used, in the formats
//! administrators actually have:
//!
//! * [`slurm`] — job records from `sacct --parsable2` output;
//! * [`publications`] — a publication list CSV (date, citations, author
//!   user names);
//! * [`access_log`] — file access records from a changelog-style
//!   `epoch uid op path` log.
//!
//! All importers are line-oriented, skip-and-report on malformed lines
//! (facility logs are never clean), and resolve user names through a
//! shared [`UserDirectory`].

#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

pub mod access_log;
pub mod assemble;
pub mod datetime;
pub mod publications;
pub mod slurm;

pub use access_log::parse_access_log;
pub use assemble::{assemble, AssembleReport, ImportBundle};
pub use datetime::{parse_iso8601, EpochDate};
pub use publications::parse_publications;
pub use slurm::parse_sacct;

use activedr_core::convert;
use activedr_core::user::UserId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Maps facility user names to dense [`UserId`]s, allocating on first
/// sight so all importers share one id space.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserDirectory {
    ids: HashMap<String, UserId>,
    names: Vec<String>,
}

impl UserDirectory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve a user name, allocating a new id if unseen.
    pub fn resolve(&mut self, name: &str) -> UserId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        #[allow(
            clippy::expect_used,
            reason = "the id space (2^32 users) cannot exhaust on a real roster; \
                      panicking beats silently aliasing two users"
        )]
        let id = UserId(u32::try_from(self.names.len()).expect("user id space exhausted"));
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Look up a name without allocating.
    pub fn get(&self, name: &str) -> Option<UserId> {
        self.ids.get(name).copied()
    }

    pub fn name_of(&self, id: UserId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn user_ids(&self) -> Vec<UserId> {
        (0..convert::u32_from_usize(self.names.len()))
            .map(UserId)
            .collect()
    }
}

/// A line the importer could not parse, kept for the import report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkippedLine {
    /// 1-based line number.
    pub line: usize,
    pub reason: String,
}

/// Outcome of one import: parsed records plus the skip report.
#[derive(Debug, Clone, PartialEq)]
pub struct Imported<T> {
    pub records: Vec<T>,
    pub skipped: Vec<SkippedLine>,
}

impl<T> Imported<T> {
    pub fn parse_rate(&self) -> f64 {
        let total = self.records.len() + self.skipped.len();
        if total == 0 {
            1.0
        } else {
            convert::ratio_usize(self.records.len(), total)
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;

    #[test]
    fn directory_allocates_dense_stable_ids() {
        let mut d = UserDirectory::new();
        let a = d.resolve("alice");
        let b = d.resolve("bob");
        assert_eq!(a, UserId(0));
        assert_eq!(b, UserId(1));
        assert_eq!(d.resolve("alice"), a); // stable
        assert_eq!(d.len(), 2);
        assert_eq!(d.get("bob"), Some(b));
        assert_eq!(d.get("carol"), None);
        assert_eq!(d.name_of(a), Some("alice"));
        assert_eq!(d.name_of(UserId(9)), None);
        assert_eq!(d.user_ids(), vec![UserId(0), UserId(1)]);
    }

    #[test]
    fn parse_rate() {
        let ok: Imported<u32> = Imported {
            records: vec![1, 2, 3],
            skipped: vec![],
        };
        assert_eq!(ok.parse_rate(), 1.0);
        let mixed: Imported<u32> = Imported {
            records: vec![1],
            skipped: vec![SkippedLine {
                line: 2,
                reason: "x".into(),
            }],
        };
        assert_eq!(mixed.parse_rate(), 0.5);
        let empty: Imported<u32> = Imported {
            records: vec![],
            skipped: vec![],
        };
        assert_eq!(empty.parse_rate(), 1.0);
    }
}
