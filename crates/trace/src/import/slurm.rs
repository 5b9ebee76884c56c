//! Importing job records from Slurm accounting output.
//!
//! Expected input is `sacct --parsable2` (pipe-separated, no trailing
//! pipe) with at least the columns
//! `JobID|User|Submit|Start|End|NCPUS|State` in any order — the header
//! line names the columns, as sacct prints it. Sub-job steps
//! (`1234.batch`, `1234.0`) are skipped: only top-level allocations carry
//! the submission semantics ActiveDR scores.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use super::datetime::{parse_iso8601, EpochDate};
use super::{Imported, SkippedLine, UserDirectory};
use crate::records::JobRecord;
use std::io::BufRead;

const REQUIRED: [&str; 6] = ["User", "Submit", "Start", "End", "NCPUS", "State"];

/// Parse a `sacct --parsable2` stream.
pub fn parse_sacct<R: BufRead>(
    reader: R,
    epoch: EpochDate,
    users: &mut UserDirectory,
) -> std::io::Result<Imported<JobRecord>> {
    let mut lines = reader.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => {
            return Ok(Imported {
                records: Vec::new(),
                skipped: vec![SkippedLine {
                    line: 1,
                    reason: "empty input".into(),
                }],
            })
        }
    };
    let columns: Vec<&str> = header.split('|').collect();
    let col = |name: &str| columns.iter().position(|c| *c == name);
    let mut idx = std::collections::HashMap::new();
    for name in REQUIRED {
        match col(name) {
            Some(i) => {
                idx.insert(name, i);
            }
            None => {
                return Ok(Imported {
                    records: Vec::new(),
                    skipped: vec![SkippedLine {
                        line: 1,
                        reason: format!("header missing column {name:?}"),
                    }],
                })
            }
        }
    }
    let jobid_col = col("JobID");

    let mut records = Vec::new();
    let mut skipped = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 2; // 1-based, after header
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        let field = |name: &str| fields.get(idx[name]).copied().unwrap_or("");
        let mut skip = |reason: String| {
            skipped.push(SkippedLine {
                line: lineno,
                reason,
            })
        };

        // Sub-steps have dotted job ids.
        if let Some(j) = jobid_col {
            if fields.get(j).is_some_and(|id| id.contains('.')) {
                continue;
            }
        }
        let user_name = field("User");
        if user_name.is_empty() {
            skip("missing user".into());
            continue;
        }
        let Some(submit_ts) = parse_iso8601(field("Submit"), epoch) else {
            skip(format!("bad Submit {:?}", field("Submit")));
            continue;
        };
        // Pending/cancelled-before-start jobs have Unknown start/end; the
        // submission still counts as an operation, so fall back to the
        // submit stamp with zero duration.
        let start_ts = parse_iso8601(field("Start"), epoch).unwrap_or(submit_ts);
        let end_ts = parse_iso8601(field("End"), epoch).unwrap_or(start_ts);
        if end_ts < start_ts {
            skip(format!("job ends before it starts: {line:?}"));
            continue;
        }
        let Ok(cores) = field("NCPUS").parse::<u32>() else {
            skip(format!("bad NCPUS {:?}", field("NCPUS")));
            continue;
        };
        let succeeded = field("State").starts_with("COMPLETED");
        records.push(JobRecord {
            user: users.resolve(user_name),
            submit_ts,
            start_ts,
            end_ts,
            cores,
            succeeded,
        });
    }
    Ok(Imported { records, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::time::{TimeDelta, Timestamp};

    const SAMPLE: &str = "\
JobID|User|Submit|Start|End|NCPUS|State
100|alice|2015-03-01T08:00:00|2015-03-01T08:05:00|2015-03-01T12:05:00|128|COMPLETED
100.batch|alice|2015-03-01T08:05:00|2015-03-01T08:05:00|2015-03-01T12:05:00|128|COMPLETED
101|bob|2015-03-02T09:00:00|Unknown|Unknown|64|CANCELLED by 0
102|alice|2015-03-03T10:00:00|2015-03-03T10:01:00|2015-03-03T09:00:00|32|FAILED
103||2015-03-04T10:00:00|2015-03-04T10:00:00|2015-03-04T11:00:00|16|COMPLETED
104|carol|garbage|2015-03-05T10:00:00|2015-03-05T11:00:00|16|COMPLETED
105|dave|2015-03-06T10:00:00|2015-03-06T10:00:00|2015-03-06T11:00:00|abc|COMPLETED
106|erin|2015-03-07T00:00:00|2015-03-07T00:30:00|2015-03-07T06:30:00|256|TIMEOUT
";

    #[test]
    fn parses_wellformed_and_reports_the_rest() {
        let mut users = UserDirectory::new();
        let imported = parse_sacct(SAMPLE.as_bytes(), EpochDate::PAPER, &mut users).unwrap();
        // 100 (alice), 101 (bob, zero-duration fallback), 106 (erin).
        assert_eq!(imported.records.len(), 3);
        // 102 end<start, 103 missing user, 104 bad submit, 105 bad ncpus.
        assert_eq!(imported.skipped.len(), 4);
        assert!((imported.parse_rate() - 3.0 / 7.0).abs() < 1e-12);

        let alice = &imported.records[0];
        assert_eq!(users.name_of(alice.user), Some("alice"));
        assert_eq!(alice.cores, 128);
        assert!(alice.succeeded);
        assert!((alice.core_hours() - 512.0).abs() < 1e-9); // 128 × 4 h
        assert_eq!(
            alice.submit_ts,
            Timestamp::from_days(59) + TimeDelta::from_hours(8)
        );

        let bob = &imported.records[1];
        assert!(!bob.succeeded);
        assert_eq!(bob.duration(), TimeDelta::ZERO);
        assert_eq!(bob.submit_ts, bob.start_ts);

        let erin = &imported.records[2];
        assert!(!erin.succeeded); // TIMEOUT is an operation, not an outcome
        assert!((erin.core_hours() - 1536.0).abs() < 1e-9); // 256 × 6 h
    }

    #[test]
    fn column_order_is_flexible() {
        let shuffled = "\
State|NCPUS|End|Start|Submit|User|JobID
COMPLETED|8|2015-02-01T01:00:00|2015-02-01T00:00:00|2015-02-01T00:00:00|zoe|1
";
        let mut users = UserDirectory::new();
        let imported = parse_sacct(shuffled.as_bytes(), EpochDate::PAPER, &mut users).unwrap();
        assert_eq!(imported.records.len(), 1);
        assert_eq!(imported.records[0].cores, 8);
    }

    #[test]
    fn missing_header_column_is_fatal_but_clean() {
        let bad = "JobID|User|Submit\n1|a|2015-01-01\n";
        let mut users = UserDirectory::new();
        let imported = parse_sacct(bad.as_bytes(), EpochDate::PAPER, &mut users).unwrap();
        assert!(imported.records.is_empty());
        assert_eq!(imported.skipped.len(), 1);
        assert!(imported.skipped[0].reason.contains("missing column"));
    }

    #[test]
    fn overflowing_submit_year_is_a_skipped_line() {
        let far = "\
JobID|User|Submit|Start|End|NCPUS|State
1|ann|9999999999999-01-01T00:00:00|Unknown|Unknown|8|COMPLETED
2|ann|2015-01-02T00:00:00|2015-01-02T00:00:00|2015-01-02T01:00:00|8|COMPLETED
";
        let mut users = UserDirectory::new();
        let imported = parse_sacct(far.as_bytes(), EpochDate::PAPER, &mut users).unwrap();
        assert_eq!(imported.records.len(), 1);
        assert_eq!(imported.skipped.len(), 1);
        assert_eq!(imported.skipped[0].line, 2);
        assert!(imported.skipped[0].reason.contains("bad Submit"));
    }

    #[test]
    fn empty_input() {
        let mut users = UserDirectory::new();
        let imported = parse_sacct(&b""[..], EpochDate::PAPER, &mut users).unwrap();
        assert!(imported.records.is_empty());
        assert_eq!(imported.skipped.len(), 1);
    }
}
