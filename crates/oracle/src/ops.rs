//! The fuzzer's operation alphabet and its textual wire format.
//!
//! Every operation renders as one whitespace-separated line and parses
//! back losslessly, so minimized divergent sequences can be checked into
//! `tests/corpus/*.ops` and replayed as ordinary regression tests. Paths
//! are generated without whitespace; the parser rejects anything it
//! cannot round-trip. Blank lines and `#` comments are allowed between
//! operations.

use std::fmt;
use std::str::FromStr;

/// One step of a fuzzed sequence. Days are absolute day indices on a
/// non-decreasing clock (the generator never goes backwards; the model
/// and the real file system both tolerate it anyway because atimes are
/// monotone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create (or overwrite) a file.
    Create {
        path: String,
        owner: u32,
        size: u64,
        day: i64,
    },
    /// Replay one read access (touches atime on hit, counts a miss
    /// otherwise).
    Read { path: String, day: i64 },
    /// Delete one file by path.
    Remove { path: String },
    /// Move a file (POSIX replace-on-collision semantics).
    Rename { from: String, to: String },
    /// Fire an unbounded FLT purge: every non-exempt file whose age at
    /// `day` exceeds `lifetime_days` is removed. Runs through the real
    /// catalog/policy/apply pipeline on the system side and through a
    /// three-line scan on the model side.
    Purge { lifetime_days: u32, day: i64 },
    /// Restage a previously purged file from the tombstone at its path,
    /// as the engine does on a miss. `slot` indexes the executor's
    /// purged-path log modulo its length; a no-op while nothing has been
    /// purged or when a create or an earlier restage took the tombstone.
    /// Keeping the reference relative makes every subsequence of a
    /// sequence well-formed, which is what lets the ddmin shrinker delete
    /// ops freely.
    Restage { slot: u64, day: i64 },
    /// Resize the capacity (accounting only; never rejects writes).
    SetCapacity { bytes: u64 },
    /// Capture a snapshot of the live file system and restore it into a
    /// scratch copy, diffing the copy against both the live system and
    /// the model (access counts reset on restore by design).
    SnapshotRoundtrip { day: i64 },
    /// Reserve one exact path against purging.
    ReserveFile { path: String },
    /// Reserve a whole directory prefix against purging.
    ReserveDir { prefix: String },
    /// Force the batched executor to flush its coalescing delta buffer
    /// into its index here. Placing flush boundaries at arbitrary points
    /// of a tape is what pins buffered application to per-delta
    /// application: a window split anywhere must land on the same
    /// catalog. No-op on the model and per-delta sides.
    Flush,
    /// Kill the durable executor here: drop its live `(index, buffer)`
    /// pair on the floor and rebuild both from the on-disk checkpoint +
    /// WAL tail, then continue the tape on the recovered state. The
    /// recovered pair must match the live pair observable-for-observable
    /// — the crash-safety contract, pinned at an arbitrary tape position.
    /// No-op on the model and per-delta sides.
    CrashRecover,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Create {
                path,
                owner,
                size,
                day,
            } => write!(f, "create {path} owner={owner} size={size} day={day}"),
            Op::Read { path, day } => write!(f, "read {path} day={day}"),
            Op::Remove { path } => write!(f, "remove {path}"),
            Op::Rename { from, to } => write!(f, "rename {from} {to}"),
            Op::Purge { lifetime_days, day } => {
                write!(f, "purge lifetime={lifetime_days} day={day}")
            }
            Op::Restage { slot, day } => write!(f, "restage slot={slot} day={day}"),
            Op::SetCapacity { bytes } => write!(f, "setcap bytes={bytes}"),
            Op::SnapshotRoundtrip { day } => write!(f, "snapshot day={day}"),
            Op::ReserveFile { path } => write!(f, "reserve-file {path}"),
            Op::ReserveDir { prefix } => write!(f, "reserve-dir {prefix}"),
            Op::Flush => write!(f, "flush"),
            Op::CrashRecover => write!(f, "crash-recover"),
        }
    }
}

/// Why a line failed to parse back into an [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpError {
    pub line: String,
    pub reason: String,
}

impl fmt::Display for ParseOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse op {:?}: {}", self.line, self.reason)
    }
}

fn bad(line: &str, reason: &str) -> ParseOpError {
    ParseOpError {
        line: line.to_string(),
        reason: reason.to_string(),
    }
}

/// Pull `key=value` off a token, parsing the value.
fn field<T: FromStr>(line: &str, tok: Option<&str>, key: &str) -> Result<T, ParseOpError> {
    let tok = tok.ok_or_else(|| bad(line, &format!("missing {key}=...")))?;
    let value = tok
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| bad(line, &format!("expected {key}=..., got {tok:?}")))?;
    value
        .parse()
        .map_err(|_| bad(line, &format!("bad value in {tok:?}")))
}

fn word<'a>(line: &str, tok: Option<&'a str>, what: &str) -> Result<&'a str, ParseOpError> {
    tok.ok_or_else(|| bad(line, &format!("missing {what}")))
}

impl FromStr for Op {
    type Err = ParseOpError;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let mut toks = line.split_whitespace();
        let op = match toks.next() {
            Some(head) => head,
            None => return Err(bad(line, "empty line")),
        };
        let parsed = match op {
            "create" => Op::Create {
                path: word(line, toks.next(), "path")?.to_string(),
                owner: field(line, toks.next(), "owner")?,
                size: field(line, toks.next(), "size")?,
                day: field(line, toks.next(), "day")?,
            },
            "read" => Op::Read {
                path: word(line, toks.next(), "path")?.to_string(),
                day: field(line, toks.next(), "day")?,
            },
            "remove" => Op::Remove {
                path: word(line, toks.next(), "path")?.to_string(),
            },
            "rename" => Op::Rename {
                from: word(line, toks.next(), "source path")?.to_string(),
                to: word(line, toks.next(), "destination path")?.to_string(),
            },
            "purge" => Op::Purge {
                lifetime_days: field(line, toks.next(), "lifetime")?,
                day: field(line, toks.next(), "day")?,
            },
            "restage" => Op::Restage {
                slot: field(line, toks.next(), "slot")?,
                day: field(line, toks.next(), "day")?,
            },
            "setcap" => Op::SetCapacity {
                bytes: field(line, toks.next(), "bytes")?,
            },
            "snapshot" => Op::SnapshotRoundtrip {
                day: field(line, toks.next(), "day")?,
            },
            "reserve-file" => Op::ReserveFile {
                path: word(line, toks.next(), "path")?.to_string(),
            },
            "reserve-dir" => Op::ReserveDir {
                prefix: word(line, toks.next(), "prefix")?.to_string(),
            },
            "flush" => Op::Flush,
            "crash-recover" => Op::CrashRecover,
            other => return Err(bad(line, &format!("unknown op {other:?}"))),
        };
        if let Some(extra) = toks.next() {
            return Err(bad(line, &format!("trailing token {extra:?}")));
        }
        Ok(parsed)
    }
}

/// An ordered op tape: what the fuzzer generates, the executors consume,
/// and the shrinker minimizes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpSequence(pub Vec<Op>);

impl OpSequence {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for OpSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.0 {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

impl FromStr for OpSequence {
    type Err = ParseOpError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut ops = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            ops.push(line.parse()?);
        }
        Ok(OpSequence(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpSequence {
        OpSequence(vec![
            Op::Create {
                path: "/scratch/u1/a".into(),
                owner: 1,
                size: 4096,
                day: 0,
            },
            Op::Read {
                path: "/scratch/u1/a".into(),
                day: 3,
            },
            Op::Rename {
                from: "/scratch/u1/a".into(),
                to: "/scratch/u2/b".into(),
            },
            Op::Purge {
                lifetime_days: 30,
                day: 40,
            },
            Op::Restage { slot: 2, day: 41 },
            Op::SetCapacity { bytes: 1 << 30 },
            Op::SnapshotRoundtrip { day: 42 },
            Op::ReserveFile {
                path: "/scratch/u1/keep".into(),
            },
            Op::ReserveDir {
                prefix: "/scratch/proj".into(),
            },
            Op::Flush,
            Op::CrashRecover,
            Op::Remove {
                path: "/scratch/u1/keep".into(),
            },
        ])
    }

    #[test]
    fn display_parse_round_trip() {
        let seq = sample();
        let text = seq.to_string();
        let back: OpSequence = text.parse().unwrap_or_default();
        assert_eq!(seq, back);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text =
            "# repro for drift\n\ncreate /a owner=1 size=10 day=0\n  # tail\nread /a day=1\n";
        let seq: OpSequence = text.parse().unwrap_or_default();
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn parse_errors_are_values() {
        assert!("create".parse::<Op>().is_err());
        assert!("create /a owner=x size=1 day=0".parse::<Op>().is_err());
        assert!("teleport /a".parse::<Op>().is_err());
        assert!("read /a day=1 extra".parse::<Op>().is_err());
        assert!("crash-recover now".parse::<Op>().is_err());
        assert!("read /a day=1 extra".parse::<OpSequence>().is_err());
    }
}
