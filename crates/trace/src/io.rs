//! Trace bundle persistence.
//!
//! Trace bundles serialize as a single JSON document (they are written
//! once and read back whole; the heavyweight stream — file accesses — is
//! already in memory during generation).

use crate::records::TraceSet;
use std::io::{BufRead, Write};

/// Errors reading or writing trace bundles.
#[derive(Debug)]
pub enum TraceIoError {
    Io(std::io::Error),
    Json(serde_json::Error),
    /// Structural validation failed after load.
    Invalid(Vec<String>),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceIoError::Invalid(problems) => {
                write!(f, "trace bundle invalid: {}", problems.join("; "))
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Json(e)
    }
}

/// Write a bundle as one JSON document.
pub fn write_traces<W: Write>(traces: &TraceSet, mut w: W) -> Result<(), TraceIoError> {
    serde_json::to_writer(&mut w, traces)?;
    w.write_all(b"\n")?;
    Ok(())
}

/// Read a bundle, sort its streams, and validate it.
pub fn read_traces<R: BufRead>(r: R) -> Result<TraceSet, TraceIoError> {
    let mut traces: TraceSet = serde_json::from_reader(r)?;
    traces.sort();
    let problems = traces.validate();
    if problems.is_empty() {
        Ok(traces)
    } else {
        Err(TraceIoError::Invalid(problems))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn round_trip() {
        let traces = generate(&SynthConfig::tiny(1));
        let mut buf = Vec::new();
        write_traces(&traces, &mut buf).unwrap();
        let back = read_traces(&buf[..]).unwrap();
        assert_eq!(back, traces);
    }

    #[test]
    fn corrupt_json_reports_error() {
        assert!(matches!(
            read_traces(&b"{broken"[..]),
            Err(TraceIoError::Json(_))
        ));
    }

    #[test]
    fn invalid_bundle_rejected() {
        let mut traces = generate(&SynthConfig::tiny(1));
        traces.replay_start_day = traces.horizon_days + 1;
        let mut buf = Vec::new();
        write_traces(&traces, &mut buf).unwrap();
        match read_traces(&buf[..]) {
            Err(TraceIoError::Invalid(problems)) => {
                assert!(problems.iter().any(|p| p.contains("replay_start_day")));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn load_sorts_unsorted_streams() {
        let mut traces = generate(&SynthConfig::tiny(2));
        traces.accesses.reverse();
        let mut buf = Vec::new();
        write_traces(&traces, &mut buf).unwrap();
        let back = read_traces(&buf[..]).unwrap();
        assert!(back.accesses.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
