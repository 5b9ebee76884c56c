//! The archival storage tier (HPSS-style).
//!
//! The paper's §1-2 cost argument rests on what happens *after* a file
//! miss: "it can take hours to days for the users to recover their data by
//! either re-transmission or re-generation". This module models that
//! recovery path: retrievals queue on a fixed number of concurrent
//! streams, pay a fixed request latency (tape mount, queue position) and
//! then transfer at the per-stream bandwidth. The emulation engine uses it
//! to turn each miss into a *measured* recovery time instead of a fixed
//! delay.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use activedr_core::convert;
use activedr_core::time::{TimeDelta, Timestamp};
use serde::{Deserialize, Serialize};

/// Parameters of the archive retrieval path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchiveConfig {
    /// Aggregate retrieval bandwidth across all streams, bytes/second.
    pub bandwidth_bytes_per_sec: u64,
    /// Concurrent retrieval streams (tape drives / transfer slots).
    pub streams: usize,
    /// Fixed per-request overhead before the transfer starts.
    pub request_latency: TimeDelta,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        // A modest HPSS front-end: 2 GiB/s aggregate over 8 streams with a
        // 30-minute mount/queue overhead.
        ArchiveConfig {
            bandwidth_bytes_per_sec: 2 << 30,
            streams: 8,
            request_latency: TimeDelta(30 * 60),
        }
    }
}

impl ArchiveConfig {
    pub fn validate(&self) {
        assert!(
            self.bandwidth_bytes_per_sec > 0,
            "bandwidth must be positive"
        );
        assert!(self.streams > 0, "need at least one stream");
        assert!(
            self.request_latency.secs() >= 0,
            "latency cannot be negative"
        );
    }
}

/// Aggregate retrieval statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ArchiveStats {
    pub requests: u64,
    pub bytes: u64,
    /// Sum of (completion − request) times, seconds.
    pub total_wait_secs: i64,
    pub max_wait_secs: i64,
}

impl ArchiveStats {
    /// Mean end-to-end recovery time per request.
    pub fn mean_wait(&self) -> TimeDelta {
        if self.requests == 0 {
            TimeDelta::ZERO
        } else {
            TimeDelta(self.total_wait_secs / convert::i64_from_u64(self.requests))
        }
    }
}

/// The archive tier: a bank of retrieval streams with queueing.
#[derive(Debug, Clone)]
pub struct ArchiveTier {
    config: ArchiveConfig,
    /// When each stream becomes free.
    free_at: Vec<Timestamp>,
    stats: ArchiveStats,
}

impl ArchiveTier {
    pub fn new(config: ArchiveConfig) -> Self {
        config.validate();
        ArchiveTier {
            free_at: vec![Timestamp(i64::MIN / 2); config.streams],
            config,
            stats: ArchiveStats::default(),
        }
    }

    /// Submit a retrieval of `size` bytes at `now`; returns when the data
    /// lands back on scratch. Requests are served by the earliest-free
    /// stream (FCFS per stream).
    pub fn request(&mut self, now: Timestamp, size: u64) -> Timestamp {
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.secs())
            .map_or(0, |(i, _)| i);
        let start = Timestamp(
            (now + self.config.request_latency)
                .secs()
                .max(self.free_at[slot].secs()),
        );
        let per_stream = (self.config.bandwidth_bytes_per_sec / self.config.streams as u64).max(1);
        let transfer_secs = convert::i64_from_u64(size.div_ceil(per_stream));
        let done = start + TimeDelta(transfer_secs);
        self.free_at[slot] = done;

        let wait = (done - now).secs();
        self.stats.requests += 1;
        self.stats.bytes += size;
        self.stats.total_wait_secs += wait;
        self.stats.max_wait_secs = self.stats.max_wait_secs.max(wait);
        done
    }

    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bw: u64, streams: usize, latency_secs: i64) -> ArchiveConfig {
        ArchiveConfig {
            bandwidth_bytes_per_sec: bw,
            streams,
            request_latency: TimeDelta(latency_secs),
        }
    }

    #[test]
    fn single_request_pays_latency_plus_transfer() {
        let mut tier = ArchiveTier::new(cfg(100, 1, 10));
        let now = Timestamp(1000);
        // 500 bytes at 100 B/s = 5 s transfer after a 10 s latency.
        let done = tier.request(now, 500);
        assert_eq!(done, Timestamp(1015));
        let s = tier.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.bytes, 500);
        assert_eq!(s.total_wait_secs, 15);
        assert_eq!(s.mean_wait(), TimeDelta(15));
    }

    #[test]
    fn requests_queue_on_a_saturated_stream() {
        let mut tier = ArchiveTier::new(cfg(100, 1, 0));
        let now = Timestamp(0);
        let a = tier.request(now, 1000); // 10 s
        let b = tier.request(now, 1000); // queued behind a
        assert_eq!(a, Timestamp(10));
        assert_eq!(b, Timestamp(20));
        assert_eq!(tier.stats().max_wait_secs, 20);
    }

    #[test]
    fn streams_serve_in_parallel_at_split_bandwidth() {
        let mut tier = ArchiveTier::new(cfg(100, 2, 0));
        let now = Timestamp(0);
        // Two parallel streams at 50 B/s each.
        let a = tier.request(now, 500);
        let b = tier.request(now, 500);
        assert_eq!(a, Timestamp(10));
        assert_eq!(b, Timestamp(10));
        // A third request queues behind the earliest-free stream.
        let c = tier.request(now, 500);
        assert_eq!(c, Timestamp(20));
    }

    #[test]
    fn idle_streams_do_not_time_travel() {
        let mut tier = ArchiveTier::new(cfg(1000, 1, 0));
        tier.request(Timestamp(0), 100);
        // Long after the first transfer finished, a new request starts now.
        let done = tier.request(Timestamp(10_000), 100);
        assert_eq!(done, Timestamp(10_001));
    }

    #[test]
    fn paper_scale_recovery_takes_hours() {
        // A 10 TiB dataset over the default tier: the "hours to days"
        // claim of §2, quantified.
        let mut tier = ArchiveTier::new(ArchiveConfig::default());
        let done = tier.request(Timestamp(0), 10 << 40);
        let hours = convert::approx_f64_i64((done - Timestamp(0)).secs()) / 3600.0;
        assert!(hours > 2.0 && hours < 48.0, "recovery took {hours:.1} h");
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn zero_streams_rejected() {
        ArchiveTier::new(cfg(100, 0, 0));
    }
}
