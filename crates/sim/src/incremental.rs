//! The live state of [`CatalogMode::Incremental`](crate::CatalogMode):
//! a Robinhood-style changelog catalog and, when durability is on, the
//! write-ahead log and checkpoints under it.
//!
//! The file system records a changelog; each day's batch is staged
//! through a bounded coalescing [`DeltaBuffer`] and folded into the
//! [`CatalogIndex`] at triggers (or early, when the buffer overruns its
//! bound). [`IncrementalCatalog`] owns the `(index, buffer)` pair, and
//! its only mutators, `absorb` and `flush`, log their WAL record before
//! they touch the pair. A crash at any point therefore recovers to a pair
//! that either has a whole record or none of it, which is what lets a
//! recovery replace the live pair without perturbing the replay.

use crate::engine::{EngineMetrics, SimConfig};
use activedr_core::convert;
use activedr_core::prelude::Catalog;
use activedr_fs::changelog::Delta;
use activedr_fs::{
    flush_beats_scan, CatalogIndex, DeltaBuffer, DurabilityConfig, DurableCatalog, ExemptionList,
    InjectedCrash, StorageError, VirtualFs,
};
use std::time::Instant;

/// The write-ahead logging handle with the config a recovery reopens it
/// with: the injected crash stripped, so a recovery never re-arms the
/// fault that caused it.
struct Durable {
    handle: DurableCatalog,
    reopen: DurabilityConfig,
}

/// The incremental catalog of one replay. See the module docs.
pub(crate) struct IncrementalCatalog<'a> {
    index: CatalogIndex,
    buffer: DeltaBuffer,
    exemptions: &'a ExemptionList,
    /// `None` when durability is off, or after it degraded on a storage
    /// error it could not recover from: the replay never stops for
    /// durability trouble.
    durable: Option<Durable>,
    /// The trigger at which an injected crash drops the live durable
    /// state (consumed once).
    crash_at_trigger: Option<u32>,
    triggers: u32,
}

impl<'a> IncrementalCatalog<'a> {
    /// Start recording `fs`'s changelog and build the catalog: seeded by
    /// the one unavoidable namespace walk, or opened from the durability
    /// directory (recovered, or cold-started and checkpointed).
    pub(crate) fn open(
        fs: &mut VirtualFs,
        config: &'a SimConfig,
        day: i64,
        cx: &EngineMetrics,
    ) -> Self {
        fs.enable_changelog();
        let durability = config.durability.as_ref();
        let mut catalog = IncrementalCatalog {
            index: CatalogIndex::new(),
            buffer: DeltaBuffer::with_capacity(config.delta_buffer_cap),
            exemptions: &config.exemptions,
            durable: None,
            crash_at_trigger: match durability.and_then(|d| d.injected_crash) {
                Some(InjectedCrash::AtTrigger(n)) => Some(n),
                _ => None,
            },
            triggers: 0,
        };
        let attached = durability.is_some_and(|d| catalog.attach(d, fs, day, "open", cx));
        if !attached {
            catalog.index = CatalogIndex::from_fs(fs, &config.exemptions);
        }
        catalog
    }

    /// Open the durability directory and replace the live pair with the
    /// one it holds. Returns `false`, degraded to in-memory with the live
    /// pair untouched, when the open fails.
    fn attach(
        &mut self,
        config: &DurabilityConfig,
        fs: &VirtualFs,
        day: i64,
        what: &str,
        cx: &EngineMetrics,
    ) -> bool {
        match DurableCatalog::open(config, fs, self.exemptions, self.buffer.capacity()) {
            Ok(opened) => {
                cx.checkpoint_writes
                    .add(opened.durable.checkpoints_written());
                if let Some(stats) = opened.recovered {
                    cx.recoveries.inc();
                    cx.replayed_records.add(stats.replayed_records);
                    cx.tele.flight(day, "durable-recover", || {
                        format!(
                            "checkpoint seq {} + {} WAL record(s) replayed \
                             ({} truncated byte(s), {} fallback(s))",
                            stats.checkpoint_seq,
                            stats.replayed_records,
                            stats.truncated_bytes,
                            stats.fallback_checkpoints
                        )
                    });
                }
                self.index = opened.index;
                self.buffer = opened.buffer;
                self.durable = Some(Durable {
                    handle: opened.durable,
                    reopen: DurabilityConfig {
                        injected_crash: None,
                        ..config.clone()
                    },
                });
                true
            }
            Err(e) => {
                self.degrade(day, what, &e, cx);
                false
            }
        }
    }

    /// Drop the live durable handle, as a crash would, and reopen the
    /// directory: recovery loads the newest valid checkpoint and replays
    /// the WAL tail. Write-ahead ordering makes the recovered pair equal
    /// the live one at every append boundary, so the swap is observably a
    /// no-op, which is what the crash-point sweep test proves.
    fn reopen(&mut self, fs: &VirtualFs, day: i64, cx: &EngineMetrics) {
        if let Some(Durable { handle, reopen }) = self.durable.take() {
            drop(handle); // its tail may be torn
            self.attach(&reopen, fs, day, "recovery reopen", cx);
        }
    }

    /// Continue in memory after a storage error that recovery cannot fix.
    fn degrade(&mut self, day: i64, what: &str, e: &StorageError, cx: &EngineMetrics) {
        self.durable = None;
        cx.tele.flight(day, "durable-degraded", || {
            format!("{what} failed, continuing in-memory: {e}")
        });
    }

    /// Write-ahead log one record: `Some(batch)` for a drained delta
    /// batch, `None` for a buffer→index flush mark. Empty batches are
    /// skipped. A failed append (a torn write, injected or real) is a
    /// crash: recover in place and re-append the interrupted record.
    fn log(&mut self, record: Option<&[Delta]>, fs: &VirtualFs, day: i64, cx: &EngineMetrics) {
        if matches!(record, Some(batch) if batch.is_empty()) {
            return;
        }
        let Some(durable) = self.durable.as_mut() else {
            return;
        };
        let Err(e) = wal_append(&mut durable.handle, record, cx) else {
            return;
        };
        if e.is_injected_crash() {
            cx.wal_torn_writes.inc();
            cx.tele
                .flight(day, "wal-torn", || format!("injected torn write: {e}"));
        } else {
            cx.tele
                .flight(day, "wal-error", || format!("append failed: {e}"));
        }
        self.reopen(fs, day, cx);
        if let Some(durable) = self.durable.as_mut() {
            if let Err(e) = wal_append(&mut durable.handle, record, cx) {
                self.degrade(day, "re-append after recovery", &e, cx);
            }
        }
    }

    /// Drain `fs`'s changelog into the buffer, logging the batch first so
    /// a crash between the two recovers to all of the batch or none of it.
    fn absorb(&mut self, fs: &mut VirtualFs, day: i64, cx: &EngineMetrics) {
        let batch = fs.drain_changelog();
        cx.changelog_deltas
            .add(convert::u64_from_usize(batch.len()));
        self.log(Some(&batch), fs, day, cx);
        self.buffer.absorb(batch);
    }

    /// Fold the buffer into the index, logging the flush mark first.
    fn flush(&mut self, fs: &VirtualFs, day: i64, cx: &EngineMetrics) {
        self.log(None, fs, day, cx);
        self.index.flush(&mut self.buffer, self.exemptions);
    }

    /// Simulate the service dying at this trigger boundary, if the
    /// injected crash is armed for it: drop the live durable state and
    /// recover everything from disk.
    pub(crate) fn crash_if_injected(&mut self, fs: &VirtualFs, day: i64, cx: &EngineMetrics) {
        self.triggers += 1;
        let n = self.triggers;
        if self.crash_at_trigger != Some(n) {
            return;
        }
        self.crash_at_trigger = None;
        if self.durable.is_some() {
            cx.tele.flight(day, "durable-crash", || {
                format!("injected crash at trigger boundary {n}")
            });
            self.reopen(fs, day, cx);
        }
    }

    /// The catalog a trigger's policy consumes. The changelog tail is
    /// absorbed first; then, if folding the backlog beats a namespace
    /// walk, the buffer is flushed and the index snapshot served. Past
    /// the flush/scan crossover this returns `None` and the caller walks
    /// the namespace. The index and buffer then stay intact: pending
    /// deltas keep coalescing, so `index ⊕ buffer` still equals the
    /// truth, and a quieter trigger (or a forced end-of-day flush) drains
    /// the backlog later.
    pub(crate) fn trigger_catalog(
        &mut self,
        fs: &mut VirtualFs,
        day: i64,
        cx: &EngineMetrics,
    ) -> Option<&Catalog> {
        let tele = &cx.tele;
        tele.gauge("catalog.changelog_depth")
            .set_u64(convert::u64_from_usize(fs.changelog_depth()));
        self.absorb(fs, day, cx);
        let raw = self.buffer.raw_pending();
        let net = self.buffer.len();
        tele.gauge("catalog.buffer_depth")
            .set_u64(convert::u64_from_usize(net));
        let indexed = self.index.file_count();
        let flush = flush_beats_scan(net, indexed);
        // Net-pending/indexed crossover ratio in basis points (10 000 bp
        // = backlog as large as the index), so the series can chart how
        // close each trigger sat to the flush/scan decision boundary.
        let ratio_bp = convert::u64_from_usize(net).saturating_mul(10_000)
            / convert::u64_from_usize(indexed).max(1);
        tele.gauge("catalog.net_pending_ratio_bp").set_u64(ratio_bp);
        tele.flight(day, "trigger-decision", || {
            format!(
                "net={net} indexed={indexed} ratio_bp={ratio_bp} raw={raw} decision={}",
                if flush { "flush" } else { "scan" }
            )
        });
        if !flush {
            cx.scan_fallbacks.inc();
            tele.flight(day, "changelog-scan", || {
                format!(
                    "{net} net pending delta(s) vs {indexed} indexed file(s): past the \
                     flush/scan crossover, serving this trigger from a full walk"
                )
            });
            return None;
        }
        tele.flight(day, "changelog-flush", || {
            format!("{raw} raw delta(s) coalesced to {net} net, folded into the catalog index")
        });
        self.flush(fs, day, cx);
        tele.gauge("catalog.dirty_users")
            .set_u64(convert::u64_from_usize(self.index.dirty_user_count()));
        tele.gauge("catalog.index_files")
            .set_u64(convert::u64_from_usize(self.index.file_count()));
        Some(self.index.snapshot())
    }

    /// Count a finished trigger toward the checkpoint cadence: every
    /// N-th one cuts a checkpoint of the live pair, bounding the WAL tail
    /// a recovery has to replay.
    pub(crate) fn checkpoint_if_due(&mut self, day: i64, cx: &EngineMetrics) {
        let Some(durable) = self.durable.as_mut() else {
            return;
        };
        // xtask-allow: determinism -- checkpoint timing for the durability report
        let start = Instant::now();
        match durable.handle.note_trigger(&self.index, &self.buffer) {
            Ok(Some(bytes)) => {
                cx.checkpoint_writes.inc();
                cx.checkpoint_bytes.add(bytes);
                cx.checkpoint_micros
                    .record(convert::u64_from_micros(start.elapsed().as_micros()));
                cx.tele.flight(day, "checkpoint", || {
                    format!("{bytes} byte(s) of index and pending buffer")
                });
            }
            Ok(None) => {}
            Err(e) => self.degrade(day, "checkpoint", &e, cx),
        }
    }

    /// Stage the day's changelog into the coalescing buffer, so the
    /// pending set sits at net-effect size between triggers. A day that
    /// overruns the bound forces an early fold into the index; the end
    /// state is identical, since where the buffer's flush boundaries fall
    /// is semantically free.
    pub(crate) fn stage_day(&mut self, fs: &mut VirtualFs, day: i64, cx: &EngineMetrics) {
        self.absorb(fs, day, cx);
        if self.buffer.over_capacity() {
            cx.forced_flushes.inc();
            let net = self.buffer.len();
            let cap = self.buffer.capacity();
            cx.tele.flight(day, "changelog-flush", || {
                format!("forced: {net} net delta(s) exceeded buffer capacity {cap}")
            });
            self.flush(fs, day, cx);
        }
    }
}

/// One WAL append through `handle`, counted on success.
fn wal_append(
    handle: &mut DurableCatalog,
    record: Option<&[Delta]>,
    cx: &EngineMetrics,
) -> Result<(), StorageError> {
    let bytes = match record {
        Some(batch) => handle.log_batch(batch)?,
        None => handle.log_flush_mark()?,
    };
    cx.wal_appends.inc();
    cx.wal_bytes.add(bytes);
    Ok(())
}
