//! The live state of [`CatalogMode::Incremental`](crate::CatalogMode):
//! a Robinhood-style changelog catalog and, when durability is on, the
//! write-ahead log and checkpoints under it.
//!
//! The file system records a changelog; each day's batch is staged
//! through a bounded coalescing [`DeltaBuffer`] and folded into the
//! [`CatalogIndex`] at triggers (or early: when the buffer overruns its
//! bound, or when a trigger that walked the namespace left a stale
//! backlog). [`IncrementalCatalog`] owns the `(index, buffer)` pair, and
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
    /// Raw deltas absorbed since the previous trigger's flush-or-walk
    /// decision: the interval's own churn, without the carried backlog.
    interval_raw: u64,
    /// Set by a trigger that walked because of a stale backlog; the same
    /// day's [`IncrementalCatalog::stage_day`] folds the buffer.
    fold_armed: bool,
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
            interval_raw: 0,
            fold_armed: false,
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
        let raw = convert::u64_from_usize(batch.len());
        cx.changelog_deltas.add(raw);
        self.interval_raw += raw;
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
    /// the namespace; the index and buffer stay intact (`index ⊕ buffer`
    /// still equals the truth).
    ///
    /// A walk does not shrink the backlog, so once a backlog has crossed
    /// the line every later trigger would walk too. A fallback therefore
    /// also asks whether the raw deltas of this interval alone would have
    /// flushed. If so, only the carried backlog is past the line: a fold
    /// is armed, and the same day's [`IncrementalCatalog::stage_day`]
    /// folds the buffer, so the next trigger flushes. If the interval's
    /// own churn crosses the line, no fold is armed: the next interval
    /// would likely cross it again, and walking is the cheaper path.
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
        let interval_raw = std::mem::take(&mut self.interval_raw);
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
            self.fold_armed = flush_beats_scan(convert::usize_from_u64(interval_raw), indexed);
            let verdict = if self.fold_armed {
                "stale backlog, fold armed"
            } else {
                "no fold"
            };
            tele.flight(day, "changelog-scan", || {
                format!(
                    "{net} net pending delta(s) vs {indexed} indexed file(s): past the \
                     flush/scan crossover, serving this trigger from a full walk; \
                     {interval_raw} raw delta(s) this interval vs {indexed}: {verdict}"
                )
            });
            return None;
        }
        tele.flight(day, "changelog-flush", || {
            format!("{raw} raw delta(s) coalesced to {net} net, folded into the catalog index")
        });
        self.flush(fs, day, cx);
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
        #[expect(
            clippy::disallowed_methods,
            reason = "checkpoint timing for the durability report"
        )]
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
    /// pending set sits at net-effect size between triggers. The buffer
    /// is folded into the index early on a day that overruns the bound
    /// (a forced flush), or on the day of a trigger that walked past a
    /// stale backlog (a backlog fold, see
    /// [`IncrementalCatalog::trigger_catalog`]). The end state is
    /// identical either way, since where the buffer's flush boundaries
    /// fall is semantically free.
    pub(crate) fn stage_day(&mut self, fs: &mut VirtualFs, day: i64, cx: &EngineMetrics) {
        self.absorb(fs, day, cx);
        let fold = std::mem::take(&mut self.fold_armed);
        let net = self.buffer.len();
        if self.buffer.over_capacity() {
            cx.forced_flushes.inc();
            let cap = self.buffer.capacity();
            cx.tele.flight(day, "changelog-flush", || {
                format!("forced: {net} net delta(s) exceeded buffer capacity {cap}")
            });
            self.flush(fs, day, cx);
        } else if fold {
            cx.backlog_folds.inc();
            cx.tele.flight(day, "changelog-flush", || {
                format!("fold: {net} net delta(s) left by today's scan-fallback trigger")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CatalogMode;
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;
    use activedr_obs::Telemetry;

    /// One user's files `/u1/f0` .. `/u1/f{n-1}`, created on day 0.
    fn files(n: u32) -> VirtualFs {
        let mut fs = VirtualFs::with_capacity(0);
        for i in 0..n {
            let created = fs.create(&format!("/u1/f{i}"), UserId(1), 10, Timestamp::from_days(0));
            assert!(created.is_ok(), "create /u1/f{i}");
        }
        fs
    }

    fn remove(fs: &mut VirtualFs, ids: std::ops::Range<u32>) {
        for i in ids {
            assert!(fs.remove(&format!("/u1/f{i}")).is_some(), "remove /u1/f{i}");
        }
    }

    fn touch(fs: &mut VirtualFs, ids: std::ops::Range<u32>, day: i64) {
        for i in ids {
            fs.access(&format!("/u1/f{i}"), Timestamp::from_days(day));
        }
    }

    /// Serve one trigger the way the engine does, checking a served
    /// catalog against the walk. Returns whether the trigger flushed.
    fn trigger(
        catalog: &mut IncrementalCatalog<'_>,
        fs: &mut VirtualFs,
        day: i64,
        cx: &EngineMetrics,
    ) -> bool {
        let walk = fs.catalog(catalog.exemptions);
        let served = catalog.trigger_catalog(fs, day, cx).cloned();
        if let Some(served) = &served {
            assert_eq!(
                served, &walk,
                "day {day}: index catalog differs from the walk"
            );
        }
        served.is_some()
    }

    fn counter(tele: &Telemetry, name: &str) -> u64 {
        tele.report().counter(name).unwrap_or(0)
    }

    fn config() -> SimConfig {
        SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental)
    }

    #[test]
    fn a_stale_backlog_is_folded_the_day_it_makes_a_trigger_walk() {
        let config = config();
        let tele = Telemetry::on();
        let cx = EngineMetrics::new(&tele);
        let mut fs = files(100);
        let mut catalog = IncrementalCatalog::open(&mut fs, &config, 0, &cx);

        // A purge-sized burst: 30 removes against 100 indexed files is
        // past the 25 % crossover within one interval.
        remove(&mut fs, 0..30);
        catalog.stage_day(&mut fs, 0, &cx);
        assert!(!trigger(&mut catalog, &mut fs, 7, &cx));
        catalog.stage_day(&mut fs, 7, &cx);
        assert_eq!(
            catalog.buffer.len(),
            30,
            "interval churn alone crossed: no fold"
        );

        // A quiet week: 5 raw deltas would flush on their own, so only
        // the carried backlog makes this trigger walk. It arms a fold.
        touch(&mut fs, 30..35, 8);
        catalog.stage_day(&mut fs, 8, &cx);
        assert!(!trigger(&mut catalog, &mut fs, 14, &cx));
        assert!(catalog.fold_armed);
        catalog.stage_day(&mut fs, 14, &cx);
        assert!(!catalog.fold_armed);
        assert!(catalog.buffer.is_empty(), "the fold drained the backlog");
        assert_eq!(catalog.index.file_count(), 70);

        // The next quiet week flushes again.
        touch(&mut fs, 35..40, 15);
        catalog.stage_day(&mut fs, 15, &cx);
        assert!(trigger(&mut catalog, &mut fs, 21, &cx));

        assert_eq!(counter(&tele, "catalog.scan_fallbacks"), 2);
        assert_eq!(counter(&tele, "catalog.backlog_folds"), 1);
        assert_eq!(counter(&tele, "catalog.forced_flushes"), 0);
        let report = tele.report();
        let detail = |prefix: &str| {
            report
                .flight
                .iter()
                .filter(|e| e.detail.contains(prefix))
                .map(|e| (e.day, e.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(detail("fold armed"), vec![(14, "changelog-scan")]);
        assert_eq!(detail("no fold"), vec![(7, "changelog-scan")]);
        assert_eq!(
            detail("fold: 35 net delta(s) left by today's scan-fallback trigger"),
            vec![(14, "changelog-flush")]
        );
    }

    #[test]
    fn churn_that_crosses_the_line_in_one_interval_walks_without_a_fold() {
        let config = config();
        let tele = Telemetry::on();
        let cx = EngineMetrics::new(&tele);
        let mut fs = files(100);
        let mut catalog = IncrementalCatalog::open(&mut fs, &config, 0, &cx);

        // Two heavy weeks: each interval's own churn is past the line.
        for (day, ids) in [(7, 0..30), (14, 30..60)] {
            touch(&mut fs, ids, day - 6);
            catalog.stage_day(&mut fs, day - 6, &cx);
            assert!(!trigger(&mut catalog, &mut fs, day, &cx));
            assert!(!catalog.fold_armed, "day {day}: no fold after heavy churn");
            catalog.stage_day(&mut fs, day, &cx);
        }
        assert_eq!(catalog.buffer.len(), 60, "the backlog stays pending");
        assert_eq!(counter(&tele, "catalog.scan_fallbacks"), 2);
        assert_eq!(counter(&tele, "catalog.backlog_folds"), 0);
    }
}
