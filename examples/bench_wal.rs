//! Smoke benchmark: durable-catalog overhead and recovery cost.
//!
//! ```text
//! cargo run --release --example bench_wal
//! ```
//!
//! Measures the three costs the WAL + checkpoint + recovery layer adds
//! to an incremental-catalog replay, plus the property the layer exists
//! for:
//!
//! * **WAL append overhead** — a full durable replay (write-ahead logged
//!   batches, flush marks, periodic checkpoints) against the identical
//!   in-memory replay; the ratio is the whole-run durability tax;
//! * **checkpoint write time** — one compact cut of the end-of-run
//!   `(index, buffer)` pair;
//! * **recovery time vs WAL-tail length** — `recover()` against
//!   directories whose checkpoint trails the log by a growing number of
//!   records, charting the checkpoint-cadence trade-off;
//! * **recovery identity** — replays killed at trigger boundaries and at
//!   a mid-write byte offset must recover to results identical to the
//!   uninterrupted run; the fraction that do is a gated ratio (1.0 or
//!   the crash-safety contract is broken).
//!
//! Writes `docs/results/BENCH_wal.json` (BENCH schema v2, consumed by
//! `cargo xtask perf`) and exits nonzero if any crash point fails to
//! recover identically or the durability tax exceeds its ceiling.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench harness code may panic on a broken fixture"
)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    reason = "benchmark durations fit comfortably in the narrower types"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::storage::{recover, write_checkpoint, Wal, WalPayload};
use activedr_fs::{
    CatalogIndex, DeltaBuffer, DurabilityConfig, ExemptionList, FsyncPolicy, InjectedCrash,
    VirtualFs,
};
use activedr_obs::{BenchEmitter, Direction, MetricKind};
use activedr_sim::{run_until, CatalogMode, Scale, Scenario, SimConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("activedr-bench-wal-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Minimum wall time of `iters` runs of `f`.
fn min_time<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        #[expect(clippy::disallowed_methods, reason = "wall-clock benchmark probe")]
        let start = std::time::Instant::now();
        black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// Build a WAL directory whose checkpoint covers nothing and whose log
/// holds `records` churn batches, returning the batch sizes.
fn build_wal_tail(dir: &Path, records: u64) -> u64 {
    let fs = VirtualFs::with_capacity(1 << 40);
    let ex = ExemptionList::new();
    let index = CatalogIndex::from_fs(&fs, &ex);
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(dir, 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(dir, FsyncPolicy::Never, 1).expect("open wal");
    let mut churn_fs = VirtualFs::with_capacity(1 << 40);
    churn_fs.enable_changelog();
    let mut deltas_logged = 0u64;
    for day in 0..i64::try_from(records).unwrap() {
        let user = UserId(1 + (day % 5) as u32);
        for f in 0..8 {
            churn_fs
                .create(
                    &format!("/u{}/d{day}/f{f}", user.0),
                    user,
                    4096 + day as u64,
                    Timestamp::from_days(day),
                )
                .expect("create");
        }
        if day % 3 == 2 {
            churn_fs.remove(&format!("/u{}/d{}/f0", 1 + ((day - 1) % 5), day - 1));
        }
        let batch = churn_fs.drain_changelog();
        deltas_logged += batch.len() as u64;
        wal.append_record(&WalPayload::Batch(batch))
            .expect("append");
    }
    deltas_logged
}

fn main() {
    let iters = 5u32;
    let scenario = Scenario::build(Scale::Tiny, 42);
    let start = i64::from(scenario.traces.replay_start_day);
    let until = Some(start + 12 * 7 + 1); // 12 trigger boundaries
    let base = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);

    // 1. The durability tax: identical replay, with and without the WAL.
    let plain = min_time(iters, || {
        run_until(&scenario.traces, scenario.initial_fs.clone(), &base, until).0
    });
    let durable_scratch = ScratchDir::new("replay");
    let durable = min_time(iters, || {
        std::fs::remove_dir_all(durable_scratch.path()).ok();
        let cfg = base.clone().with_durability(
            DurabilityConfig::new(durable_scratch.path()).with_checkpoint_every(4),
        );
        run_until(&scenario.traces, scenario.initial_fs.clone(), &cfg, until).0
    });
    let overhead = durable.as_nanos() as f64 / plain.as_nanos().max(1) as f64;

    // 2. Crash-point identity: kill at trigger boundaries and mid-write.
    let golden_dir = ScratchDir::new("golden");
    let golden_cfg = base
        .clone()
        .with_durability(DurabilityConfig::new(golden_dir.path()).with_checkpoint_every(4));
    let golden = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &golden_cfg,
        until,
    )
    .0
    .digest();
    let wal_len = std::fs::metadata(golden_dir.path().join("wal.log"))
        .expect("golden wal")
        .len();
    let crash_points: Vec<InjectedCrash> = vec![
        InjectedCrash::AtTrigger(1),
        InjectedCrash::AtTrigger(5),
        InjectedCrash::AtTrigger(11),
        InjectedCrash::AtWalByte(wal_len / 3),
        InjectedCrash::AtWalByte(2 * wal_len / 3),
    ];
    let mut identical = 0u32;
    for (i, crash) in crash_points.iter().enumerate() {
        let scratch = ScratchDir::new(&format!("crash-{i}"));
        let cfg = base.clone().with_durability(
            DurabilityConfig::new(scratch.path())
                .with_checkpoint_every(4)
                .with_injected_crash(*crash),
        );
        let res = run_until(&scenario.traces, scenario.initial_fs.clone(), &cfg, until).0;
        if res.digest() == golden {
            identical += 1;
        } else {
            eprintln!("crash point {crash:?} did NOT recover identically");
        }
    }
    let recovery_identity = f64::from(identical) / crash_points.len() as f64;

    // 3. Checkpoint write time of the end-of-run state.
    let (_, end_fs) = run_until(&scenario.traces, scenario.initial_fs.clone(), &base, until);
    let ex = ExemptionList::new();
    let end_index = CatalogIndex::from_fs(&end_fs, &ex);
    let end_buffer = DeltaBuffer::with_capacity(1 << 16);
    let ckpt_scratch = ScratchDir::new("ckpt");
    let checkpoint = min_time(iters, || {
        write_checkpoint(
            ckpt_scratch.path(),
            0,
            &end_index,
            &end_buffer,
            FsyncPolicy::Never,
        )
        .expect("checkpoint")
    });

    // 4. Recovery time as the WAL tail grows past the last checkpoint.
    let tail_lengths = [0u64, 16, 64, 256];
    let mut recovery_micros = Vec::new();
    for &records in &tail_lengths {
        let scratch = ScratchDir::new(&format!("tail-{records}"));
        build_wal_tail(scratch.path(), records);
        let t = min_time(iters, || {
            recover(scratch.path(), 1 << 16, &ex)
                .expect("recover")
                .expect("checkpoint present")
                .stats
                .replayed_records
        });
        recovery_micros.push(t.as_micros() as f64);
    }

    // BENCH schema v2: ratio metrics gate on every machine, time metrics
    // only against a matching env fingerprint, info metrics never.
    let mut emitter = BenchEmitter::new("wal", u64::from(iters));
    emitter.metric(
        "recovery_identity",
        MetricKind::Ratio,
        Direction::HigherBetter,
        recovery_identity,
        "fraction",
    );
    // Info, not Ratio: whole-run wall time at Tiny scale is dominated by
    // replay work measured in milliseconds, so the tax ratio jitters with
    // scheduler noise. The hard assert below enforces the ceiling.
    emitter.metric(
        "wal_overhead_x",
        MetricKind::Info,
        Direction::Neutral,
        overhead,
        "x",
    );
    emitter.metric(
        "plain_replay_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        plain.as_micros() as f64,
        "us",
    );
    emitter.metric(
        "durable_replay_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        durable.as_micros() as f64,
        "us",
    );
    emitter.metric(
        "checkpoint_write_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        checkpoint.as_micros() as f64,
        "us",
    );
    emitter.metric(
        "recovery_tail256_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        *recovery_micros.last().unwrap(),
        "us",
    );
    emitter.metric(
        "wal_bytes",
        MetricKind::Info,
        Direction::Neutral,
        wal_len as f64,
        "bytes",
    );
    emitter.series(
        "recovery_micros_vs_tail_records",
        "us",
        &tail_lengths.iter().map(|&r| r as f64).collect::<Vec<f64>>(),
        &recovery_micros,
    );
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/results/BENCH_wal.json"
    );
    std::fs::write(out, emitter.to_json()).unwrap();

    println!("durable catalog benchmark — Tiny scale, 12 trigger boundaries");
    println!(
        "  in-memory replay   : {:>10.1} µs",
        plain.as_nanos() as f64 / 1e3
    );
    println!(
        "  durable replay     : {:>10.1} µs  ({overhead:.2}x tax)",
        durable.as_nanos() as f64 / 1e3
    );
    println!(
        "  checkpoint write   : {:>10.1} µs ({} files)",
        checkpoint.as_nanos() as f64 / 1e3,
        end_index.file_count()
    );
    for (r, us) in tail_lengths.iter().zip(&recovery_micros) {
        println!("  recovery, {r:>4}-record tail: {us:>10.1} µs");
    }
    println!(
        "  crash recovery identity: {identical}/{} points",
        crash_points.len()
    );
    println!("  wrote {out}");

    assert!(
        (recovery_identity - 1.0).abs() < f64::EPSILON,
        "crash-safety contract broken: only {identical}/{} crash points \
         recovered to an identical result",
        crash_points.len()
    );
    // The ROADMAP's 2x target, held as a ceiling: the WAL appends plus
    // every-4th-trigger full-index checkpoints measured 1.20-1.50x over
    // eleven runs on a 2-vCPU x86_64 host. Both sides are wall times of a
    // ~5-7 ms Tiny replay on a shared machine, which is why the ceiling
    // keeps headroom above that range.
    assert!(
        overhead < 2.0,
        "durability tax {overhead:.2}x exceeds the 2x ceiling"
    );
}
