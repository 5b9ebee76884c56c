//! Full-scan vs changelog-driven catalog triggers (the Robinhood
//! argument, measured): `VirtualFs::catalog` re-walks the whole namespace
//! at every retention trigger, while `CatalogIndex` folds the changelog
//! into the catalog it serves and lends that catalog out at snapshot time
//! without copying it.

#![allow(
    clippy::unwrap_used,
    reason = "bench harness code may panic on a broken fixture"
)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    reason = "fixture sizes are bounded far below the narrow type's range"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{CatalogIndex, ExemptionList, FileMeta, VirtualFs};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn populated(files: usize, users: u32) -> VirtualFs {
    let mut fs = VirtualFs::with_capacity(0);
    for i in 0..files {
        let u = i as u32 % users;
        fs.create(
            &format!(
                "/lustre/u{u}/proj{}/run{:03}/part-{i:05}.dat",
                i % 13,
                i % 50
            ),
            UserId(u),
            4096 + (i as u64 % 7) * 1024,
            Timestamp::from_days(i as i64 % 365),
        )
        .unwrap();
    }
    fs
}

/// Mutate `frac_permille`/1000 of the files (touch, overwrite, create in
/// equal parts) with the changelog recording.
fn churn(fs: &mut VirtualFs, frac_permille: usize) {
    let paths: Vec<String> = fs.iter().map(|(p, _, _)| p).collect();
    let stride = (1000 / frac_permille.max(1)).max(1);
    for (i, path) in paths.iter().enumerate().step_by(stride) {
        match i % 3 {
            0 => {
                fs.access(path, Timestamp::from_days(400));
            }
            1 => {
                let meta: FileMeta = *fs.meta(path).unwrap();
                fs.create(path, meta.owner, meta.size + 1, Timestamp::from_days(400))
                    .unwrap();
            }
            _ => {
                fs.create(
                    &format!("{path}.new"),
                    UserId(1),
                    4096,
                    Timestamp::from_days(400),
                )
                .unwrap();
            }
        }
    }
}

fn bench(c: &mut Criterion) {
    let exemptions = ExemptionList::new();
    for n in [10_000usize, 100_000] {
        let fs = populated(n, 200);
        let mut group = c.benchmark_group(format!("catalog_trigger_{n}"));
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);

        group.bench_function(BenchmarkId::new("full_scan", n), |b| {
            b.iter(|| black_box(fs.catalog(&exemptions).total_files()))
        });

        group.bench_function(BenchmarkId::new("incremental_idle", n), |b| {
            let mut idle = fs.clone();
            idle.enable_changelog();
            let mut index = CatalogIndex::from_fs(&idle, &exemptions);
            b.iter(|| {
                index.apply(idle.drain_changelog(), &exemptions);
                black_box(index.snapshot().total_files())
            })
        });

        // 1 % of the namespace churned between triggers. Deltas carry
        // absolute post-mutation state, so replaying the same batch every
        // iteration is idempotent; the measured unit is apply+snapshot
        // over one trigger interval's changes.
        group.bench_function(BenchmarkId::new("incremental_churn_1pct", n), |b| {
            let mut churned = fs.clone();
            churned.enable_changelog();
            let mut index = CatalogIndex::from_fs(&churned, &exemptions);
            churn(&mut churned, 10);
            let deltas = churned.drain_changelog();
            b.iter(|| {
                index.apply(deltas.iter().cloned(), &exemptions);
                black_box(index.snapshot().total_files())
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
