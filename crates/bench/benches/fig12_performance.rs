//! Fig. 12: the performance probes — trace loading (12a), activeness
//! evaluation + purge decision (12b), and the catalog walk a full-scan
//! trigger makes (12c/d, the paper's snapshot scan).

#![allow(
    clippy::unwrap_used,
    reason = "bench harness code may panic on a broken fixture"
)]

use activedr_bench::{bench_scenario, decision_fixture};
use activedr_core::prelude::*;
use activedr_fs::{ExemptionList, Snapshot};
use activedr_trace::activity_events;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let scenario = bench_scenario();
    let fixture = decision_fixture(&scenario);

    // 12a: trace (de)serialization — the paper's trace-loading probe.
    {
        let mut group = c.benchmark_group("fig12a_trace_loading");
        group.sample_size(10);
        let mut buf = Vec::new();
        activedr_trace::write_traces(&scenario.traces, &mut buf).unwrap();
        group.throughput(Throughput::Bytes(buf.len() as u64));
        group.bench_function("parse_trace_bundle", |b| {
            b.iter(|| black_box(activedr_trace::read_traces(&buf[..]).unwrap().jobs.len()))
        });

        let snap = Snapshot::capture(&fixture.fs, fixture.tc);
        let mut sbuf = Vec::new();
        snap.write_jsonl(&mut sbuf).unwrap();
        group.throughput(Throughput::Bytes(sbuf.len() as u64));
        group.bench_function("parse_metadata_snapshot", |b| {
            b.iter(|| black_box(Snapshot::read_jsonl(&sbuf[..]).unwrap().len()))
        });
        group.bench_function("restore_snapshot_into_vfs", |b| {
            b.iter(|| black_box(snap.restore().0.file_count()))
        });
        group.finish();
    }

    // 12b: activeness evaluation and purge decision making.
    {
        let mut group = c.benchmark_group("fig12b_eval_and_decide");
        group.throughput(Throughput::Elements(fixture.events.len() as u64));
        let evaluator =
            ActivenessEvaluator::new(fixture.registry.clone(), ActivenessConfig::year_window(7));
        group.bench_function("extract_activity_events", |b| {
            b.iter(|| {
                black_box(activity_events(&scenario.traces, &fixture.registry, fixture.tc).len())
            })
        });
        group.bench_function("activeness_evaluation", |b| {
            b.iter(|| {
                black_box(evaluator.evaluate(fixture.tc, &fixture.users, &fixture.events)).len()
            })
        });
        group.throughput(Throughput::Elements(fixture.catalog.total_files() as u64));
        group.bench_function("purge_decision", |b| {
            let policy = ActiveDrPolicy::new(RetentionConfig::new(90));
            let target = fixture.catalog.total_bytes() / 2;
            b.iter(|| {
                black_box(policy.run(PurgeRequest {
                    tc: fixture.tc,
                    catalog: &fixture.catalog,
                    activeness: &fixture.table,
                    target_bytes: Some(target),
                }))
                .purged_files()
            })
        });
        group.finish();
    }

    // 12c/d: the catalog walk of a full-scan trigger.
    {
        let mut group = c.benchmark_group("fig12cd_snapshot_scan");
        group.throughput(Throughput::Elements(fixture.fs.file_count() as u64));
        let exemptions = ExemptionList::new();
        group.bench_function("catalog_walk", |b| {
            b.iter(|| black_box(fixture.fs.catalog(&exemptions)).total_files())
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
