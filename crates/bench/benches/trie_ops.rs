//! Compact path prefix tree microbenchmarks, plus the trie-vs-HashMap
//! index ablation (DESIGN.md §7): the trie buys the path-ordered walk
//! the catalog scan needs, the hash map buys flat lookups.

#![allow(
    clippy::unwrap_used,
    reason = "bench harness code may panic on a broken fixture"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{FileMeta, PathTrie};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::HashMap;
use std::hint::black_box;

fn paths(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "/lustre/atlas/u{}/proj{}/run{:03}/out/part-{:05}.dat",
                i % 97,
                i % 13,
                i % 50,
                i
            )
        })
        .collect()
}

fn meta() -> FileMeta {
    FileMeta::new(UserId(1), 4096, Timestamp::EPOCH)
}

fn bench(c: &mut Criterion) {
    for n in [10_000usize, 100_000] {
        let ps = paths(n);
        let mut group = c.benchmark_group(format!("trie_ops_{n}"));
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(10);

        group.bench_function(BenchmarkId::new("trie_insert", n), |b| {
            b.iter(|| {
                let mut t = PathTrie::new();
                for p in &ps {
                    t.insert(p, meta()).unwrap();
                }
                black_box(t.len())
            })
        });

        group.bench_function(BenchmarkId::new("hashmap_insert", n), |b| {
            b.iter(|| {
                let mut m: HashMap<&str, FileMeta> = HashMap::new();
                for p in &ps {
                    m.insert(p, meta());
                }
                black_box(m.len())
            })
        });

        let mut trie = PathTrie::new();
        let mut map: HashMap<&str, FileMeta> = HashMap::new();
        for p in &ps {
            trie.insert(p, meta()).unwrap();
            map.insert(p, meta());
        }

        group.bench_function(BenchmarkId::new("trie_lookup", n), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for p in &ps {
                    if trie.lookup(p).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });

        group.bench_function(BenchmarkId::new("hashmap_lookup", n), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for p in &ps {
                    if map.contains_key(p.as_str()) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });

        group.bench_function(BenchmarkId::new("trie_iterate_all", n), |b| {
            b.iter(|| black_box(trie.iter().count()))
        });

        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
