//! Ablation benchmarks for HART's design choices (DESIGN.md §6):
//!
//! * **Hash-key length `k_h`** — 0 turns HART into one big ART behind a
//!   single lock; the paper fixes `k_h = 2`. Sweeping 0–3 shows the
//!   hash-directory contribution (§III-A.1's `k − k_h + 1` complexity
//!   argument).
//! * **Allocator-overhead sensitivity** — HART amortizes raw PM
//!   allocations 56:1 through EPallocator, so its insert latency should be
//!   nearly flat as the modeled general-allocator cost grows, while WOART
//!   (one raw allocation per leaf/value) degrades linearly (§III-A.4).

use bench::pool_config;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hart::{Hart, HartConfig};
use hart_kv::PersistentIndex;
use hart_pm::{LatencyConfig, PmemPool, PoolConfig};
use hart_woart::Woart;
use hart_workloads::{random, value_for};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 10_000;

fn bench_hash_key_len(c: &mut Criterion) {
    let keys = random(N, 42);
    let lat = LatencyConfig::c300_300();
    let mut group = c.benchmark_group("ablation/hash_key_len");
    for kh in [0usize, 1, 2, 3] {
        group.bench_with_input(BenchmarkId::new("insert", kh), &kh, |b, &kh| {
            b.iter_batched(
                || {
                    let pool = Arc::new(PmemPool::new(pool_config(lat, N)));
                    Hart::create(pool, HartConfig::with_hash_key_len(kh)).unwrap()
                },
                |tree| {
                    for k in &keys {
                        tree.insert(k, &value_for(k)).unwrap();
                    }
                    tree
                },
                BatchSize::PerIteration,
            )
        });
        // Search over a preloaded tree.
        let pool = Arc::new(PmemPool::new(pool_config(lat, N)));
        let tree = Hart::create(pool, HartConfig::with_hash_key_len(kh)).unwrap();
        for k in &keys {
            tree.insert(k, &value_for(k)).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("search", kh), &kh, |b, _| {
            b.iter(|| {
                for k in &keys {
                    std::hint::black_box(tree.search(k).unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_alloc_overhead(c: &mut Criterion) {
    let keys = random(N, 42);
    let mut group = c.benchmark_group("ablation/alloc_overhead");
    for overhead_ns in [0u64, 500, 1500, 3000] {
        let cfg = || PoolConfig {
            alloc_overhead_ns: overhead_ns,
            latency: LatencyConfig::c300_100(),
            ..pool_config(LatencyConfig::c300_100(), N)
        };
        group.bench_with_input(
            BenchmarkId::new("HART-insert", overhead_ns),
            &overhead_ns,
            |b, _| {
                b.iter_batched(
                    || Hart::create(Arc::new(PmemPool::new(cfg())), HartConfig::default()).unwrap(),
                    |tree| {
                        for k in &keys {
                            tree.insert(k, &value_for(k)).unwrap();
                        }
                        tree
                    },
                    BatchSize::PerIteration,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("WOART-insert", overhead_ns),
            &overhead_ns,
            |b, _| {
                b.iter_batched(
                    || Woart::create(Arc::new(PmemPool::new(cfg()))).unwrap(),
                    |tree| {
                        for k in &keys {
                            tree.insert(k, &value_for(k)).unwrap();
                        }
                        tree
                    },
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
}

fn bench_selective_persistence(c: &mut Criterion) {
    // §III-A.2 quantified: the same HART with internal-node persistence
    // costs charged (as if inner nodes were PM-resident) vs the paper's
    // selective design.
    let keys = random(N, 42);
    let lat = LatencyConfig::c300_300();
    let mut group = c.benchmark_group("ablation/selective_persistence");
    for (label, cfg) in [
        ("selective (paper)", HartConfig::default()),
        (
            "persist-all (off)",
            HartConfig::without_selective_persistence(),
        ),
    ] {
        group.bench_function(BenchmarkId::new("insert", label), |b| {
            b.iter_batched(
                || Hart::create(Arc::new(PmemPool::new(pool_config(lat, N))), cfg).unwrap(),
                |tree| {
                    for k in &keys {
                        tree.insert(k, &value_for(k)).unwrap();
                    }
                    tree
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_read_path(c: &mut Criterion) {
    // DESIGN.md §Concurrency quantified: version-validated lock-free
    // lookups vs the original read-locked path, single- and multi-threaded
    // over a preloaded tree. The harness `readpath` command produces the
    // thread-sweep CSV; this group tracks regressions per commit.
    let keys = random(N, 42);
    let lat = LatencyConfig::c300_100();
    let mut group = c.benchmark_group("ablation/read_path");
    for (label, cfg) in [
        ("optimistic (default)", HartConfig::default()),
        ("locked (kill-switch)", HartConfig::with_locked_reads()),
    ] {
        let pool = Arc::new(PmemPool::new(pool_config(lat, N)));
        let tree = Arc::new(Hart::create(pool, cfg).unwrap());
        for k in &keys {
            tree.insert(k, &value_for(k)).unwrap();
        }
        group.bench_function(BenchmarkId::new("search-1t", label), |b| {
            b.iter(|| {
                for k in &keys {
                    std::hint::black_box(tree.search(k).unwrap());
                }
            })
        });
        group.bench_function(BenchmarkId::new("search-4t", label), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for part in keys.chunks(keys.len().div_ceil(4)) {
                        let tree = Arc::clone(&tree);
                        s.spawn(move || {
                            for k in part {
                                std::hint::black_box(tree.search(k).unwrap());
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_rehash(c: &mut Criterion) {
    // DESIGN.md §Resizing quantified: search cost under a directory pinned
    // at a small bucket count (every lookup walks an O(load-factor) chain)
    // vs one that doubled its way to load factor ≤ 1 during the preload.
    // `k_h = 3` makes the shard count track the key count, so the fixed
    // directory is genuinely overloaded at this N. The harness `rehash`
    // command produces the key-count sweep CSV; this group tracks
    // regressions per commit.
    let keys = random(N, 42);
    let lat = LatencyConfig::c300_100();
    let mut group = c.benchmark_group("ablation/rehash");
    let kh3 = |initial, threshold| HartConfig {
        hash_key_len: 3,
        ..HartConfig::with_directory(initial, threshold)
    };
    for (label, cfg) in [
        ("fixed-256", kh3(256, 0)),
        ("resizing (default threshold)", kh3(256, 1)),
    ] {
        let pool = Arc::new(PmemPool::new(pool_config(lat, N)));
        let tree = Hart::create(pool, cfg).unwrap();
        for k in &keys {
            tree.insert(k, &value_for(k)).unwrap();
        }
        group.bench_function(BenchmarkId::new("search", label), |b| {
            b.iter(|| {
                for k in &keys {
                    std::hint::black_box(tree.search(k).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_hash_key_len, bench_alloc_overhead, bench_selective_persistence,
        bench_read_path, bench_rehash
}
criterion_main!(benches);
