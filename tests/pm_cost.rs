//! PM cost pinned in Tier-1: the emulator's per-op read counts are
//! deterministic for a fixed key set, so a change that makes an operation
//! read more PM lines shows up here as a failed bound, not as a slower
//! benchmark run.
//!
//! Reads are counted at the paper's 300/300 configuration under
//! `TimeMode::Model`, so no latency is injected and the test runs at
//! DRAM speed.

use hart_suite::kv::MAX_KEY_LEN;
use hart_suite::workloads::random;
use hart_suite::{
    Hart, HartConfig, Key, LatencyConfig, PersistentIndex, PmemPool, PoolConfig, TimeMode, Value,
};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A HART at 300/300 under `TimeMode::Model` holding `random(n, 7)`.
fn loaded_hart(n: usize, cfg: HartConfig) -> (Hart, Vec<Key>) {
    let pool = Arc::new(PmemPool::new(PoolConfig {
        size_bytes: n * 384 + (32 << 20),
        latency: LatencyConfig::c300_300(),
        time_mode: TimeMode::Model,
        ..PoolConfig::default()
    }));
    let h = Hart::create(pool, cfg).unwrap();
    let keys = random(n, 7);
    for (i, key) in keys.iter().enumerate() {
        h.insert(key, &Value::from_u64(i as u64)).unwrap();
    }
    (h, keys)
}

/// Insert `n` seeded random keys, delete them all in insertion order, and
/// return the PM lines read per delete.
fn read_lines_per_delete(n: usize) -> f64 {
    let (h, keys) = loaded_hart(n, HartConfig::default());
    let before = h.pm_stats().read_lines;
    for key in &keys {
        assert!(h.remove(key).unwrap());
    }
    let reads = h.pm_stats().read_lines - before;
    // Every chunk emptied and went through Algorithm 6.
    assert_eq!(h.alloc_stats().chunks, [0, 0, 0]);
    reads as f64 / n as f64
}

/// Algorithm 6 finds an emptied chunk's predecessor through a volatile
/// mirror of the chunk list, so a delete reads a constant number of PM
/// lines however many chunks the tree holds. Walking the list instead
/// (the paper's lines 8–10) reads more lines per delete as the list grows:
/// 9.9 at 5 000 keys and 24.3 at 50 000.
#[test]
fn delete_reads_do_not_grow_with_the_chunk_count() {
    let small = read_lines_per_delete(5_000);
    let large = read_lines_per_delete(50_000);
    assert!(
        small <= 10.0,
        "{small:.2} PM lines per delete at 5 000 keys"
    );
    assert!(
        large <= 10.0,
        "{large:.2} PM lines per delete at 50 000 keys"
    );
    assert!(
        (large - small).abs() < 0.5,
        "PM lines per delete grow with the tree: {small:.2} at 5 000 keys, {large:.2} at 50 000"
    );
}

/// Run 200 seeded scans over `n` keys, each from a stored key to the
/// largest key with a limit drawn from U[1, 50], and return the PM lines
/// read per returned row.
fn read_lines_per_scan_row(n: usize, kh: usize) -> f64 {
    let (h, keys) = loaded_hart(n, HartConfig::with_hash_key_len(kh));
    let end = Key::new(&[0xFF; MAX_KEY_LEN]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA7);
    let before = h.pm_stats().read_lines;
    let mut rows = 0;
    for _ in 0..200 {
        let start = &keys[rng.gen_range(0..keys.len())];
        let limit = rng.gen_range(1..=50);
        let got = h.ordered_scan(start, &end, limit).unwrap();
        assert_eq!(&got[0].0, start);
        rows += got.len();
    }
    let reads = h.pm_stats().read_lines - before;
    reads as f64 / rows as f64
}

/// A scan row costs one whole-leaf read and one value read: the limit
/// stops the shard walk at the last row wanted, and the walk loads keys
/// only on the range's boundary spines. Reading each leaf's key again per
/// row, and whole shards past the limit, cost 7.5–9.6 lines per row at
/// these sizes, growing with the tree at `k_h` = 2.
#[test]
fn scan_reads_are_bounded_per_row() {
    for kh in [2, 3] {
        for n in [5_000, 50_000] {
            let per_row = read_lines_per_scan_row(n, kh);
            assert!(
                per_row <= 4.0,
                "{per_row:.2} PM lines per scan row at {n} keys, k_h = {kh}"
            );
        }
    }
}
