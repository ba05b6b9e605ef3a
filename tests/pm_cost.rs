//! PM cost pinned in Tier-1: the emulator's per-op read counts are
//! deterministic for a fixed key set, so a change that makes an operation
//! read more PM lines shows up here as a failed bound, not as a slower
//! benchmark run.
//!
//! Reads are counted at the paper's 300/300 configuration under
//! `TimeMode::Model`, so no latency is injected and the test runs at
//! DRAM speed.

use hart_suite::workloads::random;
use hart_suite::{
    Hart, HartConfig, LatencyConfig, PersistentIndex, PmemPool, PoolConfig, TimeMode, Value,
};
use std::sync::Arc;

/// Insert `n` seeded random keys, delete them all in insertion order, and
/// return the PM lines read per delete.
fn read_lines_per_delete(n: usize) -> f64 {
    let pool = Arc::new(PmemPool::new(PoolConfig {
        size_bytes: n * 384 + (32 << 20),
        latency: LatencyConfig::c300_300(),
        time_mode: TimeMode::Model,
        ..PoolConfig::default()
    }));
    let h = Hart::create(pool, HartConfig::default()).unwrap();
    let keys = random(n, 7);
    for (i, key) in keys.iter().enumerate() {
        h.insert(key, &Value::from_u64(i as u64)).unwrap();
    }
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
