//! Systematic failure injection: crash HART (and FPTree) at *every*
//! internal persist point of its operations and verify the recovery
//! invariants the paper argues in §III-B.
//!
//! Mechanism: the PM pool's *persist fuse* lets the first `F` persists
//! succeed and silently drops durability afterwards; `simulate_crash`
//! then reverts to exactly the state a power failure at that persist
//! boundary would leave. Sweeping `F` across an operation window crashes
//! inside every window of Algorithms 1, 3, 5 and 6.
//!
//! Invariants checked after each recovery:
//! * **atomicity** — each key holds a value the operation history allows
//!   (old or new, present or absent for the in-flight op);
//! * **prefix durability** — a single-threaded history is durable in
//!   order: if op *i* survived, all earlier ops did too;
//! * **no leaks** — live value objects == live leaves (every committed
//!   value is owned by exactly one committed leaf);
//! * structural consistency (`check_consistency`).

use hart_suite::{
    Hart, HartConfig, Key, LatencyConfig, PersistentIndex, PmemPool, PoolConfig, Value,
};
use std::sync::Arc;

fn crash_pool(bytes: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolConfig {
        size_bytes: bytes,
        latency: LatencyConfig::dram(),
        crash_sim: true,
        alloc_overhead_ns: 0,
        ..PoolConfig::default()
    }))
}

fn k(i: u64) -> Key {
    Key::from_u64_base62(i, 6)
}

/// Shared post-recovery invariant: value objects never leak.
fn assert_no_leaks(h: &Hart) {
    let s = h.alloc_stats();
    assert_eq!(
        s.live[1] + s.live[2],
        s.live[0],
        "value objects must match leaves exactly (no leaks, no loss): {s:?}"
    );
    h.check_consistency().expect("structural consistency");
}

/// Shared post-recovery invariant (DESIGN.md §Scans): the ordered scan and
/// point search agree exactly on the recovered state. The full-range scan
/// must be strictly key-ordered, return one row per live record, and every
/// row must read back identically through `search` — whatever crash point
/// produced this state.
fn assert_scan_agrees_with_search(t: &dyn PersistentIndex) {
    let lo = Key::new(&[0x01]).unwrap();
    let hi = Key::new(&[0xFF; hart_suite::kv::MAX_KEY_LEN]).unwrap();
    let rows = t.scan(&lo, &hi, usize::MAX).unwrap();
    assert!(
        rows.windows(2).all(|w| w[0].0 < w[1].0),
        "recovered scan has a duplicated or out-of-order key"
    );
    assert_eq!(
        rows.len(),
        t.len(),
        "recovered scan must see exactly the live records"
    );
    for (key, val) in &rows {
        assert_eq!(
            t.search(key).unwrap().as_ref(),
            Some(val),
            "scan row for {key} disagrees with point search after recovery"
        );
    }
}

#[test]
fn insert_crashes_at_every_persist_point() {
    const BASE: u64 = 50; // records inserted before arming the fuse
    const WINDOW: u64 = 12; // records inserted across the crash window
                            // An insert issues a handful of persists; sweeping 0..40 fuse steps
                            // crosses several complete inserts and every internal boundary.
    for fuse in 0..40u64 {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..BASE {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in BASE..BASE + WINDOW {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        // Prefix durability: surviving keys must be exactly BASE..BASE+m
        // for some m (single-threaded inserts complete in order).
        let mut survived = 0;
        let mut ended = false;
        for i in BASE..BASE + WINDOW {
            let got = r.search(&k(i)).unwrap();
            match got {
                Some(v) => {
                    assert!(!ended, "fuse={fuse}: key {i} survived after a lost key");
                    assert_eq!(v.as_u64(), i);
                    survived += 1;
                }
                None => ended = true,
            }
        }
        assert_eq!(r.len() as u64, BASE + survived, "fuse={fuse}");
        for i in 0..BASE {
            assert_eq!(
                r.search(&k(i)).unwrap().unwrap().as_u64(),
                i,
                "fuse={fuse}: base key"
            );
        }
        assert_no_leaks(&r);
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn update_crashes_at_every_persist_point() {
    const N: u64 = 30;
    for fuse in 0..40u64 {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..N {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in 0..N {
            // Alternate value classes so class transitions crash too.
            let new = if i % 2 == 0 {
                Value::from_u64(1000 + i)
            } else {
                Value::new(&[i as u8; 16]).unwrap()
            };
            assert!(h.update(&k(i), &new).unwrap());
        }
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        assert_eq!(
            r.len() as u64,
            N,
            "fuse={fuse}: updates never change cardinality"
        );
        for i in 0..N {
            let got = r.search(&k(i)).unwrap().expect("key present");
            let old_ok = got.as_u64() == i && got.len() == 8;
            let new_ok = if i % 2 == 0 {
                got.as_u64() == 1000 + i
            } else {
                got.as_slice() == [i as u8; 16]
            };
            assert!(
                old_ok || new_ok,
                "fuse={fuse}: key {i} holds neither old nor new value: {got:?}"
            );
        }
        assert_no_leaks(&r);
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn delete_crashes_at_every_persist_point() {
    const N: u64 = 30;
    for fuse in 0..40u64 {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..N {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in 0..N {
            assert!(h.remove(&k(i)).unwrap());
        }
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        // Deletions are durable in order: survivors form a suffix, with at
        // most one in-flight deletion boundary.
        let mut gone = 0;
        let mut seen_survivor = false;
        for i in 0..N {
            match r.search(&k(i)).unwrap() {
                None => {
                    assert!(
                        !seen_survivor,
                        "fuse={fuse}: key {i} deleted after an undeleted key"
                    );
                    gone += 1;
                }
                Some(v) => {
                    assert_eq!(v.as_u64(), i);
                    seen_survivor = true;
                }
            }
        }
        assert_eq!(r.len() as u64, N - gone, "fuse={fuse}");
        assert_no_leaks(&r);
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn delete_crashes_inside_a_mid_list_recycle() {
    // 3 × 56 keys fill three chunks per class. New chunks link at the head,
    // so the first-filled chunk is the tail of each list, and emptying it
    // (or the middle one) takes Algorithm 6's splice path (lines 8–10)
    // rather than the head unlink.
    const PER_CHUNK: u64 = hart_suite::epalloc::OBJS_PER_CHUNK;
    const N: u64 = 3 * PER_CHUNK;
    let setup = |victims: &std::ops::Range<u64>| {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..N {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        for i in victims.start..victims.end - 1 {
            assert!(h.remove(&k(i)).unwrap());
        }
        (pool, h)
    };
    for chunk in [0, 1] {
        let victims = chunk * PER_CHUNK..(chunk + 1) * PER_CHUNK;
        let last = victims.end - 1;
        // Reference run: the delete of `last` empties one non-head chunk
        // per class; count its persists to size the crash window.
        let (_pool, h) = setup(&victims);
        assert_eq!(h.alloc_stats().chunks, [3, 3, 0]);
        let before = h.pm_stats().persist_calls;
        assert!(h.remove(&k(last)).unwrap());
        let window = h.pm_stats().persist_calls - before;
        assert_eq!(h.alloc_stats().chunks, [2, 2, 0], "chunk {chunk} recycled");

        for fuse in 0..=window {
            let (pool, h) = setup(&victims);
            pool.arm_persist_fuse(fuse);
            assert!(h.remove(&k(last)).unwrap());
            drop(h);
            pool.simulate_crash();

            let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
            let at = format!("chunk={chunk} fuse={fuse}");
            assert_no_leaks(&r);
            assert_scan_agrees_with_search(&r);
            let rep = r.epallocator().verify();
            assert!(rep.is_healthy(), "{at}: {rep}");
            for i in 0..N {
                let got = r.search(&k(i)).unwrap();
                if i == last {
                    assert!(got.is_none_or(|v| v.as_u64() == i), "{at}");
                } else if victims.contains(&i) {
                    assert_eq!(got, None, "{at}: key {i} was deleted before the crash");
                } else {
                    assert_eq!(got.map(|v| v.as_u64()), Some(i), "{at}: key {i}");
                }
            }
            // Recovery finishes a recycle the crash cut short, and the
            // chunk-list mirror rebuilt at open lets the remaining deletes
            // recycle every other chunk.
            for i in (0..N).filter(|i| !victims.contains(i) || *i == last) {
                r.remove(&k(i)).unwrap();
            }
            assert_eq!(r.len(), 0, "{at}");
            assert_eq!(r.alloc_stats().chunks, [0, 0, 0], "{at}");
            let rep = r.epallocator().verify();
            assert!(rep.is_healthy(), "{at}: {rep}");
        }
    }
}

#[test]
fn mixed_ops_crash_then_recover_consistently() {
    // A denser mixed history with the fuse landing wherever it lands; the
    // check is pure invariants (no per-op oracle).
    for fuse in (0..120u64).step_by(7) {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..40 {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in 0..40u64 {
            match i % 4 {
                0 => {
                    h.insert(&k(100 + i), &Value::from_u64(i)).unwrap();
                }
                1 => {
                    h.update(&k(i), &Value::from_u64(7000 + i)).unwrap();
                }
                2 => {
                    h.remove(&k(i)).unwrap();
                }
                _ => {
                    let _ = h.search(&k(i)).unwrap();
                }
            }
        }
        drop(h);
        pool.simulate_crash();
        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        assert_no_leaks(&r);
        // Whatever survived must be readable and re-writable.
        for i in 0..40 {
            let _ = r.search(&k(i)).unwrap();
        }
        r.insert(&k(999), &Value::from_u64(999)).unwrap();
        assert_eq!(r.search(&k(999)).unwrap().unwrap().as_u64(), 999);
        assert_no_leaks(&r);
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn fptree_insert_crashes_at_every_persist_point() {
    use hart_suite::FpTree;
    const BASE: u64 = 40;
    const WINDOW: u64 = 40; // crosses a leaf split (LEAF_CAP = 32)
    for fuse in 0..50u64 {
        let pool = crash_pool(16 << 20);
        let t = FpTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..BASE {
            t.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in BASE..BASE + WINDOW {
            t.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        drop(t);
        pool.simulate_crash();

        let r = FpTree::recover(Arc::clone(&pool)).unwrap();
        let mut survived = 0;
        let mut ended = false;
        for i in BASE..BASE + WINDOW {
            match r.search(&k(i)).unwrap() {
                Some(v) => {
                    assert!(!ended, "fuse={fuse}: gap in durable prefix at {i}");
                    assert_eq!(v.as_u64(), i);
                    survived += 1;
                }
                None => ended = true,
            }
        }
        assert_eq!(r.len() as u64, BASE + survived, "fuse={fuse}");
        for i in 0..BASE {
            assert_eq!(r.search(&k(i)).unwrap().unwrap().as_u64(), i, "fuse={fuse}");
        }
        // Post-recovery the tree keeps working.
        r.insert(&k(9999), &Value::from_u64(1)).unwrap();
        assert!(r.search(&k(9999)).unwrap().is_some());
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn fptree_update_crashes_keep_old_or_new() {
    use hart_suite::FpTree;
    const N: u64 = 30;
    for fuse in 0..30u64 {
        let pool = crash_pool(16 << 20);
        let t = FpTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..N {
            t.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in 0..N {
            assert!(t.update(&k(i), &Value::from_u64(5000 + i)).unwrap());
        }
        drop(t);
        pool.simulate_crash();
        let r = FpTree::recover(Arc::clone(&pool)).unwrap();
        assert_eq!(r.len() as u64, N, "fuse={fuse}");
        for i in 0..N {
            let got = r.search(&k(i)).unwrap().expect("present").as_u64();
            assert!(
                got == i || got == 5000 + i,
                "fuse={fuse}: key {i} holds neither old nor new: {got}"
            );
        }
        // The recovered tree keeps working.
        r.insert(&k(777_777), &Value::from_u64(1)).unwrap();
        assert!(r.search(&k(777_777)).unwrap().is_some());
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn fptree_delete_crashes_are_atomic() {
    use hart_suite::FpTree;
    const N: u64 = 40; // crosses an empty-leaf unlink (LEAF_CAP = 32)
    for fuse in 0..30u64 {
        let pool = crash_pool(16 << 20);
        let t = FpTree::create(Arc::clone(&pool)).unwrap();
        for i in 0..N {
            t.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in 0..N {
            assert!(t.remove(&k(i)).unwrap());
        }
        drop(t);
        pool.simulate_crash();
        let r = FpTree::recover(Arc::clone(&pool)).unwrap();
        // Deleted prefix, surviving suffix.
        let mut seen_survivor = false;
        let mut survivors = 0u64;
        for i in 0..N {
            match r.search(&k(i)).unwrap() {
                None => assert!(!seen_survivor, "fuse={fuse}: gap at key {i}"),
                Some(v) => {
                    assert_eq!(v.as_u64(), i, "fuse={fuse}");
                    seen_survivor = true;
                    survivors += 1;
                }
            }
        }
        assert_eq!(r.len() as u64, survivors, "fuse={fuse}");
        assert_scan_agrees_with_search(&r);
    }
}

/// Algorithm 1's write ordering has six distinct crash points (§III-B):
/// after the value bytes (line 12), after `leaf.p_value` (line 13), after
/// the value bit (line 14), after the key + key length (lines 15–16),
/// after the volatile DRAM link (line 17), and after the leaf bit
/// (line 18). Only the last makes the insert durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(clippy::enum_variant_names)] // the shared "After" prefix mirrors Algorithm 1's line numbering
enum InsertCrashPoint {
    AfterValueWrite,
    AfterPValue,
    AfterValueBit,
    AfterKeyWrite,
    AfterDramLink,
    AfterLeafBit,
}

#[test]
fn insert_crash_matrix_covers_all_six_ordering_points() {
    use hart_suite::epalloc::{
        leaf_write_key, leaf_write_pvalue, persist_leaf_key, persist_leaf_pvalue, ObjClass,
    };
    use InsertCrashPoint::*;

    let base = Key::from_str("AAkeep").unwrap();
    let lost = Key::from_str("AAlost").unwrap();
    for point in [
        AfterValueWrite,
        AfterPValue,
        AfterValueBit,
        AfterKeyWrite,
        AfterDramLink,
        AfterLeafBit,
    ] {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        h.insert(&base, &Value::from_u64(1)).unwrap();

        // Replay Algorithm 1 lines 10–18 by hand, stopping at `point`.
        let al = h.epallocator();
        let leaf = al.alloc(ObjClass::Leaf).unwrap();
        let vptr = al.alloc(ObjClass::Value8).unwrap();
        pool.write(vptr, &99u64); // line 12: value = V
        pool.persist_val::<u64>(vptr);
        if point >= AfterPValue {
            leaf_write_pvalue(&pool, leaf, vptr, 8); // line 13
            persist_leaf_pvalue(&pool, leaf);
        }
        if point >= AfterValueBit {
            al.commit(vptr, ObjClass::Value8); // line 14
        }
        if point >= AfterKeyWrite {
            leaf_write_key(&pool, leaf, &lost); // lines 15–16
            persist_leaf_key(&pool, leaf);
        }
        if point >= AfterDramLink {
            // Line 17 touches only DRAM: the ART link vanishes in the
            // crash regardless, so the persistent state is identical to
            // AfterKeyWrite — the matrix keeps the point to pin that down.
        }
        if point >= AfterLeafBit {
            al.commit(leaf, ObjClass::Leaf); // line 18
        }
        drop(h);
        pool.simulate_crash();

        let r = Hart::recover(Arc::clone(&pool), HartConfig::default()).unwrap();
        let committed = point >= AfterLeafBit;
        assert_eq!(
            r.search(&base).unwrap().unwrap().as_u64(),
            1,
            "{point:?}: committed base record must survive"
        );
        match r.search(&lost).unwrap() {
            Some(v) if committed => assert_eq!(v.as_u64(), 99, "{point:?}"),
            None if !committed => {}
            other => panic!("{point:?}: expected committed-or-absent, got {other:?}"),
        }
        assert_eq!(r.len(), if committed { 2 } else { 1 }, "{point:?}");
        // No partial state may leak: every staged-but-uncommitted leaf and
        // value chunk is scrubbed by recovery.
        let s = r.alloc_stats();
        let n = if committed { 2 } else { 1 };
        assert_eq!(
            s.live,
            [n, n, 0],
            "{point:?}: exactly the committed objects survive"
        );
        assert_no_leaks(&r);
        // The key is fully usable after recovery, whatever the outcome.
        r.insert(&lost, &Value::from_u64(7)).unwrap();
        assert_eq!(r.search(&lost).unwrap().unwrap().as_u64(), 7, "{point:?}");
        assert_no_leaks(&r);
        assert_scan_agrees_with_search(&r);
    }
}

#[test]
fn hart_parallel_recovery_from_fuse_crashes() {
    // The parallel recovery path must satisfy the same invariants as the
    // sequential one at every crash point.
    for fuse in (0..60u64).step_by(5) {
        let pool = crash_pool(16 << 20);
        let h = Hart::create(Arc::clone(&pool), HartConfig::default()).unwrap();
        for i in 0..60 {
            h.insert(&k(i), &Value::from_u64(i)).unwrap();
        }
        pool.arm_persist_fuse(fuse);
        for i in 0..20u64 {
            h.insert(&k(100 + i), &Value::from_u64(i)).unwrap();
            h.update(&k(i), &Value::from_u64(9000 + i)).unwrap();
            h.remove(&k(40 + i)).unwrap();
        }
        drop(h);
        pool.simulate_crash();
        let r = Hart::recover_parallel(Arc::clone(&pool), HartConfig::default(), 4).unwrap();
        assert_no_leaks(&r);
        assert_scan_agrees_with_search(&r);
    }
}

// ------------------------------------------------------------------------
// The all-PM radix baselines: WOART, ART+CoW and WORT share one matrix.
//
// Each case builds a durable base state, arms the fuse at every persist
// point of a window of operations, crashes, drops the raw allocator's
// volatile free lists (they die with the machine) and reopens. The
// recovered tree must then hold
// * every key that was durable before the window, intact;
// * the state after some prefix of the window — durability is in program
//   order and the operation in flight is atomic (old or new value, present
//   or absent);
// * `len()` equal to the keys point search finds and to the scan's rows,
//   with the scan agreeing with search;
// and it must still accept an insert and a delete.
//
// Leak freedom is outside this model: the raw pool allocator the baselines
// use keeps no persistent metadata, so a block allocated inside the window
// and never published is unreachable after the crash by construction.

use hart_suite::{ArtCow, Woart, Wort};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Opener = fn(Arc<PmemPool>) -> hart_suite::Result<Box<dyn PersistentIndex>>;

/// A radix baseline: its name, its `create` and its `open`.
type RadixTree = (&'static str, Opener, Opener);

const RADIX_TREES: [RadixTree; 3] = [
    (
        "WOART",
        |p| Ok(Box::new(Woart::create(p)?)),
        |p| Ok(Box::new(Woart::open(p)?)),
    ),
    (
        "ART+CoW",
        |p| Ok(Box::new(ArtCow::create(p)?)),
        |p| Ok(Box::new(ArtCow::open(p)?)),
    ),
    (
        "WORT",
        |p| Ok(Box::new(Wort::create(p)?)),
        |p| Ok(Box::new(Wort::open(p)?)),
    ),
];

#[derive(Clone, Debug)]
enum Op {
    Insert(Key, Value),
    Update(Key, Value),
    Remove(Key),
}

impl Op {
    fn key(&self) -> Key {
        match self {
            Op::Insert(k, _) | Op::Update(k, _) | Op::Remove(k) => *k,
        }
    }

    fn apply(&self, t: &dyn PersistentIndex) {
        match self {
            Op::Insert(k, v) => t.insert(k, v).unwrap(),
            Op::Update(k, v) => assert!(t.update(k, v).unwrap(), "update of absent {k}"),
            Op::Remove(k) => assert!(t.remove(k).unwrap(), "remove of absent {k}"),
        }
    }

    fn apply_model(&self, m: &mut BTreeMap<Key, Value>) {
        match self {
            Op::Insert(k, v) | Op::Update(k, v) => {
                m.insert(*k, *v);
            }
            Op::Remove(k) => {
                m.remove(k);
            }
        }
    }
}

fn inserts(keys: &[Key], salt: u64) -> Vec<Op> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| Op::Insert(*k, Value::from_u64(salt + i as u64)))
        .collect()
}

/// Message of a caught panic.
fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Crash every radix baseline at every persist point of `window`, run on
/// top of `base`, and check the recovered tree; `probe` is an absent key
/// the recovered tree must accept and then delete. Returns one line per
/// tree that failed, naming its failing fuse points.
fn radix_crash_matrix(case: &str, base: &[Op], window: &[Op], probe: Key) -> Vec<String> {
    let mut model = BTreeMap::new();
    base.iter().for_each(|op| op.apply_model(&mut model));
    let durable = model.clone();
    let mut states = vec![model.clone()];
    for op in window {
        op.apply_model(&mut model);
        states.push(model.clone());
    }
    let touched: Vec<Key> = window.iter().map(Op::key).collect();
    let universe: Vec<Key> = durable.keys().copied().chain(touched.clone()).collect();
    assert!(
        !universe.contains(&probe),
        "{case}: the probe key must be absent"
    );

    let mut report = Vec::new();
    for (name, create, open) in RADIX_TREES {
        // Run base + window with the fuse armed at `fuse` (unarmed: None);
        // returns the pool and the persists the window issued.
        let run = |fuse: Option<u64>| {
            let pool = crash_pool(4 << 20);
            let t = create(Arc::clone(&pool)).unwrap();
            base.iter().for_each(|op| op.apply(&*t));
            let before = pool.stats().snapshot().persist_calls;
            if let Some(f) = fuse {
                pool.arm_persist_fuse(f);
            }
            window.iter().for_each(|op| op.apply(&*t));
            let persists = pool.stats().snapshot().persist_calls - before;
            (pool, persists)
        };
        let (_, points) = run(None);
        let mut failed: Vec<(u64, String)> = Vec::new();
        for fuse in 0..=points {
            let (pool, _) = run(Some(fuse));
            pool.simulate_crash();
            pool.reset_volatile_alloc();
            let checked = catch_unwind(AssertUnwindSafe(|| {
                let r = open(Arc::clone(&pool)).expect("open after the crash");
                let got: BTreeMap<Key, Value> = universe
                    .iter()
                    .filter_map(|k| r.search(k).unwrap().map(|v| (*k, v)))
                    .collect();
                let lost = durable
                    .iter()
                    .filter(|&(k, v)| !touched.contains(k) && got.get(k) != Some(v))
                    .count();
                assert_eq!(lost, 0, "{lost} keys durable before the window are lost");
                assert!(
                    states.contains(&got),
                    "the recovered {} keys match no prefix of the window",
                    got.len()
                );
                assert_eq!(r.len(), got.len(), "len() disagrees with point search");
                assert_scan_agrees_with_search(&*r);
                let v = Value::from_u64(0xC0FFEE);
                r.insert(&probe, &v).unwrap();
                assert_eq!(r.search(&probe).unwrap(), Some(v));
                assert!(r.remove(&probe).unwrap());
                assert_eq!(r.search(&probe).unwrap(), None);
                assert_scan_agrees_with_search(&*r);
            }));
            if let Err(e) = checked {
                failed.push((fuse, panic_text(e)));
            }
        }
        if let Some((_, first)) = failed.first() {
            report.push(format!(
                "{name} {case}: {} of {} fuse points fail: {:?}; first: {first}",
                failed.len(),
                points + 1,
                failed.iter().map(|f| f.0).collect::<Vec<_>>(),
            ));
        }
    }
    report
}

/// Seeded random keys: an insert, an update and a delete window.
#[test]
fn radix_random_windows_crash_at_every_persist_point() {
    let keys = hart_suite::workloads::random(130, 6);
    let probe = Key::from_str("~probe").unwrap();
    let (base, fresh) = keys.split_at(100);
    let mut report = radix_crash_matrix(
        "insert window",
        &inserts(base, 0),
        &inserts(fresh, 500),
        probe,
    );
    let updates: Vec<Op> = base[..30]
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let v = if i % 2 == 0 {
                Value::from_u64(9000 + i as u64)
            } else {
                Value::new(&[i as u8; 16]).unwrap()
            };
            Op::Update(*k, v)
        })
        .collect();
    report.extend(radix_crash_matrix(
        "update window",
        &inserts(base, 0),
        &updates,
        probe,
    ));
    let removes: Vec<Op> = base[..30].iter().map(|k| Op::Remove(*k)).collect();
    report.extend(radix_crash_matrix(
        "delete window",
        &inserts(base, 0),
        &removes,
        probe,
    ));
    assert!(report.is_empty(), "{}", report.join("\n"));
}

/// 100 keys under one long compressed prefix, then 20 keys that split it
/// (insert window) and whose removal collapses the split again (delete
/// window).
#[test]
fn radix_prefix_split_and_collapse_crash_at_every_persist_point() {
    let under = |pfx: &str, i: u64| {
        let tail = Key::from_u64_base62(i, 3);
        let mut s = pfx.as_bytes().to_vec();
        s.extend_from_slice(tail.as_slice());
        Key::new(&s).unwrap()
    };
    let shared: Vec<Key> = (0..100).map(|i| under("abcdef", 37 * i)).collect();
    let split: Vec<Key> = (0..20).map(|i| under("abcxyz", i)).collect();
    let probe = Key::from_str("abcq").unwrap();
    let mut report = radix_crash_matrix(
        "prefix-split window",
        &inserts(&shared, 0),
        &inserts(&split, 500),
        probe,
    );
    let base: Vec<Op> = inserts(&shared, 0)
        .into_iter()
        .chain(inserts(&split, 500))
        .collect();
    let removes: Vec<Op> = split.iter().map(|k| Op::Remove(*k)).collect();
    report.extend(radix_crash_matrix(
        "collapse window",
        &base,
        &removes,
        probe,
    ));
    assert!(report.is_empty(), "{}", report.join("\n"));
}

/// A NODE48 receives its 48th child (and then grows) inside the window;
/// the probe adds one more edge to the same node after recovery.
#[test]
fn radix_node48_fill_crashes_at_every_persist_point() {
    const ALPHABET: &[u8; 62] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    let key = |c: u8| Key::new(&[b'Q', c]).unwrap();
    let edges: Vec<Key> = ALPHABET[..52].iter().map(|&c| key(c)).collect();
    let (base, fill) = edges.split_at(44);
    let report = radix_crash_matrix(
        "NODE48-fill window",
        &inserts(base, 0),
        &inserts(fill, 500),
        key(b'z'),
    );
    assert!(report.is_empty(), "{}", report.join("\n"));
}
