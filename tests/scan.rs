//! Scan-correctness battery (DESIGN.md §Scans).
//!
//! Two layers:
//!
//! * **Oracle shadow** — every persistent index's trait-level
//!   `scan(start, end, limit)` must equal a `BTreeMap` shadow's range over
//!   the same contents, for arbitrary contents, arbitrary (including
//!   inverted, degenerate, and full) ranges, and arbitrary limits. HART
//!   runs twice: the paper's `k_h = 2` config and an aggressive
//!   `k_h = 3` / 8-bucket / threshold-1 config so shard boundaries and a
//!   heavily resized directory are under the same oracle.
//! * **Scan-vs-resize stress** — ordered scans race writers that force
//!   directory doublings and shard drains for 100 rounds per scanner; no
//!   scan may return a duplicated key, an out-of-order key, or miss a key
//!   committed before the scan started. The nightly lock-witness CI job
//!   runs this under `--features lock-witness`.

use hart_suite::{all_trees, Hart, HartConfig, Key, PersistentIndex, PmemPool, PoolConfig, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn small_pool_cfg() -> PoolConfig {
    PoolConfig {
        size_bytes: 64 << 20,
        ..PoolConfig::test_small()
    }
}

/// The paper's four trees plus WORT plus a shard-boundary-heavy HART:
/// every index that answers `scan`, each over its own fresh pool.
fn scan_trees() -> Vec<Box<dyn PersistentIndex>> {
    let cfg = small_pool_cfg();
    let mut trees = all_trees(cfg.clone());
    trees.push(Box::new(
        Hart::create(
            Arc::new(PmemPool::new(cfg)),
            HartConfig {
                hash_key_len: 3,
                initial_buckets: 8,
                resize_threshold: 1,
                ..HartConfig::default()
            },
        )
        .expect("create HART k_h=3"),
    ));
    trees
}

/// Smallest and largest valid keys — the full-range bounds.
fn min_key() -> Key {
    Key::new(&[0x01]).unwrap()
}

fn max_key() -> Key {
    Key::new(&[0xFF; hart_suite::kv::MAX_KEY_LEN]).unwrap()
}

/// What `scan` must return: the shadow's inclusive range, first `limit`.
fn oracle(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    s: &[u8],
    e: &[u8],
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    if s > e {
        return Vec::new();
    }
    model
        .range(s.to_vec()..=e.to_vec())
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn got_as_bytes(rows: &[(Key, Value)]) -> Vec<(Vec<u8>, Vec<u8>)> {
    rows.iter()
        .map(|(k, v)| (k.as_slice().to_vec(), v.as_slice().to_vec()))
        .collect()
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // 1–10 bytes over a compact alphabet: heavy prefix sharing, keys both
    // shorter and longer than HART's hash prefixes (2 and 3 bytes here).
    vec(
        prop_oneof![Just(b'A'), Just(b'B'), Just(b'a'), Just(b'1')],
        1..10,
    )
}

fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary contents, arbitrary ranges and limits: every tree's scan
    /// equals the shadow's range, and the unlimited full-range scan equals
    /// the whole shadow.
    #[test]
    fn scan_matches_btreemap_shadow(
        entries in vec((arb_key(), arb_value()), 0..120),
        ranges in vec((arb_key(), arb_key(), 0usize..50), 1..6),
    ) {
        let trees = scan_trees();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in &entries {
            let (key, value) = (Key::new(k).unwrap(), Value::new(v).unwrap());
            for t in &trees {
                t.insert(&key, &value).unwrap();
            }
            model.insert(k.clone(), v.clone());
        }
        for (a, b, limit) in &ranges {
            let (s, e) = (Key::new(a).unwrap(), Key::new(b).unwrap());
            let want = oracle(&model, a, b, *limit);
            for t in &trees {
                let got = t.scan(&s, &e, *limit).unwrap();
                prop_assert_eq!(
                    got_as_bytes(&got), want.clone(),
                    "[{}] scan {:?}..={:?} limit {}", t.name(), a, b, limit
                );
                // Degenerate range at the start key: at most that one key.
                let got = t.scan(&s, &s, usize::MAX).unwrap();
                prop_assert_eq!(
                    got_as_bytes(&got), oracle(&model, a, a, usize::MAX),
                    "[{}] degenerate scan at {:?}", t.name(), a
                );
            }
        }
        let full: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        for t in &trees {
            let got = t.scan(&min_key(), &max_key(), usize::MAX).unwrap();
            prop_assert_eq!(got_as_bytes(&got), full.clone(), "[{}] full scan", t.name());
        }
    }
}

/// Deterministic edge cases the proptest shrinker would have to stumble
/// into: empty tree, inverted range, zero limit, exact-limit boundary,
/// bounds equal to a hash key or a proper prefix of stored keys, and
/// limits that stop inside a shard.
#[test]
fn scan_edge_cases_on_every_tree() {
    for t in scan_trees() {
        // Empty tree: anything scans to nothing.
        assert!(t
            .scan(&min_key(), &max_key(), usize::MAX)
            .unwrap()
            .is_empty());

        let keys: Vec<Key> = (0..10u64).map(|i| Key::from_u64_base62(i, 4)).collect();
        for k in &keys {
            t.insert(k, &Value::from_u64(7)).unwrap();
        }
        // Inverted range: well-defined empty result, not an error.
        assert!(t.scan(&keys[9], &keys[0], usize::MAX).unwrap().is_empty());
        // Zero limit: empty.
        assert!(t.scan(&keys[0], &keys[9], 0).unwrap().is_empty());
        // Limit 1: exactly the smallest in-range key.
        let got = t.scan(&keys[2], &keys[9], 1).unwrap();
        assert_eq!(got.len(), 1, "[{}]", t.name());
        assert_eq!(got[0].0, keys[2], "[{}]", t.name());
        // Limit on the boundary and past it.
        assert_eq!(t.scan(&keys[0], &keys[9], 10).unwrap().len(), 10);
        assert_eq!(t.scan(&keys[0], &keys[9], 11).unwrap().len(), 10);
        // Result is the keys in order.
        let got = t.scan(&keys[0], &keys[9], usize::MAX).unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            keys,
            "[{}]",
            t.name()
        );

        // Bounds shaped like HART's shards: "AB" is the hash key of a
        // 6-key shard at k_h = 2 and "ABa" of a 3-key shard at k_h = 3; "A"
        // and "AAz" are proper prefixes of stored keys; "AC…" keys make a
        // non-empty shard after both, so small limits stop mid-shard.
        let extra = [
            "AAz1", "AAz2", "AB", "ABa", "ABa1", "ABa2", "ABb", "ABb1", "AC1", "AC2",
        ];
        for k in extra {
            t.insert(&Key::from_str(k).unwrap(), &Value::from_u64(7))
                .unwrap();
        }
        let mut all: Vec<Key> = keys.clone();
        all.extend(extra.map(|k| Key::from_str(k).unwrap()));
        all.sort_unstable();
        let bounds: Vec<Key> = ["A", "AAz", "AAz2", "AB", "ABa", "ABa1", "ABb", "AC"]
            .map(|k| Key::from_str(k).unwrap())
            .into_iter()
            .chain([max_key()])
            .collect();
        for s in &bounds {
            for e in &bounds {
                for limit in [1, 2, 3, 5, usize::MAX] {
                    let want: Vec<Key> = all
                        .iter()
                        .filter(|k| s <= *k && *k <= e)
                        .take(limit)
                        .copied()
                        .collect();
                    let got: Vec<Key> = t
                        .scan(s, e, limit)
                        .unwrap()
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    assert_eq!(got, want, "[{}] scan {s}..={e} limit {limit}", t.name());
                }
            }
        }
        let scan = |s: &str, e: &str, limit: usize| -> Vec<String> {
            let (s, e) = (Key::from_str(s).unwrap(), Key::from_str(e).unwrap());
            t.scan(&s, &e, limit)
                .unwrap()
                .iter()
                .map(|(k, _)| String::from_utf8(k.as_slice().to_vec()).unwrap())
                .collect()
        };
        // `end` equal to a hash key, limit below that shard's size.
        assert_eq!(scan("AAz2", "AB", 2), ["AAz2", "AB"], "[{}]", t.name());
        assert_eq!(scan("AB", "ABa", 1), ["AB"], "[{}]", t.name());
        assert_eq!(scan("ABa", "ABa", 2), ["ABa"], "[{}]", t.name());
        // Bounds that are proper prefixes of stored keys.
        assert_eq!(scan("AAz", "ABa", 4), ["AAz1", "AAz2", "AB", "ABa"]);
        assert!(scan("A", "AAz", usize::MAX).is_empty(), "[{}]", t.name());
        // A limit that ends mid-shard, with the "AC" shard after it.
        assert_eq!(scan("ABa", "AC", 2), ["ABa", "ABa1"], "[{}]", t.name());
        assert_eq!(scan("AB", "AC", 4), ["AB", "ABa", "ABa1", "ABa2"]);
    }
}

// ------------------------------------------------- scan-vs-resize stress

/// 128 prefixes under `k_h = 2`; the committed set lives in the first 16
/// prefixes, the churn set spans all of them, so writer traffic keeps
/// adding shards and forcing directory doublings while scans run.
const N_PREFIXES: u64 = 128;
const KEYS_PER_PREFIX: u64 = 4;
const N_KEYS: u64 = N_PREFIXES * KEYS_PER_PREFIX;
const COMMITTED_PREFIXES: u64 = 16;

fn key_of(kid: u64) -> Key {
    let p = kid / KEYS_PER_PREFIX;
    let a = (b'A' + (p / 26) as u8) as char;
    let b = (b'A' + (p % 26) as u8) as char;
    Key::from_str(&format!("{a}{b}{:03}", kid % KEYS_PER_PREFIX)).unwrap()
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Scans racing inserts that force directory grows and shard drains, 100
/// rounds per scanner: every result must be strictly key-ordered (hence
/// duplicate-free) and contain every key committed before the stress
/// began. Limited scans must additionally be a prefix of the ordered
/// result with respect to the committed set.
#[test]
fn concurrent_scans_vs_resize_lose_nothing() {
    const ROUNDS: usize = 100;
    let pool = Arc::new(PmemPool::new(PoolConfig {
        size_bytes: 128 << 20,
        alloc_overhead_ns: 0,
        ..PoolConfig::test_small()
    }));
    let h = Arc::new(
        Hart::create(
            pool,
            HartConfig {
                initial_buckets: 8,
                resize_threshold: 1,
                ..HartConfig::default()
            },
        )
        .unwrap(),
    );
    // Committed set: even kids of the first 16 prefixes, inserted before
    // any scanner starts and never touched by writers.
    let committed: Vec<Key> = (0..COMMITTED_PREFIXES * KEYS_PER_PREFIX)
        .step_by(2)
        .map(key_of)
        .collect();
    for k in &committed {
        h.insert(k, &Value::from_u64(1)).unwrap();
    }
    let grows_at_start = h.hash_resize_count();
    let lo = min_key();
    let hi = max_key();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Writers: churn odd kids across all 128 prefixes. New prefixes
        // mean new shards, so the directory keeps doubling mid-test.
        for t in 0..2u64 {
            let h = Arc::clone(&h);
            let stop = &stop;
            s.spawn(move || {
                let mut rng = XorShift(0xDEAD_10CC ^ (t + 1));
                while !stop.load(Ordering::Relaxed) {
                    let kid = (rng.next() % N_KEYS) | 1;
                    let key = key_of(kid);
                    if rng.next().is_multiple_of(4) {
                        let _ = h.remove(&key).unwrap();
                    } else {
                        h.insert(&key, &Value::from_u64(kid)).unwrap();
                    }
                }
            });
        }
        let scanners: Vec<_> = (0..2usize)
            .map(|t| {
                let h = Arc::clone(&h);
                let (committed, lo, hi) = (&committed, &lo, &hi);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let rows = h.ordered_scan(lo, hi, usize::MAX).unwrap();
                        assert!(
                            rows.windows(2).all(|w| w[0].0 < w[1].0),
                            "scanner {t} round {round}: duplicated or out-of-order key"
                        );
                        let seen: std::collections::BTreeSet<&Key> =
                            rows.iter().map(|(k, _)| k).collect();
                        for k in committed {
                            assert!(
                                seen.contains(k),
                                "scanner {t} round {round}: committed key {k} missing"
                            );
                        }
                        // Limited scan: sorted, within quota, and missing a
                        // committed key only past the truncation point.
                        let limit = 1 + (round * 7) % 96;
                        let rows = h.ordered_scan(lo, hi, limit).unwrap();
                        assert!(rows.len() <= limit);
                        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
                        if let Some((last, _)) = rows.last() {
                            let seen: std::collections::BTreeSet<&Key> =
                                rows.iter().map(|(k, _)| k).collect();
                            for k in committed.iter().filter(|k| *k <= last) {
                                assert!(
                                    seen.contains(k),
                                    "scanner {t} round {round}: committed {k} below \
                                     truncation point {last} missing from limited scan"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for sc in scanners {
            sc.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        h.hash_resize_count() > grows_at_start,
        "writer churn must force doublings during the scans \
         (got {} before, {} after)",
        grows_at_start,
        h.hash_resize_count()
    );
    h.check_consistency().unwrap();
    // Post-stress the committed set is still fully scannable.
    let rows = h.ordered_scan(&lo, &hi, usize::MAX).unwrap();
    let seen: std::collections::BTreeSet<&Key> = rows.iter().map(|(k, _)| k).collect();
    for k in &committed {
        assert!(seen.contains(k), "committed key {k} lost after stress");
    }
}
