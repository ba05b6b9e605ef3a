//! `PersistentIndex` contract tests, run generically against every index
//! in the workspace (the paper's four plus WORT): the small behavioural
//! guarantees all higher-level tests and benches implicitly rely on.

use hart_suite::{all_trees, Key, PersistentIndex, PoolConfig, Value};

fn every_tree() -> Vec<Box<dyn PersistentIndex>> {
    all_trees(PoolConfig {
        alloc_overhead_ns: 0,
        ..PoolConfig::test_small()
    })
}

fn k(s: &str) -> Key {
    Key::from_str(s).unwrap()
}

#[test]
fn empty_tree_behaviour() {
    for t in every_tree() {
        let name = t.name();
        assert_eq!(t.len(), 0, "[{name}]");
        assert!(t.is_empty(), "[{name}]");
        assert_eq!(t.search(&k("missing")).unwrap(), None, "[{name}]");
        assert!(!t.remove(&k("missing")).unwrap(), "[{name}]");
        assert!(
            !t.update(&k("missing"), &Value::from_u64(1)).unwrap(),
            "[{name}]"
        );
        assert!(t.range(&k("a"), &k("z")).unwrap().is_empty(), "[{name}]");
        assert!(
            t.multi_get(&[k("a"), k("b")])
                .unwrap()
                .iter()
                .all(Option::is_none),
            "[{name}]"
        );
    }
}

#[test]
fn insert_is_upsert_everywhere() {
    for t in every_tree() {
        let name = t.name();
        t.insert(&k("dup"), &Value::from_u64(1)).unwrap();
        t.insert(&k("dup"), &Value::from_u64(2)).unwrap();
        assert_eq!(t.len(), 1, "[{name}] upsert must not grow");
        assert_eq!(
            t.search(&k("dup")).unwrap().unwrap().as_u64(),
            2,
            "[{name}]"
        );
    }
}

#[test]
fn update_only_touches_existing() {
    for t in every_tree() {
        let name = t.name();
        t.insert(&k("present"), &Value::from_u64(1)).unwrap();
        assert!(
            t.update(&k("present"), &Value::from_u64(9)).unwrap(),
            "[{name}]"
        );
        assert!(
            !t.update(&k("absent"), &Value::from_u64(9)).unwrap(),
            "[{name}]"
        );
        assert_eq!(t.len(), 1, "[{name}] update must never insert");
        assert_eq!(t.search(&k("absent")).unwrap(), None, "[{name}]");
    }
}

#[test]
fn remove_is_idempotent() {
    for t in every_tree() {
        let name = t.name();
        t.insert(&k("gone"), &Value::from_u64(1)).unwrap();
        assert!(t.remove(&k("gone")).unwrap(), "[{name}]");
        assert!(!t.remove(&k("gone")).unwrap(), "[{name}] double remove");
        assert_eq!(t.len(), 0, "[{name}]");
    }
}

#[test]
fn range_bounds_are_inclusive_and_ordered() {
    for t in every_tree() {
        let name = t.name();
        for key in ["a", "b", "c", "d"] {
            t.insert(&k(key), &Value::from_u64(key.len() as u64))
                .unwrap();
        }
        let got: Vec<String> = t
            .range(&k("b"), &k("c"))
            .unwrap()
            .iter()
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(got, vec!["b", "c"], "[{name}] inclusive bounds");
        // Inverted range is empty, not an error.
        assert!(t.range(&k("c"), &k("b")).unwrap().is_empty(), "[{name}]");
        // Full span is sorted.
        let all = t.range(&k("a"), &k("d")).unwrap();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "[{name}]");
        assert_eq!(all.len(), 4, "[{name}]");
    }
}

#[test]
fn extreme_keys_and_values() {
    for t in every_tree() {
        let name = t.name();
        // 1-byte and 24-byte keys; empty and 16-byte values.
        let tiny = Key::new(b"x").unwrap();
        let huge = Key::new(&[b'q'; 24]).unwrap();
        t.insert(&tiny, &Value::new(b"").unwrap()).unwrap();
        t.insert(&huge, &Value::new(&[0xAB; 16]).unwrap()).unwrap();
        assert_eq!(t.search(&tiny).unwrap().unwrap().len(), 0, "[{name}]");
        assert_eq!(
            t.search(&huge).unwrap().unwrap().as_slice(),
            &[0xAB; 16],
            "[{name}]"
        );
        // Binary (non-ASCII) key bytes.
        let bin = Key::new(&[0x01, 0xFF, 0x80, 0x7F]).unwrap();
        t.insert(&bin, &Value::from_u64(7)).unwrap();
        assert_eq!(t.search(&bin).unwrap().unwrap().as_u64(), 7, "[{name}]");
    }
}

#[test]
fn keys_sharing_every_prefix_length() {
    // a, aa, aaa, ... up to 24 — the worst case for path compression and
    // terminator handling in every radix variant and for FPTree's
    // fingerprints.
    for t in every_tree() {
        let name = t.name();
        let keys: Vec<Key> = (1..=24)
            .map(|n| Key::new(&vec![b'a'; n]).unwrap())
            .collect();
        for (i, key) in keys.iter().enumerate() {
            t.insert(key, &Value::from_u64(i as u64)).unwrap();
        }
        assert_eq!(t.len(), 24, "[{name}]");
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                t.search(key).unwrap().unwrap().as_u64(),
                i as u64,
                "[{name}] len {}",
                i + 1
            );
        }
        // Remove the middle ones; endpoints must survive.
        for key in &keys[8..16] {
            assert!(t.remove(key).unwrap(), "[{name}]");
        }
        assert!(t.search(&keys[0]).unwrap().is_some(), "[{name}]");
        assert!(t.search(&keys[23]).unwrap().is_some(), "[{name}]");
        assert!(t.search(&keys[12]).unwrap().is_none(), "[{name}]");
    }
}

#[test]
fn interleaved_ops_keep_len_exact() {
    for t in every_tree() {
        let name = t.name();
        let mut expected = 0usize;
        for i in 0..300u64 {
            let key = Key::from_u64_base62(i % 100, 6);
            match i % 3 {
                0 => {
                    let existed = t.search(&key).unwrap().is_some();
                    t.insert(&key, &Value::from_u64(i)).unwrap();
                    if !existed {
                        expected += 1;
                    }
                }
                1 => {
                    let _ = t.update(&key, &Value::from_u64(i)).unwrap();
                }
                _ => {
                    if t.remove(&key).unwrap() {
                        expected -= 1;
                    }
                }
            }
            assert_eq!(t.len(), expected, "[{name}] at step {i}");
        }
    }
}
