//! Cross-tree equivalence: every persistent index (the paper's four plus
//! WORT) must agree with a `BTreeMap` reference model (and therefore with
//! each other) on arbitrary operation sequences — the behavioural backbone
//! of the whole evaluation: the paper's comparisons are only meaningful if
//! every tree computes the same map.

use hart_suite::workloads::ALPHABET;
use hart_suite::{all_trees, Key, PoolConfig, Value};
use std::collections::BTreeMap;

/// Deterministic splitmix64 so the sequence is reproducible.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn key_from(r: u64, space: u64) -> Key {
    // Variable-length keys over the paper's alphabet, including keys
    // shorter than HART's hash prefix.
    let x = r % space;
    let len = 1 + (x % 11) as usize;
    let mut bytes = Vec::with_capacity(len);
    let mut v = x;
    for _ in 0..len {
        bytes.push(ALPHABET[(v % 17) as usize]);
        v /= 17;
    }
    Key::new(&bytes).unwrap()
}

fn value_from(r: u64) -> Value {
    // Exercise both value classes and the empty value.
    match r % 3 {
        0 => Value::from_u64(r),
        1 => Value::new(&r.to_le_bytes().repeat(2)).unwrap(),
        _ => Value::new(&r.to_le_bytes()[..(r % 9) as usize]).unwrap(),
    }
}

#[test]
fn random_ops_match_model_on_every_tree() {
    for tree in all_trees(PoolConfig {
        size_bytes: 64 << 20,
        ..PoolConfig::test_small()
    }) {
        let mut model: BTreeMap<Vec<u8>, Value> = BTreeMap::new();
        let mut rng = Rng(0xABCD_EF01);
        for step in 0..12_000u32 {
            let r = rng.next();
            let key = key_from(r, 4000);
            let mk = key.as_slice().to_vec();
            match r % 10 {
                0..=3 => {
                    let v = value_from(r >> 8);
                    tree.insert(&key, &v).unwrap();
                    model.insert(mk, v);
                }
                4..=5 => {
                    let v = value_from(r >> 8);
                    let got = tree.update(&key, &v).unwrap();
                    let expect = model.contains_key(&mk);
                    assert_eq!(got, expect, "[{}] update {key} at step {step}", tree.name());
                    if expect {
                        model.insert(mk, v);
                    }
                }
                6..=7 => {
                    let got = tree.remove(&key).unwrap();
                    let expect = model.remove(&mk).is_some();
                    assert_eq!(got, expect, "[{}] remove {key} at step {step}", tree.name());
                }
                _ => {
                    let got = tree.search(&key).unwrap();
                    assert_eq!(
                        got.as_ref(),
                        model.get(&mk),
                        "[{}] search {key} at step {step}",
                        tree.name()
                    );
                }
            }
            assert_eq!(
                tree.len(),
                model.len(),
                "[{}] len at step {step}",
                tree.name()
            );
        }
        // Full final verification.
        for (k, v) in &model {
            let key = Key::new(k).unwrap();
            assert_eq!(
                tree.search(&key).unwrap().as_ref(),
                Some(v),
                "[{}]",
                tree.name()
            );
        }
    }
}

#[test]
fn range_agrees_with_model_on_every_tree() {
    for tree in all_trees(PoolConfig {
        size_bytes: 64 << 20,
        ..PoolConfig::test_small()
    }) {
        let mut model: BTreeMap<Vec<u8>, Value> = BTreeMap::new();
        let mut rng = Rng(7);
        for _ in 0..3000 {
            let r = rng.next();
            let key = key_from(r, 100_000);
            let v = value_from(r >> 5);
            tree.insert(&key, &v).unwrap();
            model.insert(key.as_slice().to_vec(), v);
        }
        for (lo, hi) in [("1", "8"), ("A", "Z"), ("B2", "Tz"), ("0", "zzzzzzzzzzzz")] {
            let lo = Key::from_str(lo).unwrap();
            let hi = Key::from_str(hi).unwrap();
            let got: Vec<(Vec<u8>, Value)> = tree
                .range(&lo, &hi)
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k.as_slice().to_vec(), v))
                .collect();
            let expect: Vec<(Vec<u8>, Value)> = model
                .range(lo.as_slice().to_vec()..=hi.as_slice().to_vec())
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expect, "[{}] range {lo}..{hi}", tree.name());
        }
    }
}

#[test]
fn multi_get_agrees_across_trees() {
    let trees = all_trees(PoolConfig::test_small());
    let keys: Vec<Key> = (0..500).map(|i| Key::from_u64_base62(i * 3, 6)).collect();
    let probes: Vec<Key> = (0..1500).map(|i| Key::from_u64_base62(i, 6)).collect();
    for tree in &trees {
        for k in &keys {
            tree.insert(k, &Value::from_u64(k.as_slice()[0] as u64))
                .unwrap();
        }
    }
    let answers: Vec<Vec<Option<Value>>> = trees
        .iter()
        .map(|t| t.multi_get(&probes).unwrap())
        .collect();
    for w in answers.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    assert_eq!(answers[0].iter().filter(|o| o.is_some()).count(), 500);
}
