//! Property-based tests: the adaptive radix tree must behave exactly like
//! a sorted map for arbitrary operation sequences, and its structural
//! invariants (node counts, path compression, adaptive sizing) must hold
//! at every step.

use hart_art::{Art, KeyResolver, OwnedLeaf, SliceResolver};
use hart_kv::InlineKey;
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;

const R: SliceResolver = SliceResolver;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>, u64),
    Remove(Vec<u8>),
    Search(Vec<u8>),
}

/// Keys of 1–12 bytes from a small alphabet: plenty of shared prefixes,
/// prefix-of-prefix cases, and node-kind churn.
fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'z'), Just(b'0')],
        1..12,
    )
}

/// An end bound, or none.
fn arb_end() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![
        arb_key().prop_map(Some),
        arb_key().prop_map(Some),
        Just(None)
    ]
}

/// A scan cap: none, one row, a few rows, or unbounded.
fn arb_cap() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), Just(1), 2usize..40, Just(usize::MAX)]
}

/// Resolver that records every key the walk loads.
#[derive(Default)]
struct Counting(RefCell<Vec<Vec<u8>>>);

impl KeyResolver<OwnedLeaf> for Counting {
    fn load_key(&self, leaf: &OwnedLeaf) -> InlineKey {
        self.0.borrow_mut().push(leaf.key.as_slice().to_vec());
        leaf.key
    }
}

/// The path (node prefixes and edge bytes) that leads to `key`'s leaf in
/// an ART over `keys`: one byte past the longest prefix `key` shares with
/// any other key — lazy expansion hangs the leaf right below the node
/// where `key` parts from its nearest neighbour — or the empty path when
/// `key` is the only key. A key that is a whole prefix of another sits
/// behind a terminator edge, and its path is the key itself.
fn leaf_path<'a>(keys: &[Vec<u8>], key: &'a [u8]) -> &'a [u8] {
    let shared = keys
        .iter()
        .filter(|k| k.as_slice() != key)
        .map(|k| k.iter().zip(key).take_while(|(a, b)| a == b).count())
        .max();
    match shared {
        None => &[],
        Some(d) => &key[..(d + 1).min(key.len())],
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Remove),
        arb_key().prop_map(Op::Search),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn behaves_like_btreemap(ops in vec(arb_op(), 1..400)) {
        let mut art: Art<OwnedLeaf> = Art::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let old = art.insert(&R, k, OwnedLeaf::new(k, *v)).map(|l| l.val);
                    prop_assert_eq!(old, model.insert(k.clone(), *v));
                }
                Op::Remove(k) => {
                    let got = art.remove(&R, k).map(|l| l.val);
                    prop_assert_eq!(got, model.remove(k));
                }
                Op::Search(k) => {
                    let got = art.search(&R, k).map(|l| l.val);
                    prop_assert_eq!(got, model.get(k).copied());
                }
            }
            prop_assert_eq!(art.len(), model.len());
        }
        art.check_invariants(&R).map_err(TestCaseError::fail)?;

        // Ordered iteration equals the model's.
        let mut got = Vec::new();
        art.for_each(|l| got.push((l.key.as_slice().to_vec(), l.val)));
        let expect: Vec<(Vec<u8>, u64)> =
            model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn range_scan_equals_model(
        keys in vec((arb_key(), any::<u64>()), 1..200),
        lo in arb_key(),
        hi in arb_end(),
        cap in arb_cap(),
    ) {
        let mut art: Art<OwnedLeaf> = Art::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, v) in &keys {
            art.insert(&R, k, OwnedLeaf::new(k, *v));
            model.insert(k.clone(), *v);
        }
        let mut got = Vec::new();
        art.for_each_in_range(&R, &lo, hi.as_deref(), cap, |l| {
            got.push((l.key.as_slice().to_vec(), l.val))
        });
        let expect: Vec<(Vec<u8>, u64)> = model
            .range(lo.clone()..)
            .take_while(|(k, _)| hi.as_ref().is_none_or(|hi| *k <= hi))
            .take(cap)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// The walk loads a leaf's key only where the leaf's path is a proper
    /// prefix of the start bound or a prefix of the end bound, and a walk
    /// with neither bound loads none.
    #[test]
    fn range_scan_loads_keys_only_on_the_boundary_spines(
        keys in vec(arb_key(), 1..200),
        lo in arb_key(),
        hi in arb_end(),
        cap in arb_cap(),
    ) {
        let mut art: Art<OwnedLeaf> = Art::new();
        for k in &keys {
            art.insert(&R, k, OwnedLeaf::new(k, 0));
        }
        let r = Counting::default();
        let mut n = 0;
        art.for_each_in_range(&r, b"", None, usize::MAX, |_| n += 1);
        prop_assert_eq!(n, art.len());
        prop_assert!(r.0.borrow().is_empty(), "whole-tree walk loaded {:?}", r.0.borrow());

        art.for_each_in_range(&r, &lo, hi.as_deref(), cap, |_| ());
        for k in r.0.borrow().iter() {
            let p = leaf_path(&keys, k);
            let on_start = p.len() < lo.len() && lo.starts_with(p);
            let on_end = hi.as_ref().is_some_and(|hi| hi.starts_with(p));
            prop_assert!(
                on_start || on_end,
                "loaded {:?} at path {:?}, off both spines of {:?}..={:?}", k, p, lo, hi
            );
        }
    }
    #[test]
    fn insert_all_then_remove_all_is_empty(keys in vec(arb_key(), 1..300)) {
        let mut art: Art<OwnedLeaf> = Art::new();
        let mut distinct: Vec<Vec<u8>> = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for k in &keys {
            art.insert(&R, k, OwnedLeaf::new(k, 1));
        }
        prop_assert_eq!(art.len(), distinct.len());
        art.check_invariants(&R).map_err(TestCaseError::fail)?;
        for k in &distinct {
            prop_assert!(art.remove(&R, k).is_some());
        }
        prop_assert!(art.is_empty());
        prop_assert_eq!(art.memory_bytes(), std::mem::size_of::<Art<OwnedLeaf>>());
    }

    #[test]
    fn height_bounded_by_longest_key(keys in vec(arb_key(), 1..200)) {
        let mut art: Art<OwnedLeaf> = Art::new();
        let mut max_len = 0;
        for k in &keys {
            max_len = max_len.max(k.len());
            art.insert(&R, k, OwnedLeaf::new(k, 0));
        }
        // Terminated view adds one byte; each inner level consumes ≥ 1.
        prop_assert!(art.height() <= max_len + 1,
            "height {} exceeds max key length {}", art.height(), max_len);
    }
}
