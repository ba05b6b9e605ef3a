//! The WOART tree: PM-resident ART with failure-atomic 8-byte publishes.

use crate::layout::*;
use hart_epalloc::{
    leaf_read_key, leaf_read_pvalue, leaf_read_val_len, leaf_write_key, leaf_write_pvalue,
    LEAF_SIZE,
};
use hart_kv::{Error, Key, MemoryStats, PersistentIndex, Result, Value, MAX_KEY_LEN};
use hart_pm::{PmPtr, PmemPool, PoolConfig};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MAGIC: u64 = 0x574F_4152_5430_3031; // "WOART001"

/// Byte `i` of the terminated key view.
#[inline]
fn tb(key: &[u8], i: usize) -> u8 {
    if i >= key.len() {
        0
    } else {
        key[i]
    }
}

/// Write Optimal Adaptive Radix Tree, entirely in emulated PM.
///
/// The paper evaluates WOART single-threaded; a tree-level reader-writer
/// lock makes this implementation safely `Sync` without giving it
/// concurrency machinery it does not have in the original.
pub struct Woart {
    pool: Arc<PmemPool>,
    lock: RwLock<()>,
    len: AtomicUsize,
    root_slot: PmPtr,
}

impl Woart {
    /// Format a fresh pool.
    pub fn create(pool: Arc<PmemPool>) -> Result<Woart> {
        let base = pool.root_area(16);
        pool.write_zeros(base, 16);
        pool.persist(base, 16);
        pool.write_u64_atomic(base, MAGIC);
        pool.persist(base, 8);
        Ok(Woart {
            root_slot: base.add(8),
            pool,
            lock: RwLock::new(()),
            len: AtomicUsize::new(0),
        })
    }

    /// Open an existing pool. WOART is a pure-PM tree: "they have no need
    /// to recover nodes after a system failure or a normal reboot" — only
    /// the record count is re-derived (one traversal).
    pub fn open(pool: Arc<PmemPool>) -> Result<Woart> {
        let base = pool.root_area(16);
        if pool.read::<u64>(base) != MAGIC {
            return Err(Error::Corrupted("bad WOART magic"));
        }
        let t = Woart {
            root_slot: base.add(8),
            pool,
            lock: RwLock::new(()),
            len: AtomicUsize::new(0),
        };
        let mut n = 0;
        t.for_each_leaf(|_| n += 1);
        t.len.store(n, Ordering::Relaxed);
        Ok(t)
    }

    /// Convenience constructor: fresh pool from a config.
    pub fn with_config(cfg: PoolConfig) -> Result<Woart> {
        Woart::create(Arc::new(PmemPool::new(cfg)))
    }

    /// The underlying pool.
    pub fn pm_pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn make_leaf(&self, key: &Key, value: &Value) -> Result<PmPtr> {
        let pool = &self.pool;
        let vptr = alloc_value(pool, value)?; // value persisted first
        let leaf = pool.alloc_raw(LEAF_SIZE, 8).ok_or(Error::PmExhausted)?;
        leaf_write_key(pool, leaf, key);
        leaf_write_pvalue(pool, leaf, vptr, value.len());
        pool.persist(leaf, LEAF_SIZE); // whole leaf, one persistent() call
        Ok(leaf)
    }

    fn free_leaf(&self, leaf: PmPtr) {
        let pool = &self.pool;
        let pv = leaf_read_pvalue(pool, leaf);
        if !pv.is_null() {
            free_value(pool, pv, leaf_read_val_len(pool, leaf));
        }
        pool.free_raw(leaf, LEAF_SIZE, 8);
    }

    /// The common out-of-place value update of §IV ("a new PM space is
    /// allocated for the new value; a pointer to that new value is updated
    /// as the last step to ensure consistency").
    fn update_value(&self, leaf: PmPtr, value: &Value) -> Result<()> {
        let pool = &self.pool;
        let old = leaf_read_pvalue(pool, leaf);
        let old_len = leaf_read_val_len(pool, leaf);
        let new = alloc_value(pool, value)?;
        leaf_write_pvalue(pool, leaf, new, value.len());
        hart_epalloc::persist_leaf_pvalue(pool, leaf);
        if !old.is_null() {
            free_value(pool, old, old_len);
        }
        Ok(())
    }

    fn insert_rec(&self, slot: PmPtr, key: &Key, depth: usize, value: &Value) -> Result<bool> {
        let pool = &self.pool;
        let kb = key.as_slice();
        match read_slot(pool, slot) {
            Tagged::Null => {
                // Empty tree: publish the first leaf.
                let leaf = self.make_leaf(key, value)?;
                publish_slot(pool, slot, Tagged::Leaf(leaf));
                Ok(true)
            }
            Tagged::Leaf(l) => {
                let lk = leaf_read_key(pool, l);
                if lk.as_slice() == kb {
                    self.update_value(l, value)?;
                    return Ok(false);
                }
                // Lazy expansion: new NODE4 at the divergence point,
                // fully persisted before the parent pointer swings.
                let lks = lk.as_slice();
                let mut lcp = 0;
                while depth + lcp < lks.len()
                    && depth + lcp < kb.len()
                    && lks[depth + lcp] == kb[depth + lcp]
                {
                    lcp += 1;
                }
                let new_leaf = self.make_leaf(key, value)?;
                let node = alloc_node(pool, NT_N4, &kb[depth..depth + lcp])?;
                add_child_volatile(pool, node, tb(lks, depth + lcp), Tagged::Leaf(l));
                add_child_volatile(pool, node, tb(kb, depth + lcp), Tagged::Leaf(new_leaf));
                persist_node(pool, node);
                publish_slot(pool, slot, Tagged::Node(node));
                Ok(true)
            }
            Tagged::Node(n) => {
                let pfx = prefix(pool, n);
                let p = pfx.as_slice();
                let mut m = 0;
                while m < p.len() && depth + m < kb.len() && kb[depth + m] == p[m] {
                    m += 1;
                }
                if m < p.len() {
                    // Prefix split: the published node keeps its prefix; a
                    // copy with the truncated prefix goes under the new
                    // parent, and one slot store publishes both.
                    let e_old = p[m];
                    let b_new = tb(kb, depth + m);
                    let new_leaf = self.make_leaf(key, value)?;
                    let truncated = copy_to_kind(pool, n, node_type(pool, n))?;
                    set_prefix(pool, truncated, &p[m + 1..]);
                    persist_node(pool, truncated);
                    let parent = alloc_node(pool, NT_N4, &p[..m])?;
                    add_child_volatile(pool, parent, e_old, Tagged::Node(truncated));
                    add_child_volatile(pool, parent, b_new, Tagged::Leaf(new_leaf));
                    persist_node(pool, parent);
                    publish_slot(pool, slot, Tagged::Node(parent));
                    free_node(pool, n);
                    Ok(true)
                } else {
                    let depth = depth + p.len();
                    let b = tb(kb, depth);
                    if let Some(cslot) = find_child_slot(pool, n, b) {
                        self.insert_rec(cslot, key, depth + 1, value)
                    } else {
                        let new_leaf = self.make_leaf(key, value)?;
                        if !add_child(pool, n, b, Tagged::Leaf(new_leaf)) {
                            // Node full: grow out-of-place, publish, free.
                            let bigger = copy_to_kind(pool, n, grown_kind(node_type(pool, n)))?;
                            let ok = add_child_volatile(pool, bigger, b, Tagged::Leaf(new_leaf));
                            debug_assert!(ok);
                            persist_node(pool, bigger);
                            publish_slot(pool, slot, Tagged::Node(bigger));
                            free_node(pool, n);
                        }
                        Ok(true)
                    }
                }
            }
        }
    }

    fn remove_from_node(&self, node: PmPtr, key: &[u8], depth: usize) -> Result<bool> {
        let pool = &self.pool;
        let pfx = prefix(pool, node);
        let p = pfx.as_slice();
        if key.len() < depth + p.len() || &key[depth..depth + p.len()] != p {
            return Ok(false);
        }
        let depth = depth + p.len();
        let b = tb(key, depth);
        let Some(slot) = find_child_slot(pool, node, b) else {
            return Ok(false);
        };
        match read_slot(pool, slot) {
            Tagged::Null => Ok(false),
            Tagged::Leaf(l) => {
                if leaf_read_key(pool, l).as_slice() != key {
                    return Ok(false);
                }
                remove_child(pool, node, b);
                self.free_leaf(l);
                Ok(true)
            }
            Tagged::Node(child) => {
                let ok = self.remove_from_node(child, key, depth + 1)?;
                if ok {
                    self.fixup_after_remove(slot, child)?;
                }
                Ok(ok)
            }
        }
    }

    /// Post-delete structural maintenance: collapse single-child nodes
    /// (delete-side path compression) and shrink underflowed kinds, always
    /// out-of-place + publish.
    fn fixup_after_remove(&self, slot: PmPtr, node: PmPtr) -> Result<()> {
        let pool = &self.pool;
        let count = node_count(pool, node);
        if count == 1 {
            let (eb, only) = children_sorted(pool, node)[0];
            match only {
                Tagged::Leaf(l) => {
                    publish_slot(pool, slot, Tagged::Leaf(l));
                    free_node(pool, node);
                }
                Tagged::Node(gn) => {
                    // Fold the prefix into a copy of the grandchild: the
                    // published one stays valid until the slot store.
                    let folded = copy_to_kind(pool, gn, node_type(pool, gn))?;
                    let mut buf = [0u8; MAX_KEY_LEN];
                    let a = prefix(pool, node);
                    let c = prefix(pool, gn);
                    let total = a.len() + 1 + c.len();
                    assert!(total <= MAX_KEY_LEN);
                    buf[..a.len()].copy_from_slice(a.as_slice());
                    buf[a.len()] = eb;
                    buf[a.len() + 1..total].copy_from_slice(c.as_slice());
                    set_prefix(pool, folded, &buf[..total]);
                    persist_node(pool, folded);
                    publish_slot(pool, slot, Tagged::Node(folded));
                    free_node(pool, gn);
                    free_node(pool, node);
                }
                Tagged::Null => unreachable!("count==1 implies a live child"),
            }
        } else if let Some(snt) = shrink_kind(node_type(pool, node), count) {
            let smaller = copy_to_kind(pool, node, snt)?;
            publish_slot(pool, slot, Tagged::Node(smaller));
            free_node(pool, node);
        }
        Ok(())
    }

    /// In-order traversal over every leaf.
    pub fn for_each_leaf<F: FnMut(PmPtr)>(&self, mut f: F) {
        fn walk<F: FnMut(PmPtr)>(pool: &PmemPool, t: Tagged, f: &mut F) {
            match t {
                Tagged::Null => {}
                Tagged::Leaf(l) => f(l),
                Tagged::Node(n) => {
                    for (_, c) in children_sorted(pool, n) {
                        walk(pool, c, f);
                    }
                }
            }
        }
        walk(&self.pool, read_slot(&self.pool, self.root_slot), &mut f);
    }

    /// Bounded in-order descent for `range`/`scan`: seek to `start` like a
    /// point search (the left spine compares compressed prefixes and skips
    /// smaller sibling edges), then emit leaves in key order until `end`,
    /// `limit`, or the tree is exhausted — O(depth + answer) node visits
    /// instead of one PM key read per live leaf.
    fn scan_ordered(&self, s: &[u8], e: &[u8], limit: usize) -> Vec<(Key, Value)> {
        /// Returns `false` once the traversal is done (past `end` or at
        /// `limit`); in-order visiting makes that a global stop.
        #[allow(clippy::too_many_arguments)]
        fn walk(
            pool: &PmemPool,
            t: Tagged,
            depth: usize,
            seeking: bool,
            s: &[u8],
            e: &[u8],
            limit: usize,
            out: &mut Vec<(Key, Value)>,
        ) -> bool {
            match t {
                Tagged::Null => true,
                Tagged::Leaf(l) => {
                    let k = leaf_read_key(pool, l);
                    let ks = k.as_slice();
                    if ks > e {
                        return false;
                    }
                    if ks >= s {
                        if let Ok(key) = Key::new(ks) {
                            let pv = leaf_read_pvalue(pool, l);
                            out.push((key, read_value(pool, pv, leaf_read_val_len(pool, l))));
                        }
                        if out.len() >= limit {
                            return false;
                        }
                    }
                    true
                }
                Tagged::Node(n) => {
                    let mut depth = depth;
                    let mut seeking = seeking;
                    if seeking {
                        // Compare the compressed prefix against the
                        // terminated start key: a smaller prefix byte means
                        // the whole subtree precedes `start` (skip it), a
                        // larger one that it follows (emit everything,
                        // still bounded by `end` at the leaves).
                        let pfx = prefix(pool, n);
                        for (i, &pb) in pfx.as_slice().iter().enumerate() {
                            match pb.cmp(&tb(s, depth + i)) {
                                std::cmp::Ordering::Less => return true,
                                std::cmp::Ordering::Greater => {
                                    seeking = false;
                                    break;
                                }
                                std::cmp::Ordering::Equal => {}
                            }
                        }
                        depth += pfx.as_slice().len();
                    }
                    let sb = tb(s, depth);
                    for (b, c) in children_sorted(pool, n) {
                        if seeking && b < sb {
                            continue;
                        }
                        if !walk(pool, c, depth + 1, seeking && b == sb, s, e, limit, out) {
                            return false;
                        }
                    }
                    true
                }
            }
        }
        let mut out = Vec::new();
        if s > e || limit == 0 {
            return out;
        }
        walk(
            &self.pool,
            read_slot(&self.pool, self.root_slot),
            0,
            true,
            s,
            e,
            limit,
            &mut out,
        );
        out
    }
}

impl PersistentIndex for Woart {
    fn insert(&self, key: &Key, value: &Value) -> Result<()> {
        let _g = self.lock.write();
        if self.insert_rec(self.root_slot, key, 0, value)? {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn search(&self, key: &Key) -> Result<Option<Value>> {
        let _g = self.lock.read();
        let pool = &self.pool;
        let kb = key.as_slice();
        let mut cur = read_slot(pool, self.root_slot);
        let mut depth = 0usize;
        loop {
            match cur {
                Tagged::Null => return Ok(None),
                Tagged::Leaf(l) => {
                    if leaf_read_key(pool, l).as_slice() != kb {
                        return Ok(None);
                    }
                    let pv = leaf_read_pvalue(pool, l);
                    if pv.is_null() {
                        return Ok(None);
                    }
                    return Ok(Some(read_value(pool, pv, leaf_read_val_len(pool, l))));
                }
                Tagged::Node(n) => {
                    let pfx = prefix(pool, n);
                    let p = pfx.as_slice();
                    if kb.len() < depth + p.len() || &kb[depth..depth + p.len()] != p {
                        return Ok(None);
                    }
                    depth += p.len();
                    let Some(slot) = find_child_slot(pool, n, tb(kb, depth)) else {
                        return Ok(None);
                    };
                    cur = read_slot(pool, slot);
                    depth += 1;
                }
            }
        }
    }

    fn update(&self, key: &Key, value: &Value) -> Result<bool> {
        let _g = self.lock.write();
        let pool = &self.pool;
        let kb = key.as_slice();
        // Locate the leaf, then run the out-of-place value swap.
        let mut cur = read_slot(pool, self.root_slot);
        let mut depth = 0usize;
        loop {
            match cur {
                Tagged::Null => return Ok(false),
                Tagged::Leaf(l) => {
                    if leaf_read_key(pool, l).as_slice() != kb {
                        return Ok(false);
                    }
                    self.update_value(l, value)?;
                    return Ok(true);
                }
                Tagged::Node(n) => {
                    let pfx = prefix(pool, n);
                    let p = pfx.as_slice();
                    if kb.len() < depth + p.len() || &kb[depth..depth + p.len()] != p {
                        return Ok(false);
                    }
                    depth += p.len();
                    let Some(slot) = find_child_slot(pool, n, tb(kb, depth)) else {
                        return Ok(false);
                    };
                    cur = read_slot(pool, slot);
                    depth += 1;
                }
            }
        }
    }

    fn remove(&self, key: &Key) -> Result<bool> {
        let _g = self.lock.write();
        let pool = &self.pool;
        let kb = key.as_slice();
        let removed = match read_slot(pool, self.root_slot) {
            Tagged::Null => false,
            Tagged::Leaf(l) => {
                if leaf_read_key(pool, l).as_slice() == kb {
                    publish_slot(pool, self.root_slot, Tagged::Null);
                    self.free_leaf(l);
                    true
                } else {
                    false
                }
            }
            Tagged::Node(n) => {
                let ok = self.remove_from_node(n, kb, 0)?;
                if ok {
                    self.fixup_after_remove(self.root_slot, n)?;
                }
                ok
            }
        };
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(removed)
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn memory_stats(&self) -> MemoryStats {
        // "WOART and ART+CoW do not use any DRAM" (§IV-E).
        MemoryStats {
            dram_bytes: std::mem::size_of::<Self>(),
            pm_bytes: self.pool.stats().snapshot().bytes_in_use as usize,
        }
    }

    fn range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, Value)>> {
        let _g = self.lock.read();
        Ok(self.scan_ordered(start.as_slice(), end.as_slice(), usize::MAX))
    }

    fn scan(&self, start: &Key, end: &Key, limit: usize) -> Result<Vec<(Key, Value)>> {
        let _g = self.lock.read();
        Ok(self.scan_ordered(start.as_slice(), end.as_slice(), limit))
    }

    fn name(&self) -> &'static str {
        "WOART"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fresh() -> Woart {
        Woart::with_config(PoolConfig::test_small()).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::from_str(s).unwrap()
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn roundtrip_basics() {
        let t = fresh();
        t.insert(&k("romane"), &v(1)).unwrap();
        t.insert(&k("romanus"), &v(2)).unwrap();
        t.insert(&k("romulus"), &v(3)).unwrap();
        assert_eq!(t.search(&k("romane")).unwrap().unwrap().as_u64(), 1);
        assert_eq!(t.search(&k("romanus")).unwrap().unwrap().as_u64(), 2);
        assert_eq!(t.search(&k("romulus")).unwrap().unwrap().as_u64(), 3);
        assert_eq!(t.search(&k("rom")).unwrap(), None);
        assert_eq!(t.search(&k("romanes")).unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn prefix_keys() {
        let t = fresh();
        for key in ["a", "ab", "abc", "abcd"] {
            t.insert(&k(key), &v(key.len() as u64)).unwrap();
        }
        for key in ["a", "ab", "abc", "abcd"] {
            assert_eq!(
                t.search(&k(key)).unwrap().unwrap().as_u64(),
                key.len() as u64
            );
        }
        assert!(t.remove(&k("ab")).unwrap());
        assert_eq!(t.search(&k("ab")).unwrap(), None);
        assert_eq!(t.search(&k("abc")).unwrap().unwrap().as_u64(), 3);
    }

    #[test]
    fn upsert_and_update() {
        let t = fresh();
        t.insert(&k("key"), &v(1)).unwrap();
        t.insert(&k("key"), &v(2)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.search(&k("key")).unwrap().unwrap().as_u64(), 2);
        assert!(t
            .update(&k("key"), &Value::new(b"0123456789abcdef").unwrap())
            .unwrap());
        assert_eq!(
            t.search(&k("key")).unwrap().unwrap().as_slice(),
            b"0123456789abcdef"
        );
        assert!(!t.update(&k("nope"), &v(0)).unwrap());
    }

    #[test]
    fn grows_and_shrinks_node_kinds() {
        let t = fresh();
        // 200 distinct first bytes forces NODE256 at the root.
        let keys: Vec<Key> = (0..200u64)
            .map(|i| Key::from_u64_base62(i * 62, 4))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            t.insert(key, &v(i as u64)).unwrap();
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(t.search(key).unwrap().unwrap().as_u64(), i as u64, "{key}");
        }
        // Remove most, forcing shrinks back down.
        for key in &keys[4..] {
            assert!(t.remove(key).unwrap());
        }
        for key in &keys[..4] {
            assert!(t.search(key).unwrap().is_some());
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn matches_btreemap_model() {
        let t = fresh();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        // Deterministic pseudo-random op sequence.
        let mut state = 0x1234_5678u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..4000 {
            let r = rng();
            let key_s = format!("K{:03}", r % 500);
            let key = k(&key_s);
            match r % 4 {
                0 | 1 => {
                    t.insert(&key, &v(r)).unwrap();
                    model.insert(key_s, r);
                }
                2 => {
                    let got = t.remove(&key).unwrap();
                    let expect = model.remove(&key_s).is_some();
                    assert_eq!(got, expect, "remove {key_s}");
                }
                _ => {
                    let got = t.search(&key).unwrap().map(|x| x.as_u64());
                    assert_eq!(got, model.get(&key_s).copied(), "search {key_s}");
                }
            }
            assert_eq!(t.len(), model.len());
        }
        // Final sweep.
        for (key_s, val) in &model {
            assert_eq!(t.search(&k(key_s)).unwrap().unwrap().as_u64(), *val);
        }
    }

    #[test]
    fn reopen_preserves_tree() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        let t = Woart::create(Arc::clone(&pool)).unwrap();
        for i in 0..500u64 {
            t.insert(&Key::from_u64_base62(i, 6), &v(i)).unwrap();
        }
        drop(t);
        let t2 = Woart::open(pool).unwrap();
        assert_eq!(t2.len(), 500);
        for i in 0..500u64 {
            assert_eq!(
                t2.search(&Key::from_u64_base62(i, 6))
                    .unwrap()
                    .unwrap()
                    .as_u64(),
                i
            );
        }
    }

    #[test]
    fn range_is_sorted_and_bounded() {
        let t = fresh();
        for i in (0..100u64).rev() {
            t.insert(&Key::from_u64_base62(i, 4), &v(i)).unwrap();
        }
        let lo = Key::from_u64_base62(10, 4);
        let hi = Key::from_u64_base62(20, 4);
        let got = t.range(&lo, &hi).unwrap();
        assert_eq!(got.len(), 11);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got[0].1.as_u64(), 10);
        assert_eq!(got[10].1.as_u64(), 20);
    }

    #[test]
    fn delete_everything_frees_pm() {
        let t = fresh();
        let baseline = t.pm_pool().stats().snapshot().bytes_in_use;
        for i in 0..300u64 {
            t.insert(&Key::from_u64_base62(i, 6), &v(i)).unwrap();
        }
        for i in 0..300u64 {
            assert!(t.remove(&Key::from_u64_base62(i, 6)).unwrap());
        }
        assert_eq!(t.len(), 0);
        assert_eq!(
            t.pm_pool().stats().snapshot().bytes_in_use,
            baseline,
            "all nodes, leaves and values must be freed"
        );
    }

    #[test]
    fn persists_are_counted() {
        let t = fresh();
        let before = t.pm_pool().stats().snapshot().persist_calls;
        t.insert(&k("abc"), &v(1)).unwrap();
        let after = t.pm_pool().stats().snapshot().persist_calls;
        assert!(after > before, "insert must issue persistent() calls");
    }
}
