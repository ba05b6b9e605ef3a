//! The WORT tree: fixed 16-way (nibble) radix nodes in PM.

use hart_epalloc::{
    leaf_read_key, leaf_read_pvalue, leaf_read_val_len, leaf_write_key, leaf_write_pvalue,
    persist_leaf_pvalue, LEAF_SIZE,
};
use hart_kv::{Error, Key, MemoryStats, PersistentIndex, Result, Value};
use hart_pm::{PmPtr, PmemPool, PoolConfig};
use hart_woart::layout::{alloc_value, free_value, publish_slot, read_slot, read_value, Tagged};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MAGIC: u64 = 0x574F_5254_3030_3031; // "WORT0001"

/// Node layout: `prefix_len u8 | pad u8 | prefix [14] (one nibble per
/// byte) | children [16] u64`.
const OFF_PREFIX_LEN: u64 = 0;
const OFF_PREFIX: u64 = 2;
const OFF_CHILDREN: u64 = 16;
const MAX_PREFIX: usize = 14;
const NODE_SIZE: usize = 16 + 16 * 8;
const NODE_ALIGN: u64 = 64;
const FANOUT: u8 = 16;

/// Nibble `i` of the terminated view of `key` (two nibbles per byte, high
/// first; the byte at `key.len()` is the implicit 0 terminator).
#[inline]
fn nib(key: &[u8], i: usize) -> u8 {
    let byte = if i / 2 >= key.len() { 0 } else { key[i / 2] };
    if i.is_multiple_of(2) {
        byte >> 4
    } else {
        byte & 0x0F
    }
}

/// Nibbles in the terminated view.
#[inline]
fn nib_len(key: &[u8]) -> usize {
    2 * (key.len() + 1)
}

fn alloc_node(pool: &PmemPool, prefix: &[u8]) -> Result<PmPtr> {
    debug_assert!(prefix.len() <= MAX_PREFIX);
    let p = pool
        .alloc_raw(NODE_SIZE, NODE_ALIGN)
        .ok_or(Error::PmExhausted)?;
    set_prefix(pool, p, prefix);
    Ok(p)
}

fn free_node(pool: &PmemPool, node: PmPtr) {
    pool.free_raw(node, NODE_SIZE, NODE_ALIGN);
}

fn persist_node(pool: &PmemPool, node: PmPtr) {
    pool.persist(node, NODE_SIZE);
}

fn prefix_of(pool: &PmemPool, node: PmPtr) -> ([u8; MAX_PREFIX], usize) {
    let len = (pool.read::<u8>(node.add(OFF_PREFIX_LEN)) as usize).min(MAX_PREFIX);
    let mut buf = [0u8; MAX_PREFIX];
    pool.read_bytes(node.add(OFF_PREFIX), &mut buf);
    (buf, len)
}

fn set_prefix(pool: &PmemPool, node: PmPtr, p: &[u8]) {
    let mut buf = [0u8; MAX_PREFIX];
    buf[..p.len()].copy_from_slice(p);
    pool.write(node.add(OFF_PREFIX_LEN), &(p.len() as u8));
    pool.write_bytes(node.add(OFF_PREFIX), &buf);
}

/// Persisted copy of `node` under a new prefix (the published node is left
/// untouched, so a crash before the slot store that publishes the copy
/// loses nothing).
fn copy_with_prefix(pool: &PmemPool, node: PmPtr, prefix: &[u8]) -> Result<PmPtr> {
    let copy = alloc_node(pool, prefix)?;
    for (b, child) in children(pool, node) {
        pool.write_u64_atomic(child_slot(copy, b), child.encode());
    }
    persist_node(pool, copy);
    Ok(copy)
}

#[inline]
fn child_slot(node: PmPtr, b: u8) -> PmPtr {
    debug_assert!(b < FANOUT);
    node.add(OFF_CHILDREN + 8 * b as u64)
}

/// Live children as `(nibble, child)` pairs, in nibble order (scanning 16
/// slots — WORT keeps no count, so structure checks are recomputed).
fn children(pool: &PmemPool, node: PmPtr) -> Vec<(u8, Tagged)> {
    (0..FANOUT)
        .filter_map(|b| {
            let c = read_slot(pool, child_slot(node, b));
            (!c.is_null()).then_some((b, c))
        })
        .collect()
}

/// Write Optimal Radix Tree, entirely in emulated PM.
pub struct Wort {
    pool: Arc<PmemPool>,
    lock: RwLock<()>,
    len: AtomicUsize,
    root_slot: PmPtr,
}

impl Wort {
    /// Format a fresh pool.
    pub fn create(pool: Arc<PmemPool>) -> Result<Wort> {
        let base = pool.root_area(16);
        pool.write_zeros(base, 16);
        pool.persist(base, 16);
        pool.write_u64_atomic(base, MAGIC);
        pool.persist(base, 8);
        Ok(Wort {
            root_slot: base.add(8),
            pool,
            lock: RwLock::new(()),
            len: AtomicUsize::new(0),
        })
    }

    /// Open an existing pool (pure-PM tree: only the count is re-derived).
    pub fn open(pool: Arc<PmemPool>) -> Result<Wort> {
        let base = pool.root_area(16);
        if pool.read::<u64>(base) != MAGIC {
            return Err(Error::Corrupted("bad WORT magic"));
        }
        let t = Wort {
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
    pub fn with_config(cfg: PoolConfig) -> Result<Wort> {
        Wort::create(Arc::new(PmemPool::new(cfg)))
    }

    /// The underlying pool.
    pub fn pm_pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    fn make_leaf(&self, key: &Key, value: &Value) -> Result<PmPtr> {
        let pool = &self.pool;
        let vptr = alloc_value(pool, value)?;
        let leaf = pool.alloc_raw(LEAF_SIZE, 8).ok_or(Error::PmExhausted)?;
        leaf_write_key(pool, leaf, key);
        leaf_write_pvalue(pool, leaf, vptr, value.len());
        pool.persist(leaf, LEAF_SIZE);
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

    fn update_value(&self, leaf: PmPtr, value: &Value) -> Result<()> {
        let pool = &self.pool;
        let old = leaf_read_pvalue(pool, leaf);
        let old_len = leaf_read_val_len(pool, leaf);
        let new = alloc_value(pool, value)?;
        leaf_write_pvalue(pool, leaf, new, value.len());
        persist_leaf_pvalue(pool, leaf);
        if !old.is_null() {
            free_value(pool, old, old_len);
        }
        Ok(())
    }

    /// Build a (possibly chained) subtree joining `existing` and a new
    /// leaf whose keys first diverge at nibble `depth + lcp`. Returns the
    /// fully persisted top node (not yet published).
    fn build_split(
        &self,
        existing: PmPtr,
        ek: &[u8],
        key: &[u8],
        new_leaf: PmPtr,
        depth: usize,
        lcp: usize,
    ) -> Result<PmPtr> {
        let pool = &self.pool;
        let take = lcp.min(MAX_PREFIX);
        let pfx: Vec<u8> = (0..take).map(|i| nib(key, depth + i)).collect();
        let node = alloc_node(pool, &pfx)?;
        if take < lcp {
            // The common run continues: chain another node underneath the
            // shared nibble.
            let shared = nib(key, depth + take);
            let inner = self.build_split(
                existing,
                ek,
                key,
                new_leaf,
                depth + take + 1,
                lcp - take - 1,
            )?;
            pool.write_u64_atomic(child_slot(node, shared), Tagged::Node(inner).encode());
        } else {
            let b_old = nib(ek, depth + lcp);
            let b_new = nib(key, depth + lcp);
            debug_assert_ne!(b_old, b_new, "distinct keys must diverge");
            pool.write_u64_atomic(child_slot(node, b_old), Tagged::Leaf(existing).encode());
            pool.write_u64_atomic(child_slot(node, b_new), Tagged::Leaf(new_leaf).encode());
        }
        persist_node(pool, node);
        Ok(node)
    }

    fn insert_rec(&self, slot: PmPtr, key: &Key, depth: usize, value: &Value) -> Result<bool> {
        let pool = &self.pool;
        let kb = key.as_slice();
        match read_slot(pool, slot) {
            Tagged::Null => {
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
                let lks = lk.as_slice();
                let mut lcp = 0;
                let max = nib_len(lks).min(nib_len(kb));
                while depth + lcp < max && nib(lks, depth + lcp) == nib(kb, depth + lcp) {
                    lcp += 1;
                }
                let new_leaf = self.make_leaf(key, value)?;
                let top = self.build_split(l, lks, kb, new_leaf, depth, lcp)?;
                publish_slot(pool, slot, Tagged::Node(top));
                Ok(true)
            }
            Tagged::Node(n) => {
                let (p, plen) = prefix_of(pool, n);
                let mut m = 0;
                let kmax = nib_len(kb);
                while m < plen && depth + m < kmax && nib(kb, depth + m) == p[m] {
                    m += 1;
                }
                if m < plen {
                    // Prefix split: a copy of the old node with the
                    // truncated prefix goes under a new parent, and one
                    // atomic slot store publishes both.
                    let e_old = p[m];
                    let b_new = nib(kb, depth + m);
                    debug_assert_ne!(e_old, b_new);
                    let new_leaf = self.make_leaf(key, value)?;
                    let truncated = copy_with_prefix(pool, n, &p[m + 1..plen])?;
                    let parent = alloc_node(pool, &p[..m])?;
                    pool.write_u64_atomic(
                        child_slot(parent, e_old),
                        Tagged::Node(truncated).encode(),
                    );
                    pool.write_u64_atomic(
                        child_slot(parent, b_new),
                        Tagged::Leaf(new_leaf).encode(),
                    );
                    persist_node(pool, parent);
                    publish_slot(pool, slot, Tagged::Node(parent));
                    free_node(pool, n);
                    Ok(true)
                } else {
                    let depth = depth + plen;
                    let b = nib(kb, depth);
                    let cslot = child_slot(n, b);
                    if read_slot(pool, cslot).is_null() {
                        // The write-optimal case: one leaf persist + one
                        // 8-byte atomic slot publish, nothing else.
                        let new_leaf = self.make_leaf(key, value)?;
                        publish_slot(pool, cslot, Tagged::Leaf(new_leaf));
                        Ok(true)
                    } else {
                        self.insert_rec(cslot, key, depth + 1, value)
                    }
                }
            }
        }
    }

    /// Post-delete maintenance: empty nodes vanish; single-child nodes
    /// collapse into the child when the merged prefix fits.
    fn fixup(&self, slot: PmPtr, node: PmPtr) -> Result<()> {
        let pool = &self.pool;
        let kids = children(pool, node);
        match kids.len() {
            0 => {
                publish_slot(pool, slot, Tagged::Null);
                free_node(pool, node);
            }
            1 => {
                let (eb, only) = kids[0];
                match only {
                    Tagged::Leaf(l) => {
                        publish_slot(pool, slot, Tagged::Leaf(l));
                        free_node(pool, node);
                    }
                    Tagged::Node(gn) => {
                        let (p, plen) = prefix_of(pool, node);
                        let (gp, gplen) = prefix_of(pool, gn);
                        if plen + 1 + gplen <= MAX_PREFIX {
                            let mut merged = Vec::with_capacity(plen + 1 + gplen);
                            merged.extend_from_slice(&p[..plen]);
                            merged.push(eb);
                            merged.extend_from_slice(&gp[..gplen]);
                            let folded = copy_with_prefix(pool, gn, &merged)?;
                            publish_slot(pool, slot, Tagged::Node(folded));
                            free_node(pool, gn);
                            free_node(pool, node);
                        }
                        // Otherwise keep the single-child node: correct,
                        // just not maximally compressed.
                    }
                    Tagged::Null => unreachable!(),
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn remove_rec(&self, slot: PmPtr, key: &[u8], depth: usize) -> Result<bool> {
        let pool = &self.pool;
        let Tagged::Node(node) = read_slot(pool, slot) else {
            unreachable!()
        };
        let (p, plen) = prefix_of(pool, node);
        let kmax = nib_len(key);
        for (i, &pn) in p[..plen].iter().enumerate() {
            if depth + i >= kmax || nib(key, depth + i) != pn {
                return Ok(false);
            }
        }
        let depth = depth + plen;
        let b = nib(key, depth);
        let cslot = child_slot(node, b);
        let removed = match read_slot(pool, cslot) {
            Tagged::Null => false,
            Tagged::Leaf(l) => {
                if leaf_read_key(pool, l).as_slice() == key {
                    publish_slot(pool, cslot, Tagged::Null);
                    self.free_leaf(l);
                    true
                } else {
                    false
                }
            }
            Tagged::Node(_) => self.remove_rec(cslot, key, depth + 1)?,
        };
        if removed {
            self.fixup(slot, node)?;
        }
        Ok(removed)
    }

    /// In-order traversal over every leaf (nibble order = byte order).
    pub fn for_each_leaf<F: FnMut(PmPtr)>(&self, mut f: F) {
        fn walk<F: FnMut(PmPtr)>(pool: &PmemPool, t: Tagged, f: &mut F) {
            match t {
                Tagged::Null => {}
                Tagged::Leaf(l) => f(l),
                Tagged::Node(n) => {
                    for (_, c) in children(pool, n) {
                        walk(pool, c, f);
                    }
                }
            }
        }
        walk(&self.pool, read_slot(&self.pool, self.root_slot), &mut f);
    }

    /// Bounded in-order descent for `range`/`scan`: seek to `start` like a
    /// point search (the left spine compares prefix nibbles and skips
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
                        // Compare the prefix nibbles against the terminated
                        // start key: a smaller prefix nibble means the whole
                        // subtree precedes `start` (skip it), a larger one
                        // that it follows (emit everything, still bounded by
                        // `end` at the leaves).
                        let (pfx, plen) = prefix_of(pool, n);
                        for (i, &pn) in pfx[..plen].iter().enumerate() {
                            match pn.cmp(&nib(s, depth + i)) {
                                std::cmp::Ordering::Less => return true,
                                std::cmp::Ordering::Greater => {
                                    seeking = false;
                                    break;
                                }
                                std::cmp::Ordering::Equal => {}
                            }
                        }
                        depth += plen;
                    }
                    let sn = nib(s, depth);
                    for (b, c) in children(pool, n) {
                        if seeking && b < sn {
                            continue;
                        }
                        if !walk(pool, c, depth + 1, seeking && b == sn, s, e, limit, out) {
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

    fn descend(&self, key: &[u8]) -> Option<PmPtr> {
        let pool = &self.pool;
        let mut cur = read_slot(pool, self.root_slot);
        let mut depth = 0usize;
        let kmax = nib_len(key);
        loop {
            match cur {
                Tagged::Null => return None,
                Tagged::Leaf(l) => {
                    return (leaf_read_key(pool, l).as_slice() == key).then_some(l);
                }
                Tagged::Node(n) => {
                    let (p, plen) = prefix_of(pool, n);
                    for (i, &pn) in p[..plen].iter().enumerate() {
                        if depth + i >= kmax || nib(key, depth + i) != pn {
                            return None;
                        }
                    }
                    depth += plen;
                    if depth >= kmax {
                        return None;
                    }
                    cur = read_slot(pool, child_slot(n, nib(key, depth)));
                    depth += 1;
                }
            }
        }
    }
}

impl PersistentIndex for Wort {
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
        Ok(self.descend(key.as_slice()).map(|leaf| {
            let pv = leaf_read_pvalue(pool, leaf);
            read_value(pool, pv, leaf_read_val_len(pool, leaf))
        }))
    }

    fn update(&self, key: &Key, value: &Value) -> Result<bool> {
        let _g = self.lock.write();
        match self.descend(key.as_slice()) {
            Some(leaf) => {
                self.update_value(leaf, value)?;
                Ok(true)
            }
            None => Ok(false),
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
            Tagged::Node(_) => self.remove_rec(self.root_slot, kb, 0)?,
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
        "WORT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fresh() -> Wort {
        Wort::with_config(PoolConfig::test_small()).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::from_str(s).unwrap()
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn nibble_view() {
        assert_eq!(nib(b"\x12", 0), 1);
        assert_eq!(nib(b"\x12", 1), 2);
        assert_eq!(nib(b"\x12", 2), 0, "terminator high nibble");
        assert_eq!(nib(b"\x12", 3), 0, "terminator low nibble");
        assert_eq!(nib_len(b"ab"), 6);
    }

    #[test]
    fn basic_roundtrip() {
        let t = fresh();
        for (i, key) in ["romane", "romanus", "romulus", "a", "ab"]
            .iter()
            .enumerate()
        {
            t.insert(&k(key), &v(i as u64)).unwrap();
        }
        for (i, key) in ["romane", "romanus", "romulus", "a", "ab"]
            .iter()
            .enumerate()
        {
            assert_eq!(
                t.search(&k(key)).unwrap().unwrap().as_u64(),
                i as u64,
                "{key}"
            );
        }
        assert_eq!(t.search(&k("roman")).unwrap(), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn long_common_prefixes_chain_nodes() {
        // 20 shared bytes = 40 shared nibbles — far beyond one node's
        // 14-nibble prefix, forcing build_split to chain.
        let t = fresh();
        let a = k("aaaaaaaaaaaaaaaaaaaaAB");
        let b = k("aaaaaaaaaaaaaaaaaaaaCD");
        t.insert(&a, &v(1)).unwrap();
        t.insert(&b, &v(2)).unwrap();
        assert_eq!(t.search(&a).unwrap().unwrap().as_u64(), 1);
        assert_eq!(t.search(&b).unwrap().unwrap().as_u64(), 2);
        assert!(t.remove(&a).unwrap());
        assert_eq!(t.search(&b).unwrap().unwrap().as_u64(), 2);
    }

    #[test]
    fn matches_btreemap_model() {
        let t = fresh();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        let mut state = 0x5EED_1234u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..4000 {
            let r = rng();
            let key_s = format!("K{:03}", r % 400);
            let key = k(&key_s);
            match r % 4 {
                0 | 1 => {
                    t.insert(&key, &v(r)).unwrap();
                    model.insert(key_s, r);
                }
                2 => {
                    assert_eq!(t.remove(&key).unwrap(), model.remove(&key_s).is_some());
                }
                _ => {
                    assert_eq!(
                        t.search(&key).unwrap().map(|x| x.as_u64()),
                        model.get(&key_s).copied()
                    );
                }
            }
            assert_eq!(t.len(), model.len());
        }
    }

    #[test]
    fn reopen_preserves_tree() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        let t = Wort::create(Arc::clone(&pool)).unwrap();
        for i in 0..500u64 {
            t.insert(&Key::from_u64_base62(i, 6), &v(i)).unwrap();
        }
        drop(t);
        let t2 = Wort::open(pool).unwrap();
        assert_eq!(t2.len(), 500);
        for i in (0..500u64).step_by(7) {
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
    fn range_is_sorted() {
        let t = fresh();
        for i in (0..100u64).rev() {
            t.insert(&Key::from_u64_base62(i, 4), &v(i)).unwrap();
        }
        let got = t
            .range(&Key::from_u64_base62(20, 4), &Key::from_u64_base62(40, 4))
            .unwrap();
        assert_eq!(got.len(), 21);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn update_swaps_values() {
        let t = fresh();
        t.insert(&k("key"), &v(1)).unwrap();
        assert!(t
            .update(&k("key"), &Value::new(b"0123456789abcdef").unwrap())
            .unwrap());
        assert_eq!(
            t.search(&k("key")).unwrap().unwrap().as_slice(),
            b"0123456789abcdef"
        );
        assert!(!t.update(&k("absent"), &v(0)).unwrap());
    }

    #[test]
    fn deeper_than_woart_but_smaller_nodes() {
        // Sanity on the design tension: nibble fanout doubles depth but
        // bounds node size at 144 B.
        assert_eq!(NODE_SIZE, 144);
        let t = fresh();
        for i in 0..1000u64 {
            t.insert(&Key::from_u64_base62(i, 8), &v(i)).unwrap();
        }
        assert_eq!(t.len(), 1000);
        for i in (0..1000u64).step_by(97) {
            assert!(t.search(&Key::from_u64_base62(i, 8)).unwrap().is_some());
        }
    }
}
