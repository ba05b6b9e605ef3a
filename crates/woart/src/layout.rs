//! PM node layouts shared by WOART and ART+CoW.
//!
//! All four adaptive node kinds live in emulated PM and are manipulated
//! through pool accessors (so traversals pay PM read latency and mutations
//! pay `persistent()` costs). Layouts, offsets in bytes:
//!
//! ```text
//! common header   0 type | 1 prefix_len | 2..4 word (u16) | 4..28 prefix
//! NODE4           28..32 keys[4]            32..64   children[4]    (64 B)
//! NODE16          28..44 keys[16], pad      48..176  children[16]  (176 B)
//! NODE48          28..284 index[256], pad   288..672 children[48]  (672 B)
//! NODE256         pad                       32..2080 children[256] (2080 B)
//! ```
//!
//! Child pointers are **tagged**: bit 0 set marks a leaf (all allocations
//! are ≥8-byte aligned, so the bit is free), `0` is null — the 8-byte unit
//! every publish step stores atomically.
//!
//! NODE4/NODE16 keep keys *unsorted*, as WOART does: sorted insertion would
//! shift entries, multiplying PM writes. Their header word is a validity
//! bitmap (bit `i` set = entry `i` live; count = popcount): an add writes
//! a free entry and then sets its bit, a remove clears one bit, so every
//! change commits with one store to the header. NODE48/NODE256 keep a live
//! count there instead.
//!
//! Leaves reuse HART's 40-byte layout (`hart_epalloc::leaf_*`): complete
//! key, key/value lengths, out-of-leaf value pointer.

use hart_kv::{Error, InlineKey, Result, Value, MAX_VALUE_LEN};
use hart_pm::{PmPtr, PmemPool, Pod};

/// Non-persisting PM store for the volatile node-build family. Every
/// deferred write in this file funnels through these two helpers so the
/// build-then-persist-wholesale contract is waived exactly once per
/// store kind instead of at each of the eight call sites.
#[inline]
fn write_vol<T: Pod>(pool: &PmemPool, p: PmPtr, v: &T) {
    // pmlint: deferred-persist(volatile build: every caller persists the whole node before publishing; the artcow cow_replace closure path inverts control, so R1 cannot see it)
    pool.write(p, v);
}

/// See [`write_vol`]: the atomic (tagged-child) flavor.
#[inline]
fn write_vol_u64(pool: &PmemPool, p: PmPtr, v: u64) {
    // pmlint: deferred-persist(volatile build: every caller persists the whole node before publishing; the artcow cow_replace closure path inverts control, so R1 cannot see it)
    pool.write_u64_atomic(p, v);
}

/// Node-kind discriminants stored in the type byte.
pub const NT_N4: u8 = 1;
pub const NT_N16: u8 = 2;
pub const NT_N48: u8 = 3;
pub const NT_N256: u8 = 4;

const OFF_TYPE: u64 = 0;
const OFF_PREFIX_LEN: u64 = 1;
const OFF_COUNT: u64 = 2;
const OFF_PREFIX: u64 = 4;

const N4_KEYS: u64 = 28;
const N4_CHILDREN: u64 = 32;
const N16_KEYS: u64 = 28;
const N16_CHILDREN: u64 = 48;
const N48_INDEX: u64 = 28;
const N48_CHILDREN: u64 = 288;
const N256_CHILDREN: u64 = 32;

const NO_SLOT: u8 = 0xFF;

/// Node alignment (one cache line).
pub const NODE_ALIGN: u64 = 64;

/// Size in bytes of a node of kind `nt`.
pub fn node_size(nt: u8) -> usize {
    match nt {
        NT_N4 => 64,
        NT_N16 => 176,
        NT_N48 => 672,
        NT_N256 => 2080,
        _ => panic!("bad node type {nt}"),
    }
}

/// Capacity of a node kind.
pub fn node_capacity(nt: u8) -> usize {
    match nt {
        NT_N4 => 4,
        NT_N16 => 16,
        NT_N48 => 48,
        NT_N256 => 256,
        _ => panic!("bad node type {nt}"),
    }
}

/// A tagged child pointer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tagged {
    Null,
    Leaf(PmPtr),
    Node(PmPtr),
}

impl Tagged {
    /// Decode from the stored u64.
    #[inline]
    pub fn decode(raw: u64) -> Tagged {
        if raw == 0 {
            Tagged::Null
        } else if raw & 1 == 1 {
            Tagged::Leaf(PmPtr(raw & !1))
        } else {
            Tagged::Node(PmPtr(raw))
        }
    }

    /// Encode to the stored u64.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            Tagged::Null => 0,
            Tagged::Leaf(p) => p.offset() | 1,
            Tagged::Node(p) => p.offset(),
        }
    }

    /// True for [`Tagged::Null`].
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Tagged::Null)
    }
}

/// Read the tagged child stored in `slot`.
#[inline]
pub fn read_slot(pool: &PmemPool, slot: PmPtr) -> Tagged {
    Tagged::decode(pool.read::<u64>(slot))
}

/// Publish a child into `slot`: the 8-byte atomic store + persist that
/// makes every structural change visible and durable at once.
pub fn publish_slot(pool: &PmemPool, slot: PmPtr, child: Tagged) {
    pool.write_u64_atomic(slot, child.encode());
    pool.persist(slot, 8);
}

// ----------------------------------------------------------------- nodes

/// Allocate a zeroed node of kind `nt` with the given prefix. The caller
/// fills children and then calls [`persist_node`] before publishing.
pub fn alloc_node(pool: &PmemPool, nt: u8, prefix: &[u8]) -> Result<PmPtr> {
    let p = pool
        .alloc_raw(node_size(nt), NODE_ALIGN)
        .ok_or(Error::PmExhausted)?;
    pool.write(p.add(OFF_TYPE), &nt);
    if nt == NT_N48 {
        pool.write_bytes(p.add(N48_INDEX), &[NO_SLOT; 256]);
    }
    set_prefix(pool, p, prefix);
    Ok(p)
}

/// Return a node to the pool.
pub fn free_node(pool: &PmemPool, node: PmPtr) {
    let nt = node_type(pool, node);
    pool.free_raw(node, node_size(nt), NODE_ALIGN);
}

/// Persist the entire node (one `persistent()` call).
pub fn persist_node(pool: &PmemPool, node: PmPtr) {
    let nt = node_type(pool, node);
    pool.persist(node, node_size(nt));
}

/// Node kind byte.
#[inline]
pub fn node_type(pool: &PmemPool, node: PmPtr) -> u8 {
    pool.read::<u8>(node.add(OFF_TYPE))
}

/// Live child count (one header read).
#[inline]
pub fn node_count(pool: &PmemPool, node: PmPtr) -> usize {
    let h = pool.read::<u32>(node.add(OFF_TYPE)).to_ne_bytes();
    live_count(h[0], u16::from_ne_bytes([h[2], h[3]]))
}

/// The header word: NODE4/NODE16 validity bitmap, NODE48/NODE256 count.
#[inline]
fn node_word(pool: &PmemPool, node: PmPtr) -> u16 {
    pool.read::<u16>(node.add(OFF_COUNT))
}

/// Live children of a node of kind `nt` with header word `word`.
#[inline]
fn live_count(nt: u8, word: u16) -> usize {
    match nt {
        NT_N4 | NT_N16 => word.count_ones() as usize,
        _ => word as usize,
    }
}

/// Whether bitmap entry `i` is live.
#[inline]
fn live(word: u16, i: usize) -> bool {
    word & (1 << i) != 0
}

fn set_word(pool: &PmemPool, node: PmPtr, w: u16) {
    write_vol(pool, node.add(OFF_COUNT), &w);
}

fn set_count(pool: &PmemPool, node: PmPtr, c: usize) {
    set_word(pool, node, c as u16);
}

/// Compressed path prefix.
pub fn prefix(pool: &PmemPool, node: PmPtr) -> InlineKey {
    let len = pool.read::<u8>(node.add(OFF_PREFIX_LEN)) as usize;
    let mut buf = [0u8; 24];
    pool.read_bytes(node.add(OFF_PREFIX), &mut buf);
    InlineKey::from_slice(&buf[..len.min(24)])
}

/// Overwrite the prefix (caller persists — header region).
pub fn set_prefix(pool: &PmemPool, node: PmPtr, p: &[u8]) {
    debug_assert!(p.len() <= 24);
    let mut buf = [0u8; 24];
    buf[..p.len()].copy_from_slice(p);
    pool.write(node.add(OFF_PREFIX_LEN), &(p.len() as u8));
    pool.write_bytes(node.add(OFF_PREFIX), &buf);
}

/// Persist the header region (type/count/prefix + N4 keys — one line).
pub fn persist_header(pool: &PmemPool, node: PmPtr) {
    pool.persist(node, 64);
}

/// Find the slot (pointer to the 8-byte child word) for edge byte `b`.
pub fn find_child_slot(pool: &PmemPool, node: PmPtr, b: u8) -> Option<PmPtr> {
    let nt = node_type(pool, node);
    let word = node_word(pool, node);
    match nt {
        NT_N4 => {
            let mut keys = [0u8; 4];
            pool.read_bytes(node.add(N4_KEYS), &mut keys);
            (0..4)
                .find(|&i| live(word, i) && keys[i] == b)
                .map(|i| node.add(N4_CHILDREN + 8 * i as u64))
        }
        NT_N16 => {
            let mut keys = [0u8; 16];
            pool.read_bytes(node.add(N16_KEYS), &mut keys);
            (0..16)
                .find(|&i| live(word, i) && keys[i] == b)
                .map(|i| node.add(N16_CHILDREN + 8 * i as u64))
        }
        NT_N48 => {
            let slot = pool.read::<u8>(node.add(N48_INDEX + b as u64));
            (slot != NO_SLOT).then(|| node.add(N48_CHILDREN + 8 * slot as u64))
        }
        NT_N256 => {
            let slot = node.add(N256_CHILDREN + 8 * b as u64);
            (!read_slot(pool, slot).is_null()).then_some(slot)
        }
        _ => panic!("bad node type {nt}"),
    }
}

/// Add edge `b -> child` to a node with room. Returns `false` when full
/// (caller grows first). Writes the entry then persists the touched
/// region(s) — the WOART-style append.
pub fn add_child(pool: &PmemPool, node: PmPtr, b: u8, child: Tagged) -> bool {
    let nt = node_type(pool, node);
    let word = node_word(pool, node);
    let count = live_count(nt, word);
    if nt != NT_N256 && count >= node_capacity(nt) {
        return false;
    }
    match nt {
        NT_N4 => {
            let i = word.trailing_ones() as u64;
            pool.write(node.add(N4_KEYS + i), &b);
            pool.write_u64_atomic(node.add(N4_CHILDREN + 8 * i), child.encode());
            set_word(pool, node, word | 1 << i);
            // Entire NODE4 is one line: single flush covers entry + bit.
            persist_header(pool, node);
        }
        NT_N16 => {
            let i = word.trailing_ones() as u64;
            pool.write(node.add(N16_KEYS + i), &b);
            pool.write_u64_atomic(node.add(N16_CHILDREN + 8 * i), child.encode());
            pool.persist(node.add(N16_CHILDREN + 8 * i), 8);
            set_word(pool, node, word | 1 << i);
            persist_header(pool, node);
        }
        NT_N48 => {
            // The count is persisted before the child slot and the index
            // byte (and dropped after them on removal), so after a crash it
            // stays an upper bound on the non-null child slots: a count
            // below 48 always leaves a free slot.
            set_count(pool, node, count + 1);
            persist_header(pool, node);
            // First free child slot (deletes leave holes).
            let mut slot = None;
            for i in 0..48u64 {
                if read_slot(pool, node.add(N48_CHILDREN + 8 * i)).is_null() {
                    slot = Some(i);
                    break;
                }
            }
            let i = slot.expect("count < 48 implies a free slot");
            pool.write_u64_atomic(node.add(N48_CHILDREN + 8 * i), child.encode());
            pool.persist(node.add(N48_CHILDREN + 8 * i), 8);
            pool.write(node.add(N48_INDEX + b as u64), &(i as u8));
            pool.persist(node.add(N48_INDEX + b as u64), 1);
        }
        NT_N256 => {
            set_count(pool, node, count + 1);
            persist_header(pool, node);
            pool.write_u64_atomic(node.add(N256_CHILDREN + 8 * b as u64), child.encode());
            pool.persist(node.add(N256_CHILDREN + 8 * b as u64), 8);
        }
        _ => panic!("bad node type {nt}"),
    }
    true
}

/// Remove the edge for byte `b`. Returns `false` when absent.
pub fn remove_child(pool: &PmemPool, node: PmPtr, b: u8) -> bool {
    let nt = node_type(pool, node);
    let word = node_word(pool, node);
    let count = live_count(nt, word);
    match nt {
        NT_N4 | NT_N16 => {
            let (keys_off, cap) = if nt == NT_N4 {
                (N4_KEYS, 4usize)
            } else {
                (N16_KEYS, 16usize)
            };
            let mut keys = [0u8; 16];
            pool.read_bytes(node.add(keys_off), &mut keys[..cap]);
            let Some(pos) = (0..cap).find(|&i| live(word, i) && keys[i] == b) else {
                return false;
            };
            // One bit clear retires the entry; its bytes stay until a
            // later add reuses the position.
            set_word(pool, node, word & !(1 << pos));
            persist_header(pool, node);
            true
        }
        NT_N48 => {
            let slot = pool.read::<u8>(node.add(N48_INDEX + b as u64));
            if slot == NO_SLOT {
                return false;
            }
            pool.write(node.add(N48_INDEX + b as u64), &NO_SLOT);
            pool.persist(node.add(N48_INDEX + b as u64), 1);
            pool.write_u64_atomic(node.add(N48_CHILDREN + 8 * slot as u64), 0);
            pool.persist(node.add(N48_CHILDREN + 8 * slot as u64), 8);
            set_count(pool, node, count - 1);
            persist_header(pool, node);
            true
        }
        NT_N256 => {
            let slot = node.add(N256_CHILDREN + 8 * b as u64);
            if read_slot(pool, slot).is_null() {
                return false;
            }
            pool.write_u64_atomic(slot, 0);
            pool.persist(slot, 8);
            set_count(pool, node, count - 1);
            persist_header(pool, node);
            true
        }
        _ => panic!("bad node type {nt}"),
    }
}

/// All live `(byte, child)` edges, sorted by byte (for ordered traversal).
pub fn children_sorted(pool: &PmemPool, node: PmPtr) -> Vec<(u8, Tagged)> {
    let nt = node_type(pool, node);
    let word = node_word(pool, node);
    let mut out = Vec::with_capacity(live_count(nt, word));
    match nt {
        NT_N4 | NT_N16 => {
            let (keys_off, ch_off, cap) = if nt == NT_N4 {
                (N4_KEYS, N4_CHILDREN, 4usize)
            } else {
                (N16_KEYS, N16_CHILDREN, 16)
            };
            let mut keys = [0u8; 16];
            pool.read_bytes(node.add(keys_off), &mut keys[..cap]);
            for (i, &b) in keys[..cap].iter().enumerate() {
                if live(word, i) {
                    out.push((b, read_slot(pool, node.add(ch_off + 8 * i as u64))));
                }
            }
            out.sort_unstable_by_key(|(b, _)| *b);
        }
        NT_N48 => {
            for b in 0..=255u8 {
                let slot = pool.read::<u8>(node.add(N48_INDEX + b as u64));
                if slot != NO_SLOT {
                    out.push((b, read_slot(pool, node.add(N48_CHILDREN + 8 * slot as u64))));
                }
            }
        }
        NT_N256 => {
            for b in 0..=255u8 {
                let c = read_slot(pool, node.add(N256_CHILDREN + 8 * b as u64));
                if !c.is_null() {
                    out.push((b, c));
                }
            }
        }
        _ => panic!("bad node type {nt}"),
    }
    out
}

/// Copy `node`'s edges and prefix into a freshly allocated node of kind
/// `new_nt` (grow or shrink), persist it, and return it. The caller
/// publishes it into the parent slot and frees the old node.
pub fn copy_to_kind(pool: &PmemPool, node: PmPtr, new_nt: u8) -> Result<PmPtr> {
    let pfx = prefix(pool, node);
    let bigger = alloc_node(pool, new_nt, pfx.as_slice())?;
    for (b, child) in children_sorted(pool, node) {
        let ok = add_child_volatile(pool, bigger, b, child);
        debug_assert!(ok);
    }
    persist_node(pool, bigger);
    Ok(bigger)
}

/// `add_child` without per-entry persists — used while building a node
/// that will be persisted wholesale before publication.
pub fn add_child_volatile(pool: &PmemPool, node: PmPtr, b: u8, child: Tagged) -> bool {
    let nt = node_type(pool, node);
    let word = node_word(pool, node);
    let count = live_count(nt, word);
    if count == node_capacity(nt) {
        return false;
    }
    match nt {
        NT_N4 | NT_N16 => {
            let (keys_off, ch_off) = if nt == NT_N4 {
                (N4_KEYS, N4_CHILDREN)
            } else {
                (N16_KEYS, N16_CHILDREN)
            };
            let i = word.trailing_ones() as u64;
            write_vol(pool, node.add(keys_off + i), &b);
            write_vol_u64(pool, node.add(ch_off + 8 * i), child.encode());
            set_word(pool, node, word | 1 << i);
        }
        NT_N48 => {
            write_vol(pool, node.add(N48_INDEX + b as u64), &(count as u8));
            write_vol_u64(
                pool,
                node.add(N48_CHILDREN + 8 * count as u64),
                child.encode(),
            );
            set_count(pool, node, count + 1);
        }
        NT_N256 => {
            write_vol_u64(pool, node.add(N256_CHILDREN + 8 * b as u64), child.encode());
            set_count(pool, node, count + 1);
        }
        _ => panic!("bad node type {nt}"),
    }
    true
}

/// The next-larger node kind.
pub fn grown_kind(nt: u8) -> u8 {
    match nt {
        NT_N4 => NT_N16,
        NT_N16 => NT_N48,
        NT_N48 => NT_N256,
        _ => panic!("cannot grow {nt}"),
    }
}

/// The next-smaller kind when underflowed (with hysteresis), if any.
pub fn shrink_kind(nt: u8, count: usize) -> Option<u8> {
    match nt {
        NT_N16 if count <= 3 => Some(NT_N4),
        NT_N48 if count <= 12 => Some(NT_N16),
        NT_N256 if count <= 36 => Some(NT_N48),
        _ => None,
    }
}

// ----------------------------------------------------------------- values

/// Allocate, write and persist a value object. WOART/ART+CoW use the pool's
/// general-purpose allocator directly (one allocation per value — the cost
/// HART's EPallocator amortizes away).
pub fn alloc_value(pool: &PmemPool, v: &Value) -> Result<PmPtr> {
    let size = v.class_size();
    let p = pool.alloc_raw(size, 8).ok_or(Error::PmExhausted)?;
    pool.write_bytes(p, v.as_slice());
    pool.persist(p, size);
    Ok(p)
}

/// Free a value object.
pub fn free_value(pool: &PmemPool, p: PmPtr, len: usize) {
    let size = if len <= 8 { 8 } else { 16 };
    pool.free_raw(p, size, 8);
}

/// Read a value object of `len` bytes.
pub fn read_value(pool: &PmemPool, p: PmPtr, len: usize) -> Value {
    let len = len.min(MAX_VALUE_LEN);
    let mut buf = [0u8; MAX_VALUE_LEN];
    pool.read_bytes(p, &mut buf[..len.max(1)]);
    Value::new(&buf[..len]).expect("bounded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hart_pm::PoolConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig::test_small())
    }

    #[test]
    fn tagged_roundtrip() {
        assert_eq!(Tagged::decode(0), Tagged::Null);
        let l = Tagged::Leaf(PmPtr(0x100));
        let n = Tagged::Node(PmPtr(0x200));
        assert_eq!(Tagged::decode(l.encode()), l);
        assert_eq!(Tagged::decode(n.encode()), n);
        assert_eq!(l.encode() & 1, 1);
        assert_eq!(n.encode() & 1, 0);
    }

    #[test]
    fn node_sizes_are_line_multiples_or_better() {
        assert_eq!(node_size(NT_N4), 64);
        assert_eq!(node_size(NT_N16), 176);
        assert_eq!(node_size(NT_N48), 672);
        assert_eq!(node_size(NT_N256), 2080);
    }

    #[test]
    fn add_find_remove_across_kinds() {
        let pool = pool();
        for nt in [NT_N4, NT_N16, NT_N48, NT_N256] {
            let node = alloc_node(&pool, nt, b"pfx").unwrap();
            let cap = node_capacity(nt);
            for i in 0..cap {
                assert!(add_child(
                    &pool,
                    node,
                    i as u8,
                    Tagged::Leaf(PmPtr(64 * (i as u64 + 1)))
                ));
            }
            if nt != NT_N256 {
                // A fresh byte on a full node must be refused (NODE256 can
                // never be full for a fresh byte — all 256 are taken).
                assert!(
                    !add_child(&pool, node, cap as u8, Tagged::Leaf(PmPtr(64))),
                    "full {nt}"
                );
            }
            for i in 0..cap {
                let slot = find_child_slot(&pool, node, i as u8).expect("present");
                assert_eq!(
                    read_slot(&pool, slot),
                    Tagged::Leaf(PmPtr(64 * (i as u64 + 1)))
                );
            }
            assert!(find_child_slot(&pool, node, 254).is_none() || cap == 256);
            assert!(remove_child(&pool, node, 0));
            assert!(!remove_child(&pool, node, 0));
            assert_eq!(node_count(&pool, node), cap - 1);
            assert!(find_child_slot(&pool, node, 0).is_none());
        }
    }

    #[test]
    fn prefix_roundtrip() {
        let pool = pool();
        let node = alloc_node(&pool, NT_N4, b"hello").unwrap();
        assert_eq!(prefix(&pool, node).as_slice(), b"hello");
        set_prefix(&pool, node, b"");
        assert!(prefix(&pool, node).is_empty());
    }

    #[test]
    fn children_sorted_is_sorted() {
        let pool = pool();
        let node = alloc_node(&pool, NT_N16, b"").unwrap();
        for b in [9u8, 3, 200, 0, 77] {
            add_child(&pool, node, b, Tagged::Leaf(PmPtr(64 + b as u64 * 8)));
        }
        let bytes: Vec<u8> = children_sorted(&pool, node)
            .iter()
            .map(|(b, _)| *b)
            .collect();
        assert_eq!(bytes, vec![0, 3, 9, 77, 200]);
    }

    #[test]
    fn copy_to_kind_preserves_edges() {
        let pool = pool();
        let node = alloc_node(&pool, NT_N4, b"pp").unwrap();
        for b in [5u8, 1, 9, 7] {
            add_child(&pool, node, b, Tagged::Leaf(PmPtr(64 + b as u64 * 8)));
        }
        let big = copy_to_kind(&pool, node, NT_N16).unwrap();
        assert_eq!(node_type(&pool, big), NT_N16);
        assert_eq!(prefix(&pool, big).as_slice(), b"pp");
        assert_eq!(children_sorted(&pool, big), children_sorted(&pool, node));
    }

    #[test]
    fn n48_reuses_holes() {
        let pool = pool();
        let node = alloc_node(&pool, NT_N48, b"").unwrap();
        for b in 0..48u8 {
            add_child(&pool, node, b, Tagged::Leaf(PmPtr(64 + 8 * b as u64)));
        }
        assert!(remove_child(&pool, node, 20));
        assert!(add_child(&pool, node, 100, Tagged::Leaf(PmPtr(6400))));
        let slot = find_child_slot(&pool, node, 100).unwrap();
        assert_eq!(read_slot(&pool, slot), Tagged::Leaf(PmPtr(6400)));
        assert_eq!(node_count(&pool, node), 48);
    }

    #[test]
    fn shrink_thresholds() {
        assert_eq!(shrink_kind(NT_N16, 3), Some(NT_N4));
        assert_eq!(shrink_kind(NT_N16, 4), None);
        assert_eq!(shrink_kind(NT_N48, 12), Some(NT_N16));
        assert_eq!(shrink_kind(NT_N256, 36), Some(NT_N48));
        assert_eq!(shrink_kind(NT_N4, 1), None);
    }

    #[test]
    fn value_roundtrip() {
        let pool = pool();
        let v = Value::new(b"0123456789abcdef").unwrap();
        let p = alloc_value(&pool, &v).unwrap();
        assert_eq!(read_value(&pool, p, 16), v);
        free_value(&pool, p, 16);
        let w = Value::from_u64(7);
        let q = alloc_value(&pool, &w).unwrap();
        assert_eq!(read_value(&pool, q, 8).as_u64(), 7);
    }
}
