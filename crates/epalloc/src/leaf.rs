//! The 40-byte PM leaf-node layout (Fig. 3).
//!
//! ```text
//! offset  0..24  key bytes (complete key, stored "for the purpose of
//!                failure recovery", §III-A.1)
//! offset 24      key_len
//! offset 25      val_len
//! offset 26..32  padding
//! offset 32..40  p_value (PmPtr to the out-of-leaf value object)
//! ```
//!
//! Accessors are free functions over `(pool, leaf_ptr)` so the same layout
//! is shared by the allocator's scrub/recovery paths and by HART itself.
//! Reads go through the pool and are therefore charged PM read latency.

use hart_kv::{InlineKey, Key, MAX_KEY_LEN};
use hart_pm::{PmPtr, PmemPool};

/// Size of a leaf object in bytes.
pub const LEAF_SIZE: usize = 40;

const KEY_OFF: u64 = 0;
const KEY_LEN_OFF: u64 = 24;
const VAL_LEN_OFF: u64 = 25;
const P_VALUE_OFF: u64 = 32;

/// Write the complete key and its length (no persist — call
/// [`persist_leaf_key`] after, mirroring Algorithm 1 lines 15–16).
pub fn leaf_write_key(pool: &PmemPool, leaf: PmPtr, key: &Key) {
    let mut buf = [0u8; MAX_KEY_LEN];
    buf[..key.len()].copy_from_slice(key.as_slice());
    pool.write_bytes(leaf.add(KEY_OFF), &buf);
    pool.write(leaf.add(KEY_LEN_OFF), &(key.len() as u8));
}

/// Persist the key + key_len region (one `persistent()` call — the two
/// fields share the leaf's first cache lines).
pub fn persist_leaf_key(pool: &PmemPool, leaf: PmPtr) {
    pool.persist(leaf.add(KEY_OFF), MAX_KEY_LEN + 1);
}

/// Read the complete key stored in a leaf.
pub fn leaf_read_key(pool: &PmemPool, leaf: PmPtr) -> InlineKey {
    let len = pool.read::<u8>(leaf.add(KEY_LEN_OFF)) as usize;
    let mut buf = [0u8; MAX_KEY_LEN];
    pool.read_bytes(leaf.add(KEY_OFF), &mut buf);
    InlineKey::from_slice(&buf[..len.min(MAX_KEY_LEN)])
}

/// Write `p_value` and the value length (no persist — call
/// [`persist_leaf_pvalue`], mirroring Algorithm 1 line 13 / Algorithm 3
/// line 8).
pub fn leaf_write_pvalue(pool: &PmemPool, leaf: PmPtr, p_value: PmPtr, val_len: usize) {
    pool.write(leaf.add(VAL_LEN_OFF), &(val_len as u8));
    pool.write_u64_atomic(leaf.add(P_VALUE_OFF), p_value.offset());
}

/// Persist the `val_len + p_value` region (one `persistent()` call).
pub fn persist_leaf_pvalue(pool: &PmemPool, leaf: PmPtr) {
    pool.persist(
        leaf.add(VAL_LEN_OFF),
        (LEAF_SIZE as u64 - VAL_LEN_OFF) as usize,
    );
}

/// Read the value pointer.
pub fn leaf_read_pvalue(pool: &PmemPool, leaf: PmPtr) -> PmPtr {
    PmPtr(pool.read::<u64>(leaf.add(P_VALUE_OFF)))
}

/// Read the value length.
pub fn leaf_read_val_len(pool: &PmemPool, leaf: PmPtr) -> usize {
    pool.read::<u8>(leaf.add(VAL_LEN_OFF)) as usize
}

/// A whole leaf, as [`leaf_read`] returns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafRecord {
    /// The complete key.
    pub key: InlineKey,
    /// Length of the value `p_value` points at.
    pub val_len: usize,
    /// The out-of-leaf value object.
    pub p_value: PmPtr,
}

/// Read a whole leaf — key, `val_len` and `p_value` — in one pool read,
/// so it is charged once per cache line the 40 bytes span.
pub fn leaf_read(pool: &PmemPool, leaf: PmPtr) -> LeafRecord {
    let mut buf = [0u8; LEAF_SIZE];
    pool.read_bytes(leaf, &mut buf);
    let key_len = (buf[KEY_LEN_OFF as usize] as usize).min(MAX_KEY_LEN);
    let mut p_value = [0u8; 8];
    p_value.copy_from_slice(&buf[P_VALUE_OFF as usize..LEAF_SIZE]);
    LeafRecord {
        key: InlineKey::from_slice(&buf[KEY_OFF as usize..][..key_len]),
        val_len: buf[VAL_LEN_OFF as usize] as usize,
        p_value: PmPtr(u64::from_ne_bytes(p_value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hart_pm::PoolConfig;

    #[test]
    fn layout_constants() {
        assert_eq!(LEAF_SIZE, 40);
        assert!(
            P_VALUE_OFF.is_multiple_of(8),
            "p_value must be 8-byte aligned for atomic stores"
        );
    }

    #[test]
    fn key_roundtrip() {
        let pool = PmemPool::new(PoolConfig::test_small());
        let leaf = pool.alloc_raw(LEAF_SIZE, 8).unwrap();
        let key = Key::from_str("hello-world").unwrap();
        leaf_write_key(&pool, leaf, &key);
        persist_leaf_key(&pool, leaf);
        assert_eq!(leaf_read_key(&pool, leaf).as_slice(), key.as_slice());
    }

    #[test]
    fn pvalue_roundtrip() {
        let pool = PmemPool::new(PoolConfig::test_small());
        let leaf = pool.alloc_raw(LEAF_SIZE, 8).unwrap();
        leaf_write_pvalue(&pool, leaf, PmPtr(0x1000), 16);
        persist_leaf_pvalue(&pool, leaf);
        assert_eq!(leaf_read_pvalue(&pool, leaf), PmPtr(0x1000));
        assert_eq!(leaf_read_val_len(&pool, leaf), 16);
    }

    #[test]
    fn whole_leaf_read_matches_the_field_reads() {
        let pool = PmemPool::new(PoolConfig::test_small());
        let leaf = pool.alloc_raw(LEAF_SIZE, 8).unwrap();
        let key = Key::new(&[b'k'; MAX_KEY_LEN]).unwrap();
        leaf_write_key(&pool, leaf, &key);
        leaf_write_pvalue(&pool, leaf, PmPtr(0xABCD_EF08), 77);
        let rec = leaf_read(&pool, leaf);
        assert_eq!(rec.key, leaf_read_key(&pool, leaf));
        assert_eq!(rec.val_len, leaf_read_val_len(&pool, leaf));
        assert_eq!(rec.p_value, leaf_read_pvalue(&pool, leaf));
        assert_eq!((rec.key.as_slice(), rec.val_len), (key.as_slice(), 77));
    }

    #[test]
    fn max_len_key() {
        let pool = PmemPool::new(PoolConfig::test_small());
        let leaf = pool.alloc_raw(LEAF_SIZE, 8).unwrap();
        let key = Key::new(&[b'x'; MAX_KEY_LEN]).unwrap();
        leaf_write_key(&pool, leaf, &key);
        assert_eq!(leaf_read_key(&pool, leaf).len(), MAX_KEY_LEN);
    }
}
