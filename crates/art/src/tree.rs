//! The adaptive radix tree proper: search / insert / remove / ordered scans.

use crate::node::{retire, Child, Node};
use crate::optimistic::range_walk;
use hart_kv::{InlineKey, MAX_KEY_LEN};
use std::mem::size_of;

/// Resolves the (ART-)key bytes of an external leaf handle.
///
/// HART's resolver reads the full key from the PM leaf node and strips the
/// hash prefix, charging emulated PM read latency; test resolvers return an
/// owned copy. Called only where a textbook ART would touch a leaf: final
/// key comparison and lazy-expansion splits.
pub trait KeyResolver<L> {
    /// Load the full ART key of `leaf`.
    fn load_key(&self, leaf: &L) -> InlineKey;
}

/// A self-describing leaf for tests and volatile use of the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedLeaf {
    pub key: InlineKey,
    pub val: u64,
}

impl OwnedLeaf {
    /// Build from raw parts.
    pub fn new(key: &[u8], val: u64) -> OwnedLeaf {
        OwnedLeaf {
            key: InlineKey::from_slice(key),
            val,
        }
    }
}

/// Resolver for [`OwnedLeaf`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SliceResolver;

impl KeyResolver<OwnedLeaf> for SliceResolver {
    #[inline]
    fn load_key(&self, leaf: &OwnedLeaf) -> InlineKey {
        leaf.key
    }
}

/// Byte `i` of the terminated view of `key` (see crate docs).
#[inline]
pub(crate) fn tb(key: &[u8], i: usize) -> u8 {
    if i >= key.len() {
        0
    } else {
        key[i]
    }
}

/// Concatenate `a ++ [eb] ++ b` into a prefix (delete-side path compression).
fn concat_prefix(a: &InlineKey, eb: u8, b: &InlineKey) -> InlineKey {
    let mut buf = [0u8; MAX_KEY_LEN];
    let total = a.len() + 1 + b.len();
    assert!(
        total <= MAX_KEY_LEN,
        "reconstructed prefix exceeds max key length"
    );
    buf[..a.len()].copy_from_slice(a.as_slice());
    buf[a.len()] = eb;
    buf[a.len() + 1..total].copy_from_slice(b.as_slice());
    InlineKey::from_slice(&buf[..total])
}

/// A volatile adaptive radix tree over external leaf handles `L`.
///
/// See the crate docs for the overall design. All mutating operations take
/// `&mut self`; HART wraps each `Art` in the per-ART `RwLock` of §III-A.3.
pub struct Art<L> {
    pub(crate) root: Option<Child<L>>,
    len: usize,
    /// When set, every heap block unlinked by a mutation is handed to the
    /// epoch reclaimer instead of freed — required while optimistic readers
    /// may traverse this tree without holding its lock.
    defer: bool,
}

impl<L> Default for Art<L> {
    fn default() -> Self {
        Art::new()
    }
}

impl<L> Art<L> {
    /// Empty tree.
    pub fn new() -> Art<L> {
        Art {
            root: None,
            len: 0,
            defer: false,
        }
    }

    /// Route unlinked nodes through epoch-based reclamation (see
    /// [`hart_ebr`]) instead of freeing them inline. HART enables this on
    /// every shard ART so its lock-free read path never touches freed
    /// memory; the default (`false`) keeps single-owner uses allocation-
    /// cheap.
    pub fn set_deferred_reclaim(&mut self, on: bool) {
        self.defer = on;
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no leaves are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all contents.
    pub fn clear(&mut self)
    where
        L: Send + 'static,
    {
        if let Some(root) = self.root.take() {
            retire(root, self.defer);
        }
        self.len = 0;
    }

    /// Root child, for the iterator module.
    pub(crate) fn root_child(&self) -> Option<&Child<L>> {
        self.root.as_ref()
    }

    /// Point lookup. `key` is the raw ART key (≤ 24 bytes, no interior NUL).
    pub fn search<R: KeyResolver<L>>(&self, r: &R, key: &[u8]) -> Option<&L> {
        let mut child = self.root.as_ref()?;
        let mut depth = 0usize;
        loop {
            match child {
                Child::Leaf(l) => {
                    return if r.load_key(l).as_slice() == key {
                        Some(l)
                    } else {
                        None
                    };
                }
                Child::Inner(n) => {
                    let p = n.prefix.as_slice();
                    if key.len() < depth + p.len() || &key[depth..depth + p.len()] != p {
                        return None;
                    }
                    depth += p.len();
                    child = n.get(tb(key, depth))?;
                    depth += 1;
                }
            }
        }
    }

    /// Insert `leaf` under `key`, returning the previously stored leaf if
    /// the key already existed (the caller — HART's Algorithm 1 — normally
    /// checks with `search` first and routes duplicates to its update path,
    /// but replacement keeps this structure self-contained).
    pub fn insert<R: KeyResolver<L>>(&mut self, r: &R, key: &[u8], leaf: L) -> Option<L>
    where
        L: Send + 'static,
    {
        debug_assert!(key.len() <= MAX_KEY_LEN, "ART key too long");
        debug_assert!(!key.contains(&0), "ART key contains NUL");
        let defer = self.defer;
        match self.root.as_mut() {
            None => {
                self.root = Some(Child::Leaf(leaf));
                self.len += 1;
                None
            }
            Some(slot) => {
                let replaced = insert_rec(r, slot, key, 0, leaf, defer);
                if replaced.is_none() {
                    self.len += 1;
                }
                replaced
            }
        }
    }

    /// Remove the leaf stored under `key`, if any.
    pub fn remove<R: KeyResolver<L>>(&mut self, r: &R, key: &[u8]) -> Option<L>
    where
        L: Send + 'static,
    {
        let defer = self.defer;
        enum RootAction {
            TakeLeaf,
            Collapse,
            Keep,
        }
        let (removed, action) = match self.root.as_mut()? {
            Child::Leaf(l) => {
                if r.load_key(l).as_slice() == key {
                    (None, RootAction::TakeLeaf)
                } else {
                    return None;
                }
            }
            Child::Inner(node) => {
                let removed = remove_rec(r, node, key, 0, defer)?;
                let action = if node.count == 1 {
                    RootAction::Collapse
                } else {
                    RootAction::Keep
                };
                (Some(removed), action)
            }
        };
        match action {
            RootAction::TakeLeaf => {
                let Some(Child::Leaf(l)) = self.root.take() else {
                    unreachable!()
                };
                self.len -= 1;
                Some(l)
            }
            RootAction::Collapse => {
                let Some(Child::Inner(mut node)) = self.root.take() else {
                    unreachable!()
                };
                let (eb, gc) = node.take_only_child(defer).expect("count was 1");
                self.root = Some(collapse_child(&node.prefix, eb, gc));
                retire(node, defer);
                self.len -= 1;
                removed
            }
            RootAction::Keep => {
                self.len -= 1;
                removed
            }
        }
    }

    /// Visit every leaf in ascending key order.
    pub fn for_each<F: FnMut(&L)>(&self, mut f: F) {
        fn walk<L, F: FnMut(&L)>(c: &Child<L>, f: &mut F) {
            match c {
                Child::Leaf(l) => f(l),
                Child::Inner(n) => n.for_each_child(|_, c| walk(c, f)),
            }
        }
        if let Some(c) = &self.root {
            walk(c, &mut f);
        }
    }

    /// Visit, in key order, the first `cap` leaves whose key lies in
    /// `[start, end]` (`end = None`: no upper bound). This is the *ordered
    /// scan* extension; the paper's own range-query experiment (Fig. 10a)
    /// calls point `search` per key instead.
    ///
    /// Runs the walk of [`crate::range_collect_raw`] with a validator that
    /// always passes, so it too loads a leaf's key only on the boundary
    /// spines and stops at the `cap`-th leaf.
    pub fn for_each_in_range<R: KeyResolver<L>, F: FnMut(&L)>(
        &self,
        r: &R,
        start: &[u8],
        end: Option<&[u8]>,
        cap: usize,
        mut f: F,
    ) where
        L: Copy,
    {
        // SAFETY: `&self` keeps the tree alive and unmodified for the whole
        // call, so every raw read sees committed state and a validator that
        // always passes is exact.
        let ok = unsafe { range_walk(self, r, start, end, cap, &|| true, |l: L| f(&l)) };
        debug_assert!(ok, "a walk over a borrowed tree cannot fail validation");
    }

    /// Total heap bytes of the internal-node structure (Fig. 10b DRAM
    /// accounting). Leaf handles are counted as part of the node arrays
    /// holding them.
    pub fn memory_bytes(&self) -> usize {
        let mut total = size_of::<Self>();
        if let Some(c) = &self.root {
            total += c.heap_bytes();
            if let Child::Inner(_) = c {
                total += size_of::<Node<L>>();
            }
        }
        total
    }

    /// Count of inner nodes by kind `[NODE4, NODE16, NODE48, NODE256]`.
    pub fn node_histogram(&self) -> [usize; 4] {
        fn walk<L>(c: &Child<L>, h: &mut [usize; 4]) {
            if let Child::Inner(n) = c {
                h[n.kind().index()] += 1;
                n.for_each_child(|_, c| walk(c, h));
            }
        }
        let mut h = [0; 4];
        if let Some(c) = &self.root {
            walk(c, &mut h);
        }
        h
    }

    /// Height of the tree in inner-node levels (0 for empty / single leaf).
    /// Diagnostic used by tests and the harness.
    pub fn height(&self) -> usize {
        fn walk<L>(c: &Child<L>) -> usize {
            match c {
                Child::Leaf(_) => 0,
                Child::Inner(n) => {
                    let mut max = 0;
                    n.for_each_child(|_, c| max = max.max(walk(c)));
                    max + 1
                }
            }
        }
        self.root.as_ref().map_or(0, walk)
    }

    /// Check structural invariants (every inner node has ≥ 2 children and a
    /// consistent count; leaves are reachable under their own key bytes).
    /// Test-and-debug helper; O(n).
    pub fn check_invariants<R: KeyResolver<L>>(&self, r: &R) -> Result<(), String> {
        fn walk<L, R: KeyResolver<L>>(
            r: &R,
            c: &Child<L>,
            path: &mut Vec<u8>,
            n_leaves: &mut usize,
        ) -> Result<(), String> {
            match c {
                Child::Leaf(l) => {
                    *n_leaves += 1;
                    let k = r.load_key(l);
                    if !k.as_slice().starts_with(path.as_slice()) && k.as_slice() != path.as_slice()
                    {
                        return Err(format!(
                            "leaf key {:?} does not extend its path {:?}",
                            k.as_slice(),
                            path
                        ));
                    }
                    Ok(())
                }
                Child::Inner(n) => {
                    if n.count < 2 {
                        return Err(format!("inner node with {} children", n.count));
                    }
                    let mut actual = 0;
                    let mut result = Ok(());
                    path.extend_from_slice(n.prefix.as_slice());
                    n.for_each_child(|b, c| {
                        actual += 1;
                        if result.is_ok() {
                            if b != 0 {
                                path.push(b);
                            }
                            result = walk(r, c, path, n_leaves);
                            if b != 0 {
                                path.pop();
                            }
                        }
                    });
                    path.truncate(path.len() - n.prefix.len());
                    result?;
                    if actual != n.count as usize {
                        return Err(format!(
                            "node count {} but {} live children",
                            n.count, actual
                        ));
                    }
                    Ok(())
                }
            }
        }
        let mut n_leaves = 0;
        if let Some(c) = &self.root {
            let mut path = Vec::new();
            walk(r, c, &mut path, &mut n_leaves)?;
        }
        if n_leaves != self.len {
            return Err(format!(
                "len {} but {} leaves reachable",
                self.len, n_leaves
            ));
        }
        Ok(())
    }
}

fn collapse_child<L>(parent_prefix: &InlineKey, eb: u8, gc: Child<L>) -> Child<L> {
    match gc {
        // A leaf needs no prefix: its key is stored with it.
        Child::Leaf(l) => Child::Leaf(l),
        Child::Inner(mut gn) => {
            debug_assert_ne!(eb, 0, "terminator edges lead to leaves");
            gn.prefix = concat_prefix(parent_prefix, eb, &gn.prefix);
            Child::Inner(gn)
        }
    }
}

fn insert_rec<L: Send + 'static, R: KeyResolver<L>>(
    r: &R,
    slot: &mut Child<L>,
    key: &[u8],
    depth: usize,
    leaf: L,
    defer: bool,
) -> Option<L> {
    match slot {
        Child::Leaf(existing) => {
            let ek = r.load_key(existing);
            if ek.as_slice() == key {
                return Some(std::mem::replace(existing, leaf));
            }
            // Lazy expansion: materialize the divergence point.
            let eks = ek.as_slice();
            let mut lcp = 0;
            while depth + lcp < eks.len()
                && depth + lcp < key.len()
                && eks[depth + lcp] == key[depth + lcp]
            {
                lcp += 1;
            }
            let prefix = InlineKey::from_slice(&key[depth..depth + lcp]);
            let b_old = tb(eks, depth + lcp);
            let b_new = tb(key, depth + lcp);
            debug_assert_ne!(b_old, b_new, "distinct keys must diverge");
            let old_child = std::mem::replace(slot, Child::Inner(Box::new(Node::new4(prefix))));
            let Child::Inner(n) = slot else {
                unreachable!()
            };
            n.add(b_old, old_child, defer);
            n.add(b_new, Child::Leaf(leaf), defer);
            None
        }
        Child::Inner(node) => {
            let prefix = node.prefix; // InlineKey is Copy
            let p = prefix.as_slice();
            let mut m = 0;
            while m < p.len() && depth + m < key.len() && key[depth + m] == p[m] {
                m += 1;
            }
            if m < p.len() {
                // Prefix mismatch: split the compressed path at position m.
                let e_old = p[m];
                let b_new = tb(key, depth + m);
                debug_assert_ne!(e_old, b_new);
                node.prefix = InlineKey::from_slice(&p[m + 1..]);
                let new_prefix = InlineKey::from_slice(&p[..m]);
                let old_child =
                    std::mem::replace(slot, Child::Inner(Box::new(Node::new4(new_prefix))));
                let Child::Inner(n) = slot else {
                    unreachable!()
                };
                n.add(e_old, old_child, defer);
                n.add(b_new, Child::Leaf(leaf), defer);
                None
            } else {
                let depth = depth + p.len();
                let b = tb(key, depth);
                match node.get_mut(b) {
                    Some(child) => insert_rec(r, child, key, depth + 1, leaf, defer),
                    None => {
                        node.add(b, Child::Leaf(leaf), defer);
                        None
                    }
                }
            }
        }
    }
}

fn remove_rec<L: Send + 'static, R: KeyResolver<L>>(
    r: &R,
    node: &mut Node<L>,
    key: &[u8],
    depth: usize,
    defer: bool,
) -> Option<L> {
    let p = node.prefix;
    let p = p.as_slice();
    if key.len() < depth + p.len() || &key[depth..depth + p.len()] != p {
        return None;
    }
    let depth = depth + p.len();
    let b = tb(key, depth);

    enum Found {
        MatchingLeaf,
        MismatchedLeaf,
        Inner,
    }
    let found = match node.get(b)? {
        Child::Leaf(l) => {
            if r.load_key(l).as_slice() == key {
                Found::MatchingLeaf
            } else {
                Found::MismatchedLeaf
            }
        }
        Child::Inner(_) => Found::Inner,
    };
    match found {
        Found::MismatchedLeaf => None,
        Found::MatchingLeaf => {
            let Some(Child::Leaf(l)) = node.remove(b, defer) else {
                unreachable!()
            };
            Some(l)
        }
        Found::Inner => {
            let child = node.get_mut(b).expect("checked above");
            let Child::Inner(cn) = child else {
                unreachable!()
            };
            let removed = remove_rec(r, cn, key, depth + 1, defer)?;
            if cn.count == 1 {
                // Delete-side path compression: fold the single-child node
                // into its child.
                let (eb, gc) = cn.take_only_child(defer).expect("count was 1");
                let folded = collapse_child(&cn.prefix, eb, gc);
                let unlinked = std::mem::replace(child, folded);
                retire(unlinked, defer);
            }
            Some(removed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = Art<OwnedLeaf>;
    const R: SliceResolver = SliceResolver;

    fn ins(t: &mut T, k: &str) -> Option<OwnedLeaf> {
        t.insert(
            &R,
            k.as_bytes(),
            OwnedLeaf::new(k.as_bytes(), k.len() as u64),
        )
    }

    fn has(t: &T, k: &str) -> bool {
        t.search(&R, k.as_bytes()).is_some()
    }

    #[test]
    fn empty_tree() {
        let t = T::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(t.search(&R, b"x").is_none());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn single_key() {
        let mut t = T::new();
        assert!(ins(&mut t, "hello").is_none());
        assert_eq!(t.len(), 1);
        assert!(has(&t, "hello"));
        assert!(!has(&t, "hell"));
        assert!(!has(&t, "helloo"));
        assert!(!has(&t, "xello"));
    }

    #[test]
    fn empty_art_key() {
        // HART stores keys shorter than the hash prefix under the empty
        // ART key; it must coexist with non-empty keys.
        let mut t = T::new();
        t.insert(&R, b"", OwnedLeaf::new(b"", 0));
        ins(&mut t, "a");
        ins(&mut t, "ab");
        assert!(t.search(&R, b"").is_some());
        assert!(has(&t, "a"));
        assert!(has(&t, "ab"));
        assert_eq!(t.len(), 3);
        assert!(t.check_invariants(&R).is_ok());
        assert_eq!(t.remove(&R, b"").unwrap().key.as_slice(), b"");
        assert!(t.search(&R, b"").is_none());
        assert!(has(&t, "a"));
    }

    #[test]
    fn prefix_keys_coexist() {
        let mut t = T::new();
        for k in ["a", "ab", "abc", "abcd", "b"] {
            ins(&mut t, k);
        }
        for k in ["a", "ab", "abc", "abcd", "b"] {
            assert!(has(&t, k), "missing {k}");
        }
        assert!(!has(&t, "abcde"));
        assert!(!has(&t, ""));
        assert!(t.check_invariants(&R).is_ok());
    }

    #[test]
    fn replace_returns_old() {
        let mut t = T::new();
        t.insert(&R, b"k", OwnedLeaf::new(b"k", 1));
        let old = t.insert(&R, b"k", OwnedLeaf::new(b"k", 2)).unwrap();
        assert_eq!(old.val, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.search(&R, b"k").unwrap().val, 2);
    }

    #[test]
    fn path_compression_split() {
        let mut t = T::new();
        ins(&mut t, "romane");
        ins(&mut t, "romanus");
        // One NODE4 with prefix "roman".
        assert_eq!(t.node_histogram(), [1, 0, 0, 0]);
        ins(&mut t, "romulus");
        // Splits the "roman" prefix at "rom".
        assert_eq!(t.node_histogram(), [2, 0, 0, 0]);
        for k in ["romane", "romanus", "romulus"] {
            assert!(has(&t, k));
        }
        assert!(t.check_invariants(&R).is_ok());
    }

    #[test]
    fn removal_collapses_paths() {
        let mut t = T::new();
        for k in ["romane", "romanus", "romulus", "rubens", "ruber"] {
            ins(&mut t, k);
        }
        assert!(t.check_invariants(&R).is_ok());
        assert!(t.remove(&R, b"romanus").is_some());
        assert!(t.remove(&R, b"romane").is_some());
        assert!(t.remove(&R, b"ruber").is_some());
        assert!(t.check_invariants(&R).is_ok());
        assert!(has(&t, "romulus"));
        assert!(has(&t, "rubens"));
        assert_eq!(t.len(), 2);
        assert!(t.remove(&R, b"romulus").is_some());
        assert!(t.remove(&R, b"rubens").is_some());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn remove_missing() {
        let mut t = T::new();
        ins(&mut t, "abc");
        assert!(t.remove(&R, b"abd").is_none());
        assert!(t.remove(&R, b"ab").is_none());
        assert!(t.remove(&R, b"abcd").is_none());
        assert!(t.remove(&R, b"").is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_keys_roundtrip() {
        let mut t = T::new();
        let keys: Vec<String> = (0..5000)
            .map(|i| format!("key{:05}", i * 7 % 5000))
            .collect();
        for k in &keys {
            assert!(ins(&mut t, k).is_none(), "duplicate {k}");
        }
        assert_eq!(t.len(), 5000);
        assert!(t.check_invariants(&R).is_ok());
        for k in &keys {
            assert!(has(&t, k), "missing {k}");
        }
        // Remove half, verify the rest.
        for (i, k) in keys.iter().enumerate() {
            if i % 2 == 0 {
                assert!(t.remove(&R, k.as_bytes()).is_some(), "remove {k}");
            }
        }
        assert_eq!(t.len(), 2500);
        assert!(t.check_invariants(&R).is_ok());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(has(&t, k), i % 2 == 1, "post-delete {k}");
        }
    }

    #[test]
    fn ordered_iteration() {
        let mut t = T::new();
        let mut keys = vec!["pear", "apple", "banana", "app", "applesauce", "z", "a"];
        for k in &keys {
            ins(&mut t, k);
        }
        keys.sort_unstable();
        let mut seen = Vec::new();
        t.for_each(|l| seen.push(String::from_utf8(l.key.as_slice().to_vec()).unwrap()));
        assert_eq!(seen, keys);
    }

    #[test]
    fn range_scan_prunes_correctly() {
        let mut t = T::new();
        let keys: Vec<String> = (0..500).map(|i| format!("k{:04}", i)).collect();
        for k in &keys {
            ins(&mut t, k);
        }
        let mut seen = Vec::new();
        t.for_each_in_range(&R, b"k0100", Some(b"k0199".as_slice()), usize::MAX, |l| {
            seen.push(String::from_utf8(l.key.as_slice().to_vec()).unwrap())
        });
        let expected: Vec<String> = (100..200).map(|i| format!("k{:04}", i)).collect();
        assert_eq!(seen, expected);

        // Empty range.
        let mut n = 0;
        t.for_each_in_range(&R, b"x", Some(b"y".as_slice()), usize::MAX, |_| n += 1);
        assert_eq!(n, 0);

        // Inverted range.
        t.for_each_in_range(&R, b"k0199", Some(b"k0100".as_slice()), usize::MAX, |_| {
            n += 1
        });
        assert_eq!(n, 0);

        // Full range.
        t.for_each_in_range(&R, b"", Some(b"zzzzzz".as_slice()), usize::MAX, |_| n += 1);
        assert_eq!(n, 500);
    }

    #[test]
    fn range_includes_boundary_prefix_keys() {
        let mut t = T::new();
        for k in ["ab", "abc", "abd", "ac"] {
            ins(&mut t, k);
        }
        let mut seen = Vec::new();
        t.for_each_in_range(&R, b"ab", Some(b"abc".as_slice()), usize::MAX, |l| {
            seen.push(String::from_utf8(l.key.as_slice().to_vec()).unwrap())
        });
        assert_eq!(seen, vec!["ab", "abc"]);
    }

    #[test]
    fn node_growth_to_256() {
        let mut t = T::new();
        // 200 distinct first bytes forces the root to NODE256.
        for b in 0u8..200 {
            let key = [b.max(1), b'x']; // avoid NUL first byte
            t.insert(&R, &key, OwnedLeaf::new(&key, b as u64));
        }
        let h = t.node_histogram();
        assert_eq!(h[3], 1, "root should be NODE256: {h:?}");
        for b in 0u8..200 {
            let key = [b.max(1), b'x'];
            assert!(t.search(&R, &key).is_some());
        }
    }

    #[test]
    fn memory_grows_and_shrinks() {
        let mut t = T::new();
        let empty = t.memory_bytes();
        for i in 0..1000 {
            let k = format!("key{i:04}");
            ins(&mut t, &k);
        }
        let full = t.memory_bytes();
        assert!(full > empty);
        for i in 0..1000 {
            let k = format!("key{i:04}");
            t.remove(&R, k.as_bytes());
        }
        assert_eq!(t.memory_bytes(), empty);
    }

    #[test]
    fn height_is_bounded_by_key_length() {
        let mut t = T::new();
        for i in 0..10_000 {
            let k = format!("{:06}", i);
            ins(&mut t, &k);
        }
        // 6-byte keys + terminator: height can never exceed 7.
        assert!(t.height() <= 7, "height {}", t.height());
    }

    #[test]
    fn clear_resets() {
        let mut t = T::new();
        ins(&mut t, "a");
        ins(&mut t, "b");
        t.clear();
        assert!(t.is_empty());
        assert!(!has(&t, "a"));
        ins(&mut t, "c");
        assert!(has(&t, "c"));
    }
}
