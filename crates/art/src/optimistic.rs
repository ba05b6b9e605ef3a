//! Version-validated traversal of an [`Art`] without holding its lock.
//!
//! HART's pessimistic read path takes a shard's `RwLock` in shared mode and
//! walks the tree with ordinary borrows. The optimistic path instead walks
//! the *raw* tree memory while writers may be mutating it, and relies on a
//! caller-supplied `validate` callback (a seqlock version check in HART) to
//! decide whether anything it read could have been torn.
//!
//! # Protocol
//!
//! Every step follows the same discipline:
//!
//! 1. **Copy, don't borrow.** Bytes are pulled out of the shared structure
//!    with `ptr::read_volatile` into a local [`MaybeUninit`] — never through
//!    a reference, so no aliasing assumption is made about memory a writer
//!    could be rewriting, and the copy is never dropped (it may bitwise-
//!    duplicate a `Box`).
//! 2. **Validate before interpreting.** A torn copy of an enum (`Repr`,
//!    `Option<Child>`) may hold an invalid tag or a mismatched tag/payload
//!    pair, so the copy is only `assume_init`-matched after `validate()`
//!    confirms no writer committed (or is active) since the attempt began.
//!    A failed check aborts the attempt with [`RawRead::Retry`].
//! 3. **Dereference only validated pointers, only into reclaimer-protected
//!    memory.** Once validated, a pointer is the committed value, but the
//!    writer may free its target *after* validation — which is why the tree
//!    must run with deferred reclamation ([`Art::set_deferred_reclaim`]) and
//!    the caller must hold an [`hart_ebr`] pin for the whole attempt:
//!    retired nodes stay mapped until the pin is released.
//!
//! Values derived from unvalidated plain integers (slot indices, counts)
//! are bounds-clamped before use, so the worst a torn read can do is route
//! the walk to the wrong committed slot — which validation then rejects.
//!
//! If every validation passes, every byte the walk acted on was the
//! committed tree state for one version, so the result is exactly what the
//! locked path would have returned at that version.

use crate::node::{Child, Node, Repr};
use crate::tree::{tb, Art, KeyResolver};
use hart_kv::MAX_KEY_LEN;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr::{self, addr_of};

/// Outcome of one optimistic attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawRead<T> {
    /// The key was present with this leaf handle at a committed version.
    Found(T),
    /// The key was absent at a committed version.
    NotFound,
    /// A writer interfered; the caller must retry or fall back to locking.
    Retry,
}

/// Volatile bitwise copy that never drops (and so never double-frees a
/// bitwise-duplicated `Box`).
///
/// # Safety
/// `p` must be valid for reads of `size_of::<T>()` bytes (alignment per
/// `T`). The *contents* may be torn; the caller must validate before
/// calling `assume_init`-style accessors on enum-bearing `T`.
unsafe fn vol_copy<T>(p: *const T) -> MaybeUninit<T> {
    ptr::read_volatile(p as *const MaybeUninit<T>)
}

/// Locate the child slot for edge byte `b` in the (validated) node copy
/// `node`, returning a raw pointer into the node's representation arrays.
///
/// Returns `Err(())` when the edge is absent. The returned pointer is
/// in-bounds by construction (indices are clamped), but the slot contents
/// still need the copy-validate treatment by the caller.
///
/// # Safety
/// `node` must be a validated copy of a committed node whose representation
/// boxes are still mapped (EBR pin).
unsafe fn child_slot<L>(node: &Node<L>, b: u8) -> Result<*const Option<Child<L>>, ()> {
    match &node.repr {
        Repr::N4(bx) => {
            let n = &**bx;
            let keys = vol_copy(addr_of!(n.keys)).assume_init(); // plain bytes
            let c = (node.count as usize).min(4);
            match keys[..c].iter().position(|&k| k == b) {
                Some(i) => Ok(addr_of!(n.children[i])),
                None => Err(()),
            }
        }
        Repr::N16(bx) => {
            let n = &**bx;
            // SIMD search runs on the local volatile copy, never the shared
            // array; a torn copy at worst misroutes to a committed slot,
            // which the caller's validate rejects.
            let keys = vol_copy(addr_of!(n.keys)).assume_init();
            match crate::simd::find_key16(&keys, node.count as usize, b) {
                Some(i) => Ok(addr_of!(n.children[i])),
                None => Err(()),
            }
        }
        Repr::N48(bx) => {
            let n = &**bx;
            let slot = ptr::read_volatile(addr_of!(n.index[b as usize]));
            if slot as usize >= 48 {
                // NO_SLOT, or a torn index a later validate will reject.
                Err(())
            } else {
                Ok(addr_of!(n.children[slot as usize]))
            }
        }
        Repr::N256(bx) => {
            // `children` is a Box set at construction and never reassigned
            // while the node is linked, so reading it non-volatilely through
            // the validated node copy is fine.
            Ok(addr_of!(bx.children[b as usize]))
        }
    }
}

/// Lock-free point lookup against the tree behind `art`.
///
/// Mirrors [`Art::search`], but instead of borrowing it copies and
/// validates (see module docs). `validate` must return `true` iff the
/// caller's version observation is still current — in HART, "the shard
/// version I read before calling was even and has not changed".
///
/// # Safety
/// - `art` must point to a live `Art<L>` for the whole call (the caller
///   typically reads it out of a lock it does *not* hold, so liveness must
///   come from an [`hart_ebr`] pin held across the call).
/// - The tree must have been running with deferred reclamation since before
///   the caller's pin was taken.
/// - `r.load_key` must tolerate concurrently-retired leaf handles (HART's
///   PM pool stays mapped, so reads return stale bytes, never fault).
pub unsafe fn search_raw<L, R, V>(art: *const Art<L>, r: &R, key: &[u8], validate: &V) -> RawRead<L>
where
    L: Copy,
    R: KeyResolver<L>,
    V: Fn() -> bool,
{
    let root_mu = vol_copy(addr_of!((*art).root));
    if !validate() {
        return RawRead::Retry;
    }
    let mut cur: MaybeUninit<Child<L>> = match &*root_mu.as_ptr() {
        None => return RawRead::NotFound,
        Some(c) => ptr::read(c as *const Child<L> as *const MaybeUninit<Child<L>>),
    };
    let mut depth = 0usize;
    // A committed tree consumes ≥ 1 key byte per inner level, so any walk
    // longer than the terminated max key length means we chased torn data.
    for _ in 0..=MAX_KEY_LEN + 2 {
        match &*cur.as_ptr() {
            Child::Leaf(l) => {
                let leaf: L = *l;
                let matches = r.load_key(&leaf).as_slice() == key;
                // Final check covers the PM key read: if the version still
                // holds, the leaf was committed for this key the whole time.
                if !validate() {
                    return RawRead::Retry;
                }
                return if matches {
                    RawRead::Found(leaf)
                } else {
                    RawRead::NotFound
                };
            }
            Child::Inner(bx) => {
                let node_ptr: *const Node<L> = &**bx;
                let node_mu = vol_copy(node_ptr);
                if !validate() {
                    return RawRead::Retry;
                }
                let node = &*node_mu.as_ptr();
                let p = node.prefix.as_slice();
                if key.len() < depth + p.len() || &key[depth..depth + p.len()] != p {
                    return RawRead::NotFound;
                }
                depth += p.len();
                let b = tb(key, depth);
                depth += 1;
                let slot = match child_slot(node, b) {
                    Ok(s) => s,
                    Err(()) => {
                        // Absent edge — but the keys/index bytes that said
                        // so were read unvalidated.
                        return if validate() {
                            RawRead::NotFound
                        } else {
                            RawRead::Retry
                        };
                    }
                };
                let slot_mu = vol_copy(slot);
                if !validate() {
                    return RawRead::Retry;
                }
                match &*slot_mu.as_ptr() {
                    None => return RawRead::NotFound,
                    Some(c) => {
                        cur = ptr::read(c as *const Child<L> as *const MaybeUninit<Child<L>>);
                    }
                }
            }
        }
    }
    RawRead::Retry
}

/// Lock-free range scan: appends to `out`, in ascending key order, the
/// first `cap` leaves whose key lies in `[start, end]` (`end = None`: no
/// upper bound).
///
/// Returns `true` on success; `false` means a writer interfered — `out` is
/// truncated back to its original length and the caller must retry or fall
/// back to the locked [`Art::for_each_in_range`].
///
/// The walk loads a leaf's key only while the leaf's path is a proper
/// prefix of `start` or a prefix of `end` (see [`range_walk`]), so a walk
/// over a range that covers the whole tree loads no key at all.
///
/// # Safety
/// Same contract as [`search_raw`].
pub unsafe fn range_collect_raw<L, R, V>(
    art: *const Art<L>,
    r: &R,
    start: &[u8],
    end: Option<&[u8]>,
    cap: usize,
    validate: &V,
    out: &mut Vec<L>,
) -> bool
where
    L: Copy,
    R: KeyResolver<L>,
    V: Fn() -> bool,
{
    let keep = out.len();
    let ok = range_walk(art, r, start, end, cap, validate, |leaf| out.push(leaf));
    if !ok {
        out.truncate(keep);
    }
    ok
}

/// The one ordered range walk, behind both [`range_collect_raw`] and the
/// locked [`Art::for_each_in_range`]: hands `emit` the first `cap` leaves
/// whose key lies in `[start, end]`, in ascending key order.
///
/// ART prefixes are stored whole and keys hold no NUL, so every key under a
/// path `p` starts with `p`, and the leaf behind a terminator edge has
/// exactly the key `p`. Once `p` is no longer a proper prefix of `start`,
/// nothing under it sorts below `start`; once it is no longer a prefix of
/// `end`, nothing under it sorts above `end`. The walk tracks these two
/// [`Spines`] and loads a leaf's key only while one of them holds; every
/// other leaf it reaches is in range by its path alone.
///
/// It stops after `cap` leaves, or at the first edge past `end`. Returns
/// `false` on any failed validation, including a final one after the walk
/// stops, so a `true` result is one committed snapshot even where the walk
/// acted on bytes (edge keys, indices) it never validated one by one.
///
/// # Safety
/// Same contract as [`search_raw`].
pub(crate) unsafe fn range_walk<L, R, V, E>(
    art: *const Art<L>,
    r: &R,
    start: &[u8],
    end: Option<&[u8]>,
    cap: usize,
    validate: &V,
    emit: E,
) -> bool
where
    L: Copy,
    R: KeyResolver<L>,
    V: Fn() -> bool,
    E: FnMut(L),
{
    if cap == 0 || end.is_some_and(|e| start > e) {
        return true;
    }
    let root_mu = vol_copy(addr_of!((*art).root));
    if !validate() {
        return false;
    }
    let mut walk = RangeWalk {
        r,
        start,
        end,
        validate,
        emit,
        left: cap,
        path: Vec::with_capacity(MAX_KEY_LEN),
        leaf: PhantomData,
    };
    let ok = match &*root_mu.as_ptr() {
        None => true,
        Some(c) => {
            let root = ptr::read(c as *const Child<L> as *const MaybeUninit<Child<L>>);
            let on = Spines {
                start: !start.is_empty(),
                end: end.is_some(),
            };
            walk.child(&root, on, 0)
        }
    };
    ok && validate()
}

/// Which range bounds can still cut the subtree under the walk's path:
/// `start` while the path is a proper prefix of `start`, `end` while it is
/// a prefix of `end`. Off both spines, every key below is in range.
#[derive(Clone, Copy)]
struct Spines {
    start: bool,
    end: bool,
}

impl Spines {
    const OFF: Spines = Spines {
        start: false,
        end: false,
    };
}

/// Where the keys under the walk's path lie relative to the range.
enum Place {
    /// All below `start`: skip this subtree.
    Below,
    /// Some may be in range; the spines the subtree is still on.
    Inside(Spines),
    /// All above `end`: this subtree and everything after it.
    Above,
}

/// State of one [`range_walk`].
struct RangeWalk<'a, L, R, V, E> {
    r: &'a R,
    start: &'a [u8],
    end: Option<&'a [u8]>,
    validate: &'a V,
    emit: E,
    /// Leaves still wanted; 0 stops the walk.
    left: usize,
    /// Key bytes consumed so far: node prefixes and non-terminator edges.
    path: Vec<u8>,
    leaf: PhantomData<fn(L)>,
}

impl<L, R, V, E> RangeWalk<'_, L, R, V, E>
where
    L: Copy,
    R: KeyResolver<L>,
    V: Fn() -> bool,
    E: FnMut(L),
{
    /// Walk `cur`, a validated copy of a committed child reached along
    /// `self.path` while on the spines `on`. Returns `false` on any
    /// validation failure.
    unsafe fn child(&mut self, cur: &MaybeUninit<Child<L>>, on: Spines, level: usize) -> bool {
        if level > MAX_KEY_LEN + 2 {
            return false; // torn data led us in circles
        }
        match &*cur.as_ptr() {
            Child::Leaf(l) => self.leaf(*l, on),
            Child::Inner(bx) => self.inner(&**bx, on, level),
        }
    }

    /// Emit `leaf` if its key is in range, loading the key only while the
    /// walk is on a spine.
    unsafe fn leaf(&mut self, leaf: L, on: Spines) -> bool {
        if on.start || on.end {
            let k = self.r.load_key(&leaf);
            let ks = k.as_slice();
            let in_range = ks >= self.start && self.end.is_none_or(|e| ks <= e);
            if !(self.validate)() {
                return false;
            }
            if !in_range {
                return true;
            }
        }
        (self.emit)(leaf);
        self.left -= 1;
        true
    }

    unsafe fn inner(&mut self, node_ptr: *const Node<L>, on: Spines, level: usize) -> bool {
        let node_mu = vol_copy(node_ptr);
        if !(self.validate)() {
            return false;
        }
        let node = &*node_mu.as_ptr();
        let before = self.path.len();
        self.path.extend_from_slice(node.prefix.as_slice());
        let ok = match self.place(on) {
            Place::Below => true,
            Place::Above => {
                self.left = 0;
                true
            }
            Place::Inside(on) => self.edges(node, on, level),
        };
        self.path.truncate(before);
        ok
    }

    /// Walk the edges of `node` (a validated copy whose prefix is already
    /// on `self.path`) in ascending byte order.
    unsafe fn edges(&mut self, node: &Node<L>, on: Spines, level: usize) -> bool {
        let mut ok = true;
        each_edge_raw(node, |b, slot| {
            let place = if b == 0 {
                // Terminator edge: the leaf's key is the path itself, below
                // `start` exactly when the path is a proper prefix of it.
                if on.start {
                    Place::Below
                } else {
                    Place::Inside(Spines::OFF)
                }
            } else {
                self.path.push(b);
                self.place(on)
            };
            match place {
                Place::Below => {}
                Place::Above => self.left = 0,
                Place::Inside(child_on) => {
                    let slot_mu = vol_copy(slot);
                    ok = (self.validate)();
                    if ok {
                        if let Some(c) = &*slot_mu.as_ptr() {
                            let child =
                                ptr::read(c as *const Child<L> as *const MaybeUninit<Child<L>>);
                            ok = self.child(&child, child_on, level + 1);
                        }
                    }
                }
            }
            if b != 0 {
                self.path.pop();
            }
            ok && self.left > 0
        });
        ok
    }

    /// Place the subtree under `self.path`, which has just grown past a
    /// point where the walk was on the spines `on`.
    fn place(&self, on: Spines) -> Place {
        let p = self.path.as_slice();
        let mut next = Spines::OFF;
        if on.start {
            if prefix_lt(p, self.start) {
                return Place::Below;
            }
            next.start = p.len() < self.start.len() && self.start.starts_with(p);
        }
        if let (true, Some(e)) = (on.end, self.end) {
            if prefix_gt(p, e) {
                return Place::Above;
            }
            next.end = e.starts_with(p);
        }
        Place::Inside(next)
    }
}

/// All keys prefixed by `p` are strictly greater than `end`.
fn prefix_gt(p: &[u8], end: &[u8]) -> bool {
    let m = p.len().min(end.len());
    if p[..m] != end[..m] {
        p[..m] > end[..m]
    } else {
        p.len() > end.len()
    }
}

/// All keys prefixed by `p` are strictly less than `start`.
fn prefix_lt(p: &[u8], start: &[u8]) -> bool {
    let m = p.len().min(start.len());
    p[..m] < start[..m]
}

/// Hand `f` the edges of a validated node copy in ascending byte order —
/// each edge byte with a pointer to its child slot, not yet copied — until
/// `f` returns `false`. Edge bytes and indices are read unvalidated
/// (clamped to the arrays), so the caller validates before trusting them.
///
/// # Safety
/// `node` must be a validated copy of a committed node whose representation
/// boxes are still mapped (EBR pin).
unsafe fn each_edge_raw<L, F>(node: &Node<L>, mut f: F)
where
    F: FnMut(u8, *const Option<Child<L>>) -> bool,
{
    match &node.repr {
        Repr::N4(bx) => {
            let n = &**bx;
            let keys = vol_copy(addr_of!(n.keys)).assume_init();
            let c = (node.count as usize).min(4);
            for (i, &k) in keys.iter().enumerate().take(c) {
                if !f(k, addr_of!(n.children[i])) {
                    return;
                }
            }
        }
        Repr::N16(bx) => {
            let n = &**bx;
            let keys = vol_copy(addr_of!(n.keys)).assume_init();
            let c = (node.count as usize).min(16);
            for (i, &k) in keys.iter().enumerate().take(c) {
                if !f(k, addr_of!(n.children[i])) {
                    return;
                }
            }
        }
        Repr::N48(bx) => {
            let n = &**bx;
            // One volatile copy of the whole index, then SIMD next-edge
            // stepping over the local bytes; slots are bounds-clamped.
            let index = vol_copy(addr_of!(n.index)).assume_init();
            let mut from = 0usize;
            while let Some(b) = crate::simd::next_edge48(&index, from) {
                from = b as usize + 1;
                let slot = index[b as usize];
                if slot as usize >= 48 {
                    continue; // torn index byte; validation will reject
                }
                if !f(b, addr_of!(n.children[slot as usize])) {
                    return;
                }
            }
        }
        Repr::N256(bx) => {
            let n = &**bx;
            for b in 0..=255u8 {
                if !f(b, addr_of!(n.children[b as usize])) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{OwnedLeaf, SliceResolver};
    use hart_kv::InlineKey;
    use std::cell::{Cell, RefCell};

    const R: SliceResolver = SliceResolver;
    const ALWAYS: fn() -> bool = || true;
    const NEVER: fn() -> bool = || false;

    /// [`range_collect_raw`] over a tree the test owns.
    fn collect_raw<V: Fn() -> bool>(
        t: &Art<OwnedLeaf>,
        start: &[u8],
        end: Option<&[u8]>,
        cap: usize,
        validate: &V,
        out: &mut Vec<OwnedLeaf>,
    ) -> bool {
        // SAFETY: the tree is locally owned and unmutated during the call.
        unsafe { range_collect_raw(t, &R, start, end, cap, validate, out) }
    }

    fn build(keys: &[&str]) -> Art<OwnedLeaf> {
        let mut t = Art::new();
        for (i, k) in keys.iter().enumerate() {
            t.insert(&R, k.as_bytes(), OwnedLeaf::new(k.as_bytes(), i as u64));
        }
        t
    }

    #[test]
    fn raw_search_matches_locked_search() {
        let keys = ["romane", "romanus", "romulus", "rubens", "ruber", "a", "ab"];
        let t = build(&keys);
        for k in keys {
            let raw = unsafe { search_raw(&t, &R, k.as_bytes(), &ALWAYS) }; // SAFETY: the tree is locally owned and unmutated during the call
            let locked = t.search(&R, k.as_bytes()).copied();
            match raw {
                RawRead::Found(l) => assert_eq!(Some(l), locked, "key {k}"),
                other => panic!("expected Found for {k}, got {other:?}"),
            }
        }
        for k in ["rom", "romanes", "z", ""] {
            assert_eq!(
                unsafe { search_raw(&t, &R, k.as_bytes(), &ALWAYS) }, // SAFETY: the tree is locally owned and unmutated during the call
                RawRead::NotFound,
                "key {k:?}"
            );
        }
    }

    #[test]
    fn raw_search_over_many_keys_and_node_kinds() {
        let mut t = Art::new();
        let keys: Vec<String> = (0..4000)
            .map(|i| format!("key{:05}", i * 13 % 4000))
            .collect();
        for k in &keys {
            t.insert(&R, k.as_bytes(), OwnedLeaf::new(k.as_bytes(), 7));
        }
        // Wide fan-out at the root byte to exercise N48/N256.
        for b in 1..=200u8 {
            let k = [b, b'q'];
            t.insert(&R, &k, OwnedLeaf::new(&k, b as u64));
        }
        for k in &keys {
            assert!(matches!(
                unsafe { search_raw(&t, &R, k.as_bytes(), &ALWAYS) }, // SAFETY: the tree is locally owned and unmutated during the call
                RawRead::Found(_)
            ));
        }
        for b in 1..=200u8 {
            let k = [b, b'q'];
            assert!(matches!(
                unsafe { search_raw(&t, &R, &k, &ALWAYS) }, // SAFETY: the tree is locally owned and unmutated during the call
                RawRead::Found(_)
            ));
        }
    }

    #[test]
    fn failing_validation_reports_retry() {
        let t = build(&["alpha", "beta"]);
        assert_eq!(
            unsafe { search_raw(&t, &R, b"alpha", &NEVER) }, // SAFETY: the tree is locally owned and unmutated during the call
            RawRead::Retry
        );
        let mut out = Vec::new();
        assert!(!collect_raw(
            &t,
            b"a",
            Some(b"z".as_slice()),
            usize::MAX,
            &NEVER,
            &mut out
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn raw_range_matches_locked_range() {
        let mut t = Art::new();
        for i in 0..500 {
            let k = format!("k{:04}", i);
            t.insert(&R, k.as_bytes(), OwnedLeaf::new(k.as_bytes(), i as u64));
        }
        let (lo, hi) = (b"k0100".as_slice(), Some(b"k0199".as_slice()));
        for cap in [0, 1, 37, 100, usize::MAX] {
            let mut raw = Vec::new();
            assert!(collect_raw(&t, lo, hi, cap, &ALWAYS, &mut raw));
            let mut locked = Vec::new();
            t.for_each_in_range(&R, lo, hi, cap, |l| locked.push(*l));
            assert_eq!(raw.len(), cap.min(100));
            assert_eq!(raw, locked);
            assert_eq!(raw.first().map(|l| l.val), (cap > 0).then_some(100));
        }
    }

    #[test]
    fn raw_range_includes_boundary_prefix_keys() {
        let t = build(&["ab", "abc", "abd", "ac"]);
        let mut raw = Vec::new();
        assert!(collect_raw(
            &t,
            b"ab",
            Some(b"abc".as_slice()),
            usize::MAX,
            &ALWAYS,
            &mut raw
        ));
        let got: Vec<&[u8]> = raw.iter().map(|l| l.key.as_slice()).collect();
        assert_eq!(got, vec![b"ab".as_slice(), b"abc".as_slice()]);
    }

    #[test]
    fn empty_tree_raw_reads() {
        let t: Art<OwnedLeaf> = Art::new();
        assert_eq!(
            unsafe { search_raw(&t, &R, b"x", &ALWAYS) }, // SAFETY: the tree is locally owned and unmutated during the call
            RawRead::NotFound
        );
        let mut out = Vec::new();
        assert!(collect_raw(&t, b"", None, usize::MAX, &ALWAYS, &mut out));
        assert!(out.is_empty());
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

    /// The locked walk over `[start, end]`, at most `cap` rows: the keys it
    /// returned and the keys it loaded.
    fn scan(
        t: &Art<OwnedLeaf>,
        start: &[u8],
        end: Option<&[u8]>,
        cap: usize,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let r = Counting::default();
        let mut got = Vec::new();
        t.for_each_in_range(&r, start, end, cap, |l| got.push(l.key.as_slice().to_vec()));
        (got, r.0.into_inner())
    }

    /// The same range cut out of the sorted key set.
    fn model(keys: &[Vec<u8>], start: &[u8], end: Option<&[u8]>, cap: usize) -> Vec<Vec<u8>> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
            .into_iter()
            .filter(|k| k.as_slice() >= start && end.is_none_or(|e| k.as_slice() <= e))
            .take(cap)
            .collect()
    }

    fn bytes(keys: &[&str]) -> Vec<Vec<u8>> {
        keys.iter().map(|k| k.as_bytes().to_vec()).collect()
    }

    #[test]
    fn raw_range_keys_that_prefix_the_bounds() {
        // Every key but "ac" and "ba" is a proper prefix of a longer one.
        let keys = ["a", "ab", "abc", "abcd", "abd", "ac", "b", "ba"];
        let t = build(&keys);
        let keys = bytes(&keys);
        let probes = bytes(&["", "aa", "abb", "abcc", "abcde", "abz", "az", "bb"]);
        let bounds: Vec<&[u8]> = keys.iter().chain(&probes).map(Vec::as_slice).collect();
        for &start in &bounds {
            let ends = bounds.iter().map(|&e| Some(e)).chain([None]);
            for end in ends {
                for cap in [0, 1, 2, usize::MAX] {
                    let (got, _) = scan(&t, start, end, cap);
                    assert_eq!(
                        got,
                        model(&keys, start, end, cap),
                        "{start:?}..={end:?} cap {cap}"
                    );
                }
            }
        }
        // The proper prefixes of `start` sort below it; those of `end` do not
        // sort above it, and keys extending `end` do.
        let (got, _) = scan(&t, b"abcd", Some(b"b"), usize::MAX);
        assert_eq!(got, bytes(&["abcd", "abd", "ac", "b"]));
        let (got, _) = scan(&t, b"a", Some(b"abc"), usize::MAX);
        assert_eq!(got, bytes(&["a", "ab", "abc"]));
    }

    #[test]
    fn raw_range_terminator_leaves_need_no_key_load() {
        // "ab" sits behind the terminator edge of the node at path "ab".
        let t = build(&["ab", "abc", "abd"]);
        let (got, loaded) = scan(&t, b"ab", Some(b"abd"), usize::MAX);
        assert_eq!(got, bytes(&["ab", "abc", "abd"]));
        assert_eq!(loaded, bytes(&["abd"]), "only the end-spine leaf");
        // Below a start it is a proper prefix of: skipped unloaded. The
        // leaf at path "abc" = `start` needs no load either.
        let (got, loaded) = scan(&t, b"abc", None, usize::MAX);
        assert_eq!(got, bytes(&["abc", "abd"]));
        assert!(loaded.is_empty());
        // Exactly the end bound.
        let (got, loaded) = scan(&t, b"a", Some(b"ab"), usize::MAX);
        assert_eq!(got, bytes(&["ab"]));
        assert!(loaded.is_empty());
    }

    #[test]
    fn raw_range_with_start_equal_to_end() {
        let keys = ["a", "ab", "abc", "abd", "b"];
        let t = build(&keys);
        for k in ["", "a", "aa", "ab", "abc", "abcd", "abd", "b", "c"] {
            let (got, _) = scan(&t, k.as_bytes(), Some(k.as_bytes()), usize::MAX);
            let want = if keys.contains(&k) {
                bytes(&[k])
            } else {
                Vec::new()
            };
            assert_eq!(got, want, "{k:?}..={k:?}");
        }
    }

    #[test]
    fn raw_range_over_every_node_kind() {
        // Root fans out to NODE256; each "<b>q" node below holds a
        // terminator leaf and, for even bytes, a NODE48 of 40 children.
        let mut keys = Vec::new();
        for b in 1..=200u8 {
            keys.push(vec![b]);
            keys.push(vec![b, b'q']);
            if b % 2 == 0 {
                keys.extend((0..40u8).map(|c| vec![b, b'q', b'0' + c]));
            }
        }
        let mut t = Art::new();
        for k in &keys {
            t.insert(&R, k, OwnedLeaf::new(k, 0));
        }
        assert!(t.node_histogram()[2] > 0 && t.node_histogram()[3] > 0);
        let bounds: [&[u8]; 6] = [b"", &[7], &[8, b'q'], &[8, b'q', b'5'], &[90, b'r'], &[201]];
        for &start in &bounds {
            for end in bounds.iter().map(|&e| Some(e)).chain([None]) {
                for cap in [1, 50, usize::MAX] {
                    let (got, _) = scan(&t, start, end, cap);
                    assert_eq!(
                        got,
                        model(&keys, start, end, cap),
                        "{start:?}..={end:?} cap {cap}"
                    );
                }
            }
        }
        let (got, loaded) = scan(&t, b"", None, usize::MAX);
        assert_eq!(got.len(), keys.len());
        assert!(loaded.is_empty(), "a whole-tree walk loads no key");
    }

    #[test]
    fn validation_failure_after_the_cap_still_fails() {
        let mut t = Art::new();
        for i in 0..500 {
            let k = format!("k{:04}", i);
            t.insert(&R, k.as_bytes(), OwnedLeaf::new(k.as_bytes(), i as u64));
        }
        // Fail every validation made once `cap` leaves are out.
        let cap = 10;
        let emitted = Cell::new(0);
        let late = Cell::new(0);
        let validate = || {
            if emitted.get() < cap {
                return true;
            }
            late.set(late.get() + 1);
            false
        };
        // SAFETY: the tree is locally owned and unmutated during the call.
        let ok = unsafe {
            range_walk(&t, &R, b"k0100", None, cap, &validate, |_| {
                emitted.set(emitted.get() + 1)
            })
        };
        assert_eq!(emitted.get(), cap);
        assert!(late.get() > 0, "the walk validated nothing after the cap");
        assert!(!ok, "a failed validation after the cap must fail the walk");

        // `range_collect_raw` then rolls `out` back to what it held before.
        let calls = Cell::new(0);
        let counting = || {
            calls.set(calls.get() + 1);
            true
        };
        let mut out = vec![OwnedLeaf::new(b"x", 0)];
        assert!(collect_raw(&t, b"k0100", None, cap, &counting, &mut out));
        assert_eq!(out.len(), 1 + cap);
        let last = calls.get();
        calls.set(0);
        let fail_last = || {
            calls.set(calls.get() + 1);
            calls.get() < last
        };
        out.truncate(1);
        assert!(!collect_raw(&t, b"k0100", None, cap, &fail_last, &mut out));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn prefix_helpers() {
        assert!(prefix_gt(b"abd", b"abc"));
        assert!(!prefix_gt(b"abc", b"abc"));
        assert!(prefix_gt(b"abcd", b"abc")); // longer, equal prefix: all > end
        assert!(!prefix_gt(b"ab", b"abc")); // "ab" itself ≤ "abc"
        assert!(prefix_lt(b"aa", b"ab"));
        assert!(!prefix_lt(b"ab", b"ab"));
        assert!(!prefix_lt(b"abc", b"ab"));
        assert!(!prefix_lt(b"ab", b"abc")); // recurse, don't skip
    }
}
