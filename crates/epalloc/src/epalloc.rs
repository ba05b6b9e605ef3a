//! The allocator core: Algorithm 2 (`EPMalloc`), Algorithm 6 (`EPRecycle`),
//! and the recovery-side log replay.

use crate::chunk::{ChunkHeader, Geometry, ObjClass, OBJS_PER_CHUNK};
use crate::leaf::{leaf_read_pvalue, leaf_read_val_len, leaf_write_pvalue, persist_leaf_pvalue};
use crate::logs::{RlogGuard, SlotPool, UlogGuard};
use crate::root::{
    Root, UlogMeta, N_RLOGS, N_ULOGS, RLOG_CLASS, RLOG_PCURRENT, RLOG_SIZE, ULOG_META, ULOG_PLEAF,
    ULOG_PNEWV, ULOG_POLDV, ULOG_SIZE,
};
use hart_kv::{Error, Result};
use hart_pm::{PmPtr, PmemPool};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BITMAP_MASK: u64 = (1 << OBJS_PER_CHUNK) - 1;

/// Volatile per-class state: reservation masks for handed-out-but-not-yet-
/// committed objects, a cache of chunks known to have free slots, and a
/// mirror of the persistent chunk list. A crash drops all three —
/// reservations are what make the allocation protocol leak-free, and the
/// free-chunk cache and the mirror are rebuilt from the persistent list on
/// open.
///
/// The cache keeps `EPMalloc` O(1): without it, Algorithm 2's list walk
/// degenerates to O(#chunks) per allocation once retired slots accumulate
/// in old chunks (e.g. during the paper's update phases). The mirror does
/// the same for `EPRecycle`: Algorithm 6 walks the list from the head to
/// find an emptied chunk's predecessor, and chunks that empty late sit
/// deep in a list that grows at the head (DESIGN.md §7.2 and §7.7).
#[derive(Default)]
struct ClassState {
    reserved: HashMap<u64, u64>,
    free_hints: BTreeSet<u64>,
    /// The mirror: the list head (0 when the list is empty) and, for every
    /// other linked chunk, its predecessor in `pred` or, if `alloc` linked
    /// the chunk's successor since the last fold, in `new_links`. Complete
    /// once `open` has rebuilt it.
    head: u64,
    pred: HashMap<u64, u64>,
    /// `(chunk, predecessor)` pairs recorded by `alloc`, folded into `pred`
    /// before the mirror is read: an append keeps map inserts, which land
    /// on cold cache lines, off the allocation path (DESIGN.md §7.7).
    new_links: Vec<(u64, u64)>,
}

impl ClassState {
    /// Apply the links `alloc` recorded since the last fold.
    fn fold_links(&mut self) {
        for (chunk, pred) in self.new_links.drain(..) {
            self.pred.insert(chunk, pred);
        }
    }

    /// Chunks the mirror holds (all linked ones, once rebuilt).
    fn chunk_count(&self) -> usize {
        self.pred.len() + self.new_links.len() + usize::from(self.head != 0)
    }

    /// Reserve a free slot in `chunk` if one exists, maintaining the
    /// free-chunk cache. Returns the chosen object index.
    fn try_reserve(&mut self, hdr: ChunkHeader, chunk: PmPtr) -> Option<u64> {
        let reserved = self.reserved.get(&chunk.offset()).copied().unwrap_or(0);
        let free = !(hdr.bitmap() | reserved) & BITMAP_MASK;
        if free == 0 {
            self.free_hints.remove(&chunk.offset());
            return None;
        }
        let hint = hdr.next_free_hint();
        let idx = if hint < OBJS_PER_CHUNK && free & (1 << hint) != 0 {
            hint
        } else {
            free.trailing_zeros() as u64
        };
        *self.reserved.entry(chunk.offset()).or_insert(0) |= 1 << idx;
        if free & !(1 << idx) == 0 {
            self.free_hints.remove(&chunk.offset());
        } else {
            self.free_hints.insert(chunk.offset());
        }
        Some(idx)
    }
}

/// Aggregate allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Committed (bitmap-set) objects per class `[LEAF, VALUE8, VALUE16]`.
    pub live: [u64; 3],
    /// Chunks currently linked per class.
    pub chunks: [usize; 3],
}

/// The enhanced persistent memory allocator (§III-A.4).
///
/// Thread safety: each object class has its own mutex guarding both the
/// volatile reservations and its persistent chunk list, so leaf and value
/// allocations on different classes proceed in parallel while list surgery
/// stays serialized per class.
pub struct EPallocator {
    pool: Arc<PmemPool>,
    root: Root,
    classes: [Mutex<ClassState>; 3],
    live: [AtomicU64; 3],
    ulog_slots: SlotPool,
    rlog_slots: SlotPool,
    /// Observability sink for alloc/commit/retire/recycle/ulog rates; inert
    /// until [`EPallocator::with_recorder`] replaces it.
    obs: hart_obs::Recorder,
}

impl EPallocator {
    /// Format a fresh pool and return an allocator over it.
    pub fn create(pool: Arc<PmemPool>) -> EPallocator {
        let root = Root::format(&pool);
        EPallocator::build(pool, root)
    }

    /// Open an existing pool: validate the root page, replay unfinished
    /// micro-logs, scrub stale leaf slots, rebuild the volatile per-class
    /// state, and recycle chunks a crash left linked but empty.
    pub fn open(pool: Arc<PmemPool>) -> Result<EPallocator> {
        let root = Root::check(&pool)?;
        // Volatile free lists did not survive the "crash".
        pool.reset_volatile_alloc();
        let alloc = EPallocator::build(pool, root);
        alloc.replay_rlogs();
        alloc.replay_ulogs();
        alloc.scrub_all_stale_leaves();
        alloc.recount_live();
        Ok(alloc)
    }

    fn build(pool: Arc<PmemPool>, root: Root) -> EPallocator {
        EPallocator {
            pool,
            root,
            classes: std::array::from_fn(|_| {
                Mutex::new_ranked(
                    ClassState::default(),
                    parking_lot::rank::EPALLOC_CLASS,
                    false,
                    "EPallocator.classes",
                )
            }),
            live: Default::default(),
            ulog_slots: SlotPool::new(N_ULOGS),
            rlog_slots: SlotPool::new(N_RLOGS),
            obs: hart_obs::Recorder::disabled(),
        }
    }

    /// Route allocator events into `rec` (builder style, called by the
    /// index right after `create`/`open`, before the allocator is shared).
    pub fn with_recorder(mut self, rec: hart_obs::Recorder) -> EPallocator {
        self.obs = rec;
        self
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    // ------------------------------------------------------------- EPMalloc

    /// Algorithm 2: hand out a free object of `class`.
    ///
    /// The object's persistent bit is **not** set; call
    /// [`EPallocator::commit`] once the object is fully initialized, or
    /// [`EPallocator::abort`] to hand it back. Leaf allocations scrub the
    /// stale `p_value` a crashed insert/delete may have left (lines 12–16).
    pub fn alloc(&self, class: ObjClass) -> Result<PmPtr> {
        let geo = class.geometry();
        let obj = {
            let mut st = self.classes[class.idx()].lock();
            let head_slot = self.root.head_ptr(class.idx());
            // Lines 1–7 of Algorithm 2, through the free-chunk cache: the
            // cache provably contains every chunk with a reservable slot
            // (maintained on retire/abort/scrub/new-chunk and rebuilt on
            // open), so an empty cache means "no free object exists" and
            // the paper's list walk would scan every chunk only to find
            // them all full — O(#chunks) per fresh-chunk allocation, which
            // made bulk insertion quadratic (DESIGN.md §7.2).
            let mut found = None;
            while let Some(&off) = st.free_hints.iter().next() {
                let chunk = PmPtr(off);
                let hdr = ChunkHeader::load(&self.pool, chunk);
                if let Some(idx) = st.try_reserve(hdr, chunk) {
                    found = Some(geo.obj_ptr(chunk, idx));
                    break;
                }
                // try_reserve dropped the stale hint; keep looking.
            }
            match found {
                Some(o) => o,
                None => {
                    // Lines 8–11: allocate a fresh chunk, link it at the
                    // head (pnext first, head pointer last — an 8-byte
                    // atomic store — so a crash leaves either the old or
                    // the new list).
                    let new_chunk = self
                        .pool
                        .alloc_raw(geo.chunk_bytes, geo.align)
                        .ok_or(Error::PmExhausted)?;
                    let old_head = self.pool.read::<u64>(head_slot);
                    geo.set_pnext(&self.pool, new_chunk, PmPtr(old_head));
                    self.pool.write_u64_atomic(head_slot, new_chunk.offset());
                    self.pool.persist(head_slot, 8);
                    if old_head != 0 {
                        st.new_links.push((old_head, new_chunk.offset()));
                    }
                    st.head = new_chunk.offset();
                    *st.reserved.entry(new_chunk.offset()).or_insert(0) |= 1;
                    st.free_hints.insert(new_chunk.offset());
                    geo.obj_ptr(new_chunk, 0)
                }
            }
        };
        if class == ObjClass::Leaf {
            self.scrub_stale_leaf(obj);
        }
        self.obs.add(hart_obs::Event::Alloc, 1);
        Ok(obj)
    }

    /// Mark `obj` as durably used: set its bitmap bit and persist the chunk
    /// header. The final step of Algorithm 1 (line 18 for leaves, line 14
    /// for values).
    pub fn commit(&self, obj: PmPtr, class: ObjClass) {
        let geo = class.geometry();
        let (chunk, idx) = geo.locate(obj);
        let mut st = self.classes[class.idx()].lock();
        let hdr = ChunkHeader::load(&self.pool, chunk);
        debug_assert!(!hdr.is_set(idx), "commit of an already-committed object");
        // The object image must be durable before the bitmap bit makes it
        // recoverable (no-op unless built with hart-pm's `pm-check`).
        self.pool.check_durable(obj, class.obj_size() as usize);
        hdr.with_set(idx).store(&self.pool, chunk);
        if let Some(m) = st.reserved.get_mut(&chunk.offset()) {
            *m &= !(1 << idx);
            if *m == 0 {
                st.reserved.remove(&chunk.offset());
            }
        }
        self.live[class.idx()].fetch_add(1, Ordering::Relaxed);
        self.obs.add(hart_obs::Event::Commit, 1);
    }

    /// Hand back an uncommitted object (failed multi-step operation).
    /// Volatile only — nothing to persist, by design.
    pub fn abort(&self, obj: PmPtr, class: ObjClass) {
        let geo = class.geometry();
        let (chunk, idx) = geo.locate(obj);
        let mut st = self.classes[class.idx()].lock();
        if let Some(m) = st.reserved.get_mut(&chunk.offset()) {
            *m &= !(1 << idx);
            if *m == 0 {
                st.reserved.remove(&chunk.offset());
            }
        }
        st.free_hints.insert(chunk.offset());
    }

    /// Durably mark a committed object free again: clear its bitmap bit and
    /// persist the header ("Reset and persistent() the bit", Algorithms 3
    /// and 5).
    pub fn retire(&self, obj: PmPtr, class: ObjClass) {
        let geo = class.geometry();
        let (chunk, idx) = geo.locate(obj);
        let mut st = self.classes[class.idx()].lock();
        let hdr = ChunkHeader::load(&self.pool, chunk);
        debug_assert!(hdr.is_set(idx), "retire of a non-committed object");
        hdr.with_clear(idx).store(&self.pool, chunk);
        st.free_hints.insert(chunk.offset());
        self.dec_live(class);
        self.obs.add(hart_obs::Event::Retire, 1);
    }

    /// Durably retire a leaf *and* null its `p_value`, atomically with
    /// respect to reallocation: both happen under the leaf-class lock, so
    /// no concurrent `alloc` can hand the slot out while it still points
    /// at a value object (the aliasing race described in the crate docs).
    ///
    /// Crash-ordering: the bit is cleared (persisted) before the pointer
    /// is nulled (persisted). A crash in between leaves a *free* leaf with
    /// a dangling `p_value`, exactly the state Algorithm 2's scrub and the
    /// recovery sweep already handle.
    pub fn retire_leaf(&self, leaf: PmPtr) {
        let geo = ObjClass::Leaf.geometry();
        let (chunk, idx) = geo.locate(leaf);
        let mut st = self.classes[ObjClass::Leaf.idx()].lock();
        let hdr = ChunkHeader::load(&self.pool, chunk);
        debug_assert!(hdr.is_set(idx), "retire of a non-committed leaf");
        hdr.with_clear(idx).store(&self.pool, chunk);
        leaf_write_pvalue(&self.pool, leaf, PmPtr::NULL, 0);
        persist_leaf_pvalue(&self.pool, leaf);
        st.free_hints.insert(chunk.offset());
        self.dec_live(ObjClass::Leaf);
        self.obs.add(hart_obs::Event::Retire, 1);
    }

    /// Is `obj`'s bitmap bit set? (Algorithm 4 line 9's validity check.)
    pub fn is_live(&self, obj: PmPtr, class: ObjClass) -> bool {
        let geo = class.geometry();
        let (chunk, idx) = geo.locate(obj);
        ChunkHeader::load(&self.pool, chunk).is_set(idx)
    }

    fn dec_live(&self, class: ObjClass) {
        let c = &self.live[class.idx()];
        let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    // ------------------------------------------------------------ EPRecycle

    /// Algorithm 6: if the chunk containing `obj` is completely free,
    /// unlink it from its class list (recycle-logged) and return it to the
    /// pool. Returns `true` when the chunk was reclaimed.
    pub fn recycle_containing(&self, obj: PmPtr, class: ObjClass) -> bool {
        let geo = class.geometry();
        let (chunk, _) = geo.locate(obj);
        self.recycle_chunk(chunk, class)
    }

    /// Algorithm 6 on a chunk pointer.
    pub fn recycle_chunk(&self, chunk: PmPtr, class: ObjClass) -> bool {
        let geo = class.geometry();
        // The class lock is held across the whole operation (including the
        // raw free and the log reclaim) so a concurrent same-class
        // allocation cannot reuse the chunk while the recycle log still
        // references it.
        let mut st = self.classes[class.idx()].lock();
        let hdr = ChunkHeader::load(&self.pool, chunk);
        if hdr.bitmap() != 0 {
            return false; // lines 1–2: a used object exists
        }
        if st.reserved.get(&chunk.offset()).copied().unwrap_or(0) != 0 {
            return false; // handed out but uncommitted
        }
        st.free_hints.remove(&chunk.offset());
        st.fold_links();
        let rlog = RlogGuard::new(&self.pool, self.root, &self.rlog_slots);
        rlog.record_current(chunk, class); // line 4
        let head_slot = self.root.head_ptr(class.idx());
        let head = PmPtr(self.pool.read::<u64>(head_slot));
        let (prev, next) = if head == chunk {
            // Lines 5–6: unlink at the head.
            let next = geo.read_pnext(&self.pool, chunk);
            self.pool.write_u64_atomic(head_slot, next.offset());
            self.pool.persist(head_slot, 8);
            (PmPtr::NULL, next)
        } else {
            // Lines 8–10: find the predecessor and splice it out. The
            // mirror's predecessor is trusted once its PNext re-reads as
            // `chunk`; otherwise (a recycle inside `open`, before the
            // mirror is rebuilt) walk the list.
            let mirrored = st
                .pred
                .get(&chunk.offset())
                .map(|&p| PmPtr(p))
                .filter(|&p| geo.read_pnext(&self.pool, p) == chunk);
            let Some(prev) = mirrored.or_else(|| self.walk_to_pred(geo, head, chunk)) else {
                // Not in the list (already recycled by a replay).
                rlog.finish();
                return false;
            };
            rlog.record_prev(prev);
            let next = geo.read_pnext(&self.pool, chunk);
            geo.set_pnext(&self.pool, prev, next);
            (prev, next)
        };
        if prev.is_null() {
            // `next` is the new head.
            st.head = next.offset();
            st.pred.remove(&next.offset());
        } else {
            st.pred.remove(&chunk.offset());
            if !next.is_null() {
                st.pred.insert(next.offset(), prev.offset());
            }
        }
        // Line 11: pfree (zeroes + persists the chunk).
        self.pool.free_raw(chunk, geo.chunk_bytes, geo.align);
        // Line 12: LogReclaim.
        rlog.finish();
        drop(st);
        self.obs.add(hart_obs::Event::RecycleChunk, 1);
        true
    }

    /// Algorithm 6 lines 8–9 as written: walk `class`'s list from `head`
    /// to the chunk whose PNext is `chunk`. `None` if `chunk` is not linked.
    fn walk_to_pred(&self, geo: Geometry, head: PmPtr, chunk: PmPtr) -> Option<PmPtr> {
        let mut prev = head;
        while !prev.is_null() {
            let next = geo.read_pnext(&self.pool, prev);
            if next == chunk {
                return Some(prev);
            }
            prev = next;
        }
        None
    }

    // ------------------------------------------------------------ micro-logs

    /// `GetMicroLog(UPDATE)`: acquire an update-log record for Algorithm 3.
    pub fn acquire_ulog(&self) -> UlogGuard<'_> {
        self.obs.add(hart_obs::Event::UlogAcquire, 1);
        UlogGuard::new(&self.pool, self.root, &self.ulog_slots)
    }

    // -------------------------------------------------------------- walking

    /// Visit every linked chunk of `class`.
    pub fn for_each_chunk<F: FnMut(PmPtr, ChunkHeader)>(&self, class: ObjClass, mut f: F) {
        let geo = class.geometry();
        let mut chunk = PmPtr(self.pool.read::<u64>(self.root.head_ptr(class.idx())));
        while !chunk.is_null() {
            let hdr = ChunkHeader::load(&self.pool, chunk);
            let next = geo.read_pnext(&self.pool, chunk);
            f(chunk, hdr);
            chunk = next;
        }
    }

    /// Visit every committed object of `class` (Algorithm 7's traversal).
    pub fn for_each_live<F: FnMut(PmPtr)>(&self, class: ObjClass, mut f: F) {
        let geo = class.geometry();
        self.for_each_chunk(class, |chunk, hdr| {
            let mut bits = hdr.bitmap();
            while bits != 0 {
                let idx = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                f(geo.obj_ptr(chunk, idx));
            }
        });
    }

    /// Committed objects of `class`.
    pub fn live_count(&self, class: ObjClass) -> u64 {
        self.live[class.idx()].load(Ordering::Relaxed)
    }

    /// Aggregate statistics, from volatile state only: chunk counts come
    /// from the chunk-list mirror, so taking them reads no PM.
    pub fn stats(&self) -> AllocStats {
        let mut s = AllocStats::default();
        for class in ObjClass::ALL {
            s.live[class.idx()] = self.live_count(class);
            s.chunks[class.idx()] = self.classes[class.idx()].lock().chunk_count();
        }
        s
    }

    // ------------------------------------------------------------- recovery

    /// Algorithm 2 lines 12–16: a freshly handed-out leaf slot may carry a
    /// `p_value` from a crashed insert or deletion; release the value it
    /// references and null the pointer.
    fn scrub_stale_leaf(&self, leaf: PmPtr) {
        let pv = leaf_read_pvalue(&self.pool, leaf);
        if pv.is_null() {
            return;
        }
        let vclass = ObjClass::for_value_len(leaf_read_val_len(&self.pool, leaf));
        let vgeo = vclass.geometry();
        let (vchunk, vidx) = vgeo.locate(pv);
        {
            let mut st = self.classes[vclass.idx()].lock();
            let hdr = ChunkHeader::load(&self.pool, vchunk);
            if hdr.is_set(vidx) {
                // Line 14: reset and persist the value bit.
                hdr.with_clear(vidx).store(&self.pool, vchunk);
                st.free_hints.insert(vchunk.offset());
                self.dec_live(vclass);
            }
        }
        // Line 15: EPRecycle(MemChunkOf(object.p_value)).
        self.recycle_chunk(vchunk, vclass);
        // Line 16: object.p_value = NULL (persisted — a deviation from the
        // paper that prevents stale aliasing; see crate docs).
        leaf_write_pvalue(&self.pool, leaf, PmPtr::NULL, 0);
        persist_leaf_pvalue(&self.pool, leaf);
    }

    /// Recovery-time sweep: scrub every *free* leaf slot with a dangling
    /// `p_value`, so crashed inserts/deletes cannot leak value objects even
    /// if their leaf slot is never reallocated.
    fn scrub_all_stale_leaves(&self) {
        let geo = Geometry::of(ObjClass::Leaf);
        let mut stale = Vec::new();
        self.for_each_chunk(ObjClass::Leaf, |chunk, hdr| {
            for idx in 0..OBJS_PER_CHUNK {
                if !hdr.is_set(idx) {
                    let leaf = geo.obj_ptr(chunk, idx);
                    if !leaf_read_pvalue(&self.pool, leaf).is_null() {
                        stale.push(leaf);
                    }
                }
            }
        });
        for leaf in stale {
            self.scrub_stale_leaf(leaf);
        }
    }

    /// Replay unfinished recycle logs (Algorithm 6's recovery analysis):
    /// finish the unlink if needed, then free the chunk.
    fn replay_rlogs(&self) {
        for i in 0..N_RLOGS {
            let base = self.root.rlog_ptr(i);
            let pcur = PmPtr(self.pool.read::<u64>(base.add(RLOG_PCURRENT)));
            if pcur.is_null() {
                continue;
            }
            let class_idx = self.pool.read::<u64>(base.add(RLOG_CLASS)) as usize;
            if class_idx >= 3 {
                // Unreachable given write ordering; clear conservatively.
                self.reset_rlog(base);
                continue;
            }
            let class = ObjClass::from_idx(class_idx);
            let geo = class.geometry();
            let hdr = ChunkHeader::load(&self.pool, pcur);
            if hdr.bitmap() != 0 {
                // The recycle cannot have started on a non-empty chunk;
                // stale record — clear it.
                self.reset_rlog(base);
                continue;
            }
            // If the chunk is still linked, splice it out (the logged PPrev
            // may be stale, so recompute the predecessor).
            let head_slot = self.root.head_ptr(class.idx());
            let head = PmPtr(self.pool.read::<u64>(head_slot));
            if head == pcur {
                let next = geo.read_pnext(&self.pool, pcur);
                self.pool.write_u64_atomic(head_slot, next.offset());
                self.pool.persist(head_slot, 8);
            } else if let Some(prev) = self.walk_to_pred(geo, head, pcur) {
                geo.set_pnext(&self.pool, prev, geo.read_pnext(&self.pool, pcur));
            }
            // Resume from line 11: pfree. (A pre-crash pfree only fed the
            // volatile free list, which is gone — freeing again is the
            // recovery.)
            self.pool.free_raw(pcur, geo.chunk_bytes, geo.align);
            self.reset_rlog(base);
        }
    }

    fn reset_rlog(&self, base: PmPtr) {
        self.pool.write_zeros(base, RLOG_SIZE as usize);
        self.pool.persist(base, RLOG_SIZE as usize);
    }

    /// Replay unfinished update logs following Algorithm 3's recovery case
    /// analysis:
    /// * only `PLeaf` valid, or `PLeaf`+`POldV` valid → reset the log;
    /// * all three valid → resume from line 7 (every step idempotent).
    fn replay_ulogs(&self) {
        for i in 0..N_ULOGS {
            let base = self.root.ulog_ptr(i);
            let pleaf = PmPtr(self.pool.read::<u64>(base.add(ULOG_PLEAF)));
            let poldv = PmPtr(self.pool.read::<u64>(base.add(ULOG_POLDV)));
            let pnewv = PmPtr(self.pool.read::<u64>(base.add(ULOG_PNEWV)));
            if pleaf.is_null() && poldv.is_null() && pnewv.is_null() {
                continue;
            }
            if pleaf.is_null() || poldv.is_null() || pnewv.is_null() {
                // Crash before line 6: the old value is still current and
                // the new value's bit was never set — just reset the log.
                self.reset_ulog(base);
                continue;
            }
            let meta = UlogMeta::unpack(self.pool.read::<u64>(base.add(ULOG_META)));
            if meta.new_class as usize >= 3 || meta.old_class as usize >= 3 {
                self.reset_ulog(base);
                continue;
            }
            let new_class = ObjClass::from_idx(meta.new_class as usize);
            let old_class = ObjClass::from_idx(meta.old_class as usize);
            // Line 7: set the new value's bit.
            let ngeo = new_class.geometry();
            let (nchunk, nidx) = ngeo.locate(pnewv);
            let nhdr = ChunkHeader::load(&self.pool, nchunk);
            if !nhdr.is_set(nidx) {
                nhdr.with_set(nidx).store(&self.pool, nchunk);
            }
            // Line 8: swing the leaf's value pointer.
            leaf_write_pvalue(&self.pool, pleaf, pnewv, meta.new_len as usize);
            persist_leaf_pvalue(&self.pool, pleaf);
            // Line 9: reset the old value's bit.
            let ogeo = old_class.geometry();
            let (ochunk, oidx) = ogeo.locate(poldv);
            let ohdr = ChunkHeader::load(&self.pool, ochunk);
            if ohdr.is_set(oidx) {
                ohdr.with_clear(oidx).store(&self.pool, ochunk);
            }
            // Line 10: EPRecycle on the old value's chunk.
            self.recycle_chunk(ochunk, old_class);
            // Line 11: LogReclaim.
            self.reset_ulog(base);
        }
    }

    fn reset_ulog(&self, base: PmPtr) {
        self.pool.write_zeros(base, ULOG_SIZE as usize);
        self.pool.persist(base, ULOG_SIZE as usize);
    }

    /// Recount live objects and rebuild the free-chunk cache and the
    /// chunk-list mirror in one walk per class, then recycle every chunk
    /// the walk found empty: a delete or update that crashed after
    /// retiring a chunk's last object but before Algorithm 6 logged its
    /// recycle left the chunk linked, and nothing else would revisit it.
    fn recount_live(&self) {
        for class in ObjClass::ALL {
            let mut n = 0u64;
            let mut hints = BTreeSet::new();
            let mut pred = HashMap::new();
            let mut empty = Vec::new();
            let mut head = 0;
            let mut last = 0;
            self.for_each_chunk(class, |chunk, hdr| {
                n += hdr.popcount() as u64;
                if !hdr.is_full() {
                    hints.insert(chunk.offset());
                }
                if hdr.bitmap() == 0 {
                    empty.push(chunk);
                }
                if last == 0 {
                    head = chunk.offset();
                } else {
                    pred.insert(chunk.offset(), last);
                }
                last = chunk.offset();
            });
            self.live[class.idx()].store(n, Ordering::Relaxed);
            {
                let mut st = self.classes[class.idx()].lock();
                st.free_hints = hints;
                st.head = head;
                st.pred = pred;
            }
            for chunk in empty {
                self.recycle_chunk(chunk, class);
            }
        }
    }

    /// Compare each class's chunk-list mirror with a walk of its
    /// persistent list: the mirrored head must be the list's, every other
    /// linked chunk must map to its walked predecessor, and the mirror must
    /// hold no other chunk. Returns one message per mismatch;
    /// [`EPallocator::verify`] reports them too.
    pub fn mirror_mismatches(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for class in ObjClass::ALL {
            let mut st = self.classes[class.idx()].lock();
            st.fold_links();
            let mut head = 0;
            let mut last = 0;
            let mut linked = 0;
            self.for_each_chunk(class, |chunk, _| {
                linked += 1;
                if last == 0 {
                    head = chunk.offset();
                } else if st.pred.get(&chunk.offset()) != Some(&last) {
                    errors.push(format!(
                        "{class:?}: chunk {chunk:?} follows {last:#x} in the list, mirror has {:x?}",
                        st.pred.get(&chunk.offset())
                    ));
                }
                last = chunk.offset();
            });
            if st.head != head {
                errors.push(format!(
                    "{class:?}: mirror head {:#x}, list head {head:#x}",
                    st.head
                ));
            }
            if st.chunk_count() != linked {
                errors.push(format!(
                    "{class:?}: mirror holds {} chunks, the list links {linked}",
                    st.chunk_count()
                ));
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hart_pm::PoolConfig;

    fn fresh() -> EPallocator {
        EPallocator::create(Arc::new(PmemPool::new(PoolConfig::test_small())))
    }

    fn crashy() -> EPallocator {
        EPallocator::create(Arc::new(PmemPool::new(PoolConfig::test_crash())))
    }

    #[test]
    fn alloc_commit_cycle() {
        let a = fresh();
        let p = a.alloc(ObjClass::Value8).unwrap();
        assert!(!a.is_live(p, ObjClass::Value8));
        a.commit(p, ObjClass::Value8);
        assert!(a.is_live(p, ObjClass::Value8));
        assert_eq!(a.live_count(ObjClass::Value8), 1);
        a.retire(p, ObjClass::Value8);
        assert!(!a.is_live(p, ObjClass::Value8));
        assert_eq!(a.live_count(ObjClass::Value8), 0);
    }

    #[test]
    fn alloc_is_unique_until_released() {
        let a = fresh();
        let p1 = a.alloc(ObjClass::Value8).unwrap();
        let p2 = a.alloc(ObjClass::Value8).unwrap();
        assert_ne!(p1, p2, "reserved objects must not be handed out twice");
        a.abort(p1, ObjClass::Value8);
        let p3 = a.alloc(ObjClass::Value8).unwrap();
        assert_eq!(p3, p1, "aborted object becomes available again");
    }

    #[test]
    fn chunk_fills_then_grows() {
        let a = fresh();
        let mut ptrs = Vec::new();
        for _ in 0..OBJS_PER_CHUNK {
            let p = a.alloc(ObjClass::Value16).unwrap();
            a.commit(p, ObjClass::Value16);
            ptrs.push(p);
        }
        assert_eq!(a.stats().chunks[ObjClass::Value16.idx()], 1);
        let extra = a.alloc(ObjClass::Value16).unwrap();
        a.commit(extra, ObjClass::Value16);
        assert_eq!(a.stats().chunks[ObjClass::Value16.idx()], 2);
        // All 57 pointers distinct.
        ptrs.push(extra);
        ptrs.sort_unstable();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 57);
    }

    #[test]
    fn retire_then_reuse_same_slot() {
        let a = fresh();
        let p = a.alloc(ObjClass::Value8).unwrap();
        a.commit(p, ObjClass::Value8);
        a.retire(p, ObjClass::Value8);
        let q = a.alloc(ObjClass::Value8).unwrap();
        assert_eq!(p, q, "hint should lead back to the freed slot");
    }

    #[test]
    fn recycle_empty_chunk() {
        let a = fresh();
        // Fill one chunk and one object of a second chunk.
        let mut first = Vec::new();
        for _ in 0..OBJS_PER_CHUNK {
            let p = a.alloc(ObjClass::Value8).unwrap();
            a.commit(p, ObjClass::Value8);
            first.push(p);
        }
        let second = a.alloc(ObjClass::Value8).unwrap();
        a.commit(second, ObjClass::Value8);
        assert_eq!(a.stats().chunks[ObjClass::Value8.idx()], 2);

        // Retire the whole first chunk and recycle it.
        for p in &first {
            a.retire(*p, ObjClass::Value8);
        }
        assert!(a.recycle_containing(first[0], ObjClass::Value8));
        assert_eq!(a.stats().chunks[ObjClass::Value8.idx()], 1);
        // The survivor is still live.
        assert!(a.is_live(second, ObjClass::Value8));
    }

    #[test]
    fn recycle_refuses_nonempty_or_reserved() {
        let a = fresh();
        let p = a.alloc(ObjClass::Value8).unwrap();
        a.commit(p, ObjClass::Value8);
        assert!(
            !a.recycle_containing(p, ObjClass::Value8),
            "live object present"
        );
        a.retire(p, ObjClass::Value8);
        let q = a.alloc(ObjClass::Value8).unwrap(); // reserved, uncommitted
        assert!(
            !a.recycle_containing(q, ObjClass::Value8),
            "reservation present"
        );
    }

    #[test]
    fn recycle_middle_of_list() {
        let a = fresh();
        // Three chunks: fill chunk1, chunk2, chunk3 partially. List order is
        // newest-first: head=c3 -> c2 -> c1.
        let mut all = Vec::new();
        for _ in 0..(2 * OBJS_PER_CHUNK + 1) {
            let p = a.alloc(ObjClass::Value8).unwrap();
            a.commit(p, ObjClass::Value8);
            all.push(p);
        }
        assert_eq!(a.stats().chunks[ObjClass::Value8.idx()], 3);
        // Empty the *second* chunk (objects 56..112 are in chunk 2).
        for p in &all[OBJS_PER_CHUNK as usize..2 * OBJS_PER_CHUNK as usize] {
            a.retire(*p, ObjClass::Value8);
        }
        assert!(a.recycle_containing(all[OBJS_PER_CHUNK as usize], ObjClass::Value8));
        assert_eq!(a.stats().chunks[ObjClass::Value8.idx()], 2);
        assert_eq!(a.mirror_mismatches(), Vec::<String>::new());
        // Others still reachable.
        let mut seen = 0;
        a.for_each_live(ObjClass::Value8, |_| seen += 1);
        assert_eq!(seen, OBJS_PER_CHUNK + 1);
    }

    /// Fill `chunks` Value8 chunks; returns the objects oldest-first, so
    /// the first chunk's objects sit at the tail of the list.
    fn fill_chunks(a: &EPallocator, chunks: u64) -> Vec<PmPtr> {
        (0..chunks * OBJS_PER_CHUNK)
            .map(|_| {
                let p = a.alloc(ObjClass::Value8).unwrap();
                a.commit(p, ObjClass::Value8);
                p
            })
            .collect()
    }

    #[test]
    fn recycling_the_tail_reads_a_constant_number_of_lines() {
        let a = fresh();
        let objs = fill_chunks(&a, 64);
        for p in &objs[..OBJS_PER_CHUNK as usize] {
            a.retire(*p, ObjClass::Value8);
        }
        let stats = a.pool().stats();
        let before = stats.snapshot().read_lines;
        assert!(a.recycle_containing(objs[0], ObjClass::Value8));
        let reads = stats.snapshot().read_lines - before;
        // Header, head slot, the mirrored predecessor's PNext, the
        // chunk's own PNext — a walk would read 63 predecessors.
        assert!(reads <= 8, "tail recycle read {reads} lines");
        assert_eq!(a.stats().chunks[ObjClass::Value8.idx()], 63);
        assert_eq!(a.mirror_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn open_rebuilds_the_mirror() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        let a = EPallocator::create(Arc::clone(&pool));
        let objs = fill_chunks(&a, 3);
        drop(a);
        let b = EPallocator::open(pool).unwrap();
        assert_eq!(b.mirror_mismatches(), Vec::<String>::new());
        assert_eq!(b.stats().chunks, [0, 3, 0]);
        // The middle chunk, then the tail, then the head.
        for range in [1, 0, 2] {
            let chunk = &objs[range * OBJS_PER_CHUNK as usize..][..OBJS_PER_CHUNK as usize];
            for p in chunk {
                b.retire(*p, ObjClass::Value8);
            }
            assert!(b.recycle_containing(chunk[0], ObjClass::Value8));
            assert_eq!(b.mirror_mismatches(), Vec::<String>::new());
        }
        assert_eq!(b.stats().chunks, [0, 0, 0]);
    }

    #[test]
    fn open_recycles_chunks_a_crash_left_empty() {
        // A delete that crashes between retiring a chunk's last object and
        // Algorithm 6 leaves the chunk linked and empty.
        let a = crashy();
        let pool = Arc::clone(a.pool());
        let objs = fill_chunks(&a, 3);
        for p in &objs[OBJS_PER_CHUNK as usize..2 * OBJS_PER_CHUNK as usize] {
            a.retire(*p, ObjClass::Value8);
        }
        drop(a);
        pool.simulate_crash();
        let b = EPallocator::open(pool).unwrap();
        assert_eq!(b.stats().chunks, [0, 2, 0]);
        assert_eq!(b.live_count(ObjClass::Value8), 2 * OBJS_PER_CHUNK);
        assert_eq!(b.mirror_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn stale_mirror_entry_falls_back_to_the_walk() {
        let a = fresh();
        let objs = fill_chunks(&a, 3);
        let geo = ObjClass::Value8.geometry();
        let tail = geo.locate(objs[0]).0;
        // Point the tail's mirrored predecessor at the head, whose PNext
        // is not the tail: the re-read must reject it.
        let head = PmPtr(a.pool.read::<u64>(a.root.head_ptr(ObjClass::Value8.idx())));
        {
            let mut st = a.classes[ObjClass::Value8.idx()].lock();
            st.fold_links();
            st.pred.insert(tail.offset(), head.offset());
        }
        assert_eq!(a.mirror_mismatches().len(), 1);
        for p in &objs[..OBJS_PER_CHUNK as usize] {
            a.retire(*p, ObjClass::Value8);
        }
        assert!(a.recycle_containing(objs[0], ObjClass::Value8));
        assert_eq!(a.stats().chunks[ObjClass::Value8.idx()], 2);
        assert_eq!(a.mirror_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn for_each_live_enumerates_commits_only() {
        let a = fresh();
        let p1 = a.alloc(ObjClass::Leaf).unwrap();
        a.commit(p1, ObjClass::Leaf);
        let _uncommitted = a.alloc(ObjClass::Leaf).unwrap();
        let mut live = Vec::new();
        a.for_each_live(ObjClass::Leaf, |p| live.push(p));
        assert_eq!(live, vec![p1]);
    }

    #[test]
    fn open_rejects_unformatted_pool() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        assert!(EPallocator::open(pool).is_err());
    }

    #[test]
    fn reopen_preserves_live_objects() {
        let pool = Arc::new(PmemPool::new(PoolConfig::test_small()));
        let a = EPallocator::create(Arc::clone(&pool));
        let mut committed = Vec::new();
        for i in 0..100 {
            let class = if i % 2 == 0 {
                ObjClass::Value8
            } else {
                ObjClass::Leaf
            };
            let p = a.alloc(class).unwrap();
            a.commit(p, class);
            committed.push((p, class));
        }
        drop(a);
        let b = EPallocator::open(pool).unwrap();
        assert_eq!(b.live_count(ObjClass::Value8), 50);
        assert_eq!(b.live_count(ObjClass::Leaf), 50);
        for (p, class) in committed {
            assert!(b.is_live(p, class));
        }
    }

    #[test]
    fn crash_drops_uncommitted_allocations() {
        let a = crashy();
        let pool = Arc::clone(a.pool());
        // Committed object survives; reserved-but-uncommitted one is
        // reclaimed because its bit was never set.
        let keep = a.alloc(ObjClass::Value8).unwrap();
        a.commit(keep, ObjClass::Value8);
        let lose = a.alloc(ObjClass::Value8).unwrap();
        assert_ne!(keep, lose);
        drop(a);
        pool.simulate_crash();
        let b = EPallocator::open(pool).unwrap();
        assert_eq!(b.live_count(ObjClass::Value8), 1);
        assert!(b.is_live(keep, ObjClass::Value8));
        // The lost slot is allocatable again — no persistent leak.
        let again = b.alloc(ObjClass::Value8).unwrap();
        assert_eq!(again, lose);
    }

    #[test]
    fn crash_mid_insert_scrubs_value_via_leaf_alloc() {
        // Simulate Algorithm 1 crashing between line 14 (value bit set) and
        // line 18 (leaf bit set): the value bit is set, the leaf bit is not,
        // and the leaf's p_value points at the value.
        let a = crashy();
        let pool = Arc::clone(a.pool());
        let leaf = a.alloc(ObjClass::Leaf).unwrap();
        let val = a.alloc(ObjClass::Value8).unwrap();
        pool.write(val, &0x1111u64);
        pool.persist_val::<u64>(val);
        leaf_write_pvalue(&pool, leaf, val, 8);
        persist_leaf_pvalue(&pool, leaf);
        a.commit(val, ObjClass::Value8); // value bit set
                                         // ... crash before the leaf bit is set.
        drop(a);
        pool.simulate_crash();
        let b = EPallocator::open(Arc::clone(&pool)).unwrap();
        // The recovery sweep must have freed the orphaned value.
        assert_eq!(
            b.live_count(ObjClass::Value8),
            0,
            "orphaned value must be scrubbed"
        );
        assert_eq!(b.live_count(ObjClass::Leaf), 0);
        assert!(
            leaf_read_pvalue(&pool, leaf).is_null(),
            "p_value must be nulled"
        );
    }

    #[test]
    fn crashed_recycle_completes_at_open() {
        // Crash after the recycle log records PCurrent but before the
        // unlink: open() must finish the job.
        let a = crashy();
        let pool = Arc::clone(a.pool());
        // Two chunks so the head case and middle case both get exercise.
        let mut objs = Vec::new();
        for _ in 0..(OBJS_PER_CHUNK + 1) {
            let p = a.alloc(ObjClass::Value8).unwrap();
            a.commit(p, ObjClass::Value8);
            objs.push(p);
        }
        for p in &objs[..OBJS_PER_CHUNK as usize] {
            a.retire(*p, ObjClass::Value8);
        }
        // Hand-craft the crashed log: record PCurrent for the (now empty)
        // first chunk, then "crash".
        let geo = ObjClass::Value8.geometry();
        let (chunk, _) = geo.locate(objs[0]);
        {
            let rlog = RlogGuard::new(&pool, a.root, &a.rlog_slots);
            rlog.record_current(chunk, ObjClass::Value8);
            std::mem::forget(rlog); // leave the PM record in place
        }
        let chunks_before = a.stats().chunks[ObjClass::Value8.idx()];
        assert_eq!(chunks_before, 2);
        drop(a);
        pool.simulate_crash();
        let b = EPallocator::open(pool).unwrap();
        assert_eq!(
            b.stats().chunks[ObjClass::Value8.idx()],
            1,
            "replay must unlink and free the logged chunk"
        );
        assert!(b.is_live(objs[OBJS_PER_CHUNK as usize], ObjClass::Value8));
    }

    #[test]
    fn concurrent_alloc_commit_is_disjoint() {
        let a = Arc::new(fresh());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..300 {
                    let p = a.alloc(ObjClass::Value16).unwrap();
                    a.commit(p, ObjClass::Value16);
                    got.push(p.offset());
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate object handed out concurrently");
        assert_eq!(a.live_count(ObjClass::Value16), 1200);
    }

    #[test]
    fn stats_report_chunks_and_live() {
        let a = fresh();
        let s0 = a.stats();
        assert_eq!(s0, AllocStats::default());
        let p = a.alloc(ObjClass::Leaf).unwrap();
        a.commit(p, ObjClass::Leaf);
        let s1 = a.stats();
        assert_eq!(s1.live, [1, 0, 0]);
        assert_eq!(s1.chunks, [1, 0, 0]);
    }
}
