//! The DRAM hash directory mapping hash keys to ARTs (Fig. 1).
//!
//! A bucket array with chaining, grown online. Entries are created lazily
//! on first insert of a hash key (Algorithm 1 lines 3–5) and removed when
//! their ART becomes empty (Algorithm 5 lines 15–16). The directory itself
//! is read-mostly: after warm-up, pessimistic lookups take one bucket
//! read-lock, and the optimistic read path (DESIGN.md §Concurrency) takes
//! none at all.
//!
//! # Seqlock versioning
//!
//! Both levels of the structure carry a version counter for lock-free
//! readers:
//!
//! * each [`Bucket`] — bumped to odd before its entry table is swapped and
//!   back to even after, so a reader can detect a torn copy of the table's
//!   fat pointer;
//! * each [`Shard`] — bumped around *every* write-locked section (the
//!   write guard does it automatically), so a reader can detect any
//!   concurrent mutation of the shard's ART or of the PM records it owns.
//!
//! Bucket entry tables are immutable once published ([`BucketTable`]
//! replaced wholesale, never edited in place) and retired through
//! [`hart_ebr`], as are unlinked shards — the two facts that let readers
//! chase raw pointers into them while pinned.
//!
//! # Online resizing (DESIGN.md §Resizing)
//!
//! The bucket array is no longer fixed: the directory tracks its live
//! entry count and, when the load factor exceeds `resize_threshold`
//! entries per bucket (or one chain grows pathological), doubles the
//! bucket array. Growth is *incremental and cooperative*, Dash-style:
//!
//! * a grow installs a fresh, empty [`Table`] as `current` and demotes the
//!   full one to `old`; no entries move at grow time;
//! * every subsequent directory *write* drains a stride of `old` buckets
//!   into `current` (plus, always, the one bucket its own hash key maps
//!   to), each under that bucket's write lock — entries are published in
//!   the new table *before* they disappear from the old one;
//! * lookups probe `old` first, then `current` (loading `current` before
//!   `old`); the publish order above makes a miss in both tables a
//!   committed absence *provided `current` did not change during the
//!   probe* — a grow landing mid-probe can demote the probed current
//!   table and drain the key's bucket into a table the probe never
//!   visits, so every miss revalidates the `current` pointer and retries
//!   the whole two-table probe if it moved (the EBR pin / graveyard keeps
//!   table addresses stable, making pointer equality an exact test);
//! * when the last old bucket drains, `old` is retired: through
//!   [`hart_ebr`] when optimistic readers may hold raw pointers into it,
//!   or onto a graveyard freed at directory drop in the locked ablation
//!   (pessimistic readers hold no epoch pin; the geometric doubling bounds
//!   graveyard memory by one current-table's worth of bucket headers).
//!
//! Hash keys are mixed with a per-directory random seed so an adversarial
//! key set cannot be precomputed to chain into a single bucket.

use crate::resolver::PmResolver;
use hart_art::Art;
use hart_kv::InlineKey;
use hart_pm::PmPtr;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::mem::{size_of, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One ART plus its liveness flag, guarded by the per-ART reader-writer
/// lock of §III-A.3.
pub(crate) struct ShardInner {
    pub art: Art<PmPtr>,
    /// Set under the write lock when the shard is unlinked from the
    /// directory; writers that raced `get_or_insert` against removal check
    /// it and retry, so no insert can land in an orphaned shard.
    pub dead: bool,
}

/// A directory shard: the per-ART lock of §III-A.3 plus the seqlock epoch
/// counter of the optimistic read path.
pub(crate) struct Shard {
    /// Seqlock version: odd while a write section is open, even when
    /// quiescent. Every acquisition of the write lock is a write section.
    version: AtomicU64,
    inner: RwLock<ShardInner>,
}

impl Shard {
    fn new(art: Art<PmPtr>) -> Shard {
        Shard {
            version: AtomicU64::new(0),
            inner: RwLock::new_ranked(
                ShardInner { art, dead: false },
                parking_lot::rank::SHARD,
                false,
                "Shard.inner",
            ),
        }
    }

    /// Shared (pessimistic) access; does not touch the version.
    pub fn read(&self) -> RwLockReadGuard<'_, ShardInner> {
        self.inner.read()
    }

    /// Exclusive access as a *write section*: the shard version is bumped
    /// odd on acquire and even on release, so optimistic readers retry
    /// around it. Used for every mutation — including value updates that
    /// never touch the ART, since those still change what a concurrent
    /// reader would return for a key.
    pub fn write(&self) -> ShardWriteGuard<'_> {
        let guard = self.inner.write();
        self.open_write_section(guard)
    }

    /// [`Shard::write`] with contention observability: an uncontended
    /// `try_write` costs nothing extra, and only actual blocking is timed
    /// (one clock pair per contended acquisition) and counted through
    /// `rec` — so the disabled-recorder path adds a single branch.
    pub fn write_observed(&self, rec: &hart_obs::Recorder) -> ShardWriteGuard<'_> {
        if let Some(guard) = self.inner.try_write() {
            return self.open_write_section(guard);
        }
        let t0 = rec.now();
        let guard = self.write();
        rec.record_shard_wait(t0);
        guard
    }

    fn open_write_section<'a>(
        &'a self,
        guard: RwLockWriteGuard<'a, ShardInner>,
    ) -> ShardWriteGuard<'a> {
        let v = self.version.fetch_add(1, Ordering::AcqRel);
        debug_assert!(
            v.is_multiple_of(2),
            "write section already open under the write lock"
        );
        ShardWriteGuard { shard: self, guard }
    }

    /// Current version, `Acquire`-loaded. Even means quiescent.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// True when the version still equals `v0` (an even observation),
    /// with an `Acquire` fence so the caller's preceding data reads cannot
    /// be reordered past the check.
    pub fn validate(&self, v0: u64) -> bool {
        fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == v0
    }

    /// Raw pointer to the lock-protected interior, for validated
    /// optimistic traversal. Dereference only under an [`hart_ebr`] pin and
    /// the copy-validate discipline of `hart_art::search_raw`.
    pub fn inner_ptr(&self) -> *const ShardInner {
        // pmlint: guarded-ok(the audited raw door for optimistic reads: callers pin and copy-validate against the seqlock version, never dereference unguarded)
        self.inner.data_ptr()
    }
}

/// Write guard that closes the shard's write section on drop.
pub(crate) struct ShardWriteGuard<'a> {
    shard: &'a Shard,
    guard: RwLockWriteGuard<'a, ShardInner>,
}

impl Deref for ShardWriteGuard<'_> {
    type Target = ShardInner;
    fn deref(&self) -> &ShardInner {
        &self.guard
    }
}

impl DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardInner {
        &mut self.guard
    }
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        // Close the section (odd -> even) before the lock is released by
        // the inner guard's drop.
        let v = self.shard.version.fetch_add(1, Ordering::AcqRel);
        debug_assert!(v % 2 == 1, "write section must be open");
    }
}

type Entry = (InlineKey, Arc<Shard>);

/// The published per-bucket chain. Immutable once published — writers
/// install a whole new slice and retire the old one through the epoch
/// reclaimer.
type BucketTable = Box<[Entry]>;

/// A hash bucket: a versioned, wholesale-replaced [`BucketTable`].
struct Bucket {
    /// Seqlock version guarding `table` swaps (odd = swap in progress).
    version: AtomicU64,
    /// The published table. Never mutated in place; writers install a new
    /// one and retire the old through the epoch reclaimer.
    table: RwLock<BucketTable>,
    /// Set (under the write lock) once this bucket has been drained into
    /// the next table. A migrated bucket never accepts entries again.
    migrated: AtomicBool,
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            version: AtomicU64::new(0),
            table: RwLock::new_ranked(
                BucketTable::default(),
                parking_lot::rank::BUCKET_ENTRIES,
                true,
                "Bucket.table",
            ),
            migrated: AtomicBool::new(false),
        }
    }

    /// Replace the bucket table under the (already held) write lock,
    /// retiring the old table so pinned readers can finish scanning it.
    fn install(&self, guard: &mut RwLockWriteGuard<'_, BucketTable>, next: BucketTable) {
        let v = self.version.fetch_add(1, Ordering::AcqRel);
        debug_assert!(v.is_multiple_of(2), "bucket swap already in progress");
        let old = std::mem::replace(&mut **guard, next);
        self.version.fetch_add(1, Ordering::AcqRel);
        hart_ebr::defer_drop(old);
    }
}

/// One generation of the bucket array. `current` points at the newest
/// table; during a migration `old` points at the previous one.
struct Table {
    buckets: Box<[Bucket]>,
    mask: u64,
    /// Next bucket index the cooperative stride walker will claim. Only
    /// meaningful while this table is the `old` (draining) one.
    migrate_next: AtomicUsize,
    /// Buckets whose `migrated` flag has been set — the O(1) "fully
    /// drained" test for retiring this table. Counts both stride-walker
    /// and targeted drains, so a table drained entirely by targeted
    /// drains (walker never ran) is still retirable.
    migrated_count: AtomicUsize,
}

impl Table {
    fn new(buckets: usize) -> Table {
        debug_assert!(buckets.is_power_of_two());
        Table {
            buckets: (0..buckets).map(|_| Bucket::new()).collect(),
            mask: buckets as u64 - 1,
            migrate_next: AtomicUsize::new(0),
            migrated_count: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn bucket(&self, h: u64) -> &Bucket {
        &self.buckets[(h & self.mask) as usize]
    }
}

/// Result of a lock-free bucket probe.
pub(crate) enum RawBucketRead {
    /// The hash key maps to this shard. Valid while the caller's EBR pin is
    /// held.
    Found(*const Shard),
    /// The hash key had no shard at a committed version.
    Absent,
    /// A concurrent swap interfered; retry or fall back to `get`.
    Retry,
}

/// How many old buckets each directory write drains beyond its own.
const MIGRATE_STRIDE: usize = 16;

/// A chain longer than this triggers a grow even below the global
/// load-factor threshold — provided doubling would actually split the
/// chain (`doubling_splits`); an unsplittable chain stays long instead of
/// forcing doublings that cannot shorten it.
const CHAIN_LIMIT: usize = 16;

/// Failed miss-revalidations `Directory::get` tolerates before falling
/// back to one final probe under the resize lock, which serializes out
/// the grow storm (precedent: `shards_sorted_raw`'s resize-locked final
/// pass). Without the bound, back-to-back grows + targeted drains can
/// re-move `current` under every retry while the reader holds its EBR pin.
const MISS_RETRY_LIMIT: usize = 8;

/// Position of `hk` in a committed bucket chain: a plain key compare down
/// the chain. Pure reads — safe both under a bucket lock and on a
/// validated optimistic copy.
#[inline]
fn position(t: &BucketTable, hk: &[u8]) -> Option<usize> {
    t.iter().position(|(k, _)| k.as_slice() == hk)
}

/// A copy of `g` with `entry` appended.
fn push_entry(g: &BucketTable, entry: Entry) -> BucketTable {
    g.iter().cloned().chain(std::iter::once(entry)).collect()
}

/// State serialized by the resize lock: grow/finish decisions plus the
/// graveyard of retired tables for the no-EBR (locked reads) ablation.
#[derive(Default)]
struct ResizeState {
    /// Boxed (not inlined) on purpose: pessimistic readers may still hold
    /// references into a retired table, so its address must stay stable.
    #[allow(clippy::vec_box)]
    graveyard: Vec<Box<Table>>,
}

pub(crate) struct Directory {
    /// Newest table — all directory inserts land here.
    current: AtomicPtr<Table>,
    /// Previous table, being drained; null when no migration is running.
    old: AtomicPtr<Table>,
    /// Live `(hash key, shard)` entries across both tables. Exact: bumped
    /// once per insert, once per unlink; migration moves, never counts.
    entries: AtomicUsize,
    /// Completed grow operations (observability / tests).
    grows: AtomicU64,
    /// Grow when `entries > resize_threshold * buckets`; `0` = fixed size
    /// (the pre-resize behavior, and the ablation baseline).
    resize_threshold: usize,
    /// Per-directory hash seed: adversarial hash-key sets cannot chain
    /// into one bucket without knowing it.
    seed: u64,
    /// Serializes grow/finish transitions and owns the table graveyard.
    resize: Mutex<ResizeState>,
    /// Route ART node reclamation in the shards through [`hart_ebr`] —
    /// set when optimistic readers are enabled, off for the pure-locked
    /// ablation so the kill-switch reproduces the original allocator
    /// behavior exactly. Also selects EBR vs graveyard retirement for
    /// drained tables (see the module docs).
    defer_reclaim: bool,
    /// Observability sink for grow/drain/finish events and lock-wait
    /// timing; an inert [`hart_obs::Recorder`] until [`Directory::set_recorder`].
    obs: hart_obs::Recorder,
    /// Generation of the shard *set* (not shard contents): bumped once per
    /// shard publish and once per unlink, never by migration (which moves
    /// existing entries between tables). Stamps [`Directory::scan_cache`].
    scan_gen: AtomicU64,
    /// `(generation, sorted shard list)` for ordered scans — rebuilt
    /// lazily when `scan_gen` moved, so steady-state scans skip the
    /// full-directory walk and sort entirely.
    scan_cache: RwLock<(u64, Arc<ShardList>)>,
}

/// Sorted `(hash key, shard)` snapshot held by the scan cache.
pub(crate) type ShardList = Vec<(InlineKey, Arc<Shard>)>;

/// Keeps the table pointers a directory operation loaded dereferenceable.
///
/// * `Pin`: an EBR pin — retired tables outlive it.
/// * `Lock`: the resize lock — tables are only retired under it, so
///   holding it serializes against retirement. Fallback when all EBR
///   reader slots are taken.
/// * `None`: locked-reads mode — retired tables go to the graveyard and
///   live until the directory drops.
enum DirGuard<'a> {
    Pin(#[allow(dead_code)] hart_ebr::Guard),
    Lock(#[allow(dead_code)] MutexGuard<'a, ResizeState>),
    None,
}

impl DirGuard<'_> {
    /// Whether the holder may take the resize lock (grow, finish); taking
    /// it twice would deadlock.
    fn may_resize(&self) -> bool {
        !matches!(self, DirGuard::Lock(_))
    }
}

#[inline]
fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Seed entropy without an RNG dependency: wall clock, a stack address and
/// a process-wide counter, finalized with splitmix64.
fn random_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let stack = 0u8;
    let mut x = t
        ^ (&stack as *const u8 as u64).rotate_left(32)
        ^ COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Directory {
    /// `buckets` must be a power of two (validated by `HartConfig`) — the
    /// *initial* size when `resize_threshold > 0`, the permanent size when
    /// it is `0`. `defer_reclaim` enables epoch-based reclamation inside
    /// the shards, required whenever lock-free readers may be active.
    pub fn new(buckets: usize, resize_threshold: usize, defer_reclaim: bool) -> Directory {
        Directory::with_seed(buckets, resize_threshold, defer_reclaim, random_seed())
    }

    /// [`Directory::new`] with a fixed hash seed (tests, reproducibility).
    pub fn with_seed(
        buckets: usize,
        resize_threshold: usize,
        defer_reclaim: bool,
        seed: u64,
    ) -> Directory {
        Directory {
            current: AtomicPtr::new(Box::into_raw(Box::new(Table::new(buckets)))),
            old: AtomicPtr::new(ptr::null_mut()),
            entries: AtomicUsize::new(0),
            grows: AtomicU64::new(0),
            resize_threshold,
            seed,
            resize: Mutex::new_ranked(
                ResizeState::default(),
                parking_lot::rank::DIR_RESIZE,
                false,
                "Directory.resize",
            ),
            defer_reclaim,
            obs: hart_obs::Recorder::disabled(),
            scan_gen: AtomicU64::new(0),
            scan_cache: RwLock::new_ranked(
                (0, Arc::new(Vec::new())),
                parking_lot::rank::DIR_SCAN_CACHE,
                false,
                "Directory.scan_cache",
            ),
        }
    }

    /// Route directory events (grows, bucket drains, migration finishes,
    /// shard lock waits) into `rec`. Called once at tree construction,
    /// before the directory is shared.
    pub fn set_recorder(&mut self, rec: hart_obs::Recorder) {
        self.obs = rec;
    }

    #[inline]
    fn hash(&self, hk: &[u8]) -> u64 {
        fnv1a_seeded(self.seed, hk)
    }

    /// Protect the table pointers for the duration of one operation.
    fn protect(&self) -> DirGuard<'_> {
        if !self.defer_reclaim {
            return DirGuard::None; // graveyard keeps every table alive
        }
        match hart_ebr::pin() {
            Some(g) => DirGuard::Pin(g),
            None => DirGuard::Lock(self.resize.lock()),
        }
    }

    /// Snapshot `(current, old)`. `current` is loaded *before* `old`: a
    /// grow publishes `old` before swapping `current`, so a reader that
    /// observes the new current is guaranteed to also observe the demoted
    /// table, and a reader that observes the pre-grow current at worst
    /// sees it twice.
    ///
    /// The caller must hold a [`DirGuard`] (or an EBR pin) so the returned
    /// references stay valid.
    #[inline]
    fn tables(&self) -> (&Table, Option<&Table>) {
        // SAFETY: `current` is never null and the caller's guard/pin (see
        // doc above) keeps the table from being retired under us.
        let cur = unsafe { &*self.current.load(Ordering::Acquire) };
        let old = self.old.load(Ordering::Acquire);
        let old = if old.is_null() {
            None
        } else {
            // SAFETY: non-null `old` is kept alive by the same guard/pin
            // until `finish_migration` retires it past our epoch.
            Some(unsafe { &*old })
        };
        (cur, old)
    }

    /// Locked probe of one table: `h`'s bucket under its read lock.
    fn find_in(&self, t: &Table, h: u64, hk: &[u8]) -> Option<Arc<Shard>> {
        let g = t.bucket(h).table.read();
        position(&g, hk).map(|i| Arc::clone(&g[i].1))
    }

    /// `HashFind` (Algorithm 1 line 2 / Algorithm 4 line 2).
    ///
    /// Two-table discipline: probe `old` first, then `current`. Migration
    /// publishes an entry in the new table before removing it from the old
    /// one, so "absent in old, then absent in current" is a committed
    /// absence — as long as `current` was stable across the probe. A grow
    /// landing mid-probe demotes `cur` and lets a targeted drain move the
    /// key's bucket into a table this probe never visits, so a miss only
    /// commits after revalidating the `current` pointer (exact under the
    /// guard: tables are never freed, hence never reused, while it is
    /// held).
    pub fn get(&self, hk: &[u8]) -> Option<Arc<Shard>> {
        let guard = self.protect();
        let h = self.hash(hk);
        let mut attempts = 0usize;
        loop {
            let (cur, old) = self.tables();
            if let Some(o) = old {
                if guard.may_resize() {
                    // Keep read-only workloads from double-probing forever:
                    // retire `old` if writers drained it but never finished.
                    self.try_finish(o);
                }
                if let Some(s) = self.find_in(o, h, hk) {
                    return Some(s);
                }
            }
            if let Some(s) = self.find_in(cur, h, hk) {
                return Some(s);
            }
            if ptr::eq(self.current.load(Ordering::Acquire), cur as *const Table) {
                return None;
            }
            // A grow demoted `cur` mid-probe; the key may have been
            // drained into the new current table. Re-snapshot and retry —
            // but not unboundedly: each retry requires another grow to
            // land mid-probe, and under a sustained grow storm this loop
            // could spin while holding its EBR pin. After the limit,
            // serialize against the storm instead. (A `Lock` guard
            // already holds the resize lock, so `current` cannot move and
            // the limit is unreachable for it.)
            attempts += 1;
            if attempts >= MISS_RETRY_LIMIT && guard.may_resize() {
                return self.get_resize_locked(h, hk);
            }
        }
    }

    /// Final authoritative probe under the resize lock: grows and
    /// finishes are serialized out, so the two-table snapshot is stable
    /// for the whole probe and a double miss is a committed absence.
    fn get_resize_locked(&self, h: u64, hk: &[u8]) -> Option<Arc<Shard>> {
        let _st = self.resize.lock();
        let (cur, old) = self.tables();
        if let Some(o) = old {
            if let Some(s) = self.find_in(o, h, hk) {
                return Some(s);
            }
        }
        self.find_in(cur, h, hk)
    }

    /// Lock-free probe of one table: volatile-copy `h`'s bucket table
    /// (one fat pointer), validate the bucket version, then scan the
    /// (immutable) committed chain.
    ///
    /// # Safety
    /// Caller holds an EBR pin; `t` was loaded under that pin.
    unsafe fn probe_raw(&self, t: &Table, h: u64, hk: &[u8]) -> RawBucketRead {
        let bucket = t.bucket(h);
        let v0 = bucket.version.load(Ordering::Acquire);
        if v0 % 2 == 1 {
            return RawBucketRead::Retry;
        }
        // Copy the table struct without the lock; a concurrent swap can
        // tear it, which the version re-check below detects before the
        // copy is dereferenced.
        let table_mu: MaybeUninit<BucketTable> =
            // pmlint: guarded-ok(the audited raw probe door: the volatile copy is validated against the bucket seqlock version before any field is trusted)
            ptr::read_volatile(bucket.table.data_ptr() as *const MaybeUninit<BucketTable>);
        fence(Ordering::Acquire);
        if bucket.version.load(Ordering::Relaxed) != v0 {
            return RawBucketRead::Retry;
        }
        // Validated: this is a committed table. Tables are immutable once
        // published, so scanning it needs no further checks.
        let table: &BucketTable = &*table_mu.as_ptr();
        match position(table, hk) {
            Some(i) => RawBucketRead::Found(Arc::as_ptr(&table[i].1)),
            None => RawBucketRead::Absent,
        }
    }

    /// Lock-free `HashFind` for the optimistic read path.
    ///
    /// A miss is only committed while `current` is stable (see
    /// [`Directory::get`]): after a double-table miss the `current`
    /// pointer is revalidated, and the probe restarts if a grow moved it
    /// mid-probe — otherwise a concurrent grow + targeted drain could
    /// relocate the key into a table this probe never visits and a
    /// continuously-present key would read as absent. Bounded retries;
    /// persistent interference degrades to [`RawBucketRead::Retry`] and
    /// the caller's locked fallback.
    ///
    /// # Safety
    /// The caller must hold an [`hart_ebr`] pin for as long as it uses the
    /// returned shard pointer: retired entry tables and bucket arrays (and
    /// the shards they reference) stay alive only until the pin is
    /// released. The pin also pins table addresses, making the pointer
    /// revalidation above exact.
    pub unsafe fn get_raw(&self, hk: &[u8]) -> RawBucketRead {
        let h = self.hash(hk);
        for _ in 0..4 {
            let (cur, old) = self.tables();
            if let Some(o) = old {
                // Read paths retire a fully-drained table too, so a
                // workload that turns read-only after a grow does not
                // double-probe forever (O(1) check, locks only when the
                // drain is actually complete).
                self.try_finish(o);
                match self.probe_raw(o, h, hk) {
                    RawBucketRead::Absent => {} // fall through to current
                    found_or_retry => return found_or_retry,
                }
            }
            match self.probe_raw(cur, h, hk) {
                RawBucketRead::Absent => {
                    if ptr::eq(self.current.load(Ordering::Acquire), cur as *const Table) {
                        return RawBucketRead::Absent;
                    }
                    // Grow raced the probe; re-snapshot both tables.
                }
                found_or_retry => return found_or_retry,
            }
        }
        RawBucketRead::Retry
    }

    /// Drain one `old` bucket into the current table. Entries are
    /// published in the new table *before* the old bucket empties, so
    /// old-then-current probes never miss. No-op if already drained.
    ///
    /// While we hold an un-migrated old bucket's write lock, the migration
    /// cannot finish (the finisher checks every bucket's flag) and no
    /// second grow can start (it requires `old == null`), so `current` is
    /// stable for the duration.
    fn migrate_bucket(&self, o: &Table, idx: usize) {
        let bucket = &o.buckets[idx];
        if bucket.migrated.load(Ordering::Acquire) {
            return;
        }
        let mut g = bucket.table.write();
        if bucket.migrated.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: `current` is never null, and a table demoted to `old`
        // (where this bucket lives) is only retired after every bucket —
        // including this locked one — has drained.
        let cur = unsafe { &*self.current.load(Ordering::Acquire) };
        // Bucket locks share the chained `BUCKET_ENTRIES` rank: the old
        // bucket's lock is held while each new bucket's is taken, always
        // in migration order (old before current).
        for e in g.iter() {
            let nb = cur.bucket(self.hash(e.0.as_slice()));
            let mut ng = nb.table.write();
            let next = push_entry(&ng, e.clone());
            nb.install(&mut ng, next);
        }
        if !g.is_empty() {
            bucket.install(&mut g, BucketTable::default());
        }
        bucket.migrated.store(true, Ordering::Release);
        // Exactly-once per bucket: the flag double-check above means only
        // one caller reaches here for each bucket.
        o.migrated_count.fetch_add(1, Ordering::AcqRel);
        self.obs.add(hart_obs::Event::DirDrain, 1);
    }

    /// Retire `o` if every one of its buckets has drained — an O(1)
    /// counter check, so cheap enough for read paths. Best-effort: bails
    /// if the resize lock is contended (the holder, or any later
    /// operation, will come back through here).
    fn try_finish(&self, o: &Table) {
        if o.migrated_count.load(Ordering::Acquire) >= o.buckets.len() {
            self.finish_migration(o as *const Table as *mut Table);
        }
    }

    /// Cooperatively drain up to `stride` old buckets; finish the
    /// migration once the walker has passed the end and every bucket's
    /// flag is set. Called by directory writers holding a non-`Lock`
    /// guard.
    fn help_migrate(&self, stride: usize) {
        let old_ptr = self.old.load(Ordering::Acquire);
        if old_ptr.is_null() {
            return;
        }
        // SAFETY: a non-null `old` stays allocated until `finish_migration`
        // under the resize lock, which cannot complete while this bucket
        // walk still holds entry locks inside it.
        let o = unsafe { &*old_ptr };
        let len = o.buckets.len();
        for _ in 0..stride {
            let i = o.migrate_next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            self.migrate_bucket(o, i);
        }
        self.try_finish(o);
    }

    /// Retire `old_ptr` once every one of its buckets has drained. Safe to
    /// race: only the caller that still observes it as `old` under the
    /// resize lock retires it. Best-effort on contention — finishing is
    /// idempotent and every later write or lookup retries via
    /// [`Directory::try_finish`].
    fn finish_migration(&self, old_ptr: *mut Table) {
        let Some(mut st) = self.resize.try_lock() else {
            return; // holder (or a later op) will finish
        };
        if self.old.load(Ordering::Acquire) != old_ptr {
            return; // someone else finished
        }
        // SAFETY: we hold the resize lock and just confirmed `old` still
        // equals `old_ptr`, so nobody else can retire it first.
        let o = unsafe { &*old_ptr };
        if o.migrated_count.load(Ordering::Acquire) < o.buckets.len() {
            // A drain is still mid-flight; it (or the next operation)
            // will come back through here.
            return;
        }
        debug_assert!(o.buckets.iter().all(|b| b.migrated.load(Ordering::Acquire)));
        self.old.store(ptr::null_mut(), Ordering::Release);
        self.obs.add(hart_obs::Event::DirFinish, 1);
        self.obs.resize_finished();
        // SAFETY: `old_ptr` came from `Box::into_raw` at grow time and was
        // just unlinked under the resize lock, so this is the unique owner.
        let boxed = unsafe { Box::from_raw(old_ptr) };
        if self.defer_reclaim {
            // Pinned readers may still probe the drained buckets; EBR
            // frees the array once their epochs pass. Pinless fallback
            // readers hold the resize lock, which we are holding now.
            hart_ebr::defer_drop(boxed);
        } else {
            // Locked mode: readers take no pins, so the array must outlive
            // any probe that loaded it — park it until the directory
            // drops. Doubling bounds the graveyard below one current
            // table's worth of bucket headers.
            st.graveyard.push(boxed);
        }
    }

    /// Would doubling `t` actually split the chain at `h`'s bucket?
    /// True iff the chain's keys disagree on the next mask bit. An
    /// unsplittable chain — keys colliding on more low bits than one
    /// doubling adds — must not trigger a grow: the old guard (`len <
    /// entries * 4`) both let such chains cascade doublings that could
    /// never shorten them *and* suppressed legitimate triggers on small,
    /// lightly-loaded tables.
    ///
    /// Takes only a bucket read lock; called *before* the resize lock
    /// (rank order: `DIR_RESIZE` < `BUCKET_ENTRIES`). The answer can go
    /// stale the instant the lock drops — acceptable, because the trigger
    /// is heuristic and the chain re-evaluates on its next insert.
    fn doubling_splits(&self, t: &Table, h: u64) -> bool {
        let split_bit = t.mask + 1;
        let mut seen_zero = false;
        let mut seen_one = false;
        let g = t.bucket(h).table.read();
        for (k, _) in g.iter() {
            if self.hash(k.as_slice()) & split_bit == 0 {
                seen_zero = true;
            } else {
                seen_one = true;
            }
        }
        seen_zero && seen_one
    }

    /// Double the bucket array if `seen` is still the current table and
    /// the trigger (load factor, or one pathological chain that a doubling
    /// would split) still holds. `h` is the hash whose chain reached
    /// `chain_len`.
    fn maybe_grow(&self, seen: *const Table, h: u64, chain_len: usize) {
        if self.resize_threshold == 0 {
            return;
        }
        let entries = self.entries.load(Ordering::Relaxed);
        // SAFETY: the caller observed `seen` as the current table under its
        // guard, which keeps the table alive for this read.
        let t = unsafe { &*seen };
        let len = t.buckets.len();
        let overloaded = entries > self.resize_threshold.saturating_mul(len);
        let chained = !overloaded && chain_len > CHAIN_LIMIT && self.doubling_splits(t, h);
        if !overloaded && !chained {
            return;
        }
        let _st = self.resize.lock();
        if !self.old.load(Ordering::Acquire).is_null() {
            return; // previous migration still draining
        }
        if !ptr::eq(self.current.load(Ordering::Acquire), seen) {
            return; // raced another grow; its trigger re-evaluates
        }
        let next = Box::into_raw(Box::new(Table::new(len * 2)));
        // Publish order matters: `old` first, then `current` (see
        // `Directory::tables`). Entries stay put; writers drain them
        // incrementally from here on.
        self.old.store(seen as *mut Table, Ordering::Release);
        self.current.store(next, Ordering::Release);
        self.grows.fetch_add(1, Ordering::Relaxed);
        self.obs.add(hart_obs::Event::DirGrow, 1);
        self.obs.resize_started();
    }

    /// `HashFind` + `NewART` + `HashInsert` (Algorithm 1 lines 2–5).
    pub fn get_or_insert(&self, hk: &[u8]) -> Arc<Shard> {
        let guard = self.protect();
        let h = self.hash(hk);
        if guard.may_resize() {
            self.help_migrate(MIGRATE_STRIDE);
        }
        loop {
            let (cur, old) = self.tables();
            if let Some(o) = old {
                // Drain the bucket our key lives in, making `cur` the
                // single authority for `hk` before we lock it.
                self.migrate_bucket(o, (h & o.mask) as usize);
                if guard.may_resize() {
                    self.try_finish(o);
                }
            }
            let bucket = cur.bucket(h);
            let mut g = bucket.table.write();
            // Revalidate under the lock: a concurrent grow may have
            // demoted `cur`, and a concurrent drain may have emptied this
            // bucket into an even newer table.
            if !ptr::eq(self.current.load(Ordering::Acquire), cur)
                || bucket.migrated.load(Ordering::Acquire)
            {
                continue;
            }
            if let Some(i) = position(&g, hk) {
                return Arc::clone(&g[i].1);
            }
            let mut art = Art::new();
            art.set_deferred_reclaim(self.defer_reclaim);
            let shard = Arc::new(Shard::new(art));
            let entry = (InlineKey::from_slice(hk), Arc::clone(&shard));
            let next = push_entry(&g, entry);
            let chain_len = next.len();
            bucket.install(&mut g, next);
            self.entries.fetch_add(1, Ordering::Relaxed);
            // Release-ordered after the entry publish, and *before* the
            // caller's first key insert can commit — a scan that starts
            // after that commit therefore loads a generation past this
            // bump and rebuilds its cached shard list (see
            // `shards_sorted_cached`).
            self.scan_gen.fetch_add(1, Ordering::Release);
            drop(g);
            if guard.may_resize() {
                self.maybe_grow(cur as *const Table, h, chain_len);
            }
            return shard;
        }
    }

    /// "HART will free the ART if it becomes empty" (Algorithm 5 lines
    /// 15–16). Returns `true` if the shard was unlinked.
    pub fn remove_if_empty(&self, hk: &[u8]) -> bool {
        let guard = self.protect();
        let h = self.hash(hk);
        if guard.may_resize() {
            self.help_migrate(MIGRATE_STRIDE);
        }
        loop {
            let (cur, old) = self.tables();
            if let Some(o) = old {
                self.migrate_bucket(o, (h & o.mask) as usize);
                if guard.may_resize() {
                    self.try_finish(o);
                }
            }
            let bucket = cur.bucket(h);
            let mut g = bucket.table.write();
            if !ptr::eq(self.current.load(Ordering::Acquire), cur)
                || bucket.migrated.load(Ordering::Acquire)
            {
                continue;
            }
            let Some(pos) = position(&g, hk) else {
                return false;
            };
            {
                let shard = &g[pos].1;
                let mut sg = shard.write_observed(&self.obs);
                if !sg.art.is_empty() || sg.dead {
                    return false;
                }
                sg.dead = true;
            }
            let next = g
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != pos)
                .map(|(_, e)| e.clone())
                .collect();
            bucket.install(&mut g, next);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            // Stale cached lists keep an `Arc` to the shard, but it is
            // `dead` and empty by the check above, so scans skip it; the
            // bump retires the list at the next cache probe.
            self.scan_gen.fetch_add(1, Ordering::Release);
            return true;
        }
    }

    /// Snapshot of all `(hash key, shard)` pairs, sorted by hash key — the
    /// backbone of the ordered-scan extension and of statistics. Holds the
    /// resize lock so the table set is stable for the walk; migration-
    /// window duplicates are dropped after the sort.
    pub fn shards_sorted(&self) -> Vec<(InlineKey, Arc<Shard>)> {
        let _st = self.resize.lock();
        let (cur, old) = self.tables();
        let mut out = Vec::new();
        for t in old.into_iter().chain(std::iter::once(cur)) {
            for b in t.buckets.iter() {
                let g = b.table.read();
                out.extend(g.iter().map(|(k, s)| (*k, Arc::clone(s))));
            }
        }
        out.sort_unstable_by_key(|a| a.0);
        out.dedup_by_key(|a| a.0);
        out
    }

    /// Cached [`Directory::shards_sorted`]: the sorted list is rebuilt
    /// only when the shard *set* changed (`scan_gen` — new hash prefix or
    /// shard unlink; migrations do not count), so a steady-state ordered
    /// scan costs one generation load plus an `Arc` clone instead of a
    /// full bucket walk and sort.
    ///
    /// Staleness is bounded by commit order: a shard is published and the
    /// generation bumped *before* its first key's insert returns, so a
    /// scan that loads the generation after that insert committed sees
    /// the bump and rebuilds; a scan overlapping the insert may use the
    /// older list, indistinguishable from the scan running first.
    /// Unlinked shards linger in stale lists but are `dead` (and empty by
    /// the unlink invariant), so the per-shard collectors skip them.
    pub fn shards_sorted_cached(&self) -> Arc<ShardList> {
        let gen = self.scan_gen.load(Ordering::Acquire);
        {
            let g = self.scan_cache.read();
            if g.0 == gen {
                return Arc::clone(&g.1);
            }
        }
        // Rebuild before taking the write lock: `shards_sorted` acquires
        // the resize and bucket locks, and DIR_SCAN_CACHE ranks below
        // both, so it must never be held across them. The snapshot is at
        // least as new as `gen`; stamping it `gen` is conservative (a set
        // change that landed mid-build just forces one more rebuild).
        let list = Arc::new(self.shards_sorted());
        let mut g = self.scan_cache.write();
        if g.0 < gen {
            *g = (gen, Arc::clone(&list));
        }
        list
    }

    /// Number of live shards (= ARTs = max concurrent writers).
    pub fn shard_count(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Buckets in the current table (observability / tests / stats).
    pub fn bucket_count(&self) -> usize {
        let _st = self.resize.lock();
        // SAFETY: `current` is never null, and holding the resize lock
        // blocks any concurrent grow from swapping and retiring it.
        unsafe { &*self.current.load(Ordering::Acquire) }
            .buckets
            .len()
    }

    /// Completed grow operations since creation.
    pub fn grow_count(&self) -> u64 {
        self.grows.load(Ordering::Relaxed)
    }

    /// True while a demoted table is still draining into the current one
    /// (observability / tests).
    pub fn migration_in_progress(&self) -> bool {
        !self.old.load(Ordering::Acquire).is_null()
    }

    /// DRAM bytes of the directory and every ART's internal nodes, for the
    /// Fig. 10b experiment. Counts both live tables and the graveyard.
    pub fn memory_bytes(&self) -> usize {
        let mut total = size_of::<Self>();
        {
            let st = self.resize.lock();
            let (cur, old) = self.tables();
            let table_bytes = |t: &Table| t.buckets.len() * size_of::<Bucket>();
            total += table_bytes(cur);
            if let Some(o) = old {
                total += table_bytes(o);
            }
            total += st.graveyard.iter().map(|t| table_bytes(t)).sum::<usize>();
        }
        for (_, shard) in self.shards_sorted() {
            total += size_of::<Entry>() + size_of::<Shard>() + shard.read().art.memory_bytes();
        }
        total
    }

    /// Debug/test helper: every leaf pointer reachable from the directory.
    pub fn all_leaves(&self, resolver: &PmResolver<'_>) -> Vec<PmPtr> {
        let _ = resolver; // traversal does not need key resolution
        let mut out = Vec::new();
        for (_, shard) in self.shards_sorted() {
            shard.read().art.for_each(|&leaf| out.push(leaf));
        }
        out
    }
}

impl Drop for Directory {
    fn drop(&mut self) {
        // Exclusive access: free both live tables; the graveyard drops
        // with the mutex.
        let cur = *self.current.get_mut();
        // SAFETY: `&mut self` in drop means no reader or writer remains;
        // `current` uniquely owns its table here.
        unsafe { drop(Box::from_raw(cur)) };
        let old = *self.old.get_mut();
        if !old.is_null() {
            // SAFETY: same exclusivity; a non-null `old` is the only other
            // owning pointer and is dropped exactly once.
            unsafe { drop(Box::from_raw(old)) };
        }
    }
}

// SAFETY: the raw pointers are owning handles to heap tables; all access
// is synchronized by the atomics + locks above.
unsafe impl Send for Directory {}
// SAFETY: see the Send rationale — shared access goes through the seqlock
// validate/retry protocol or the resize lock.
unsafe impl Sync for Directory {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-size directory with a deterministic seed, like the pre-resize
    /// default.
    fn fixed(buckets: usize) -> Directory {
        Directory::with_seed(buckets, 0, true, 0)
    }

    /// Aggressively resizing directory (load factor 1, deterministic seed).
    fn resizing(buckets: usize) -> Directory {
        Directory::with_seed(buckets, 1, true, 0)
    }

    /// First `n` u32-LE keys whose seeded hash satisfies `pred` — the
    /// engine behind the deterministic collision tests (the per-directory
    /// seed is fixed here, so collisions can be precomputed).
    fn colliding_keys(d: &Directory, n: usize, pred: impl Fn(u64) -> bool) -> Vec<[u8; 4]> {
        let mut out = Vec::with_capacity(n);
        for x in 0u32.. {
            let hk = x.to_le_bytes();
            if pred(d.hash(&hk)) {
                out.push(hk);
                if out.len() == n {
                    return out;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn get_or_insert_is_idempotent() {
        let d = fixed(16);
        let a = d.get_or_insert(b"AA");
        let b = d.get_or_insert(b"AA");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(d.shard_count(), 1);
        assert!(d.get(b"BB").is_none());
    }

    /// Resolver stub: the first insert into an empty ART never resolves a
    /// key, so lookups are irrelevant here.
    struct StubResolver;
    impl hart_art::KeyResolver<PmPtr> for StubResolver {
        fn load_key(&self, _: &PmPtr) -> InlineKey {
            InlineKey::from_slice(b"x")
        }
    }

    #[test]
    fn remove_if_empty_only_removes_empty() {
        let d = fixed(16);
        let s = d.get_or_insert(b"AA");
        s.write().art.insert(&StubResolver, b"x", PmPtr(64));
        assert!(!d.remove_if_empty(b"AA"), "non-empty shard must stay");
        assert_eq!(d.shard_count(), 1);
    }

    #[test]
    fn remove_marks_dead() {
        let d = fixed(16);
        let s = d.get_or_insert(b"AA");
        assert!(d.remove_if_empty(b"AA"));
        assert!(s.read().dead);
        assert_eq!(d.shard_count(), 0);
        // A new shard under the same hash key is a fresh object.
        let s2 = d.get_or_insert(b"AA");
        assert!(!Arc::ptr_eq(&s, &s2));
    }

    #[test]
    fn shards_sorted_orders_by_key() {
        let d = fixed(4); // force collisions
        for hk in [b"zz".as_slice(), b"aa", b"mm", b"ab"] {
            d.get_or_insert(hk);
        }
        let keys: Vec<Vec<u8>> = d
            .shards_sorted()
            .iter()
            .map(|(k, _)| k.as_slice().to_vec())
            .collect();
        assert_eq!(
            keys,
            vec![
                b"aa".to_vec(),
                b"ab".to_vec(),
                b"mm".to_vec(),
                b"zz".to_vec()
            ]
        );
    }

    #[test]
    fn memory_accounting_is_monotone() {
        let d = fixed(16);
        let m0 = d.memory_bytes();
        d.get_or_insert(b"AA");
        let m1 = d.memory_bytes();
        assert!(m1 > m0);
    }

    #[test]
    fn write_guard_bumps_version_by_two() {
        let d = fixed(16);
        let s = d.get_or_insert(b"AA");
        let v0 = s.version();
        assert_eq!(v0 % 2, 0);
        {
            let _g = s.write();
            assert_eq!(
                s.version.load(Ordering::SeqCst),
                v0 + 1,
                "odd inside the section"
            );
        }
        assert_eq!(s.version(), v0 + 2);
        assert!(s.validate(v0 + 2));
        assert!(!s.validate(v0));
    }

    #[test]
    fn raw_probe_finds_and_misses() {
        let d = fixed(16);
        let s = d.get_or_insert(b"AA");
        let _pin = hart_ebr::pin().expect("slot");
        // SAFETY: `_pin` keeps the probed tables and shard alive.
        unsafe {
            match d.get_raw(b"AA") {
                RawBucketRead::Found(p) => assert_eq!(p, Arc::as_ptr(&s)),
                _ => panic!("expected Found"),
            }
            assert!(matches!(d.get_raw(b"BB"), RawBucketRead::Absent));
        }
    }

    #[test]
    fn cached_snapshot_tracks_shard_set() {
        let d = fixed(4);
        for hk in [b"zz".as_slice(), b"aa", b"mm"] {
            d.get_or_insert(hk);
        }
        let keys = |l: &ShardList| -> Vec<InlineKey> { l.iter().map(|(k, _)| *k).collect() };
        let cached = d.shards_sorted_cached();
        let locked: Vec<InlineKey> = d.shards_sorted().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys(&cached), locked);
        // Steady state: same generation, same list object — no rebuild.
        assert!(Arc::ptr_eq(&cached, &d.shards_sorted_cached()));
        // A new shard bumps the generation and invalidates the cache.
        d.get_or_insert(b"bb");
        let grown = d.shards_sorted_cached();
        assert!(!Arc::ptr_eq(&cached, &grown));
        assert_eq!(
            keys(&grown),
            [b"aa".as_slice(), b"bb", b"mm", b"zz"]
                .map(InlineKey::from_slice)
                .to_vec()
        );
        // So does an unlink.
        assert!(d.remove_if_empty(b"mm"));
        let shrunk = d.shards_sorted_cached();
        assert_eq!(
            keys(&shrunk),
            [b"aa".as_slice(), b"bb", b"zz"]
                .map(InlineKey::from_slice)
                .to_vec()
        );
    }

    /// Satellite: the seeded hash must spread random hash keys evenly — no
    /// bucket more than 4x the mean over 10k keys (FNV-1a quality gate).
    #[test]
    fn bucket_distribution_is_balanced() {
        use rand::{Rng, SeedableRng};
        let n_buckets = 64usize;
        let d = fixed(n_buckets);
        let mask = n_buckets as u64 - 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15_7A6);
        let mut counts = vec![0usize; n_buckets];
        let n_keys = 10_000usize;
        for _ in 0..n_keys {
            // Random 2-byte hash keys over a printable alphabet, like the
            // paper's workloads.
            let hk = [rng.gen_range(0x21u8..0x7f), rng.gen_range(0x21u8..0x7f)];
            let idx = (d.hash(&hk) & mask) as usize;
            counts[idx] += 1;
        }
        let mean = n_keys as f64 / n_buckets as f64;
        let worst = *counts.iter().max().unwrap() as f64;
        assert!(
            worst <= 4.0 * mean,
            "worst bucket {worst} exceeds 4x mean {mean:.1}: {counts:?}"
        );
    }

    /// Distinct seeds must permute bucket assignment: a key set that
    /// chains into one bucket under seed A spreads out under seed B.
    #[test]
    fn seed_changes_bucket_assignment() {
        let a = Directory::with_seed(64, 0, true, 1);
        let b = Directory::with_seed(64, 0, true, 2);
        let mask = 63u64;
        let mut diff = 0;
        for x in 0u16..512 {
            let hk = x.to_le_bytes();
            if a.hash(&hk) & mask != b.hash(&hk) & mask {
                diff += 1;
            }
        }
        assert!(diff > 400, "seeds barely change placement ({diff}/512)");
    }

    #[test]
    fn fixed_directory_never_grows() {
        let d = fixed(4);
        for i in 0..256u16 {
            d.get_or_insert(&i.to_le_bytes());
        }
        assert_eq!(d.bucket_count(), 4);
        assert_eq!(d.grow_count(), 0);
        assert_eq!(d.shard_count(), 256);
    }

    #[test]
    fn directory_grows_and_stays_consistent() {
        let d = resizing(4);
        let shards: Vec<_> = (0..512u16)
            .map(|i| d.get_or_insert(&i.to_le_bytes()))
            .collect();
        assert!(
            d.grow_count() >= 5,
            "expected several doublings, got {}",
            d.grow_count()
        );
        assert!(d.bucket_count() >= 256, "bucket count {}", d.bucket_count());
        assert_eq!(d.shard_count(), 512);
        // Every shard is still found, and is the same object.
        for (i, s) in shards.iter().enumerate() {
            let hk = (i as u16).to_le_bytes();
            let got = d.get(&hk).expect("present after growth");
            assert!(
                Arc::ptr_eq(&got, s),
                "key {i} remapped to a different shard"
            );
        }
        // Raw probes agree while a migration may still be draining.
        let _pin = hart_ebr::pin().expect("slot");
        for i in 0..512u16 {
            let hk = i.to_le_bytes();
            // SAFETY: `_pin` above keeps the probed tables alive.
            match unsafe { d.get_raw(&hk) } {
                RawBucketRead::Found(p) => assert_eq!(p, Arc::as_ptr(&shards[i as usize])),
                RawBucketRead::Absent => panic!("key {i} lost"),
                RawBucketRead::Retry => {
                    assert!(d.get(&hk).is_some(), "locked fallback lost key {i}")
                }
            }
        }
        let listed = d.shards_sorted();
        assert_eq!(listed.len(), 512, "snapshot must dedup migration copies");
    }

    #[test]
    fn growth_with_removals_keeps_exact_count() {
        let d = resizing(4);
        for i in 0..300u16 {
            d.get_or_insert(&i.to_le_bytes());
        }
        for i in (0..300u16).step_by(2) {
            assert!(d.remove_if_empty(&i.to_le_bytes()), "key {i}");
        }
        assert_eq!(d.shard_count(), 150);
        for i in 0..300u16 {
            let present = d.get(&i.to_le_bytes()).is_some();
            assert_eq!(present, i % 2 == 1, "key {i}");
        }
        assert_eq!(d.shards_sorted().len(), 150);
    }

    /// Satellite regression: the chain trigger must fire deterministically
    /// on a splittable over-limit chain, regardless of table size or
    /// global load. The old guard (`len < entries * 4`) suppressed it
    /// whenever the table was large relative to the entry count — exactly
    /// the "one pathological chain in a big, lightly-loaded table" case
    /// the trigger exists for.
    #[test]
    fn chain_limit_triggers_growth_without_load() {
        // 512 buckets, absurd load threshold: only the chain trigger can
        // fire. Engineer CHAIN_LIMIT+1 keys into one home bucket (low 9
        // hash bits equal) with both values of the next mask bit present,
        // so one doubling provably splits the chain.
        let d = Directory::with_seed(512, 1_000_000, true, 7);
        let target = d.hash(&0u32.to_le_bytes()) & 511;
        let keys = colliding_keys(&d, CHAIN_LIMIT + 1, |h| h & 511 == target);
        assert!(
            keys.iter().any(|k| d.hash(k) & 512 == 0) && keys.iter().any(|k| d.hash(k) & 512 != 0),
            "collision set must disagree on the split bit"
        );
        for hk in &keys {
            d.get_or_insert(hk);
        }
        assert!(
            d.grow_count() >= 1,
            "chain trigger never fired on a splittable over-limit chain"
        );
        for hk in &keys {
            assert!(d.get(hk).is_some(), "key lost across chain-triggered grow");
        }
        hart_ebr::flush_for_tests();
    }

    /// Satellite regression (the other direction): an *unsplittable* chain
    /// — keys agreeing on more low bits than one doubling adds — must not
    /// trigger grows. The old guard let it cascade doublings that could
    /// never shorten the chain.
    #[test]
    fn unsplittable_chain_does_not_cascade_grows() {
        let d = Directory::with_seed(4, 1_000_000, true, 7);
        let target = d.hash(&0u32.to_le_bytes()) & 0xFFFF;
        // 20 keys agreeing on the low 16 hash bits: every table up to 64k
        // buckets homes them together, so no doubling from 4 buckets can
        // split the chain and the trigger must stay quiet.
        let keys = colliding_keys(&d, CHAIN_LIMIT + 4, |h| h & 0xFFFF == target);
        let shards: Vec<_> = keys.iter().map(|hk| d.get_or_insert(hk)).collect();
        assert_eq!(d.grow_count(), 0, "unsplittable chain cascaded grows");
        assert_eq!(d.bucket_count(), 4);
        // The chain grew past CHAIN_LIMIT; every key is still reachable
        // by both probe paths.
        assert_eq!(d.shard_count(), keys.len());
        let _pin = hart_ebr::pin().expect("slot");
        for (hk, s) in keys.iter().zip(&shards) {
            let got = d.get(hk).expect("chained key lost (locked probe)");
            assert!(Arc::ptr_eq(&got, s));
            // SAFETY: `_pin` keeps the probed tables alive.
            match unsafe { d.get_raw(hk) } {
                RawBucketRead::Found(p) => assert_eq!(p, Arc::as_ptr(s)),
                _ => panic!("chained key lost (raw probe)"),
            }
        }
        hart_ebr::flush_for_tests();
    }

    /// Satellite regression: a get that keeps losing the miss-revalidation
    /// race falls back to the resize-locked probe instead of spinning.
    /// Unit-level: the fallback itself must agree with `get` on presence
    /// and identity, including for keys deep in a long chain.
    #[test]
    fn resize_locked_probe_agrees_with_get() {
        let d = Directory::with_seed(4, 1_000_000, true, 7);
        let target = d.hash(&0u32.to_le_bytes()) & 3;
        let chained = colliding_keys(&d, CHAIN_LIMIT + 4, |h| h & 3 == target);
        let shards: Vec<_> = chained.iter().map(|hk| d.get_or_insert(hk)).collect();
        for (hk, s) in chained.iter().zip(&shards) {
            let h = d.hash(hk);
            let got = d.get_resize_locked(h, hk).expect("fallback lost key");
            assert!(Arc::ptr_eq(&got, s));
        }
        let absent = colliding_keys(&d, CHAIN_LIMIT * 2, |h| h & 3 == target)
            .into_iter()
            .find(|k| !chained.contains(k))
            .unwrap();
        assert!(d.get_resize_locked(d.hash(&absent), &absent).is_none());
    }

    /// Satellite stress: absent-key gets under a sustained grow storm must
    /// terminate (the MISS_RETRY_LIMIT fallback) and never report a
    /// continuously-present key absent.
    #[test]
    fn bounded_get_terminates_under_grow_storm() {
        let d = Arc::new(resizing(4));
        let stable: Vec<[u8; 2]> = (0..32u16).map(|i| i.to_le_bytes()).collect();
        for hk in &stable {
            d.get_or_insert(hk);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 1000u32 + t as u32 * 1_000_000;
                    while !stop.load(Ordering::Relaxed) {
                        d.get_or_insert(&i.to_le_bytes()[..2]);
                        d.get_or_insert(&i.to_le_bytes());
                        i += 1;
                    }
                });
            }
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                let stable = stable.clone();
                s.spawn(move || {
                    let mut miss = 0xF00Du32;
                    while !stop.load(Ordering::Relaxed) {
                        for hk in &stable {
                            assert!(d.get(hk).is_some(), "false absent under storm");
                        }
                        // Absent keys: must return (bounded), not spin.
                        assert!(d.get(&miss.to_le_bytes()[..3]).is_none());
                        miss = miss.wrapping_add(1);
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
            stop.store(true, Ordering::Relaxed);
        });
        hart_ebr::flush_for_tests();
    }

    /// Satellite: `entries` bookkeeping stays exact — after a concurrent
    /// insert/remove storm, the counter equals both the number of live
    /// shards the snapshot sees and the number of present keys.
    #[test]
    fn entries_counter_stays_exact_after_concurrent_storm() {
        let d = Arc::new(resizing(4));
        let n_threads = 4u32;
        let per = 256u32;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    for i in 0..per {
                        let hk = (t * per + i).to_le_bytes();
                        d.get_or_insert(&hk);
                        if i % 2 == 0 {
                            assert!(d.remove_if_empty(&hk), "own empty shard must unlink");
                        }
                        // Churn: re-insert a neighbor's parity-odd key;
                        // idempotent, so the count stays predictable.
                        let other = ((t ^ 1) * per + (i | 1)).to_le_bytes();
                        d.get_or_insert(&other);
                    }
                });
            }
        });
        let expect = (n_threads * per / 2) as usize;
        assert_eq!(d.shard_count(), expect, "entries counter drifted");
        assert_eq!(
            d.shards_sorted().len(),
            expect,
            "snapshot and counter disagree"
        );
        let mut present = 0usize;
        for x in 0..(n_threads * per) {
            if d.get(&x.to_le_bytes()).is_some() {
                present += 1;
            }
        }
        assert_eq!(present, expect);
        hart_ebr::flush_for_tests();
    }

    /// Regression (REVIEW.md): a table drained entirely by *targeted*
    /// drains (stride walker never ran, cursor still at 0) must still be
    /// retired — and a read-only workload must be able to do it, or every
    /// lookup double-probes two tables forever.
    #[test]
    fn fully_drained_table_is_retired_by_lookups() {
        let d = resizing(4);
        let mut i = 0u16;
        while d.old.load(Ordering::Acquire).is_null() {
            d.get_or_insert(&i.to_le_bytes());
            i += 1;
            assert!(i < 10_000, "no grow triggered");
        }
        // SAFETY: single-threaded test — nothing can retire `old` between
        // the loop's null check and this dereference.
        let o = unsafe { &*d.old.load(Ordering::Acquire) };
        assert!(
            o.migrate_next.load(Ordering::Acquire) < o.buckets.len(),
            "walker must not have passed the end for this test to bite"
        );
        for idx in 0..o.buckets.len() {
            d.migrate_bucket(o, idx); // targeted drains only
        }
        assert!(d.migration_in_progress(), "nothing has finished it yet");
        assert!(d.get(&0u16.to_le_bytes()).is_some());
        assert!(
            !d.migration_in_progress(),
            "a lookup observing a fully-drained old table must retire it"
        );
        hart_ebr::flush_for_tests();
    }

    /// Regression (REVIEW.md): a key that is continuously present must
    /// never read as absent, even when grows + targeted drains relocate
    /// its bucket mid-probe. Hammers both the locked and the raw lookup
    /// while writers force repeated doublings.
    #[test]
    fn lookup_never_misses_present_key_during_growth() {
        let d = Arc::new(resizing(4));
        let stable: Vec<[u8; 2]> = (0..64u16).map(|i| i.to_le_bytes()).collect();
        for hk in &stable {
            d.get_or_insert(hk);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 1000u16.wrapping_add(t.wrapping_mul(8192));
                    while !stop.load(Ordering::Relaxed) {
                        d.get_or_insert(&i.to_le_bytes());
                        i = i.wrapping_add(1);
                    }
                });
            }
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                let stable = stable.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for hk in &stable {
                            assert!(d.get(hk).is_some(), "false absent (locked probe)");
                            if let Some(_pin) = hart_ebr::pin() {
                                // SAFETY: `_pin` keeps the tables alive.
                                match unsafe { d.get_raw(hk) } {
                                    RawBucketRead::Found(_) | RawBucketRead::Retry => {}
                                    RawBucketRead::Absent => panic!("false absent (raw probe)"),
                                }
                            }
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
            stop.store(true, Ordering::Relaxed);
        });
        hart_ebr::flush_for_tests();
    }

    /// Regression (REVIEW.md): the scan-facing directory snapshot must
    /// never drop a continuously-live shard, even when grows complete and
    /// drain entries between tables mid-walk — now exercised through the
    /// generation-stamped cache, whose rebuilds race the growing writers.
    #[test]
    fn cached_scan_never_misses_live_shards_during_growth() {
        let d = Arc::new(resizing(4));
        let stable: Vec<[u8; 2]> = (0..64u16).map(|i| i.to_le_bytes()).collect();
        for hk in &stable {
            d.get_or_insert(hk);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 1000u16.wrapping_add(t.wrapping_mul(8192));
                    while !stop.load(Ordering::Relaxed) {
                        d.get_or_insert(&i.to_le_bytes());
                        i = i.wrapping_add(1);
                    }
                });
            }
            {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                let stable = stable.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let list = d.shards_sorted_cached();
                        let snap: std::collections::HashSet<Vec<u8>> =
                            list.iter().map(|(k, _)| k.as_slice().to_vec()).collect();
                        for hk in &stable {
                            assert!(
                                snap.contains(hk.as_slice()),
                                "cached scan dropped live shard {hk:?}"
                            );
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
            stop.store(true, Ordering::Relaxed);
        });
        hart_ebr::flush_for_tests();
    }

    #[test]
    fn concurrent_growth_is_linearizable() {
        let d = Arc::new(resizing(4));
        let n_threads = 8u16;
        let per = 128u16;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    for i in 0..per {
                        let hk = (t * per + i).to_le_bytes();
                        let a = d.get_or_insert(&hk);
                        // Immediate re-probe must find the same shard.
                        let b = d.get(&hk).expect("own insert visible");
                        assert!(Arc::ptr_eq(&a, &b));
                    }
                });
            }
        });
        assert_eq!(d.shard_count(), (n_threads * per) as usize);
        assert!(d.grow_count() >= 4);
        for x in 0..(n_threads * per) {
            assert!(
                d.get(&x.to_le_bytes()).is_some(),
                "key {x} lost after growth"
            );
        }
        hart_ebr::flush_for_tests();
    }
}
