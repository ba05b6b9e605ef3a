//! Minimal epoch-based reclamation (EBR) for HART's optimistic read path.
//!
//! Optimistic readers traverse DRAM index structures (ART nodes, directory
//! bucket tables) without holding any lock. Writers, meanwhile, may unlink
//! and free those same nodes. A seqlock version check tells a reader that
//! what it read was *stale*, but cannot stop the underlying allocation from
//! being returned to the allocator while the reader is still mid-load —
//! that is a use-after-free even if the loaded bytes are discarded.
//!
//! This crate closes the gap crossbeam-epoch style (crossbeam is not
//! available offline): readers *pin* the current global epoch into a
//! per-thread slot before touching shared memory and unpin when done;
//! writers *retire* unlinked allocations tagged with the epoch at unlink
//! time instead of freeing them. The global epoch only advances when every
//! pinned slot has caught up to it, so any allocation retired at epoch `t`
//! is provably unreachable by all readers once the epoch reaches `t + 2`;
//! we free with an extra epoch of slack at `t + 3`.
//!
//! Design choices for this workspace:
//! - Fixed slot table (`MAX_THREADS`): a thread that cannot grab a slot gets
//!   `pin() == None`, and HART falls back to its pessimistic read-locked
//!   path — reclamation never blocks and never allocates on the reader side.
//! - Reader pins are plain stores + loads on a cache-line-padded slot
//!   (no RMW on shared lines), so the read path stays contention-free.
//! - Retired garbage lives in a global mutex-protected bag; only writers
//!   (already serialized per shard) and the collector touch it.

use parking_lot::Mutex;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of threads that can be pinned simultaneously.
const MAX_THREADS: usize = 64;

/// Slot value: unowned, available for any thread to claim.
const SLOT_FREE: u64 = u64::MAX;
/// Slot value: owned by a thread but not currently pinned.
const SLOT_IDLE: u64 = u64::MAX - 1;

/// Retired allocations younger than this many epochs are never freed.
/// Correctness needs 2; we keep one extra epoch of slack.
const FREE_LAG: u64 = 3;

/// Collect eagerly once this many retired objects accumulate.
const COLLECT_THRESHOLD: usize = 64;

#[repr(align(128))]
struct PaddedSlot(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: PaddedSlot = PaddedSlot(AtomicU64::new(SLOT_FREE));

static SLOTS: [PaddedSlot; MAX_THREADS] = [SLOT_INIT; MAX_THREADS];

/// Global epoch. Starts above `FREE_LAG` so age arithmetic never underflows.
static EPOCH: AtomicU64 = AtomicU64::new(FREE_LAG + 1);

/// Retired allocations: `(retire_epoch, payload)`.
static GARBAGE: Mutex<Vec<(u64, Box<dyn Send>)>> = Mutex::new_ranked(
    Vec::new(),
    parking_lot::rank::EBR_GARBAGE,
    false,
    "ebr::GARBAGE",
);

thread_local! {
    static HANDLE: ThreadHandle = const { ThreadHandle { slot: Cell::new(None), depth: Cell::new(0) } };
}

struct ThreadHandle {
    /// Index into `SLOTS` once claimed.
    slot: Cell<Option<usize>>,
    /// Nested pin depth; only the outermost pin publishes/retracts.
    depth: Cell<u32>,
}

impl ThreadHandle {
    fn claim_slot(&self) -> Option<usize> {
        if let Some(idx) = self.slot.get() {
            return Some(idx);
        }
        for (idx, slot) in SLOTS.iter().enumerate() {
            if slot
                .0
                .compare_exchange(SLOT_FREE, SLOT_IDLE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.slot.set(Some(idx));
                return Some(idx);
            }
        }
        None
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        if let Some(idx) = self.slot.get() {
            SLOTS[idx].0.store(SLOT_FREE, Ordering::Release);
        }
    }
}

/// An active pin. While any `Guard` lives on a thread, no allocation retired
/// after the pin was taken will be freed. Dropping the outermost guard
/// unpins the thread.
pub struct Guard {
    slot: usize,
    /// `!Send + !Sync`: the guard retracts a thread-local slot on drop.
    _not_send: PhantomData<*mut ()>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        HANDLE.with(|h| {
            let depth = h.depth.get();
            debug_assert!(depth > 0, "guard dropped with zero pin depth");
            h.depth.set(depth - 1);
            if depth == 1 {
                SLOTS[self.slot].0.store(SLOT_IDLE, Ordering::Release);
            }
        });
    }
}

/// Pin the current thread to the current epoch.
///
/// Returns `None` when all `MAX_THREADS` slots are owned by other live
/// threads; callers must then take their pessimistic (locked) path instead
/// of traversing optimistically. Nested pins are cheap and share the
/// outermost pin's epoch.
pub fn pin() -> Option<Guard> {
    HANDLE.with(|h| {
        let idx = h.claim_slot()?;
        let depth = h.depth.get();
        if depth == 0 {
            // Publish the epoch, re-checking that it did not advance between
            // the load and the store: the collector must never observe a slot
            // jumping backwards to a pre-advance epoch after it has decided
            // all pinned slots are current.
            loop {
                let e = EPOCH.load(Ordering::SeqCst);
                SLOTS[idx].0.store(e, Ordering::SeqCst);
                if EPOCH.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        h.depth.set(depth + 1);
        Some(Guard {
            slot: idx,
            _not_send: PhantomData,
        })
    })
}

/// Retire an allocation: its destructor runs once every thread pinned at or
/// before the current epoch has unpinned. Call *after* the object has been
/// unlinked from all shared structures (and after the unlinking write
/// section's version bump, so optimistic readers either revalidate away or
/// are pinned and keep the memory alive).
pub fn defer_drop<T: Send + 'static>(garbage: T) {
    let mut expired = Vec::new();
    {
        let epoch = EPOCH.load(Ordering::SeqCst);
        let mut bag = GARBAGE.lock();
        bag.push((epoch, Box::new(garbage)));
        if bag.len() >= COLLECT_THRESHOLD {
            expired = collect_locked(&mut bag);
        }
    }
    drop(expired); // destructors run after the bag lock is released
}

/// Try to advance the epoch and free sufficiently old garbage.
/// Safe to call from any thread at any time; drops nothing that a pinned
/// reader could still reach.
pub fn try_collect() {
    let expired = {
        let mut bag = GARBAGE.lock();
        collect_locked(&mut bag)
    };
    drop(expired);
}

/// Split off the expired garbage under the bag lock and *return* it, so the
/// caller can run the destructors after unlocking: retired payloads can be
/// whole directory tables or ART subtrees, and running arbitrary `Drop` code
/// under the process-wide bag mutex would stall every concurrent retire
/// (directory migration retires one entry table per drained bucket, in
/// bursts).
fn collect_locked(bag: &mut Vec<(u64, Box<dyn Send>)>) -> Vec<(u64, Box<dyn Send>)> {
    let epoch = EPOCH.load(Ordering::SeqCst);
    // Advance only if every pinned slot has observed the current epoch.
    let all_current = SLOTS.iter().all(|s| {
        matches!(s.0.load(Ordering::SeqCst), SLOT_FREE | SLOT_IDLE)
            || s.0.load(Ordering::SeqCst) == epoch
    });
    let epoch = if all_current {
        match EPOCH.compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => epoch + 1,
            Err(now) => now,
        }
    } else {
        epoch
    };
    let mut expired = Vec::new();
    bag.retain_mut(|entry| {
        if entry.0 + FREE_LAG > epoch {
            true
        } else {
            expired.push((entry.0, std::mem::replace(&mut entry.1, Box::new(()))));
            false
        }
    });
    expired
}

/// Number of retired-but-not-yet-freed allocations. Test observability only.
pub fn pending_garbage() -> usize {
    GARBAGE.lock().len()
}

/// Drive collection until the bag is empty. Only meaningful when no thread
/// is pinned (e.g. test teardown); gives up after a bounded number of
/// rounds otherwise.
pub fn flush_for_tests() {
    for _ in 0..(2 * FREE_LAG + 2) {
        try_collect();
        if pending_garbage() == 0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, MutexGuard};

    /// Epochs, slots and the garbage bag are process-global, so a pin held
    /// by one test stops another test's flush from freeing its garbage.
    /// Every test that pins or asserts on reclamation holds this lock.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn unpinned_garbage_is_freed_after_lag() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        defer_drop(DropCounter(drops.clone()));
        flush_for_tests();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = pin().expect("slot available");
        defer_drop(DropCounter(drops.clone()));
        for _ in 0..10 {
            try_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under an active pin");
        drop(guard);
        flush_for_tests();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// Destructors run outside the bag lock, so a retired object whose
    /// `Drop` retires *more* garbage (an ART subtree dropping its children,
    /// a directory table dropping shards) must not deadlock on the
    /// non-reentrant bag mutex.
    #[test]
    fn destructor_may_retire_more_garbage() {
        let _serial = serial();
        struct Cascading(Arc<AtomicUsize>);
        impl Drop for Cascading {
            fn drop(&mut self) {
                defer_drop(DropCounter(self.0.clone()));
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        defer_drop(Cascading(drops.clone()));
        flush_for_tests();
        flush_for_tests(); // second pass drains the cascade
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_share_a_slot() {
        let _serial = serial();
        let g1 = pin().expect("outer pin");
        let g2 = pin().expect("nested pin");
        assert_eq!(g1.slot, g2.slot);
        drop(g2);
        drop(g1);
    }

    #[test]
    fn cross_thread_pin_blocks_then_releases() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let g = pin().expect("slot");
            ready_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            drop(g);
        });
        ready_rx.recv().unwrap();
        defer_drop(DropCounter(drops.clone()));
        for _ in 0..10 {
            try_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        done_tx.send(()).unwrap();
        t.join().unwrap();
        flush_for_tests();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
