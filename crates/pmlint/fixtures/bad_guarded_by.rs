//! Seeded R10 `guarded-by` violations. The selftest lints this file under
//! the `crates/hart/src/dir.rs` label (R10 rules are scoped by crate and
//! file); under its real fixture path it must stay quiet (scope-negative).
//!
//! Expected findings (under the dir.rs label):
//! * `publish_unlocked` — atomic write to `current` with no resize lock.
//! * `raw_door` — `inner` touched other than through its RwLock methods.
//!
//! Quiet by design: the same write under the lock, the waived write, and
//! the helper whose every caller holds the lock.

use std::sync::atomic::Ordering;

impl Dir {
    fn publish_unlocked(&self, next: *mut Table) {
        self.current.store(next, Ordering::Release);
    }

    fn publish_locked(&self, next: *mut Table) {
        let _st = self.resize.lock();
        self.current.store(next, Ordering::Release);
    }

    fn publish_waived(&self, next: *mut Table) {
        // pmlint: guarded-ok(fixture: single-threaded recovery path, no concurrent readers exist yet)
        self.current.store(next, Ordering::Release);
    }

    fn demote_helper(&self, prev: *mut Table) {
        self.old.store(prev, Ordering::Release);
    }

    fn caller_holds(&self, prev: *mut Table) {
        let _st = self.resize.lock();
        self.demote_helper(prev);
    }

    fn raw_door(&self) -> *const ShardInner {
        self.inner.data_ptr()
    }
}
