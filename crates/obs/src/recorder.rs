//! The [`Recorder`]: a cheap, cloneable handle the instrumented crates
//! thread through their hot paths.
//!
//! Design for the kill-switch (`HartConfig::observability = false`): a
//! disabled recorder holds no core, every method is an inlined `None`
//! check, and — critically — no `Instant::now()` is ever taken, so the
//! disabled path costs one predictable branch per call site.
//!
//! Design for the enabled path: exact event counts go through sharded
//! Relaxed counters (a few ns), but latency timing pays two clock reads
//! — `Instant::now()` runs 25–50 ns even through the vDSO — so ops are
//! *sampled*: each thread times 1 in [`SAMPLE_EVERY`] of its operations,
//! putting the amortized clock cost at ~2–3 ns per op. Quantiles of a
//! uniform sample converge to the population quantiles, and the ablation
//! budget (< 3% on `readpath`) holds.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::counter::ShardedCounter;
use crate::hist::AtomicHistogram;
use crate::snapshot::{ObsSnapshot, OpStats};

/// Latency sampling period: each thread times 1 in this many ops.
pub const SAMPLE_EVERY: u64 = 32;

/// Operation kinds with latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    Search = 0,
    Insert = 1,
    Update = 2,
    Remove = 3,
    Scan = 4,
}

pub(crate) const N_OPS: usize = 5;

/// Exact-count events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Event {
    /// Optimistic read attempts that failed seqlock validation.
    OptimisticRetry = 0,
    /// Optimistic reads that gave up and took the shard lock.
    LockFallback,
    /// Contended shard write-lock acquisitions.
    ShardLockWait,
    /// Nanoseconds spent blocked on shard write locks.
    ShardLockWaitNs,
    /// Directory doublings.
    DirGrow,
    /// Old-table buckets drained into the current table.
    DirDrain,
    /// Migrations fully finished (old table unlinked).
    DirFinish,
    /// Total nanoseconds with a directory migration in progress.
    MigrationNs,
    /// EPallocator object reservations.
    Alloc,
    /// EPallocator commits (bitmap bit durably set).
    Commit,
    /// EPallocator retires (live object freed).
    Retire,
    /// Whole chunks recycled back to the pool.
    RecycleChunk,
    /// Micro-log slot acquisitions (out-of-place update protocol).
    UlogAcquire,
}

pub(crate) const N_EVENTS: usize = 13;

struct ObsCore {
    ops: [AtomicHistogram; N_OPS],
    op_counts: [ShardedCounter; N_OPS],
    events: [ShardedCounter; N_EVENTS],
    /// Rows returned per scan (count-valued samples in the ns histogram's
    /// log₂ buckets — quantiles are bucket-approximate, like latencies).
    scan_rows: AtomicHistogram,
    /// Scans that stopped at their `limit` (more rows may have existed).
    scan_truncated: AtomicU64,
    /// Epoch-relative ns at which the in-progress directory migration
    /// started; 0 when none is running.
    resize_started_at_ns: AtomicU64,
    epoch: Instant,
}

/// Per-thread sampling-phase allocator: the n-th thread to record an op
/// starts its tick at `n * 21 mod SAMPLE_EVERY` (21 is odd, so the map is
/// a bijection on residues and consecutive threads land far apart).
static PHASE_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Seeded, not zero: with every thread starting at tick 0, each thread's
    // first latency sample was always its SAMPLE_EVERY-th operation — all
    // threads sampled the same warm-up-correlated op positions, and a
    // thread retiring before SAMPLE_EVERY ops never contributed a sample
    // at all. Staggered phases decorrelate sample positions from thread
    // start while keeping per-thread sampling exactly 1-in-SAMPLE_EVERY.
    static SAMPLE_TICK: Cell<u64> = Cell::new(
        PHASE_SEQ
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(21)
            % SAMPLE_EVERY,
    );
}

/// Cloneable recording handle; see the module docs for the cost model.
#[derive(Clone, Default)]
pub struct Recorder {
    core: Option<Arc<ObsCore>>,
}

impl Recorder {
    /// An enabled recorder with fresh, zeroed instruments.
    pub fn new() -> Recorder {
        Recorder {
            core: Some(Arc::new(ObsCore {
                ops: Default::default(),
                op_counts: Default::default(),
                events: Default::default(),
                scan_rows: AtomicHistogram::new(),
                scan_truncated: AtomicU64::new(0),
                resize_started_at_ns: AtomicU64::new(0),
                epoch: Instant::now(),
            })),
        }
    }

    /// The no-op recorder (the `observability = false` kill-switch).
    pub fn disabled() -> Recorder {
        Recorder { core: None }
    }

    /// Enabled (`new`) or disabled per `on`.
    pub fn with_enabled(on: bool) -> Recorder {
        if on {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    /// Whether this recorder actually records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Start timing an operation. Returns `None` when disabled or when
    /// this op falls outside the 1-in-[`SAMPLE_EVERY`] sample.
    #[inline]
    pub fn op_timer(&self) -> Option<Instant> {
        self.core.as_ref()?;
        let sampled = SAMPLE_TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v % SAMPLE_EVERY == 0
        });
        if sampled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish an operation: always bumps the exact op count; records the
    /// latency only when `op_timer` sampled this op.
    #[inline]
    pub fn record_op(&self, op: Op, t0: Option<Instant>) {
        if let Some(core) = &self.core {
            core.op_counts[op as usize].add(1);
            if let Some(t0) = t0 {
                core.ops[op as usize].record(t0.elapsed());
            }
        }
    }

    /// Finish a scan: bumps the exact scan count, records the sampled
    /// latency like [`Recorder::record_op`], and additionally folds in the
    /// number of rows returned and whether the scan stopped at its limit.
    #[inline]
    pub fn record_scan(&self, rows: u64, truncated: bool, t0: Option<Instant>) {
        if let Some(core) = &self.core {
            core.op_counts[Op::Scan as usize].add(1);
            if let Some(t0) = t0 {
                core.ops[Op::Scan as usize].record(t0.elapsed());
            }
            core.scan_rows.record_value(rows);
            if truncated {
                core.scan_truncated.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Unsampled clock read for rare-event timing (lock waits, resizes).
    /// `None` when disabled.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.core.as_ref().map(|_| Instant::now())
    }

    /// Bump an event counter.
    #[inline]
    pub fn add(&self, ev: Event, n: u64) {
        if let Some(core) = &self.core {
            core.events[ev as usize].add(n);
        }
    }

    /// Record one contended shard write-lock acquisition that started
    /// blocking at `t0` (from [`Recorder::now`]).
    #[inline]
    pub fn record_shard_wait(&self, t0: Option<Instant>) {
        if let (Some(core), Some(t0)) = (&self.core, t0) {
            core.events[Event::ShardLockWait as usize].add(1);
            core.events[Event::ShardLockWaitNs as usize]
                .add(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// A directory grow published a new table: migration is now in
    /// progress (re-arming on back-to-back grows keeps the earliest start).
    pub fn resize_started(&self) {
        if let Some(core) = &self.core {
            let now = core.epoch.elapsed().as_nanos().max(1) as u64;
            let _ = core.resize_started_at_ns.compare_exchange(
                0,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// A migration finished (old table unlinked): fold its duration into
    /// [`Event::MigrationNs`].
    pub fn resize_finished(&self) {
        if let Some(core) = &self.core {
            let started = core.resize_started_at_ns.swap(0, Ordering::Relaxed);
            if started != 0 {
                let now = core.epoch.elapsed().as_nanos() as u64;
                core.events[Event::MigrationNs as usize].add(now.saturating_sub(started));
            }
        }
    }

    /// Current count of one event.
    pub fn event_count(&self, ev: Event) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.events[ev as usize].sum())
    }

    /// Exact operation count for one op kind.
    pub fn op_count(&self, op: Op) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.op_counts[op as usize].sum())
    }

    /// Fill the recorder-owned sections of a snapshot (`enabled`, `ops`,
    /// `reads`, `locks`, the dir event counters). Gauges polled from live
    /// structures (directory size, EBR backlog, epalloc occupancy, pm) are
    /// the caller's job — see `Hart::obs_snapshot`.
    pub fn fill_snapshot(&self, snap: &mut ObsSnapshot) {
        let core = match &self.core {
            Some(c) => c,
            None => {
                snap.enabled = false;
                return;
            }
        };
        snap.enabled = true;
        snap.ops.sample_every = SAMPLE_EVERY;
        let op_stats = |op: Op| {
            let h = core.ops[op as usize].snapshot();
            OpStats::from_hist(core.op_counts[op as usize].sum(), &h)
        };
        snap.ops.search = op_stats(Op::Search);
        snap.ops.insert = op_stats(Op::Insert);
        snap.ops.update = op_stats(Op::Update);
        snap.ops.remove = op_stats(Op::Remove);
        snap.ops.scan = op_stats(Op::Scan);
        let rows = core.scan_rows.snapshot();
        snap.scan.rows_mean = rows.mean_ns();
        snap.scan.rows_p50 = rows.quantile_ns(0.50);
        snap.scan.rows_p99 = rows.quantile_ns(0.99);
        snap.scan.rows_max = rows.max_ns();
        snap.scan.truncated = core.scan_truncated.load(Ordering::Relaxed);
        let ev = |e: Event| core.events[e as usize].sum();
        snap.reads.optimistic_retries = ev(Event::OptimisticRetry);
        snap.reads.lock_fallbacks = ev(Event::LockFallback);
        snap.locks.shard_write_waits = ev(Event::ShardLockWait);
        snap.locks.shard_write_wait_ns = ev(Event::ShardLockWaitNs);
        snap.dir.grows = ev(Event::DirGrow);
        snap.dir.bucket_drains = ev(Event::DirDrain);
        snap.dir.migrations_finished = ev(Event::DirFinish);
        snap.dir.migration_ns_total = ev(Event::MigrationNs);
        snap.alloc.allocs = ev(Event::Alloc);
        snap.alloc.commits = ev(Event::Commit);
        snap.alloc.retires = ev(Event::Retire);
        snap.alloc.chunks_recycled = ev(Event::RecycleChunk);
        snap.alloc.ulog_acquisitions = ev(Event::UlogAcquire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert_and_zero() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.op_timer().is_none());
        assert!(r.now().is_none());
        r.record_op(Op::Search, None);
        r.add(Event::DirGrow, 5);
        r.resize_started();
        r.resize_finished();
        let mut snap = ObsSnapshot::default();
        r.fill_snapshot(&mut snap);
        assert_eq!(snap, ObsSnapshot::default());
    }

    #[test]
    fn records_ops_and_events() {
        let r = Recorder::new();
        for _ in 0..100 {
            let t0 = r.op_timer();
            r.record_op(Op::Insert, t0);
        }
        r.add(Event::OptimisticRetry, 3);
        r.record_shard_wait(r.now());
        let mut snap = ObsSnapshot::default();
        r.fill_snapshot(&mut snap);
        assert!(snap.enabled);
        assert_eq!(snap.ops.insert.count, 100);
        // 1-in-SAMPLE_EVERY sampling: roughly count/SAMPLE_EVERY latency
        // samples, never zero here.
        assert!(snap.ops.insert.samples >= 100 / SAMPLE_EVERY);
        assert!(snap.ops.insert.samples < 100);
        assert_eq!(snap.reads.optimistic_retries, 3);
        assert_eq!(snap.locks.shard_write_waits, 1);
        assert_eq!(snap.ops.search.count, 0);
    }

    #[test]
    fn records_scans_with_rows_and_truncation() {
        let r = Recorder::new();
        for i in 0..64u64 {
            let t0 = r.op_timer();
            r.record_scan(i, i % 4 == 0, t0);
        }
        let mut snap = ObsSnapshot::default();
        r.fill_snapshot(&mut snap);
        assert_eq!(snap.ops.scan.count, 64);
        assert_eq!(snap.scan.truncated, 16);
        assert_eq!(snap.scan.rows_max, 63);
        assert!(snap.scan.rows_mean > 0.0);
        // Scan recording must not leak into the point-op histograms.
        assert_eq!(snap.ops.search.count, 0);
    }

    #[test]
    fn scan_row_stats_stay_in_row_units() {
        // Regression guard for the shared-histogram audit: row-count
        // samples ride the log₂-ns latency histogram, and the exported
        // stats must come back in rows — bucket-approximate for the
        // quantiles, exact for mean and max — never scaled or clamped as
        // if they were nanoseconds.
        let r = Recorder::new();
        for _ in 0..100 {
            r.record_scan(10, false, None);
        }
        let mut snap = ObsSnapshot::default();
        r.fill_snapshot(&mut snap);
        assert_eq!(snap.scan.rows_max, 10);
        assert!((snap.scan.rows_mean - 10.0).abs() < 1e-9, "mean is exact");
        // p50/p99 land inside 10's log₂ bucket [8, 16), clamped to max.
        for q in [snap.scan.rows_p50, snap.scan.rows_p99] {
            assert!((8..=10).contains(&q), "count-valued quantile {q}");
        }
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("# HELP hart_scan_rows Rows returned"),
            "scan-rows metric must declare its non-time unit:\n{prom}"
        );
        assert!(
            !prom.contains("hart_scan_rows_ns"),
            "row counts must not be exported under an _ns label"
        );
    }

    #[test]
    fn resize_duration_accumulates() {
        let r = Recorder::new();
        r.resize_started();
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.resize_finished();
        assert!(r.event_count(Event::MigrationNs) >= 1_000_000);
        // Finish without a start is a no-op.
        r.resize_finished();
    }

    #[test]
    fn clones_share_the_core() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.add(Event::Commit, 7);
        assert_eq!(r.event_count(Event::Commit), 7);
    }

    #[test]
    fn hammer_8_threads_counts_exact() {
        let r = Recorder::new();
        const PER_THREAD: u64 = 20_000;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let t0 = r.op_timer();
                        r.record_op(Op::Search, t0);
                        r.add(Event::OptimisticRetry, 1);
                    }
                });
            }
        });
        let mut snap = ObsSnapshot::default();
        r.fill_snapshot(&mut snap);
        assert_eq!(snap.ops.search.count, 8 * PER_THREAD);
        assert_eq!(snap.reads.optimistic_retries, 8 * PER_THREAD);
        // Sampling is per-thread deterministic: exactly 1 in SAMPLE_EVERY.
        // (Phase seeding does not disturb this — over any multiple of
        // SAMPLE_EVERY ops a thread samples exactly n/SAMPLE_EVERY times,
        // whatever its starting phase.)
        assert_eq!(snap.ops.search.samples, 8 * PER_THREAD / SAMPLE_EVERY);
    }

    #[test]
    fn short_lived_threads_still_contribute_samples() {
        // Regression: every thread's SAMPLE_TICK used to start at 0, so a
        // thread doing fewer than SAMPLE_EVERY ops never produced a single
        // latency sample, and longer-lived threads all sampled the same
        // warm-up-correlated positions (op 32, 64, …). With staggered
        // phases a fleet of short-lived threads samples at close to the
        // nominal 1-in-SAMPLE_EVERY rate in aggregate.
        let r = Recorder::new();
        const THREADS: u64 = 64;
        const OPS: u64 = 16; // < SAMPLE_EVERY: old behavior sampled nothing
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..OPS {
                        let t0 = r.op_timer();
                        r.record_op(Op::Update, t0);
                    }
                });
            }
        });
        let mut snap = ObsSnapshot::default();
        r.fill_snapshot(&mut snap);
        assert_eq!(snap.ops.update.count, THREADS * OPS);
        let samples = snap.ops.update.samples;
        assert!(
            samples > 0,
            "short-lived threads sampled nothing (phase bug)"
        );
        // Nominal rate is THREADS*OPS/SAMPLE_EVERY = 32; phases interleave
        // with other concurrently running tests, so accept a wide band
        // around it rather than an exact count.
        let nominal = THREADS * OPS / SAMPLE_EVERY;
        assert!(
            samples >= nominal / 4 && samples <= THREADS,
            "sample count {samples} far from nominal {nominal}"
        );
    }

    #[test]
    fn full_windows_sample_exactly_regardless_of_phase() {
        // Any thread that completes a whole number of SAMPLE_EVERY-op
        // windows contributes exactly one sample per window, independent
        // of its seeded phase.
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    let r = Recorder::new(); // fresh core per thread
                    for _ in 0..3 * SAMPLE_EVERY {
                        let t0 = r.op_timer();
                        r.record_op(Op::Remove, t0);
                    }
                    let mut snap = ObsSnapshot::default();
                    r.fill_snapshot(&mut snap);
                    assert_eq!(snap.ops.remove.samples, 3);
                });
            }
        });
    }
}
