//! Benchmark runner library: tree factories, timed phases, and result
//! formatting shared by the figure harness binary and the Criterion
//! benches.
//!
//! Every experiment builds each tree over its **own** fresh PM pool with
//! identical latency settings (`TimeMode::Inject`, so wall-clock numbers
//! already include the emulated PM penalties), then times one operation
//! phase at a time, exactly like §IV-B: insert everything, search
//! everything, update everything, delete everything.

pub use hart_art::simd::HAVE_VECTOR;
pub use hart_obs::{Histogram, Instrumented, ObsSnapshot, Observable};

use hart::{Hart, HartConfig};
use hart_artcow::ArtCow;
use hart_fptree::FpTree;
use hart_kv::{Key, PersistentIndex, Value};
use hart_pm::{LatencyConfig, PmemPool, PoolConfig, TimeMode};
use hart_woart::Woart;
use hart_workloads::{value_for, Workload};
use hart_wort::Wort;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four trees of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    Hart,
    Woart,
    ArtCow,
    FpTree,
    /// WORT — not part of the paper's figures; used by the `extras`
    /// comparison (DESIGN.md §6).
    Wort,
}

impl TreeKind {
    /// Paper order: HART, WOART, ART+CoW, FPTree.
    pub const ALL: [TreeKind; 4] = [
        TreeKind::Hart,
        TreeKind::Woart,
        TreeKind::ArtCow,
        TreeKind::FpTree,
    ];

    /// The paper's four plus WORT (the third FAST'17 radix tree).
    pub const EXTENDED: [TreeKind; 5] = [
        TreeKind::Hart,
        TreeKind::Wort,
        TreeKind::Woart,
        TreeKind::ArtCow,
        TreeKind::FpTree,
    ];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            TreeKind::Hart => "HART",
            TreeKind::Woart => "WOART",
            TreeKind::ArtCow => "ART+CoW",
            TreeKind::FpTree => "FPTree",
            TreeKind::Wort => "WORT",
        }
    }

    /// Build a fresh tree over its own pool.
    pub fn build(&self, cfg: PoolConfig) -> Box<dyn PersistentIndex> {
        let pool = Arc::new(PmemPool::new(cfg));
        match self {
            TreeKind::Hart => {
                Box::new(Hart::create(pool, HartConfig::default()).expect("create HART"))
            }
            TreeKind::Woart => Box::new(Woart::create(pool).expect("create WOART")),
            TreeKind::ArtCow => Box::new(ArtCow::create(pool).expect("create ART+CoW")),
            TreeKind::FpTree => Box::new(FpTree::create(pool).expect("create FPTree")),
            TreeKind::Wort => Box::new(Wort::create(pool).expect("create WORT")),
        }
    }

    /// Build a fresh tree with an observability snapshot source. HART
    /// exports its full internal telemetry; the baselines are wrapped in
    /// [`Instrumented`], which times the `PersistentIndex` ops and leaves
    /// every other snapshot section zero.
    pub fn build_observed(&self, cfg: PoolConfig) -> (Box<dyn ObservedIndex>, Arc<PmemPool>) {
        let pool = Arc::new(PmemPool::new(cfg));
        let tree = self.create_observed(Arc::clone(&pool), HartConfig::default());
        (tree, pool)
    }

    /// Format `pool` for this tree (HART with configuration `hart`).
    fn create_observed(&self, pool: Arc<PmemPool>, hart: HartConfig) -> Box<dyn ObservedIndex> {
        match self {
            TreeKind::Hart => Box::new(Hart::create(pool, hart).expect("create HART")),
            TreeKind::Woart => Box::new(Instrumented::new(Woart::create(pool).expect("WOART"))),
            TreeKind::ArtCow => Box::new(Instrumented::new(ArtCow::create(pool).expect("ART+CoW"))),
            TreeKind::FpTree => Box::new(Instrumented::new(FpTree::create(pool).expect("FPTree"))),
            TreeKind::Wort => Box::new(Instrumented::new(Wort::create(pool).expect("WORT"))),
        }
    }

    /// Reopen the tree a clean shutdown left in `pool`: HART and FPTree
    /// rebuild their DRAM parts from PM, the radix baselines recount their
    /// records.
    fn open_observed(&self, pool: Arc<PmemPool>, hart: HartConfig) -> Box<dyn ObservedIndex> {
        match self {
            TreeKind::Hart => Box::new(Hart::recover(pool, hart).expect("recover HART")),
            TreeKind::Woart => Box::new(Instrumented::new(Woart::open(pool).expect("WOART"))),
            TreeKind::ArtCow => Box::new(Instrumented::new(ArtCow::open(pool).expect("ART+CoW"))),
            TreeKind::FpTree => Box::new(Instrumented::new(FpTree::recover(pool).expect("FPTree"))),
            TreeKind::Wort => Box::new(Instrumented::new(Wort::open(pool).expect("WORT"))),
        }
    }
}

/// A tree that both serves operations and exports an [`ObsSnapshot`].
pub trait ObservedIndex: PersistentIndex + Observable {}

impl<T: PersistentIndex + Observable> ObservedIndex for T {}

/// Pool sizing: generous per-record budget (leaves + values + internal
/// nodes + transient CoW copies) plus fixed slack.
pub fn pool_config(latency: LatencyConfig, records: usize) -> PoolConfig {
    PoolConfig {
        size_bytes: records
            .saturating_mul(384)
            .saturating_add(32 * 1024 * 1024)
            .min(12 * 1024 * 1024 * 1024),
        latency,
        time_mode: TimeMode::Inject,
        crash_sim: false,
        ..PoolConfig::default()
    }
}

/// Average-time-per-operation results of the four basic phases (Figs 4–7).
#[derive(Clone, Copy, Debug, Default)]
pub struct BasicResult {
    pub insert_us: f64,
    pub search_us: f64,
    pub update_us: f64,
    pub delete_us: f64,
    /// Total wall time of each phase (Fig. 8 reports totals).
    pub insert_total: Duration,
    pub search_total: Duration,
    pub update_total: Duration,
    pub delete_total: Duration,
}

fn avg_us(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Run the four basic phases on a freshly built tree.
pub fn run_basic(kind: TreeKind, latency: LatencyConfig, keys: &[Key]) -> BasicResult {
    let tree = kind.build(pool_config(latency, keys.len()));
    let values: Vec<Value> = keys.iter().map(value_for).collect();
    let n = keys.len();

    let t0 = Instant::now();
    for (k, v) in keys.iter().zip(&values) {
        tree.insert(k, v).expect("insert");
    }
    let insert_total = t0.elapsed();

    let t0 = Instant::now();
    for k in keys {
        let got = tree.search(k).expect("search");
        debug_assert!(got.is_some());
    }
    let search_total = t0.elapsed();

    let t0 = Instant::now();
    for (k, v) in keys.iter().zip(&values) {
        let new = Value::from_u64(v.as_u64().wrapping_add(1));
        let ok = tree.update(k, &new).expect("update");
        debug_assert!(ok);
    }
    let update_total = t0.elapsed();

    let t0 = Instant::now();
    for k in keys {
        let ok = tree.remove(k).expect("delete");
        debug_assert!(ok);
    }
    let delete_total = t0.elapsed();

    BasicResult {
        insert_us: avg_us(insert_total, n),
        search_us: avg_us(search_total, n),
        update_us: avg_us(update_total, n),
        delete_us: avg_us(delete_total, n),
        insert_total,
        search_total,
        update_total,
        delete_total,
    }
}

/// Run one YCSB-style mix (Fig. 9): preload, then time the mixed ops.
pub fn run_mixed(
    kind: TreeKind,
    latency: LatencyConfig,
    workload: &hart_workloads::YcsbWorkload,
) -> f64 {
    use hart_workloads::OpKind;
    let tree = kind.build(pool_config(
        latency,
        workload.preload.len() + workload.ops.len(),
    ));
    for (k, v) in &workload.preload {
        tree.insert(k, v).expect("preload");
    }
    let end = max_key();
    let t0 = Instant::now();
    for op in &workload.ops {
        match op.kind {
            OpKind::Insert => tree.insert(&op.key, &op.value).expect("insert"),
            OpKind::Search => {
                let _ = tree.search(&op.key).expect("search");
            }
            OpKind::Update => {
                let _ = tree.update(&op.key, &op.value).expect("update");
            }
            OpKind::Delete => {
                let _ = tree.remove(&op.key).expect("delete");
            }
            OpKind::Scan => {
                // YCSB-E: open-ended range from the drawn start key, bounded
                // by the requested row count (scan_len), like the reference
                // workload's `scan(startkey, recordcount)`.
                let _ = tree
                    .scan(&op.key, &end, op.scan_len as usize)
                    .expect("scan");
            }
        }
    }
    avg_us(t0.elapsed(), workload.ops.len())
}

/// The greatest valid [`Key`] — the upper bound for open-ended scans.
fn max_key() -> Key {
    Key::new(&[0xFF; hart_kv::MAX_KEY_LEN]).expect("max key is valid")
}

/// One YCSB-E run (scan-heavy mix) with scan-shape telemetry: returns the
/// average µs per op plus the observed rows/scan mean and truncation count
/// from the tree's [`ObsSnapshot`] (the `scan` section added for this
/// experiment).
pub struct ScanMixResult {
    pub avg_us: f64,
    pub scans: u64,
    pub rows_mean: f64,
    pub truncated: u64,
}

/// Run a scan-heavy YCSB-E workload through the observed build of `kind`
/// (HART exports native telemetry, baselines via [`Instrumented`]).
pub fn run_scan_mix(
    kind: TreeKind,
    latency: LatencyConfig,
    workload: &hart_workloads::YcsbWorkload,
) -> ScanMixResult {
    use hart_workloads::OpKind;
    let (tree, _pool) = kind.build_observed(pool_config(
        latency,
        workload.preload.len() + workload.ops.len(),
    ));
    for (k, v) in &workload.preload {
        tree.insert(k, v).expect("preload");
    }
    let end = max_key();
    let t0 = Instant::now();
    for op in &workload.ops {
        match op.kind {
            OpKind::Insert => tree.insert(&op.key, &op.value).expect("insert"),
            OpKind::Search => {
                let _ = tree.search(&op.key).expect("search");
            }
            OpKind::Update => {
                let _ = tree.update(&op.key, &op.value).expect("update");
            }
            OpKind::Delete => {
                let _ = tree.remove(&op.key).expect("delete");
            }
            OpKind::Scan => {
                let _ = tree
                    .scan(&op.key, &end, op.scan_len as usize)
                    .expect("scan");
            }
        }
    }
    let avg = avg_us(t0.elapsed(), workload.ops.len());
    let snap = tree.obs_snapshot();
    ScanMixResult {
        avg_us: avg,
        scans: snap.ops.scan.count,
        rows_mean: snap.scan.rows_mean,
        truncated: snap.scan.truncated,
    }
}

/// SIMD-vs-scalar node-search ablation: time ordered scans over a
/// NODE16-heavy HART (keys drawn from a 16-symbol alphabet, so interior
/// nodes top out at 16 children and every descent step is a `find_key16` /
/// `next_edge48` call). Returns `(vector_secs, scalar_secs)` for the same
/// scan schedule, toggled via [`hart_art::simd::force_scalar`]. On targets
/// without a vector unit both runs take the scalar path and the ratio is
/// ~1.0 (`hart_art::simd::HAVE_VECTOR` tells the caller which case it is).
pub fn simd_scan_probe(latency: LatencyConfig, n_keys: usize, scans: usize) -> (f64, f64) {
    use rand::{Rng, SeedableRng};
    // 16-symbol alphabet, fixed width 8: dense NODE16 fanout at every level.
    const SYMS: &[u8; 16] = b"0123456789ABCDEF";
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    let mut seen = std::collections::HashSet::new();
    let mut keys = Vec::with_capacity(n_keys);
    while keys.len() < n_keys {
        let mut buf = [0u8; 8];
        for b in &mut buf {
            *b = SYMS[rng.gen_range(0..16)];
        }
        if seen.insert(buf) {
            keys.push(Key::new(&buf).expect("hex keys are valid"));
        }
    }
    let pool = Arc::new(PmemPool::new(pool_config(latency, keys.len())));
    let tree = Hart::create(pool, HartConfig::default()).expect("create");
    for k in &keys {
        tree.insert(k, &value_for(k)).expect("preload");
    }
    let starts: Vec<Key> = (0..scans)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect();
    let end = max_key();
    let measure = |tree: &Hart| -> f64 {
        let t0 = Instant::now();
        for s in &starts {
            let rows = tree.ordered_scan(s, &end, 100).expect("scan");
            debug_assert!(!rows.is_empty());
        }
        t0.elapsed().as_secs_f64()
    };
    // Warm both paths once, then interleave best-of-3 so neither mode owns
    // the cache-warming advantage.
    hart_art::simd::force_scalar(false);
    measure(&tree);
    hart_art::simd::force_scalar(true);
    measure(&tree);
    let (mut vec_s, mut scal_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        hart_art::simd::force_scalar(false);
        vec_s = vec_s.min(measure(&tree));
        hart_art::simd::force_scalar(true);
        scal_s = scal_s.min(measure(&tree));
    }
    hart_art::simd::force_scalar(false);
    (vec_s, scal_s)
}

/// Per-kernel timings from [`simd_kernel_probe`], nanoseconds per call,
/// vector vs forced-scalar. On targets without a vector unit the two
/// columns time the same code and the ratio is ~1.0.
pub struct SimdKernelResult {
    pub n16_vec_ns: f64,
    pub n16_scal_ns: f64,
    pub n48_vec_ns: f64,
    pub n48_scal_ns: f64,
}

/// Kernel-granularity SIMD ablation. Whole-scan timing buries the node
/// search under record loads (~µs of PM reads per row vs ~ns of byte
/// search per step), so this times the two vectorized kernels directly,
/// through the same runtime dispatch the trees use:
///
/// * `find_key16` over a full NODE16, alternating hit and miss bytes —
///   the per-level step of every point lookup and scan seek;
/// * `next_edge48` over a sparse, just-promoted NODE48 (17 children
///   spread across the byte space, the shape where the scalar linear
///   probe walks its longest gaps) — the per-row step of ordered
///   iteration through NODE48 interior nodes.
pub fn simd_kernel_probe(iters: usize) -> SimdKernelResult {
    use std::hint::black_box;
    let keys: [u8; 16] = std::array::from_fn(|i| (i * 16 + 3) as u8);
    let mut index = [0xFFu8; 256];
    for i in 0..17 {
        index[i * 15 + 1] = i as u8; // slots 1, 16, 31, … 241: gap 15
    }
    let time = |f: &mut dyn FnMut() -> usize| -> f64 {
        let t0 = Instant::now();
        let sum = f();
        let secs = t0.elapsed().as_secs_f64();
        black_box(sum);
        secs * 1e9 / iters as f64
    };
    let n16 = |scalar: bool| {
        hart_art::simd::force_scalar(scalar);
        time(&mut || {
            let mut sum = 0usize;
            for i in 0..iters {
                // Even i: a present key (hit); odd i: byte 0 (miss).
                let b = if i % 2 == 0 { keys[(i / 2) % 16] } else { 0 };
                sum += hart_art::simd::find_key16(black_box(&keys), 16, b).unwrap_or(17);
            }
            sum
        })
    };
    // Warm, then measure; interleave so neither mode owns cache warming.
    n16(false);
    n16(true);
    let (n16_vec_ns, n16_scal_ns) = (n16(false), n16(true));
    let n48 = |scalar: bool| {
        hart_art::simd::force_scalar(scalar);
        time(&mut || {
            let mut sum = 0usize;
            let mut from = 0usize;
            for _ in 0..iters {
                match hart_art::simd::next_edge48(black_box(&index), from) {
                    Some(b) => {
                        sum += b as usize;
                        from = b as usize + 1;
                    }
                    None => from = 0,
                }
            }
            sum
        })
    };
    n48(false);
    n48(true);
    let (n48_vec_ns, n48_scal_ns) = (n48(false), n48(true));
    hart_art::simd::force_scalar(false);
    SimdKernelResult {
        n16_vec_ns,
        n16_scal_ns,
        n48_vec_ns,
        n48_scal_ns,
    }
}

/// Range-query experiment (Fig. 10a): the tree is loaded with `keys`
/// (Sequential), then `queried` keys are looked up — per-key search for
/// the ART-based trees, a linked-leaf scan for FPTree, exactly as §IV-D
/// describes. Returns avg µs per queried record.
pub fn run_range_query(
    kind: TreeKind,
    latency: LatencyConfig,
    keys: &[Key],
    query_n: usize,
) -> f64 {
    let tree = kind.build(pool_config(latency, keys.len()));
    for k in keys {
        tree.insert(k, &value_for(k)).expect("insert");
    }
    let query_n = query_n.min(keys.len());
    let t0 = Instant::now();
    match kind {
        TreeKind::FpTree => {
            // Sorted linked leaves: one scan.
            let got = tree.range(&keys[0], &keys[query_n - 1]).expect("range");
            assert_eq!(got.len(), query_n);
        }
        _ => {
            // "Simply implemented by calling a search function for each key."
            let got = tree.multi_get(&keys[..query_n]).expect("multi_get");
            debug_assert!(got.iter().all(|o| o.is_some()));
        }
    }
    avg_us(t0.elapsed(), query_n)
}

/// Build-vs-recovery times (Fig. 10c) for HART.
pub fn hart_build_recover(latency: LatencyConfig, keys: &[Key]) -> (Duration, Duration) {
    let pool = Arc::new(PmemPool::new(pool_config(latency, keys.len())));
    let t0 = Instant::now();
    let tree = Hart::create(Arc::clone(&pool), HartConfig::default()).expect("create");
    for k in keys {
        tree.insert(k, &value_for(k)).expect("insert");
    }
    let build = t0.elapsed();
    drop(tree);
    let t0 = Instant::now();
    let rec = Hart::recover(pool, HartConfig::default()).expect("recover");
    let recover = t0.elapsed();
    assert_eq!(rec.len(), keys.len());
    (build, recover)
}

/// Build-vs-recovery times (Fig. 10c) for FPTree.
pub fn fptree_build_recover(latency: LatencyConfig, keys: &[Key]) -> (Duration, Duration) {
    let pool = Arc::new(PmemPool::new(pool_config(latency, keys.len())));
    let t0 = Instant::now();
    let tree = FpTree::create(Arc::clone(&pool)).expect("create");
    for k in keys {
        tree.insert(k, &value_for(k)).expect("insert");
    }
    let build = t0.elapsed();
    drop(tree);
    let t0 = Instant::now();
    let rec = FpTree::recover(pool).expect("recover");
    let recover = t0.elapsed();
    assert_eq!(rec.len(), keys.len());
    (build, recover)
}

/// HART multithreaded throughput in MIOPS (Fig. 10d). `op` is one of
/// "insert", "search", "update", "delete", "scan" (parsed through
/// [`hart_workloads::OpKind::parse`], so a typo is a hard error, not a
/// silently skipped phase). Keys are partitioned across `threads`; for
/// the non-insert ops the tree is pre-populated.
pub fn hart_scalability(latency: LatencyConfig, keys: &[Key], threads: usize, op: &str) -> f64 {
    hart_scalability_cfg(latency, keys, threads, op, HartConfig::default())
}

/// [`hart_scalability`] with an explicit `HartConfig` — used by the
/// read-path ablation to compare `HartConfig::default()` (optimistic
/// lock-free reads) against `HartConfig::with_locked_reads()`.
pub fn hart_scalability_cfg(
    latency: LatencyConfig,
    keys: &[Key],
    threads: usize,
    op: &str,
    cfg: HartConfig,
) -> f64 {
    use hart_workloads::OpKind;
    // Fail fast on op-code typos *before* building pools or spawning
    // threads — an unknown op used to die mid-run inside a worker thread.
    let op = OpKind::parse(op).unwrap_or_else(|e| panic!("{e}"));
    let pool = Arc::new(PmemPool::new(pool_config(latency, keys.len())));
    let tree = Arc::new(Hart::create(pool, cfg).expect("create"));
    if op != OpKind::Insert {
        for k in keys {
            tree.insert(k, &value_for(k)).expect("preload");
        }
    }
    let end = max_key();
    let chunk = keys.len().div_ceil(threads);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for part in keys.chunks(chunk) {
            let tree = Arc::clone(&tree);
            let end = &end;
            s.spawn(move || {
                for k in part {
                    match op {
                        OpKind::Insert => tree.insert(k, &value_for(k)).expect("insert"),
                        OpKind::Search => {
                            let got = tree.search(k).expect("search");
                            debug_assert!(got.is_some());
                        }
                        OpKind::Update => {
                            let _ = tree.update(k, &Value::from_u64(1)).expect("update");
                        }
                        OpKind::Delete => {
                            let _ = tree.remove(k).expect("delete");
                        }
                        OpKind::Scan => {
                            let rows = tree
                                .ordered_scan(k, end, hart_workloads::SCAN_LEN_MAX as usize)
                                .expect("scan");
                            debug_assert!(!rows.is_empty());
                        }
                    }
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    keys.len() as f64 / secs / 1e6
}

/// Exact PM and allocator event totals of one profiled phase: the drivers
/// of every figure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Operations the phase ran (1 for the reopen).
    pub ops: u64,
    /// `persistent()` calls.
    pub persists: u64,
    /// Cache lines those calls flushed.
    pub lines_flushed: u64,
    /// PM cache lines read.
    pub read_lines: u64,
    /// Of those, simulated-cache misses.
    pub read_misses: u64,
    /// Raw pool allocations.
    pub raw_allocs: u64,
    /// Raw pool frees.
    pub raw_frees: u64,
    /// EPallocator object allocations (zero for trees without one).
    pub ep_allocs: u64,
    /// EPallocator bitmap commits.
    pub ep_commits: u64,
    /// EPallocator retirements.
    pub ep_retires: u64,
    /// EPallocator chunks recycled.
    pub ep_recycles: u64,
    /// Modeled extra latency (ns) under the pool's latency config.
    pub extra_ns: u64,
}

impl PhaseCost {
    /// `total / ops`, for per-operation tables.
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// Number of seeded ordered scans in the profile's scan phase.
pub const PROFILE_SCANS: usize = 200;

/// Row limit of each profiled scan.
pub const PROFILE_SCAN_ROWS: usize = 50;

/// Event profile of one tree (harness `profile` command): `(phase, cost)`
/// for insert, search, scan, update, reopen and delete, in run order.
pub struct BasicProfile {
    pub phases: [(&'static str, PhaseCost); 6],
}

/// PM and allocator counters at one instant of a profile run.
struct Mark {
    pm: hart_pm::PmStatsSnapshot,
    /// EPallocator allocs, commits, retires and chunks recycled.
    alloc: [u64; 4],
}

impl Mark {
    fn take(pool: &PmemPool, tree: &dyn ObservedIndex) -> Mark {
        let a = tree.obs_snapshot().alloc;
        Mark {
            pm: pool.stats().snapshot(),
            alloc: [a.allocs, a.commits, a.retires, a.chunks_recycled],
        }
    }

    fn cost_since(&self, earlier: &Mark, ops: u64) -> PhaseCost {
        let (a, b) = (&earlier.pm, &self.pm);
        PhaseCost {
            ops,
            persists: b.persist_calls - a.persist_calls,
            lines_flushed: b.lines_flushed - a.lines_flushed,
            read_lines: b.read_lines - a.read_lines,
            read_misses: b.read_misses - a.read_misses,
            raw_allocs: b.raw_allocs - a.raw_allocs,
            raw_frees: b.raw_frees - a.raw_frees,
            ep_allocs: self.alloc[0] - earlier.alloc[0],
            ep_commits: self.alloc[1] - earlier.alloc[1],
            ep_retires: self.alloc[2] - earlier.alloc[2],
            ep_recycles: self.alloc[3] - earlier.alloc[3],
            extra_ns: b.extra_ns() - a.extra_ns(),
        }
    }
}

/// Count PM and allocator events per phase: insert every key, search every
/// key, run [`PROFILE_SCANS`] seeded scans, update every key, drop the tree
/// and reopen it from PM, then delete every key. Uses `TimeMode::Model` so
/// no latency is injected — this is pure event accounting, and it explains
/// *why* the timed figures look the way they do. `hart` configures HART
/// and is ignored by the other trees.
pub fn run_profile(
    kind: TreeKind,
    hart: HartConfig,
    latency: LatencyConfig,
    keys: &[Key],
) -> BasicProfile {
    use rand::{Rng, SeedableRng};
    let cfg = PoolConfig {
        time_mode: TimeMode::Model,
        ..pool_config(latency, keys.len())
    };
    let pool = Arc::new(PmemPool::new(cfg));
    let tree = kind.create_observed(Arc::clone(&pool), hart);
    let values: Vec<Value> = keys.iter().map(value_for).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA7);
    let starts: Vec<Key> = (0..PROFILE_SCANS)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect();
    let end = max_key();
    let n = keys.len() as u64;

    let m0 = Mark::take(&pool, &*tree);
    for (k, v) in keys.iter().zip(&values) {
        tree.insert(k, v).expect("insert");
    }
    let m1 = Mark::take(&pool, &*tree);
    for k in keys {
        let _ = tree.search(k).expect("search");
    }
    let m2 = Mark::take(&pool, &*tree);
    for s in &starts {
        let _ = tree.scan(s, &end, PROFILE_SCAN_ROWS).expect("scan");
    }
    let m3 = Mark::take(&pool, &*tree);
    for (k, v) in keys.iter().zip(&values) {
        tree.update(k, &Value::from_u64(v.as_u64() ^ 1))
            .expect("update");
    }
    let m4 = Mark::take(&pool, &*tree);
    drop(tree);
    let tree = kind.open_observed(Arc::clone(&pool), hart);
    let m5 = Mark::take(&pool, &*tree);
    for k in keys {
        tree.remove(k).expect("delete");
    }
    let m6 = Mark::take(&pool, &*tree);
    // The reopened tree's allocator counters start at zero.
    let m4_fresh = Mark {
        pm: m4.pm,
        alloc: [0; 4],
    };
    BasicProfile {
        phases: [
            ("insert", m1.cost_since(&m0, n)),
            ("search", m2.cost_since(&m1, n)),
            ("scan", m3.cost_since(&m2, PROFILE_SCANS as u64)),
            ("update", m4.cost_since(&m3, n)),
            ("reopen", m5.cost_since(&m4_fresh, 1)),
            ("delete", m6.cost_since(&m5, n)),
        ],
    }
}

/// Per-operation latency histograms of the four basic phases — the
/// tail-latency extension (harness `tail` command). More expensive than
/// [`run_basic`] (one `Instant` pair per op).
pub struct BasicHistograms {
    pub insert: Histogram,
    pub search: Histogram,
    pub update: Histogram,
    pub delete: Histogram,
    /// Cumulative [`ObsSnapshot`] taken after each phase, in phase order
    /// (`insert`, `search`, `update`, `delete`). Full telemetry for HART,
    /// op-latency-only for the wrapped baselines.
    pub snapshots: Vec<(&'static str, ObsSnapshot)>,
}

/// Like [`run_basic`] but recording every single operation's latency and
/// an observability snapshot at each phase boundary.
pub fn run_basic_histograms(
    kind: TreeKind,
    latency: LatencyConfig,
    keys: &[Key],
) -> BasicHistograms {
    let (tree, _pool) = kind.build_observed(pool_config(latency, keys.len()));
    let values: Vec<Value> = keys.iter().map(value_for).collect();
    let mut out = BasicHistograms {
        insert: Histogram::new(),
        search: Histogram::new(),
        update: Histogram::new(),
        delete: Histogram::new(),
        snapshots: Vec::new(),
    };
    for (k, v) in keys.iter().zip(&values) {
        let t0 = Instant::now();
        tree.insert(k, v).expect("insert");
        out.insert.record(t0.elapsed());
    }
    out.snapshots.push(("insert", tree.obs_snapshot()));
    for k in keys {
        let t0 = Instant::now();
        let got = tree.search(k).expect("search");
        out.search.record(t0.elapsed());
        debug_assert!(got.is_some());
    }
    out.snapshots.push(("search", tree.obs_snapshot()));
    for (k, v) in keys.iter().zip(&values) {
        let new = Value::from_u64(v.as_u64().wrapping_add(1));
        let t0 = Instant::now();
        let ok = tree.update(k, &new).expect("update");
        out.update.record(t0.elapsed());
        debug_assert!(ok);
    }
    out.snapshots.push(("update", tree.obs_snapshot()));
    for k in keys {
        let t0 = Instant::now();
        let ok = tree.remove(k).expect("delete");
        out.delete.record(t0.elapsed());
        debug_assert!(ok);
    }
    out.snapshots.push(("delete", tree.obs_snapshot()));
    out
}

/// Single-thread wall time of the read path with observability enabled
/// vs disabled — the < 3 % overhead-budget ablation behind the harness
/// `obsoverhead` command (DESIGN.md §Observability). Runs `trials`
/// independent tree pairs and returns the `(enabled_secs, disabled_secs)`
/// pair with the median ratio, for `keys.len()` searches.
pub fn obs_overhead_probe(latency: LatencyConfig, keys: &[Key], trials: usize) -> (f64, f64) {
    let build = |cfg: HartConfig| {
        let pool = Arc::new(PmemPool::new(pool_config(latency, keys.len())));
        let tree = Hart::create(pool, cfg).expect("create");
        for k in keys {
            tree.insert(k, &value_for(k)).expect("preload");
        }
        tree
    };
    let measure = |tree: &Hart| -> f64 {
        let t0 = Instant::now();
        for k in keys {
            let got = tree.search(k).expect("search");
            debug_assert!(got.is_some());
        }
        t0.elapsed().as_secs_f64()
    };
    // A single tree pair is not a fair comparison: where each pool lands
    // in the address space (TLB/cache aliasing, hugepage boundaries) can
    // bias one tree by ±20 % for the whole process lifetime, swamping the
    // few-percent effect under test. So: `trials` independent pairs with
    // alternating build order, each measured best-of-3 interleaved after
    // an unmeasured warm pass, and the pair with the *median* ratio wins —
    // discarding the layout-lottery outliers on both sides.
    let mut pairs = Vec::new();
    for round in 0..trials.max(1) {
        let (on_tree, off_tree) = if round % 2 == 0 {
            let on = build(HartConfig::default());
            (on, build(HartConfig::without_observability()))
        } else {
            let off = build(HartConfig::without_observability());
            (build(HartConfig::default()), off)
        };
        measure(&on_tree);
        measure(&off_tree);
        let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            on = on.min(measure(&on_tree));
            off = off.min(measure(&off_tree));
        }
        pairs.push((on, off));
    }
    pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    pairs[pairs.len() / 2]
}

// ------------------------------------------------------------- reporting

/// A simple fixed-width table printer + CSV writer.
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    pub fn new(title: &str, header: &[&str]) -> Report {
        Report {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Print as an aligned table to stdout.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as CSV under `dir`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(name))?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// Shared key-set cache so the harness generates each workload once.
pub fn workload_keys(w: Workload, n: usize, seed: u64) -> Vec<Key> {
    w.keys(n, seed)
}

// ---------------------------------------------------------------------------
// Server front-end benchmark (the group-commit ablation).
// ---------------------------------------------------------------------------

/// Knobs for one [`run_server_mix`] measurement.
#[derive(Clone, Copy, Debug)]
pub struct ServerMixSpec {
    /// Group-commit batching on (`Some(max_ops)`) or the per-op-persist
    /// kill-switch (`None`).
    pub group_max_ops: Option<usize>,
    /// Batch window when group commit is on.
    pub window_us: u64,
    /// Concurrent client connections, each on its own thread.
    pub conns: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Operations issued per connection.
    pub ops_per_conn: usize,
    /// Percentage of GETs in the mix (0 = pure writes, 50 = YCSB-A-ish).
    pub read_pct: u32,
    /// PM latency model (injected — wall-clock numbers include it).
    pub latency: LatencyConfig,
    /// Pipelining window per connection (outstanding requests).
    pub pipeline: usize,
}

/// What one server-mode run measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerMixResult {
    pub ops: u64,
    pub secs: f64,
    pub kops: f64,
    /// Amortized group flushes (0 on the per-op path).
    pub flushes: u64,
    /// Persist fences recorded instead of paid (0 on the per-op path).
    pub persists_deferred: u64,
    /// Mean ops per flush batch.
    pub occupancy_mean: f64,
    /// Admission-control rejections observed by clients.
    pub busy: u64,
}

/// Drive a fresh server over real sockets with `conns` pipelining client
/// threads and return wall-clock throughput plus the group-commit
/// counters. Each connection works a private key range, so writes never
/// contend on the same key while GETs always hit that connection's own
/// previously written keys.
pub fn run_server_mix(spec: ServerMixSpec) -> ServerMixResult {
    use hart_server::client::Client;
    use hart_server::proto::{Request, ST_BUSY};

    let records = spec.conns * spec.ops_per_conn;
    let pool = Arc::new(PmemPool::new(pool_config(
        spec.latency,
        records.max(10_000),
    )));
    let hcfg = HartConfig {
        group_commit: spec.group_max_ops.is_some(),
        ..Default::default()
    };
    let tree = Arc::new(Hart::create(pool, hcfg).expect("server bench tree"));
    let cfg = hart_server::ServerConfig {
        workers: spec.workers,
        max_inflight: (spec.conns * spec.pipeline * 2).max(64),
        group_commit: spec.group_max_ops.is_some(),
        group: hart_pm::GroupConfig {
            max_ops: spec.group_max_ops.unwrap_or(64),
            window: Duration::from_micros(spec.window_us),
        },
        ..hart_server::ServerConfig::default()
    };
    let handle = hart_server::start(Arc::clone(&tree), cfg).expect("server start");
    let addr = handle.local_addr();

    let busy = std::sync::atomic::AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..spec.conns {
            let busy = &busy;
            s.spawn(move || {
                let mut cl = Client::connect(addr).expect("connect");
                // Cheap per-connection LCG deciding read vs write per op.
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ (c as u64) << 17;
                let mut written = 0usize;
                let mut outstanding = 0usize;
                let drain = |cl: &mut Client, outstanding: &mut usize| {
                    let r = cl.recv().expect("recv");
                    if r.status == ST_BUSY {
                        busy.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    *outstanding -= 1;
                };
                for i in 0..spec.ops_per_conn {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let read = written > 0 && (rng >> 33) % 100 < spec.read_pct as u64;
                    let req = if read {
                        let j = (rng >> 13) as usize % written;
                        Request::Get { key: mix_key(c, j) }
                    } else {
                        let key = mix_key(c, written);
                        written += 1;
                        Request::Put {
                            key,
                            value: (i as u64).to_le_bytes().to_vec(),
                        }
                    };
                    if outstanding >= spec.pipeline {
                        drain(&mut cl, &mut outstanding);
                    }
                    cl.send(&req).expect("send");
                    outstanding += 1;
                }
                while outstanding > 0 {
                    drain(&mut cl, &mut outstanding);
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();

    let snap = handle.obs_snapshot();
    handle.shutdown();
    let ops = (spec.conns * spec.ops_per_conn) as u64;
    ServerMixResult {
        ops,
        secs,
        kops: ops as f64 / secs / 1e3,
        flushes: snap.group.flushes,
        persists_deferred: snap.group.persists_deferred,
        occupancy_mean: snap.group.occupancy_mean,
        busy: busy.load(std::sync::atomic::Ordering::Relaxed),
    }
}

fn mix_key(conn: usize, i: usize) -> Vec<u8> {
    format!("c{conn:03}x{i:07}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_trees_run_small_basic() {
        let keys = hart_workloads::random(2000, 3);
        for kind in TreeKind::ALL {
            let r = run_basic(kind, LatencyConfig::dram(), &keys);
            assert!(r.insert_us > 0.0, "{}", kind.label());
            assert!(r.search_us > 0.0);
            assert!(r.update_us > 0.0);
            assert!(r.delete_us > 0.0);
        }
    }

    #[test]
    fn mixed_runs_on_all_trees() {
        let w = hart_workloads::YcsbWorkload::generate(
            hart_workloads::MixSpec::read_intensive(),
            500,
            1000,
            9,
        );
        for kind in TreeKind::ALL {
            let us = run_mixed(kind, LatencyConfig::dram(), &w);
            assert!(us > 0.0);
        }
    }

    #[test]
    fn scan_mix_runs_on_all_trees() {
        let w =
            hart_workloads::YcsbWorkload::generate(hart_workloads::MixSpec::ycsb_e(), 400, 800, 21);
        for kind in TreeKind::ALL {
            let r = run_scan_mix(kind, LatencyConfig::dram(), &w);
            assert!(r.avg_us > 0.0, "{}", kind.label());
            assert!(r.scans > 0, "{}", kind.label());
            assert!(r.rows_mean > 0.0, "{}", kind.label());
        }
    }

    #[test]
    fn simd_probe_measures_both_modes() {
        let (v, s) = simd_scan_probe(LatencyConfig::dram(), 2000, 32);
        assert!(v > 0.0 && s > 0.0);
    }

    #[test]
    fn simd_kernel_probe_measures_both_kernels() {
        let k = simd_kernel_probe(10_000);
        assert!(k.n16_vec_ns > 0.0 && k.n16_scal_ns > 0.0);
        assert!(k.n48_vec_ns > 0.0 && k.n48_scal_ns > 0.0);
    }

    #[test]
    fn scalability_scan_op_runs() {
        let keys = hart_workloads::random(2000, 19);
        let miops = hart_scalability(LatencyConfig::dram(), &keys, 2, "scan");
        assert!(miops > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown op-code")]
    fn scalability_rejects_unknown_op() {
        let keys = hart_workloads::random(10, 1);
        hart_scalability(LatencyConfig::dram(), &keys, 1, "scna");
    }

    #[test]
    fn range_query_runs() {
        let keys = hart_workloads::sequential(2000);
        for kind in TreeKind::ALL {
            let us = run_range_query(kind, LatencyConfig::dram(), &keys, 1000);
            assert!(us > 0.0, "{}", kind.label());
        }
    }

    #[test]
    fn recovery_helpers_roundtrip() {
        let keys = hart_workloads::random(2000, 5);
        let (b, r) = hart_build_recover(LatencyConfig::dram(), &keys);
        assert!(b > Duration::ZERO && r > Duration::ZERO);
        let (b, r) = fptree_build_recover(LatencyConfig::dram(), &keys);
        assert!(b > Duration::ZERO && r > Duration::ZERO);
    }

    #[test]
    fn scalability_runs_two_threads() {
        let keys = hart_workloads::random(4000, 11);
        let miops = hart_scalability(LatencyConfig::c300_100(), &keys, 2, "insert");
        assert!(miops > 0.0);
        let miops = hart_scalability(LatencyConfig::c300_100(), &keys, 2, "search");
        assert!(miops > 0.0);
    }

    #[test]
    fn read_ablation_runs_both_paths() {
        let keys = hart_workloads::random(4000, 13);
        for cfg in [HartConfig::default(), HartConfig::with_locked_reads()] {
            let miops = hart_scalability_cfg(LatencyConfig::c300_100(), &keys, 2, "search", cfg);
            assert!(miops > 0.0, "optimistic_reads={}", cfg.optimistic_reads);
        }
    }

    #[test]
    fn histograms_capture_phase_snapshots() {
        let keys = hart_workloads::random(1500, 7);
        let h = run_basic_histograms(TreeKind::Hart, LatencyConfig::dram(), &keys);
        assert_eq!(h.snapshots.len(), 4);
        let (name, s) = &h.snapshots[0];
        assert_eq!(*name, "insert");
        assert!(s.enabled);
        assert_eq!(s.ops.insert.count, 1500);
        assert!(s.alloc.allocs >= 3000, "leaf + value per insert");
        assert_eq!(h.snapshots[3].1.ops.remove.count, 1500);
        // Baselines are wrapped: op latency only, other sections zero.
        let h = run_basic_histograms(TreeKind::FpTree, LatencyConfig::dram(), &keys);
        let s = &h.snapshots[3].1;
        assert!(s.enabled);
        assert_eq!(s.ops.search.count, 1500);
        assert_eq!(s.alloc.allocs, 0);
    }

    #[test]
    fn overhead_probe_measures_both_configs() {
        let keys = hart_workloads::random(2000, 17);
        let (on, off) = obs_overhead_probe(LatencyConfig::dram(), &keys, 1);
        assert!(on > 0.0 && off > 0.0);
    }

    #[test]
    fn report_formats() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.print();
        let dir = std::env::temp_dir().join("hart-bench-test");
        r.write_csv(&dir, "t.csv").unwrap();
        let s = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
    }
}
