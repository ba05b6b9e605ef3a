//! The three embedded workloads (`paper-phases`, `ycsb-e`, `mix-2t`): input
//! generation from the seed, then set-up, timed phases, checks and a clean
//! restart on a fresh pool.

use crate::exec::{
    self, mark, phase_counts, run_ops, Checker, PhaseClock, Recorder, Restart, ScanOracle,
};
use crate::gen::{random_keys, value, Digest, Live, Op, Rng, Zipf};
use crate::trace::{Ledger, Obs, Phase};
use hart::{
    Hart, HartConfig, Key, LatencyConfig, MemoryStats, PersistentIndex, PmemPool, PoolConfig,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;
/// `Hart::recover` repetitions per restart; `recovery_s` is their median.
pub const RECOVERY_REPS: usize = 5;

/// Run-size knobs: `scale` multiplies every key and op count (tests use
/// 0.01), `seconds` bounds the time-bound phases.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub scale: f64,
    pub seconds: f64,
}

impl Size {
    pub fn count(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(64)
    }
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub digest: String,
    pub checker: Checker,
    pub setup_s: Vec<f64>,
    pub restart: Restart,
    /// Measured-op latencies per class, ns.
    pub samples: [Vec<u32>; 5],
    /// Throughput basis: measured ops over measured wall seconds.
    pub ops: u64,
    pub wall_s: f64,
    /// Footprint and allocator/directory gauges at the peak live set.
    pub peak_mem: MemoryStats,
    pub peak_keys: usize,
    pub peak_obs: Obs,
    pub phases: Vec<Phase>,
    pub ledger: Option<Ledger>,
    /// Workload span, ns since the run's epoch.
    pub span: (u64, u64),
    pub ebr_max: u64,
    /// Threads issuing ops concurrently (0 and 1 both mean one).
    pub threads: usize,
    pub server: Option<crate::server::ServerExtras>,
}

impl Outcome {
    fn absorb(&mut self, rec: Recorder) {
        self.checker.merge(rec.checker);
        for (mine, theirs) in self.samples.iter_mut().zip(rec.samples) {
            mine.extend(theirs);
        }
        if let Some(t) = rec.ledger {
            match &mut self.ledger {
                Some(l) => l.merge(t),
                None => self.ledger = Some(t),
            }
        }
    }

    fn at_peak(&mut self, tree: &Hart, clock: &PhaseClock) {
        self.peak_mem = tree.memory_stats();
        self.peak_keys = tree.len();
        self.peak_obs = clock.obs(|| obs(tree));
    }

    /// Fold the last phase's EBR backlog gauge into the maximum.
    fn gauge_ebr(&mut self, clock: &PhaseClock) {
        let last = clock.phases.last().map_or(0, |p| p.obs.pending_garbage);
        self.ebr_max = self.ebr_max.max(last);
    }

    fn measured(&mut self, wall_s: f64, ops: [u64; 5]) {
        self.ops += ops.iter().sum::<u64>();
        self.wall_s += wall_s;
    }
}

pub fn pool(latency: LatencyConfig) -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolConfig {
        latency,
        ..PoolConfig::default()
    }))
}

fn obs(tree: &Hart) -> Obs {
    Obs::of(&tree.obs_snapshot())
}

/// Insert keys `0..n` at version 0.
pub fn preload(tree: &Hart, keys: &[Key], n: usize) {
    for (k, key) in keys[..n].iter().enumerate() {
        tree.insert(key, &value(k as u32, 0))
            .expect("preload insert");
    }
}

/// `SETUP_REPS` timed set-ups (fresh pool, tree, preload of `n` keys);
/// returns the last one.
fn setup(
    out: &mut Outcome,
    clock: &mut PhaseClock,
    epoch: Instant,
    latency: LatencyConfig,
    keys: &[Key],
    n: usize,
) -> (Arc<PmemPool>, Hart) {
    let start = Instant::now();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let p = pool(latency);
        let tree = Hart::create(Arc::clone(&p), HartConfig::default()).expect("create tree");
        preload(&tree, keys, n);
        out.setup_s.push(t.elapsed().as_secs_f64());
        last = Some((p, tree));
    }
    clock.setup(start, epoch);
    last.expect("at least one set-up")
}

/// Run `ops` as one phase on this thread.
#[allow(clippy::too_many_arguments)]
fn phase(
    out: &mut Outcome,
    clock: &mut PhaseClock,
    rec: &mut Recorder,
    tree: &Hart,
    pool: &PmemPool,
    name: &str,
    measured: bool,
    keys: &[Key],
    ops: &[Op],
    oracle: Option<&mut ScanOracle>,
) {
    let m = mark(rec);
    let o = clock.open(name, measured, pool, || obs(tree));
    run_ops(tree, keys, ops, rec, measured, o.id(), None, oracle);
    let (counts, op_ns) = phase_counts(rec, &m);
    let secs = clock.close(o, rec.epoch, pool, || obs(tree), counts, op_ns);
    if measured {
        out.measured(secs, counts);
    }
    out.gauge_ebr(clock);
}

/// The clean restart every workload ends with, as its own phase.
fn recovery(
    out: &mut Outcome,
    clock: &mut PhaseClock,
    epoch: Instant,
    pool: &Arc<PmemPool>,
    keys: &[Key],
    live: &Live,
    rng: &mut Rng,
) -> Hart {
    let o = clock.open("recovery", false, pool, Obs::default);
    let (tree, r) = exec::restart(pool, RECOVERY_REPS, keys, live, rng, &mut out.checker);
    clock.close(o, epoch, pool, || obs(&tree), [0; 5], 0);
    out.restart = r;
    tree
}

pub fn finish(out: &mut Outcome, clock: PhaseClock, epoch: Instant) {
    out.phases = clock.phases;
    out.span = (0, exec::ns_since(epoch, Instant::now()));
}

// ------------------------------------------------------------ paper-phases

/// §IV-B on Random keys: insert all, search all ×3, update all, clean
/// restart, delete all — 1 thread, 300/300.
pub struct PaperPhases {
    pub keys: Vec<Key>,
    pub phases: Vec<(&'static str, Vec<Op>)>,
}

impl PaperPhases {
    pub fn generate(seed: u64, size: Size) -> PaperPhases {
        let n = size.count(500_000);
        let keys = random_keys(n, &mut Rng::derive(seed, "paper-phases"));
        let all = || 0..n as u32;
        let phases = vec![
            (
                "insert",
                all().map(|key| Op::Insert { key, version: 0 }).collect(),
            ),
            (
                "search",
                (0..3)
                    .flat_map(|_| all().map(|key| Op::Search { key, version: 0 }))
                    .collect(),
            ),
            (
                "update",
                all().map(|key| Op::Update { key, version: 1 }).collect(),
            ),
            ("delete", all().map(|key| Op::Delete { key }).collect()),
        ];
        PaperPhases { keys, phases }
    }

    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        for (name, ops) in &self.phases {
            d.bytes(name.as_bytes());
            d.ops(ops, &self.keys);
        }
        d.hex()
    }

    pub fn run(&self, seed: u64, trace: bool) -> Outcome {
        let mut out = Outcome {
            digest: self.digest(),
            ..Outcome::default()
        };
        let epoch = Instant::now();
        let mut clock = PhaseClock::new(trace);
        let (pool, mut tree) = setup(
            &mut out,
            &mut clock,
            epoch,
            LatencyConfig::c300_300(),
            &self.keys,
            0,
        );
        let mut rec = Recorder::new(trace, epoch);
        let mut rng = Rng::derive(seed, "paper-phases/recovery");
        for (name, ops) in &self.phases {
            if *name == "delete" {
                let live = Live::full(self.keys.len(), 1);
                drop(tree);
                tree = recovery(
                    &mut out, &mut clock, epoch, &pool, &self.keys, &live, &mut rng,
                );
            }
            phase(
                &mut out, &mut clock, &mut rec, &tree, &pool, name, true, &self.keys, ops, None,
            );
            if *name == "insert" {
                out.at_peak(&tree, &clock);
            }
        }
        rec.checker.check(if tree.is_empty() {
            Ok(())
        } else {
            Err(format!("{} keys left after deleting all", tree.len()))
        });
        out.absorb(rec);
        finish(&mut out, clock, epoch);
        out
    }
}

// ------------------------------------------------------------------ ycsb-e

/// YCSB-E: 95 % scans (Zipf start, length U[1,100]), 5 % inserts over a
/// preloaded tree, 1 thread, 300/300, after an untimed warm-up.
pub struct YcsbE {
    pub keys: Vec<Key>,
    pub preload: usize,
    pub warm: Vec<Op>,
    pub ops: Vec<Op>,
}

impl YcsbE {
    pub fn generate(seed: u64, size: Size) -> YcsbE {
        let preload = size.count(200_000);
        let (n_warm, n_ops) = (size.count(10_000), size.count(200_000));
        let mut rng = Rng::derive(seed, "ycsb-e");
        let zipf = Zipf::new(preload as u64, 0.99);
        let mut fresh = preload as u32;
        let mut all: Vec<Op> = (0..n_warm + n_ops)
            .map(|_| {
                if rng.below(100) < 5 {
                    fresh += 1;
                    Op::Insert {
                        key: fresh - 1,
                        version: 0,
                    }
                } else {
                    Op::Scan {
                        key: zipf.sample(&mut rng) as u32,
                        limit: 1 + rng.below(100) as u32,
                    }
                }
            })
            .collect();
        let ops = all.split_off(n_warm);
        let keys = random_keys(fresh as usize, &mut rng);
        YcsbE {
            keys,
            preload,
            warm: all,
            ops,
        }
    }

    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        d.u64(self.preload as u64);
        d.ops(&self.warm, &self.keys);
        d.ops(&self.ops, &self.keys);
        d.hex()
    }

    pub fn run(&self, seed: u64, trace: bool) -> Outcome {
        let mut out = Outcome {
            digest: self.digest(),
            ..Outcome::default()
        };
        let epoch = Instant::now();
        let mut clock = PhaseClock::new(trace);
        let (pool, tree) = setup(
            &mut out,
            &mut clock,
            epoch,
            LatencyConfig::c300_300(),
            &self.keys,
            self.preload,
        );
        let mut oracle: ScanOracle = (0..self.preload)
            .map(|k| (self.keys[k], value(k as u32, 0)))
            .collect();
        let mut rec = Recorder::new(trace, epoch);
        let (keys, o) = (&self.keys, Some(&mut oracle));
        phase(
            &mut out, &mut clock, &mut rec, &tree, &pool, "warm-up", false, keys, &self.warm, o,
        );
        let o = Some(&mut oracle);
        phase(
            &mut out, &mut clock, &mut rec, &tree, &pool, "scan-mix", true, keys, &self.ops, o,
        );
        out.at_peak(&tree, &clock);
        let live = Live::full(self.keys.len(), 0);
        drop(tree);
        let mut rng = Rng::derive(seed, "ycsb-e/recovery");
        recovery(
            &mut out, &mut clock, epoch, &pool, &self.keys, &live, &mut rng,
        );
        out.absorb(rec);
        finish(&mut out, clock, epoch);
        out
    }
}

// ------------------------------------------------------------------ mix-2t

/// Fig. 9 Read-Intensive (10 % insert, 70 % search, 10 % update, 10 %
/// delete, uniform over the live set), 2 threads sharing one tree, each
/// owning half the key space so every expected result is exact; 600/300.
pub struct Mix2t {
    pub keys: Vec<Key>,
    pub preload: usize,
    /// One op stream per thread; a run stops early at its deadline.
    pub ops: [Vec<Op>; 2],
    /// The deadline, from the start of the measured phase.
    pub seconds: f64,
}

/// Ops between two EBR-backlog samples by thread 0 on traced runs. Each
/// sample is an `obs_snapshot`, whose chunk walk adds PM reads to the
/// other thread's op windows, so samples are kept rare.
const MIX_CHUNK: usize = 1 << 18;

impl Mix2t {
    pub fn generate(seed: u64, size: Size) -> Mix2t {
        let preload = size.count(200_000);
        let per_thread = size.count(6_000_000) / 2;
        let mut next_fresh = [preload as u32, preload as u32 + 1];
        let ops = std::array::from_fn(|t| {
            let mut rng = Rng::derive(seed, &format!("mix-2t/{t}"));
            let mut live = Self::preloaded(preload, t);
            let mut version = 0u32;
            (0..per_thread)
                .map(|_| {
                    version += 1;
                    let r = rng.below(100);
                    let op = if r < 10 || live.len() == 0 {
                        next_fresh[t] += 2;
                        Op::Insert {
                            key: next_fresh[t] - 2,
                            version,
                        }
                    } else {
                        let key = live.pick(&mut rng);
                        match r {
                            10..=79 => Op::Search {
                                key,
                                version: live.version(key).expect("live"),
                            },
                            80..=89 => Op::Update { key, version },
                            _ => Op::Delete { key },
                        }
                    };
                    live.apply(&op);
                    op
                })
                .collect()
        });
        let n_keys = next_fresh.iter().max().copied().unwrap_or(0) as usize;
        let keys = random_keys(n_keys, &mut Rng::derive(seed, "mix-2t/keys"));
        Mix2t {
            keys,
            preload,
            ops,
            seconds: size.seconds,
        }
    }

    /// Thread `t`'s share of the preloaded state.
    fn preloaded(preload: usize, t: usize) -> Live {
        let mut live = Live::new(preload);
        for key in (t..preload).step_by(2) {
            live.apply(&Op::Insert {
                key: key as u32,
                version: 0,
            });
        }
        live
    }

    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        d.u64(self.preload as u64);
        for ops in &self.ops {
            d.ops(ops, &self.keys);
        }
        d.hex()
    }

    pub fn run(&self, seed: u64, trace: bool) -> Outcome {
        let mut out = Outcome {
            digest: self.digest(),
            threads: self.ops.len(),
            ..Outcome::default()
        };
        let epoch = Instant::now();
        let mut clock = PhaseClock::new(trace);
        let (pool, tree) = setup(
            &mut out,
            &mut clock,
            epoch,
            LatencyConfig::c600_300(),
            &self.keys,
            self.preload,
        );
        let barrier = Barrier::new(2);
        let o = clock.open("mix", true, &pool, || obs(&tree));
        let parent = o.id();
        let results: Vec<(Recorder, usize, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .ops
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    let (tree, keys, barrier) = (&tree, &self.keys, &barrier);
                    s.spawn(move || {
                        let mut rec = Recorder::new(trace, epoch);
                        let mut ebr_max = 0;
                        barrier.wait();
                        let deadline = Instant::now() + Duration::from_secs_f64(self.seconds);
                        let mut done = 0;
                        for chunk in ops.chunks(MIX_CHUNK) {
                            let n = run_ops(
                                tree,
                                keys,
                                chunk,
                                &mut rec,
                                true,
                                parent,
                                Some(deadline),
                                None,
                            );
                            done += n;
                            if trace && t == 0 {
                                ebr_max = ebr_max.max(obs(tree).pending_garbage);
                            }
                            if n < chunk.len() || Instant::now() >= deadline {
                                break;
                            }
                        }
                        (rec, done, ebr_max)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mix thread panicked"))
                .collect()
        });
        let mut rec = Recorder::new(trace, epoch);
        let mut done = [0usize; 2];
        for (t, (r, n, e)) in results.into_iter().enumerate() {
            rec.merge(r);
            done[t] = n;
            out.ebr_max = out.ebr_max.max(e);
        }
        let (counts, op_ns) = phase_counts(&rec, &[0; 5]);
        let secs = clock.close(o, epoch, &pool, || obs(&tree), counts, op_ns);
        out.measured(secs, counts);
        out.gauge_ebr(&clock);
        out.at_peak(&tree, &clock);
        // Expected state: the preload plus each thread's executed prefix
        // (threads own disjoint keys, so their order does not matter).
        let mut live = Live::new(self.keys.len());
        for t in 0..2 {
            for (k, v) in Self::preloaded(self.preload, t).iter() {
                live.apply(&Op::Insert { key: k, version: v });
            }
        }
        for (t, n) in done.iter().enumerate() {
            for op in &self.ops[t][..*n] {
                live.apply(op);
            }
        }
        drop(tree);
        let mut rng = Rng::derive(seed, "mix-2t/recovery");
        recovery(
            &mut out, &mut clock, epoch, &pool, &self.keys, &live, &mut rng,
        );
        out.absorb(rec);
        finish(&mut out, clock, epoch);
        out
    }
}
