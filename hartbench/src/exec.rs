//! Timed, checked execution of embedded op streams, and the clean restart
//! (`Hart::recover` + checks) every workload ends with.

use crate::gen::{value, Class, Live, Op, Rng};
use crate::stats::{sample_ns, FAILED};
use crate::trace::{Ledger, Obs, OpRec, Phase, Pm};
use hart::{Hart, Key, PersistentIndex, PmemPool, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Upper scan bound: sorts after every key over the 62-symbol alphabet.
pub fn scan_end() -> Key {
    Key::new(&[b'z'; 24]).expect("valid key")
}

/// One scan in this many is compared row by row with a `BTreeMap` oracle.
const ORACLE_EVERY: u64 = 64;
/// Keys read back after each recovery.
const RECOVERY_SAMPLE: usize = 1000;
/// Failure messages kept for the report.
const NOTES: usize = 20;

/// Counts attempted and failed ops/checks; a failure is anything that is
/// not the precomputed expected result.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn check(&mut self, res: Result<(), String>) -> bool {
        self.attempted += 1;
        match res {
            Ok(()) => true,
            Err(msg) => {
                self.failed += 1;
                if self.notes.len() < NOTES {
                    self.notes.push(msg);
                }
                false
            }
        }
    }

    pub fn merge(&mut self, o: Checker) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.notes.extend(o.notes);
        self.notes.truncate(NOTES);
    }
}

/// Everything one executing thread accumulates.
pub struct Recorder {
    pub checker: Checker,
    /// Measured-op latencies per class, ns ([`FAILED`] for failures).
    pub samples: [Vec<u32>; 5],
    /// Present on traced runs.
    pub ledger: Option<Ledger>,
    /// Trace clock origin.
    pub epoch: Instant,
    seq: u64,
}

impl Recorder {
    pub fn new(trace: bool, epoch: Instant) -> Recorder {
        Recorder {
            checker: Checker::default(),
            samples: Default::default(),
            ledger: trace.then(Ledger::default),
            epoch,
            seq: 0,
        }
    }

    pub fn tracing(&self) -> bool {
        self.ledger.is_some()
    }

    pub fn ns(&self, t: Instant) -> u64 {
        ns_since(self.epoch, t)
    }

    /// Record one measured op (`ok == false` counts as +∞ latency).
    pub fn op(&mut self, class: Class, dur_ns: u64, ok: bool, trace: Option<OpRec>) {
        let v = if ok { sample_ns(dur_ns) } else { FAILED };
        self.samples[class as usize].push(v);
        if let (Some(l), Some(mut r)) = (&mut self.ledger, trace) {
            r.seq = self.seq;
            l.record(r);
        }
        self.seq += 1;
    }

    pub fn merge(&mut self, o: Recorder) {
        self.checker.merge(o.checker);
        for (mine, theirs) in self.samples.iter_mut().zip(o.samples) {
            mine.extend(theirs);
        }
        if let (Some(l), Some(t)) = (&mut self.ledger, o.ledger) {
            l.merge(t);
        }
    }
}

/// Nanoseconds from `epoch` to `t` (0 if `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Ordered oracle of the live set, for the 1-in-[`ORACLE_EVERY`] scan
/// comparison.
pub type ScanOracle = BTreeMap<Key, Value>;

#[derive(Debug)]
enum Got {
    Unit(hart::Result<()>),
    Found(hart::Result<Option<Value>>),
    Flag(hart::Result<bool>),
    Rows(hart::Result<Vec<(Key, Value)>>),
}

/// Run `ops` in order on this thread; returns how many ran (all of them
/// unless `deadline` passed first). `measured` ops are sampled; warm-up
/// ops are only checked.
#[allow(clippy::too_many_arguments)]
pub fn run_ops(
    tree: &Hart,
    keys: &[Key],
    ops: &[Op],
    rec: &mut Recorder,
    measured: bool,
    parent: u64,
    deadline: Option<Instant>,
    mut oracle: Option<&mut ScanOracle>,
) -> usize {
    let end = scan_end();
    let mut scans = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let key = &keys[op.key() as usize];
        let pm0 = rec.tracing().then(|| tree.pm_stats());
        let t0 = Instant::now();
        let got = match *op {
            Op::Insert { key: k, version } => Got::Unit(tree.insert(key, &value(k, version))),
            Op::Search { .. } => Got::Found(tree.search(key)),
            Op::Update { key: k, version } => Got::Flag(tree.update(key, &value(k, version))),
            Op::Delete { .. } => Got::Flag(tree.remove(key)),
            Op::Scan { limit, .. } => Got::Rows(tree.scan(key, &end, limit as usize)),
        };
        let t1 = Instant::now();
        let pm = pm0.map(|a| Pm::between(&a, &tree.pm_stats()));
        let rows = match &got {
            Got::Rows(Ok(r)) => r.len() as u32,
            _ => 0,
        };
        let oracle_scan = matches!(op, Op::Scan { .. }) && {
            scans += 1;
            (scans - 1).is_multiple_of(ORACLE_EVERY)
        };
        let res = check(
            op,
            key,
            &end,
            got,
            oracle.as_deref().filter(|_| oracle_scan),
        );
        if let (Op::Insert { key: k, version }, Some(o)) = (op, oracle.as_deref_mut()) {
            o.insert(keys[*k as usize], value(*k, *version));
        }
        let ok = rec.checker.check(res);
        if measured {
            let dur_ns = (t1 - t0).as_nanos() as u64;
            let trace = rec.tracing().then(|| OpRec {
                class: op.class(),
                seq: 0,
                parent,
                start_ns: rec.ns(t0),
                dur_ns,
                pm,
                rows,
                late_ns: None,
            });
            rec.op(op.class(), dur_ns, ok, trace);
        }
        if deadline.is_some_and(|d| t1 >= d) {
            return i + 1;
        }
    }
    ops.len()
}

fn check(
    op: &Op,
    key: &Key,
    end: &Key,
    got: Got,
    oracle: Option<&ScanOracle>,
) -> Result<(), String> {
    match (*op, got) {
        (Op::Insert { .. }, Got::Unit(Ok(()))) => Ok(()),
        (Op::Search { key: k, version }, Got::Found(Ok(Some(v)))) if v == value(k, version) => {
            Ok(())
        }
        (Op::Update { .. } | Op::Delete { .. }, Got::Flag(Ok(true))) => Ok(()),
        (Op::Scan { limit, .. }, Got::Rows(Ok(rows))) => {
            check_scan(key, end, limit as usize, &rows, oracle)
        }
        (op, got) => Err(format!("{op:?} on {key}: got {got:?}")),
    }
}

/// Every scan: sorted, in range, within its limit, and starting at its
/// (live) start key. With an oracle: exactly the oracle's rows.
fn check_scan(
    start: &Key,
    end: &Key,
    limit: usize,
    rows: &[(Key, Value)],
    oracle: Option<&ScanOracle>,
) -> Result<(), String> {
    if rows.is_empty() || rows.len() > limit {
        return Err(format!(
            "scan from {start} limit {limit}: {} rows",
            rows.len()
        ));
    }
    if rows[0].0 != *start {
        return Err(format!("scan from {start} starts at {}", rows[0].0));
    }
    if let Some(w) = rows.windows(2).find(|w| w[0].0 >= w[1].0) {
        return Err(format!("scan from {start}: {} before {}", w[0].0, w[1].0));
    }
    if rows.last().is_some_and(|(k, _)| k > end) {
        return Err(format!("scan from {start}: row past the end bound"));
    }
    if let Some(o) = oracle {
        let want: Vec<(Key, Value)> = o
            .range::<Key, _>(start..=end)
            .take(limit)
            .map(|(k, v)| (*k, *v))
            .collect();
        if want != rows {
            return Err(format!(
                "scan from {start} limit {limit}: {} rows differ from the oracle's {}",
                rows.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// What a clean restart measured.
#[derive(Clone, Debug, Default)]
pub struct Restart {
    /// Each `Hart::recover` repetition.
    pub seconds: Vec<f64>,
    /// PM events of one recovery (every repetition reads the same pool).
    pub pm: Pm,
    /// Keys recovered.
    pub keys: u64,
}

/// Times `Hart::recover` `reps` times on `pool` (the previous tree must be
/// dropped), keeping the last recovered tree; then checks that its length
/// matches `live` and that up to [`RECOVERY_SAMPLE`] sampled live keys
/// read back their expected values.
pub fn restart(
    pool: &Arc<PmemPool>,
    reps: usize,
    keys: &[Key],
    live: &Live,
    rng: &mut Rng,
    checker: &mut Checker,
) -> (Hart, Restart) {
    let mut out = Restart::default();
    let mut tree = None;
    for _ in 0..reps.max(1) {
        drop(tree.take());
        let before = pool.stats().snapshot();
        let t = Instant::now();
        let h = Hart::recover(Arc::clone(pool), hart::HartConfig::default())
            .expect("recover a cleanly shut down pool");
        out.seconds.push(t.elapsed().as_secs_f64());
        out.pm = Pm::between(&before, &pool.stats().snapshot());
        tree = Some(h);
    }
    let tree = tree.expect("at least one recovery");
    out.keys = tree.len() as u64;
    checker.check(if tree.len() == live.len() {
        Ok(())
    } else {
        Err(format!(
            "recovered {} keys, expected {}",
            tree.len(),
            live.len()
        ))
    });
    for _ in 0..RECOVERY_SAMPLE.min(live.len()) {
        let k = live.pick(rng);
        let want = value(k, live.version(k).expect("picked keys are live"));
        let got = tree.search(&keys[k as usize]);
        checker.check(match got {
            Ok(Some(v)) if v == want => Ok(()),
            other => Err(format!(
                "after recovery {} read {other:?}",
                keys[k as usize]
            )),
        });
    }
    (tree, out)
}

/// Phase bookkeeping against one tree: span ids, PM and obs deltas.
///
/// Obs snapshots are taken on traced runs only: `obs_snapshot` walks every
/// allocator chunk through PM reads, which would disturb the PM cache
/// model of the run it measures. The walk is kept outside each phase's PM
/// delta (obs before the PM snapshot at open, after it at close).
pub struct PhaseClock {
    next_id: u64,
    trace: bool,
    pub phases: Vec<Phase>,
}

/// An open phase.
pub struct Open {
    id: u64,
    name: String,
    measured: bool,
    start: Instant,
    pm: hart_pm::PmStatsSnapshot,
    obs: Obs,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl PhaseClock {
    pub fn new(trace: bool) -> PhaseClock {
        // Span id 1 is the workload.
        PhaseClock {
            next_id: 2,
            trace,
            phases: Vec::new(),
        }
    }

    /// `obs` on traced runs, zeros otherwise.
    pub fn obs(&self, obs: impl FnOnce() -> Obs) -> Obs {
        if self.trace {
            obs()
        } else {
            Obs::default()
        }
    }

    pub fn open(
        &mut self,
        name: &str,
        measured: bool,
        pool: &PmemPool,
        obs: impl FnOnce() -> Obs,
    ) -> Open {
        let obs = self.obs(obs);
        self.next_id += 1;
        Open {
            id: self.next_id - 1,
            name: name.to_string(),
            measured,
            start: Instant::now(),
            pm: pool.stats().snapshot(),
            obs,
        }
    }

    /// Record set-up, which spans several pools, as a phase with timings
    /// only.
    pub fn setup(&mut self, start: Instant, epoch: Instant) {
        self.phases.push(Phase {
            id: self.next_id,
            name: "setup".into(),
            measured: false,
            start_ns: ns_since(epoch, start),
            end_ns: ns_since(epoch, Instant::now()),
            ops: [0; 5],
            op_ns: 0,
            pm: Pm::default(),
            obs: Obs::default(),
        });
        self.next_id += 1;
    }

    /// Close `o`; `ops` are per-class op counts and `op_ns` their summed
    /// durations. Returns the phase wall time in seconds.
    pub fn close(
        &mut self,
        o: Open,
        epoch: Instant,
        pool: &PmemPool,
        obs: impl FnOnce() -> Obs,
        ops: [u64; 5],
        op_ns: u64,
    ) -> f64 {
        let end = Instant::now();
        let pm = Pm::between(&o.pm, &pool.stats().snapshot());
        let obs = self.obs(obs).since(&o.obs);
        self.phases.push(Phase {
            id: o.id,
            name: o.name,
            measured: o.measured,
            start_ns: ns_since(epoch, o.start),
            end_ns: ns_since(epoch, end),
            ops,
            op_ns,
            pm,
            obs,
        });
        (end - o.start).as_secs_f64()
    }
}

/// Per-class counts and summed durations of the ops sampled into `rec`
/// since `mark` (the per-class sample lengths before the phase).
pub fn phase_counts(rec: &Recorder, mark: &[usize; 5]) -> ([u64; 5], u64) {
    let mut ops = [0u64; 5];
    let mut ns = 0u64;
    for c in 0..5 {
        let new = &rec.samples[c][mark[c]..];
        ops[c] = new.len() as u64;
        ns += new
            .iter()
            .filter(|&&v| v != FAILED)
            .map(|&v| v as u64)
            .sum::<u64>();
    }
    (ops, ns)
}

/// Current per-class sample lengths (a phase's starting mark).
pub fn mark(rec: &Recorder) -> [usize; 5] {
    std::array::from_fn(|c| rec.samples[c].len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from_str(s).unwrap()
    }

    #[test]
    fn scan_checks_catch_each_defect() {
        let v = Value::from_u64(1);
        let rows = vec![(k("b"), v), (k("c"), v), (k("d"), v)];
        let end = scan_end();
        assert!(check_scan(&k("b"), &end, 3, &rows, None).is_ok());
        assert!(
            check_scan(&k("b"), &end, 2, &rows, None).is_err(),
            "over limit"
        );
        assert!(
            check_scan(&k("a"), &end, 3, &rows, None).is_err(),
            "wrong start"
        );
        let unsorted = vec![(k("b"), v), (k("d"), v), (k("c"), v)];
        assert!(
            check_scan(&k("b"), &end, 3, &unsorted, None).is_err(),
            "unsorted"
        );
        assert!(
            check_scan(&k("b"), &k("c"), 3, &rows, None).is_err(),
            "past end"
        );
        let mut oracle: ScanOracle = rows.iter().copied().collect();
        assert!(check_scan(&k("b"), &end, 3, &rows, Some(&oracle)).is_ok());
        oracle.insert(k("bb"), v);
        assert!(
            check_scan(&k("b"), &end, 3, &rows, Some(&oracle)).is_err(),
            "missed row"
        );
    }
}
