//! In-memory tracing around the benchmark's own calls into the crates:
//! workload → phase → op spans, PM-counter deltas per op (1-thread
//! workloads) and per phase, and observability-counter deltas per phase.
//! Nothing here instruments the crates themselves.

use crate::gen::Class;
use crate::json::{Json, JsonExt};
use hart::ObsSnapshot;
use hart_pm::PmStatsSnapshot;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;

/// Slowest ops kept per class for the span file.
const SLOWEST: usize = 100;
/// One op in this many is written to the span file as a sample.
const SAMPLE_EVERY: u64 = 64;

/// PM event counts between two `PmStats` snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pm {
    pub persists: u64,
    pub lines_flushed: u64,
    pub read_lines: u64,
    pub read_misses: u64,
    pub write_ns: u64,
    pub read_ns: u64,
    pub alloc_ns: u64,
    pub raw_allocs: u64,
    pub deferred: u64,
}

impl Pm {
    pub fn between(a: &PmStatsSnapshot, b: &PmStatsSnapshot) -> Pm {
        Pm {
            persists: b.persist_calls - a.persist_calls,
            lines_flushed: b.lines_flushed - a.lines_flushed,
            read_lines: b.read_lines - a.read_lines,
            read_misses: b.read_misses - a.read_misses,
            write_ns: b.write_extra_ns - a.write_extra_ns,
            read_ns: b.read_extra_ns - a.read_extra_ns,
            alloc_ns: b.alloc_extra_ns - a.alloc_extra_ns,
            raw_allocs: b.raw_allocs - a.raw_allocs,
            deferred: b.persists_deferred - a.persists_deferred,
        }
    }

    fn fields(&mut self) -> [&mut u64; 9] {
        [
            &mut self.persists,
            &mut self.lines_flushed,
            &mut self.read_lines,
            &mut self.read_misses,
            &mut self.write_ns,
            &mut self.read_ns,
            &mut self.alloc_ns,
            &mut self.raw_allocs,
            &mut self.deferred,
        ]
    }

    pub fn add(&mut self, o: &Pm) {
        let mut o = *o;
        for (a, b) in self.fields().into_iter().zip(o.fields()) {
            *a += *b;
        }
    }

    /// Each field less `share` of the same field of `other` (saturating):
    /// removes other threads' events from an op's window at their average
    /// rate.
    pub fn less_share(&self, other: &Pm, share: f64) -> Pm {
        let (mut s, mut o) = (*self, *other);
        for (a, b) in s.fields().into_iter().zip(o.fields()) {
            *a = a.saturating_sub((*b as f64 * share) as u64);
        }
        s
    }

    /// Emulated PM time injected into the op (busy-waited), ns.
    pub fn injected_ns(&self) -> u64 {
        self.write_ns + self.read_ns + self.alloc_ns
    }

    fn attrs(&self, j: &mut Json) {
        j.set("persists", self.persists)
            .set("lines_flushed", self.lines_flushed)
            .set("read_lines", self.read_lines)
            .set("read_misses", self.read_misses)
            .set("write_ns", self.write_ns)
            .set("read_ns", self.read_ns);
    }
}

/// Observability counters the benchmark reads at phase boundaries.
/// Counters subtract; the last five fields are gauges and keep the later
/// value.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Obs {
    pub retries: u64,
    pub fallbacks: u64,
    pub write_waits: u64,
    pub write_wait_ns: u64,
    pub fp_hits: u64,
    pub fp_false: u64,
    pub stash_probes: u64,
    pub grows: u64,
    pub allocs: u64,
    pub retires: u64,
    pub recycled: u64,
    pub ulogs: u64,
    pub flushes: u64,
    pub busy: u64,
    // Gauges.
    pub inflight_peak: u64,
    pub occupancy_mean: f64,
    pub shards: u64,
    pub leaf_occupancy: f64,
    pub pending_garbage: u64,
}

impl Obs {
    pub fn of(s: &ObsSnapshot) -> Obs {
        Obs {
            retries: s.reads.optimistic_retries,
            fallbacks: s.reads.lock_fallbacks,
            write_waits: s.locks.shard_write_waits,
            write_wait_ns: s.locks.shard_write_wait_ns,
            fp_hits: s.dir.fp_hits,
            fp_false: s.dir.fp_false_positives,
            stash_probes: s.dir.stash_probes,
            grows: s.dir.grows,
            allocs: s.alloc.allocs,
            retires: s.alloc.retires,
            recycled: s.alloc.chunks_recycled,
            ulogs: s.alloc.ulog_acquisitions,
            flushes: s.group.flushes,
            busy: s.server.busy_rejections,
            inflight_peak: s.server.inflight_peak,
            occupancy_mean: s.group.occupancy_mean,
            shards: s.dir.shards,
            leaf_occupancy: s.alloc.leaf.occupancy,
            pending_garbage: s.ebr.pending_garbage,
        }
    }

    pub fn since(&self, before: &Obs) -> Obs {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Obs {
            retries: d(self.retries, before.retries),
            fallbacks: d(self.fallbacks, before.fallbacks),
            write_waits: d(self.write_waits, before.write_waits),
            write_wait_ns: d(self.write_wait_ns, before.write_wait_ns),
            fp_hits: d(self.fp_hits, before.fp_hits),
            fp_false: d(self.fp_false, before.fp_false),
            stash_probes: d(self.stash_probes, before.stash_probes),
            grows: d(self.grows, before.grows),
            allocs: d(self.allocs, before.allocs),
            retires: d(self.retires, before.retires),
            recycled: d(self.recycled, before.recycled),
            ulogs: d(self.ulogs, before.ulogs),
            flushes: d(self.flushes, before.flushes),
            busy: d(self.busy, before.busy),
            ..*self
        }
    }

    fn attrs(&self, j: &mut Json) {
        j.set("optimistic_retries", self.retries)
            .set("lock_fallbacks", self.fallbacks)
            .set("shard_write_waits", self.write_waits)
            .set("shard_write_wait_ns", self.write_wait_ns)
            .set("dir_fp_hits", self.fp_hits)
            .set("dir_fp_false_positives", self.fp_false)
            .set("dir_stash_probes", self.stash_probes)
            .set("dir_grows", self.grows)
            .set("alloc_objects", self.allocs)
            .set("alloc_retires", self.retires)
            .set("chunks_recycled", self.recycled)
            .set("ulog_acquisitions", self.ulogs)
            .set("group_flushes", self.flushes);
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub class: Class,
    pub seq: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// PM deltas over the call's window (`None` through the server).
    pub pm: Option<Pm>,
    pub rows: u32,
    /// Open-loop send lateness (server only).
    pub late_ns: Option<u64>,
}

/// Ordered by duration, for the slowest-ops heap.
#[derive(Clone, Copy, Debug)]
struct Slow(OpRec);
impl PartialEq for Slow {
    fn eq(&self, o: &Self) -> bool {
        (self.0.dur_ns, self.0.seq) == (o.0.dur_ns, o.0.seq)
    }
}
impl Eq for Slow {}
impl PartialOrd for Slow {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Slow {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.0.dur_ns, self.0.seq).cmp(&(o.0.dur_ns, o.0.seq))
    }
}

/// Per-class sums of one workload's measured ops.
#[derive(Clone, Debug, Default)]
pub struct ClassLedger {
    pub n: u64,
    pub dur_ns: u64,
    pub pm: Pm,
    pub rows: u64,
    slowest: BinaryHeap<Reverse<Slow>>,
}

/// The per-op side of a traced run: class sums, the slowest ops and a
/// 1-in-[`SAMPLE_EVERY`] sample.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub classes: [ClassLedger; 5],
    sampled: Vec<OpRec>,
}

impl Ledger {
    pub fn record(&mut self, rec: OpRec) {
        let c = &mut self.classes[rec.class as usize];
        c.n += 1;
        c.dur_ns += rec.dur_ns;
        c.rows += rec.rows as u64;
        if let Some(pm) = &rec.pm {
            c.pm.add(pm);
        }
        c.slowest.push(Reverse(Slow(rec)));
        if c.slowest.len() > SLOWEST {
            c.slowest.pop();
        }
        if rec.seq.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push(rec);
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes) {
            mine.n += theirs.n;
            mine.dur_ns += theirs.dur_ns;
            mine.rows += theirs.rows;
            mine.pm.add(&theirs.pm);
            for s in theirs.slowest {
                mine.slowest.push(s);
                if mine.slowest.len() > SLOWEST {
                    mine.slowest.pop();
                }
            }
        }
        self.sampled.extend(other.sampled);
    }

    /// Op records to write as spans: the slowest per class, then the
    /// sampled ops that are not among them.
    fn spans(&self) -> Vec<(&'static str, &OpRec)> {
        let slow: Vec<&OpRec> = self
            .classes
            .iter()
            .flat_map(|c| c.slowest.iter().map(|Reverse(Slow(r))| r))
            .collect();
        let key = |r: &OpRec| (r.class, r.seq, r.start_ns);
        let kept: std::collections::HashSet<_> = slow.iter().map(|r| key(r)).collect();
        let sampled = self.sampled.iter().filter(|r| !kept.contains(&key(r)));
        slow.iter()
            .map(|&r| ("slowest", r))
            .chain(sampled.map(|r| ("sampled", r)))
            .collect()
    }
}

/// A phase of a workload (setup, warm-up, a measured phase, recovery).
#[derive(Clone, Debug)]
pub struct Phase {
    pub id: u64,
    pub name: String,
    pub measured: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: [u64; 5],
    /// Sum of the phase's op durations (self time = span − this).
    pub op_ns: u64,
    pub pm: Pm,
    pub obs: Obs,
}

impl Phase {
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// Write the span lines: the workload span, every phase span and the
/// selected op spans, one JSON object per line.
pub fn write_spans(
    out: &mut impl Write,
    workload: &str,
    span: (u64, u64),
    phases: &[Phase],
    ledger: &Ledger,
) -> std::io::Result<()> {
    let line = |id: u64, parent: u64, name: &str, s: u64, e: u64, attrs: Json| {
        let mut j = Json::obj();
        j.set("id", id)
            .set("parent", parent)
            .set("name", name)
            .set("start_ns", s)
            .set("end_ns", e)
            .set("attrs", attrs);
        j
    };
    let phase_ns: u64 = phases.iter().map(|p| p.end_ns - p.start_ns).sum();
    let mut a = Json::obj();
    a.set("self_ns", (span.1 - span.0).saturating_sub(phase_ns));
    writeln!(out, "{}", line(1, 0, workload, span.0, span.1, a))?;
    for p in phases {
        let mut a = Json::obj();
        a.set("measured", p.measured)
            .set("ops", p.total_ops())
            .set("self_ns", (p.end_ns - p.start_ns).saturating_sub(p.op_ns));
        for c in Class::ALL {
            a.set(&format!("ops_{}", c.name()), p.ops[c as usize]);
        }
        p.pm.attrs(&mut a);
        p.obs.attrs(&mut a);
        writeln!(out, "{}", line(p.id, 1, &p.name, p.start_ns, p.end_ns, a))?;
    }
    let first_op_id = 1 + phases.iter().map(|p| p.id).max().unwrap_or(1);
    for (id, (why, r)) in (first_op_id..).zip(ledger.spans()) {
        let mut a = Json::obj();
        a.set("class", r.class.name())
            .set("seq", r.seq)
            .set("kept", why);
        if let Some(pm) = &r.pm {
            pm.attrs(&mut a);
            a.set("cpu_ns", r.dur_ns.saturating_sub(pm.injected_ns()));
        }
        if r.class == Class::Scan {
            a.set("rows", r.rows as u64);
        }
        if let Some(l) = r.late_ns {
            a.set("late_ns", l);
        }
        let name = format!("op.{}", r.class.name());
        writeln!(
            out,
            "{}",
            line(id, r.parent, &name, r.start_ns, r.start_ns + r.dur_ns, a)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, dur_ns: u64) -> OpRec {
        OpRec {
            class: Class::Search,
            seq,
            parent: 2,
            start_ns: seq * 10,
            dur_ns,
            pm: Some(Pm {
                persists: 1,
                ..Pm::default()
            }),
            rows: 0,
            late_ns: None,
        }
    }

    #[test]
    fn ledger_keeps_the_slowest_and_a_sample() {
        let mut a = Ledger::default();
        let mut b = Ledger::default();
        for seq in 0..300 {
            let l = if seq % 2 == 0 { &mut a } else { &mut b };
            l.record(rec(seq, (seq * 7919) % 1000));
        }
        a.merge(b);
        let c = &a.classes[Class::Search as usize];
        assert_eq!((c.n, c.pm.persists), (300, 300));
        let mut kept: Vec<u64> = c.slowest.iter().map(|Reverse(Slow(r))| r.dur_ns).collect();
        kept.sort_unstable();
        let mut all: Vec<u64> = (0..300).map(|s| (s * 7919) % 1000).collect();
        all.sort_unstable();
        assert_eq!(kept, all[200..]);
        assert_eq!(a.sampled.len(), 300usize.div_ceil(SAMPLE_EVERY as usize));
        // An op both slow and sampled is written once.
        let spans = a.spans();
        let mut keys: Vec<_> = spans.iter().map(|(_, r)| (r.seq, r.start_ns)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), spans.len());
    }

    #[test]
    fn less_share_removes_a_fraction_of_other_events() {
        let window = Pm {
            persists: 30,
            read_lines: 10,
            ..Pm::default()
        };
        let other = Pm {
            persists: 40,
            read_lines: 100,
            ..Pm::default()
        };
        let s = window.less_share(&other, 0.25);
        assert_eq!((s.persists, s.read_lines, s.write_ns), (20, 0, 0));
    }
}
