//! Metric definitions. End-to-end metrics come from untraced runs; the
//! per-layer ledger from traced runs. `BENCHMARK.json` lists which of them
//! the yardstick gates and with what bound.

use crate::gen::{Class, Rng};
use crate::json::{Json, JsonExt};
use crate::stats::{median, percentile, Summary};
use crate::trace::{Phase, Pm};
use crate::workloads::Outcome;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, repetitions, or 0 for counters).
    pub samples: u64,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Each class's latency samples, sorted.
fn sorted(o: &Outcome) -> [Vec<u32>; 5] {
    std::array::from_fn(|c| {
        let mut v = o.samples[c].clone();
        v.sort_unstable();
        v
    })
}

/// The read or write classes' samples, pooled and sorted.
fn pooled(o: &Outcome, reads: bool) -> Vec<u32> {
    let mut v: Vec<u32> = Class::ALL
        .into_iter()
        .filter(|c| c.is_read() == reads)
        .flat_map(|c| o.samples[c as usize].iter().copied())
        .collect();
    v.sort_unstable();
    v
}

/// p99 (µs) of the slowest read or write class present, with that class's
/// sample count. Pooled, one class's sparse tail would set the value
/// through rank shifts: paper-phases' pooled write p99 lands inside the
/// ~1 % of writes that are recycling deletes, spread from 5 to 400 µs.
fn slowest_p99(sorted: &[Vec<u32>; 5], reads: bool) -> (f64, u64) {
    Class::ALL
        .into_iter()
        .filter(|c| c.is_read() == reads)
        .map(|c| &sorted[c as usize])
        .filter(|v| !v.is_empty())
        .map(|v| (percentile(v, 9_900) / 1e3, v.len() as u64))
        .fold((0.0, 0), |a, b| if b.0 > a.0 { b } else { a })
}

/// `throughput_kops`: measured ops / measured wall seconds; through the
/// server, the median over phase B's windows.
fn throughput_kops(o: &Outcome) -> f64 {
    match o.server.as_ref().filter(|s| !s.window_kops.is_empty()) {
        Some(s) => median(&s.window_kops),
        None => div(o.ops as f64, o.wall_s) / 1e3,
    }
}

/// The gated end-to-end metrics, then `recovery_s`, which is reported but
/// not gated (see README). Every workload has reads and writes and a
/// set-up, so each gated metric exists (and is non-zero) on each. p50s
/// pool the read or write classes, so every class moves them; p99s take
/// the slowest class ([`slowest_p99`]).
#[rustfmt::skip]
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let sorted = sorted(o);
    // Through the server: the median over its windows (`server::WINDOW_NS`).
    let windows = o.server.as_ref().map_or(&[][..], |s| &s.windows[..]);
    let lat = |reads: bool, p| {
        let (v, n) = if p == 5_000 {
            let v = pooled(o, reads);
            (percentile(&v, p) / 1e3, v.len() as u64)
        } else {
            slowest_p99(&sorted, reads)
        };
        if windows.is_empty() {
            (v, n)
        } else {
            (median(&per_window(windows, usize::from(!reads), p)), n)
        }
    };
    let keys = o.peak_keys as f64;
    let nk = o.peak_keys as u64;
    let [r50, r99, w50, w99] = [(true, 5_000), (true, 9_900), (false, 5_000), (false, 9_900)].map(|(r, p)| lat(r, p));
    vec![
        m("setup_s", median(&o.setup_s), "s", o.setup_s.len() as u64),
        m("throughput_kops", throughput_kops(o), "kops/s", o.ops),
        m("read_p50_us", r50.0, "us", r50.1),
        m("read_p99_us", r99.0, "us", r99.1),
        m("write_p50_us", w50.0, "us", w50.1),
        m("write_p99_us", w99.0, "us", w99.1),
        m("pm_bytes_per_key", div(o.peak_mem.pm_bytes as f64, keys), "B", nk),
        m("dram_bytes_per_key", div(o.peak_mem.dram_bytes as f64, keys), "B", nk),
        m("recovery_s", median(&o.restart.seconds), "s", o.restart.seconds.len() as u64),
    ]
}

/// Informational, not gated: per-class exact percentiles with sample
/// counts, p99.9 and max; every set-up and recovery repetition; and the
/// server's per-window values.
pub fn info(o: &Outcome) -> Json {
    let mut j = Json::obj();
    let summary = |v: &mut Vec<u32>| {
        let s = Summary::of(v);
        let mut c = Json::obj();
        c.set("samples", s.n)
            .set("failed", s.failed)
            .set("p50_us", s.p50_us)
            .set("p99_us", s.p99_us)
            .set("p999_us", s.p999_us)
            .set("max_us", s.max_us);
        c
    };
    for c in Class::ALL {
        let mut v = o.samples[c as usize].clone();
        if !v.is_empty() {
            j.set(c.name(), summary(&mut v));
        }
    }
    j.set("setup_s_runs", o.setup_s.clone());
    j.set("recovery_s_runs", o.restart.seconds.clone());
    if let Some(s) = o.server.as_ref().filter(|s| !s.windows.is_empty()) {
        let mut w = Json::obj();
        w.set("read_p50_us", per_window(&s.windows, 0, 5_000))
            .set("read_p99_us", per_window(&s.windows, 0, 9_900))
            .set("write_p50_us", per_window(&s.windows, 1, 5_000))
            .set("write_p99_us", per_window(&s.windows, 1, 9_900))
            .set("throughput_kops", s.window_kops.clone());
        j.set("windows", w);
    }
    j
}

/// Percentile `per10k` of each server window's reads (`side` 0) or
/// writes (1), µs.
fn per_window(windows: &[[Vec<u32>; 2]], side: usize, per10k: u64) -> Vec<f64> {
    windows
        .iter()
        .map(|w| {
            let mut v = w[side].clone();
            v.sort_unstable();
            percentile(&v, per10k) / 1e3
        })
        .collect()
}

/// Nanoseconds per call of the three SIMD kernels, on seeded node images.
pub fn art_kernels(seed: u64) -> [f64; 3] {
    const CALLS: usize = 1 << 20;
    let mut rng = Rng::derive(seed, "art-kernels");
    let mut keys16 = [0u8; 16];
    for (i, k) in keys16.iter_mut().enumerate() {
        *k = (i as u8) * 16 + rng.below(16) as u8;
    }
    let mut index48 = [0xFFu8; 256];
    for slot in 0..48u8 {
        index48[rng.below(256) as usize] = slot;
    }
    let mut bytes64 = [0u8; 64];
    for b in bytes64.iter_mut() {
        *b = rng.below(256) as u8;
    }
    let probes: Vec<u8> = (0..256).map(|_| rng.below(256) as u8).collect();
    let time = |f: &mut dyn FnMut(u8) -> u64| {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..CALLS {
            acc = acc.wrapping_add(f(black_box(probes[i & 255])));
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / CALLS as f64
    };
    use hart_art::simd;
    [
        time(&mut |b| simd::find_key16(black_box(&keys16), 16, b).map_or(16, |i| i as u64)),
        time(&mut |b| simd::next_edge48(black_box(&index48), b as usize).map_or(256, u64::from)),
        time(&mut |b| simd::match_byte64(black_box(&bytes64), b)),
    ]
}

/// PM events of each class. On 1-thread workloads the per-op windows tile
/// the measured phases, so the sums are exact. With `k` threads an op's
/// window also holds the other threads' events; they are removed at their
/// average rate — (k−1)/k of the phases' events per wall ns — times the
/// class's summed op time, which leaves an estimate. Through the server
/// there are no per-op windows, so these are zero.
fn class_pm(o: &Outcome) -> [Pm; 5] {
    let Some(l) = &o.ledger else {
        return [Pm::default(); 5];
    };
    let mut total = Pm::default();
    let mut wall_ns = 0;
    for p in o.phases.iter().filter(|p| p.measured) {
        total.add(&p.pm);
        wall_ns += p.end_ns - p.start_ns;
    }
    let k = o.threads.max(1) as f64;
    let rate = div((k - 1.0) / k, wall_ns as f64);
    std::array::from_fn(|c| {
        l.classes[c]
            .pm
            .less_share(&total, rate * l.classes[c].dur_ns as f64)
    })
}

/// The per-layer ledger of a traced run. `untraced_kops` is the same
/// workload's untraced throughput, for the tracing overhead.
#[rustfmt::skip]
pub fn per_layer(o: &Outcome, untraced_kops: f64, kernels: [f64; 3]) -> Vec<Metric> {
    use Class::{Delete, Insert, Scan, Search, Update};
    let l = o.ledger.clone().unwrap_or_default();
    let n = |c: Class| l.classes[c as usize].n;
    let cpm = class_pm(o);
    let per_op = |c: Class, f: fn(&Pm) -> u64| div(f(&cpm[c as usize]) as f64, n(c) as f64);
    let mp: Vec<&Phase> = o.phases.iter().filter(|p| p.measured).collect();
    let sum = |f: &dyn Fn(&Phase) -> u64| mp.iter().map(|p| f(p)).sum::<u64>() as f64;
    let ops = sum(&|p| p.total_ops());
    let of = |cs: &[Class]| sum(&|p| cs.iter().map(|&c| p.ops[c as usize]).sum());
    let (reads, writes) = (of(&[Search, Scan]), of(&[Insert, Update, Delete]));
    // Allocator counters are phase totals, divided by the class's ops over
    // the phases where that class ran.
    let per_class = |f: &dyn Fn(&Phase) -> u64, c: Class| {
        let ph = mp.iter().filter(|p| p.ops[c as usize] > 0);
        let num: u64 = ph.clone().map(|p| f(p)).sum();
        div(num as f64, ph.map(|p| p.ops[c as usize]).sum::<u64>() as f64)
    };
    // Op wall time minus injected PM time, where ops have PM windows.
    let embedded = o.server.is_none();
    let cpu = |c: Class| {
        let ns = l.classes[c as usize].dur_ns.saturating_sub(cpm[c as usize].injected_ns());
        if embedded { div(ns as f64, n(c) as f64) / 1e3 } else { 0.0 }
    };
    let timed: Vec<&&Phase> = mp.iter().filter(|p| p.op_ns > 0).collect();
    let stall_share = div(
        timed.iter().map(|p| p.pm.injected_ns()).sum::<u64>() as f64,
        timed.iter().map(|p| p.op_ns).sum::<u64>() as f64,
    );
    let fp = sum(&|p| p.obs.fp_hits);
    let peak = &o.peak_obs;
    let (late50, late99, tree50, self50, srv_writes) = match &o.server {
        Some(s) => {
            let mut late = s.lateness.clone();
            late.sort_unstable();
            let client50 = percentile(&pooled(o, true), 5_000) / 1e3;
            let late50 = percentile(&late, 5_000) / 1e3;
            let self50 = client50 - s.tree_search_p50_us - late50;
            (late50, percentile(&late, 9_900) / 1e3, s.tree_search_p50_us, self50, s.writes as f64)
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let srv = |x: f64| if embedded { 0.0 } else { x };
    let traced_kops = throughput_kops(o);
    let scan = &l.classes[Scan as usize];
    let ops_n = ops as u64;
    vec![
        m("pm.persists_per_insert", per_op(Insert, |p| p.persists), "count", n(Insert)),
        m("pm.persists_per_update", per_op(Update, |p| p.persists), "count", n(Update)),
        m("pm.persists_per_delete", per_op(Delete, |p| p.persists), "count", n(Delete)),
        m("pm.lines_flushed_per_op", div(sum(&|p| p.pm.lines_flushed), ops), "count", ops_n),
        m("pm.write_stall_us_per_op", div(sum(&|p| p.pm.write_ns), ops) / 1e3, "us", ops_n),
        m("pm.read_lines_per_search", per_op(Search, |p| p.read_lines), "count", n(Search)),
        m("pm.read_misses_per_search", per_op(Search, |p| p.read_misses), "count", n(Search)),
        m("pm.miss_ratio", div(sum(&|p| p.pm.read_misses), sum(&|p| p.pm.read_lines)), "ratio", ops_n),
        m("pm.read_stall_us_per_op", div(sum(&|p| p.pm.read_ns), ops) / 1e3, "us", ops_n),
        m("pm.read_lines_per_delete", per_op(Delete, |p| p.read_lines), "count", n(Delete)),
        m("pm.read_lines_per_scan_row", div(cpm[Scan as usize].read_lines as f64, scan.rows as f64), "count", scan.rows),
        m("pm.recovery_read_lines_per_key", div(o.restart.pm.read_lines as f64, o.restart.keys as f64), "count", o.restart.keys),
        m("pm.stall_share", stall_share, "ratio", ops_n),
        m("epalloc.allocs_per_insert", per_op(Insert, |p| p.raw_allocs), "count", n(Insert)),
        m("epalloc.ulog_per_update", per_class(&|p| p.obs.ulogs, Update), "count", n(Update)),
        m("epalloc.retires_per_delete", per_class(&|p| p.obs.retires, Delete), "count", n(Delete)),
        m("epalloc.chunks_recycled_per_1k_deletes", 1e3 * per_class(&|p| p.obs.recycled, Delete), "count", n(Delete)),
        m("epalloc.leaf_occupancy", peak.leaf_occupancy, "ratio", o.peak_keys as u64),
        m("hart.cpu_us_per_insert", cpu(Insert), "us", n(Insert)),
        m("hart.cpu_us_per_search", cpu(Search), "us", n(Search)),
        m("hart.cpu_us_per_update", cpu(Update), "us", n(Update)),
        m("hart.cpu_us_per_delete", cpu(Delete), "us", n(Delete)),
        m("hart.cpu_us_per_scan", cpu(Scan), "us", n(Scan)),
        m("hart.dir_fp_hit_ratio", div(fp, fp + sum(&|p| p.obs.fp_false)), "ratio", 0),
        m("hart.dir_stash_probes_per_op", div(sum(&|p| p.obs.stash_probes), ops), "count", ops_n),
        m("hart.dir_grows", peak.grows as f64, "count", 0),
        m("hart.scan_us_per_row", div(scan.dur_ns as f64, scan.rows as f64) / 1e3, "us", scan.rows),
        m("hart.shards", peak.shards as f64, "count", 0),
        m("hart.optimistic_retries_per_1k_reads", 1e3 * div(sum(&|p| p.obs.retries), reads), "count", reads as u64),
        m("hart.lock_fallbacks_per_1k_reads", 1e3 * div(sum(&|p| p.obs.fallbacks), reads), "count", reads as u64),
        m("hart.shard_write_waits_per_1k_writes", 1e3 * div(sum(&|p| p.obs.write_waits), writes), "count", writes as u64),
        m("hart.shard_write_wait_us", sum(&|p| p.obs.write_wait_ns) / 1e3, "us", writes as u64),
        m("ebr.pending_garbage_max", o.ebr_max as f64, "count", 0),
        m("art.find_key16_ns", kernels[0], "ns", 1 << 20),
        m("art.next_edge48_ns", kernels[1], "ns", 1 << 20),
        m("art.match_byte64_ns", kernels[2], "ns", 1 << 20),
        m("server.tree_op_p50_us", srv(tree50), "us", 0),
        m("server.self_us_p50", srv(self50), "us", 0),
        m("server.inflight_peak", srv(peak.inflight_peak as f64), "count", 0),
        m("server.busy_rejections", srv(peak.busy as f64), "count", 0),
        m("server.group_occupancy_mean", srv(peak.occupancy_mean), "count", 0),
        m("server.group_flushes_per_1k_writes", srv(1e3 * div(sum(&|p| p.obs.flushes), srv_writes)), "count", srv_writes as u64),
        m("server.persists_deferred_per_write", srv(div(sum(&|p| p.pm.deferred), srv_writes)), "count", srv_writes as u64),
        m("hartbench.gen_late_p50_us", late50, "us", 0),
        m("hartbench.gen_late_p99_us", late99, "us", 0),
        m("hartbench.trace_overhead_pct", 100.0 * div(untraced_kops - traced_kops, untraced_kops), "%", 0),
    ]
}

/// Per-layer metrics that are deterministic counts on a 1-thread workload:
/// `compare` requires them to be equal for equal inputs. (Directory
/// counters are not here: each directory hashes with a random seed.)
pub fn exact_count(name: &str) -> bool {
    name.starts_with("pm.") && name != "pm.stall_share"
        || name.starts_with("epalloc.")
        || matches!(
            name,
            "hart.shards"
                | "hart.optimistic_retries_per_1k_reads"
                | "hart.lock_fallbacks_per_1k_reads"
                | "hart.shard_write_waits_per_1k_writes"
        )
}
