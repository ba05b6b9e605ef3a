//! Figure harness: regenerates the data behind every table and figure of
//! the paper's evaluation (§IV).
//!
//! ```text
//! cargo run --release -p bench --bin harness -- all
//! cargo run --release -p bench --bin harness -- fig4 --records 1000000
//! cargo run --release -p bench --bin harness -- fig10d --records 500000
//! ```
//!
//! Output: aligned tables on stdout plus CSV files in a fresh temporary
//! directory whose path is printed, so smoke runs never overwrite the
//! results of record. Those are written only with `--out bench-results`
//! (EXPERIMENTS.md lists the commands). Defaults are scaled down from the
//! paper's record counts (see DESIGN.md §2); pass `--records` to raise
//! them.

use bench::*;
use hart_pm::LatencyConfig;
use hart_workloads::{MixSpec, Workload, YcsbWorkload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    cmd: String,
    records: usize,
    dict_records: usize,
    query_n: usize,
    out: PathBuf,
    threads: Vec<usize>,
    scale: Vec<usize>,
    seed: u64,
    /// `obsoverhead` fails when the observability layer costs more than
    /// this percentage on the read path (CI smoke gate).
    max_overhead_pct: f64,
    /// `server`: concurrent client connections.
    conns: usize,
    /// `server`: group-commit batch sizes to ablate against per-op persist.
    batches: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        cmd: String::new(),
        records: 200_000,
        dict_records: hart_workloads::dictionary::DICTIONARY_SIZE,
        query_n: 100_000,
        out: PathBuf::new(),
        threads: vec![1, 2, 4, 8, 16],
        scale: Vec::new(),
        seed: 42,
        max_overhead_pct: 5.0,
        conns: 64,
        batches: vec![64, 256],
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--records" => a.records = args.next().expect("--records N").parse().expect("number"),
            "--dict-records" => {
                a.dict_records = args
                    .next()
                    .expect("--dict-records N")
                    .parse()
                    .expect("number")
            }
            "--query-n" => a.query_n = args.next().expect("--query-n N").parse().expect("number"),
            "--out" => a.out = PathBuf::from(args.next().expect("--out DIR")),
            "--seed" => a.seed = args.next().expect("--seed N").parse().expect("number"),
            "--max-overhead-pct" => {
                a.max_overhead_pct = args
                    .next()
                    .expect("--max-overhead-pct P")
                    .parse()
                    .expect("number")
            }
            "--threads" => {
                a.threads = args
                    .next()
                    .expect("--threads 1,2,4")
                    .split(',')
                    .map(|s| s.parse().expect("number"))
                    .collect()
            }
            "--scale" => {
                a.scale = args
                    .next()
                    .expect("--scale n1,n2,...")
                    .split(',')
                    .map(|s| s.parse().expect("number"))
                    .collect()
            }
            "--conns" => a.conns = args.next().expect("--conns N").parse().expect("number"),
            "--batches" => {
                a.batches = args
                    .next()
                    .expect("--batches n1,n2,...")
                    .split(',')
                    .map(|s| s.parse().expect("number"))
                    .collect()
            }
            "--quick" => {
                a.records = 50_000;
                a.dict_records = 50_000;
                a.query_n = 20_000;
            }
            cmd if !cmd.starts_with("--") => a.cmd = cmd.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    if a.scale.is_empty() {
        a.scale = vec![a.records / 10, a.records / 2, a.records, a.records * 2];
    }
    if a.cmd.is_empty() {
        a.cmd = "all".into();
    }
    if a.out.as_os_str().is_empty() {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        a.out = std::env::temp_dir().join(format!("hart-harness-{}-{stamp}", std::process::id()));
    }
    a
}

/// One grid cell: (workload, latency) → per-tree basic results.
type Grid = BTreeMap<(String, String), Vec<(TreeKind, BasicResult)>>;

/// Run the Fig. 4–7 grid: 3 workloads × 3 latency configs × 4 trees.
fn run_grid(a: &Args) -> Grid {
    let mut grid = Grid::new();
    for w in Workload::ALL {
        let n = if w == Workload::Dictionary {
            a.dict_records
        } else {
            a.records
        };
        let keys = workload_keys(w, n, a.seed);
        eprintln!("[grid] {} keys for {}", keys.len(), w.label());
        for lat in LatencyConfig::paper_configs() {
            let mut cell = Vec::new();
            for kind in TreeKind::ALL {
                let t0 = Instant::now();
                let r = run_basic(kind, lat, &keys);
                eprintln!(
                    "[grid] {} / {} / {}: done in {:.1}s",
                    w.label(),
                    lat.label(),
                    kind.label(),
                    t0.elapsed().as_secs_f64()
                );
                cell.push((kind, r));
            }
            grid.insert((w.label().to_string(), lat.label()), cell);
        }
    }
    grid
}

fn emit_op_figure(a: &Args, grid: &Grid, fig: &str, op_name: &str, pick: fn(&BasicResult) -> f64) {
    let mut rep = Report::new(
        &format!("{fig}: {op_name} — avg time/record (µs)"),
        &["workload", "latency", "HART", "WOART", "ART+CoW", "FPTree"],
    );
    for w in Workload::ALL {
        for lat in LatencyConfig::paper_configs() {
            let cell = &grid[&(w.label().to_string(), lat.label())];
            let mut row = vec![w.label().to_string(), lat.label()];
            for (_, r) in cell {
                row.push(format!("{:.3}", pick(r)));
            }
            rep.row(row);
        }
    }
    rep.print();
    rep.write_csv(&a.out, &format!("{fig}.csv"))
        .expect("write csv");
}

fn fig8(a: &Args) {
    let mut rep = Report::new(
        "fig8: record-count scaling, Random @ 300/100 — total seconds",
        &["records", "op", "HART", "WOART", "ART+CoW", "FPTree"],
    );
    for &n in &a.scale {
        let keys = hart_workloads::random(n, a.seed);
        let results: Vec<BasicResult> = TreeKind::ALL
            .iter()
            .map(|kind| {
                let t0 = Instant::now();
                let r = run_basic(*kind, LatencyConfig::c300_100(), &keys);
                eprintln!(
                    "[fig8] n={n} {}: {:.1}s",
                    kind.label(),
                    t0.elapsed().as_secs_f64()
                );
                r
            })
            .collect();
        for (op, pick) in [
            (
                "insert",
                (|r: &BasicResult| r.insert_total.as_secs_f64()) as fn(&BasicResult) -> f64,
            ),
            ("search", |r| r.search_total.as_secs_f64()),
            ("update", |r| r.update_total.as_secs_f64()),
            ("delete", |r| r.delete_total.as_secs_f64()),
        ] {
            let mut row = vec![n.to_string(), op.to_string()];
            for r in &results {
                row.push(format!("{:.3}", pick(r)));
            }
            rep.row(row);
        }
    }
    rep.print();
    rep.write_csv(&a.out, "fig8.csv").expect("write csv");
}

fn fig9(a: &Args) {
    let mut rep = Report::new(
        "fig9: YCSB-style mixed workloads — avg time/op (µs)",
        &["mix", "latency", "HART", "WOART", "ART+CoW", "FPTree"],
    );
    for spec in MixSpec::ALL {
        let w = YcsbWorkload::generate(spec, a.records, a.records, a.seed);
        for lat in LatencyConfig::paper_configs() {
            let mut row = vec![spec.label.to_string(), lat.label()];
            for kind in TreeKind::ALL {
                let t0 = Instant::now();
                let us = run_mixed(kind, lat, &w);
                eprintln!(
                    "[fig9] {} / {} / {}: {:.1}s",
                    spec.label,
                    lat.label(),
                    kind.label(),
                    t0.elapsed().as_secs_f64()
                );
                row.push(format!("{us:.3}"));
            }
            rep.row(row);
        }
    }
    rep.print();
    rep.write_csv(&a.out, "fig9.csv").expect("write csv");
}

fn fig10a(a: &Args) {
    let keys = hart_workloads::sequential(a.records.max(a.query_n));
    let mut rep = Report::new(
        "fig10a: range query (Sequential) — avg time/record (µs)",
        &["latency", "HART", "WOART", "ART+CoW", "FPTree"],
    );
    for lat in LatencyConfig::paper_configs() {
        let mut row = vec![lat.label()];
        for kind in TreeKind::ALL {
            row.push(format!(
                "{:.3}",
                run_range_query(kind, lat, &keys, a.query_n)
            ));
        }
        rep.row(row);
    }
    rep.print();
    rep.write_csv(&a.out, "fig10a.csv").expect("write csv");
}

fn fig10b(a: &Args) {
    let keys = hart_workloads::sequential(a.records);
    let mut rep = Report::new(
        "fig10b: memory consumption (Sequential) — MiB",
        &["tree", "DRAM_MiB", "PM_MiB"],
    );
    for kind in TreeKind::ALL {
        let tree = kind.build(pool_config(LatencyConfig::dram(), keys.len()));
        for k in &keys {
            tree.insert(k, &hart_workloads::value_for(k))
                .expect("insert");
        }
        let m = tree.memory_stats();
        rep.row(vec![
            kind.label().to_string(),
            format!("{:.2}", m.dram_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", m.pm_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    rep.print();
    rep.write_csv(&a.out, "fig10b.csv").expect("write csv");
}

fn fig10c(a: &Args) {
    let mut rep = Report::new(
        "fig10c: build vs recovery (Random @ 300/100) — seconds",
        &[
            "records",
            "HART_build",
            "HART_recovery",
            "FPTree_build",
            "FPTree_recovery",
        ],
    );
    for &n in &a.scale {
        let keys = hart_workloads::random(n, a.seed);
        let (hb, hr) = hart_build_recover(LatencyConfig::c300_100(), &keys);
        let (fb, fr) = fptree_build_recover(LatencyConfig::c300_100(), &keys);
        rep.row(vec![
            n.to_string(),
            format!("{:.3}", hb.as_secs_f64()),
            format!("{:.3}", hr.as_secs_f64()),
            format!("{:.3}", fb.as_secs_f64()),
            format!("{:.3}", fr.as_secs_f64()),
        ]);
    }
    rep.print();
    rep.write_csv(&a.out, "fig10c.csv").expect("write csv");
}

fn fig10d(a: &Args) {
    let keys = hart_workloads::random(a.records, a.seed);
    let mut rep = Report::new(
        "fig10d: HART scalability (Random @ 300/100) — MIOPS",
        &["threads", "insert", "search", "update", "delete"],
    );
    for &t in &a.threads {
        let mut row = vec![t.to_string()];
        for op in ["insert", "search", "update", "delete"] {
            let miops = hart_scalability(LatencyConfig::c300_100(), &keys, t, op);
            eprintln!("[fig10d] threads={t} {op}: {miops:.2} MIOPS");
            row.push(format!("{miops:.3}"));
        }
        rep.row(row);
    }
    rep.print();
    rep.write_csv(&a.out, "fig10d.csv").expect("write csv");
}

/// Read-path ablation (beyond the paper, DESIGN.md §Concurrency):
/// read-only lookup throughput with the version-validated lock-free path
/// versus the original read-locked path, across thread counts.
fn readpath(a: &Args) {
    let keys = hart_workloads::random(a.records, a.seed);
    let lat = LatencyConfig::c300_100();
    let mut rep = Report::new(
        "readpath: search throughput, locked vs optimistic (Random @ 300/100) — MIOPS",
        &["threads", "locked", "optimistic", "speedup"],
    );
    for &t in &a.threads {
        let locked = hart_scalability_cfg(
            lat,
            &keys,
            t,
            "search",
            hart::HartConfig::with_locked_reads(),
        );
        let opt = hart_scalability_cfg(lat, &keys, t, "search", hart::HartConfig::default());
        eprintln!("[readpath] threads={t}: locked {locked:.2} vs optimistic {opt:.2} MIOPS");
        rep.row(vec![
            t.to_string(),
            format!("{locked:.3}"),
            format!("{opt:.3}"),
            format!("{:.2}", opt / locked.max(f64::MIN_POSITIVE)),
        ]);
    }
    rep.print();
    rep.write_csv(&a.out, "readpath.csv").expect("write csv");
}

/// Directory-resizing ablation (beyond the paper, DESIGN.md §Resizing):
/// search throughput with the bucket array pinned at the default 4096
/// (`resize_threshold = 0`) versus load-aware doubling, across key counts.
/// Runs with `k_h = 3` so the shard count tracks the key count — with the
/// paper's `k_h = 2` at most ~3.8 k shards exist and the default directory
/// never needs to grow (which is why resizing changes nothing for the
/// fig4–10 experiments).
fn rehash(a: &Args) {
    let lat = LatencyConfig::c300_100();
    let mut rep = Report::new(
        "rehash: search MIOPS, fixed vs resizing directory (k_h=3, Random @ 300/100, 1 thread, best of 3 passes)",
        &[
            "records",
            "fixed-4096",
            "resizing",
            "speedup",
            "buckets",
            "grows",
        ],
    );
    let kh3 = |threshold| hart::HartConfig {
        hash_key_len: 3,
        resize_threshold: threshold,
        ..hart::HartConfig::default()
    };
    // Preload once per config, then time three search passes over a
    // fixed query subsample (uniform stride over the uniform-random key
    // set, capped at 200 k queries so a pass stays short at 10 M keys)
    // and keep the fastest pass: back-to-back passes over an identical
    // tree differ only by scheduler/cache interference, so best-of
    // suppresses host noise without favoring any configuration.
    use hart_kv::PersistentIndex;
    let run = |cfg: hart::HartConfig, keys: &[hart_kv::Key], queries: &[&hart_kv::Key]| {
        let pool = std::sync::Arc::new(hart_pm::PmemPool::new(bench::pool_config(lat, keys.len())));
        let tree = hart::Hart::create(pool, cfg).expect("create");
        for k in keys {
            tree.insert(k, &hart_workloads::value_for(k))
                .expect("preload");
        }
        let mut best = f64::MIN_POSITIVE;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            for k in queries {
                std::hint::black_box(tree.search(k).expect("search"));
            }
            best = best.max(queries.len() as f64 / t0.elapsed().as_secs_f64() / 1e6);
        }
        (best, tree.hash_bucket_count(), tree.hash_resize_count())
    };
    for &n in &a.scale {
        let keys = hart_workloads::random(n, a.seed);
        let queries: Vec<&hart_kv::Key> = keys.iter().step_by((n / 200_000).max(1)).collect();
        let (fixed, _, _) = run(kh3(0), &keys, &queries);
        let (resizing, buckets, grows) = run(kh3(1), &keys, &queries);
        eprintln!(
            "[rehash] n={n}: fixed {fixed:.2} vs resizing {resizing:.2} MIOPS ({buckets} buckets, {grows} grows)"
        );
        rep.row(vec![
            n.to_string(),
            format!("{fixed:.3}"),
            format!("{resizing:.3}"),
            format!("{:.2}", resizing / fixed.max(f64::MIN_POSITIVE)),
            buckets.to_string(),
            grows.to_string(),
        ]);
    }
    rep.print();
    rep.write_csv(&a.out, "rehash.csv").expect("write csv");
}

/// Extras: the full FAST'17 radix trio (WORT, WOART, ART+CoW) against
/// HART and FPTree — beyond the paper's figure set (DESIGN.md §6).
fn extras(a: &Args) {
    let keys = hart_workloads::random(a.records, a.seed);
    let mut rep = Report::new(
        "extras: radix-family comparison incl. WORT — avg time/record (µs)",
        &[
            "latency", "op", "HART", "WORT", "WOART", "ART+CoW", "FPTree",
        ],
    );
    for lat in [
        hart_pm::LatencyConfig::c300_100(),
        hart_pm::LatencyConfig::c300_300(),
    ] {
        let results: Vec<BasicResult> = TreeKind::EXTENDED
            .iter()
            .map(|k| run_basic(*k, lat, &keys))
            .collect();
        for (op, pick) in [
            (
                "insert",
                (|r: &BasicResult| r.insert_us) as fn(&BasicResult) -> f64,
            ),
            ("search", |r| r.search_us),
            ("update", |r| r.update_us),
            ("delete", |r| r.delete_us),
        ] {
            let mut row = vec![lat.label(), op.to_string()];
            for r in &results {
                row.push(format!("{:.3}", pick(r)));
            }
            rep.row(row);
        }
    }
    rep.print();
    rep.write_csv(&a.out, "extras.csv").expect("write csv");
}

/// Event-count profile: *why* the figures look the way they do.
fn profile(a: &Args) {
    let keys = hart_workloads::random(a.records, a.seed);
    let lat = hart_pm::LatencyConfig::c300_300();
    let mut rep = Report::new(
        "profile: PM events per operation (Random @ 300/300, modeled)",
        &[
            "tree",
            "op",
            "persists/op",
            "flushed/op",
            "pm_lines/op",
            "misses/op",
            "allocs/op",
            "extra_µs/op",
        ],
    );
    for kind in TreeKind::EXTENDED {
        let pr = run_profile(kind, hart::HartConfig::default(), lat, &keys);
        for (op, p) in pr.phases {
            rep.row(vec![
                kind.label().to_string(),
                op.to_string(),
                format!("{:.2}", p.per_op(p.persists)),
                format!("{:.2}", p.per_op(p.lines_flushed)),
                format!("{:.2}", p.per_op(p.read_lines)),
                format!("{:.2}", p.per_op(p.read_misses)),
                format!("{:.3}", p.per_op(p.raw_allocs + p.raw_frees)),
                format!("{:.3}", p.per_op(p.extra_ns) / 1e3),
            ]);
        }
        eprintln!("[profile] {} done", kind.label());
    }
    rep.print();
    rep.write_csv(&a.out, "profile.csv").expect("write csv");
}

/// Tail latency: per-op percentiles — beyond the paper's averages.
fn tail(a: &Args) {
    let keys = hart_workloads::random(a.records, a.seed);
    let lat = hart_pm::LatencyConfig::c300_300();
    let mut rep = Report::new(
        "tail: per-op latency percentiles @ 300/300 (µs)",
        &["tree", "op", "mean", "p50", "p90", "p99", "p99.9", "max"],
    );
    for kind in TreeKind::ALL {
        let h = bench::run_basic_histograms(kind, lat, &keys);
        for (op, hist) in [
            ("insert", &h.insert),
            ("search", &h.search),
            ("update", &h.update),
            ("delete", &h.delete),
        ] {
            rep.row(vec![
                kind.label().to_string(),
                op.to_string(),
                format!("{:.2}", hist.mean_ns() / 1e3),
                format!("{:.2}", hist.quantile_ns(0.50) as f64 / 1e3),
                format!("{:.2}", hist.quantile_ns(0.90) as f64 / 1e3),
                format!("{:.2}", hist.quantile_ns(0.99) as f64 / 1e3),
                format!("{:.2}", hist.quantile_ns(0.999) as f64 / 1e3),
                format!("{:.2}", hist.max_ns() as f64 / 1e3),
            ]);
        }
        write_phase_snapshots(&a.out, "tail", kind, &h.snapshots);
        eprintln!("[tail] {} done", kind.label());
    }
    rep.print();
    rep.write_csv(&a.out, "tail.csv").expect("write csv");
}

/// Drop each per-phase [`bench::ObsSnapshot`] next to the CSVs as
/// `obs-<cmd>-<tree>-<phase>.json`.
fn write_phase_snapshots(
    out: &PathBuf,
    cmd: &str,
    kind: TreeKind,
    snaps: &[(&'static str, bench::ObsSnapshot)],
) {
    std::fs::create_dir_all(out).expect("create out dir");
    let tree: String = kind
        .label()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    for (phase, snap) in snaps {
        let path = out.join(format!("obs-{cmd}-{tree}-{phase}.json"));
        std::fs::write(&path, snap.to_json_pretty()).expect("write snapshot");
    }
}

/// Observability-overhead smoke gate (DESIGN.md §Observability): single
/// thread search throughput with the recorder enabled vs the
/// `HartConfig::without_observability()` kill-switch. Exits nonzero when
/// the enabled run is more than `--max-overhead-pct` slower — the CI
/// `obs-overhead` job runs this with the default 5 % budget (the design
/// target is 3 %; the gate leaves room for runner noise).
fn obsoverhead(a: &Args) {
    let keys = hart_workloads::random(a.records, a.seed);
    let lat = hart_pm::LatencyConfig::c300_100();
    let (on, off) = bench::obs_overhead_probe(lat, &keys, 5);
    let pct = (on / off - 1.0) * 100.0;
    let mut rep = Report::new(
        "obsoverhead: read-path cost of the observability layer (median of 5 tree pairs)",
        &["config", "secs", "Mops", "overhead_pct"],
    );
    let mops = |secs: f64| keys.len() as f64 / secs / 1e6;
    rep.row(vec![
        "enabled".into(),
        format!("{on:.4}"),
        format!("{:.3}", mops(on)),
        format!("{pct:.2}"),
    ]);
    rep.row(vec![
        "disabled".into(),
        format!("{off:.4}"),
        format!("{:.3}", mops(off)),
        "0.00".into(),
    ]);
    rep.print();
    rep.write_csv(&a.out, "obs-overhead.csv")
        .expect("write csv");
    println!(
        "observability overhead: {pct:.2}% (budget {:.2}%)",
        a.max_overhead_pct
    );
    if pct > a.max_overhead_pct {
        eprintln!(
            "FAIL: observability overhead {pct:.2}% exceeds budget {:.2}%",
            a.max_overhead_pct
        );
        std::process::exit(1);
    }
}

/// Ordered-scan experiment (beyond the paper's figures, DESIGN.md §Scans):
/// the YCSB-E scan-heavy mix (95 % scans, Zipfian start keys, uniform
/// lengths 1..=100) across all five trees, plus the SIMD-vs-scalar
/// node-search ablation on a NODE16-heavy HART. The `speedup` column is
/// only meaningful on the `simd-vector` row (scalar-secs / vector-secs).
fn scan(a: &Args) {
    let mut rep = Report::new(
        "scan: YCSB-E scan-heavy mix + SIMD node-search ablation",
        &[
            "experiment",
            "latency",
            "tree",
            "avg_us",
            "scans",
            "rows_mean",
            "truncated",
            "speedup",
        ],
    );
    let w = YcsbWorkload::generate(MixSpec::ycsb_e(), a.records, a.records, a.seed);
    for lat in [LatencyConfig::dram(), LatencyConfig::c300_100()] {
        for kind in TreeKind::EXTENDED {
            let t0 = Instant::now();
            let r = run_scan_mix(kind, lat, &w);
            eprintln!(
                "[scan] ycsb-e / {} / {}: {:.3} µs/op ({} scans, {:.1} rows/scan) in {:.1}s",
                lat.label(),
                kind.label(),
                r.avg_us,
                r.scans,
                r.rows_mean,
                t0.elapsed().as_secs_f64()
            );
            rep.row(vec![
                "ycsb-e".into(),
                lat.label(),
                kind.label().to_string(),
                format!("{:.3}", r.avg_us),
                r.scans.to_string(),
                format!("{:.2}", r.rows_mean),
                r.truncated.to_string(),
                "".into(),
            ]);
        }
    }
    // SIMD ablation: same scan schedule over a NODE16-heavy tree, vector
    // vs forced-scalar node search. DRAM latency so the CPU-side search
    // cost under test is not drowned by injected PM stalls.
    let n = a.records.min(200_000);
    let scans = 2000.min(n);
    let (vec_s, scal_s) = simd_scan_probe(LatencyConfig::dram(), n, scans);
    let per_scan_us = |secs: f64| secs * 1e6 / scans as f64;
    let speedup = scal_s / vec_s.max(f64::MIN_POSITIVE);
    eprintln!(
        "[scan] simd: vector {:.3} µs/scan vs scalar {:.3} µs/scan ({speedup:.2}x, vector unit: {})",
        per_scan_us(vec_s),
        per_scan_us(scal_s),
        bench::HAVE_VECTOR
    );
    rep.row(vec![
        "simd-vector".into(),
        "DRAM".into(),
        "HART".into(),
        format!("{:.3}", per_scan_us(vec_s)),
        scans.to_string(),
        "".into(),
        "".into(),
        format!("{speedup:.2}"),
    ]);
    rep.row(vec![
        "simd-scalar".into(),
        "DRAM".into(),
        "HART".into(),
        format!("{:.3}", per_scan_us(scal_s)),
        scans.to_string(),
        "".into(),
        "".into(),
        "1.00".into(),
    ]);
    // Kernel-granularity ablation: whole-scan timing buries the ~ns node
    // search under ~µs of record loads, so also time the two vectorized
    // kernels directly through the same runtime dispatch (avg_us is per
    // kernel call; `scans` is the call count).
    let iters = 2_000_000usize;
    let k = simd_kernel_probe(iters);
    eprintln!(
        "[scan] simd kernels: find_key16 {:.2} ns vs {:.2} ns ({:.2}x), \
         next_edge48 {:.2} ns vs {:.2} ns ({:.2}x)",
        k.n16_vec_ns,
        k.n16_scal_ns,
        k.n16_scal_ns / k.n16_vec_ns.max(f64::MIN_POSITIVE),
        k.n48_vec_ns,
        k.n48_scal_ns,
        k.n48_scal_ns / k.n48_vec_ns.max(f64::MIN_POSITIVE),
    );
    for (label, vec_ns, scal_ns) in [
        ("simd-kernel-n16", k.n16_vec_ns, k.n16_scal_ns),
        ("simd-kernel-n48", k.n48_vec_ns, k.n48_scal_ns),
    ] {
        rep.row(vec![
            label.into(),
            "DRAM".into(),
            "HART".into(),
            format!("{:.5}", vec_ns / 1e3),
            iters.to_string(),
            "".into(),
            "".into(),
            format!("{:.2}", scal_ns / vec_ns.max(f64::MIN_POSITIVE)),
        ]);
    }
    rep.print();
    rep.write_csv(&a.out, "scan.csv").expect("write csv");
}

/// Server front-end ablation (DESIGN.md §Server): YCSB-style mixes over
/// real sockets against `hart-server`, per-op persist vs group commit at
/// each `--batches` size, all at `--conns` concurrent pipelining
/// connections under injected PM latency (600/300 — the harshest paper
/// config, where fence amortization matters most). The `speedup` column
/// is each row's throughput relative to the per-op row of the same mix.
fn server_bench(a: &Args) {
    let mut rep = Report::new(
        &format!(
            "server: group-commit ablation over sockets — {} conns, 600/300 latency",
            a.conns
        ),
        &[
            "mode",
            "mix",
            "conns",
            "workers",
            "ops",
            "secs",
            "kops_s",
            "speedup",
            "flushes",
            "persists_deferred",
            "occupancy_mean",
            "busy",
        ],
    );
    let ops_per_conn = (a.query_n / a.conns).max(100);
    for (mix_label, read_pct) in [("write", 0u32), ("ycsb-a", 50u32)] {
        let mut baseline_kops = 0.0;
        let modes: Vec<(String, Option<usize>)> = std::iter::once(("per-op".to_string(), None))
            .chain(a.batches.iter().map(|&b| (format!("group-{b}"), Some(b))))
            .collect();
        for (label, group_max_ops) in modes {
            let spec = ServerMixSpec {
                group_max_ops,
                window_us: 100,
                conns: a.conns,
                workers: 4,
                ops_per_conn,
                read_pct,
                latency: LatencyConfig::c600_300(),
                pipeline: 32,
            };
            let t0 = Instant::now();
            let r = run_server_mix(spec);
            eprintln!(
                "[server] {mix_label}/{label}: {:.1} kops/s in {:.1}s",
                r.kops,
                t0.elapsed().as_secs_f64()
            );
            if group_max_ops.is_none() {
                baseline_kops = r.kops;
            }
            let speedup = if baseline_kops > 0.0 {
                r.kops / baseline_kops
            } else {
                1.0
            };
            rep.row(vec![
                label,
                mix_label.to_string(),
                a.conns.to_string(),
                spec.workers.to_string(),
                r.ops.to_string(),
                format!("{:.3}", r.secs),
                format!("{:.1}", r.kops),
                format!("{speedup:.2}"),
                r.flushes.to_string(),
                r.persists_deferred.to_string(),
                format!("{:.1}", r.occupancy_mean),
                r.busy.to_string(),
            ]);
        }
    }
    rep.print();
    rep.write_csv(&a.out, "server.csv").expect("write csv");
}

fn summary(a: &Args, grid: &Grid) {
    // Best-case speedups of HART vs each competitor per op (§I's headline).
    let mut rep = Report::new(
        "summary: best-case HART speedup over each competitor (×)",
        &["competitor", "insert", "search", "update", "delete"],
    );
    for (ci, comp) in [(1usize, "WOART"), (2, "ART+CoW"), (3, "FPTree")] {
        let mut best = [0.0f64; 4];
        for cell in grid.values() {
            let hart = &cell[0].1;
            let other = &cell[ci].1;
            for (i, (h, o)) in [
                (hart.insert_us, other.insert_us),
                (hart.search_us, other.search_us),
                (hart.update_us, other.update_us),
                (hart.delete_us, other.delete_us),
            ]
            .iter()
            .enumerate()
            {
                if *h > 0.0 {
                    best[i] = best[i].max(o / h);
                }
            }
        }
        rep.row(vec![
            comp.to_string(),
            format!("{:.1}", best[0]),
            format!("{:.1}", best[1]),
            format!("{:.1}", best[2]),
            format!("{:.1}", best[3]),
        ]);
    }
    rep.print();
    rep.write_csv(&a.out, "summary.csv").expect("write csv");
}

fn main() {
    let a = parse_args();
    println!(
        "HART reproduction harness — cmd={} records={} dict={} out={}",
        a.cmd,
        a.records,
        a.dict_records,
        a.out.display()
    );
    let t0 = Instant::now();
    match a.cmd.as_str() {
        "fig4" | "fig5" | "fig6" | "fig7" | "figs4-7" => {
            let grid = run_grid(&a);
            emit_op_figure(&a, &grid, "fig4", "insertion", |r| r.insert_us);
            emit_op_figure(&a, &grid, "fig5", "search", |r| r.search_us);
            emit_op_figure(&a, &grid, "fig6", "update", |r| r.update_us);
            emit_op_figure(&a, &grid, "fig7", "deletion", |r| r.delete_us);
            summary(&a, &grid);
        }
        "fig8" => fig8(&a),
        "readpath" => readpath(&a),
        "rehash" => rehash(&a),
        "extras" => extras(&a),
        "scan" => scan(&a),
        "profile" => profile(&a),
        "tail" => tail(&a),
        "obsoverhead" => obsoverhead(&a),
        "fig9" => fig9(&a),
        "fig10a" => fig10a(&a),
        "fig10b" => fig10b(&a),
        "fig10c" => fig10c(&a),
        "fig10d" => fig10d(&a),
        "server" => server_bench(&a),
        "all" => {
            let grid = run_grid(&a);
            emit_op_figure(&a, &grid, "fig4", "insertion", |r| r.insert_us);
            emit_op_figure(&a, &grid, "fig5", "search", |r| r.search_us);
            emit_op_figure(&a, &grid, "fig6", "update", |r| r.update_us);
            emit_op_figure(&a, &grid, "fig7", "deletion", |r| r.delete_us);
            fig8(&a);
            fig9(&a);
            fig10a(&a);
            fig10b(&a);
            fig10c(&a);
            fig10d(&a);
            readpath(&a);
            rehash(&a);
            scan(&a);
            summary(&a, &grid);
        }
        other => {
            eprintln!("unknown command {other}");
            eprintln!(
                "commands: fig4 fig5 fig6 fig7 fig8 fig9 fig10a fig10b fig10c fig10d readpath rehash extras scan tail obsoverhead profile server all"
            );
            std::process::exit(2);
        }
    }
    println!("\ntotal harness time: {:.1}s", t0.elapsed().as_secs_f64());
    println!("CSVs in {}", a.out.display());
}
