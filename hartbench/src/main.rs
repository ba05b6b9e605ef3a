//! `hartbench` — the end-to-end benchmark of the HART workspace.
//!
//! ```text
//! hartbench [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--scale F] [--out DIR]
//! hartbench compare BASELINE CHANGE
//! ```
//!
//! `run` generates each workload's inputs from `--seed`, runs it on a fresh
//! pool with every call into the crates timed and every result checked,
//! prints each metric with its unit and sample count, writes a result file
//! into `--out` (default `.hartbench`), and ends its standard output with
//! one JSON line: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`, which also
//! writes the span file). It exits non-zero when any check failed.
//! See README.md for the workloads and metrics.

mod compare;
mod exec;
mod gen;
mod json;
mod metrics;
mod server;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::{Json, JsonExt};
use metrics::Metric;
use server::ServerYcsbA;
use spec::{MetricSpec, Spec};
use std::io::Write;
use std::path::PathBuf;
use workloads::{Mix2t, Outcome, PaperPhases, Size, YcsbE};

const USAGE: &str = "usage: hartbench [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out DIR]\n       hartbench compare BASELINE CHANGE";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run_cli(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            0
        }
        _ => run_cli(&args),
    };
    std::process::exit(code);
}

#[derive(Clone, Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: PathBuf,
}

fn parse(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut a = Args {
        workloads: spec.workloads.clone(),
        seed: 42,
        seconds: 12.0,
        trace: false,
        scale: 1.0,
        out: PathBuf::from(".hartbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = val()?;
                if w != "all" {
                    if !spec.workloads.contains(w) {
                        return Err(format!(
                            "unknown workload {w:?} (have {})",
                            spec.workloads.join(", ")
                        ));
                    }
                    a.workloads = vec![w.clone()];
                }
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--scale" => a.scale = val()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--out" => a.out = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0 && a.scale > 0.0 && a.scale <= 1.0) {
        return Err("--seconds must be in (0, 600] and --scale in (0, 1]".into());
    }
    Ok(a)
}

/// A workload's generated inputs.
enum Input {
    Paper(PaperPhases),
    YcsbE(YcsbE),
    Mix(Mix2t),
    Server(ServerYcsbA),
}

impl Input {
    fn generate(name: &str, seed: u64, size: Size) -> Input {
        match name {
            "paper-phases" => Input::Paper(PaperPhases::generate(seed, size)),
            "ycsb-e" => Input::YcsbE(YcsbE::generate(seed, size)),
            "mix-2t" => Input::Mix(Mix2t::generate(seed, size)),
            "server-ycsb-a" => Input::Server(ServerYcsbA::generate(seed, size)),
            other => {
                unreachable!("workload {other} is listed in BENCHMARK.json but not implemented")
            }
        }
    }

    #[cfg(test)]
    fn digest(&self) -> String {
        match self {
            Input::Paper(w) => w.digest(),
            Input::YcsbE(w) => w.digest(),
            Input::Mix(w) => w.digest(),
            Input::Server(w) => w.digest(),
        }
    }

    fn run(&self, seed: u64, trace: bool) -> Outcome {
        match self {
            Input::Paper(w) => w.run(seed, trace),
            Input::YcsbE(w) => w.run(seed, trace),
            Input::Mix(w) => w.run(seed, trace),
            Input::Server(w) => w.run(seed, trace),
        }
    }
}

/// One workload's report: the result file and the last-line metrics.
struct Report {
    result: Json,
    line: Json,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// The listed metrics, in `BENCHMARK.json` order, as `{name: {value,
/// unit}}`; an unlisted or mis-united metric is a bug in this program.
fn listed(computed: &[Metric], listed: &[MetricSpec], samples: bool) -> Result<Json, String> {
    let mut j = Json::obj();
    for s in listed {
        let m = computed
            .iter()
            .find(|m| m.name == s.name)
            .ok_or_else(|| format!("metric {} is listed but not computed", s.name))?;
        if m.unit != s.unit {
            return Err(format!(
                "metric {} has unit {} but is listed as {}",
                s.name, m.unit, s.unit
            ));
        }
        let mut v = Json::obj();
        v.set("value", m.value).set("unit", m.unit);
        if samples {
            v.set("samples", m.samples);
        }
        j.set(&s.name, v);
    }
    Ok(j)
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("  {title}");
    for m in ms {
        println!(
            "    {:<40} {:>14.4} {:<7} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn run_workload(name: &str, a: &Args, spec: &Spec, meta: &Json) -> Result<Report, String> {
    let size = Size {
        scale: a.scale,
        seconds: a.seconds,
    };
    let input = Input::generate(name, a.seed, size);
    let plain = input.run(a.seed, false);
    let e2e = metrics::end_to_end(&plain);
    let traced = a.trace.then(|| input.run(a.seed, true));
    drop(input);
    let kops = e2e
        .iter()
        .find(|m| m.name == "throughput_kops")
        .map_or(0.0, |m| m.value);
    let layers = traced
        .as_ref()
        .map(|t| metrics::per_layer(t, kops, metrics::art_kernels(a.seed)));

    let mut checker = plain.checker.clone();
    let mut digest_ok = true;
    if let Some(t) = &traced {
        checker.merge(t.checker.clone());
        digest_ok = t.digest == plain.digest;
    }
    let invalid = plain.server.as_ref().and_then(|s| s.invalid.clone());
    let correct = checker.failed == 0 && digest_ok;
    let failed_ratio = checker.failed as f64 / checker.attempted.max(1) as f64;

    println!(
        "== {name} (seed {}, input digest {}) ==",
        a.seed, plain.digest
    );
    print_metrics("end-to-end (untraced)", &e2e);
    let info = metrics::info(&plain);
    for (class, s) in info
        .entries()
        .iter()
        .filter(|(_, v)| v.get("samples").is_some())
    {
        let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "    {class:<8} n={:<9} p50 {:>9.2} us  p99 {:>9.2} us  p99.9 {:>9.2} us  max {:>10.2} us",
            f("samples"),
            f("p50_us"),
            f("p99_us"),
            f("p999_us"),
            f("max_us")
        );
    }
    if let Some(l) = &layers {
        print_metrics("per-layer (traced)", l);
    }
    println!(
        "  checks: {} attempted, {} failed (failed_ratio {failed_ratio})",
        checker.attempted, checker.failed
    );
    for note in &checker.notes {
        println!("    FAILED: {note}");
    }
    if let Some(why) = &invalid {
        println!("  INVALID RUN: {why}");
    }

    let mut result = meta.clone();
    result
        .set("workload", name)
        .set("seed", a.seed)
        .set("scale", a.scale)
        .set("seconds", a.seconds)
        .set("trace", a.trace)
        .set("input_digest", plain.digest.as_str())
        .set("correct", correct)
        .set("attempted", checker.attempted)
        .set("failed", checker.failed)
        .set("failed_ratio", failed_ratio)
        .set("failures", checker.notes.clone())
        .set("valid", invalid.is_none())
        .set("invalid_reason", invalid)
        .set("end_to_end", listed(&e2e, &spec.end_to_end, true)?)
        .set("info", info);
    if let Some(l) = &layers {
        result.set("per_layer", listed(l, &spec.per_layer, true)?);
    }
    if let Some(t) = &traced {
        let path = a.out.join(format!("{name}-seed{}.spans.jsonl", a.seed));
        let ledger = t.ledger.clone().unwrap_or_default();
        std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                trace::write_spans(&mut f, name, t.span, &t.phases, &ledger)?;
                f.flush()
            })
            .map_err(|e| format!("{}: {e}", path.display()))?;
        result.set("spans", path.to_string_lossy().as_ref());
    }
    let line = match &layers {
        Some(l) => listed(l, &spec.per_layer, false)?,
        None => listed(&e2e, &spec.end_to_end, false)?,
    };
    Ok(Report {
        result,
        line,
        correct,
        attempted: checker.attempted,
        failed: checker.failed,
    })
}

fn run_cli(args: &[String]) -> i32 {
    let spec = spec::spec();
    let a = match parse(args, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hartbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("hartbench: {}: {e}", a.out.display());
        return 2;
    }
    let meta = provenance();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut line_metrics = Json::obj();
    for w in &a.workloads {
        let r = match run_workload(w, &a, &spec, &meta) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hartbench: {w}: {e}");
                return 3;
            }
        };
        let suffix = if a.trace { "-trace" } else { "" };
        let path = a.out.join(format!("{w}-seed{}{suffix}.json", a.seed));
        if let Err(e) = std::fs::write(&path, format!("{}\n", r.result)) {
            eprintln!("hartbench: {}: {e}", path.display());
            return 2;
        }
        println!("  result: {}", path.display());
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        if a.workloads.len() == 1 {
            line_metrics = r.line;
        } else {
            for (k, v) in r.line.entries() {
                line_metrics.set(&format!("{w}.{k}"), v.clone());
            }
        }
    }
    let mut line = Json::obj();
    line.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", line_metrics);
    println!("{line}");
    if correct {
        0
    } else {
        1
    }
}

/// Git sha, command line, `nproc` and date, recorded in every result (next
/// to the seed).
fn provenance() -> Json {
    let mut j = Json::obj();
    j.set("hartbench", 1u64)
        .set("git_sha", git_sha().unwrap_or_else(|| "unknown".into()))
        .set("command", std::env::args().collect::<Vec<_>>())
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .set("date", utc_now());
    j
}

/// HEAD's commit, read from the nearest `.git` directory (no git process).
fn git_sha() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(r)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|s| s.trim().to_string()))
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ` (civil-from-days).
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen::Op;

    const SMOKE: Size = Size {
        scale: 0.01,
        seconds: 2.0,
    };

    #[test]
    fn inputs_are_determined_by_the_seed() {
        for w in spec::spec().workloads {
            let digest = |seed| Input::generate(&w, seed, SMOKE).digest();
            assert_eq!(digest(7), digest(7), "{w}: same seed, same inputs");
            assert_ne!(digest(7), digest(8), "{w}: another seed, other inputs");
        }
    }

    /// Every workload at 1 % scale passes every check and emits every
    /// metric `BENCHMARK.json` lists, with the listed unit.
    #[test]
    fn smoke_run_of_every_workload() {
        let spec = spec::spec();
        assert_eq!(
            spec.workloads,
            ["paper-phases", "ycsb-e", "mix-2t", "server-ycsb-a"]
        );
        for w in &spec.workloads {
            let input = Input::generate(w, 3, SMOKE);
            let plain = input.run(3, false);
            let traced = input.run(3, true);
            for o in [&plain, &traced] {
                assert_eq!(o.checker.failed, 0, "{w}: {:?}", o.checker.notes);
                assert!(o.checker.attempted > 0);
            }
            let e2e = metrics::end_to_end(&plain);
            listed(&e2e, &spec.end_to_end, false).unwrap_or_else(|e| panic!("{w}: {e}"));
            for m in &e2e {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{w}: {} = {}",
                    m.name,
                    m.value
                );
            }
            let layers = metrics::per_layer(&traced, 1.0, [1.0; 3]);
            listed(&layers, &spec.per_layer, false).unwrap_or_else(|e| panic!("{w}: {e}"));
            let mut spans = Vec::new();
            let ledger = traced.ledger.clone().unwrap_or_default();
            trace::write_spans(&mut spans, w, traced.span, &traced.phases, &ledger).unwrap();
            let lines: Vec<Json> = String::from_utf8(spans)
                .unwrap()
                .lines()
                .map(|l| Json::parse(l).unwrap())
                .collect();
            assert!(lines.len() > traced.phases.len(), "{w}: op spans written");
            for l in &lines {
                for k in ["id", "parent", "name", "start_ns", "end_ns", "attrs"] {
                    assert!(l.get(k).is_some(), "{w}: span without {k}");
                }
            }
        }
    }

    /// Traced 1-thread runs repeat their PM and allocator counts exactly,
    /// and never retry, fall back or wait on a lock.
    #[test]
    fn one_thread_counts_repeat_exactly() {
        for w in ["paper-phases", "ycsb-e"] {
            let input = Input::generate(w, 5, SMOKE);
            let exact = |o: &Outcome| -> Vec<(&str, f64)> {
                metrics::per_layer(o, 1.0, [1.0; 3])
                    .into_iter()
                    .filter(|m| metrics::exact_count(m.name))
                    .map(|m| (m.name, m.value))
                    .collect()
            };
            let (a, b) = (input.run(5, true), input.run(5, true));
            assert_eq!(exact(&a), exact(&b), "{w}");
            for (name, v) in exact(&a) {
                if name.contains("retries") || name.contains("fallbacks") || name.contains("waits")
                {
                    assert_eq!(v, 0.0, "{w}: {name}");
                }
            }
        }
    }

    /// One wrong expected value makes the run fail.
    #[test]
    fn a_wrong_expected_value_fails_the_run() {
        let mut input = PaperPhases::generate(11, SMOKE);
        let (_, searches) = input
            .phases
            .iter_mut()
            .find(|(n, _)| *n == "search")
            .unwrap();
        let Op::Search { version, .. } = &mut searches[17] else {
            panic!("search phase holds searches");
        };
        *version += 1;
        let out = input.run(11, false);
        assert_eq!(out.checker.failed, 1, "{:?}", out.checker.notes);
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let spec = spec::spec();
        let args: Vec<String> = [
            "--workload",
            "ycsb-e",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse(&args, &spec).unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec!["ycsb-e".to_string()], 9, 12.0, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()], &spec).is_err());
        assert!(parse(&["--trace".into(), "2".into()], &spec).is_err());
    }

    #[test]
    fn utc_dates_are_well_formed() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z'));
    }
}
