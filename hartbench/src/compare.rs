//! `hartbench compare A B`: judge run set B against baseline set A, per
//! workload and end-to-end metric, with the bounds in `BENCHMARK.json`.

use crate::json::{Json, JsonExt};
use crate::metrics::exact_count;
use crate::spec::{spec, MetricSpec};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread exceeds the bound, so a change within it
    /// cannot be told from noise.
    Unresolved,
}

/// One result file.
#[derive(Clone, Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub digest: String,
    pub valid: bool,
    /// Every check passed.
    pub correct: bool,
    pub failed_ratio: f64,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
}

/// `{name: {value}}` as numbers; a `null` value (a +∞ latency, see
/// `json::ToJson`) reads back as +∞.
fn values(j: Option<&Json>) -> BTreeMap<String, f64> {
    j.map(Json::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| {
            let x = match v.get("value")? {
                Json::Null => f64::INFINITY,
                x => x.as_f64()?,
            };
            Some((k.clone(), x))
        })
        .collect()
}

impl Run {
    pub fn from_json(j: &Json) -> Option<Run> {
        Some(Run {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_f64()? as u64,
            digest: j.get("input_digest")?.as_str()?.to_string(),
            valid: j.get("valid").and_then(Json::as_bool).unwrap_or(false),
            correct: j.get("correct").and_then(Json::as_bool) == Some(true)
                && j.get("failed").and_then(Json::as_f64) == Some(0.0),
            failed_ratio: j
                .get("failed_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY),
            end_to_end: values(j.get("end_to_end")),
            per_layer: values(j.get("per_layer")),
        })
    }
}

/// Load a result file, or every result file directly inside a directory.
fn load(path: &Path) -> Result<Vec<Run>, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        runs.push(
            Run::from_json(&j).ok_or_else(|| format!("{}: not a hartbench result", f.display()))?,
        );
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(runs)
}

/// Judge B against baseline A for one metric: the median change as a
/// share of A's median, the larger of the two sets' quartile spreads, and
/// the verdict. A non-finite value stands for a failed op or a missing
/// metric: in B it makes the verdict `worse` outright; in A it is left
/// out, since a failed baseline run says nothing about the change.
pub fn judge(a: &[f64], b: &[f64], m: &MetricSpec) -> (f64, f64, Verdict) {
    if b.iter().any(|x| !x.is_finite()) {
        return (f64::INFINITY, f64::INFINITY, Verdict::Worse);
    }
    let a: Vec<f64> = a.iter().copied().filter(|x| x.is_finite()).collect();
    if a.is_empty() {
        return (0.0, f64::INFINITY, Verdict::Unresolved);
    }
    let bound = m.bound.unwrap_or(0.0);
    let (ma, mb) = (median(&a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if m.lower_is_better { change } else { -change };
    let noise = spread(&a).max(spread(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let all_better = if m.lower_is_better {
        max(b) < min(&a)
    } else {
        min(b) > max(&a)
    };
    let verdict = if noise > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (change, noise, verdict)
}

/// Exit code: 0 all ok/unresolved, 1 a `worse` verdict (including any
/// failed check in the change set) or unequal exact counts, 2 unusable
/// input (including differing input digests).
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!(
            "usage: hartbench compare BASELINE CHANGE  (result files or directories of them)"
        );
        return 2;
    };
    match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(x), Ok(y)) => compare(&x, &y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hartbench compare: {e}");
            2
        }
    }
}

/// Print the comparison table; returns the exit code of [`main`].
pub fn compare(runs_a: &[Run], runs_b: &[Run]) -> i32 {
    // The same (workload, seed) must mean the same inputs on both sides.
    let digests: BTreeMap<(&str, u64), &str> = runs_a
        .iter()
        .map(|r| ((r.workload.as_str(), r.seed), r.digest.as_str()))
        .collect();
    for r in runs_b {
        if let Some(d) = digests.get(&(r.workload.as_str(), r.seed)) {
            if *d != r.digest {
                eprintln!(
                    "hartbench compare: {} seed {}: input digests differ ({d} vs {}); refusing to compare",
                    r.workload, r.seed, r.digest
                );
                return 2;
            }
        }
    }
    let spec = spec();
    let of = |runs: &[Run], w: &str| -> Vec<Run> {
        runs.iter().filter(|r| r.workload == w).cloned().collect()
    };
    let valid = |runs: &[Run]| -> Vec<Run> { runs.iter().filter(|r| r.valid).cloned().collect() };
    let mut code = 0;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "baseline", "change", "delta%", "bound", "spread"
    );
    for w in &spec.workloads {
        let (all_a, all_b) = (of(runs_a, w), of(runs_b, w));
        if all_b.is_empty() {
            continue;
        }
        // Correctness, over every run (valid or not): any failed check in
        // the change set is worse, whatever the baseline did.
        let worst = |rs: &[Run]| rs.iter().map(|r| r.failed_ratio).fold(0.0, f64::max);
        let failing: Vec<u64> = all_b
            .iter()
            .filter(|r| !r.correct || r.failed_ratio > 0.0)
            .map(|r| r.seed)
            .collect();
        let verdict = if failing.is_empty() { "ok" } else { "worse" };
        if !failing.is_empty() {
            code = 1;
        }
        println!(
            "{w:<14} {:<20} {:>12} {:>12} {:>8} {:>6} {:>7}  {verdict}",
            "failed_ratio",
            if all_a.is_empty() {
                "-".to_string()
            } else {
                format!("{:.4}", worst(&all_a))
            },
            format!("{:.4}", worst(&all_b)),
            "",
            "0",
            ""
        );
        for seed in &failing {
            println!("{w:<14}   seed {seed}: a check failed in the change set");
        }
        let (ra, rb) = (valid(&all_a), valid(&all_b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for m in &spec.end_to_end {
            let va: Vec<f64> = ra
                .iter()
                .filter_map(|r| r.end_to_end.get(&m.name).copied())
                .collect();
            // A change run without the metric counts as a failure (+∞).
            let vb: Vec<f64> = rb
                .iter()
                .map(|r| r.end_to_end.get(&m.name).copied().unwrap_or(f64::INFINITY))
                .collect();
            if va.is_empty() {
                continue;
            }
            let (change, noise, verdict) = judge(&va, &vb, m);
            if verdict == Verdict::Worse {
                code = 1;
            }
            println!(
                "{w:<14} {:<20} {:>12.4} {:>12.4} {:>+8.2} {:>6.2} {:>7.3}  {}",
                m.name,
                median(&va),
                median(&vb),
                100.0 * change,
                m.bound.unwrap_or(0.0),
                noise,
                format!("{verdict:?}").to_lowercase()
            );
        }
        // 1-thread workloads repeat their PM/allocator counts exactly.
        if w == "paper-phases" || w == "ycsb-e" {
            for x in ra.iter().filter(|r| !r.per_layer.is_empty()) {
                for y in rb
                    .iter()
                    .filter(|r| r.seed == x.seed && !r.per_layer.is_empty())
                {
                    for (name, va) in x.per_layer.iter().filter(|(n, _)| exact_count(n)) {
                        if y.per_layer.get(name) != Some(va) {
                            code = 1;
                            println!(
                                "{w:<14} {name}: count {va} != {:?} (seed {})  differs",
                                y.per_layer.get(name),
                                x.seed
                            );
                        }
                    }
                }
            }
        }
    }
    let skipped = runs_a.iter().chain(runs_b).filter(|r| !r.valid).count();
    if skipped > 0 {
        println!("({skipped} invalid run(s) excluded)");
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "x".into(),
            unit: "us".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way: ok.
        assert_eq!(
            judge(&base, &[10.5, 10.4, 10.6, 10.5, 10.45], &spec(true, 0.1)).2,
            Verdict::Ok
        );
        // 20 % slower on a lower-is-better metric: worse.
        let slow = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(judge(&base, &slow, &spec(true, 0.1)).2, Verdict::Worse);
        // Higher is better: a 20 % drop is worse, a 20 % rise is ok.
        assert_eq!(judge(&slow, &base, &spec(false, 0.1)).2, Verdict::Worse);
        assert_eq!(judge(&base, &slow, &spec(false, 0.1)).2, Verdict::Ok);
        // Spread wider than the bound: unresolved, unless every changed run
        // beats every baseline run.
        let noisy = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert_eq!(
            judge(&noisy, &base, &spec(true, 0.1)).2,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[1.0, 1.1, 1.2, 0.9, 1.0], &spec(true, 0.1)).2,
            Verdict::Ok
        );
        let (change, _, _) = judge(&base, &slow, &spec(true, 0.1));
        assert!((change - 0.2).abs() < 1e-9);
    }

    /// A correct ycsb-e run with every gated metric at 1.0.
    fn run(seed: u64, digest: &str) -> Run {
        Run {
            workload: "ycsb-e".into(),
            seed,
            digest: digest.into(),
            valid: true,
            correct: true,
            failed_ratio: 0.0,
            end_to_end: super::spec()
                .end_to_end
                .into_iter()
                .map(|m| (m.name, 1.0))
                .collect(),
            per_layer: BTreeMap::new(),
        }
    }

    #[test]
    fn refuses_differing_digests_and_unequal_counts() {
        let traced = |digest: &str, persists: f64| Run {
            per_layer: [("pm.persists_per_insert".to_string(), persists)].into(),
            ..run(1, digest)
        };
        assert_eq!(compare(&[traced("00", 5.0)], &[traced("00", 5.0)]), 0);
        assert_eq!(compare(&[traced("00", 5.0)], &[traced("ff", 5.0)]), 2);
        assert_eq!(compare(&[traced("00", 5.0)], &[traced("00", 6.0)]), 1);
    }

    #[test]
    fn a_failed_change_run_is_worse() {
        let base: Vec<Run> = (1..=5).map(|s| run(s, "00")).collect();
        assert_eq!(compare(&base, &base), 0);
        // One run of five with a failed check, its values otherwise fine.
        let mut change = base.clone();
        change[2].correct = false;
        change[2].failed_ratio = 1e-6;
        assert_eq!(compare(&base, &change), 1);
        // A failed op's +∞ p99 is not skipped, though the run is valid.
        let mut change = base.clone();
        change[2]
            .end_to_end
            .insert("read_p99_us".into(), f64::INFINITY);
        assert_eq!(compare(&base, &change), 1);
        // Nor is a missing gated metric.
        let mut change = base.clone();
        change[2].end_to_end.remove("write_p50_us");
        assert_eq!(compare(&base, &change), 1);
        // A failed baseline run says nothing against the change.
        let mut failed_base = base.clone();
        failed_base[0].correct = false;
        failed_base[0]
            .end_to_end
            .insert("read_p99_us".into(), f64::INFINITY);
        assert_eq!(compare(&failed_base, &base), 0);
    }

    #[test]
    fn null_values_read_back_as_infinite() {
        let mut j = Json::obj();
        let mut e2e = Json::obj();
        let mut v = Json::obj();
        v.set("value", f64::INFINITY).set("unit", "us");
        e2e.set("read_p99_us", v);
        j.set("workload", "ycsb-e")
            .set("seed", 3u64)
            .set("input_digest", "00")
            .set("valid", true)
            .set("correct", false)
            .set("failed", 1u64)
            .set("failed_ratio", 0.5)
            .set("end_to_end", e2e);
        let r = Run::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(r.end_to_end["read_p99_us"], f64::INFINITY);
        assert!(!r.correct);
        assert_eq!(r.failed_ratio, 0.5);
    }
}
