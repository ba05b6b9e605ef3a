//! `BENCHMARK.json`, compiled in: the one list of workloads and gated
//! metrics (names, units, directions, bounds) that runs emit and
//! `compare` judges.

use crate::json::{Json, JsonExt};

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(j: &Json, key: &str) -> Vec<MetricSpec> {
    j.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric unit")
                .to_string(),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

pub fn spec() -> Spec {
    let j = Json::parse(TEXT).expect("BENCHMARK.json parses");
    Spec {
        workloads: j
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("workload name")
                    .to_string()
            })
            .collect(),
        end_to_end: metrics(&j, "end_to_end"),
        per_layer: metrics(&j, "per_layer"),
    }
}
