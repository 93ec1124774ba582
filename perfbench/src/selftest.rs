//! Reduced-size self-test of the benchmark: every workload runs at the
//! small scale, emits each named metric with its unit, and another seed
//! changes its inputs but not its metric set.

use super::*;
use std::collections::BTreeSet;
use vasp_power_profiles::substrate::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(doc: &Value, list: &str) -> BTreeSet<(String, String)> {
    let Some(Value::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json lacks {list}");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    let e2e: BTreeSet<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    let layers: BTreeSet<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(
        layers.len(),
        per_layer().len(),
        "per-layer names are unique"
    );
    assert_eq!(declared(&doc, "per_layer"), layers);
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layer_map.json");
    let map = json::parse(&std::fs::read_to_string(path).expect("read layer_map.json"))
        .expect("layer_map.json parses");
    let Some(Value::Arr(layers)) = map.get("layers") else {
        panic!("layer_map.json lacks layers");
    };
    let mapped: Vec<&str> = layers
        .iter()
        .filter_map(|l| l.get("metric").and_then(Value::as_str))
        .collect();
    let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        mapped, names,
        "layer_map.json covers the catalogue in order"
    );
}

/// The result line parses, has exactly the contract's keys, and carries
/// every catalogue metric with its unit.
fn check_line(out: &Outcome, traced: bool) {
    let doc = json::parse(&result_line(out, traced)).expect("result line is JSON");
    let Value::Obj(top) = &doc else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = doc.get("metrics").expect("metrics");
    for (name, unit) in catalogue {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
    }
}

fn run_small(workload: &str) -> BTreeSet<String> {
    let untraced: Vec<Outcome> = [1, 2]
        .iter()
        .map(|&seed| run_workload(workload, seed, 1e-3, false, Scale::Small))
        .collect();
    for out in &untraced {
        assert_eq!(out.failed, 0, "{workload} failed operations");
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
        }
        check_line(out, false);
    }
    assert_ne!(
        untraced[0].input_digest, untraced[1].input_digest,
        "{workload}: another seed must change the inputs"
    );
    let traced: Vec<Outcome> = [1, 2]
        .iter()
        .map(|&seed| run_workload(workload, seed, 1e-3, true, Scale::Small))
        .collect();
    for out in &traced {
        assert_eq!(out.failed, 0, "{workload} traced run failed operations");
        check_line(out, true);
    }
    let sets: Vec<BTreeSet<String>> = traced
        .iter()
        .map(|o| o.metrics.keys().cloned().collect())
        .collect();
    assert_eq!(
        sets[0], sets[1],
        "{workload}: the metric set must not depend on the seed"
    );
    assert!(sets[0].contains("bench.trace_overhead"), "{workload}");
    assert_ne!(traced[0].input_digest, traced[1].input_digest, "{workload}");
    sets[0].clone()
}

#[test]
fn every_workload_emits_its_metrics_at_small_scale() {
    let mut measured = BTreeSet::new();
    for w in WORKLOADS {
        measured.extend(run_small(w));
    }
    let missing: Vec<String> = per_layer()
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| !measured.contains(n))
        .collect();
    assert!(missing.is_empty(), "no workload measures {missing:?}");
}

/// A pass whose every timed operation failed still yields a result line:
/// empty percentiles read 0, and the failure shows in `failed`, in
/// `correct` and in `clean_pass_share`.
#[test]
fn a_pass_with_no_timed_operation_still_reports() {
    use crate::measure::{end_to_end, quantile, Pass};
    assert!(quantile(&[], 0.5).is_nan());
    let clean = Pass {
        wall_s: 1.0,
        latency_s: vec![0.1, 0.2],
        rtt_s: vec![0.3],
        attempted: 3,
        ..Pass::default()
    };
    let all_failed = Pass {
        wall_s: 1.0,
        attempted: 3,
        failed: 3,
        ..Pass::default()
    };
    let (attempted, failed, metrics) = end_to_end(1e-3, &[all_failed, clean]);
    assert_eq!((attempted, failed), (6, 3));
    assert_eq!(metrics["clean_pass_share"], 0.5);
    let out = Outcome {
        attempted,
        failed,
        metrics,
        input_digest: 0,
    };
    check_line(&out, false);
    let doc = json::parse(&result_line(&out, false)).expect("result line is JSON");
    assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
}
