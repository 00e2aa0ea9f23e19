//! Runs every workload in `BENCHMARK.json` at tiny scale, untraced and
//! traced, and checks that each run passes every output check and prints
//! exactly the metrics `BENCHMARK.json` names, with their units.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_seq_slice)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has a string {key}"))
}

/// Runs one workload and returns the last line of its output, parsed.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_rolediet-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--scale", "0.05"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is JSON ({e}): {last}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let doc = benchmark_json();
    for workload in entries(&doc, "workloads") {
        let name = field(workload, "name");
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(name, trace);
            let context = format!("{name} trace {trace}");
            assert!(
                matches!(result.get("correct"), Some(Value::Bool(true))),
                "{context}: {result:?}"
            );
            assert_eq!(
                number(result.get("failed").expect("failed")),
                0.0,
                "{context}"
            );
            assert!(
                number(result.get("attempted").expect("attempted")) >= 1.0,
                "{context}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_map_slice)
                .expect("metrics object");
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let named: Vec<&str> = entries(&doc, list)
                .iter()
                .map(|m| field(m, "name"))
                .collect();
            assert_eq!(printed, named, "{context}: metric names");
            for m in entries(&doc, list) {
                let metric = result
                    .get("metrics")
                    .and_then(|x| x.get(field(m, "name")))
                    .unwrap();
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(field(m, "unit"))
                );
                let value = number(metric.get("value").expect("value"));
                assert!(
                    value.is_finite(),
                    "{context}: {} = {value}",
                    field(m, "name")
                );
                if trace == 0 {
                    assert!(value > 0.0, "{context}: {} = {value}", field(m, "name"));
                }
            }
        }
    }
}
