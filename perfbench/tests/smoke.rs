//! The benchmark's own smoke test: every workload, untraced and traced, at
//! the small `--smoke` sizes. Each run must pass its correctness checks and
//! print exactly the metrics of its section of BENCHMARK.json (end-to-end
//! untraced, per-layer traced), each with the declared unit; every
//! end-to-end value is positive.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::value::Value;

const WORKLOADS: [&str; 4] = ["serve-100k", "fleet-tcp-100k", "churn-100k", "paper-sec5"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn map(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Map(entries) => entries,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

fn get<'a>(entries: &'a [(String, Value)], key: &str) -> &'a Value {
    &entries
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .1
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

/// Declared metrics of one BENCHMARK.json section: (name, unit).
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let spec = serde_json::value_from_str(&spec).unwrap();
    match get(map(&spec), section) {
        Value::Seq(items) => items
            .iter()
            .map(|m| {
                let m = map(m);
                (
                    text(get(m, "name")).to_string(),
                    text(get(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{section} is not a list: {}", other.kind()),
    }
}

fn run(workload: &str, trace: u8) -> Vec<(String, Value)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "3"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::value_from_str(last).unwrap();
    let entries = map(&result).to_vec();
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(entries[0].1, Value::Bool(true)), "{stderr}");
    assert!(matches!(entries[1].1, Value::U64(n) if n >= 1));
    assert!(matches!(entries[2].1, Value::U64(0)));
    map(&entries[3].1).to_vec()
}

#[test]
fn every_workload_runs_correct_and_reports_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, section) in [(0u8, &end_to_end), (1u8, &per_layer)] {
            let metrics = run(workload, trace);
            assert!(!metrics.is_empty());
            for (name, metric) in &metrics {
                let metric = map(metric);
                let unit = text(get(metric, "unit"));
                let declared_unit = section
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| u.as_str())
                    .unwrap_or_else(|| panic!("{workload}: {name} is not declared"));
                assert_eq!(unit, declared_unit, "{workload}: unit of {name}");
                assert!(matches!(get(metric, "value"), Value::F64(v) if v.is_finite()));
            }
            for (name, _) in section {
                let value = metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, m)| get(map(m), "value"))
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                if trace == 0 {
                    assert!(
                        matches!(value, Value::F64(v) if *v > 0.0),
                        "{workload}: end-to-end {name} must be positive"
                    );
                }
            }
            assert_eq!(metrics.len(), section.len(), "{workload} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve-100k", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "serve-100k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
