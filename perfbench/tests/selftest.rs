//! Self-tests of the benchmark binary, on smoke-sized (1 s) runs.
//!
//! The `serve` workload needs the `mcm` binary: point `PERFBENCH_MCM` at
//! it. `python3 perfbench/run.py --self-test` builds it and does so.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn mcm() -> PathBuf {
    let path = std::env::var_os("PERFBENCH_MCM").map(PathBuf::from).expect(
        "PERFBENCH_MCM must name the mcm binary (python3 perfbench/run.py --self-test sets it)",
    );
    assert!(path.exists(), "{} does not exist", path.display());
    path
}

/// The `(name, unit)` pairs BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    spec.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one smoke run printed: the result line and the full report.
struct Run {
    result: serde::Value,
    report: serde::Value,
}

fn smoke(workload: &str, trace: u8, pins: &Path) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .arg("--mcm")
        .arg(mcm())
        .arg("--pins")
        .arg(pins)
        .arg("--out-dir")
        .arg(&out_dir)
        .current_dir(manifest_dir().join(".."))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "{workload} trace {trace} exited {:?}: {}{}",
        output.status,
        stdout,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: serde::Value = serde_json::from_str(last).expect("the last line is JSON");
    let report_path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("report: "))
        .expect("the report path is printed");
    let report = serde_json::from_str(&std::fs::read_to_string(report_path).expect("report"))
        .expect("report is JSON");
    Run { result, report }
}

fn pins() -> PathBuf {
    manifest_dir().join("pins.json")
}

fn u64_of(v: &serde::Value, key: &str) -> u64 {
    v.get(key)
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("{key}"))
}

#[test]
fn smoke_runs_emit_every_declared_metric_with_its_unit() {
    for workload in ["frame", "sweep", "tenants", "serve"] {
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let run = smoke(workload, trace, &pins());
            let r = &run.result;
            let obj = r.as_object().expect("result object");
            let keys: Vec<&String> = obj.keys().collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.get("correct").and_then(|v| v.as_bool()),
                Some(true),
                "{r:?}"
            );
            assert!(u64_of(r, "attempted") >= 1);
            assert_eq!(u64_of(r, "failed"), 0);
            let metrics = r
                .get("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics");
            let want = declared(key);
            assert_eq!(metrics.len(), want.len(), "{workload} trace {trace}");
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit.as_str()));
                let value = m
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
            let host = run.report.get("host").expect("host fingerprint");
            for field in ["nproc", "cpu", "rustc"] {
                assert!(host.get(field).is_some(), "report lacks host.{field}");
            }
        }
    }
}

#[test]
fn a_corrupted_pinned_statistic_fails_the_operations_that_check_it() {
    let text = std::fs::read_to_string(pins()).expect("pins.json");
    let key = "\"sweep.export_fnv\": \"";
    let at = text.find(key).expect("the sweep export is pinned") + key.len();
    let mut corrupted = text.clone();
    let flipped = if &text[at..at + 1] == "0" { "1" } else { "0" };
    corrupted.replace_range(at..at + 1, flipped);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-pins.json");
    std::fs::write(&path, corrupted).expect("write corrupted pins");

    let run = smoke("sweep", 0, &path);
    let r = &run.result;
    assert_eq!(r.get("correct").and_then(|v| v.as_bool()), Some(false));
    let failed = u64_of(r, "failed");
    assert!(failed >= 1, "{r:?}");
    assert!(failed <= u64_of(r, "attempted"));
}

/// `threads` is the most threads the run kept busy at once, sampled from
/// `/proc/self/task` while it ran; `max_connections` the most client
/// connections it held open at once.
#[test]
fn the_generator_stays_within_two_threads_and_one_connection() {
    for workload in ["frame", "sweep", "tenants", "serve"] {
        let run = smoke(workload, 0, &pins());
        let threads = u64_of(&run.report, "threads");
        let connections = u64_of(&run.report, "max_connections");
        assert!((1..=2).contains(&threads), "{workload}: {threads} threads");
        let want = u64::from(workload == "serve");
        assert_eq!(connections, want, "{workload}: {connections} connections");
    }
}
