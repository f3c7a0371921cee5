//! Smoke coverage of the benchmark: every workload at smoke size, untraced
//! and traced, checked against `BENCHMARK.json`.

use hero_obs::json::{parse, Value};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "train_hero_resnet",
    "train_sgd_resnet_sharded",
    "table1_row_warm",
    "spectrum_probe_resnet",
];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn benchmark() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hero-benchmark"));
    cmd.env_remove("HERO_TRACE");
    cmd
}

/// Runs one workload at smoke size and returns its result line.
fn run(workload: &str, traced: bool) -> Value {
    let out = benchmark()
        .args(["run", "--workload", workload, "--smoke", "--trace"])
        .arg(if traced { "1" } else { "0" })
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (traced {traced}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn spec_is_well_formed() {
    let spec = spec();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let workloads = list(&spec, "workloads");
    let e2e = list(&spec, "end_to_end");
    let layers = list(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let names: Vec<&str> = workloads
        .iter()
        .chain(e2e)
        .chain(layers)
        .map(|v| text(v, "name"))
        .collect();
    for n in &names {
        assert!(name_ok(n), "malformed name `{n}`");
    }
    assert_eq!(
        workloads
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Vec<_>>(),
        WORKLOADS
    );
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", text(m, "name"));
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    let spec = spec();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let result = run(workload, traced);
            let ctx = format!("{workload} (traced {traced})");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{ctx}");
            assert!(
                result.get("attempted").and_then(Value::as_f64) >= Some(1.0),
                "{ctx}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{ctx}"
            );
            let metrics = result.get("metrics").expect("metrics");
            let declared = list(&spec, if traced { "per_layer" } else { "end_to_end" });
            for d in declared {
                let name = text(d, "name");
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{ctx}: `{name}` not emitted"));
                assert_eq!(text(m, "unit"), text(d, "unit"), "{ctx}: unit of {name}");
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{ctx}: {name} = {v:?}");
            }
            if traced {
                let coverage = metrics
                    .get("bench.coverage")
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .expect("coverage");
                assert!(coverage >= 0.9, "{ctx}: coverage {coverage}");
            }
        }
    }
}

#[test]
fn untraced_runs_refuse_an_active_tracer_and_bad_flags() {
    let out = benchmark()
        .args(["run", "--workload", "table1_row_warm", "--smoke"])
        .env("HERO_TRACE", "1")
        .output()
        .expect("spawn the benchmark");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("HERO_TRACE"));
    let out = benchmark()
        .args(["run", "--epochs", "5"])
        .output()
        .expect("spawn the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result on a usage error");
}
