//! Round-trips the CLI's JSON sinks through the obs parser. Every float
//! the binary interpolates into a sink must go through the NaN-safe
//! encoder: a degenerate run (constant ranking → NaN overlap, unevaluated
//! epoch → NaN accuracy) must land as `null`, never as a bare `NaN`
//! token that no JSON parser accepts. The key layout of every object is
//! pinned too, since other tools read these sinks by key.

use hero_obs::json::{parse, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

fn hero() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hero"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hero_sink_{}_{name}", std::process::id()))
}

fn read_sink(path: &PathBuf, out: &Output) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "sink not written ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    std::fs::remove_file(path).ok();
    text
}

/// Asserts an object carries exactly `keys`, in order: the sink layout
/// other tools read.
fn assert_keys(obj: &Value, keys: &[&str]) {
    match obj {
        Value::Obj(fields) => {
            let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, keys);
        }
        other => panic!("expected an object with keys {keys:?}, got {other:?}"),
    }
}

fn assert_num_or_null(obj: &Value, key: &str) {
    match obj.get(key) {
        Some(Value::Num(_) | Value::Null) => {}
        other => panic!("`{key}` should be a number or null, got {other:?}"),
    }
}

#[test]
fn noise_crosscheck_sink_round_trips_through_the_json_parser() {
    let out_path = tmp("nc.json");
    let out = hero()
        .args([
            "noise-crosscheck",
            "--preset",
            "c10",
            "--models",
            "resnet",
            "--scale",
            "0.05",
            "--epochs",
            "1",
            "--trials",
            "1",
            "--bits",
            "2,4",
            "--avg",
            "4",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn hero");
    // A soundness violation exits nonzero but still writes the sink; only
    // an unparseable sink is a failure here.
    let text = read_sink(&out_path, &out);
    let value = parse(&text).unwrap_or_else(|e| panic!("sink is not valid JSON: {e}\n---\n{text}"));

    assert_keys(
        &value,
        &[
            "preset",
            "bits",
            "avg_bits",
            "models",
            "total_violations",
            "worst_overlap",
        ],
    );
    let models = value
        .get("models")
        .and_then(Value::as_arr)
        .expect("models array");
    assert_eq!(models.len(), 1, "one model requested");
    let m = &models[0];
    assert_keys(
        m,
        &[
            "model",
            "violations",
            "overlap",
            "rank_rho",
            "distinct_ranks",
            "ref_bits",
            "full_acc",
            "mixed_acc",
            "uniform_acc",
            "allocation",
            "cells",
        ],
    );
    assert_eq!(m.get("model").and_then(Value::as_str), Some("ResNet20"));
    for key in ["overlap", "full_acc", "mixed_acc", "uniform_acc"] {
        assert_num_or_null(m, key);
    }
    for cell in m.get("cells").and_then(Value::as_arr).expect("cells") {
        assert_keys(
            cell,
            &["layer", "bits", "certified", "empirical", "violated"],
        );
        assert_num_or_null(cell, "certified");
        assert_num_or_null(cell, "empirical");
    }
    assert_num_or_null(&value, "worst_overlap");
}

#[test]
fn spectrum_sink_round_trips_through_the_json_parser() {
    let out_path = tmp("spectrum.json");
    let out = hero()
        .args([
            "spectrum",
            "--preset",
            "c10",
            "--model",
            "resnet",
            "--methods",
            "sgd",
            "--scale",
            "0.05",
            "--epochs",
            "1",
            "--steps",
            "4",
            "--probes",
            "2",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn hero");
    assert!(
        out.status.success(),
        "spectrum failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = read_sink(&out_path, &out);
    let value = parse(&text).unwrap_or_else(|e| panic!("sink is not valid JSON: {e}\n---\n{text}"));
    assert_keys(
        &value,
        &[
            "preset",
            "model",
            "epochs",
            "steps",
            "probes",
            "sens_bits",
            "methods",
        ],
    );
    let methods = value
        .get("methods")
        .and_then(Value::as_arr)
        .expect("methods array");
    assert_eq!(methods.len(), 1);
    let m = &methods[0];
    assert_keys(
        m,
        &[
            "method",
            "test_acc",
            "lambda_max",
            "lambda_max_se",
            "lambda_min",
            "mean_eigenvalue",
            "second_moment",
            "trace",
            "spearman_trace_vs_static",
            "sigma",
            "grid",
            "density",
            "layers",
            "trajectory",
        ],
    );
    for point in m
        .get("trajectory")
        .and_then(Value::as_arr)
        .expect("trajectory")
    {
        assert_keys(point, &["epoch", "lambda_max", "trace", "second_moment"]);
    }
    for key in [
        "lambda_max",
        "lambda_min",
        "trace",
        "spearman_trace_vs_static",
    ] {
        assert_num_or_null(m, key);
    }
    // The per-layer trace table mixes finite means with NaN standard
    // errors at low probe counts — exactly the case the encoder exists for.
    for layer in m.get("layers").and_then(Value::as_arr).expect("layers") {
        assert_keys(layer, &["layer", "quantizable", "trace", "trace_se"]);
        assert_num_or_null(layer, "trace");
        assert_num_or_null(layer, "trace_se");
    }
}
