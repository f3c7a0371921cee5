//! The experiment reports behind `hero quantize`, `preflight`, `spectrum`
//! and `analyze`, called as functions: each runs on a small MLP trained
//! on the CIFAR-10 preset and saved as a model artifact, so the tests
//! exercise the same artifact path as the CLI at a fraction of the cost.

use hero_core::experiment::{
    curvature_report, model_config, quantize_report, ModelSource, Sensitivity,
};
use hero_core::{
    network_from_artifact, run_preflight, save_artifact, spectrum_report, train_to_artifact,
    ModelSpec, NoisePlan, RunMeta, SpectrumOptions, TrainConfig,
};
use hero_data::Preset;
use hero_optim::Method;
use std::path::PathBuf;

const SCALE: f32 = 0.05;

/// Trains a one-hidden-layer MLP for two epochs and saves it as `name`.
fn mlp_artifact(name: &str) -> PathBuf {
    let (train_set, test_set) = Preset::C10.load(SCALE);
    let meta = RunMeta {
        model: ModelSpec::Mlp(vec![16]),
        model_cfg: model_config(Preset::C10),
        config: TrainConfig::new(Method::Sgd, 2).with_seed(3),
        git_rev: "test".to_string(),
        preflight_hash: None,
    };
    let mut net = meta.model.build(meta.model_cfg);
    let (_, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).unwrap();
    let path = std::env::temp_dir().join(format!("hero_reports_{}_{name}", std::process::id()));
    save_artifact(&art, &path).unwrap();
    path
}

fn missing() -> ModelSource {
    ModelSource::Artifact(PathBuf::from("missing.ha"))
}

#[test]
fn quantize_report_sweeps_widths_and_snapshots_the_artifact() {
    let path = mlp_artifact("quantize.ha");
    let source = ModelSource::Artifact(path.clone());
    let mixed = Some((4.0, Sensitivity::Static));
    let report = quantize_report(Preset::C10, SCALE, &source, &[3, 8], mixed, Some(4)).unwrap();
    assert!((0.0..=1.0).contains(&report.full_acc));
    let widths: Vec<u8> = report.uniform.iter().map(|u| u.0).collect();
    assert_eq!(widths, [3, 8]);
    for (bits, acc, quant) in &report.uniform {
        assert!((0.0..=1.0).contains(acc), "{bits}-bit accuracy {acc}");
        assert!(quant.worst_linf <= quant.max_bin_width / 2.0 + 1e-6);
    }
    let mixed = report.mixed.as_ref().unwrap();
    assert_eq!(mixed.layers.len(), 2, "an MLP with one hidden layer");
    assert!(mixed.layers.iter().all(|(_, b)| (2..=8).contains(b)));

    // The snapshot carries 4-bit weights and a QUANT entry per weight
    // tensor, drops the training state and still decodes into a network.
    let snapshot = report.snapshot.as_ref().unwrap();
    assert_eq!(snapshot.quant.len(), 2);
    assert!(snapshot.quant.iter().all(|q| q.bits == 4));
    assert!(snapshot.resume.is_none());
    network_from_artifact(snapshot).unwrap();

    // An unusable width fails before the (missing) model is opened.
    let err = quantize_report(Preset::C10, SCALE, &missing(), &[4, 32], None, None).unwrap_err();
    assert!(err.to_string().contains("bit width 32"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn preflight_run_certifies_the_mixed_plan_and_stamps_its_hash() {
    let path = mlp_artifact("preflight.ha");
    let source = ModelSource::Artifact(path.clone());
    let plan = Some(NoisePlan::Mixed(4.0));
    let run = run_preflight(Preset::C10, SCALE, &source, &[3, 4, 8], plan, None).unwrap();
    assert_eq!(run.model, "mlp");
    let (report, dot) = &run.report;
    assert_eq!(report.errors().count(), 0, "{report}");
    assert!(dot.is_some());
    let (_, matrix, widths) = run.noise.as_ref().unwrap();
    assert_eq!(matrix.bits, [3, 4, 8]);
    assert_eq!(widths.len(), matrix.layers.len());
    // One header line, then one line per layer.
    assert_eq!(run.sensitivity_table().lines().count(), 1 + widths.len());
    let stamped = run.stamped.as_ref().unwrap();
    let hash = stamped.meta_u64("provenance.preflight_hash");
    assert_eq!(hash, Some(run.hash));

    // The grid must be strictly increasing, checked before any loading.
    let err = run_preflight(Preset::C10, SCALE, &missing(), &[8, 4], plan, None).unwrap_err();
    assert!(err.to_string().contains("strictly increasing"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn spectrum_report_keeps_the_density_grid_of_its_one_estimator() {
    let path = mlp_artifact("spectrum.ha");
    let source = [ModelSource::Artifact(path.clone())];
    let opts = SpectrumOptions {
        steps: 3,
        slq_probes: 1,
        trace_probes: 1,
        ..SpectrumOptions::default()
    };
    let report = spectrum_report(Preset::C10, SCALE, &source, opts, 4).unwrap();
    assert_eq!(report.model, ("mlp", 2));
    let [m] = &report.methods[..] else {
        panic!("one probed model, got {}", report.methods.len());
    };
    assert_eq!(m.method, "sgd");
    let (density, layers) = &m.probe;
    assert_eq!((density.grid.len(), density.density.len()), (32, 32));
    assert_eq!(layers.len(), 4, "two weight and two bias tensors");
    assert_eq!(m.spearman.1, 2, "both weight tensors are ranked");
    let doc = hero_obs::json::parse(&report.to_json()).unwrap();
    let methods = doc.get("methods").and_then(|v| v.as_arr()).unwrap();
    let grid = methods[0].get("grid").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(grid.len(), 32);

    let zero = SpectrumOptions {
        slq_probes: 0,
        ..opts
    };
    let err = spectrum_report(Preset::C10, SCALE, &[missing()], zero, 4).unwrap_err();
    assert!(err.to_string().contains("at least one"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn curvature_report_restores_the_network() {
    let path = mlp_artifact("analyze.ha");
    let (train_set, test_set) = Preset::C10.load(SCALE);
    let source = ModelSource::Artifact(path.clone());
    let (mut net, ..) = source
        .load(Preset::C10, &train_set, &test_set, true)
        .unwrap();
    let (params, state) = (net.params(), net.state());
    let report = curvature_report(&mut net, &train_set).unwrap();
    assert_eq!(report.samples, train_set.len().min(128));
    let b = &report.bounds;
    assert!(b.eigenvalue >= report.lambda_min);
    assert!(b.grad_l2.is_finite() && b.grad_l1 >= b.grad_l2);
    assert!(b.linf_bound().is_finite() && b.max_safe_bin_width() > 0.0);
    assert_eq!(net.params(), params);
    assert_eq!(net.state(), state);
    std::fs::remove_file(path).ok();
}
