//! Integration tests spanning the whole stack: data generation → model →
//! training method → quantization → curvature/landscape analysis.

use hero_core::experiment::{
    landscape_scan, model_config, quant_sweep, train_cell, MethodKind, Scale, TrainedModel,
};
use hero_core::{train, TrainConfig};
use hero_data::{inject_symmetric_noise, Preset, SynthGenerator, SynthSpec};
use hero_nn::evaluate_accuracy;
use hero_nn::models::{ModelConfig, ModelKind};
use hero_optim::Method;
use hero_quant::{quantize_params, QuantScheme};
use hero_tensor::rng::StdRng;

/// A tiny-but-real task every integration test shares.
fn tiny_task() -> (hero_data::Dataset, hero_data::Dataset) {
    let spec = SynthSpec {
        classes: 4,
        hw: 8,
        noise_std: 0.3,
        superclasses: 0,
        ..SynthSpec::default()
    };
    SynthGenerator::new(spec).generate(80, 1);
    let gen = SynthGenerator::new(spec);
    gen.train_test(80, 60)
}

fn tiny_config() -> ModelConfig {
    ModelConfig {
        classes: 4,
        in_channels: 3,
        input_hw: 8,
        width: 6,
    }
}

#[test]
fn every_method_trains_every_model_family() {
    let (train_set, test_set) = tiny_task();
    for model in [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg] {
        for method in [
            Method::Sgd,
            Method::FirstOrderOnly { h: 0.2 },
            Method::GradL1 { lambda: 1e-4 },
            Method::Hero {
                h: 0.2,
                gamma: 0.01,
            },
        ] {
            let mut net = model.build(tiny_config(), &mut StdRng::seed_from_u64(1));
            let config = TrainConfig::new(method, 2).with_batch_size(16);
            let rec = train(&mut net, &train_set, &test_set, &config)
                .unwrap_or_else(|e| panic!("{model:?}/{} failed: {e}", method.name()));
            assert!(rec.final_test_acc.is_finite());
            assert!(rec.epochs.iter().all(|e| e.train_loss.is_finite()));
            assert!(net.params().iter().all(|p| p.is_finite()));
        }
    }
}

#[test]
fn trained_model_beats_chance_and_survives_8bit_quantization() {
    let (train_set, test_set) = tiny_task();
    let mut net = ModelKind::Resnet.build(tiny_config(), &mut StdRng::seed_from_u64(2));
    let config = TrainConfig::new(Method::Sgd, 12).with_batch_size(16);
    train(&mut net, &train_set, &test_set, &config).unwrap();
    let acc_fp = evaluate_accuracy(&net, &test_set.images, &test_set.labels, 32).unwrap();
    assert!(
        acc_fp > 0.5,
        "full-precision acc {acc_fp} barely above 4-class chance"
    );
    let (params, report) = quantize_params(&net, &QuantScheme::symmetric(8).unwrap()).unwrap();
    net.set_params(&params).unwrap();
    assert!(report.worst_linf <= report.max_bin_width / 2.0 + 1e-6);
    let acc_q8 = evaluate_accuracy(&net, &test_set.images, &test_set.labels, 32).unwrap();
    assert!(
        (acc_fp - acc_q8).abs() < 0.1,
        "8-bit quantization moved accuracy {acc_fp} -> {acc_q8}"
    );
}

#[test]
fn low_precision_hurts_more_than_high_precision() {
    let (train_set, test_set) = tiny_task();
    let mut net = ModelKind::Resnet.build(tiny_config(), &mut StdRng::seed_from_u64(3));
    let config = TrainConfig::new(Method::Sgd, 12).with_batch_size(16);
    let record = train(&mut net, &train_set, &test_set, &config).unwrap();
    let mut trained = TrainedModel {
        net,
        record,
        method: MethodKind::Sgd,
    };
    let curve = quant_sweep(&mut trained, &test_set, &[2, 8]).unwrap();
    let acc2 = curve.points[0].1;
    let acc8 = curve.points[1].1;
    assert!(
        acc8 >= acc2,
        "8-bit acc {acc8} should be >= 2-bit acc {acc2}"
    );
    assert!(acc8 > 0.5);
}

#[test]
fn hero_records_nonzero_regularizer_on_real_networks() {
    let (train_set, test_set) = tiny_task();
    let mut net = ModelKind::Resnet.build(tiny_config(), &mut StdRng::seed_from_u64(4));
    let config = TrainConfig::new(
        Method::Hero {
            h: 0.2,
            gamma: 0.01,
        },
        2,
    )
    .with_batch_size(16);
    let rec = train(&mut net, &train_set, &test_set, &config).unwrap();
    // G = ||∇L(W+hz) - g||² must be positive on a curved loss surface.
    assert!(rec.epochs.iter().all(|e| e.regularizer > 0.0));
    // HERO costs exactly 3 gradient evaluations per step.
    let steps: usize = 2 * 80usize.div_ceil(16);
    assert_eq!(rec.grad_evals, 3 * steps);
}

#[test]
fn label_noise_reduces_clean_test_accuracy() {
    let (clean, test_set) = tiny_task();
    let mut noisy = clean.clone();
    inject_symmetric_noise(&mut noisy, 0.5, 9);
    let run = |data: &hero_data::Dataset| {
        let mut net = ModelKind::Resnet.build(tiny_config(), &mut StdRng::seed_from_u64(5));
        let config = TrainConfig::new(Method::Sgd, 10).with_batch_size(16);
        train(&mut net, data, &test_set, &config)
            .unwrap()
            .final_test_acc
    };
    let acc_clean = run(&clean);
    let acc_noisy = run(&noisy);
    assert!(
        acc_clean > acc_noisy,
        "clean {acc_clean} should beat 50%-noise {acc_noisy}"
    );
}

#[test]
fn landscape_scan_centers_on_trained_minimum() {
    let scale = Scale {
        data: 0.12,
        epochs_small: 4,
        epochs_large: 1,
    };
    let mut trained = train_cell(
        Preset::C10,
        ModelKind::Resnet,
        MethodKind::Sgd,
        scale,
        0,
        None,
    )
    .unwrap();
    let (train_set, _) = Preset::C10.load(scale.data);
    let scan = landscape_scan(&mut trained, &train_set, 0.5, 7, 42).unwrap();
    // The centre should be at or near the lowest loss on the grid.
    let min = scan
        .losses
        .iter()
        .flatten()
        .copied()
        .fold(f32::INFINITY, f32::min);
    assert!(
        scan.center_loss <= min + 0.5,
        "centre {} far above grid minimum {min}",
        scan.center_loss
    );
    // The same scan twice is deterministic.
    let scan2 = landscape_scan(&mut trained, &train_set, 0.5, 7, 42).unwrap();
    assert_eq!(scan.losses, scan2.losses);
}

#[test]
fn experiment_cells_are_reproducible() {
    let scale = Scale {
        data: 0.12,
        epochs_small: 2,
        epochs_large: 1,
    };
    let a = train_cell(
        Preset::C10,
        ModelKind::Resnet,
        MethodKind::Hero,
        scale,
        0,
        None,
    )
    .unwrap();
    let b = train_cell(
        Preset::C10,
        ModelKind::Resnet,
        MethodKind::Hero,
        scale,
        0,
        None,
    )
    .unwrap();
    assert_eq!(a.record.final_test_acc, b.record.final_test_acc);
    assert_eq!(a.net.params(), b.net.params());
}

#[test]
fn model_config_matches_presets() {
    for preset in [Preset::C10, Preset::C100, Preset::In50] {
        let cfg = model_config(preset);
        assert_eq!(cfg.classes, preset.classes());
        assert_eq!(cfg.input_hw, preset.input_hw());
        // A model built from it accepts preset images.
        let net = ModelKind::Resnet.build(cfg, &mut StdRng::seed_from_u64(6));
        let (train_set, _) = preset.load(0.02);
        let logits = net.predict(&train_set.images).unwrap();
        assert_eq!(logits.dims(), &[train_set.len(), preset.classes()]);
    }
}
