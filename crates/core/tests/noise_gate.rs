//! End-to-end exercise of the static quantization-noise domain on the
//! conv/BN path: a briefly-trained mini ResNet must pass the
//! measurement crosscheck (zero soundness violations), and the report's
//! mixed-precision allocation from the certified matrix must be feasible.

use hero_core::{noise_crosscheck, train, CrosscheckGrid, TrainConfig};
use hero_data::{Dataset, SynthGenerator, SynthSpec};
use hero_nn::models::{mini_resnet, ModelConfig};
use hero_nn::Network;
use hero_optim::Method;
use hero_tensor::rng::StdRng;

fn setup() -> (Network, Dataset, Dataset) {
    let spec = SynthSpec {
        classes: 4,
        hw: 8,
        noise_std: 0.2,
        ..SynthSpec::default()
    };
    let (train_set, test_set) = SynthGenerator::new(spec).train_test(48, 24);
    let cfg = ModelConfig {
        classes: 4,
        in_channels: 3,
        input_hw: 8,
        width: 4,
    };
    let net = mini_resnet(cfg, 1, &mut StdRng::seed_from_u64(11));
    (net, train_set, test_set)
}

#[test]
fn crosscheck_is_sound_on_trained_conv_bn_model() {
    let (mut net, train_set, test_set) = setup();
    let cfg = TrainConfig::new(Method::Sgd, 2).with_seed(7);
    train(&mut net, &train_set, &test_set, &cfg).unwrap();

    let probe = test_set.len().min(16);
    let images = test_set.images.narrow(0, probe).unwrap();
    let labels = &test_set.labels[..probe];
    let grid = CrosscheckGrid {
        bits: vec![4, 8],
        trials: 2,
        seed: 0xC0DE,
        avg: 6.0,
    };
    let before = net.params();
    let report = noise_crosscheck(&mut net, &images, labels, &test_set, &grid).unwrap();

    assert_eq!(
        report.violations,
        0,
        "measured quantization error escaped a certified bound: {:?}",
        report
            .cells
            .iter()
            .filter(|c| c.violated)
            .collect::<Vec<_>>()
    );
    let quantizable = net
        .param_infos()
        .iter()
        .filter(|i| i.kind.is_quantizable())
        .count();
    assert_eq!(report.cells.len(), quantizable * grid.bits.len());
    assert!(report.cells.iter().all(|c| c.certified.is_finite()));
    assert!((0.0..=1.0).contains(&report.overlap));
    // Crosscheck must leave the weights exactly as it found them.
    assert_eq!(net.params(), before);

    // The certified matrix drives a feasible mixed-precision allocation
    // (widths from 2 bits up to the top of the grid), evaluated next to
    // uniform quantization at the same average width.
    let bits = &report.allocation;
    assert_eq!(bits.len(), quantizable);
    assert!(bits.iter().all(|&b| (2..=8).contains(&b)));
    let total: usize = report.matrix.layers.iter().map(|l| l.numel).sum();
    let spent: usize = (report.matrix.layers.iter().zip(bits))
        .map(|(l, &b)| l.numel * usize::from(b))
        .sum();
    assert!(spent <= (6.0 * total as f32).floor() as usize);
    let (mixed, uniform) = report.mixed_vs_uniform;
    assert!((0.0..=1.0).contains(&mixed) && (0.0..=1.0).contains(&uniform));
}
