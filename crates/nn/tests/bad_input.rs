//! Malformed batches fail with a typed error, not a panic, on all three
//! entry points: `Network::predict` (the eval forward), `evaluate_accuracy`
//! and `loss_and_grads` (the train-mode graph forward).

use hero_nn::models::{mlp, ModelConfig, ModelKind};
use hero_nn::{
    evaluate_accuracy, loss_and_grads, BatchNorm2d, GlobalAvgPool2d, Network, Sequential,
};
use hero_tensor::rng::StdRng;
use hero_tensor::{Tensor, TensorError};

/// Runs `x` through the three entry points and hands each error to
/// `check`, naming the entry point.
fn each_entry_point(net: &mut Network, x: &Tensor, check: impl Fn(&str, TensorError)) {
    let labels = vec![0; x.dims().first().copied().unwrap_or(1)];
    check("predict", net.predict(x).unwrap_err());
    check(
        "evaluate_accuracy",
        evaluate_accuracy(net, x, &labels, 2).unwrap_err(),
    );
    check(
        "loss_and_grads",
        loss_and_grads(net, x, &labels).unwrap_err(),
    );
}

fn is_rank_mismatch(entry: &str, err: TensorError) {
    assert!(
        matches!(err, TensorError::RankMismatch { .. }),
        "{entry}: {err}"
    );
}

#[test]
fn conv_nets_reject_batches_that_are_not_4d() {
    let cfg = ModelConfig::default();
    for kind in [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg] {
        let mut net = kind.build(cfg, &mut StdRng::seed_from_u64(1));
        for dims in [vec![4, 3 * 8 * 8], vec![4, 3, 8 * 8]] {
            each_entry_point(&mut net, &Tensor::zeros(dims), is_rank_mismatch);
        }
    }
}

#[test]
fn scalar_batches_are_rejected() {
    let cfg = ModelConfig::default();
    let mut resnet = ModelKind::Resnet.build(cfg, &mut StdRng::seed_from_u64(2));
    let mut mlp = mlp(cfg, &[8], &mut StdRng::seed_from_u64(2));
    for net in [&mut resnet, &mut mlp] {
        each_entry_point(net, &Tensor::scalar(1.0), is_rank_mismatch);
    }
}

#[test]
fn batch_norm_rejects_a_channel_mismatch() {
    let body = Sequential::new()
        .push("bn", BatchNorm2d::new(3))
        .push("gap", GlobalAvgPool2d);
    let mut net = Network::new("bn", body);
    each_entry_point(&mut net, &Tensor::ones([2, 2, 4, 4]), |entry, err| {
        assert!(
            matches!(err, TensorError::ShapeMismatch { .. }),
            "{entry}: {err}"
        );
    });
}
