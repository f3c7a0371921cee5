//! Step-level parallel≡parallel equivalence: the sharded executor must
//! produce bitwise identical weights for every worker count, because the
//! shard decomposition and reduction tree are fixed independently of the
//! thread count. Also exercises the executor's clean-error paths.

use hero_nn::models::{mini_mobilenet, mini_vgg, mlp, ModelConfig};
use hero_nn::Network;
use hero_optim::{Method, Optimizer};
use hero_parallel::{train_step_parallel, ParallelCtx, ShardedOracle};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::Tensor;

const CFG: ModelConfig = ModelConfig {
    classes: 4,
    in_channels: 3,
    input_hw: 4,
    width: 4,
};

fn mlp_net() -> Network {
    mlp(CFG, &[16, 8], &mut StdRng::seed_from_u64(7))
}

fn mobilenet_net() -> Network {
    mini_mobilenet(CFG, &mut StdRng::seed_from_u64(7))
}

fn vgg_net() -> Network {
    mini_vgg(CFG, &mut StdRng::seed_from_u64(7))
}

fn batch() -> (Tensor, Vec<usize>) {
    let n = 22; // deliberately not divisible by the shard count
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::from_fn([n, 3, 4, 4], |_| rng.gen::<f32>() - 0.5);
    let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
    (x, labels)
}

fn toy() -> (Network, Tensor, Vec<usize>) {
    let (x, labels) = batch();
    (mlp_net(), x, labels)
}

/// Flattens every parameter to its exact bit pattern.
fn param_bits(net: &Network) -> Vec<u32> {
    net.params()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn run_steps(
    build: fn() -> Network,
    method: Method,
    threads: usize,
    steps: usize,
) -> (Vec<u32>, Vec<u32>) {
    let (x, labels) = batch();
    let mut net = build();
    let mut ctx = ParallelCtx::new(&net, threads).unwrap();
    let mut opt = Optimizer::new(method)
        .with_momentum(0.9)
        .with_weight_decay(1e-4);
    let mut losses = Vec::with_capacity(steps);
    for _ in 0..steps {
        let stats = train_step_parallel(&mut ctx, &mut net, &mut opt, &x, &labels, 0.05).unwrap();
        losses.push(stats.loss.to_bits());
    }
    (param_bits(&net), losses)
}

/// Every network family the executor replicates: dense layers, and tiny
/// MobileNet and VGG (conv, depthwise conv, batch norm, ReLU/ReLU6,
/// max-pool, global average pool).
#[test]
fn weight_trajectories_are_bitwise_identical_across_thread_counts() {
    for (name, build) in [
        ("mlp", mlp_net as fn() -> Network),
        ("mini_mobilenet", mobilenet_net),
        ("mini_vgg", vgg_net),
    ] {
        for method in [
            Method::Sgd,
            Method::FirstOrderOnly { h: 0.05 },
            Method::Hero {
                h: 0.05,
                gamma: 0.1,
            },
        ] {
            let (ref_bits, ref_losses) = run_steps(build, method, 1, 6);
            for threads in 2..=4 {
                let (bits, losses) = run_steps(build, method, threads, 6);
                assert_eq!(
                    losses,
                    ref_losses,
                    "{name} {}: loss trajectory diverged at {threads} threads",
                    method.name()
                );
                assert_eq!(
                    bits,
                    ref_bits,
                    "{name} {}: weights diverged at {threads} threads",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn parallel_training_reduces_loss() {
    let (mut net, x, labels) = toy();
    let mut ctx = ParallelCtx::new(&net, 3).unwrap();
    let mut opt = Optimizer::new(Method::Hero {
        h: 0.05,
        gamma: 0.1,
    });
    let first = train_step_parallel(&mut ctx, &mut net, &mut opt, &x, &labels, 0.05).unwrap();
    let mut last = first;
    for _ in 0..25 {
        last = train_step_parallel(&mut ctx, &mut net, &mut opt, &x, &labels, 0.05).unwrap();
    }
    assert!(
        last.loss < first.loss,
        "loss {} !< {}",
        last.loss,
        first.loss
    );
}

#[test]
fn mismatched_labels_surface_as_clean_error() {
    let (mut net, x, _) = toy();
    let mut ctx = ParallelCtx::new(&net, 2).unwrap();
    let short_labels = vec![0usize; 3];
    let err = ShardedOracle::new(&mut ctx, &x, &short_labels).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("labels"), "{msg}");
    // The context is still usable afterwards.
    let labels: Vec<usize> = (0..22).map(|i| i % 4).collect();
    let mut opt = Optimizer::new(Method::Sgd);
    train_step_parallel(&mut ctx, &mut net, &mut opt, &x, &labels, 0.1).unwrap();
}

#[test]
fn empty_batch_is_rejected() {
    let (mut net, _, _) = toy();
    let mut ctx = ParallelCtx::new(&net, 1).unwrap();
    let x = Tensor::zeros([0, 3, 4, 4]);
    assert!(ShardedOracle::new(&mut ctx, &x, &[]).is_err());
    let _ = &mut net;
}
