//! Single-tensor gradients are bitwise the full gradient's tensor.
//!
//! `hero_nn::param_grad` backprops only to one parameter tensor, and
//! `BatchOracle` answers `GradOracle::grad_of` with it, so the layer-masked
//! Hessian traces skip every adjoint that never reaches the probed tensor.
//! These tests pin that the pruning moves no bit: on the C10 ResNet,
//! MobileNet and VGG in train mode, each tensor's single-tensor gradient
//! equals that tensor of `loss_and_grads`, and `layer_traces` through
//! `BatchOracle` equals `layer_traces` through an oracle that implements
//! only `grad` (and so takes the trait's unpruned default `grad_of`).
//!
//! `BatchOracle::grad_of` also restarts the forward at a recorded layer
//! input when the parameters below that layer did not move; the last tests
//! pin that a restart never serves an input computed from other
//! parameters, whatever order the tensors are asked in.

use hero_data::Preset;
use hero_hessian::{layer_traces, Estimate, GradOracle};
use hero_nn::models::{ModelConfig, ModelKind};
use hero_nn::{loss_and_grads, param_grad, Network};
use hero_optim::BatchOracle;
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Result, Tensor};

const MODELS: [ModelKind; 3] = [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg];

fn c10_model(kind: ModelKind) -> Network {
    let cfg = ModelConfig {
        classes: Preset::C10.classes(),
        in_channels: 3,
        input_hw: Preset::C10.input_hw(),
        width: 8,
    };
    kind.build(cfg, &mut StdRng::seed_from_u64(11))
}

/// A seeded batch of `n` C10-shaped images with labels.
fn batch(n: usize) -> (Tensor, Vec<usize>) {
    let hw = Preset::C10.input_hw();
    let mut rng = StdRng::seed_from_u64(29);
    let x = Tensor::from_fn([n, 3, hw, hw], |_| rng.gen_range(-1.0f32..1.0));
    let labels = (0..n)
        .map(|_| rng.gen_range(0..Preset::C10.classes()))
        .collect();
    (x, labels)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn estimate_bits(e: &Estimate) -> (u32, u32, usize) {
    (e.mean.to_bits(), e.std_error.to_bits(), e.samples)
}

/// Delegates `grad` only, so `grad_of` is the trait's default: the full
/// gradient with one tensor kept.
struct FullGradOnly<'a>(BatchOracle<'a>);

impl GradOracle for FullGradOnly<'_> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        self.0.grad(params)
    }
}

/// Counts the gradient evaluations it forwards to the wrapped oracle.
struct Counting<O> {
    inner: O,
    calls: usize,
}

impl<O: GradOracle> Counting<O> {
    fn new(inner: O) -> Self {
        Counting { inner, calls: 0 }
    }
}

impl<O: GradOracle> GradOracle for Counting<O> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        self.calls += 1;
        self.inner.grad(params)
    }

    fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        self.calls += 1;
        self.inner.grad_of(params, index)
    }
}

#[test]
fn single_tensor_gradient_is_bitwise_the_full_gradients_tensor() {
    let (x, labels) = batch(8);
    for kind in MODELS {
        let mut net = c10_model(kind);
        let full = loss_and_grads(&mut net, &x, &labels).unwrap().grads;
        assert!(full.len() > 2, "{kind:?}: {} tensors", full.len());
        assert!(
            full.iter().all(|g| g.norm_l2() > 0.0),
            "{kind:?}: a zero gradient"
        );
        for (i, want) in full.iter().enumerate() {
            let got = param_grad(&mut net, 0, &x, &labels, i, &mut Vec::new()).unwrap();
            assert_eq!(got.shape(), want.shape(), "{kind:?} tensor {i}");
            assert!(
                bits(&got) == bits(want),
                "{kind:?}: tensor {i}'s single-tensor gradient differs"
            );
        }
        assert!(param_grad(&mut net, 0, &x, &labels, full.len(), &mut Vec::new()).is_err());
    }
}

#[test]
fn layer_traces_do_not_depend_on_the_oracle_pruning() {
    let (x, labels) = batch(8);
    for kind in MODELS {
        let mut net = c10_model(kind);
        let params = net.params();
        let mut pruned = Counting::new(BatchOracle::new(&mut net, &x, &labels));
        let (_, base) = pruned.grad(&params).unwrap();
        let got = layer_traces(&mut pruned, &params, &base, 2, 1e-3, 5).unwrap();
        let pruned_calls = pruned.calls;

        let mut net = c10_model(kind);
        let mut full = Counting::new(FullGradOnly(BatchOracle::new(&mut net, &x, &labels)));
        let (_, base_again) = full.grad(&params).unwrap();
        let want = layer_traces(&mut full, &params, &base_again, 2, 1e-3, 5).unwrap();

        assert_eq!(pruned_calls, full.calls, "{kind:?}: evaluation count");
        assert_eq!(got.len(), params.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                estimate_bits(g),
                estimate_bits(w),
                "{kind:?}: layer {i} trace {g:?} vs {w:?}"
            );
        }
        assert!(
            got.iter().any(|e| e.mean != 0.0),
            "{kind:?}: all traces zero"
        );
    }
}

/// The tensor orders the staleness test walks: ascending, descending and
/// a seeded shuffle.
fn orders(n: usize) -> [Vec<usize>; 3] {
    let mut shuffled: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(47);
    for i in (1..n).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    [(0..n).collect(), (0..n).rev().collect(), shuffled]
}

#[test]
fn a_restarted_forward_never_serves_a_stale_layer_input() {
    let (x, labels) = batch(8);
    for kind in MODELS {
        let mut net = c10_model(kind);
        let mut reference = net.clone();
        let starts = net.layer_param_starts();
        let base = net.params();
        let mut oracle = BatchOracle::new(&mut net, &x, &labels);
        let mut rng = StdRng::seed_from_u64(53);
        for (o, order) in orders(base.len()).into_iter().enumerate() {
            for (q, &i) in order.iter().enumerate() {
                // Mostly move one tensor of a layer below tensor i's own
                // (whose recorded inputs it feeds), else one of i's layer,
                // by one of two steps; sometimes move none. Points recur,
                // so a key that lags the recorded inputs is caught too.
                let mut params = base.clone();
                let owner_start = starts[starts.partition_point(|&s| s <= i) - 1];
                let moved = match owner_start {
                    0 => rng.gen_range(0..=i),
                    below => rng.gen_range(0..below),
                };
                let step = [0.0f32, 0.01, 0.02][rng.gen_range(0..3usize)];
                for v in params[moved].data_mut() {
                    *v += step;
                }
                let got = oracle.grad_of(&params, i).unwrap();
                reference.set_params(&params).unwrap();
                let want = param_grad(&mut reference, 0, &x, &labels, i, &mut Vec::new()).unwrap();
                assert!(
                    bits(&got) == bits(&want),
                    "{kind:?}: order {o}, query {q}: tensor {i} after moving tensor {moved}"
                );
                if q % 4 == 3 {
                    let (_, full) = oracle.grad(&params).unwrap();
                    assert!(
                        bits(&full[i]) == bits(&want),
                        "{kind:?}: grad after query {q}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_first_evaluation_updates_every_running_statistic() {
    let (x, labels) = batch(8);
    for kind in MODELS {
        let mut net = c10_model(kind);
        let mut reference = net.clone();
        let params = net.params();
        let last = params.len() - 1;
        BatchOracle::new(&mut net, &x, &labels)
            .grad_of(&params, last)
            .unwrap();
        loss_and_grads(&mut reference, &x, &labels).unwrap();
        assert_ne!(net.state(), c10_model(kind).state(), "{kind:?}: no update");
        assert_eq!(net.state(), reference.state(), "{kind:?}");
    }
}
