//! The exact work a layer-trace sweep saves by restarting its forwards.
//!
//! `BatchOracle::grad_of` starts the forward at a recorded layer input
//! when the parameters below that layer did not move. A `layer_traces`
//! sweep runs from the last tensor to the first and the probe of tensor
//! `ℓ` moves tensor `ℓ` alone, so every probe restarts at the layer owning
//! tensor `ℓ` (the tensor restored since the previous query lies above
//! it), except the sweep's first query, which has nothing recorded and
//! starts at the batch.
//! The sweep must run exactly `trace_probes·n_tensors` gradient
//! evaluations, and each query exactly the GEMM calls and flops of the
//! same query without restarts, less the forward products of the layers
//! it skipped. Integers that host noise cannot move.
//!
//! Lives in its own integration-test binary because the counters are
//! process-global; unit tests elsewhere in the workspace must not add to
//! them mid-measurement.

use hero_data::Preset;
use hero_hessian::{layer_traces, GradOracle};
use hero_nn::models::{ModelConfig, ModelKind};
use hero_nn::{loss_and_grads, param_grad, Network};
use hero_obs::counters::{GEMM_CALLS, GEMM_FLOPS, GRAD_EVALS};
use hero_optim::BatchOracle;
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Result, Tensor};

const PROBES: usize = 2;

/// GEMM calls and flops that `f` counts.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 2]) {
    let (calls, flops) = (GEMM_CALLS.get(), GEMM_FLOPS.get());
    let out = f();
    (out, [GEMM_CALLS.get() - calls, GEMM_FLOPS.get() - flops])
}

/// The pruned single-tensor gradient with every forward from the batch.
struct FromTheBatch<'a> {
    net: &'a mut Network,
    x: &'a Tensor,
    labels: &'a [usize],
}

/// Records the GEMM calls and flops of each `grad_of` query it forwards.
struct PerQuery<O> {
    inner: O,
    work: Vec<[u64; 2]>,
}

impl<O: GradOracle> PerQuery<O> {
    fn new(inner: O) -> Self {
        PerQuery {
            inner,
            work: Vec::new(),
        }
    }
}

impl<O: GradOracle> GradOracle for PerQuery<O> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        self.inner.grad(params)
    }

    fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        let (out, work) = counted(|| self.inner.grad_of(params, index));
        self.work.push(work);
        out
    }
}

impl GradOracle for FromTheBatch<'_> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        self.net.set_params(params)?;
        let out = loss_and_grads(self.net, self.x, self.labels)?;
        Ok((out.loss, out.grads))
    }

    fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        self.net.set_params(params)?;
        param_grad(self.net, 0, self.x, self.labels, index, &mut Vec::new())
    }
}

#[test]
fn a_trace_sweep_skips_exactly_the_forward_below_each_restart() {
    hero_obs::enable();
    let cfg = ModelConfig {
        classes: Preset::C10.classes(),
        in_channels: 3,
        input_hw: Preset::C10.input_hw(),
        width: 8,
    };
    let hw = cfg.input_hw;
    let mut rng = StdRng::seed_from_u64(31);
    let x = Tensor::from_fn([8, 3, hw, hw], |_| rng.gen_range(-1.0f32..1.0));
    let labels: Vec<usize> = (0..8).map(|i| i % cfg.classes).collect();
    for kind in [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg] {
        let mut net = kind.build(cfg, &mut StdRng::seed_from_u64(13));
        let params = net.params();
        let n = params.len();
        let starts = net.layer_param_starts();
        let owner = |i: usize| starts.partition_point(|&s| s <= i) - 1;

        // The forward products below each layer: a pass to the last
        // tensor from layer j runs those of layer 0 less what it skips.
        let mut inputs = Vec::new();
        let (_, whole) =
            counted(|| param_grad(&mut net, 0, &x, &labels, n - 1, &mut inputs).unwrap());
        let mut below = vec![[0, 0]];
        for (m, input) in inputs.iter().enumerate() {
            let (_, from) = counted(|| {
                param_grad(&mut net, m + 1, input, &labels, n - 1, &mut Vec::new()).unwrap()
            });
            below.push([whole[0] - from[0], whole[1] - from[1]]);
        }

        let mut plain_net = net.clone();
        let mut plain = PerQuery::new(FromTheBatch {
            net: &mut plain_net,
            x: &x,
            labels: &labels,
        });
        let (_, base) = plain.grad(&params).unwrap();
        let want = layer_traces(&mut plain, &params, &base, PROBES, 1e-3, 5).unwrap();

        let mut oracle = PerQuery::new(BatchOracle::new(&mut net, &x, &labels));
        oracle.grad(&params).unwrap();
        let evals = GRAD_EVALS.get();
        let got = layer_traces(&mut oracle, &params, &base, PROBES, 1e-3, 5).unwrap();
        assert_eq!(GRAD_EVALS.get() - evals, (PROBES * n) as u64, "{kind:?}");
        assert_eq!(got, want, "{kind:?}: traces");

        // The sweep's queries in order: the tensors from the last to the
        // first, each probed PROBES times.
        let queries = (0..n).rev().flat_map(|i| [i; PROBES]);
        assert_eq!(oracle.work.len(), PROBES * n, "{kind:?}: queries");
        let mut skipped = 0;
        for (q, i) in queries.enumerate() {
            let s = below[if q == 0 { 0 } else { owner(i) }];
            let (work, plain) = (oracle.work[q], plain.work[q]);
            let at = format!("{kind:?}: query {q} (tensor {i})");
            assert_eq!(work[0] + s[0], plain[0], "{at}: GEMM calls");
            assert_eq!(work[1] + s[1], plain[1], "{at}: GEMM flops");
            skipped += s[0];
        }
        assert!(skipped > 0, "{kind:?}: no forward skipped");
    }
}
