//! `loss_and_grads` asks backward for the parameters only, so the input
//! batch's gradient (the first conv's dX) is never computed. Its parameter
//! gradients must be bitwise those of a backward over every leaf, and each
//! gradient evaluation must run exactly one product fewer: that dX.
//!
//! Lives in its own integration-test binary because the counters are
//! process-global; unit tests elsewhere in the workspace must not add to
//! them mid-measurement.

use hero_autodiff::{Graph, TraceOp};
use hero_core::experiment::model_config;
use hero_data::Preset;
use hero_nn::loss_and_grads;
use hero_nn::models::ModelKind;
use hero_nn::Network;
use hero_obs::counters::{GEMM_CALLS, GEMM_FLOPS};
use hero_tensor::rng::StdRng;
use hero_tensor::Tensor;

/// GEMM calls and flops that `f` counts.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, flops) = (GEMM_CALLS.get(), GEMM_FLOPS.get());
    let out = f();
    (out, GEMM_CALLS.get() - calls, GEMM_FLOPS.get() - flops)
}

/// Parameter gradients of a backward whose `wrt` holds every leaf, the
/// input batch's included, and the flops of the input batch's dX product.
fn full_backward(net: &mut Network, x: &Tensor, labels: &[usize]) -> (Vec<Tensor>, u64) {
    let mut g = Graph::new();
    let (logits, vars) = net.forward(&mut g, x).unwrap();
    let loss = g.cross_entropy(logits, labels).unwrap();
    // The forward records the batch as the tape's first node, so the first
    // handle a fresh graph issues names it; with the parameters it makes
    // up every leaf of the tape.
    let input = Graph::new().input(Tensor::zeros([0]));
    let trace = g.trace();
    assert_eq!(trace[input.index()].op, TraceOp::Input);
    let leaves = trace.iter().filter(|n| n.op == TraceOp::Input).count();
    assert_eq!(leaves, vars.len() + 1);
    let grads = g.backward(loss, &[&[input], &vars[..]].concat()).unwrap();
    assert_eq!(grads.get(input).unwrap().dims(), x.dims());
    // The dX product of the conv reading the input: `C·k·k` taps against
    // every output element.
    let stem = trace
        .iter()
        .find(|n| n.parents.first() == Some(&input.index()));
    let stem = stem.expect("a node reads the input batch");
    let TraceOp::Conv2d { geom } = stem.op else {
        panic!("the input batch feeds {:?}, not a conv", stem.op);
    };
    let taps = x.dims()[1] * geom.kernel * geom.kernel;
    let dx_flops = 2 * taps * stem.shape.iter().product::<usize>();
    let params = vars
        .iter()
        .map(|&v| grads.get(v).unwrap().clone())
        .collect();
    (params, dx_flops as u64)
}

#[test]
fn parameter_gradients_skip_the_input_batch_bitwise() {
    hero_obs::enable();
    let cfg = model_config(Preset::C10);
    let (n, hw) = (8, cfg.input_hw);
    let x = Tensor::from_fn([n, cfg.in_channels, hw, hw], |i| {
        ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
    });
    let labels: Vec<usize> = (0..n).map(|i| i % cfg.classes).collect();
    for kind in [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg] {
        let mut net = kind.build(cfg, &mut StdRng::seed_from_u64(3));
        let (lean, lean_calls, lean_flops) = counted(|| loss_and_grads(&mut net, &x, &labels));
        let ((full, dx_flops), full_calls, full_flops) =
            counted(|| full_backward(&mut net, &x, &labels));
        let lean = lean.unwrap().grads;
        assert_eq!(lean.len(), full.len(), "{kind:?}");
        for (i, (a, b)) in lean.iter().zip(&full).enumerate() {
            assert_eq!(a.dims(), b.dims(), "{kind:?} param {i}");
            for (j, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{kind:?} param {i} elem {j}");
            }
        }
        assert_eq!(lean_calls + 1, full_calls, "{kind:?} GEMM calls");
        assert_eq!(lean_flops + dx_flops, full_flops, "{kind:?} GEMM flops");
    }
    hero_obs::disable();
}
