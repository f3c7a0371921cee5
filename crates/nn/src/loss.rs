//! Loss evaluation and accuracy metrics over a network.

use crate::module::Network;
use hero_autodiff::Graph;
use hero_tensor::{Result, Tensor, TensorError};

/// Loss value and per-parameter gradients from one forward/backward pass.
#[derive(Debug)]
pub struct LossAndGrads {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// Gradient for every parameter tensor, canonical order.
    pub grads: Vec<Tensor>,
}

/// Runs a train-mode forward/backward pass, returning the batch loss and
/// per-parameter gradients in the network's canonical order.
///
/// This is the single gradient-evaluation primitive all training methods
/// (SGD, SAM, GRAD-L1, HERO) are built from; HERO calls it up to three
/// times per step. Backward asks for the parameters only, so the input
/// batch's gradient (the first conv's dX) is never computed. The graph and
/// every intermediate adjoint are recycled into the thread-local scratch
/// pool before returning, so repeated calls re-lease the same buffers
/// instead of allocating (the zero-allocation hot path — see
/// `hero_tensor::pool`).
///
/// # Errors
///
/// Returns shape errors if the batch is incompatible with the network or
/// labels are invalid.
pub fn loss_and_grads(net: &mut Network, x: &Tensor, labels: &[usize]) -> Result<LossAndGrads> {
    forward_backward(net, 0, x, labels, None, &mut Vec::new())
}

/// The gradient of parameter tensor `index` (canonical order) alone: the
/// train-mode pass of [`loss_and_grads`] from top-level layer `start`,
/// whose input is `x` (the batch when `start` is 0), and a backward that
/// runs only the ops between the loss and that tensor. With `start` 0 the
/// result is bitwise tensor `index` of [`loss_and_grads`], because the
/// pruned backward skips only adjoints that never reach it. The layers
/// below `start` do not run: when `x` is the input the whole pass gives
/// layer `start`, and tensor `index` belongs to that layer or one above,
/// the result is bitwise the same, since layers `start..` see the same
/// inputs and parameters and the backward never reaches below the layer
/// that owns tensor `index`. The inputs of the layers after `start` up to
/// that owner are cloned onto `kept` as the pass reaches them (see
/// [`Network::forward_from`]).
///
/// # Errors
///
/// Same contract as [`loss_and_grads`], plus
/// [`TensorError::InvalidArgument`] for an `index` out of range or one
/// that belongs to a layer below `start`.
pub fn param_grad(
    net: &mut Network,
    start: usize,
    x: &Tensor,
    labels: &[usize],
    index: usize,
    kept: &mut Vec<Tensor>,
) -> Result<Tensor> {
    let starts = net.layer_param_starts();
    let Some(only) = starts
        .get(start)
        .and_then(|&first| index.checked_sub(first))
    else {
        return Err(TensorError::InvalidArgument(format!(
            "parameter {index} is not in layers {start}..{}",
            starts.len()
        )));
    };
    let owner = starts.partition_point(|&s| s <= index) - 1;
    let mut out = forward_backward(net, start, x, labels, Some((only, owner)), kept)?;
    Ok(out.grads.swap_remove(0))
}

/// One train-mode forward from top-level layer `start` (input `x`) and a
/// backward to every parameter of layers `start..`, or, for `only =
/// Some((i, owner))`, to the `i`-th of them alone while the inputs of
/// layers `start + 1..=owner` are cloned onto `kept`; the gradients come
/// back in that order.
fn forward_backward(
    net: &mut Network,
    start: usize,
    x: &Tensor,
    labels: &[usize],
    only: Option<(usize, usize)>,
    kept: &mut Vec<Tensor>,
) -> Result<LossAndGrads> {
    let mut g = Graph::new();
    let fwd = hero_obs::span("forward");
    let keep_to = only.map_or(0, |(_, owner)| owner);
    let (logits, vars) = net.forward_from(&mut g, start, x, keep_to, kept)?;
    let loss = g.cross_entropy(logits, labels)?;
    let loss_value = g.value(loss).item()?;
    drop(fwd);
    let wrt = match only {
        None => &vars[..],
        Some((i, _)) => vars.get(i..=i).ok_or_else(|| {
            TensorError::InvalidArgument(format!("parameter {i} of {}", vars.len()))
        })?,
    };
    let _bwd = hero_obs::span("backward");
    let mut grads = g.backward(loss, wrt)?;
    let grad_tensors = wrt
        .iter()
        .map(|&v| {
            grads
                .take(v)
                .unwrap_or_else(|| Tensor::zeros(g.value(v).shape().clone()))
        })
        .collect();
    grads.recycle();
    g.reset();
    Ok(LossAndGrads {
        loss: loss_value,
        grads: grad_tensors,
    })
}

/// Computes the mean cross-entropy loss in eval mode: the graph's
/// cross-entropy op applied to the logits of [`Network::predict`].
///
/// # Errors
///
/// Returns shape errors if the batch is incompatible with the network or
/// labels are invalid.
pub fn eval_loss(net: &Network, x: &Tensor, labels: &[usize]) -> Result<f32> {
    let _obs = hero_obs::span("forward");
    let mut g = Graph::new();
    let logits = g.input(net.predict(x)?);
    let loss = g.cross_entropy(logits, labels)?;
    let value = g.value(loss).item();
    g.reset();
    value
}

/// Evaluates classification accuracy over a dataset in mini-batches, in
/// one `eval` span.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `batch` is 0 or there are
/// fewer labels than samples, [`TensorError::RankMismatch`] if `xs` is a
/// scalar (it has no sample axis), and shape errors if any batch is
/// incompatible with the network.
pub fn evaluate_accuracy(
    net: &Network,
    xs: &Tensor,
    labels: &[usize],
    batch: usize,
) -> Result<f32> {
    let Some(&n) = xs.dims().first() else {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: 0,
        });
    };
    if batch == 0 {
        return Err(TensorError::InvalidArgument(
            "evaluation batch size must be positive".to_string(),
        ));
    }
    if labels.len() < n {
        return Err(TensorError::InvalidArgument(format!(
            "{} labels for {n} samples",
            labels.len()
        )));
    }
    let _eval = hero_obs::span("eval");
    let mut correct = 0usize;
    let mut start = 0;
    while start < n {
        let len = batch.min(n - start);
        let xb = xs.narrow(start, len)?;
        let logits = net.predict(&xb)?;
        let preds = logits.argmax_rows()?;
        correct += preds
            .iter()
            .zip(&labels[start..start + len])
            .filter(|(p, l)| p == l)
            .count();
        start += len;
    }
    Ok(correct as f32 / n.max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{mlp, ModelConfig};
    use hero_tensor::rng::StdRng;

    fn tiny_net() -> Network {
        let cfg = ModelConfig {
            classes: 3,
            in_channels: 1,
            input_hw: 2,
            width: 4,
        };
        mlp(cfg, &[8], &mut StdRng::seed_from_u64(3))
    }

    fn batch() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_fn([4, 1, 2, 2], |i| (i.iter().sum::<usize>() % 3) as f32 - 1.0);
        (x, vec![0, 1, 2, 0])
    }

    #[test]
    fn loss_and_grads_aligns_with_params() {
        let mut net = tiny_net();
        let (x, y) = batch();
        let out = loss_and_grads(&mut net, &x, &y).unwrap();
        let params = net.params();
        assert_eq!(out.grads.len(), params.len());
        for (g, p) in out.grads.iter().zip(&params) {
            assert_eq!(g.shape(), p.shape());
        }
        assert!(out.loss > 0.0);
        assert!(out.loss.is_finite());
    }

    #[test]
    fn gradient_descent_on_grads_reduces_loss() {
        let mut net = tiny_net();
        let (x, y) = batch();
        let first = loss_and_grads(&mut net, &x, &y).unwrap();
        let mut params = net.params();
        for (p, g) in params.iter_mut().zip(&first.grads) {
            p.axpy(-0.5, g).unwrap();
        }
        net.set_params(&params).unwrap();
        let second = loss_and_grads(&mut net, &x, &y).unwrap();
        assert!(
            second.loss < first.loss,
            "{} !< {}",
            second.loss,
            first.loss
        );
    }

    #[test]
    fn eval_loss_matches_magnitude() {
        let net = tiny_net();
        let (x, y) = batch();
        let l = eval_loss(&net, &x, &y).unwrap();
        assert!(l > 0.0 && l < 10.0);
    }

    #[test]
    fn evaluate_accuracy_batches_consistently() {
        let net = tiny_net();
        let (x, y) = batch();
        let a1 = evaluate_accuracy(&net, &x, &y, 2).unwrap();
        let a2 = evaluate_accuracy(&net, &x, &y, 4).unwrap();
        let a3 = evaluate_accuracy(&net, &x, &y, 3).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(a1, a3);
        assert!((0.0..=1.0).contains(&a1));
    }

    #[test]
    fn evaluate_accuracy_rejects_zero_batch() {
        let net = tiny_net();
        let (x, y) = batch();
        let err = evaluate_accuracy(&net, &x, &y, 0).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn evaluate_accuracy_rejects_missing_labels() {
        let net = tiny_net();
        let (x, y) = batch();
        let err = evaluate_accuracy(&net, &x, &y[..3], 2).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument(_)), "{err}");
    }
}
