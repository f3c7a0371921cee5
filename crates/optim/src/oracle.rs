//! Adapters connecting [`hero_nn::Network`] to the model-agnostic
//! [`GradOracle`] interface.

use hero_hessian::GradOracle;
use hero_nn::{loss_and_grads, param_grad, Network};
use hero_tensor::{Result, Tensor};

/// A gradient oracle evaluating one mini-batch's cross-entropy loss on a
/// network.
///
/// Each [`GradOracle::grad`] call installs the supplied parameters into the
/// network, runs a train-mode forward/backward pass, and returns the loss
/// and canonical-order gradients. HERO calls this up to three times per
/// step at different parameter points.
///
/// [`GradOracle::grad_of`] backprops only to the asked tensor and restarts
/// the forward at the deepest top-level layer it can: the inputs of the
/// layers up to the one owning that tensor are recorded by each such call,
/// keyed by the parameters they were computed from. A later call reuses
/// the input of layer `j` (at or below its tensor's owner) only when every
/// parameter tensor below layer `j` is bitwise the key's, so the layers
/// from `j` on see bitwise the inputs and parameters of a full pass and
/// the gradient is bitwise that of a pass from the batch. The first
/// evaluation, the one that updates batch-norm running statistics, never
/// reuses: nothing is recorded before it.
#[derive(Debug)]
pub struct BatchOracle<'a> {
    net: &'a mut Network,
    x: &'a Tensor,
    labels: &'a [usize],
    calls: usize,
    prefix: Prefix,
}

/// The layer inputs recorded by `grad_of` calls and the parameters they
/// were computed from.
#[derive(Debug, Default)]
struct Prefix {
    /// [`Network::layer_param_starts`], filled by the first `grad_of`.
    starts: Vec<usize>,
    /// `inputs[m]` is the input of top-level layer `m + 1`.
    inputs: Vec<Tensor>,
    /// The parameters `inputs` were computed from; the tensors below
    /// `starts[inputs.len()]` are the ones that count.
    key: Vec<Tensor>,
}

impl Prefix {
    /// The deepest top-level layer a pass for tensor `index` at `params`
    /// may start at: one whose input is recorded, at or below the layer
    /// owning `index`, with every tensor below it bitwise the key's.
    fn restart(&self, params: &[Tensor], index: usize) -> usize {
        let same = params
            .iter()
            .zip(&self.key)
            .take(self.starts[self.inputs.len()])
            .take_while(|(p, k)| same_bits(p, k))
            .count();
        let below = same.min(index);
        (0..=self.inputs.len())
            .rev()
            .find(|&j| self.starts[j] <= below)
            .unwrap_or(0)
    }
}

/// Bitwise equality (`-0.0` and `0.0` differ, a NaN equals its own bits).
fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(u, v)| u.to_bits() == v.to_bits())
}

impl<'a> BatchOracle<'a> {
    /// Binds a network to one mini-batch.
    pub fn new(net: &'a mut Network, x: &'a Tensor, labels: &'a [usize]) -> Self {
        BatchOracle {
            net,
            x,
            labels,
            calls: 0,
            prefix: Prefix::default(),
        }
    }

    /// One gradient evaluation at `params`: installs them, runs `pass`
    /// (a train-mode forward/backward over the batch) and counts the call.
    fn evaluate<T>(
        &mut self,
        params: &[Tensor],
        pass: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        hero_obs::counters::GRAD_EVALS.incr();
        let sync = hero_obs::span("sync");
        self.net.set_params(params)?;
        drop(sync);
        // Only the first evaluation of a step sees the unperturbed weights;
        // SAM/GRAD-L1/HERO evaluate additional gradients at *shifted*
        // weights, which must not contaminate the batch-norm running
        // statistics used at eval time.
        let prev = hero_nn::norm::set_bn_running_stat_updates(self.calls == 0);
        let out = pass(self);
        hero_nn::norm::set_bn_running_stat_updates(prev);
        self.calls += 1;
        out
    }

    /// The gradient of tensor `index` at the installed `params`, started
    /// at [`Prefix::restart`]'s layer; records the inputs of the layers
    /// after it up to the tensor's owner and moves the key to `params`.
    fn restarted_grad(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        let p = &mut self.prefix;
        if p.starts.is_empty() {
            p.starts = self.net.layer_param_starts();
            p.key = params.to_vec();
        }
        let start = p.restart(params, index);
        p.inputs.truncate(start);
        let input = start.checked_sub(1).map_or(self.x, |m| &p.inputs[m]);
        let mut kept = Vec::new();
        let grad = param_grad(self.net, start, input, self.labels, index, &mut kept)?;
        p.inputs.append(&mut kept);
        let moved = p.starts[start]..p.starts[p.inputs.len()];
        for (k, t) in p.key[moved.clone()].iter_mut().zip(&params[moved]) {
            k.copy_from(t)?;
        }
        Ok(grad)
    }
}

impl GradOracle for BatchOracle<'_> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        let out = self.evaluate(params, |o| loss_and_grads(o.net, o.x, o.labels))?;
        Ok((out.loss, out.grads))
    }

    /// Backprops only to tensor `index`, from the deepest recorded layer
    /// input the parameters below it still produce (see [`BatchOracle`]).
    fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        self.evaluate(params, |o| o.restarted_grad(params, index))
    }
}

/// Runs one optimization step of `optimizer` on `net` with the given batch,
/// leaving the updated parameters installed in the network.
///
/// The decay mask is derived from the network's parameter kinds (weights
/// decay; biases and batch-norm parameters do not).
///
/// # Errors
///
/// Returns shape errors if the batch is incompatible with the network.
pub fn train_step(
    net: &mut Network,
    optimizer: &mut crate::method::Optimizer,
    x: &Tensor,
    labels: &[usize],
    lr: f32,
) -> Result<crate::method::StepStats> {
    let _step = hero_obs::span("train_step");
    let sync = hero_obs::span("sync");
    let mut params = net.params();
    let decay_mask: Vec<bool> = net
        .param_infos()
        .iter()
        .map(|i| i.kind.is_decayed())
        .collect();
    drop(sync);
    let stats = {
        let mut oracle = BatchOracle::new(net, x, labels);
        optimizer.step(&mut oracle, &mut params, &decay_mask, lr)?
    };
    let _sync = hero_obs::span("sync");
    net.set_params(&params)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{Method, Optimizer};
    use hero_nn::evaluate_accuracy;
    use hero_nn::models::{mlp, ModelConfig};
    use hero_tensor::rng::StdRng;

    fn toy_problem() -> (Network, Tensor, Vec<usize>) {
        let cfg = ModelConfig {
            classes: 2,
            in_channels: 1,
            input_hw: 2,
            width: 4,
        };
        let net = mlp(cfg, &[12], &mut StdRng::seed_from_u64(5));
        // Linearly separable toy data: class = sign of first pixel.
        let n = 16;
        let x = Tensor::from_fn([n, 1, 2, 2], |i| {
            let sign = if i[0] % 2 == 0 { 1.0 } else { -1.0 };
            sign * (1.0 + 0.1 * (i[3] as f32))
        });
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        (net, x, labels)
    }

    #[test]
    fn batch_oracle_round_trips_params() {
        let (mut net, x, y) = toy_problem();
        let params = net.params();
        let mut oracle = BatchOracle::new(&mut net, &x, &y);
        let (loss, grads) = oracle.grad(&params).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(grads.len(), params.len());
    }

    #[test]
    fn train_step_reduces_loss_for_all_methods() {
        for method in [
            Method::Sgd,
            Method::FirstOrderOnly { h: 0.01 },
            Method::GradL1 { lambda: 0.01 },
            Method::Hero {
                h: 0.01,
                gamma: 0.1,
            },
        ] {
            let (mut net, x, y) = toy_problem();
            let mut opt = Optimizer::new(method);
            let first = train_step(&mut net, &mut opt, &x, &y, 0.05).unwrap();
            let mut last = first;
            for _ in 0..30 {
                last = train_step(&mut net, &mut opt, &x, &y, 0.05).unwrap();
            }
            assert!(
                last.loss < first.loss,
                "{}: loss {} !< {}",
                method.name(),
                last.loss,
                first.loss
            );
        }
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let (mut net, x, y) = toy_problem();
        let mut opt = Optimizer::new(Method::Hero {
            h: 0.01,
            gamma: 0.05,
        });
        for _ in 0..60 {
            train_step(&mut net, &mut opt, &x, &y, 0.05).unwrap();
        }
        let acc = evaluate_accuracy(&net, &x, &y, 8).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn train_step_installs_updated_params() {
        let (mut net, x, y) = toy_problem();
        let before = net.params();
        let mut opt = Optimizer::new(Method::Sgd);
        train_step(&mut net, &mut opt, &x, &y, 0.1).unwrap();
        let after = net.params();
        assert_ne!(before, after);
    }
}
