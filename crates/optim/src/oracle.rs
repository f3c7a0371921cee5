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
#[derive(Debug)]
pub struct BatchOracle<'a> {
    net: &'a mut Network,
    x: &'a Tensor,
    labels: &'a [usize],
    calls: usize,
}

impl<'a> BatchOracle<'a> {
    /// Binds a network to one mini-batch.
    pub fn new(net: &'a mut Network, x: &'a Tensor, labels: &'a [usize]) -> Self {
        BatchOracle {
            net,
            x,
            labels,
            calls: 0,
        }
    }

    /// Number of gradient evaluations performed so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// One gradient evaluation at `params`: installs them, runs `pass`
    /// (a train-mode forward/backward over the batch) and counts the call.
    fn evaluate<T>(
        &mut self,
        params: &[Tensor],
        pass: impl FnOnce(&mut Network, &Tensor, &[usize]) -> Result<T>,
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
        let out = pass(self.net, self.x, self.labels);
        hero_nn::norm::set_bn_running_stat_updates(prev);
        self.calls += 1;
        out
    }
}

impl GradOracle for BatchOracle<'_> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        let out = self.evaluate(params, loss_and_grads)?;
        Ok((out.loss, out.grads))
    }

    /// Backprops only to tensor `index` ([`param_grad`]).
    fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        self.evaluate(params, |net, x, labels| param_grad(net, x, labels, index))
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
        let acc = evaluate_accuracy(&mut net, &x, &y, 8).unwrap();
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
