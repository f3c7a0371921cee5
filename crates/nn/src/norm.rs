//! Batch normalization with running statistics.

use crate::module::{EntryMut, Layer, ParamKind, Walk};
use hero_autodiff::{Graph, Var};
use hero_tensor::{Result, Tensor, TensorError};
use std::cell::Cell;

thread_local! {
    /// Whether train-mode batch-norm forwards update running statistics.
    ///
    /// Perturbed-gradient methods (SAM, GRAD-L1, HERO) evaluate gradients
    /// at *shifted* weights several times per step; if every evaluation
    /// updated the running estimates, eval-mode normalization would track
    /// the perturbed weights instead of the real ones (a known BN pitfall
    /// of SAM-family methods). The batch oracle disables updates for all
    /// but the first evaluation of each step.
    static UPDATE_RUNNING_STATS: Cell<bool> = const { Cell::new(true) };
}

/// Enables or disables running-statistic updates for train-mode batch
/// norm on this thread. Returns the previous value.
pub fn set_bn_running_stat_updates(on: bool) -> bool {
    UPDATE_RUNNING_STATS.with(|c| c.replace(on))
}

/// Whether train-mode batch norm currently updates running statistics.
pub fn bn_running_stat_updates() -> bool {
    UPDATE_RUNNING_STATS.with(Cell::get)
}

/// 2-D batch normalization over NCHW inputs.
///
/// The graph forward ([`Layer::forward`]) is the training mode: the batch
/// statistics normalize the activations (via [`Graph::batch_norm`], which
/// has a full backward rule) and exponentially update the running
/// estimates. The eval mode ([`Layer::infer`]) normalizes by the running
/// statistics in one in-place pass per element.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm2d {
    /// Creates a batch norm for `channels` with γ=1, β=0, momentum 0.1.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones([channels]),
            beta: Tensor::zeros([channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.numel()
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let gamma = g.input(self.gamma.clone());
        let beta = g.input(self.beta.clone());
        vars.push(gamma);
        vars.push(beta);
        let (y, stats) = g.batch_norm(x, gamma, beta, self.eps)?;
        if bn_running_stat_updates() {
            for (r, &b) in self.running_mean.iter_mut().zip(&stats.mean) {
                *r = (1.0 - self.momentum) * *r + self.momentum * b;
            }
            for (r, &b) in self.running_var.iter_mut().zip(&stats.var) {
                *r = (1.0 - self.momentum) * *r + self.momentum * b;
            }
        }
        Ok(y)
    }

    /// `y = γ·(x − mean)/sqrt(var + eps) + β` with the running statistics,
    /// evaluated per element as `((x·inv) + shift)·γ + β` for
    /// `inv = 1/sqrt(var + eps)` and `shift = −mean·inv`: four roundings
    /// in that order, no fused multiply-add.
    fn infer(&self, mut x: Tensor) -> Result<Tensor> {
        if x.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.rank(),
            });
        }
        let c = self.channels();
        let d = x.dims();
        if d[1] != c {
            return Err(TensorError::ShapeMismatch {
                left: vec![d[1]],
                right: vec![c],
            });
        }
        let hw = d[2] * d[3];
        let (gamma, beta) = (self.gamma.data(), self.beta.data());
        for (plane, ch) in x.data_mut().chunks_exact_mut(hw.max(1)).zip((0..c).cycle()) {
            let inv = 1.0 / (self.running_var[ch] + self.eps).sqrt();
            let shift = -self.running_mean[ch] * inv;
            let (ga, be) = (gamma[ch], beta[ch]);
            for v in plane {
                *v = ((*v * inv) + shift) * ga + be;
            }
        }
        Ok(x)
    }

    fn walk(&self, w: &mut Walk<'_>) {
        w.param("gamma", ParamKind::BnGamma, &self.gamma);
        w.param("beta", ParamKind::BnBeta, &self.beta);
        w.state("running_mean", &self.running_mean);
        w.state("running_var", &self.running_var);
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        f(EntryMut::Param(&mut self.gamma));
        f(EntryMut::Param(&mut self.beta));
        f(EntryMut::State(&mut self.running_mean));
        f(EntryMut::State(&mut self.running_var));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Network, Sequential};

    fn wrap(bn: BatchNorm2d) -> Network {
        Network::new("bn", Sequential::new().push("bn1", bn))
    }

    fn sample_input() -> Tensor {
        Tensor::from_fn([4, 2, 3, 3], |i| {
            (i[0] * 3 + i[1] * 7 + i[2] + i[3]) as f32 * 0.3 - 2.0
        })
    }

    #[test]
    fn train_mode_normalizes_and_updates_running_stats() {
        let mut bn = BatchNorm2d::new(2);
        let before_mean = bn.running_mean.clone();
        let mut g = Graph::new();
        let x = g.input(sample_input());
        let mut vars = Vec::new();
        let y = bn.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[4, 2, 3, 3]);
        assert_ne!(bn.running_mean, before_mean);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(2);
        // Train several times to move running stats toward batch stats.
        for _ in 0..200 {
            let mut g = Graph::new();
            let x = g.input(sample_input());
            let mut vars = Vec::new();
            bn.forward(&mut g, x, &mut vars).unwrap();
        }
        // Eval output should now be close to train-mode normalization.
        let mut g_train = Graph::new();
        let x1 = g_train.input(sample_input());
        let mut v1 = Vec::new();
        let y_train = bn.forward(&mut g_train, x1, &mut v1).unwrap();
        let y_eval = bn.infer(sample_input()).unwrap();
        let diff = g_train.value(y_train).sub(&y_eval).unwrap().norm_linf();
        assert!(diff < 0.1, "train/eval divergence {diff}");
    }

    #[test]
    fn eval_mode_is_deterministic_and_affine() {
        let bn = BatchNorm2d::new(2);
        let y = bn.infer(sample_input()).unwrap();
        // Fresh BN has mean 0, var 1 => eval output ~= input (eps shrinks slightly).
        let diff = y.sub(&sample_input()).unwrap().norm_linf();
        assert!(diff < 1e-3);
    }

    /// The fused pass rounds as the four broadcast ops of the eval formula
    /// would, one op at a time: `x·inv`, `+ shift`, `·γ`, `+ β`.
    #[test]
    fn eval_mode_matches_the_broadcast_chain_bitwise() {
        let mut bn = BatchNorm2d::new(2);
        bn.running_mean = vec![0.3, -1.7];
        bn.running_var = vec![2.9, 0.41];
        bn.gamma = Tensor::from_vec(vec![1.3, -0.6], [2]).unwrap();
        bn.beta = Tensor::from_vec(vec![-0.2, 0.9], [2]).unwrap();
        let per_channel = |f: &dyn Fn(usize) -> f32| Tensor::from_fn([1, 2, 1, 1], |i| f(i[1]));
        let inv = per_channel(&|c| 1.0 / (bn.running_var[c] + bn.eps).sqrt());
        let shift = per_channel(&|c| -bn.running_mean[c] * inv.data()[c]);
        let gamma = per_channel(&|c| bn.gamma.data()[c]);
        let beta = per_channel(&|c| bn.beta.data()[c]);
        let x = sample_input();
        let chain = x.bmul(&inv).unwrap().badd(&shift).unwrap();
        let chain = chain.bmul(&gamma).unwrap().badd(&beta).unwrap();
        assert_eq!(bn.infer(x).unwrap(), chain);
    }

    #[test]
    fn eval_mode_rejects_rank_and_channel_mismatches() {
        let bn = BatchNorm2d::new(2);
        let err = bn.infer(Tensor::zeros([4, 2])).unwrap_err();
        assert!(matches!(err, TensorError::RankMismatch { .. }), "{err}");
        let err = bn.infer(Tensor::zeros([4, 3, 2, 2])).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn params_round_trip_with_kinds() {
        let net = wrap(BatchNorm2d::new(3));
        let ps = net.params();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].data(), &[1.0, 1.0, 1.0]);
        assert_eq!(ps[1].data(), &[0.0, 0.0, 0.0]);
        let infos = net.param_infos();
        assert_eq!(infos[0].kind, ParamKind::BnGamma);
        assert_eq!(infos[1].kind, ParamKind::BnBeta);
        assert!(infos[0].name.ends_with("gamma"));
        assert_eq!(BatchNorm2d::new(3).channels(), 3);
    }

    #[test]
    fn assign_params_validates_shape() {
        let mut net = wrap(BatchNorm2d::new(3));
        let bad = [Tensor::ones([4]), Tensor::zeros([3])];
        assert!(net.set_params(&bad).is_err());
        let good = [Tensor::full([3], 2.0), Tensor::full([3], 0.5)];
        net.set_params(&good).unwrap();
        assert_eq!(net.params()[0].data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn state_round_trip_validates_lengths() {
        let mut net = wrap(BatchNorm2d::new(2));
        let names: Vec<String> = net.state().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["bn1.running_mean", "bn1.running_var"]);
        let good = vec![
            ("m".to_string(), vec![0.5, -0.5]),
            ("v".to_string(), vec![2.0, 3.0]),
        ];
        net.set_state(&good).unwrap();
        assert_eq!(net.state()[1].1, [2.0, 3.0]);
        let short = vec![("m".to_string(), vec![0.5])];
        assert!(net.set_state(&short).is_err());
        assert!(net.set_state(&good[..1]).is_err());
    }
}

#[cfg(test)]
mod stat_freeze_tests {
    use super::*;

    #[test]
    fn frozen_stats_do_not_move() {
        let mut bn = BatchNorm2d::new(2);
        let x_data = Tensor::from_fn([4, 2, 3, 3], |i| (i.iter().sum::<usize>() % 7) as f32);
        let before = bn.running_mean.clone();
        let prev = set_bn_running_stat_updates(false);
        {
            let mut g = hero_autodiff::Graph::new();
            let x = g.input(x_data.clone());
            let mut vars = Vec::new();
            bn.forward(&mut g, x, &mut vars).unwrap();
        }
        set_bn_running_stat_updates(prev);
        assert_eq!(bn.running_mean, before);
        // With updates re-enabled, stats move again.
        assert!(bn_running_stat_updates());
        let mut g = hero_autodiff::Graph::new();
        let x = g.input(x_data);
        let mut vars = Vec::new();
        bn.forward(&mut g, x, &mut vars).unwrap();
        assert_ne!(bn.running_mean, before);
    }
}
