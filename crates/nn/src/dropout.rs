//! Dropout layer (the classic generalization baseline the paper's related
//! work compares against).

use crate::module::Layer;
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::Rng;
use hero_tensor::rng::StdRng;
use hero_tensor::{Result, Tensor};

/// Inverted dropout: at training time each activation is kept with
/// probability `keep_prob` and scaled by `1/keep_prob`; at eval time the
/// layer is the identity.
///
/// The layer owns its RNG (seeded at construction) so serial training
/// runs stay reproducible. That same owned RNG makes the layer
/// [`Layer::rng_stateful`]: cloned replicas advance their RNG copies
/// independently, so the data-parallel executor refuses networks that
/// contain a masking dropout layer.
#[derive(Debug, Clone)]
pub struct Dropout {
    keep_prob: f32,
    rng: StdRng,
}

impl Dropout {
    /// Creates a dropout layer keeping activations with `keep_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `keep_prob` is not in `(0, 1]` — the rate is a fixed
    /// architecture hyper-parameter, so an invalid value is a programming
    /// error.
    pub fn new(keep_prob: f32, seed: u64) -> Self {
        assert!(
            keep_prob > 0.0 && keep_prob <= 1.0,
            "keep probability {keep_prob} must lie in (0, 1]"
        );
        Dropout {
            keep_prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured keep probability.
    pub fn keep_prob(&self) -> f32 {
        self.keep_prob
    }
}

impl Layer for Dropout {
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool, _vars: &mut Vec<Var>) -> Result<Var> {
        if !train || self.keep_prob >= 1.0 {
            return Ok(x);
        }
        let mut mask = Tensor::zeros(g.value(x).shape().clone());
        for v in mask.data_mut() {
            *v = if self.rng.gen::<f32>() < self.keep_prob {
                1.0
            } else {
                0.0
            };
        }
        g.dropout(x, &mask, self.keep_prob)
    }

    fn rng_stateful(&self) -> bool {
        // keep_prob == 1.0 short-circuits forward before any RNG draw, so
        // only a masking configuration carries scheduling-sensitive state.
        self.keep_prob < 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Network, Sequential};

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones([16]));
        let mut vars = Vec::new();
        let y = d.forward(&mut g, x, false, &mut vars).unwrap();
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn keep_prob_one_is_identity_even_in_train() {
        let mut d = Dropout::new(1.0, 0);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones([8]));
        let mut vars = Vec::new();
        let y = d.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn train_mode_zeroes_roughly_the_right_fraction() {
        let mut d = Dropout::new(0.75, 1);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones([1000]));
        let mut vars = Vec::new();
        let y = d.forward(&mut g, x, true, &mut vars).unwrap();
        let kept = g.value(y).data().iter().filter(|&&v| v != 0.0).count();
        assert!((650..=850).contains(&kept), "kept {kept}/1000 at p=0.75");
        // Kept activations are scaled by 1/keep_prob.
        let nonzero = g.value(y).data().iter().find(|&&v| v != 0.0).unwrap();
        assert!((nonzero - 1.0 / 0.75).abs() < 1e-5);
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut d = Dropout::new(0.5, 2);
        let mut total = 0.0;
        let runs = 200;
        for _ in 0..runs {
            let mut g = Graph::new();
            let x = g.input(Tensor::ones([64]));
            let mut vars = Vec::new();
            let y = d.forward(&mut g, x, true, &mut vars).unwrap();
            total += g.value(y).mean();
        }
        let mean = total / runs as f32;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    #[test]
    fn has_no_parameters() {
        let d = Dropout::new(0.5, 3);
        assert_eq!(d.keep_prob(), 0.5);
        let net = Network::new("dropout", Sequential::new().push("drop", d));
        assert!(net.params().is_empty());
        assert!(net.rng_stateful());
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn rejects_zero_keep_prob() {
        Dropout::new(0.0, 0);
    }
}
