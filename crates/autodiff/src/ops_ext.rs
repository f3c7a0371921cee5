//! Extended differentiable operations: smooth activations, dropout, and
//! regression losses. Each op carries a hand-written backward rule and a
//! finite-difference gradcheck.

use crate::graph::{Adjoints, Graph, Op, Var};
use hero_tensor::{Result, Tensor, TensorError};

impl Graph {
    /// Logistic sigmoid `1 / (1 + e^(-x))`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(value, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a.0))
    }

    /// Leaky ReLU: `x` for `x > 0`, `slope * x` otherwise.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let value = self.value(a).map(|v| if v > 0.0 { v } else { slope * v });
        self.push(value, Op::LeakyRelu(a.0, slope))
    }

    /// Element-wise natural logarithm (inputs must be positive for finite
    /// output; no clamping is applied).
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.value(a).ln();
        self.push(value, Op::Ln(a.0))
    }

    /// Dropout with the given keep mask: multiplies by `mask / keep_prob`
    /// (inverted dropout). The caller supplies the mask so training loops
    /// control the randomness; at eval time simply skip the op.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `mask` does not match the input shape.
    pub fn dropout(&mut self, a: Var, mask: &Tensor, keep_prob: f32) -> Result<Var> {
        if mask.shape() != self.value(a).shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.value(a).dims().to_vec(),
                right: mask.dims().to_vec(),
            });
        }
        if !(0.0..=1.0).contains(&keep_prob) || keep_prob == 0.0 {
            return Err(TensorError::InvalidArgument(format!(
                "keep probability {keep_prob} must lie in (0, 1]"
            )));
        }
        let scaled_mask = mask.scale(1.0 / keep_prob);
        let value = self.value(a).mul(&scaled_mask)?;
        Ok(self.push(
            value,
            Op::Dropout {
                x: a.0,
                scaled_mask,
            },
        ))
    }

    /// Mean-squared-error loss against a constant target, producing a
    /// scalar node: `mean((x - target)^2)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the target shape differs.
    pub fn mse_loss(&mut self, a: Var, target: &Tensor) -> Result<Var> {
        if target.shape() != self.value(a).shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.value(a).dims().to_vec(),
                right: target.dims().to_vec(),
            });
        }
        let diff = self.value(a).sub(target)?;
        let value = Tensor::scalar(diff.norm_l2_sq() / diff.numel().max(1) as f32);
        let target_lo = target.data().iter().copied().fold(f32::INFINITY, f32::min);
        let target_hi = target
            .data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        Ok(self.push(
            value,
            Op::MseLoss {
                x: a.0,
                diff,
                target_lo,
                target_hi,
            },
        ))
    }

    /// Softmax cross-entropy with label smoothing `eps`: the target
    /// distribution mixes `1 - eps` on the true class with `eps / K`
    /// uniform mass, averaged over the batch.
    ///
    /// # Errors
    ///
    /// Returns shape/label errors mirroring [`Graph::cross_entropy`], or an
    /// invalid-argument error when `eps` is outside `[0, 1)`.
    pub fn cross_entropy_smoothed(
        &mut self,
        logits: Var,
        labels: &[usize],
        eps: f32,
    ) -> Result<Var> {
        if !(0.0..1.0).contains(&eps) {
            return Err(TensorError::InvalidArgument(format!(
                "label smoothing {eps} must lie in [0, 1)"
            )));
        }
        let lv = self.value(logits);
        if lv.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: lv.rank(),
            });
        }
        let (batch, classes) = (lv.dims()[0], lv.dims()[1]);
        if labels.len() != batch {
            return Err(TensorError::InvalidArgument(format!(
                "{} labels for batch of {batch}",
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(TensorError::IndexOutOfRange {
                index: bad,
                size: classes,
            });
        }
        let softmax = lv.softmax_rows()?;
        // loss = -Σ_k q_k log p_k with q = smoothed one-hot.
        let uniform = eps / classes as f32;
        let mut loss = 0.0;
        for (row, &label) in labels.iter().enumerate() {
            for k in 0..classes {
                let q = if k == label {
                    1.0 - eps + uniform
                } else {
                    uniform
                };
                let p = crate::ops_nn::clamp_prob(softmax.data()[row * classes + k]);
                loss -= q * p.ln();
            }
        }
        loss /= batch as f32;
        Ok(self.push(
            Tensor::scalar(loss),
            Op::CrossEntropySmoothed {
                logits: logits.0,
                softmax,
                labels: labels.to_vec(),
                eps,
            },
        ))
    }

    /// Backward routing for the extended ops.
    pub(crate) fn accumulate_ext_parents(
        &self,
        op: &Op,
        grad: &Tensor,
        adj: &mut Adjoints,
    ) -> Result<()> {
        let value = |idx: usize| &self.nodes[idx].value;
        match op {
            Op::Sigmoid(a) => adj.add(*a, || {
                // dy/dx = y (1 - y), where y is this node's value. We
                // recompute from the input to avoid storing a self-index.
                let y = value(*a).map(|v| 1.0 / (1.0 + (-v).exp()));
                let local = y.map(|s| s * (1.0 - s));
                grad.mul(&local)
            })?,
            Op::Tanh(a) => adj.add(*a, || {
                let local = value(*a).map(|v| 1.0 - v.tanh() * v.tanh());
                grad.mul(&local)
            })?,
            Op::LeakyRelu(a, slope) => adj.add(*a, || {
                let s = *slope;
                let local = value(*a).map(|v| if v > 0.0 { 1.0 } else { s });
                grad.mul(&local)
            })?,
            Op::Ln(a) => adj.add(*a, || grad.mul(&value(*a).recip()))?,
            Op::Dropout { x, scaled_mask } => adj.add(*x, || grad.mul(scaled_mask))?,
            Op::MseLoss { x, diff, .. } => adj.add(*x, || {
                let scale = 2.0 * grad.data()[0] / diff.numel().max(1) as f32;
                Ok(diff.scale(scale))
            })?,
            Op::CrossEntropySmoothed {
                logits,
                softmax,
                labels,
                eps,
            } => adj.add(*logits, || {
                let batch = labels.len();
                let classes = softmax.dims()[1];
                let upstream = grad.data()[0] / batch as f32;
                let uniform = eps / classes as f32;
                // d loss / d logits = softmax - q.
                let mut dl = softmax.scale(upstream);
                for (row, &label) in labels.iter().enumerate() {
                    for k in 0..classes {
                        let q = if k == label {
                            1.0 - eps + uniform
                        } else {
                            uniform
                        };
                        dl.data_mut()[row * classes + k] -= upstream * q;
                    }
                }
                Ok(dl)
            })?,
            _ => unreachable!("non-extended op routed to accumulate_ext_parents"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn;

    fn probe(shape: &[usize], salt: usize) -> Tensor {
        Tensor::from_fn(shape.to_vec(), |i| {
            let h = i
                .iter()
                .fold(salt, |a, &v| a.wrapping_mul(37).wrapping_add(v + 3));
            ((h % 19) as f32 / 19.0) * 2.0 - 1.0
        })
    }

    #[test]
    fn sigmoid_forward_and_gradcheck() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![0.0, 100.0, -100.0], [3]).unwrap());
        let y = g.sigmoid(x);
        let v = g.value(y).data();
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert!(v[1] > 0.999 && v[2] < 1e-3);
        let x0 = probe(&[6], 1);
        check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = g.sigmoid(xv);
            let sq = g.square(y);
            let loss = g.sum(sq);
            let grads = g.backward(loss, &[xv]).unwrap();
            (
                g.value(loss).item().unwrap(),
                grads.get(xv).unwrap().clone(),
            )
        });
    }

    #[test]
    fn tanh_gradcheck() {
        let x0 = probe(&[6], 2);
        check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = g.tanh(xv);
            let sq = g.square(y);
            let loss = g.sum(sq);
            let grads = g.backward(loss, &[xv]).unwrap();
            (
                g.value(loss).item().unwrap(),
                grads.get(xv).unwrap().clone(),
            )
        });
    }

    #[test]
    fn leaky_relu_forward_and_gradcheck() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![-2.0, 3.0], [2]).unwrap());
        let y = g.leaky_relu(x, 0.1);
        assert_eq!(g.value(y).data(), &[-0.2, 3.0]);
        // Gradcheck away from the kink.
        let x0 = Tensor::from_vec(vec![-1.5, -0.4, 0.6, 2.0], [4]).unwrap();
        check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = g.leaky_relu(xv, 0.1);
            let sq = g.square(y);
            let loss = g.sum(sq);
            let grads = g.backward(loss, &[xv]).unwrap();
            (
                g.value(loss).item().unwrap(),
                grads.get(xv).unwrap().clone(),
            )
        });
    }

    #[test]
    fn ln_gradcheck_on_positive_inputs() {
        let x0 = Tensor::from_vec(vec![0.5, 1.0, 2.5, 4.0], [4]).unwrap();
        check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = g.ln(xv);
            let loss = g.sum(y);
            let grads = g.backward(loss, &[xv]).unwrap();
            (
                g.value(loss).item().unwrap(),
                grads.get(xv).unwrap().clone(),
            )
        });
    }

    #[test]
    fn dropout_masks_and_scales() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]).unwrap());
        let mask = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], [4]).unwrap();
        let y = g.dropout(x, &mask, 0.5).unwrap();
        assert_eq!(g.value(y).data(), &[2.0, 0.0, 6.0, 0.0]);
        // Gradient is routed only through kept elements.
        let loss = g.sum(y);
        let grads = g.backward(loss, &[x]).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn dropout_validates_arguments() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([3]));
        assert!(g.dropout(x, &Tensor::ones([2]), 0.5).is_err());
        assert!(g.dropout(x, &Tensor::ones([3]), 0.0).is_err());
        assert!(g.dropout(x, &Tensor::ones([3]), 1.5).is_err());
    }

    #[test]
    fn mse_loss_value_and_gradcheck() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 3.0], [2]).unwrap());
        let target = Tensor::from_vec(vec![0.0, 1.0], [2]).unwrap();
        let loss = g.mse_loss(x, &target).unwrap();
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((g.value(loss).item().unwrap() - 2.5).abs() < 1e-6);
        let x0 = probe(&[5], 3);
        let tgt = probe(&[5], 4);
        check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let loss = g.mse_loss(xv, &tgt).unwrap();
            let grads = g.backward(loss, &[xv]).unwrap();
            (
                g.value(loss).item().unwrap(),
                grads.get(xv).unwrap().clone(),
            )
        });
        let mut g2 = Graph::new();
        let x2 = g2.input(Tensor::zeros([2]));
        assert!(g2.mse_loss(x2, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn smoothed_ce_reduces_to_plain_ce_at_zero_eps() {
        let logits = probe(&[3, 5], 5);
        let labels = [0usize, 2, 4];
        let mut g1 = Graph::new();
        let l1 = g1.input(logits.clone());
        let plain = g1.cross_entropy(l1, &labels).unwrap();
        let mut g2 = Graph::new();
        let l2 = g2.input(logits);
        let smoothed = g2.cross_entropy_smoothed(l2, &labels, 0.0).unwrap();
        assert!(
            (g1.value(plain).item().unwrap() - g2.value(smoothed).item().unwrap()).abs() < 1e-5
        );
    }

    #[test]
    fn smoothed_ce_gradcheck() {
        let l0 = probe(&[3, 4], 7);
        let labels = vec![1usize, 0, 3];
        check_scalar_fn(&l0, 1e-2, 2e-2, |l| {
            let mut g = Graph::new();
            let lv = g.input(l.clone());
            let loss = g.cross_entropy_smoothed(lv, &labels, 0.1).unwrap();
            let grads = g.backward(loss, &[lv]).unwrap();
            (
                g.value(loss).item().unwrap(),
                grads.get(lv).unwrap().clone(),
            )
        });
    }

    #[test]
    fn smoothed_ce_validates_arguments() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::zeros([2, 3]));
        assert!(g.cross_entropy_smoothed(logits, &[0, 1], 1.0).is_err());
        assert!(g.cross_entropy_smoothed(logits, &[0], 0.1).is_err());
        assert!(g.cross_entropy_smoothed(logits, &[0, 5], 0.1).is_err());
    }

    #[test]
    fn smoothed_ce_gradient_rows_sum_to_zero() {
        let mut g = Graph::new();
        let logits = g.input(probe(&[4, 6], 9));
        let loss = g
            .cross_entropy_smoothed(logits, &[0, 1, 2, 3], 0.2)
            .unwrap();
        let grads = g.backward(loss, &[logits]).unwrap();
        let gl = grads.get(logits).unwrap();
        for row in 0..4 {
            let s: f32 = gl.data()[row * 6..(row + 1) * 6].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }
}
