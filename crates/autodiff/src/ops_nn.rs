//! Neural-network operations: convolution, batch norm, pooling and
//! softmax cross-entropy, each with a hand-written backward rule.

use crate::graph::{Adjoints, Graph, Op, Var};
use hero_tensor::{ConvGeometry, Result, Tensor, TensorError};

/// Per-channel batch statistics produced by a training-mode batch norm,
/// used by layers to update running estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel (biased) batch variance.
    pub var: Vec<f32>,
}

impl Graph {
    /// 2-D convolution of an NCHW input with weights `(out_c, in_c*k*k)`.
    /// The output has shape `(n, out_c, out_h, out_w)`.
    ///
    /// # Errors
    ///
    /// Returns shape/geometry errors if the input is not 4-D, the weight is
    /// not 2-D with `in_c*k*k` columns, or `geom` disagrees with the input.
    pub fn conv2d(&mut self, x: Var, w: Var, geom: ConvGeometry) -> Result<Var> {
        let out = self.value(x).conv2d(self.value(w), &geom)?;
        Ok(self.push(
            out,
            Op::Conv2d {
                x: x.0,
                w: w.0,
                geom,
            },
        ))
    }

    /// Depthwise convolution: channel `ch` of the input is convolved with
    /// filter `w[ch]` (weights shaped `(c, k, k)`), preserving channel count.
    ///
    /// # Errors
    ///
    /// Returns shape/geometry errors analogous to [`Graph::conv2d`].
    pub fn depthwise_conv2d(&mut self, x: Var, w: Var, geom: ConvGeometry) -> Result<Var> {
        let out = self.value(x).depthwise_conv2d(self.value(w), &geom)?;
        Ok(self.push(
            out,
            Op::DepthwiseConv2d {
                x: x.0,
                w: w.0,
                geom,
            },
        ))
    }

    /// Training-mode batch normalization over the (N, H, W) axes of an NCHW
    /// input, with per-channel scale `gamma` and shift `beta` (both `(c,)`).
    /// Returns the output node and the batch statistics (for running-stat
    /// updates).
    ///
    /// # Errors
    ///
    /// Returns shape errors if the input is not 4-D or the parameter shapes
    /// are not `(c,)`.
    pub fn batch_norm(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> Result<(Var, BatchStats)> {
        let f = self
            .value(x)
            .batch_norm_train(self.value(gamma), self.value(beta), eps)?;
        let stats = BatchStats {
            mean: f.mean,
            var: f.var,
        };
        let node = self.push(
            f.out,
            Op::BatchNorm {
                x: x.0,
                gamma: gamma.0,
                beta: beta.0,
                xhat: f.xhat,
                inv_std: f.inv_std,
            },
        );
        Ok((node, stats))
    }

    /// Non-overlapping max pooling with window side `k`.
    ///
    /// # Errors
    ///
    /// Returns geometry errors from [`Tensor::max_pool2d`].
    pub fn max_pool2d(&mut self, x: Var, k: usize) -> Result<Var> {
        let (out, arg) = self.value(x).max_pool2d(k)?;
        Ok(self.push(out, Op::MaxPool { x: x.0, arg }))
    }

    /// Global average pooling `(n, c, h, w) -> (n, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D.
    pub fn global_avg_pool2d(&mut self, x: Var) -> Result<Var> {
        let out = self.value(x).global_avg_pool2d()?;
        Ok(self.push(out, Op::GlobalAvgPool(x.0)))
    }

    /// Softmax cross-entropy of logits `(batch, classes)` against integer
    /// `labels`, averaged over the batch. Produces a scalar node.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the logits are not 2-D, the label count does
    /// not match the batch, or a label is out of range.
    pub fn cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Result<Var> {
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
        let mut loss = 0.0;
        for (row, &label) in labels.iter().enumerate() {
            let p = clamp_prob(softmax.data()[row * classes + label]);
            loss -= p.ln();
        }
        loss /= batch as f32;
        Ok(self.push(
            Tensor::scalar(loss),
            Op::CrossEntropy {
                logits: logits.0,
                softmax,
                labels: labels.to_vec(),
            },
        ))
    }

    /// Backward routing for the NN ops (called from the graph's main
    /// reverse sweep).
    pub(crate) fn accumulate_nn_parents(
        &self,
        op: &Op,
        grad: &Tensor,
        adj: &mut Adjoints,
    ) -> Result<()> {
        let value = |idx: usize| &self.nodes[idx].value;
        match op {
            Op::Conv2d { x, w, geom } => {
                adj.add(*w, || grad.conv2d_grad_weight(value(*x), geom))?;
                adj.add(*x, || grad.conv2d_grad_input(value(*w), geom))?;
            }
            Op::DepthwiseConv2d { x, w, geom } => {
                adj.add(*x, || grad.depthwise_conv2d_grad_input(value(*w), geom))?;
                adj.add(*w, || grad.depthwise_conv2d_grad_weight(value(*x), geom))?;
            }
            Op::BatchNorm {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            } => {
                let (dx, dgamma, dbeta) = grad.batch_norm_backward(xhat, value(*gamma), inv_std)?;
                adj.add(*x, || Ok(dx))?;
                adj.add(*gamma, || Ok(dgamma))?;
                adj.add(*beta, || Ok(dbeta))?;
            }
            Op::MaxPool { x, arg } => adj.add(*x, || {
                let mut dx = Tensor::zeros(value(*x).shape().clone());
                for (out_off, &src) in arg.iter().enumerate() {
                    dx.data_mut()[src] += grad.data()[out_off];
                }
                Ok(dx)
            })?,
            Op::GlobalAvgPool(x) => adj.add(*x, || {
                let xs = value(*x).dims();
                let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
                let inv = 1.0 / (h * w) as f32;
                let mut dx = Tensor::zeros([n, c, h, w]);
                for in_ in 0..n {
                    for ch in 0..c {
                        let g = grad.data()[in_ * c + ch] * inv;
                        let base = (in_ * c + ch) * h * w;
                        for v in &mut dx.data_mut()[base..base + h * w] {
                            *v = g;
                        }
                    }
                }
                Ok(dx)
            })?,
            Op::CrossEntropy {
                logits,
                softmax,
                labels,
            } => adj.add(*logits, || {
                let batch = labels.len();
                let classes = softmax.dims()[1];
                let upstream = grad.data()[0] / batch as f32;
                let mut dl = softmax.scale(upstream);
                for (row, &label) in labels.iter().enumerate() {
                    dl.data_mut()[row * classes + label] -= upstream;
                }
                Ok(dl)
            })?,
            _ => unreachable!("non-NN op routed to accumulate_nn_parents"),
        }
        Ok(())
    }
}

/// Clamps a softmax probability away from zero before the loss takes
/// its log. NaN passes through: a diverged forward must surface as a
/// non-finite loss, not as the clamp's finite ceiling (`f32::max` would
/// otherwise return the `1e-12` floor for a NaN probability).
fn clamp_prob(p: f32) -> f32 {
    if p.is_nan() {
        p
    } else {
        p.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(shape: &[usize], scale: f32, salt: usize) -> Tensor {
        Tensor::from_fn(shape.to_vec(), |i| {
            let h = i.iter().enumerate().fold(salt, |acc, (k, &v)| {
                acc.wrapping_mul(31).wrapping_add(v * (k + 7))
            });
            ((h % 17) as f32 / 17.0 - 0.5) * scale
        })
    }

    #[test]
    fn conv2d_matches_reference_shape_and_values() {
        let mut g = Graph::new();
        // Identity 1x1 kernel on 2 channels picks out channel sums.
        let x = g.input(seeded(&[2, 2, 3, 3], 2.0, 1));
        let w = g.input(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]).unwrap());
        let geom = ConvGeometry::new(3, 3, 1, 1, 0).unwrap();
        let y = g.conv2d(x, w, geom).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 2, 3, 3]);
        // With identity weights the output equals the input.
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn conv2d_validates_weight_shape() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 2, 4, 4]));
        let w = g.input(Tensor::zeros([3, 17])); // should be (3, 2*3*3=18)
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        assert!(g.conv2d(x, w, geom).is_err());
    }

    #[test]
    fn depthwise_conv_validates_weight_shape() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 3, 4, 4]));
        let w = g.input(Tensor::zeros([2, 3, 3]));
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        assert!(g.depthwise_conv2d(x, w, geom).is_err());
    }

    #[test]
    fn batch_norm_normalizes_channels() {
        let mut g = Graph::new();
        let x = g.input(seeded(&[4, 2, 3, 3], 5.0, 17));
        let gamma = g.input(Tensor::ones([2]));
        let beta = g.input(Tensor::zeros([2]));
        let (y, stats) = g.batch_norm(x, gamma, beta, 1e-5).unwrap();
        // Output per channel should have ~zero mean and ~unit variance.
        let yv = g.value(y);
        let (n, c, h, w) = (4, 2, 3, 3);
        for ch in 0..c {
            let mut vals = Vec::new();
            for in_ in 0..n {
                let base = (in_ * c + ch) * h * w;
                vals.extend_from_slice(&yv.data()[base..base + h * w]);
            }
            let t = Tensor::from_vec(vals, [n * h * w]).unwrap();
            assert!(t.mean().abs() < 1e-4);
            let variance = t.add_scalar(-t.mean()).norm_l2_sq() / t.numel() as f32;
            assert!((variance - 1.0).abs() < 1e-2);
        }
        assert_eq!(stats.mean.len(), 2);
        assert_eq!(stats.var.len(), 2);
    }

    #[test]
    fn batch_norm_validates_shapes() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 2, 2, 2]));
        let gamma = g.input(Tensor::ones([3]));
        let beta = g.input(Tensor::zeros([2]));
        assert!(g.batch_norm(x, gamma, beta, 1e-5).is_err());
        let x2 = g.input(Tensor::zeros([2, 2]));
        let gamma2 = g.input(Tensor::ones([2]));
        assert!(g.batch_norm(x2, gamma2, beta, 1e-5).is_err());
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], [1, 1, 2, 2]).unwrap());
        let y = g.max_pool2d(x, 2).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss, &[x]).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn cross_entropy_on_uniform_logits_is_log_classes() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::zeros([4, 10]));
        let loss = g.cross_entropy(logits, &[0, 3, 7, 9]).unwrap();
        let expected = (10.0f32).ln();
        assert!((g.value(loss).item().unwrap() - expected).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_validates_labels() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::zeros([2, 3]));
        assert!(g.cross_entropy(logits, &[0]).is_err()); // wrong count
        assert!(g.cross_entropy(logits, &[0, 3]).is_err()); // class out of range
        let vec1d = g.input(Tensor::zeros([3]));
        assert!(g.cross_entropy(vec1d, &[0, 1, 2]).is_err()); // wrong rank
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        // softmax - onehot has zero row sum.
        let mut g = Graph::new();
        let logits = g.input(seeded(&[4, 6], 3.0, 41));
        let loss = g.cross_entropy(logits, &[0, 1, 2, 3]).unwrap();
        let grads = g.backward(loss, &[logits]).unwrap();
        let gl = grads.get(logits).unwrap();
        for row in 0..4 {
            let s: f32 = gl.data()[row * 6..(row + 1) * 6].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }
}
