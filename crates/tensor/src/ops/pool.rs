//! Spatial pooling primitives for NCHW tensors.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

impl Tensor {
    /// Non-overlapping max pooling with a square window of side `k`.
    /// Returns the pooled tensor and the flat argmax index of every window
    /// (for routing gradients in the backward pass).
    ///
    /// # Errors
    ///
    /// Returns rank/geometry errors if the input is not 4-D or not evenly
    /// divisible by `k`.
    pub fn max_pool2d(&self, k: usize) -> Result<(Tensor, Vec<usize>)> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        if k == 0 || h % k != 0 || w % k != 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {k} does not divide {h}x{w}"
            )));
        }
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        let mut arg = vec![0usize; n * c * oh * ow];
        for in_ in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_src = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let src = (((in_ * c) + ch) * h + oy * k + ky) * w + ox * k + kx;
                                if self.data()[src] > best {
                                    best = self.data()[src];
                                    best_src = src;
                                }
                            }
                        }
                        let dst = (((in_ * c) + ch) * oh + oy) * ow + ox;
                        out.data_mut()[dst] = best;
                        arg[dst] = best_src;
                    }
                }
            }
        }
        Ok((out, arg))
    }

    /// Global average pooling: `(n, c, h, w) -> (n, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the rank is 4.
    pub fn global_avg_pool2d(&self) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let mut out = Tensor::zeros([n, c]);
        let inv = 1.0 / (h * w) as f32;
        for in_ in 0..n {
            for ch in 0..c {
                let base = ((in_ * c) + ch) * h * w;
                let acc: f32 = self.data()[base..base + h * w].iter().sum();
                out.data_mut()[in_ * c + ch] = acc * inv;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::tests::ramp;

    #[test]
    fn max_pool_returns_max_and_indices() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let (p, arg) = t.max_pool2d(2).unwrap();
        assert_eq!(p.data(), &[4.0]);
        assert_eq!(arg, vec![3]);
    }

    #[test]
    fn max_pool_handles_negatives() {
        let t = Tensor::from_vec(vec![-4.0, -2.0, -3.0, -1.0], [1, 1, 2, 2]).unwrap();
        let (p, arg) = t.max_pool2d(2).unwrap();
        assert_eq!(p.data(), &[-1.0]);
        assert_eq!(arg, vec![3]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial() {
        let t = ramp(&[1, 2, 2, 2]);
        let g = t.global_avg_pool2d().unwrap();
        assert_eq!(g.dims(), &[1, 2]);
        assert_eq!(g.data(), &[1.5, 5.5]);
        assert!(Tensor::zeros([2, 2]).global_avg_pool2d().is_err());
    }
}
