//! Spatial pooling primitives for NCHW tensors.
//!
//! Max pooling has one kernel body, [`max_pool_windows`], for its two
//! passes: [`Tensor::max_pool2d`], the graph op's, which also returns the
//! argmax its backward routes gradients through, and
//! [`Tensor::max_pool2d_values`], the eval forward's, which computes values
//! only. Each window folds its elements in window order (row `ky`, then
//! column `kx`) with `v > best` from −∞, selecting without a branch: the
//! first maximum wins (so of a `±0` tie, the zero that comes first), NaN
//! never wins, and an all-NaN window gives −∞ with argmax 0. The body is
//! compiled once for 2×2 windows, the only ones the models use, so their
//! window loops unroll, and once for any side. Both passes run in a
//! `max_pool` span and lease their output from the scratch pool.

use crate::error::{Result, TensorError};
use crate::pool;
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
        let mut arg = Vec::new();
        let out = self.max_pool::<true>(k, &mut arg)?;
        Ok((out, arg))
    }

    /// The values of [`Tensor::max_pool2d`] without the argmax, for
    /// forwards that are never differentiated.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::max_pool2d`].
    pub fn max_pool2d_values(&self, k: usize) -> Result<Tensor> {
        self.max_pool::<false>(k, &mut Vec::new())
    }

    /// Checks the geometry and runs [`max_pool_windows`], filling `arg`
    /// when `ARG`.
    fn max_pool<const ARG: bool>(&self, k: usize, arg: &mut Vec<usize>) -> Result<Tensor> {
        let _span = hero_obs::span("max_pool");
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
        let len = n * c * oh * ow;
        let mut out = pool::lease(len);
        if ARG {
            arg.resize(len, 0);
        }
        let d = [n, c, h, w];
        match k {
            2 => max_pool_windows::<ARG, 2>(self.data(), d, k, &mut out, arg),
            _ => max_pool_windows::<ARG, 0>(self.data(), d, k, &mut out, arg),
        }
        Ok(Tensor::assemble([n, c, oh, ow].into(), out))
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

/// The max-pool kernel body over `x`, NCHW with dims `d`: writes each
/// window's maximum to `out` and, when `ARG`, its flat index in `x` to
/// `arg`. A nonzero `K` is the window side, fixed at compile time so the
/// window loops unroll; `K == 0` reads it from `k`.
fn max_pool_windows<const ARG: bool, const K: usize>(
    x: &[f32],
    d: [usize; 4],
    k: usize,
    out: &mut [f32],
    arg: &mut [usize],
) {
    let [n, c, h, w] = d;
    let k = if K == 0 { k } else { K };
    let (oh, ow) = (h / k, w / k);
    assert!(x.len() == n * c * h * w && out.len() == n * c * oh * ow);
    assert!(!ARG || arg.len() == out.len());
    for plane in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let (mut best, mut best_src) = (f32::NEG_INFINITY, 0);
                for ky in 0..k {
                    for kx in 0..k {
                        let src = (plane * h + oy * k + ky) * w + ox * k + kx;
                        // SAFETY: `x.len() == n·c·h·w` (asserted above),
                        // `oy·k + ky < oh·k ≤ h` and `ox·k + kx < ow·k ≤ w`,
                        // so `src < x.len()`. Checked loads cost the eval
                        // pass more than half its speed.
                        let v = unsafe { *x.get_unchecked(src) };
                        let take = v > best;
                        best = if take { v } else { best };
                        if ARG {
                            best_src = if take { src } else { best_src };
                        }
                    }
                }
                let dst = (plane * oh + oy) * ow + ox;
                // SAFETY: `dst < n·c·oh·ow == out.len()`, and `arg.len() ==
                // out.len()` when `ARG` (both asserted above).
                unsafe {
                    *out.get_unchecked_mut(dst) = best;
                    if ARG {
                        *arg.get_unchecked_mut(dst) = best_src;
                    }
                }
            }
        }
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
