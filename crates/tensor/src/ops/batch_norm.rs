//! Train-mode batch-normalization kernels over NCHW activations: the
//! forward (batch statistics, `x̂` and the scaled output) and the backward
//! (`dX`, `dγ`, `dβ`).
//!
//! Every statistic is a serial `f32` chain, and the kernels keep each chain
//! whole and in its reference order, so results are bitwise identical to
//! the straightforward per-channel loops (kept as the oracle of
//! `tests/batch_norm_kernels.rs`). Speed comes only from running
//! *independent* chains side by side:
//!
//! * **Forward.** Each `(image, channel)` slab's sum, and then its sum of
//!   squared deviations, is one chain started at −0.0 (as
//!   `Iterator::<f32>::sum` starts) in ascending offset order. A channel's
//!   mean and variance add its slab sums, in image order, into an
//!   accumulator started at +0.0, then divide by `N·H·W`.
//! * **Backward.** The four per-channel chains (`Σdy`, `Σdy·x̂`, `Σdx̂`,
//!   `Σdx̂·x̂` with `dx̂ = dy·γ`) start at +0.0 and run in `(image, offset)`
//!   order.
//! * **Lanes.** Both passes run [`LANES`] consecutive channels of one image
//!   in lockstep, read strided straight from NCHW (no channel-last copy);
//!   the channels past the last full group run one at a time.
//! * **Element-wise passes** (`x̂`, the output, `dX`) keep the reference
//!   expressions operation for operation: no fused multiply-add, no
//!   reassociation. They write every element, so their outputs are leased
//!   without the zero fill.
//!
//! The forward runs in a `batch_norm` span and the backward in a
//! `batch_norm_backward` span.

use crate::error::{Result, TensorError};
use crate::pool;
use crate::tensor::Tensor;

/// Channels whose independent chains run side by side.
const LANES: usize = 8;

/// What a train-mode batch-norm forward produces.
#[derive(Debug)]
pub struct BatchNormForward {
    /// `γ·x̂ + β`, shaped like the input.
    pub out: Tensor,
    /// The normalized input `(x − mean)·inv_std`, saved for the backward.
    pub xhat: Tensor,
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel biased batch variance.
    pub var: Vec<f32>,
    /// Per-channel `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
}

impl Tensor {
    /// Training-mode batch normalization over the `(N, H, W)` axes of this
    /// NCHW tensor, with per-channel scale `gamma` and shift `beta` (both
    /// `(c,)`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D and
    /// [`TensorError::ShapeMismatch`] unless `gamma` and `beta` are `(c,)`.
    pub fn batch_norm_train(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<BatchNormForward> {
        let _span = hero_obs::span("batch_norm");
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        let d = self.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        check_channel_param(gamma, c)?;
        check_channel_param(beta, c)?;
        let m = (n * hw) as f32;
        let x = self.data();

        let mut part = pool::lease(n * c);
        slab_sums(x, n, c, hw, &mut part, &[], |v, _| v);
        let mean = channel_totals(&part, c, m);
        slab_sums(x, n, c, hw, &mut part, &mean, |v, mu| (v - mu) * (v - mu));
        let var = channel_totals(&part, c, m);
        pool::recycle(part);
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();

        let (g, b) = (gamma.data(), beta.data());
        // Both outputs are written whole, slab by slab, so they are leased
        // without the zero fill.
        let mut xhat = pool::lease_raw(x.len());
        let mut out = pool::lease_raw(x.len());
        for (xs, ch) in x.chunks_exact(hw.max(1)).zip((0..c).cycle()) {
            let (mu, is, ga, be) = (mean[ch], inv_std[ch], g[ch], b[ch]);
            let z0 = xhat.len();
            xhat.extend(xs.iter().map(|&v| (v - mu) * is));
            out.extend(xhat[z0..].iter().map(|&z| ga * z + be));
        }
        Ok(BatchNormForward {
            out: Tensor::assemble(self.shape().clone(), out),
            xhat: Tensor::assemble(self.shape().clone(), xhat),
            mean,
            var,
            inv_std,
        })
    }

    /// Backward of [`Tensor::batch_norm_train`]: `self` is the upstream
    /// gradient `dY`, `xhat` and `inv_std` are the forward's saved values
    /// and `gamma` its scale. Returns `(dX, dγ, dβ)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `dY` is 4-D and
    /// [`TensorError::ShapeMismatch`] unless `xhat` matches it and `gamma`
    /// and `inv_std` hold one value per channel.
    pub fn batch_norm_backward(
        &self,
        xhat: &Tensor,
        gamma: &Tensor,
        inv_std: &[f32],
    ) -> Result<(Tensor, Tensor, Tensor)> {
        let _span = hero_obs::span("batch_norm_backward");
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        if xhat.dims() != self.dims() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: xhat.dims().to_vec(),
            });
        }
        let d = self.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        check_channel_param(gamma, c)?;
        if inv_std.len() != c {
            return Err(TensorError::ShapeMismatch {
                left: vec![c],
                right: vec![inv_std.len()],
            });
        }
        let m = (n * hw) as f32;
        let (dy, xh, g) = (self.data(), xhat.data(), gamma.data());

        let mut sums = [(); 4].map(|_| pool::lease(c));
        let full = c - c % LANES;
        for c0 in (0..full).step_by(LANES) {
            channel_sums::<LANES>(dy, xh, g, n, c, hw, c0, &mut sums);
        }
        for c0 in full..c {
            channel_sums::<1>(dy, xh, g, n, c, hw, c0, &mut sums);
        }
        let [dbeta, dgamma, sum_dxhat, sum_dxhat_xhat] = sums;

        // Written whole, slab by slab: leased without the zero fill.
        let mut dx = pool::lease_raw(dy.len());
        let slabs = dy.chunks_exact(hw.max(1)).zip(xh.chunks_exact(hw.max(1)));
        for ((dys, xhs), ch) in slabs.zip((0..c).cycle()) {
            let (ga, sd, sdx) = (g[ch], sum_dxhat[ch], sum_dxhat_xhat[ch]);
            let scale = inv_std[ch] / m;
            dx.extend(dys.iter().zip(xhs).map(|(&d, &xh)| {
                let dxh = d * ga;
                scale * (m * dxh - sd - xh * sdx)
            }));
        }
        pool::recycle(sum_dxhat);
        pool::recycle(sum_dxhat_xhat);
        Ok((
            Tensor::assemble(self.shape().clone(), dx),
            Tensor::assemble(gamma.shape().clone(), dgamma),
            Tensor::assemble(gamma.shape().clone(), dbeta),
        ))
    }
}

/// Rejects a per-channel parameter that is not `(c,)`.
fn check_channel_param(p: &Tensor, c: usize) -> Result<()> {
    if p.dims() != [c] {
        return Err(TensorError::ShapeMismatch {
            left: vec![c],
            right: p.dims().to_vec(),
        });
    }
    Ok(())
}

/// Reduces every `hw`-long slab `(img, ch)` of `x` into `part[img·c + ch]`:
/// one chain per slab, started at −0.0 and adding `term(v, centre[ch])`
/// in ascending offset order (`centre` may be empty when `term` ignores
/// it).
fn slab_sums(
    x: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    part: &mut [f32],
    centre: &[f32],
    term: impl Fn(f32, f32) -> f32,
) {
    let full = c - c % LANES;
    for img in 0..n {
        for c0 in (0..full).step_by(LANES) {
            lane_sums::<LANES>(x, c, hw, img, c0, part, centre, &term);
        }
        for c0 in full..c {
            lane_sums::<1>(x, c, hw, img, c0, part, centre, &term);
        }
    }
}

/// The slab chains of channels `c0..c0 + L` of image `img`, in lockstep.
#[inline(always)]
// `i` steps all `L` rows together; an iterator would serve one row.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn lane_sums<const L: usize>(
    x: &[f32],
    c: usize,
    hw: usize,
    img: usize,
    c0: usize,
    part: &mut [f32],
    centre: &[f32],
    term: &impl Fn(f32, f32) -> f32,
) {
    let s0 = img * c + c0;
    let rows: [&[f32]; L] = std::array::from_fn(|l| &x[(s0 + l) * hw..][..hw]);
    let centres: [f32; L] = std::array::from_fn(|l| centre.get(c0 + l).copied().unwrap_or(0.0));
    let mut acc = [-0.0f32; L];
    for i in 0..hw {
        for l in 0..L {
            acc[l] += term(rows[l][i], centres[l]);
        }
    }
    part[s0..s0 + L].copy_from_slice(&acc);
}

/// Per-channel totals of slab sums: each channel's slabs added in image
/// order into an accumulator started at +0.0, divided by `m`.
fn channel_totals(part: &[f32], c: usize, m: f32) -> Vec<f32> {
    (0..c)
        .map(|ch| {
            let mut acc = 0.0f32;
            for v in part.iter().skip(ch).step_by(c) {
                acc += v;
            }
            acc / m
        })
        .collect()
}

/// Runs the backward's four chains of channels `c0..c0 + L` in lockstep
/// over `(image, offset)`, reading each channel's plane strided from NCHW,
/// into `sums` = `[Σdy, Σdy·x̂, Σdx̂, Σdx̂·x̂]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn channel_sums<const L: usize>(
    dy: &[f32],
    xh: &[f32],
    gamma: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    c0: usize,
    sums: &mut [Vec<f32>; 4],
) {
    let g: [f32; L] = std::array::from_fn(|l| gamma[c0 + l]);
    let mut db = [0.0f32; L];
    let mut dg = [0.0f32; L];
    let mut sd = [0.0f32; L];
    let mut sdx = [0.0f32; L];
    for img in 0..n {
        let base = (img * c + c0) * hw;
        let dy_rows: [&[f32]; L] = std::array::from_fn(|l| &dy[base + l * hw..][..hw]);
        let xh_rows: [&[f32]; L] = std::array::from_fn(|l| &xh[base + l * hw..][..hw]);
        for i in 0..hw {
            for l in 0..L {
                let d = dy_rows[l][i];
                let x = xh_rows[l][i];
                db[l] += d;
                dg[l] += d * x;
                let dxh = d * g[l];
                sd[l] += dxh;
                sdx[l] += dxh * x;
            }
        }
    }
    for (dst, src) in sums.iter_mut().zip([db, dg, sd, sdx]) {
        dst[c0..c0 + L].copy_from_slice(&src);
    }
}
