//! Convolution geometry and the `im2col`/`col2im` lowering that expresses
//! convolution as matmul. Training runs the direct kernels of
//! `ops::conv`; the lowering stays as public API and as the reference
//! those kernels are tested against bit for bit.

use crate::error::{Result, TensorError};
use crate::pool;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution window over an NCHW input.
///
/// # Examples
///
/// ```
/// use hero_tensor::ConvGeometry;
///
/// # fn main() -> Result<(), hero_tensor::TensorError> {
/// let g = ConvGeometry::new(8, 8, 3, 1, 1)?; // 8x8 input, 3x3 kernel, stride 1, pad 1
/// assert_eq!(g.out_hw(), (8, 8)); // "same" convolution
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates and validates a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] for a zero stride/kernel or
    /// a kernel larger than the padded input.
    pub fn new(in_h: usize, in_w: usize, kernel: usize, stride: usize, pad: usize) -> Result<Self> {
        if stride == 0 || kernel == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel and stride must be positive".into(),
            ));
        }
        if kernel > in_h + 2 * pad || kernel > in_w + 2 * pad {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} exceeds padded input {}x{}",
                in_h + 2 * pad,
                in_w + 2 * pad
            )));
        }
        Ok(ConvGeometry {
            in_h,
            in_w,
            kernel,
            stride,
            pad,
        })
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn out_hw(&self) -> (usize, usize) {
        let oh = (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }
}

impl Tensor {
    /// Lowers an NCHW input into column form for convolution-as-matmul.
    ///
    /// The result has shape `(C*k*k, N*out_h*out_w)`: each column is one
    /// receptive field. A weight matrix of shape `(out_c, C*k*k)` then
    /// produces the convolution output via [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D, or a
    /// geometry error if `geom` disagrees with the input's spatial size.
    pub fn im2col(&self, geom: &ConvGeometry) -> Result<Tensor> {
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
        if h != geom.in_h || w != geom.in_w {
            return Err(TensorError::InvalidGeometry(format!(
                "geometry expects {}x{}, input is {h}x{w}",
                geom.in_h, geom.in_w
            )));
        }
        let k = geom.kernel;
        let (oh, ow) = geom.out_hw();
        let rows = c * k * k;
        let cols = n * oh * ow;
        let mut out = pool::lease(rows * cols);
        // One (ch, ky, kx) kernel tap per output row: writes stream
        // sequentially through `out` while reads revisit the (smaller,
        // cache-resident) input. For stride 1 the in-bounds span of each
        // output row is one contiguous copy.
        let stride = geom.stride;
        let pad = geom.pad;
        for row in 0..rows {
            let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
            let out_row = &mut out[row * cols..][..cols];
            for in_ in 0..n {
                let img = &self.data()[(in_ * c + ch) * h * w..][..h * w];
                for oy in 0..oh {
                    let y = oy * stride + ky;
                    if y < pad || y >= h + pad {
                        continue; // leave zeros (padding)
                    }
                    let src_row = &img[(y - pad) * w..][..w];
                    let dst = &mut out_row[(in_ * oh + oy) * ow..][..ow];
                    if stride == 1 {
                        // x = ox + kx - pad must land in [0, w).
                        let ox0 = pad.saturating_sub(kx);
                        let ox1 = (w + pad).saturating_sub(kx).min(ow);
                        if ox0 < ox1 {
                            dst[ox0..ox1].copy_from_slice(&src_row[ox0 + kx - pad..ox1 + kx - pad]);
                        }
                    } else {
                        for (ox, slot) in dst.iter_mut().enumerate() {
                            let x = ox * stride + kx;
                            if x >= pad && x < w + pad {
                                *slot = src_row[x - pad];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, [rows, cols])
    }

    /// Adjoint of [`Tensor::im2col`]: scatters column-form gradients back to
    /// an NCHW tensor of shape `(n, c, geom.in_h, geom.in_w)`, accumulating
    /// overlapping windows.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `self` is not `(c*k*k, n*out_h*out_w)`.
    pub fn col2im(&self, geom: &ConvGeometry, n: usize, c: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let k = geom.kernel;
        let (oh, ow) = geom.out_hw();
        let rows = c * k * k;
        let cols = n * oh * ow;
        if self.dims() != [rows, cols] {
            return Err(TensorError::ShapeMismatch {
                left: vec![rows, cols],
                right: self.dims().to_vec(),
            });
        }
        let (h, w) = (geom.in_h, geom.in_w);
        let mut out_vec = pool::lease(n * c * h * w);
        // Mirror of im2col's loop order: each (ch, ky, kx) row of the column
        // matrix is read sequentially and accumulated into the (smaller,
        // cache-resident) image.
        let stride = geom.stride;
        let pad = geom.pad;
        for row in 0..rows {
            let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
            let col_row = &self.data()[row * cols..][..cols];
            for in_ in 0..n {
                let img = &mut out_vec[(in_ * c + ch) * h * w..][..h * w];
                for oy in 0..oh {
                    let y = oy * stride + ky;
                    if y < pad || y >= h + pad {
                        continue;
                    }
                    let dst_row = &mut img[(y - pad) * w..][..w];
                    let src = &col_row[(in_ * oh + oy) * ow..][..ow];
                    if stride == 1 {
                        let ox0 = pad.saturating_sub(kx);
                        let ox1 = (w + pad).saturating_sub(kx).min(ow);
                        for ox in ox0..ox1 {
                            dst_row[ox + kx - pad] += src[ox];
                        }
                    } else {
                        for (ox, &v) in src.iter().enumerate() {
                            let x = ox * stride + kx;
                            if x >= pad && x < w + pad {
                                dst_row[x - pad] += v;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out_vec, [n, c, h, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validates() {
        assert!(ConvGeometry::new(4, 4, 3, 1, 0).is_ok());
        assert!(ConvGeometry::new(4, 4, 0, 1, 0).is_err());
        assert!(ConvGeometry::new(4, 4, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(2, 2, 5, 1, 1).is_err());
    }

    #[test]
    fn out_hw_matches_formula() {
        assert_eq!(ConvGeometry::new(8, 8, 3, 1, 1).unwrap().out_hw(), (8, 8));
        assert_eq!(ConvGeometry::new(8, 8, 3, 2, 1).unwrap().out_hw(), (4, 4));
        assert_eq!(ConvGeometry::new(5, 5, 3, 1, 0).unwrap().out_hw(), (3, 3));
        assert_eq!(ConvGeometry::new(4, 4, 1, 1, 0).unwrap().out_hw(), (4, 4));
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        let t = Tensor::arange(2 * 2 * 2).reshape([1, 2, 2, 2]).unwrap();
        let geom = ConvGeometry::new(2, 2, 1, 1, 0).unwrap();
        let cols = t.im2col(&geom).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.data(), t.data());
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        // 1x1x3x3 input, 2x2 kernel, stride 1, no pad -> 4 windows of 4 values.
        let t = Tensor::arange(9).reshape([1, 1, 3, 3]).unwrap();
        let geom = ConvGeometry::new(3, 3, 2, 1, 0).unwrap();
        let cols = t.im2col(&geom).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // First column: window at (0,0) = [0,1,3,4]
        let col0: Vec<f32> = (0..4).map(|r| cols.get(&[r, 0]).unwrap()).collect();
        assert_eq!(col0, vec![0.0, 1.0, 3.0, 4.0]);
        // Last column: window at (1,1) = [4,5,7,8]
        let col3: Vec<f32> = (0..4).map(|r| cols.get(&[r, 3]).unwrap()).collect();
        assert_eq!(col3, vec![4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_padding_produces_zero_border() {
        let t = Tensor::ones([1, 1, 2, 2]);
        let geom = ConvGeometry::new(2, 2, 3, 1, 1).unwrap();
        let cols = t.im2col(&geom).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Window centered at (0,0): top-left entries fall in padding.
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(cols.get(&[4, 0]).unwrap(), 1.0); // center hits the image
    }

    #[test]
    fn conv_via_matmul_matches_direct_convolution() {
        // 2-channel input, 3 output channels, 3x3 kernel, stride 1, pad 1.
        let x = Tensor::from_fn([2, 2, 4, 4], |i| {
            ((i[0] + 2 * i[1] + i[2] * 3 + i[3]) % 7) as f32
        });
        let wgt = Tensor::from_fn([3, 2 * 3 * 3], |i| ((i[0] * 5 + i[1]) % 5) as f32 - 2.0);
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        let cols = x.im2col(&geom).unwrap();
        let out = wgt.matmul(&cols).unwrap(); // (3, N*oh*ow)
        let (oh, ow) = geom.out_hw();
        // Direct reference at a few positions.
        for (n_i, oc, oy, ox) in [(0usize, 0usize, 0usize, 0usize), (1, 2, 3, 1), (0, 1, 2, 2)] {
            let mut acc = 0.0;
            for ic in 0..2 {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let y = oy as isize + ky as isize - 1;
                        let xx = ox as isize + kx as isize - 1;
                        if !(0..4).contains(&y) || !(0..4).contains(&xx) {
                            continue;
                        }
                        let xv = x.get(&[n_i, ic, y as usize, xx as usize]).unwrap();
                        let wv = wgt.get(&[oc, (ic * 3 + ky) * 3 + kx]).unwrap();
                        acc += xv * wv;
                    }
                }
            }
            let col = (n_i * oh + oy) * ow + ox;
            assert!((out.get(&[oc, col]).unwrap() - acc).abs() < 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> -- the defining adjoint property.
        let x = Tensor::from_fn([2, 3, 5, 5], |i| (i.iter().sum::<usize>() % 5) as f32 - 2.0);
        let geom = ConvGeometry::new(5, 5, 3, 2, 1).unwrap();
        let cols = x.im2col(&geom).unwrap();
        let y = Tensor::from_fn([cols.dims()[0], cols.dims()[1]], |i| {
            ((i[0] * 3 + i[1]) % 7) as f32 - 3.0
        });
        let lhs = cols.dot(&y).unwrap();
        let back = y.col2im(&geom, 2, 3).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-2, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn col2im_validates_shape() {
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        assert!(Tensor::zeros([5, 5]).col2im(&geom, 1, 1).is_err());
        assert!(Tensor::zeros([9]).col2im(&geom, 1, 1).is_err());
    }
}
