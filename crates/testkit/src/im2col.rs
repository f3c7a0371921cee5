//! The `im2col`/`col2im` lowering that expresses convolution as matmul:
//! the reference `hero-tensor`'s direct conv kernels are tested against.

use hero_tensor::{ConvGeometry, Result, Tensor, TensorError};

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
pub fn im2col(x: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
        });
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
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
    let mut out = vec![0.0; rows * cols];
    // One (ch, ky, kx) kernel tap per output row. For stride 1 the
    // in-bounds span of each output row is one contiguous copy.
    let stride = geom.stride;
    let pad = geom.pad;
    for row in 0..rows {
        let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
        let out_row = &mut out[row * cols..][..cols];
        for in_ in 0..n {
            let img = &x.data()[(in_ * c + ch) * h * w..][..h * w];
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
                        let xx = ox * stride + kx;
                        if xx >= pad && xx < w + pad {
                            *slot = src_row[xx - pad];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, [rows, cols])
}

/// Adjoint of [`im2col`]: scatters column-form gradients back to an NCHW
/// tensor of shape `(n, c, geom.in_h, geom.in_w)`, accumulating
/// overlapping windows in ascending `(ky, kx)` order.
///
/// # Errors
///
/// Returns shape errors if `cols` is not `(c*k*k, n*out_h*out_w)`.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry, n: usize, c: usize) -> Result<Tensor> {
    if cols.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: cols.rank(),
        });
    }
    let k = geom.kernel;
    let (oh, ow) = geom.out_hw();
    let rows = c * k * k;
    let width = n * oh * ow;
    if cols.dims() != [rows, width] {
        return Err(TensorError::ShapeMismatch {
            left: vec![rows, width],
            right: cols.dims().to_vec(),
        });
    }
    let (h, w) = (geom.in_h, geom.in_w);
    let mut out = vec![0.0; n * c * h * w];
    // Mirror of im2col's loop order: each (ch, ky, kx) row of the column
    // matrix is read sequentially and accumulated into the image.
    let stride = geom.stride;
    let pad = geom.pad;
    for row in 0..rows {
        let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
        let col_row = &cols.data()[row * width..][..width];
        for in_ in 0..n {
            let img = &mut out[(in_ * c + ch) * h * w..][..h * w];
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
                        let xx = ox * stride + kx;
                        if xx >= pad && xx < w + pad {
                            dst_row[xx - pad] += v;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, [n, c, h, w])
}
