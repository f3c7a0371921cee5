//! Spatial zero-padding and cropping for NCHW image tensors.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

impl Tensor {
    /// Zero-pads the two trailing (spatial) axes of an NCHW tensor by `pad`
    /// on every side.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the rank is 4.
    pub fn pad2d(&self, pad: usize) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        if pad == 0 {
            return Ok(self.clone());
        }
        let (n, c, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let (ho, wo) = (h + 2 * pad, w + 2 * pad);
        let mut out = Tensor::zeros([n, c, ho, wo]);
        for in_ in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    let src = (((in_ * c) + ch) * h + y) * w;
                    let dst = (((in_ * c) + ch) * ho + y + pad) * wo + pad;
                    out.data_mut()[dst..dst + w].copy_from_slice(&self.data()[src..src + w]);
                }
            }
        }
        Ok(out)
    }

    /// Extracts the window starting at `(top, left)` with size `(h, w)` from
    /// the spatial axes of an NCHW tensor (used for random-crop
    /// augmentation).
    ///
    /// # Errors
    ///
    /// Returns rank/geometry errors if the window exceeds the extent.
    pub fn crop_window2d(&self, top: usize, left: usize, h: usize, w: usize) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, hin, win) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        if top + h > hin || left + w > win {
            return Err(TensorError::InvalidGeometry(format!(
                "window {h}x{w} at ({top},{left}) exceeds input {hin}x{win}"
            )));
        }
        let mut out = Tensor::zeros([n, c, h, w]);
        for in_ in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    let src = (((in_ * c) + ch) * hin + y + top) * win + left;
                    let dst = (((in_ * c) + ch) * h + y) * w;
                    out.data_mut()[dst..dst + w].copy_from_slice(&self.data()[src..src + w]);
                }
            }
        }
        Ok(out)
    }

    /// Flips an NCHW tensor along its width axis (horizontal mirror).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the rank is 4.
    pub fn flip_horizontal(&self) -> Result<Tensor> {
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
        let mut out = Tensor::zeros([n, c, h, w]);
        for in_ in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    let base = (((in_ * c) + ch) * h + y) * w;
                    for x in 0..w {
                        out.data_mut()[base + x] = self.data()[base + (w - 1 - x)];
                    }
                }
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
    fn pad_then_crop_is_identity() {
        let t = ramp(&[2, 3, 4, 4]);
        let padded = t.pad2d(2).unwrap();
        assert_eq!(padded.dims(), &[2, 3, 8, 8]);
        assert_eq!(padded.crop_window2d(2, 2, 4, 4).unwrap(), t);
    }

    #[test]
    fn pad_zero_is_identity() {
        let t = ramp(&[1, 1, 2, 2]);
        assert_eq!(t.pad2d(0).unwrap(), t);
    }

    #[test]
    fn padding_borders_are_zero() {
        let t = Tensor::ones([1, 1, 2, 2]);
        let p = t.pad2d(1).unwrap();
        assert_eq!(p.data()[0], 0.0);
        assert_eq!(p.data()[3 * 4 + 3], 0.0);
        assert_eq!(p.data()[4 + 1], 1.0);
        assert_eq!(p.sum(), 4.0);
    }

    #[test]
    fn crop_window_extracts_expected_region() {
        let t = ramp(&[1, 1, 4, 4]);
        let win = t.crop_window2d(1, 2, 2, 2).unwrap();
        assert_eq!(win.dims(), &[1, 1, 2, 2]);
        assert_eq!(win.data(), &[6.0, 7.0, 10.0, 11.0]);
        assert!(t.crop_window2d(3, 3, 2, 2).is_err());
    }

    #[test]
    fn flip_horizontal_mirrors_rows() {
        let t = ramp(&[1, 1, 1, 4]);
        let f = t.flip_horizontal().unwrap();
        assert_eq!(f.data(), &[3.0, 2.0, 1.0, 0.0]);
        assert_eq!(f.flip_horizontal().unwrap(), t);
    }

    #[test]
    fn rank_validation() {
        let t = Tensor::zeros([2, 2]);
        assert!(t.pad2d(1).is_err());
        assert!(t.flip_horizontal().is_err());
        assert!(t.crop_window2d(0, 0, 1, 1).is_err());
    }
}
