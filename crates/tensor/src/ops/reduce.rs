//! Reductions: sums, means, extrema, argmax, softmax helpers.

use crate::error::Result;
use crate::pool;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Row-wise argmax of a 2-D tensor: returns the class index per row.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::RankMismatch`] unless the rank is 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(crate::TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            let mut best = 0;
            let mut best_v = f32::NEG_INFINITY;
            for (i, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Row-wise softmax of a 2-D tensor, numerically stabilized by
    /// subtracting each row's max.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::RankMismatch`] unless the rank is 2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(crate::TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = pool::lease(rows * cols);
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (i, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                out[r * cols + i] = e;
                denom += e;
            }
            for v in &mut out[r * cols..(r + 1) * cols] {
                *v /= denom;
            }
        }
        Tensor::from_vec(out, [rows, cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], [2, 2]).unwrap();
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn argmax_rows_picks_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], [2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Tensor::zeros([3]).argmax_rows().is_err());
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, -1000.0, 0.0, 0.0, 0.0], [2, 3]).unwrap();
        let s = t.softmax_rows().unwrap();
        assert!(s.is_finite());
        for r in 0..2 {
            let row_sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Uniform logits -> uniform probabilities.
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }
}
