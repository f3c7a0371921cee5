//! Element-wise arithmetic and transcendental operations.

use crate::error::{Result, TensorError};
use crate::pool;
use crate::tensor::Tensor;

impl Tensor {
    /// Applies `f` to every element, producing a new tensor (storage leased
    /// from the scratch pool).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = pool::lease_raw(self.numel());
        data.extend(self.data().iter().map(|&v| f(v)));
        Tensor::from_vec(data, self.shape().clone()).expect("same volume")
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ. Use
    /// [`Tensor::broadcast_op`] for broadcasting semantics.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let mut data = pool::lease_raw(self.numel());
        data.extend(self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)));
        Tensor::from_vec(data, self.shape().clone())
    }

    /// Element-wise sum of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Adds `other * scale` into `self` in place (the BLAS `axpy` pattern,
    /// used heavily by optimizers).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise sign (-1, 0, or +1).
    pub fn signum(&self) -> Tensor {
        self.map(|v| if v == 0.0 { 0.0 } else { v.signum() })
    }

    /// Element-wise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Element-wise integer power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.map(|v| v.powi(n))
    }

    /// Element-wise max with a scalar (e.g. `relu` via `clamp_min(0.0)`).
    pub fn clamp_min(&self, lo: f32) -> Tensor {
        self.map(|v| v.max(lo))
    }

    /// Element-wise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.numel() != other.numel() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [v.len()]).unwrap()
    }

    #[test]
    fn binary_ops_work() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert!(a.add(&Tensor::zeros([2])).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0])).unwrap();
        assert_eq!(a.data(), &[7.0, 9.0]);
        assert!(a.axpy(1.0, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn scalar_ops_work() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
        assert_eq!(a.scale(-2.0).data(), &[-2.0, 4.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0]);
        assert_eq!(a.signum().data(), &[1.0, -1.0]);
        assert_eq!(t(&[0.0]).signum().data(), &[0.0]);
    }

    #[test]
    fn transcendental_ops_work() {
        let a = t(&[0.0, 1.0]);
        assert!((a.exp().data()[1] - std::f32::consts::E).abs() < 1e-6);
        assert_eq!(t(&[4.0]).sqrt().data(), &[2.0]);
        assert_eq!(t(&[3.0]).square().data(), &[9.0]);
        assert_eq!(t(&[2.0]).powi(3).data(), &[8.0]);
    }

    #[test]
    fn clamp_family_works() {
        let a = t(&[-1.0, 0.5, 2.0]);
        assert_eq!(a.clamp_min(0.0).data(), &[0.0, 0.5, 2.0]);
        assert_eq!(a.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn dot_is_inner_product() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        // dot works across shapes with equal volume
        let m = Tensor::from_vec(vec![1.0; 4], [2, 2]).unwrap();
        assert_eq!(m.dot(&Tensor::ones([4])).unwrap(), 4.0);
        assert!(a.dot(&Tensor::zeros([2])).is_err());
    }

    #[test]
    fn map_in_place_mutates() {
        let mut a = t(&[1.0, 2.0]);
        a.map_in_place(|v| v * 10.0);
        assert_eq!(a.data(), &[10.0, 20.0]);
        a.scale_in_place(0.1);
        assert_eq!(a.data(), &[1.0, 2.0]);
    }
}
