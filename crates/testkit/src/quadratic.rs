//! Quadratic test objective with a known Hessian.
//!
//! `f(x) = ½ xᵀ A x + bᵀ x` has gradient `A x + b` and constant Hessian
//! `A`, making it the ground-truth fixture for validating every curvature
//! estimator in `hero-hessian` and the optimizer behaviour in `hero-optim`.

use hero_tensor::{Result, Tensor, TensorError};

/// A quadratic objective `½ xᵀ A x + bᵀ x` over a single parameter tensor.
#[derive(Debug, Clone)]
pub struct Quadratic {
    /// Symmetric matrix `A` of shape `(n, n)`.
    a: Tensor,
    /// Linear term `b` of shape `(n,)`.
    b: Tensor,
}

impl Quadratic {
    /// Creates a quadratic with the given symmetric matrix and linear term.
    ///
    /// # Errors
    ///
    /// Returns shape errors unless `a` is `(n, n)` and `b` is `(n,)`.
    pub fn new(a: Tensor, b: Tensor) -> Result<Self> {
        if a.rank() != 2 || a.dims()[0] != a.dims()[1] {
            return Err(TensorError::InvalidArgument(format!(
                "A must be square, got {:?}",
                a.dims()
            )));
        }
        if b.rank() != 1 || b.dims()[0] != a.dims()[0] {
            return Err(TensorError::ShapeMismatch {
                left: vec![a.dims()[0]],
                right: b.dims().to_vec(),
            });
        }
        Ok(Quadratic { a, b })
    }

    /// Diagonal quadratic with eigenvalues `diag` and no linear term.
    pub fn diag(diag: &[f32]) -> Self {
        let n = diag.len();
        let a = Tensor::from_fn([n, n], |i| if i[0] == i[1] { diag[i[0]] } else { 0.0 });
        Quadratic {
            a,
            b: Tensor::zeros([n]),
        }
    }

    /// Loss at `x`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong dimension.
    pub fn loss(&self, x: &Tensor) -> Result<f32> {
        let ax = self.ax(x)?;
        Ok(0.5 * x.dot(&ax)? + self.b.dot(x)?)
    }

    /// Gradient `A x + b` at `x`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong dimension.
    pub fn grad(&self, x: &Tensor) -> Result<Tensor> {
        let mut g = self.ax(x)?;
        g.axpy(1.0, &self.b)?;
        Ok(g)
    }

    /// The product `A x`, one row dot product at a time.
    fn ax(&self, x: &Tensor) -> Result<Tensor> {
        let n = self.a.dims()[0];
        if x.dims() != [n] {
            return Err(TensorError::ShapeMismatch {
                left: vec![n],
                right: x.dims().to_vec(),
            });
        }
        let rows = self.a.data().chunks(n.max(1));
        let ax = rows.map(|row| row.iter().zip(x.data()).map(|(&a, &b)| a * b).sum());
        Tensor::from_vec(ax.collect(), [n])
    }

    /// A `hero_hessian::GradOracle` closure for this objective over a
    /// single-tensor parameter list.
    pub fn oracle(&self) -> impl FnMut(&[Tensor]) -> Result<(f32, Vec<Tensor>)> + '_ {
        move |params: &[Tensor]| {
            let x = params.first().ok_or_else(|| {
                TensorError::InvalidArgument("quadratic oracle needs one tensor".into())
            })?;
            Ok((self.loss(x)?, vec![self.grad(x)?]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shapes() {
        assert!(Quadratic::new(Tensor::zeros([2, 3]), Tensor::zeros([2])).is_err());
        assert!(Quadratic::new(Tensor::zeros([2, 2]), Tensor::zeros([3])).is_err());
        assert!(Quadratic::new(Tensor::zeros([2, 2]), Tensor::zeros([2])).is_ok());
    }

    #[test]
    fn loss_and_grad_of_diagonal() {
        let q = Quadratic::diag(&[2.0, 8.0]);
        let x = Tensor::from_vec(vec![1.0, 0.5], [2]).unwrap();
        // loss = 0.5*(2*1 + 8*0.25) = 2.0
        assert!((q.loss(&x).unwrap() - 2.0).abs() < 1e-6);
        assert_eq!(q.grad(&x).unwrap().data(), &[2.0, 4.0]);
    }

    #[test]
    fn linear_term_shifts_gradient() {
        let q = Quadratic::new(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]).unwrap(),
            Tensor::from_vec(vec![3.0, -1.0], [2]).unwrap(),
        )
        .unwrap();
        let g = q.grad(&Tensor::zeros([2])).unwrap();
        assert_eq!(g.data(), &[3.0, -1.0]);
    }

    #[test]
    fn oracle_evaluates() {
        let q = Quadratic::diag(&[1.0, 1.0]);
        let mut oracle = q.oracle();
        let (l, g) = oracle(&[Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()]).unwrap();
        assert!((l - 12.5).abs() < 1e-5);
        assert_eq!(g[0].data(), &[3.0, 4.0]);
        assert!(oracle(&[]).is_err());
    }
}
