//! Matrix multiplication kernels.
//!
//! All three product variants route through the packed micro-kernel in
//! [`super::gemm`]; the previous cache-blocked triple loop survives as
//! [`matmul_reference`], the correctness oracle and bench baseline.

use crate::error::{Result, TensorError};
use crate::ops::gemm::gemm;
use crate::pool;
use crate::tensor::Tensor;

/// Blocking factor for the reference matmul kernel.
const BLOCK: usize = 32;

/// The pre-packing cache-blocked i-k-j kernel, kept as the correctness
/// oracle for the packed GEMM's shape-grid tests and as the `reference`
/// rows of the `gemm_shapes` bench.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not 2-D, or
/// [`TensorError::MatmulDims`] if the inner dimensions disagree.
pub fn matmul_reference(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
    let (m, n, k) = check_dims(lhs, rhs, false, false)?;
    let a = lhs.data();
    let b = rhs.data();
    let mut c = vec![0.0f32; m * n];
    for ib in (0..m).step_by(BLOCK) {
        for kb in (0..k).step_by(BLOCK) {
            for jb in (0..n).step_by(BLOCK) {
                let i_end = (ib + BLOCK).min(m);
                let k_end = (kb + BLOCK).min(k);
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    for kk in kb..k_end {
                        let aik = a[i * k + kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n + jb..kk * n + j_end];
                        let crow = &mut c[i * n + jb..i * n + j_end];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(c, [m, n])
}

/// Validates ranks/inner dims and returns the logical `(m, n, k)` of
/// `op(lhs) · op(rhs)` under the given transpose flags.
fn check_dims(lhs: &Tensor, rhs: &Tensor, lt: bool, rt: bool) -> Result<(usize, usize, usize)> {
    if lhs.rank() != 2 || rhs.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if lhs.rank() != 2 {
                lhs.rank()
            } else {
                rhs.rank()
            },
        });
    }
    let (m, k) = if lt {
        (lhs.dims()[1], lhs.dims()[0])
    } else {
        (lhs.dims()[0], lhs.dims()[1])
    };
    let (k2, n) = if rt {
        (rhs.dims()[1], rhs.dims()[0])
    } else {
        (rhs.dims()[0], rhs.dims()[1])
    };
    if k != k2 {
        return Err(TensorError::MatmulDims {
            left_cols: k,
            right_rows: k2,
        });
    }
    Ok((m, n, k))
}

/// Shared entry: validates, leases the output from the scratch pool, and
/// runs the packed kernel with transposition handled during packing.
fn gemm_tensor(lhs: &Tensor, rhs: &Tensor, lt: bool, rt: bool) -> Result<Tensor> {
    let (m, n, k) = check_dims(lhs, rhs, lt, rt)?;
    let mut c = pool::lease(m * n);
    gemm(m, n, k, lhs.data(), lt, rhs.data(), rt, &mut c);
    Tensor::from_vec(c, [m, n])
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m, k) x (k, n) -> (m, n)`.
    ///
    /// Runs the packed register-blocked micro-kernel GEMM (see
    /// `ops::gemm`); the output buffer is leased from the thread-local
    /// scratch pool.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not 2-D,
    /// or [`TensorError::MatmulDims`] if the inner dimensions disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use hero_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), hero_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
    /// assert_eq!(a.matmul(&id)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        gemm_tensor(self, other, false, false)
    }

    /// `self^T x other` without materializing the transpose:
    /// `(k, m)^T x (k, n) -> (m, n)`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Tensor::matmul`].
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        gemm_tensor(self, other, true, false)
    }

    /// `self x other^T` without materializing the transpose:
    /// `(m, k) x (n, k)^T -> (m, n)`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Tensor::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        gemm_tensor(self, other, false, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::tests::ramp;

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_validates_dims() {
        let a = Tensor::zeros([2, 3]);
        assert!(a.matmul(&Tensor::zeros([4, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros([3])).is_err());
        assert!(Tensor::zeros([3]).matmul(&a).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = ramp(&[3, 3]);
        let id = Tensor::from_fn([3, 3], |idx| if idx[0] == idx[1] { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    fn assert_close(got: &Tensor, want: &Tensor) {
        assert_eq!(got.dims(), want.dims());
        for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                "idx {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn packed_kernel_matches_reference_across_shape_grid() {
        // 1x1, primes straddling MR/NR, tall/skinny, wide, and block-edge
        // sizes — the acceptance grid for the packed kernel.
        let shapes = [
            (1, 1, 1),
            (1, 8, 3),
            (5, 7, 3),
            (13, 11, 17),
            (37, 41, 35),
            (3, 200, 2),
            (200, 3, 2),
            (64, 96, 300),
        ];
        for &(m, n, k) in &shapes {
            let a = Tensor::from_fn([m, k], |i| ((i[0] * 7 + i[1] * 3) % 11) as f32 - 5.0);
            let b = Tensor::from_fn([k, n], |i| ((i[0] * 5 + i[1] * 2) % 13) as f32 - 6.0);
            let packed = a.matmul(&b).unwrap();
            let reference = matmul_reference(&a, &b).unwrap();
            assert_close(&packed, &reference);
        }
    }

    #[test]
    fn reference_kernel_validates_dims() {
        let a = Tensor::zeros([2, 3]);
        assert!(matmul_reference(&a, &Tensor::zeros([4, 2])).is_err());
        assert!(matmul_reference(&a, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        for (k, m, n) in [(4, 3, 5), (17, 13, 9), (33, 2, 70)] {
            let a = Tensor::from_fn([k, m], |i| (i[0] + 2 * i[1]) as f32);
            let b = Tensor::from_fn([k, n], |i| (2 * i[0] + i[1]) as f32);
            let expected = a.transpose().unwrap().matmul(&b).unwrap();
            assert_close(&a.matmul_tn(&b).unwrap(), &expected);
        }
        let a = Tensor::from_fn([4, 3], |i| (i[0] + 2 * i[1]) as f32);
        assert!(a.matmul_tn(&Tensor::zeros([3, 5])).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        for (m, k, n) in [(4, 3, 5), (13, 17, 9), (2, 33, 70)] {
            let a = Tensor::from_fn([m, k], |i| (i[0] + 2 * i[1]) as f32);
            let b = Tensor::from_fn([n, k], |i| (2 * i[0] + i[1]) as f32);
            let expected = a.matmul(&b.transpose().unwrap()).unwrap();
            assert_close(&a.matmul_nt(&b).unwrap(), &expected);
        }
        let a = Tensor::from_fn([4, 3], |i| (i[0] + 2 * i[1]) as f32);
        assert!(a.matmul_nt(&Tensor::zeros([5, 4])).is_err());
    }
}
