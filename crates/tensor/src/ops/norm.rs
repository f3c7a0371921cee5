//! Vector norms over flattened tensors.
//!
//! These are the quantities HERO's theory is written in: the ℓ2 norm for the
//! generalization bound (Theorem 1), the ℓ∞ norm for the quantization bound
//! (Theorem 2), the ℓ1 norm for the GRAD-L1 baseline and the ℓ0 count `n`
//! appearing in Theorem 3.

use crate::tensor::Tensor;

impl Tensor {
    /// ℓ1 norm: sum of absolute values.
    pub fn norm_l1(&self) -> f32 {
        self.data().iter().map(|v| v.abs()).sum()
    }

    /// ℓ2 (Euclidean) norm.
    pub fn norm_l2(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Squared ℓ2 norm (avoids the square root when only comparing).
    pub fn norm_l2_sq(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum()
    }

    /// ℓ∞ norm: maximum absolute value.
    pub fn norm_linf(&self) -> f32 {
        self.data().iter().map(|v| v.abs()).fold(0.0, f32::max)
    }

    /// ℓ0 "norm": number of non-zero elements (the `n` in Theorem 3).
    pub fn norm_l0(&self) -> usize {
        self.data().iter().filter(|&&v| v != 0.0).count()
    }
}

/// ℓ2 norm across a list of tensors viewed as one concatenated vector.
///
/// Optimizer code treats a model's parameters as a single flattened vector;
/// this helper avoids materializing the concatenation.
pub fn global_norm_l2(tensors: &[Tensor]) -> f32 {
    tensors.iter().map(Tensor::norm_l2_sq).sum::<f32>().sqrt()
}

/// ℓ1 norm across a list of tensors viewed as one concatenated vector.
pub fn global_norm_l1(tensors: &[Tensor]) -> f32 {
    tensors.iter().map(Tensor::norm_l1).sum()
}

/// Dot product across two equally-shaped lists of tensors.
///
/// # Panics
///
/// Panics if the lists have different lengths or mismatched shapes (these
/// lists always come from the same parameter registry, so a mismatch is a
/// programming error).
pub fn global_dot(a: &[Tensor], b: &[Tensor]) -> f32 {
    assert_eq!(a.len(), b.len(), "global_dot requires equal-length lists");
    a.iter()
        .zip(b)
        .map(|(x, y)| x.dot(y).expect("global_dot shape mismatch"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [v.len()]).unwrap()
    }

    #[test]
    fn norms_of_a_known_vector() {
        let v = t(&[3.0, -4.0, 0.0]);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(v.norm_l2(), 5.0);
        assert_eq!(v.norm_l2_sq(), 25.0);
        assert_eq!(v.norm_linf(), 4.0);
        assert_eq!(v.norm_l0(), 2);
    }

    #[test]
    fn norm_inequalities_hold() {
        // ||x||_inf <= ||x||_2 <= ||x||_1 <= sqrt(n)*||x||_2
        let v = t(&[1.0, -2.5, 0.3, 4.0]);
        let (l1, l2, linf) = (v.norm_l1(), v.norm_l2(), v.norm_linf());
        assert!(linf <= l2 + 1e-6);
        assert!(l2 <= l1 + 1e-6);
        assert!(l1 <= (v.numel() as f32).sqrt() * l2 + 1e-6);
    }

    #[test]
    fn global_norms_match_concatenation() {
        let a = t(&[3.0, 0.0]);
        let b = t(&[0.0, 4.0]);
        assert_eq!(global_norm_l2(&[a.clone(), b.clone()]), 5.0);
        assert_eq!(global_norm_l1(&[a.clone(), b.clone()]), 7.0);
        assert_eq!(global_dot(&[a.clone(), b.clone()], &[a, b]), 25.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn global_dot_panics_on_length_mismatch() {
        global_dot(&[Tensor::zeros([2])], &[]);
    }
}
