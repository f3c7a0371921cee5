//! Scalar sharpness metric.
//!
//! Complements the 2-D scans with Keskar-style ε-sharpness, the worst
//! random loss increase in a relative ℓ∞ box. It shrinks when HERO's
//! regularization works.

use crate::surface::LossOracle;
use hero_tensor::rng::Rng;
use hero_tensor::{Result, Tensor, TensorError};

/// Keskar-style ε-sharpness estimate: the largest loss increase found by
/// random search inside the box `|δ_j| ≤ eps · (|w_j| + 1)`, normalized by
/// `1 + base_loss` (as in Keskar et al.), in percent.
///
/// Random search is a lower bound on the true (maximized) sharpness; with
/// a few dozen samples it ranks flat vs sharp minima reliably.
///
/// # Errors
///
/// Propagates oracle errors; rejects non-positive `eps` or zero samples.
pub fn epsilon_sharpness(
    oracle: &mut dyn LossOracle,
    params: &[Tensor],
    eps: f32,
    samples: usize,
    rng: &mut impl Rng,
) -> Result<f32> {
    if eps <= 0.0 || samples == 0 {
        return Err(TensorError::InvalidArgument(
            "epsilon_sharpness needs eps > 0 and samples > 0".into(),
        ));
    }
    let base = oracle.loss(params)?;
    let mut worst = base;
    let mut shifted: Vec<Tensor> = params.to_vec();
    for _ in 0..samples {
        for (s, p) in shifted.iter_mut().zip(params) {
            *s = p.clone();
            for (v, &w) in s.data_mut().iter_mut().zip(p.data()) {
                let bound = eps * (w.abs() + 1.0);
                *v += rng.gen_range(-bound..=bound);
            }
        }
        worst = worst.max(oracle.loss(&shifted)?);
    }
    Ok(100.0 * (worst - base) / (1.0 + base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::rng::StdRng;

    fn bowl(k: f32) -> impl FnMut(&[Tensor]) -> Result<f32> {
        move |ps: &[Tensor]| Ok(0.5 * k * ps[0].norm_l2_sq())
    }

    #[test]
    fn epsilon_sharpness_ranks_curvature() {
        let params = vec![Tensor::zeros([8])];
        let mut rng = StdRng::seed_from_u64(0);
        let sharp = epsilon_sharpness(&mut bowl(50.0), &params, 0.05, 32, &mut rng).unwrap();
        let flat = epsilon_sharpness(&mut bowl(0.5), &params, 0.05, 32, &mut rng).unwrap();
        assert!(sharp > 10.0 * flat, "sharp {sharp} vs flat {flat}");
        assert!(flat >= 0.0);
    }

    #[test]
    fn epsilon_sharpness_grows_with_radius() {
        let params = vec![Tensor::zeros([8])];
        let mut rng = StdRng::seed_from_u64(1);
        let small = epsilon_sharpness(&mut bowl(4.0), &params, 0.01, 32, &mut rng).unwrap();
        let large = epsilon_sharpness(&mut bowl(4.0), &params, 0.1, 32, &mut rng).unwrap();
        assert!(large > small);
    }

    #[test]
    fn epsilon_sharpness_validates() {
        let params = vec![Tensor::zeros([2])];
        let mut rng = StdRng::seed_from_u64(2);
        assert!(epsilon_sharpness(&mut bowl(1.0), &params, 0.0, 8, &mut rng).is_err());
        assert!(epsilon_sharpness(&mut bowl(1.0), &params, 0.1, 0, &mut rng).is_err());
    }
}
