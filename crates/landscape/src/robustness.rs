//! Empirical weight-perturbation robustness probes.
//!
//! These measure directly what Theorems 1-3 reason about: how much the
//! loss rises under random ℓ2- or ℓ∞-bounded weight perturbations of a
//! given radius.

use crate::surface::LossOracle;
use hero_tensor::rng::Rng;
use hero_tensor::{fill_standard_normal, global_norm_l2, Result, Tensor};

/// Which norm ball perturbations are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbNorm {
    /// ℓ2 sphere of the given radius (generalization, Theorem 1).
    L2,
    /// ℓ∞ box of the given radius — each coordinate uniform in `[-r, r]`,
    /// the quantization perturbation model (Theorem 2).
    Linf,
}

/// Summary of a random-perturbation probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessProbe {
    /// Perturbation radius used.
    pub radius: f32,
    /// Loss at the unperturbed weights.
    pub base_loss: f32,
    /// Mean loss over the sampled perturbations.
    pub mean_loss: f32,
    /// Worst sampled loss.
    pub max_loss: f32,
}

impl RobustnessProbe {
    /// Mean loss increase over the base loss.
    pub fn mean_increase(&self) -> f32 {
        self.mean_loss - self.base_loss
    }
}

/// Samples `samples` random perturbations of the given radius and norm and
/// measures the resulting losses.
///
/// # Errors
///
/// Propagates oracle and shape errors.
pub fn probe_robustness(
    oracle: &mut dyn LossOracle,
    params: &[Tensor],
    norm: PerturbNorm,
    radius: f32,
    samples: usize,
    rng: &mut impl Rng,
) -> Result<RobustnessProbe> {
    let base_loss = oracle.loss(params)?;
    let mut mean = 0.0;
    let mut worst = f32::NEG_INFINITY;
    let mut shifted: Vec<Tensor> = params.to_vec();
    for _ in 0..samples {
        match norm {
            PerturbNorm::L2 => {
                // Gaussian direction scaled to the sphere of `radius`.
                let mut delta: Vec<Tensor> = params
                    .iter()
                    .map(|p| {
                        let mut t = Tensor::zeros(p.shape().clone());
                        fill_standard_normal(&mut t, rng);
                        t
                    })
                    .collect();
                let n = global_norm_l2(&delta).max(f32::MIN_POSITIVE);
                for d in &mut delta {
                    d.scale_in_place(radius / n);
                }
                for ((s, p), d) in shifted.iter_mut().zip(params).zip(&delta) {
                    *s = p.add(d)?;
                }
            }
            PerturbNorm::Linf => {
                for (s, p) in shifted.iter_mut().zip(params) {
                    *s = p.clone();
                    for v in s.data_mut() {
                        *v += rng.gen_range(-radius..=radius);
                    }
                }
            }
        }
        let l = oracle.loss(&shifted)?;
        mean += l;
        worst = worst.max(l);
    }
    mean /= samples.max(1) as f32;
    Ok(RobustnessProbe {
        radius,
        base_loss,
        mean_loss: mean,
        max_loss: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::rng::StdRng;

    fn bowl(k: f32) -> impl FnMut(&[Tensor]) -> Result<f32> {
        move |ps: &[Tensor]| Ok(0.5 * k * ps[0].norm_l2_sq())
    }

    #[test]
    fn probe_reports_zero_increase_at_zero_radius() {
        let params = vec![Tensor::zeros([4])];
        let p = probe_robustness(
            &mut bowl(3.0),
            &params,
            PerturbNorm::L2,
            0.0,
            8,
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap();
        assert_eq!(p.base_loss, 0.0);
        assert!(p.mean_increase().abs() < 1e-7);
        assert!((p.max_loss - p.base_loss).abs() < 1e-7);
    }

    #[test]
    fn l2_probe_on_quadratic_matches_theory() {
        // On 0.5*k*||x||², an ℓ2 perturbation of radius r from the origin
        // raises the loss by exactly 0.5*k*r².
        let params = vec![Tensor::zeros([8])];
        let p = probe_robustness(
            &mut bowl(2.0),
            &params,
            PerturbNorm::L2,
            0.5,
            16,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        assert!((p.mean_increase() - 0.25).abs() < 1e-4);
        assert!(((p.max_loss - p.base_loss) - 0.25).abs() < 1e-4);
    }

    #[test]
    fn sharper_bowl_is_less_robust() {
        let params = vec![Tensor::zeros([8])];
        let mut rng = StdRng::seed_from_u64(2);
        let sharp = probe_robustness(
            &mut bowl(50.0),
            &params,
            PerturbNorm::Linf,
            0.1,
            16,
            &mut rng,
        )
        .unwrap();
        let flat = probe_robustness(
            &mut bowl(0.5),
            &params,
            PerturbNorm::Linf,
            0.1,
            16,
            &mut rng,
        )
        .unwrap();
        assert!(sharp.mean_increase() > 10.0 * flat.mean_increase());
    }

    #[test]
    fn linf_samples_respect_the_box() {
        // Track the largest coordinate seen via a capturing oracle.
        let params = vec![Tensor::zeros([16])];
        use std::cell::Cell;
        let max_seen = Cell::new(0.0f32);
        let mut oracle = |ps: &[Tensor]| {
            max_seen.set(max_seen.get().max(ps[0].norm_linf()));
            Ok(0.0)
        };
        probe_robustness(
            &mut oracle,
            &params,
            PerturbNorm::Linf,
            0.25,
            32,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        assert!(max_seen.get() <= 0.25 + 1e-6);
        assert!(max_seen.get() > 0.2); // and the box is actually explored
    }
}
