//! Random tensor initialization schemes.
//!
//! All initializers draw from a caller-supplied [`crate::rng::Rng`] so every
//! experiment in the HERO reproduction is seedable and deterministic.

use crate::rng::Rng;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Weight initialization schemes for network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// Kaiming (He) normal: `std = sqrt(2 / fan_in)` — the standard choice
    /// for ReLU networks like the paper's ResNet/VGG/MobileNet models.
    KaimingNormal {
        /// Number of input connections per output unit.
        fan_in: usize,
    },
}

impl Init {
    /// Materializes a tensor of the given shape using this scheme.
    pub fn tensor(&self, shape: impl Into<Shape>, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let data: Vec<f32> = match *self {
            Init::KaimingNormal { fan_in } => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                (0..n).map(|_| std * sample_standard_normal(rng)).collect()
            }
        };
        Tensor::from_vec(data, shape).expect("volume matches by construction")
    }
}

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// Implemented locally so the crate only needs `rand`'s core `Rng` trait and
/// stays reproducible across `rand` minor versions.
fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let mag = (-2.0 * u1.ln()).sqrt();
        let z = mag * (2.0 * std::f32::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Fills an existing tensor in place with standard-normal samples — the
/// workhorse for Hutchinson probes and random landscape directions.
pub fn fill_standard_normal(t: &mut Tensor, rng: &mut impl Rng) {
    for v in t.data_mut() {
        *v = sample_standard_normal(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let t = Init::KaimingNormal { fan_in: 8 }.tensor([4000], &mut rng());
        let expected = (2.0f32 / 8.0).sqrt();
        let variance = t.add_scalar(-t.mean()).norm_l2_sq() / t.numel() as f32;
        assert!((variance.sqrt() - expected).abs() < 0.05);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Init::KaimingNormal { fan_in: 4 }.tensor([16], &mut rng());
        let b = Init::KaimingNormal { fan_in: 4 }.tensor([16], &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn fill_standard_normal_replaces_contents() {
        let mut t = Tensor::zeros([64]);
        fill_standard_normal(&mut t, &mut rng());
        assert!(t.norm_l2() > 0.0);
        assert!(t.is_finite());
    }
}
