//! Test-time input corruptions.
//!
//! Evaluating a trained model on corrupted copies of the test set probes
//! input-space robustness — the paper's motivation ("data gathered in the
//! wild", §1) and the CURE lineage (§2.3) both concern it. These
//! corruptions are deterministic given a seed so sweeps are reproducible.

use crate::synth::Dataset;
use hero_tensor::rng::Rng;
use hero_tensor::rng::StdRng;

/// The supported corruption families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Additive Gaussian pixel noise with the given standard deviation.
    GaussianNoise(f32),
}

impl Corruption {
    /// Returns a corrupted copy of the dataset (labels untouched).
    pub fn apply(&self, data: &Dataset, seed: u64) -> Dataset {
        let mut out = data.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            Corruption::GaussianNoise(std) => {
                for v in out.images.data_mut() {
                    *v += std * standard_normal(&mut rng);
                }
            }
        }
        out
    }
}

fn standard_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthGenerator, SynthSpec};

    fn data() -> Dataset {
        SynthGenerator::new(SynthSpec::default()).generate(40, 1)
    }

    #[test]
    fn corruptions_preserve_shape_and_labels() {
        let d = data();
        let out = Corruption::GaussianNoise(0.5).apply(&d, 1);
        assert_eq!(out.images.dims(), d.images.dims());
        assert_eq!(out.labels, d.labels);
        assert!(out.images.is_finite());
    }

    #[test]
    fn gaussian_noise_scales_with_severity() {
        let d = data();
        let mild = Corruption::GaussianNoise(0.1).apply(&d, 2);
        let harsh = Corruption::GaussianNoise(1.0).apply(&d, 2);
        let dist = |a: &Dataset| a.images.sub(&d.images).unwrap().norm_l2();
        assert!(dist(&harsh) > 5.0 * dist(&mild));
        // Zero severity is the identity.
        let none = Corruption::GaussianNoise(0.0).apply(&d, 2);
        assert_eq!(none.images, d.images);
    }

    #[test]
    fn corruption_is_deterministic_in_seed() {
        let d = data();
        let a = Corruption::GaussianNoise(0.3).apply(&d, 7);
        let b = Corruption::GaussianNoise(0.3).apply(&d, 7);
        assert_eq!(a.images, b.images);
        let c = Corruption::GaussianNoise(0.3).apply(&d, 8);
        assert_ne!(a.images, c.images);
    }
}
