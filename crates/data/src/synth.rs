//! Procedural class-texture image generator.
//!
//! Each class is defined by a smooth random texture prototype (a sum of
//! random 2-D sinusoids per channel). A sample is its class prototype with
//! random amplitude, a small spatial shift and additive Gaussian noise.
//! The construction gives a classification task with the properties the
//! HERO experiments need at CPU scale: class structure a small CNN can
//! learn, per-sample noise that a large model can overfit, and enough
//! difficulty that flat-vs-sharp minima differences show up in test
//! accuracy (see DESIGN.md §1 for the substitution rationale).

use hero_tensor::rng::Rng;
use hero_tensor::rng::StdRng;
use hero_tensor::Tensor;

/// Configuration of a synthetic vision dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSpec {
    /// Number of classes.
    pub classes: usize,
    /// Channels per image (3 everywhere, like the paper's RGB inputs).
    pub channels: usize,
    /// Spatial side length.
    pub hw: usize,
    /// Standard deviation of per-pixel Gaussian noise.
    pub noise_std: f32,
    /// Maximum circular shift (pixels) applied per sample.
    pub max_shift: usize,
    /// Number of prototype "super-classes"; classes within a super-class
    /// share most of their texture (used by the C100 preset to mimic
    /// CIFAR-100's fine/coarse structure). `0` means every class is
    /// independent.
    pub superclasses: usize,
    /// Amplitude of each sample's private smooth texture. Like the
    /// idiosyncratic detail of a real photograph, it makes individual
    /// samples identifiable — which is what lets a high-capacity model
    /// memorize (noisy) labels and what separates flat from sharp
    /// minimizers. `0` disables it.
    pub sample_texture: f32,
    /// Base RNG seed; prototypes and samples derive from it.
    pub seed: u64,
}

impl Default for SynthSpec {
    /// 10 independent classes of 3×8×8 textures with moderate noise.
    fn default() -> Self {
        SynthSpec {
            classes: 10,
            channels: 3,
            hw: 8,
            noise_std: 0.45,
            max_shift: 1,
            superclasses: 0,
            sample_texture: 0.0,
            seed: 0x5EED,
        }
    }
}

/// A generated dataset: images in NCHW layout plus integer labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Images, shape `(n, channels, hw, hw)`.
    pub images: Tensor,
    /// Class label per image.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `(channels, hw, hw)` shape of one image.
    pub fn image_dims(&self) -> (usize, usize, usize) {
        let d = self.images.dims();
        (d[1], d[2], d[3])
    }
}

/// Generator holding the class prototypes for one [`SynthSpec`].
#[derive(Debug, Clone)]
pub struct SynthGenerator {
    spec: SynthSpec,
    /// Flattened prototype per class, each of `channels*hw*hw` values.
    prototypes: Vec<Vec<f32>>,
}

impl SynthGenerator {
    /// Builds the class prototypes for `spec` (deterministic in the seed).
    pub fn new(spec: SynthSpec) -> Self {
        let mut proto_rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9));
        let mut prototypes = Vec::with_capacity(spec.classes);
        if spec.superclasses == 0 {
            for _ in 0..spec.classes {
                prototypes.push(texture(&spec, &mut proto_rng, 1.0));
            }
        } else {
            // Fine classes = super prototype + a smaller private texture.
            let supers: Vec<Vec<f32>> = (0..spec.superclasses)
                .map(|_| texture(&spec, &mut proto_rng, 1.0))
                .collect();
            for class in 0..spec.classes {
                let s = &supers[class % spec.superclasses];
                let fine = texture(&spec, &mut proto_rng, 0.6);
                prototypes.push(s.iter().zip(&fine).map(|(a, b)| a + b).collect());
            }
        }
        SynthGenerator { spec, prototypes }
    }

    /// The generator's spec.
    pub fn spec(&self) -> &SynthSpec {
        &self.spec
    }

    /// Generates `n` samples with balanced labels. `split_seed`
    /// distinguishes train/test draws (different seeds give disjoint noise
    /// and shifts over the same prototypes — the train/test relationship of
    /// a real dataset).
    pub fn generate(&self, n: usize, split_seed: u64) -> Dataset {
        let spec = &self.spec;
        let mut rng =
            StdRng::seed_from_u64(spec.seed.wrapping_add(split_seed.wrapping_mul(0xC2B2_AE35)));
        let pix = spec.channels * spec.hw * spec.hw;
        let mut data = Vec::with_capacity(n * pix);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % spec.classes;
            labels.push(class);
            let amp: f32 = rng.gen_range(0.8..1.2);
            let dx = rng.gen_range(0..=2 * spec.max_shift) as isize - spec.max_shift as isize;
            let dy = rng.gen_range(0..=2 * spec.max_shift) as isize - spec.max_shift as isize;
            let proto = &self.prototypes[class];
            let private = if spec.sample_texture > 0.0 {
                Some(texture(spec, &mut rng, spec.sample_texture))
            } else {
                None
            };
            for c in 0..spec.channels {
                for y in 0..spec.hw {
                    for x in 0..spec.hw {
                        let sy = (y as isize + dy).rem_euclid(spec.hw as isize) as usize;
                        let sx = (x as isize + dx).rem_euclid(spec.hw as isize) as usize;
                        let off = (c * spec.hw + sy) * spec.hw + sx;
                        let base = proto[off];
                        let idio = private.as_ref().map_or(0.0, |p| p[off]);
                        let noise = spec.noise_std * standard_normal(&mut rng);
                        data.push(amp * base + idio + noise);
                    }
                }
            }
        }
        let images = Tensor::from_vec(data, [n, spec.channels, spec.hw, spec.hw])
            .expect("volume matches by construction");
        Dataset {
            images,
            labels,
            classes: spec.classes,
        }
    }

    /// Convenience: a `(train, test)` pair with standard split seeds.
    pub fn train_test(&self, train_n: usize, test_n: usize) -> (Dataset, Dataset) {
        (self.generate(train_n, 1), self.generate(test_n, 2))
    }
}

/// A smooth random texture: each channel is a sum of three random 2-D
/// sinusoids with amplitudes scaled by `strength`.
fn texture(spec: &SynthSpec, rng: &mut StdRng, strength: f32) -> Vec<f32> {
    let hw = spec.hw as f32;
    let mut out = vec![0.0f32; spec.channels * spec.hw * spec.hw];
    for c in 0..spec.channels {
        for _ in 0..3 {
            let fx: f32 = rng.gen_range(0.5..2.5) / hw;
            let fy: f32 = rng.gen_range(0.5..2.5) / hw;
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let amp: f32 = strength * rng.gen_range(0.3..0.7);
            for y in 0..spec.hw {
                for x in 0..spec.hw {
                    let v = amp
                        * (std::f32::consts::TAU * (fx * x as f32 + fy * y as f32) + phase).sin();
                    out[(c * spec.hw + y) * spec.hw + x] += v;
                }
            }
        }
    }
    out
}

fn standard_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let g = SynthGenerator::new(SynthSpec::default());
        let a = g.generate(20, 1);
        let b = g.generate(20, 1);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_split_seeds_differ() {
        let g = SynthGenerator::new(SynthSpec::default());
        let (train, test) = g.train_test(20, 20);
        assert_ne!(train.images, test.images);
        assert_eq!(train.labels, test.labels); // balanced label pattern
    }

    #[test]
    fn labels_are_balanced() {
        let g = SynthGenerator::new(SynthSpec::default());
        let d = g.generate(100, 1);
        for class in 0..10 {
            assert_eq!(d.labels.iter().filter(|&&l| l == class).count(), 10);
        }
        assert_eq!(d.len(), 100);
        assert!(!d.is_empty());
        assert_eq!(d.image_dims(), (3, 8, 8));
    }

    #[test]
    fn images_are_finite_and_scaled() {
        let g = SynthGenerator::new(SynthSpec::default());
        let d = g.generate(50, 3);
        assert!(d.images.is_finite());
        assert!(d.images.norm_linf() < 10.0);
        assert!(d.images.norm_l2() > 0.0);
    }

    #[test]
    fn same_class_samples_are_more_similar_than_cross_class() {
        // Class structure must exist for a classifier to learn anything.
        let spec = SynthSpec {
            noise_std: 0.1,
            seed: 3,
            ..SynthSpec::default()
        };
        let g = SynthGenerator::new(spec);
        let d = g.generate(40, 1);
        let img = |i: usize| d.images.narrow(i, 1).unwrap();
        // Samples i and i+10 share a class; i and i+1 do not.
        let mut same = 0.0;
        let mut cross = 0.0;
        for i in 0..10 {
            same += img(i).sub(&img(i + 10)).unwrap().norm_l2();
            cross += img(i).sub(&img((i + 1) % 10 + 10)).unwrap().norm_l2();
        }
        assert!(
            same < cross,
            "within-class distance {same} should be below cross-class {cross}"
        );
    }

    #[test]
    fn superclass_structure_correlates_fine_classes() {
        let spec = SynthSpec {
            classes: 10,
            superclasses: 2,
            noise_std: 0.0,
            max_shift: 0,
            ..SynthSpec::default()
        };
        let g = SynthGenerator::new(spec);
        let d = g.generate(10, 1);
        let img = |i: usize| d.images.narrow(i, 1).unwrap();
        // Classes 0 and 2 share superclass 0; classes 0 and 1 do not.
        let same_super = img(0).sub(&img(2)).unwrap().norm_l2();
        let cross_super = img(0).sub(&img(1)).unwrap().norm_l2();
        assert!(same_super < cross_super);
    }

    #[test]
    fn noise_knob_controls_sample_spread() {
        let quiet = SynthGenerator::new(SynthSpec {
            noise_std: 0.01,
            ..SynthSpec::default()
        });
        let loud = SynthGenerator::new(SynthSpec {
            noise_std: 1.0,
            ..SynthSpec::default()
        });
        // Distance between two samples of the same class, one per noise level.
        let dq = quiet.generate(20, 1);
        let dl = loud.generate(20, 1);
        let spread = |d: &Dataset| {
            d.images
                .narrow(0, 1)
                .unwrap()
                .sub(&d.images.narrow(10, 1).unwrap())
                .unwrap()
                .norm_l2()
        };
        assert!(spread(&dl) > spread(&dq));
    }
}
