//! Training-time data augmentation: pad-and-random-crop plus random
//! horizontal flip — the paper's "basic data augmentations" (§5.1).

use hero_tensor::rng::Rng;
use hero_tensor::{Result, Tensor};

/// Augmentation policy applied independently to each batch at training
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Augment {
    /// Zero padding before the random crop (the crop returns to the
    /// original size). 0 disables cropping.
    pub pad: usize,
    /// Apply a random horizontal flip with probability ½.
    pub hflip: bool,
}

impl Augment {
    /// The paper's CIFAR policy: pad-crop (1 pixel at our scale) + flip.
    pub fn standard() -> Self {
        Augment {
            pad: 1,
            hflip: true,
        }
    }

    /// Applies the policy to an NCHW batch, randomizing per batch.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the batch is not 4-D.
    pub fn apply(&self, batch: &Tensor, rng: &mut impl Rng) -> Result<Tensor> {
        if batch.rank() != 4 {
            return Err(hero_tensor::TensorError::RankMismatch {
                expected: 4,
                actual: batch.rank(),
            });
        }
        let mut out = batch.clone();
        if self.pad > 0 {
            let h = batch.dims()[2];
            let w = batch.dims()[3];
            let padded = out.pad2d(self.pad)?;
            let top = rng.gen_range(0..=2 * self.pad);
            let left = rng.gen_range(0..=2 * self.pad);
            out = padded.crop_window2d(top, left, h, w)?;
        }
        if self.hflip && rng.gen::<bool>() {
            out = out.flip_horizontal()?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::rng::StdRng;

    fn batch() -> Tensor {
        Tensor::from_fn([2, 3, 4, 4], |i| (i.iter().sum::<usize>() % 7) as f32)
    }

    #[test]
    fn none_policy_is_identity() {
        let b = batch();
        let out = Augment {
            pad: 0,
            hflip: false,
        }
        .apply(&b, &mut StdRng::seed_from_u64(0))
        .unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn apply_preserves_shape() {
        let b = batch();
        let out = Augment::standard()
            .apply(&b, &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(out.dims(), b.dims());
        assert!(out.is_finite());
    }

    #[test]
    fn augmentation_varies_across_calls() {
        let b = batch();
        let mut rng = StdRng::seed_from_u64(2);
        let aug = Augment::standard();
        let outs: Vec<Tensor> = (0..8).map(|_| aug.apply(&b, &mut rng).unwrap()).collect();
        assert!(
            outs.iter().any(|o| o != &outs[0]),
            "no variation in 8 draws"
        );
    }

    #[test]
    fn flip_only_policy_flips_half_the_time() {
        let b = batch();
        let aug = Augment {
            pad: 0,
            hflip: true,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut flipped = 0;
        for _ in 0..64 {
            let out = aug.apply(&b, &mut rng).unwrap();
            if out != b {
                assert_eq!(out, b.flip_horizontal().unwrap());
                flipped += 1;
            }
        }
        assert!((16..=48).contains(&flipped), "flips {flipped}/64");
    }

    #[test]
    fn crop_keeps_content_within_pad_distance() {
        // A single bright pixel moves by at most `pad` in each direction.
        let mut b = Tensor::zeros([1, 1, 5, 5]);
        b.data_mut()[2 * 5 + 2] = 1.0;
        let aug = Augment {
            pad: 1,
            hflip: false,
        };
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..16 {
            let out = aug.apply(&b, &mut rng).unwrap();
            assert_eq!(out.sum(), 1.0);
            let idx = out.data().iter().position(|&v| v == 1.0).unwrap();
            let (y, x) = (idx / 5 % 5, idx % 5);
            assert!(
                (1..=3).contains(&y) && (1..=3).contains(&x),
                "pixel at ({y},{x})"
            );
        }
    }

    #[test]
    fn rejects_non_image_batches() {
        let b = Tensor::zeros([2, 3]);
        assert!(Augment::standard()
            .apply(&b, &mut StdRng::seed_from_u64(5))
            .is_err());
    }
}
