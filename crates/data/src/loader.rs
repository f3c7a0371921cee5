//! Shuffled mini-batch iteration over a [`Dataset`].

use crate::synth::Dataset;
use hero_tensor::rng::Rng;
use hero_tensor::rng::StdRng;
use hero_tensor::Tensor;

/// One mini-batch: images and aligned labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images `(b, c, h, w)`.
    pub images: Tensor,
    /// Labels, length `b`.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Balanced contiguous shard ranges `(start, len)` covering `0..n`.
///
/// Produces `min(shards, n)` non-empty ranges whose lengths differ by at
/// most one (the first `n % shards` ranges take the extra sample). Empty
/// ranges are never emitted, so callers can weight each shard by
/// `len / n` without dividing by zero.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_bounds(n: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "shard count must be positive");
    let base = n / shards;
    let rem = n % shards;
    let mut out = Vec::with_capacity(shards.min(n));
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < rem);
        if len == 0 {
            break;
        }
        out.push((start, len));
        start += len;
    }
    out
}

/// Produces shuffled mini-batches, reshuffling every epoch.
#[derive(Debug)]
pub struct Loader {
    batch_size: usize,
    rng: StdRng,
}

impl Loader {
    /// Creates a loader with the given batch size and shuffle seed.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Loader {
            batch_size,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Current shuffle-RNG state, for checkpointing mid-training.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores the shuffle RNG to a previously captured state so a
    /// resumed run draws the exact same epoch orderings.
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = StdRng::seed_from_u64(state);
    }

    /// Returns the batches of one epoch in a fresh shuffled order. The
    /// final batch may be smaller than `batch_size`.
    pub fn epoch(&mut self, data: &Dataset) -> Vec<Batch> {
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher-Yates shuffle.
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let (c, h, w) = data.image_dims();
        let pix = c * h * w;
        let mut batches = Vec::with_capacity(n.div_ceil(self.batch_size));
        for chunk in order.chunks(self.batch_size) {
            // Leased from the scratch pool, so a batch recycles when dropped.
            let mut images = Tensor::zeros([chunk.len(), c, h, w]);
            for (dst, &idx) in images.data_mut().chunks_exact_mut(pix.max(1)).zip(chunk) {
                dst.copy_from_slice(&data.images.data()[idx * pix..(idx + 1) * pix]);
            }
            let labels = chunk.iter().map(|&idx| data.labels[idx]).collect();
            batches.push(Batch { images, labels });
        }
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthGenerator, SynthSpec};

    fn data(n: usize) -> Dataset {
        SynthGenerator::new(SynthSpec::default()).generate(n, 1)
    }

    #[test]
    fn epoch_covers_every_sample_once() {
        let d = data(23);
        let mut loader = Loader::new(5, 0);
        let batches = loader.epoch(&d);
        assert_eq!(batches.len(), 5);
        let total: usize = batches.iter().map(|b| b.labels.len()).sum();
        assert_eq!(total, 23);
        assert_eq!(batches.last().unwrap().labels.len(), 3);
        // Label histogram matches the dataset.
        let mut count = vec![0usize; d.classes];
        for b in &batches {
            for &l in &b.labels {
                count[l] += 1;
            }
        }
        let mut expected = vec![0usize; d.classes];
        for &l in &d.labels {
            expected[l] += 1;
        }
        assert_eq!(count, expected);
    }

    #[test]
    fn shuffling_changes_across_epochs() {
        let d = data(40);
        let mut loader = Loader::new(8, 1);
        let e1: Vec<usize> = loader
            .epoch(&d)
            .iter()
            .flat_map(|b| b.labels.clone())
            .collect();
        let e2: Vec<usize> = loader
            .epoch(&d)
            .iter()
            .flat_map(|b| b.labels.clone())
            .collect();
        assert_ne!(e1, e2, "two epochs produced identical order");
    }

    #[test]
    fn images_align_with_labels() {
        // Build a dataset where each image is constant = its label.
        let mut d = data(20);
        let pix = 3 * 8 * 8;
        for i in 0..20 {
            let l = d.labels[i] as f32;
            for v in &mut d.images.data_mut()[i * pix..(i + 1) * pix] {
                *v = l;
            }
        }
        let mut loader = Loader::new(6, 2);
        for b in loader.epoch(&d) {
            for (row, &label) in b.labels.iter().enumerate() {
                let first = b.images.data()[row * pix];
                assert_eq!(first, label as f32);
            }
        }
    }

    #[test]
    fn seeded_loader_is_deterministic() {
        let d = data(30);
        let a: Vec<usize> = Loader::new(7, 9)
            .epoch(&d)
            .iter()
            .flat_map(|b| b.labels.clone())
            .collect();
        let b: Vec<usize> = Loader::new(7, 9)
            .epoch(&d)
            .iter()
            .flat_map(|b| b.labels.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        Loader::new(0, 0);
    }

    #[test]
    fn shard_bounds_are_balanced_and_cover() {
        for n in 0..40 {
            for k in 1..8 {
                let bounds = shard_bounds(n, k);
                assert_eq!(bounds.len(), k.min(n));
                let total: usize = bounds.iter().map(|&(_, l)| l).sum();
                assert_eq!(total, n);
                // Contiguous and non-empty.
                let mut next = 0;
                for &(s, l) in &bounds {
                    assert_eq!(s, next);
                    assert!(l > 0);
                    next = s + l;
                }
                // Balanced: lengths differ by at most one.
                if let (Some(max), Some(min)) = (
                    bounds.iter().map(|&(_, l)| l).max(),
                    bounds.iter().map(|&(_, l)| l).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }
}
