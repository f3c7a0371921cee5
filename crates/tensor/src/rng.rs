//! Minimal deterministic pseudo-random number generation.
//!
//! In-tree replacement for the external `rand` crate so the workspace
//! builds with no network access. The generator is SplitMix64 (Steele,
//! Lea & Flood 2014): a 64-bit counter passed through a finalizer — fast,
//! statistically solid for experiment seeding, and trivially reproducible.
//!
//! The API mirrors the small slice of `rand` this workspace uses:
//! [`StdRng::seed_from_u64`], [`Rng::gen`] and [`Rng::gen_range`], so call
//! sites read identically to their `rand 0.8` counterparts.
//!
//! # Examples
//!
//! ```
//! use hero_tensor::rng::{Rng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let x: f32 = rng.gen();             // uniform in [0, 1)
//! let c = rng.gen_range(0..10usize);  // uniform in [0, 10)
//! assert!((0.0..1.0).contains(&x));
//! assert!(c < 10);
//! // Same seed, same stream.
//! assert_eq!(StdRng::seed_from_u64(7).next_u64(), StdRng::seed_from_u64(7).next_u64());
//! ```

use std::ops::{Range, RangeInclusive};

/// The workspace's deterministic generator (SplitMix64).
///
/// Named `StdRng` so existing call sites keep the spelling they had under
/// the `rand` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }

    /// Current internal state. Feeding it back through
    /// [`StdRng::seed_from_u64`] resumes the stream exactly where it
    /// left off — the hook checkpointing uses to persist RNG streams.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances the state and returns the next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Source of pseudo-random bits with convenience sampling methods.
pub trait Rng {
    /// The next 64 raw bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` (uniform over `T`'s natural domain:
    /// `[0, 1)` for floats, fair coin for `bool`, full range for integers).
    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a range (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        StdRng::next_u64(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types [`Rng::gen`] can produce.
pub trait Sample {
    /// Draws one value from `rng`.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Sample for f32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // 24 high bits -> [0, 1) with full f32 mantissa resolution.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for bool {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // Use a high bit; the low bits of some generators are weaker.
        rng.next_u64() & (1 << 63) != 0
    }
}

impl Sample for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// Element type produced by sampling.
    type Output;
    /// Draws one value from `rng` uniformly within the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> Self::Output;
}

fn uniform_usize<R: Rng>(rng: &mut R, lo: usize, span: usize) -> usize {
    debug_assert!(span > 0);
    // Modulo sampling; the bias for spans far below 2^64 is negligible for
    // experiment seeding and data shuffling.
    lo + (rng.next_u64() % span as u64) as usize
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample_from<R: Rng>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "gen_range on empty range");
        uniform_usize(rng, self.start, self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample_from<R: Rng>(self, rng: &mut R) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        if lo == 0 && hi == usize::MAX {
            return rng.next_u64() as usize;
        }
        uniform_usize(rng, lo, hi - lo + 1)
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample_from<R: Rng>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_u64() % (self.end - self.start)
    }
}

impl SampleRange for Range<i32> {
    type Output = i32;
    fn sample_from<R: Rng>(self, rng: &mut R) -> i32 {
        assert!(self.start < self.end, "gen_range on empty range");
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + (rng.next_u64() % span) as i64) as i32
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample_from<R: Rng>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range on empty range");
        let u: f32 = f32::sample(rng); // [0, 1)
        let v = self.start + (self.end - self.start) * u;
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange for RangeInclusive<f32> {
    type Output = f32;
    fn sample_from<R: Rng>(self, rng: &mut R) -> f32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        let u = (rng.next_u64() >> 40) as f32 * (1.0 / ((1u64 << 24) - 1) as f32); // [0, 1]
        lo + (hi - lo) * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f32_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0f64;
        for _ in 0..10_000 {
            let x: f32 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x as f64;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(2);
        let heads = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&heads), "heads {heads}");
    }

    #[test]
    fn usize_ranges_cover_and_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.gen_range(2..7usize);
            assert!((2..7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..50 {
            let v = rng.gen_range(0..=3usize);
            assert!(v <= 3);
        }
        assert_eq!(rng.gen_range(5..6usize), 5);
        assert_eq!(rng.gen_range(5..=5usize), 5);
    }

    #[test]
    fn f32_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let v = rng.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&v));
            let w = rng.gen_range(-1.0f32..=1.0);
            assert!((-1.0..=1.0).contains(&w));
        }
        let tiny = rng.gen_range(f32::MIN_POSITIVE..1.0);
        assert!(tiny > 0.0 && tiny < 1.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(3..3usize);
    }

    #[test]
    fn works_through_mut_reference() {
        fn draw(rng: &mut impl Rng) -> f32 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(6);
        // &mut StdRng must itself implement Rng for nested helper calls.
        let v = draw(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
