//! Small statistics toolkit for the spectrum observatory: mean ±
//! standard-error estimates over probe samples and Spearman rank
//! correlation for comparing sensitivity rankings.

/// A Monte-Carlo estimate annotated with its sampling uncertainty.
///
/// Every stochastic curvature estimator in this crate (Hutchinson traces,
/// SLQ moments and extremes) reports one of these instead of a bare mean,
/// so downstream artifacts carry confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean over the probes.
    pub mean: f32,
    /// Standard error of the mean `s / √n` (sample standard deviation over
    /// the square root of the sample count). `NaN` when fewer than two
    /// samples were drawn — a single probe carries no spread information.
    pub std_error: f32,
    /// Number of probe samples that produced the mean.
    pub samples: usize,
}

impl Estimate {
    /// Mean and standard error of `samples`. Empty input yields a NaN
    /// mean; a single sample yields a NaN standard error.
    pub fn from_samples(samples: &[f32]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Estimate {
                mean: f32::NAN,
                std_error: f32::NAN,
                samples: 0,
            };
        }
        let mean = samples.iter().sum::<f32>() / n as f32;
        let std_error = if n < 2 {
            f32::NAN
        } else {
            let var = samples
                .iter()
                .map(|&x| {
                    let d = x - mean;
                    d * d
                })
                .sum::<f32>()
                / (n - 1) as f32;
            (var / n as f32).sqrt()
        };
        Estimate {
            mean,
            std_error,
            samples: n,
        }
    }

    /// Half-width of the ±1.96·SE normal-approximation 95% confidence
    /// interval (NaN when the standard error is unknown).
    pub fn ci95(&self) -> f32 {
        1.96 * self.std_error
    }
}

/// Fractional ranks of `values` (average rank for ties, 1-based), the
/// standard Spearman preprocessing.
fn fractional_ranks(values: &[f32]) -> Vec<f32> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f32; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Ties share the average of the ranks they span.
        let avg = (i + j) as f32 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation between two aligned score lists (ties get
/// average ranks). Returns `NaN` for lists shorter than two entries or
/// when either list is constant (its rank variance is zero).
///
/// This is the statistic the observatory reports as the *empirical vs
/// static* sensitivity-ranking overlap: `a` the measured per-layer Hessian
/// traces, `b` the certified static loss-error bounds.
///
/// # Panics
///
/// Panics if the lists have different lengths (they always describe the
/// same layer set).
pub fn spearman_rank(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "spearman inputs must align");
    let n = a.len();
    if n < 2 {
        return f32::NAN;
    }
    let ra = fractional_ranks(a);
    let rb = fractional_ranks(b);
    let mean = (n as f32 + 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0f32, 0.0f32, 0.0f32);
    for (x, y) in ra.iter().zip(&rb) {
        let dx = x - mean;
        let dy = y - mean;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va <= 0.0 || vb <= 0.0 {
        return f32::NAN;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// [`spearman_rank`] with the degenerate cases made explicit: `None`
/// instead of `NaN` for lists shorter than two entries or with a
/// constant (zero-rank-variance) side.
///
/// Gating code must use this form: a `NaN` fed to `f32::min`/`max` or a
/// `<` comparison silently disappears (both ignore `NaN`), so a
/// degenerate ranking would pass a `worst_overlap` gate it never
/// actually cleared.
///
/// # Panics
///
/// Panics if the lists have different lengths (they always describe the
/// same layer set).
pub fn spearman_rank_checked(a: &[f32], b: &[f32]) -> Option<f32> {
    let rho = spearman_rank(a, b);
    (!rho.is_nan()).then_some(rho)
}

/// Derives the per-probe RNG seed for probe `index` of a run seeded with
/// `base`: probes are independent streams, and inserting or dropping one
/// probe never re-seeds the others (SplitMix-style stream splitting).
pub fn probe_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_mean_and_se() {
        let e = Estimate::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert!((e.mean - 2.5).abs() < 1e-6);
        // s² = (2.25+0.25+0.25+2.25)/3 = 5/3, SE = sqrt(5/12)
        assert!((e.std_error - (5.0f32 / 12.0).sqrt()).abs() < 1e-6);
        assert_eq!(e.samples, 4);
        assert!((e.ci95() - 1.96 * e.std_error).abs() < 1e-6);
    }

    #[test]
    fn estimate_degenerate_inputs() {
        assert!(Estimate::from_samples(&[]).mean.is_nan());
        let one = Estimate::from_samples(&[7.0]);
        assert_eq!(one.mean, 7.0);
        assert!(one.std_error.is_nan());
    }

    #[test]
    fn spearman_perfect_and_inverted() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman_rank(&a, &b) - 1.0).abs() < 1e-6);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman_rank(&a, &c) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_is_rank_based_not_linear() {
        // Monotone but non-linear mapping still gives exactly 1.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 8.0, 27.0, 1000.0];
        assert!((spearman_rank(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman_rank(&a, &b) - 1.0).abs() < 1e-6);
        // A constant list has zero rank variance: undefined correlation.
        assert!(spearman_rank(&[1.0, 1.0], &[1.0, 2.0]).is_nan());
    }

    #[test]
    fn spearman_degenerate_lengths() {
        assert!(spearman_rank(&[], &[]).is_nan());
        assert!(spearman_rank(&[1.0], &[2.0]).is_nan());
    }

    #[test]
    fn spearman_checked_surfaces_degeneracy_as_none() {
        assert_eq!(spearman_rank_checked(&[], &[]), None);
        assert_eq!(spearman_rank_checked(&[1.0], &[2.0]), None);
        assert_eq!(spearman_rank_checked(&[1.0, 1.0], &[1.0, 2.0]), None);
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        let rho = spearman_rank_checked(&a, &b).expect("well-defined");
        assert!((rho + 1.0).abs() < 1e-6);
    }

    #[test]
    fn probe_seeds_are_distinct_streams() {
        let s: Vec<u64> = (0..8).map(|i| probe_seed(42, i)).collect();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                assert_ne!(s[i], s[j]);
            }
        }
        assert_ne!(probe_seed(1, 0), probe_seed(2, 0));
    }
}
