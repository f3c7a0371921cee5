//! Stochastic Lanczos quadrature: Gaussian-broadened estimates of the
//! Hessian eigenvalue *density*, averaged over seeded probe vectors.
//!
//! Each probe runs a fully reorthogonalized Lanczos iteration
//! ([`crate::lanczos_spectrum_from`]) from an independent seeded random
//! start, yielding Ritz values θᵢ with quadrature weights wᵢ (Σwᵢ = 1).
//! Averaging the discrete measures over `k` probes and convolving with a
//! Gaussian of width σ gives the density estimate
//!
//! ```text
//! ρ(λ) ≈ (1/k) Σ_probes Σ_i wᵢ · N(λ; θᵢ, σ²)
//! ```
//!
//! Every scalar summary (λ_max, λ_min, spectral mean, second moment) is
//! reported as an [`Estimate`] with its across-probe standard error.

use crate::hvp::GradOracle;
use crate::lanczos::{lanczos_spectrum_from, LanczosResult};
use crate::stats::{probe_seed, Estimate};
use hero_tensor::rng::StdRng;
use hero_tensor::{fill_standard_normal, Result, Tensor, TensorError};

/// Configuration for [`slq_density`].
#[derive(Debug, Clone, Copy)]
pub struct SlqConfig {
    /// Lanczos steps per probe (each step costs one gradient evaluation).
    pub steps: usize,
    /// Independent seeded probe vectors averaged into the density.
    pub probes: usize,
    /// Finite-difference step for the inner HVPs.
    pub eps: f32,
    /// Base seed; probe `i` draws its start vector from
    /// [`probe_seed`]`(seed, i)`.
    pub seed: u64,
    /// Number of evaluation points in the density grid.
    pub grid_points: usize,
    /// Gaussian broadening width as a fraction of the observed spectral
    /// width (`σ = sigma_rel · (λ_max − λ_min)`).
    pub sigma_rel: f32,
}

impl Default for SlqConfig {
    fn default() -> Self {
        SlqConfig {
            steps: 10,
            probes: 4,
            eps: 1e-3,
            seed: 0,
            grid_points: 64,
            sigma_rel: 0.05,
        }
    }
}

impl SlqConfig {
    /// Builder: sets the base probe seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Spectral density estimate from stochastic Lanczos quadrature.
#[derive(Debug, Clone)]
pub struct SlqDensity {
    /// Evaluation points λ, ascending, spanning the observed Ritz range
    /// padded by 3σ on each side.
    pub grid: Vec<f32>,
    /// Density ρ(λ) at each grid point (Gaussian-broadened quadrature
    /// measure; integrates to ≈1 over the grid).
    pub density: Vec<f32>,
    /// Gaussian broadening width actually used.
    pub sigma: f32,
    /// λ_max across probes (mean of per-probe largest Ritz values).
    pub lambda_max: Estimate,
    /// λ_min across probes.
    pub lambda_min: Estimate,
    /// Spectral mean `tr(H)/n = Σ wᵢθᵢ` across probes.
    pub mean_eigenvalue: Estimate,
    /// Second spectral moment `Σλᵢ²/n = Σ wᵢθᵢ²` across probes — the
    /// per-dimension analogue of HERO's Σλ² regularizer (Eq. 13).
    pub second_moment: Estimate,
    /// The per-probe Lanczos results the density was built from.
    pub probes: Vec<LanczosResult>,
}

/// Estimates the Hessian spectral density at `params` by stochastic
/// Lanczos quadrature over `cfg.probes` seeded random probes, given the
/// base gradient `base_grad = ∇L(params)` that every probe's HVPs share.
///
/// Costs `probes · steps` gradient evaluations. Deterministic for a fixed
/// seed; probe `i`'s stream does not depend on the probe count.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for zero probes or zero steps
/// and propagates oracle errors (including NaN/Inf gradients, surfaced as
/// clean errors by the Lanczos layer).
pub fn slq_density(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    base_grad: &[Tensor],
    cfg: SlqConfig,
) -> Result<SlqDensity> {
    if cfg.probes == 0 {
        return Err(TensorError::InvalidArgument(
            "slq needs at least one probe".into(),
        ));
    }
    let _obs = hero_obs::span("slq");
    let mut probes: Vec<LanczosResult> = Vec::with_capacity(cfg.probes);
    let (mut maxs, mut mins, mut means, mut seconds) = (
        Vec::with_capacity(cfg.probes),
        Vec::with_capacity(cfg.probes),
        Vec::with_capacity(cfg.probes),
        Vec::with_capacity(cfg.probes),
    );
    for i in 0..cfg.probes {
        let mut rng = StdRng::seed_from_u64(probe_seed(cfg.seed, i));
        let v0: Vec<Tensor> = params
            .iter()
            .map(|p| {
                let mut t = Tensor::zeros(p.shape().clone());
                fill_standard_normal(&mut t, &mut rng);
                t
            })
            .collect();
        let res = lanczos_spectrum_from(oracle, params, base_grad, &v0, cfg.steps, cfg.eps)?;
        maxs.push(res.lambda_max());
        mins.push(res.lambda_min());
        means.push(res.mean_eigenvalue());
        seconds.push(res.second_moment());
        probes.push(res);
    }
    // Broadening width from the pooled Ritz range; degenerate (single
    // eigenvalue) spectra fall back to a scale-relative width.
    let lo = mins.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = maxs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let width = hi - lo;
    let sigma = if width > f32::MIN_POSITIVE {
        cfg.sigma_rel * width
    } else {
        cfg.sigma_rel * hi.abs().max(1.0)
    };
    let points = cfg.grid_points.max(2);
    let (glo, ghi) = (lo - 3.0 * sigma, hi + 3.0 * sigma);
    let step = (ghi - glo) / (points - 1) as f32;
    let norm = 1.0 / (sigma * (2.0 * std::f32::consts::PI).sqrt());
    let inv_k = 1.0 / cfg.probes as f32;
    let mut grid = Vec::with_capacity(points);
    let mut density = Vec::with_capacity(points);
    for g in 0..points {
        let lambda = glo + step * g as f32;
        let mut rho = 0.0f32;
        for res in &probes {
            for (&theta, &w) in res.ritz_values.iter().zip(&res.weights) {
                let z = (lambda - theta) / sigma;
                rho += w * norm * (-0.5 * z * z).exp();
            }
        }
        grid.push(lambda);
        density.push(rho * inv_k);
    }
    Ok(SlqDensity {
        grid,
        density,
        sigma,
        lambda_max: Estimate::from_samples(&maxs),
        lambda_min: Estimate::from_samples(&mins),
        mean_eigenvalue: Estimate::from_samples(&means),
        second_moment: Estimate::from_samples(&seconds),
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_testkit::Quadratic;

    /// [`slq_density`] on a quadratic, with its base gradient.
    fn density(q: &Quadratic, params: &[Tensor], cfg: SlqConfig) -> Result<SlqDensity> {
        let mut oracle = q.oracle();
        let (_, base) = oracle(params)?;
        slq_density(&mut oracle, params, &base, cfg)
    }

    #[test]
    fn density_moments_match_diagonal_spectrum() {
        // Exact spectrum {1, 2, 5, 9}: tr/n = 4.25, Σλ²/n = 111/4 = 27.75.
        let q = Quadratic::diag(&[1.0, 2.0, 5.0, 9.0]);
        let params = vec![Tensor::zeros([4])];
        let cfg = SlqConfig {
            steps: 4,
            probes: 16,
            ..SlqConfig::default()
        };
        let d = density(&q, &params, cfg).unwrap();
        assert!(
            (d.lambda_max.mean - 9.0).abs() < 0.2,
            "λmax {}",
            d.lambda_max.mean
        );
        assert!((d.lambda_min.mean - 1.0).abs() < 0.2);
        assert!(
            (d.mean_eigenvalue.mean - 4.25).abs() < 0.6,
            "mean {} ± {}",
            d.mean_eigenvalue.mean,
            d.mean_eigenvalue.std_error
        );
        assert!(
            (d.second_moment.mean - 27.75).abs() < 6.0,
            "second {}",
            d.second_moment.mean
        );
        assert_eq!(d.lambda_max.samples, 16);
        assert!(d.lambda_max.std_error.is_finite());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let q = Quadratic::diag(&[2.0, 4.0]);
        let params = vec![Tensor::zeros([2])];
        let cfg = SlqConfig {
            steps: 2,
            probes: 3,
            seed: 7,
            ..SlqConfig::default()
        };
        let a = density(&q, &params, cfg).unwrap();
        let b = density(&q, &params, cfg).unwrap();
        assert_eq!(a.density, b.density);
        assert_eq!(a.lambda_max, b.lambda_max);
    }

    #[test]
    fn zero_probes_is_an_error() {
        let q = Quadratic::diag(&[1.0]);
        let params = vec![Tensor::zeros([1])];
        let cfg = SlqConfig {
            probes: 0,
            ..SlqConfig::default()
        };
        assert!(density(&q, &params, cfg).is_err());
    }

    #[test]
    fn single_eigenvalue_spectrum_broadened_cleanly() {
        // All eigenvalues equal: zero spectral width must not divide by 0.
        let q = Quadratic::diag(&[2.0, 2.0, 2.0]);
        let params = vec![Tensor::zeros([3])];
        let cfg = SlqConfig {
            steps: 3,
            probes: 4,
            ..SlqConfig::default()
        };
        let d = density(&q, &params, cfg).unwrap();
        assert!(d.sigma > 0.0);
        assert!(d.density.iter().all(|r| r.is_finite()));
        assert!((d.lambda_max.mean - 2.0).abs() < 0.1);
    }
}
