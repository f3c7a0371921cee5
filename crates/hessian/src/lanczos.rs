//! Lanczos iteration over Hessian-vector products: Ritz-value estimates of
//! the Hessian spectrum (the quadrature rule behind stochastic Lanczos
//! quadrature): λ_max, λ_min and whole-spectrum summaries from one
//! Krylov run.
//!
//! The Krylov basis is kept and every new direction is re-orthogonalized
//! against *all* previous basis vectors (two classical Gram–Schmidt
//! passes). In floating point, plain three-term Lanczos loses
//! orthogonality as soon as a Ritz pair converges and then re-discovers
//! the same eigenvalue as a spurious "ghost" copy — fatal for quadrature
//! weights, which ghosts silently split. Full reorthogonalization costs
//! `O(steps² · dim)` flops (no extra gradient evaluations, which dominate
//! here) and keeps the density estimate honest; see DESIGN.md §15.

use crate::hvp::{fd_hvp, GradOracle};
use hero_tensor::rng::Rng;
use hero_tensor::{fill_standard_normal, global_dot, global_norm_l2, Result, Tensor, TensorError};

/// Breakdown threshold: a residual norm at or below this means the Krylov
/// space is exhausted (happy breakdown) and iteration stops cleanly.
const BREAKDOWN_TOL: f32 = 1e-7;

/// Result of a Lanczos run: Ritz values (eigenvalue estimates) and their
/// quadrature weights.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Ritz values, ascending. The extremes converge first: the last entry
    /// estimates λ_max, the first λ_min.
    pub ritz_values: Vec<f32>,
    /// Quadrature weight of each Ritz value (squared first eigenvector
    /// components; they sum to 1). Together with the Ritz values these give
    /// the stochastic-Lanczos-quadrature estimate of the spectral density.
    pub weights: Vec<f32>,
    /// Krylov steps actually performed (may stop early on breakdown).
    pub steps: usize,
}

impl LanczosResult {
    /// Largest Ritz value — the λ_max estimate (the `v` of Theorem 3).
    pub fn lambda_max(&self) -> f32 {
        self.ritz_values.last().copied().unwrap_or(0.0)
    }

    /// Smallest Ritz value — the λ_min estimate (negative at saddles).
    pub fn lambda_min(&self) -> f32 {
        self.ritz_values.first().copied().unwrap_or(0.0)
    }

    /// Quadrature estimate of `trace(H)/n ≈ Σ wᵢ λᵢ` (the first spectral
    /// moment under the probe distribution).
    pub fn mean_eigenvalue(&self) -> f32 {
        self.ritz_values
            .iter()
            .zip(&self.weights)
            .map(|(&l, &w)| l * w)
            .sum()
    }

    /// Quadrature estimate of the second spectral moment `Σ wᵢ λᵢ²` — the
    /// per-dimension analogue of HERO's regularizer Σλᵢ² (Eq. 13).
    pub fn second_moment(&self) -> f32 {
        self.ritz_values
            .iter()
            .zip(&self.weights)
            .map(|(&l, &w)| l * l * w)
            .sum()
    }
}

/// Runs `steps` of Lanczos iteration on the Hessian at `params` with a
/// random unit start vector, using finite-difference HVPs (one gradient
/// evaluation per step) and full reorthogonalization of the Krylov basis.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for zero steps or a
/// non-finite tridiagonal entry (an oracle returning NaN/Inf gradients),
/// and propagates oracle errors.
pub fn lanczos_spectrum(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    steps: usize,
    eps: f32,
    rng: &mut impl Rng,
) -> Result<LanczosResult> {
    // v1: random unit vector (a standard-normal draw is zero with
    // probability zero, and lanczos_spectrum_from re-checks the norm).
    let v0: Vec<Tensor> = params
        .iter()
        .map(|p| {
            let mut t = Tensor::zeros(p.shape().clone());
            fill_standard_normal(&mut t, rng);
            t
        })
        .collect();
    let (_, base_grad) = oracle.grad(params)?;
    lanczos_spectrum_from(oracle, params, &base_grad, &v0, steps, eps)
}

/// [`lanczos_spectrum`] with an explicit start direction `v0` (not
/// necessarily normalized) and the gradient `base_grad = ∇L(params)` the
/// finite-difference HVPs difference against — the seeded-probe entry
/// point stochastic Lanczos quadrature uses, so every probe is
/// reproducible and all probes share one base gradient. Costs one gradient
/// evaluation per step.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for zero steps, a zero (or
/// non-finite) start direction, or a non-finite tridiagonal entry, and
/// propagates oracle errors.
pub fn lanczos_spectrum_from(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    base_grad: &[Tensor],
    v0: &[Tensor],
    steps: usize,
    eps: f32,
) -> Result<LanczosResult> {
    if steps == 0 {
        return Err(TensorError::InvalidArgument(
            "lanczos needs at least one step".into(),
        ));
    }
    let _obs = hero_obs::span("lanczos");
    let n0 = global_norm_l2(v0);
    if !n0.is_finite() || n0 <= f32::MIN_POSITIVE {
        return Err(TensorError::InvalidArgument(format!(
            "lanczos start direction has norm {n0}; probes must be nonzero and finite"
        )));
    }
    let mut v: Vec<Tensor> = v0.to_vec();
    for t in &mut v {
        t.scale_in_place(1.0 / n0);
    }
    // The full Krylov basis, kept for reorthogonalization.
    let mut basis: Vec<Vec<Tensor>> = Vec::with_capacity(steps);
    let mut alphas = Vec::with_capacity(steps);
    let mut betas: Vec<f32> = Vec::new();
    for _ in 0..steps {
        let mut w = fd_hvp(oracle, params, base_grad, &v, eps)?;
        let alpha = global_dot(&v, &w);
        if !alpha.is_finite() {
            return Err(TensorError::InvalidArgument(format!(
                "lanczos produced a non-finite diagonal entry ({alpha}); \
                 the oracle returned NaN/Inf gradients"
            )));
        }
        alphas.push(alpha);
        basis.push(std::mem::take(&mut v));
        // Full reorthogonalization: two classical Gram–Schmidt passes of
        // w against every basis vector (the second pass mops up the
        // rounding the first one leaves behind — "twice is enough").
        for _ in 0..2 {
            for q in &basis {
                let proj = global_dot(&w, q);
                for (wi, qi) in w.iter_mut().zip(q) {
                    wi.axpy(-proj, qi)?;
                }
            }
        }
        let beta = global_norm_l2(&w);
        if !beta.is_finite() {
            return Err(TensorError::InvalidArgument(format!(
                "lanczos produced a non-finite off-diagonal entry ({beta}); \
                 the oracle returned NaN/Inf gradients"
            )));
        }
        if beta <= BREAKDOWN_TOL {
            break; // Krylov space exhausted (happy breakdown).
        }
        betas.push(beta);
        for wi in &mut w {
            wi.scale_in_place(1.0 / beta);
        }
        v = w;
    }
    let k = alphas.len();
    betas.truncate(k.saturating_sub(1));
    let (ritz_values, weights) = tridiag_eigen(&alphas, &betas);
    Ok(LanczosResult {
        ritz_values,
        weights,
        steps: k,
    })
}

/// Eigenvalues and squared-first-component weights of a symmetric
/// tridiagonal matrix, via the implicit-shift QL algorithm (EISPACK tql2).
fn tridiag_eigen(alphas: &[f32], betas: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let n = alphas.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut d: Vec<f64> = alphas.iter().map(|&a| a as f64).collect();
    let mut e: Vec<f64> = betas.iter().map(|&b| b as f64).collect();
    e.resize(n, 0.0);
    // z holds the first row of the accumulating eigenvector matrix.
    let mut z = vec![0.0f64; n];
    z[0] = 1.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                break; // give up on this eigenvalue; rare at our sizes
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the first-row eigenvector components.
                f = z[i + 1];
                z[i + 1] = s * z[i] + c * f;
                z[i] = c * z[i] - s * f;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    // Sort ascending by eigenvalue, carrying weights along.
    let mut pairs: Vec<(f64, f64)> = d.into_iter().zip(z).map(|(v, zz)| (v, zz * zz)).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let values: Vec<f32> = pairs.iter().map(|&(v, _)| v as f32).collect();
    let weights: Vec<f32> = pairs.iter().map(|&(_, w)| w as f32).collect();
    (values, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::rng::StdRng;
    use hero_testkit::Quadratic;

    #[test]
    fn tridiag_eigen_of_diagonal_matrix() {
        let (vals, weights) = tridiag_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        // Start vector e1 puts all weight on the first diagonal entry (3.0).
        let total: f32 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert!((weights[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn tridiag_eigen_of_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3 with equal weights.
        let (vals, weights) = tridiag_eigen(&[2.0, 2.0], &[1.0]);
        assert!((vals[0] - 1.0).abs() < 1e-4);
        assert!((vals[1] - 3.0).abs() < 1e-4);
        assert!((weights[0] - 0.5).abs() < 1e-4);
        assert!((weights[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn zero_hessian_reports_zero() {
        // Linear objective: gradient constant, Hessian zero.
        let mut oracle =
            |ps: &[Tensor]| Ok((ps[0].sum(), vec![Tensor::ones(ps[0].shape().clone())]));
        let params = vec![Tensor::zeros([3])];
        let res =
            lanczos_spectrum(&mut oracle, &params, 3, 1e-3, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(res.lambda_max(), 0.0);
        assert_eq!(res.lambda_min(), 0.0);
    }

    #[test]
    fn lanczos_recovers_full_spectrum_of_small_quadratic() {
        let q = Quadratic::diag(&[1.0, 2.0, 5.0, 9.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([4])];
        let res =
            lanczos_spectrum(&mut oracle, &params, 4, 1e-3, &mut StdRng::seed_from_u64(3)).unwrap();
        assert!(
            (res.lambda_max() - 9.0).abs() < 0.2,
            "λmax {}",
            res.lambda_max()
        );
        assert!(
            (res.lambda_min() - 1.0).abs() < 0.2,
            "λmin {}",
            res.lambda_min()
        );
        // With the full Krylov space, all four eigenvalues appear.
        assert_eq!(res.ritz_values.len(), 4);
        for (got, want) in res.ritz_values.iter().zip(&[1.0, 2.0, 5.0, 9.0]) {
            assert!((got - want).abs() < 0.3, "{got} vs {want}");
        }
    }

    #[test]
    fn lanczos_extremes_converge_with_few_steps() {
        let eigs: Vec<f32> = (1..=20).map(|i| i as f32 * 0.5).collect();
        let q = Quadratic::diag(&eigs);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([20])];
        let res =
            lanczos_spectrum(&mut oracle, &params, 8, 1e-3, &mut StdRng::seed_from_u64(5)).unwrap();
        assert!(
            (res.lambda_max() - 10.0).abs() < 0.5,
            "λmax {}",
            res.lambda_max()
        );
        assert!(res.lambda_min() < 1.5);
    }

    #[test]
    fn quadrature_moments_match_diagonal_quadratic() {
        // mean eigenvalue = tr(H)/n, second moment = Σλ²/n under random probes
        // (averaged over probes; a single probe is noisy, so use tolerance).
        let q = Quadratic::diag(&[1.0, 3.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([2])];
        let mut mean_acc = 0.0;
        let mut second_acc = 0.0;
        let mut rng = StdRng::seed_from_u64(11);
        let probes = 32;
        for _ in 0..probes {
            let res = lanczos_spectrum(&mut oracle, &params, 2, 1e-3, &mut rng).unwrap();
            mean_acc += res.mean_eigenvalue();
            second_acc += res.second_moment();
        }
        let mean = mean_acc / probes as f32;
        let second = second_acc / probes as f32;
        assert!((mean - 2.0).abs() < 0.3, "tr/n estimate {mean}");
        assert!((second - 5.0).abs() < 1.0, "Σλ²/n estimate {second}");
    }

    #[test]
    fn detects_negative_curvature() {
        let q = Quadratic::diag(&[-2.0, 1.0, 4.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::zeros([3])];
        let res =
            lanczos_spectrum(&mut oracle, &params, 3, 1e-3, &mut StdRng::seed_from_u64(7)).unwrap();
        assert!(res.lambda_min() < -1.5, "λmin {}", res.lambda_min());
        assert!(res.lambda_max() > 3.5);
    }

    #[test]
    fn validates_step_count() {
        let q = Quadratic::diag(&[1.0]);
        let params = vec![Tensor::zeros([1])];
        assert!(lanczos_spectrum(
            &mut q.oracle(),
            &params,
            0,
            1e-3,
            &mut StdRng::seed_from_u64(0)
        )
        .is_err());
    }

    #[test]
    fn weights_are_a_probability_distribution() {
        let q = Quadratic::diag(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let params = vec![Tensor::zeros([5])];
        let res = lanczos_spectrum(
            &mut q.oracle(),
            &params,
            5,
            1e-3,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        let total: f32 = res.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "weights sum {total}");
        assert!(res.weights.iter().all(|&w| w >= -1e-6));
    }
}
