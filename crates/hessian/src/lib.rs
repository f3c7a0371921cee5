//! # hero-hessian
//!
//! Curvature analysis for the HERO (DAC 2022) reproduction: the
//! finite-difference Hessian-vector product that powers HERO's regularizer
//! gradient, the paper's ‖Hz‖ probe (Fig. 2a), per-layer Hutchinson
//! trace estimation, Lanczos iteration for λ_max and
//! stochastic Lanczos quadrature for the eigenvalue density, and the
//! computable Theorem 3 robustness bounds.
//!
//! Everything works through the [`GradOracle`] trait — any closure mapping
//! parameters to `(loss, gradients)` — so the tools apply equally to
//! quadratics with a known Hessian and to real networks. Stochastic estimators
//! take explicit seeds and return [`Estimate`]s (mean ± standard error),
//! so every spectrum artifact is reproducible and confidence-annotated.
//!
//! # Examples
//!
//! ```
//! use hero_hessian::lanczos_spectrum;
//! use hero_tensor::rng::StdRng;
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! // ½xᵀ diag(1, 7) x: gradient (x₀, 7x₁), eigenvalues 1 and 7.
//! let mut oracle = |p: &[Tensor]| {
//!     let x = p[0].data();
//!     let loss = 0.5 * (x[0] * x[0] + 7.0 * x[1] * x[1]);
//!     Ok((loss, vec![Tensor::from_vec(vec![x[0], 7.0 * x[1]], [2])?]))
//! };
//! let params = vec![Tensor::zeros([2])];
//! let mut rng = StdRng::seed_from_u64(0);
//! let res = lanczos_spectrum(&mut oracle, &params, 2, 1e-3, &mut rng)?;
//! assert!((res.lambda_max() - 7.0).abs() < 0.2);
//! assert!((res.lambda_min() - 1.0).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bounds;
mod hvp;
mod lanczos;
mod norm;
mod slq;
mod stats;

pub use bounds::BoundInputs;
pub use hvp::{fd_hvp, fd_hvp_into, perturbed_into, GradOracle};
pub use lanczos::{lanczos_spectrum, lanczos_spectrum_from, LanczosResult};
pub use norm::{
    hessian_norm_probe, layer_scaled_direction, layer_scaled_direction_into, layer_traces,
};
pub use slq::{slq_density, SlqConfig, SlqDensity};
pub use stats::{probe_seed, spearman_rank, spearman_rank_checked, Estimate};
