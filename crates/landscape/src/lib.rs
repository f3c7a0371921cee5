//! # hero-landscape
//!
//! Loss-surface analysis for the HERO (DAC 2022) reproduction: the
//! filter-normalized 2-D contour scans of the paper's Fig. 3 (after Li et
//! al.'s landscape-visualization method) and direct random-perturbation
//! robustness probes over ℓ2 / ℓ∞ balls — the empirical counterpart of
//! Theorems 1-3.
//!
//! # Examples
//!
//! ```
//! use hero_landscape::{scan_2d, LossOracle};
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let mut bowl = |ps: &[Tensor]| Ok(ps[0].norm_l2_sq());
//! let params = vec![Tensor::zeros([2])];
//! let d1 = vec![Tensor::from_vec(vec![1.0, 0.0], [2])?];
//! let d2 = vec![Tensor::from_vec(vec![0.0, 1.0], [2])?];
//! let scan = scan_2d(&mut bowl, &params, &d1, &d2, 1.0, 9)?;
//! assert!(scan.low_loss_fraction(0.5) > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod directions;
mod robustness;
mod sharpness;
mod surface;

pub use directions::{filter_normalize, filter_normalized_direction, random_direction};
pub use robustness::{probe_robustness, PerturbNorm, RobustnessProbe};
pub use sharpness::epsilon_sharpness;
pub use surface::{scan_2d, LossOracle, SurfaceScan};
