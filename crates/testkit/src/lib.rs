//! # hero-testkit
//!
//! References and fixtures the HERO reproduction's test suites hold the
//! program against. No program path calls them, so they live here, a crate
//! that only `[dev-dependencies]` tables name:
//!
//! - [`im2col`] / [`col2im`]: the lowering that expresses a convolution as
//!   a matmul. The direct conv and depthwise kernels of `hero-tensor` are
//!   checked against it bit for bit.
//! - [`Quadratic`]: `½ xᵀ A x + bᵀ x`, an objective with a known Hessian,
//!   on which every curvature estimator of `hero-hessian` and the
//!   optimizers of `hero-optim` are checked.
//!
//! It depends on `hero-tensor` alone. A crate's own `#[cfg(test)]` unit
//! tests are compiled as a second copy of that crate, so `hero-tensor`
//! uses this crate from its integration tests (`crates/tensor/tests/`)
//! only.

#![warn(missing_docs)]

mod im2col;
mod quadratic;

pub use im2col::{col2im, im2col};
pub use quadratic::Quadratic;
