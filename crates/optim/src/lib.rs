//! # hero-optim
//!
//! Training methods for the HERO (DAC 2022) reproduction: plain SGD, the
//! first-order-only / SAM rule, the GRAD-L1 baseline [Alizadeh et al.
//! 2020], and HERO itself (Eq. 17 / Algorithm 1), all sharing
//! SGD-with-momentum, weight decay and cosine learning-rate scheduling.
//!
//! The [`Optimizer`] is model-agnostic — it drives any
//! [`hero_hessian::GradOracle`] — and [`train_step`] adapts it to a
//! [`hero_nn::Network`] with one call.
//!
//! # Examples
//!
//! ```
//! use hero_optim::{Method, Optimizer};
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! // ½xᵀ diag(1, 5) x, minimized at the origin.
//! let loss = |x: &[f32]| 0.5 * (x[0] * x[0] + 5.0 * x[1] * x[1]);
//! let mut oracle = |p: &[Tensor]| {
//!     let x = p[0].data();
//!     Ok((loss(x), vec![Tensor::from_vec(vec![x[0], 5.0 * x[1]], [2])?]))
//! };
//! let mut opt = Optimizer::new(Method::Hero { h: 0.05, gamma: 0.1 })
//!     .with_weight_decay(0.0);
//! let mut params = vec![Tensor::from_vec(vec![1.0, 1.0], [2])?];
//! for _ in 0..100 {
//!     opt.step(&mut oracle, &mut params, &[false], 0.05)?;
//! }
//! assert!(loss(params[0].data()) < 1e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod method;
mod oracle;
mod schedule;
mod sgd;

pub use method::{Method, Optimizer, StepStats};
pub use oracle::{train_step, BatchOracle};
pub use schedule::LrSchedule;
pub use sgd::SgdState;
