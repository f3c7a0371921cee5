//! # hero-tensor
//!
//! Dense `f32` n-dimensional tensors: the numerical substrate for the HERO
//! (Hessian-Enhanced Robust Optimization, DAC 2022) reproduction.
//!
//! The crate provides exactly what a small CPU-trained deep-learning stack
//! needs, with validated shapes and deterministic seeded initialization:
//!
//! - [`Tensor`]: contiguous row-major storage with shape-checked ops
//! - element-wise math, broadcasting ([`Tensor::broadcast_op`]) and its
//!   adjoint ([`Tensor::reduce_to_shape`])
//! - packed micro-kernel [`Tensor::matmul`] plus transposed variants
//!   (with the old blocked kernel kept as [`matmul_reference`])
//! - direct convolution kernels ([`Tensor::conv2d`] and its weight/input
//!   gradients, bitwise equal to the im2col lowering that `hero-testkit`
//!   keeps as their test reference) and pooling with adjoints
//! - train-mode batch-norm kernels ([`Tensor::batch_norm_train`] and
//!   [`Tensor::batch_norm_backward`])
//! - the norms HERO's theory is stated in (ℓ1, ℓ2, ℓ∞, ℓ0)
//! - seedable initializers ([`Init`]) driven by the in-tree [`rng`] module
//! - a [`ScratchPool`] buffer recycler backing the zero-allocation
//!   training hot path
//! - a generic [`workers::WorkerPool`] used by the multicore GEMM
//!   macro-kernel here and re-exported by `hero-parallel` for the
//!   sharded trainer
//!
//! # Examples
//!
//! ```
//! use hero_tensor::{Init, Tensor};
//! use hero_tensor::rng::StdRng;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let w = Init::KaimingNormal { fan_in: 4 }.tensor([3, 4], &mut rng);
//! let x = Tensor::ones([4, 2]);
//! let y = w.matmul(&x)?;
//! assert_eq!(y.dims(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod init;
mod ops;
pub mod pool;
pub mod rng;
mod shape;
mod tensor;
pub mod workers;

pub use error::{Result, TensorError};
pub use init::{fill_standard_normal, Init};
pub use ops::batch_norm::BatchNormForward;
pub use ops::conv::ConvGeometry;
pub use ops::gemm::{
    active_gemm_kernel, force_gemm_kernel, gemm_pool_reset_stats, gemm_pool_stats,
    set_gemm_threads, GemmKernel,
};
pub use ops::lanes::lane_width;
pub use ops::matmul::matmul_reference;
pub use ops::norm::{global_dot, global_norm_l1, global_norm_l2};
pub use pool::{PoolStats, ScratchPool};
pub use shape::Shape;
pub use tensor::Tensor;
