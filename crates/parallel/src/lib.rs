//! # hero-parallel
//!
//! Deterministic data-parallel training for the HERO reproduction.
//!
//! HERO's step cost is dominated by its three gradient evaluations (clean,
//! SAM-perturbed, FD-HVP probe — DESIGN.md §1); each is a batch-mean
//! reduction, so it shards cleanly across cores. This crate supplies:
//!
//! - [`WorkerPool`]: a persistent `std::thread` worker pool with
//!   job-index result slotting and panic containment (re-exported from
//!   `hero_tensor::workers`, where the multicore GEMM macro-kernel also
//!   uses it);
//! - [`tree_reduce`]: a fixed-shape pairwise reduction whose f32 result
//!   depends only on the shard count — never on worker count, scheduling,
//!   or completion order;
//! - [`ShardedOracle`] / [`train_step_parallel`]: a drop-in
//!   `GradOracle` that shards each batch across network replicas, letting
//!   the existing optimizer run unchanged.
//!
//! Determinism contract: with the shard count fixed (see
//! [`DEFAULT_SHARDS`]), running the same seeded training under
//! `HERO_THREADS=1..=N` produces **bitwise identical** weight
//! trajectories — proven by the `parallel_equiv` test suites here and in
//! `hero-core`, for every network `hero-nn` builds. Batch-norm running
//! statistics are frozen inside workers; after each step the canonical
//! network refreshes them with one deterministic full-batch forward on
//! the calling thread, see DESIGN.md §11.
//!
//! # Examples
//!
//! ```
//! use hero_nn::models::{mlp, ModelConfig};
//! use hero_optim::{Method, Optimizer};
//! use hero_parallel::{train_step_parallel, ParallelCtx};
//! use hero_tensor::rng::StdRng;
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let cfg = ModelConfig { classes: 2, in_channels: 1, input_hw: 2, width: 4 };
//! let mut net = mlp(cfg, &[8], &mut StdRng::seed_from_u64(0));
//! let x = Tensor::from_fn([8, 1, 2, 2], |i| i[0] as f32 * 0.1);
//! let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
//! let mut ctx = ParallelCtx::new(&net, 2)?;
//! let mut opt = Optimizer::new(Method::Sgd);
//! let stats = train_step_parallel(&mut ctx, &mut net, &mut opt, &x, &labels, 0.1)?;
//! assert!(stats.loss.is_finite());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod executor;
mod reduce;

pub use executor::{
    threads_from_env, train_step_parallel, ParallelCtx, ShardedOracle, DEFAULT_SHARDS,
};
pub use hero_tensor::workers::{Job, PoolError, WorkerPool};
pub use reduce::{combine_shard_grads, tree_reduce, ShardGrad};
