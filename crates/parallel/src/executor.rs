//! The data-parallel gradient executor: shard plan, network replicas, and
//! the sharded [`GradOracle`] that plugs into the unchanged optimizer.

use crate::reduce::{combine_shard_grads, tree_reduce, ShardGrad};
use hero_hessian::GradOracle;
use hero_nn::{Network, ParamKind};
use hero_optim::{Optimizer, StepStats};
use hero_tensor::workers::{Job, PoolError, WorkerPool};
use hero_tensor::{Result, Tensor, TensorError};
use std::sync::Arc;
use std::time::Instant;

/// Number of shards a batch is split into, independent of the worker
/// count. Fixing this (rather than deriving it from `HERO_THREADS`) is
/// what makes trajectories bitwise identical across thread counts: the
/// per-shard f32 math and the reduction tree shape depend only on the
/// batch size and this constant.
pub const DEFAULT_SHARDS: usize = 4;

/// Per-worker private state: a full replica of the network. Parameters are
/// re-synchronized from the optimizer's canonical copy at every gradient
/// evaluation, so replicas never drift.
#[derive(Debug)]
struct WorkerState {
    net: Network,
}

/// One shard of the current batch, precomputed once per step.
#[derive(Debug)]
struct ShardTask {
    /// Images `(len, c, h, w)` copied out of the batch.
    images: Tensor,
    /// Labels aligned with `images`.
    labels: Vec<usize>,
    /// `len / batch_len`: scaling that turns the shard-mean loss/gradients
    /// into this shard's contribution to the batch mean.
    weight: f32,
}

/// Reads the worker count from the `HERO_THREADS` environment variable.
///
/// Returns 0 (serial in-process path) when the variable is unset, empty,
/// or unparsable; any positive value selects the sharded executor with
/// that many persistent workers.
pub fn threads_from_env() -> usize {
    std::env::var("HERO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

/// The persistent data-parallel execution context for one training run:
/// a worker pool whose workers each own a network replica.
#[derive(Debug)]
pub struct ParallelCtx {
    pool: WorkerPool<WorkerState, Result<ShardGrad>>,
}

impl ParallelCtx {
    /// Spawns `threads` persistent workers, each with a replica of `net`.
    ///
    /// # Errors
    ///
    /// Does not fail: every layer replicates bitwise (parameters and
    /// batch-norm statistics are plain tensors). The `Result` keeps the
    /// signature that callers already propagate with `?`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(net: &Network, threads: usize) -> Result<Self> {
        assert!(threads > 0, "parallel context needs at least one worker");
        let states = (0..threads)
            .map(|_| WorkerState { net: net.clone() })
            .collect();
        Ok(ParallelCtx {
            pool: WorkerPool::new(states),
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

/// Converts a pool failure into the workspace error type.
fn pool_error(e: PoolError) -> TensorError {
    TensorError::InvalidArgument(format!("parallel executor: {e}"))
}

/// A [`GradOracle`] that evaluates the batch gradient by sharding the
/// batch across the context's workers and tree-reducing the shard
/// contributions.
///
/// Each [`GradOracle::grad`] call broadcasts the parameter point to every
/// shard job; workers install it into their replica, run the shard's
/// forward/backward with batch-norm running-stat updates frozen (replica
/// statistics never feed back into the canonical network), and return
/// shard-weighted loss and gradients. Results are slotted by shard index
/// and combined with the fixed-shape tree in [`crate::reduce`].
#[derive(Debug)]
pub struct ShardedOracle<'a> {
    ctx: &'a mut ParallelCtx,
    shards: Arc<Vec<ShardTask>>,
}

impl<'a> ShardedOracle<'a> {
    /// Binds the context to one mini-batch, precomputing the shard views.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or misaligned labels.
    pub fn new(ctx: &'a mut ParallelCtx, x: &Tensor, labels: &[usize]) -> Result<Self> {
        let n = *x.dims().first().unwrap_or(&0);
        if n == 0 || n != labels.len() {
            return Err(TensorError::InvalidArgument(format!(
                "batch of {n} images with {} labels",
                labels.len()
            )));
        }
        let shards = hero_data::shard_bounds(n, DEFAULT_SHARDS)
            .into_iter()
            .map(|(start, len)| {
                Ok(ShardTask {
                    images: x.narrow(start, len)?,
                    labels: labels[start..start + len].to_vec(),
                    weight: len as f32 / n as f32,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedOracle {
            ctx,
            shards: Arc::new(shards),
        })
    }
}

impl GradOracle for ShardedOracle<'_> {
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        hero_obs::counters::GRAD_EVALS.incr();
        // One parameter snapshot shared read-only by every shard job.
        let params: Arc<Vec<Tensor>> = Arc::new(params.to_vec());
        let jobs: Vec<Job<WorkerState, Result<ShardGrad>>> = (0..self.shards.len())
            .map(|s| {
                let params = Arc::clone(&params);
                let shards = Arc::clone(&self.shards);
                Box::new(move |st: &mut WorkerState| -> Result<ShardGrad> {
                    let _span = hero_obs::span("shard_grad");
                    let task = &shards[s];
                    st.net.set_params(&params)?;
                    // Replica batch-norm statistics are never merged back,
                    // and updating them per-replica would make results
                    // depend on job→worker scheduling; freeze them.
                    let prev = hero_nn::norm::set_bn_running_stat_updates(false);
                    let out = hero_nn::loss_and_grads(&mut st.net, &task.images, &task.labels);
                    hero_nn::norm::set_bn_running_stat_updates(prev);
                    let out = out?;
                    let mut grads = out.grads;
                    for g in &mut grads {
                        for v in g.data_mut() {
                            *v *= task.weight;
                        }
                    }
                    Ok((out.loss * task.weight, grads))
                }) as Job<WorkerState, Result<ShardGrad>>
            })
            .collect();

        // The calling thread blocks here while workers run; the span keeps
        // that time attributed to a named `train_step` child (the workers'
        // own forward/backward spans root in their threads' trees).
        let scatter = hero_obs::span("scatter");
        let wait = Instant::now();
        let results = self.ctx.pool.scatter(jobs).map_err(pool_error)?;
        hero_obs::counters::REDUCE_WAIT_NS.add(wait.elapsed().as_nanos() as u64);
        drop(scatter);

        let _reduce = hero_obs::span("reduce");
        let shard_grads = results.into_iter().collect::<Result<Vec<ShardGrad>>>()?;
        tree_reduce(shard_grads, combine_shard_grads)?
            .ok_or_else(|| TensorError::InvalidArgument("no shards produced gradients".to_string()))
    }
}

/// Runs one optimization step through the sharded executor, leaving the
/// updated parameters installed in `net`. Drop-in parallel counterpart of
/// `hero_optim::train_step` — the optimizer itself is reused unchanged,
/// only its gradient oracle differs.
///
/// # Errors
///
/// Returns shape errors if the batch is incompatible with the network, or
/// an error describing a worker panic.
pub fn train_step_parallel(
    ctx: &mut ParallelCtx,
    net: &mut Network,
    optimizer: &mut Optimizer,
    x: &Tensor,
    labels: &[usize],
    lr: f32,
) -> Result<StepStats> {
    let _step = hero_obs::span("train_step");
    let sync = hero_obs::span("sync");
    let mut params = net.params();
    let decay_mask: Vec<bool> = net
        .param_infos()
        .iter()
        .map(|i| i.kind.is_decayed())
        .collect();
    drop(sync);
    let stats = {
        let mut oracle = ShardedOracle::new(ctx, x, labels)?;
        optimizer.step(&mut oracle, &mut params, &decay_mask, lr)?
    };
    let sync = hero_obs::span("sync");
    net.set_params(&params)?;
    drop(sync);
    // Worker replicas keep their batch-norm running statistics frozen (a
    // per-replica update order would depend on job scheduling), so the
    // canonical network must refresh its own: one training-mode forward
    // over the full batch on this thread. The refresh depends only on the
    // batch and the just-updated parameters — never on the worker count —
    // so it preserves the bitwise-equivalence contract while keeping
    // eval-time normalization statistics in sync with training.
    if has_batch_norm(net) {
        let _bn = hero_obs::span("bn_refresh");
        refresh_bn_stats(net, x)?;
    }
    Ok(stats)
}

/// True when the network owns batch-norm parameters.
fn has_batch_norm(net: &Network) -> bool {
    net.param_infos()
        .iter()
        .any(|i| matches!(i.kind, ParamKind::BnGamma | ParamKind::BnBeta))
}

/// One training-mode forward over `x` so every batch-norm layer folds the
/// batch statistics into its running estimates; the tape is discarded.
fn refresh_bn_stats(net: &mut Network, x: &Tensor) -> Result<()> {
    let mut g = hero_autodiff::Graph::new();
    net.forward(&mut g, x)?;
    g.reset();
    Ok(())
}
