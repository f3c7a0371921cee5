//! Training configuration.

use hero_data::Augment;
use hero_optim::{LrSchedule, Method};

/// Complete configuration of one training run.
///
/// Defaults mirror the paper's §5.1 recipe scaled to the synthetic
/// substrate: SGD momentum 0.9, weight decay 1e-4, cosine learning rate,
/// pad-crop/flip augmentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Training method (the experiment variable).
    pub method: Method,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate for the cosine schedule.
    pub lr: f32,
    /// Weight decay α.
    pub weight_decay: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Augmentation policy for training batches.
    pub augment: Augment,
    /// Evaluate the test set every `eval_every` epochs (and always on the
    /// final epoch).
    pub eval_every: usize,
    /// Run the ‖Hz‖ curvature probe every `probe_every` epochs; 0 disables
    /// probing (it costs two gradient evaluations per probe).
    pub probe_every: usize,
    /// Take a full spectrum probe (SLQ density summary + per-layer
    /// Hutchinson traces, see [`crate::spectrum`]) every `spectrum_every`
    /// epochs; 0 (the default) disables it — each probe costs dozens of
    /// gradient evaluations, so it is strictly opt-in telemetry.
    pub spectrum_every: usize,
    /// Seed for batching/augmentation randomness.
    pub seed: u64,
    /// Worker threads for the sharded data-parallel executor; 0 selects
    /// the serial in-process path. Defaults to the `HERO_THREADS`
    /// environment variable (unset ⇒ 0). With the shard count fixed,
    /// every value ≥ 1 produces bitwise identical trajectories (see
    /// DESIGN.md §11 and the parallel_equiv suite), so `HERO_THREADS=1`
    /// and `HERO_THREADS=4` yield byte-identical model artifacts. Going
    /// from 0 to ≥ 1 changes the objective, not just the rounding: the
    /// shards normalize batch norm with per-shard statistics, the serial
    /// path with the whole batch's. The same variable also sizes the GEMM
    /// worker pool (DESIGN.md §13), which accelerates the serial step
    /// too and changes no result.
    pub threads: usize,
}

impl TrainConfig {
    /// The paper-style recipe for a given method and epoch budget.
    pub fn new(method: Method, epochs: usize) -> Self {
        TrainConfig {
            method,
            epochs,
            batch_size: 32,
            lr: 0.1,
            weight_decay: 1e-4,
            momentum: 0.9,
            augment: Augment::standard(),
            eval_every: 1,
            probe_every: 0,
            spectrum_every: 0,
            seed: 0,
            threads: hero_parallel::threads_from_env(),
        }
    }

    /// Builder: sets the data-parallel worker count (0 = serial path),
    /// overriding the `HERO_THREADS` default.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: sets the run seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the initial learning rate.
    #[must_use]
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Builder: sets the batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// The cosine schedule over the whole run given the number of batches
    /// per epoch.
    pub fn schedule(&self, batches_per_epoch: usize) -> LrSchedule {
        LrSchedule::Cosine {
            lr: self.lr,
            min_lr: 0.0,
            total_steps: (self.epochs * batches_per_epoch).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recipe() {
        let c = TrainConfig::new(Method::Sgd, 10);
        assert_eq!(c.lr, 0.1);
        assert_eq!(c.momentum, 0.9);
        assert_eq!(c.weight_decay, 1e-4);
        assert_eq!(c.epochs, 10);
        assert_eq!(c.augment, Augment::standard());
        assert_eq!(c.spectrum_every, 0, "spectrum probing must be opt-in");
    }

    #[test]
    fn builders_set_fields() {
        let c = TrainConfig::new(Method::Sgd, 5)
            .with_seed(9)
            .with_lr(0.05)
            .with_batch_size(16);
        assert_eq!(c.seed, 9);
        assert_eq!(c.lr, 0.05);
        assert_eq!(c.batch_size, 16);
    }

    #[test]
    fn schedule_spans_the_run() {
        let c = TrainConfig::new(Method::Sgd, 10).with_lr(0.2);
        let s = c.schedule(7);
        assert!((s.at(0) - 0.2).abs() < 1e-6);
        assert!(s.at(70) < 1e-6);
    }
}
