//! The epoch training loop.

use crate::config::TrainConfig;
use crate::metrics::{EpochMetrics, TrainRecord};
use crate::preflight::{check_verified, preflight_report_with_noise};
use crate::spectrum::{probe_spectrum, SpectrumOptions};
use hero_analyze::{Report, VerifyOptions};
use hero_data::{Dataset, Loader};
use hero_hessian::hessian_norm_probe;
use hero_nn::{evaluate_accuracy, Network};
use hero_optim::{train_step, BatchOracle, Optimizer};
use hero_parallel::{train_step_parallel, ParallelCtx};
use hero_tensor::rng::StdRng;
use hero_tensor::{Result, Tensor, TensorError};

/// Number of samples used for the ‖Hz‖ curvature probe (kept small — the
/// probe costs two gradient evaluations).
const PROBE_SAMPLES: usize = 64;

/// Mid-training snapshot: the resume cursor a bitwise-exact resume needs
/// beyond the network weights and batch-norm statistics, and the training
/// history so far. Produced for checkpoint hooks by [`train_resumable`] and
/// fed back in to resume.
///
/// The snapshot is taken at an epoch boundary: `next_epoch` is the first
/// epoch the resumed run will execute, and the RNG states are captured
/// *after* the completed epoch consumed its draws, so the resumed loop
/// continues the exact same random streams.
#[derive(Debug, Clone)]
pub struct TrainerState {
    /// First epoch the resumed run executes.
    pub next_epoch: usize,
    /// Global step counter (drives the cosine schedule).
    pub step: usize,
    /// Data-loader shuffle RNG state.
    pub loader_rng: u64,
    /// Augmentation RNG state.
    pub aug_rng: u64,
    /// SGD momentum buffers in canonical parameter order (empty when the
    /// optimizer has not materialized them).
    pub momentum: Vec<Tensor>,
    /// The history of the epochs run so far.
    pub record: TrainRecord,
}

/// Trains `net` on `train`, evaluating on `test`, according to `config`.
///
/// Implements the paper's §5.1 recipe on the synthetic substrate: shuffled
/// mini-batches, pad-crop/flip augmentation, cosine learning rate,
/// SGD-with-momentum under the configured method's gradient rule.
///
/// # Errors
///
/// Returns shape errors if the datasets are incompatible with the network.
pub fn train(
    net: &mut Network,
    train_set: &Dataset,
    test_set: &Dataset,
    config: &TrainConfig,
) -> Result<TrainRecord> {
    let (record, _) =
        train_resumable(
            net,
            train_set,
            test_set,
            config,
            None,
            0,
            &mut |_, _| Ok(()),
        )?;
    Ok(record)
}

/// [`train`] with epoch-boundary checkpointing and bitwise-exact resume.
///
/// When `resume` is given, the loop continues from the snapshot: the
/// caller must already have restored the network's parameters and
/// batch-norm statistics to the checkpointed values (the snapshot only
/// carries trainer-side state). When `checkpoint_every > 0`,
/// `on_checkpoint` is invoked with the network and a fresh snapshot after
/// every `checkpoint_every`-th completed epoch (except the last — the
/// final model is the caller's return value, not a checkpoint).
///
/// Resumed runs reproduce the uninterrupted trajectory exactly: weights,
/// metrics, RNG streams and the final [`TrainRecord`] are bitwise equal
/// (proven in `tests/artifact_pipeline.rs`).
///
/// Returns the record together with the end-of-run [`TrainerState`] —
/// which is what a final model artifact embeds so the training history
/// survives serialization.
///
/// # Errors
///
/// Returns shape errors if the datasets are incompatible with the network,
/// [`TensorError::Diverged`] at the first step (serial or sharded) whose
/// loss is non-finite — after emitting a `train_diverged` event — or
/// whatever error `on_checkpoint` surfaces.
pub fn train_resumable(
    net: &mut Network,
    train_set: &Dataset,
    test_set: &Dataset,
    config: &TrainConfig,
    resume: Option<TrainerState>,
    checkpoint_every: usize,
    on_checkpoint: &mut dyn FnMut(&mut Network, &TrainerState) -> Result<()>,
) -> Result<(TrainRecord, TrainerState)> {
    let mut loader = Loader::new(config.batch_size, config.seed);
    let batches_per_epoch = train_set.len().div_ceil(config.batch_size);
    let schedule = config.schedule(batches_per_epoch);
    let mut optimizer = Optimizer::new(config.method)
        .with_momentum(config.momentum)
        .with_weight_decay(config.weight_decay);
    // Statically verify the tape this model records — once per build,
    // before spending epochs on it. A malformed tape fails here with a
    // structured report instead of corrupting λmax estimates silently.
    // BN statistics are frozen around the probe, so re-running it on
    // resume does not perturb the restored trajectory.
    if !train_set.is_empty() {
        let (images, labels) = probe_batch(train_set, config.batch_size)?;
        verify_network_tape(net, &images, labels)?;
    }

    // Persistent data-parallel context (config.threads ≥ 1): workers with
    // network replicas live across the whole run. With the shard count
    // fixed, the trajectory is bitwise identical for any worker count ≥ 1
    // — see DESIGN.md §11 and the parallel_equiv test suite — which is
    // what makes saved model artifacts byte-equal across HERO_THREADS ≥ 1
    // settings. 0 selects the serial in-process path, a different
    // objective: it normalizes batch norm over the whole batch where the
    // shards use per-shard statistics, and its running statistics advance
    // inside the first gradient evaluation rather than in a post-step
    // refresh. GEMM-level parallelism (DESIGN.md §13) needs no shard
    // context.
    let mut pctx = (config.threads > 0)
        .then(|| ParallelCtx::new(net, config.threads))
        .transpose()?;

    let mut aug_rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xA06));
    let mut step = 0usize;
    let mut start_epoch = 0usize;
    let mut record = TrainRecord {
        method: config.method.name().to_string(),
        epochs: Vec::with_capacity(config.epochs),
        final_test_acc: f32::NAN,
        final_train_acc: f32::NAN,
        grad_evals: 0,
        spectra: Vec::new(),
    };

    if let Some(state) = resume {
        loader.set_rng_state(state.loader_rng);
        aug_rng = StdRng::seed_from_u64(state.aug_rng);
        if !state.momentum.is_empty() {
            optimizer.set_momentum_buffers(state.momentum);
        }
        step = state.step;
        start_epoch = state.next_epoch;
        record = state.record;
    }

    for epoch in start_epoch..config.epochs {
        let _epoch_span = hero_obs::span("epoch");
        let mut loss_acc = 0.0;
        let mut reg_acc = 0.0;
        let mut batches = 0usize;
        for batch in loader.epoch(train_set) {
            let aug = hero_obs::span("augment");
            let images = config.augment.apply(&batch.images, &mut aug_rng)?;
            drop(aug);
            let lr = schedule.at(step);
            let stats = match pctx.as_mut() {
                Some(ctx) => {
                    train_step_parallel(ctx, net, &mut optimizer, &images, &batch.labels, lr)?
                }
                None => train_step(net, &mut optimizer, &images, &batch.labels, lr)?,
            };
            if !stats.loss.is_finite() {
                hero_obs::Event::new("train_diverged")
                    .u64("epoch", epoch as u64)
                    .u64("step", step as u64)
                    .f64("loss", f64::from(stats.loss))
                    .emit();
                return Err(TensorError::Diverged {
                    epoch,
                    step,
                    loss: stats.loss,
                });
            }
            loss_acc += stats.loss;
            reg_acc += stats.regularizer;
            record.grad_evals += stats.grad_evals;
            step += 1;
            batches += 1;
        }
        let train_loss = loss_acc / batches.max(1) as f32;
        let regularizer = reg_acc / batches.max(1) as f32;

        let evaluate =
            config.eval_every > 0 && (epoch % config.eval_every == 0 || epoch + 1 == config.epochs);
        let (train_acc, test_acc) = if evaluate {
            let tr =
                evaluate_accuracy(net, &train_set.images, &train_set.labels, config.batch_size)?;
            let te = evaluate_accuracy(net, &test_set.images, &test_set.labels, config.batch_size)?;
            record.final_train_acc = tr;
            record.final_test_acc = te;
            (tr, te)
        } else {
            (f32::NAN, f32::NAN)
        };

        let hessian_norm = if config.probe_every > 0
            && (epoch % config.probe_every == 0 || epoch + 1 == config.epochs)
        {
            probe_hessian_norm(net, train_set)?
        } else {
            f32::NAN
        };

        if config.spectrum_every > 0
            && (epoch % config.spectrum_every == 0 || epoch + 1 == config.epochs)
        {
            // One independent probe stream per epoch, derived from the run
            // seed so trajectories and probes reproduce together.
            let opts =
                SpectrumOptions::default().with_seed(hero_hessian::probe_seed(config.seed, epoch));
            let probe = probe_spectrum(net, train_set, epoch, &opts)?;
            probe.emit();
            record.spectra.push(probe);
        }

        let metrics = EpochMetrics {
            epoch,
            train_loss,
            train_acc,
            test_acc,
            hessian_norm,
            regularizer,
        };
        if hero_obs::run_active() {
            metrics.to_event().emit();
        }
        record.epochs.push(metrics);

        if checkpoint_every > 0 && (epoch + 1) % checkpoint_every == 0 && epoch + 1 < config.epochs
        {
            let state = snapshot(epoch + 1, step, &loader, &aug_rng, &optimizer, &record);
            on_checkpoint(net, &state)?;
        }
    }

    let final_state = snapshot(config.epochs, step, &loader, &aug_rng, &optimizer, &record);
    Ok((record, final_state))
}

/// The resume cursor at an epoch boundary, with a copy of the history.
fn snapshot(
    next_epoch: usize,
    step: usize,
    loader: &Loader,
    aug_rng: &StdRng,
    optimizer: &Optimizer,
    record: &TrainRecord,
) -> TrainerState {
    TrainerState {
        next_epoch,
        step,
        loader_rng: loader.rng_state(),
        aug_rng: aug_rng.state(),
        momentum: optimizer
            .momentum_buffers()
            .map(<[Tensor]>::to_vec)
            .unwrap_or_default(),
        record: record.clone(),
    }
}

/// Records one train-mode forward/loss tape for `net` on the given batch
/// and runs the `hero-analyze` static verifier over it (structure, shapes,
/// conv/pool geometry, liveness).
///
/// Batch-norm running statistics are frozen around the probe forward so
/// verification never contaminates eval-time behaviour; the tape and its
/// buffers are recycled into the scratch pool afterwards. The report is
/// also published through `hero-obs` (`analyze_diags_*` counters and, on
/// traced runs, an `analyze_report` event).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] carrying the rendered report if
/// any error-severity diagnostic is found, or shape errors if the batch is
/// incompatible with the network.
pub fn verify_network_tape(net: &mut Network, images: &Tensor, labels: &[usize]) -> Result<Report> {
    let opts = VerifyOptions::default();
    let (report, _) = preflight_report_with_noise(net, images, labels, &opts, None, false)?;
    check_verified(&report, net)?;
    Ok(report)
}

/// Evaluates the paper's Fig. 2(a) probe ‖Hz‖ on a fixed training
/// subsample.
///
/// # Errors
///
/// Returns shape errors if the probe batch is incompatible.
pub fn probe_hessian_norm(net: &mut Network, train_set: &Dataset) -> Result<f32> {
    let (images, labels) = probe_batch(train_set, PROBE_SAMPLES)?;
    let params = net.params();
    let mut oracle = BatchOracle::new(net, &images, labels);
    let (hz, _) = hessian_norm_probe(&mut oracle, &params, 1e-3)?;
    // Restore the unperturbed parameters (the oracle installs whatever it
    // evaluated last).
    net.set_params(&params)?;
    Ok(hz)
}

/// The first `n` samples of `set` (all of them if fewer): the fixed batch
/// every curvature, sensitivity and preflight probe evaluates on.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when `set` is empty.
pub fn probe_batch(set: &Dataset, n: usize) -> Result<(Tensor, &[usize])> {
    let n = set.len().min(n);
    if n == 0 {
        return Err(TensorError::InvalidArgument(
            "the probe batch needs at least one sample".into(),
        ));
    }
    Ok((set.images.narrow(0, n)?, &set.labels[..n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_data::{Augment, SynthGenerator, SynthSpec};
    use hero_nn::models::{mlp, ModelConfig};
    use hero_optim::Method;
    use hero_tensor::rng::StdRng;

    fn setup() -> (Network, Dataset, Dataset) {
        let spec = SynthSpec {
            classes: 4,
            hw: 4,
            noise_std: 0.2,
            ..SynthSpec::default()
        };
        let gen = SynthGenerator::new(spec);
        let (train_set, test_set) = gen.train_test(64, 32);
        let cfg = ModelConfig {
            classes: 4,
            in_channels: 3,
            input_hw: 4,
            width: 4,
        };
        let net = mlp(cfg, &[24], &mut StdRng::seed_from_u64(2));
        (net, train_set, test_set)
    }

    #[test]
    fn training_improves_over_initialization() {
        let (mut net, train_set, test_set) = setup();
        let mut config = TrainConfig::new(Method::Sgd, 8)
            .with_batch_size(16)
            .with_lr(0.05);
        config.augment = Augment {
            pad: 0,
            hflip: false,
        };
        let rec = train(&mut net, &train_set, &test_set, &config).unwrap();
        assert_eq!(rec.epochs.len(), 8);
        assert!(rec.final_test_acc > 0.5, "test acc {}", rec.final_test_acc);
        assert!(rec.epochs.last().unwrap().train_loss < rec.epochs[0].train_loss);
        assert_eq!(rec.method, "SGD");
        // 64 samples / batch 16 = 4 batches * 8 epochs = 32 steps, 1 eval each.
        assert_eq!(rec.grad_evals, 32);
    }

    #[test]
    fn hero_training_works_and_costs_three_evals() {
        let (mut net, train_set, test_set) = setup();
        let mut config = TrainConfig::new(
            Method::Hero {
                h: 0.2,
                gamma: 0.01,
            },
            3,
        )
        .with_batch_size(16)
        .with_lr(0.05);
        config.augment = Augment {
            pad: 0,
            hflip: false,
        };
        let rec = train(&mut net, &train_set, &test_set, &config).unwrap();
        assert_eq!(rec.grad_evals, 3 * 4 * 3);
        assert!(rec.final_test_acc > 0.25);
        assert!(rec.epochs.iter().all(|e| e.regularizer >= 0.0));
    }

    #[test]
    fn probe_interval_fills_hessian_series() {
        let (mut net, train_set, test_set) = setup();
        let config = TrainConfig {
            probe_every: 2,
            ..TrainConfig::new(Method::Sgd, 4).with_batch_size(16)
        };
        let rec = train(&mut net, &train_set, &test_set, &config).unwrap();
        let series = rec.hessian_series();
        // Epochs 0, 2 and the final epoch 3.
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn spectrum_interval_collects_probes() {
        let (mut net, train_set, test_set) = setup();
        let config = TrainConfig {
            spectrum_every: 2,
            ..TrainConfig::new(Method::Sgd, 4).with_batch_size(16)
        };
        let rec = train(&mut net, &train_set, &test_set, &config).unwrap();
        // Epochs 0, 2 and the final epoch 3.
        assert_eq!(
            rec.spectra.iter().map(|s| s.epoch).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        for s in &rec.spectra {
            assert!(s.lambda_max.mean.is_finite());
            assert_eq!(s.layers.len(), net.params().len());
            assert!(s.global_trace().is_finite());
        }
        // Disabled by default: no probes, no probe cost.
        let (mut net2, train_set2, test_set2) = setup();
        let plain = TrainConfig::new(Method::Sgd, 2).with_batch_size(16);
        let rec2 = train(&mut net2, &train_set2, &test_set2, &plain).unwrap();
        assert!(rec2.spectra.is_empty());
    }

    #[test]
    fn probe_preserves_parameters() {
        let (mut net, train_set, _) = setup();
        let before = net.params();
        probe_hessian_norm(&mut net, &train_set).unwrap();
        assert_eq!(net.params(), before);
    }

    #[test]
    fn network_tapes_pass_static_verification() {
        let (mut net, train_set, _) = setup();
        let labels = &train_set.labels[..8];
        let images = train_set.images.narrow(0, 8).unwrap();
        let report = verify_network_tape(&mut net, &images, labels).unwrap();
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(report.nodes > 0);
    }

    #[test]
    fn frozen_bn_stats_are_not_flagged_unused() {
        // Data-parallel shard workers (and perturbed-gradient evaluations)
        // run train-mode forwards with BN running-stat updates frozen.
        // Freezing only skips the EMA update — gamma/beta are still graph
        // inputs consumed by `batch_norm` — so the analyzer must not
        // report UnusedParameter for any BN parameter, and verification
        // must not move the running statistics.
        let cfg = ModelConfig {
            classes: 4,
            in_channels: 3,
            input_hw: 8,
            width: 4,
        };
        let mut net = hero_nn::models::mini_resnet(cfg, 1, &mut StdRng::seed_from_u64(3));
        let spec = SynthSpec {
            classes: 4,
            hw: 8,
            noise_std: 0.2,
            ..SynthSpec::default()
        };
        let (train_set, _) = SynthGenerator::new(spec).train_test(16, 8);
        let images = train_set.images.narrow(0, 8).unwrap();
        let params_before = net.params();
        let prev = hero_nn::norm::set_bn_running_stat_updates(false);
        let report = verify_network_tape(&mut net, &images, &train_set.labels[..8]).unwrap();
        hero_nn::norm::set_bn_running_stat_updates(prev);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == hero_analyze::DiagCode::UnusedParameter),
            "{report}"
        );
        assert!(report.diagnostics.is_empty(), "{report}");
        assert_eq!(net.params(), params_before);
    }

    #[test]
    fn verification_rejects_mismatched_batches() {
        let (mut net, train_set, _) = setup();
        // 8 images but only 3 labels: the tape cannot be built cleanly.
        let images = train_set.images.narrow(0, 8).unwrap();
        assert!(verify_network_tape(&mut net, &images, &train_set.labels[..3]).is_err());
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let (mut net1, train_set, test_set) = setup();
        let (mut net2, _, _) = setup();
        let config = TrainConfig::new(Method::Sgd, 3)
            .with_batch_size(16)
            .with_seed(5);
        let r1 = train(&mut net1, &train_set, &test_set, &config).unwrap();
        let r2 = train(&mut net2, &train_set, &test_set, &config).unwrap();
        assert_eq!(r1.final_test_acc, r2.final_test_acc);
        assert_eq!(net1.params(), net2.params());
    }
}
