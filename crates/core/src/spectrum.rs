//! Epoch-cadenced Hessian spectrum probes: SLQ density summaries and
//! per-layer Hutchinson traces recorded while a model trains.
//!
//! A [`SpectrumProbe`] is one observation of the loss landscape — the
//! eigenvalue extremes and moments from stochastic Lanczos quadrature plus
//! a Hutchinson trace per parameter tensor (the HeRo-Q quantization-
//! sensitivity proxy). The trainer takes one every
//! [`crate::TrainConfig::spectrum_every`] epochs (off by default: each
//! probe costs `slq_probes·steps + trace_probes·n_layers + 1` gradient
//! evaluations), emits it as `spectrum` / `spectrum_layer` JSONL events
//! and records it into the `hero-obs` series registry, so traced runs roll
//! the whole trajectory into `SUMMARY_<run>.json`.

use hero_data::Dataset;
use hero_hessian::{layer_traces, slq_density, Estimate, GradOracle, SlqConfig, SlqDensity};
use hero_nn::Network;
use hero_optim::BatchOracle;
use hero_tensor::{Result, Tensor};

/// Knobs for one spectrum probe (shared by the trainer's epoch-cadence
/// probe and the CLI's deep final probe).
#[derive(Debug, Clone, Copy)]
pub struct SpectrumOptions {
    /// Lanczos steps per SLQ probe vector.
    pub steps: usize,
    /// SLQ probe vectors averaged into the density estimate.
    pub slq_probes: usize,
    /// Hutchinson probes per parameter tensor.
    pub trace_probes: usize,
    /// Training samples in the probe batch.
    pub samples: usize,
    /// Finite-difference step for the inner HVPs.
    pub eps: f32,
    /// Base seed for every probe stream.
    pub seed: u64,
}

impl Default for SpectrumOptions {
    fn default() -> Self {
        SpectrumOptions {
            steps: 8,
            slq_probes: 2,
            trace_probes: 2,
            samples: 64,
            eps: 1e-3,
            seed: 0,
        }
    }
}

impl SpectrumOptions {
    /// Builder: sets the base probe seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One parameter tensor's Hutchinson trace estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Dotted parameter path, e.g. `stage1.block0.conv1.weight`.
    pub name: String,
    /// True when the tensor is subject to weight quantization (the layers
    /// the sensitivity cross-check ranks).
    pub quantizable: bool,
    /// Estimated `tr(H_ii)` of the tensor's diagonal Hessian block.
    pub trace: Estimate,
}

/// One observation of the Hessian spectrum during (or after) training.
#[derive(Debug, Clone)]
pub struct SpectrumProbe {
    /// Epoch index the probe was taken at.
    pub epoch: usize,
    /// λ_max estimate across SLQ probes.
    pub lambda_max: Estimate,
    /// λ_min estimate across SLQ probes.
    pub lambda_min: Estimate,
    /// Spectral mean `tr(H)/n` across SLQ probes.
    pub mean_eigenvalue: Estimate,
    /// Second spectral moment `Σλᵢ²/n` across SLQ probes (the
    /// per-dimension analogue of HERO's regularizer).
    pub second_moment: Estimate,
    /// Per-parameter-tensor Hutchinson traces, canonical order.
    pub layers: Vec<LayerTrace>,
}

impl SpectrumProbe {
    /// Sum of the per-layer trace means — the global Hessian trace
    /// estimate (per-layer traces are unbiased block traces).
    pub fn global_trace(&self) -> f32 {
        self.layers.iter().map(|l| l.trace.mean).sum()
    }

    /// Emits the probe as structured telemetry: one `spectrum` event, one
    /// `spectrum_layer` event per tensor, and `(epoch, value)` samples
    /// into the `hero-obs` series registry (`spectrum/*` names) for the
    /// end-of-run summary roll-up.
    pub fn emit(&self) {
        let e = self.epoch as u64;
        hero_obs::Event::new("spectrum")
            .u64("epoch", e)
            .f64("lambda_max", f64::from(self.lambda_max.mean))
            .f64("lambda_max_se", f64::from(self.lambda_max.std_error))
            .f64("lambda_min", f64::from(self.lambda_min.mean))
            .f64("mean_eigenvalue", f64::from(self.mean_eigenvalue.mean))
            .f64("second_moment", f64::from(self.second_moment.mean))
            .f64("trace", f64::from(self.global_trace()))
            .emit();
        for l in &self.layers {
            hero_obs::Event::new("spectrum_layer")
                .u64("epoch", e)
                .str("layer", &l.name)
                .bool("quantizable", l.quantizable)
                .f64("trace", f64::from(l.trace.mean))
                .f64("trace_se", f64::from(l.trace.std_error))
                .emit();
            hero_obs::record(
                &format!("spectrum/trace/{}", l.name),
                e,
                f64::from(l.trace.mean),
            );
        }
        hero_obs::record("spectrum/lambda_max", e, f64::from(self.lambda_max.mean));
        hero_obs::record("spectrum/trace", e, f64::from(self.global_trace()));
        hero_obs::record(
            "spectrum/second_moment",
            e,
            f64::from(self.second_moment.mean),
        );
    }
}

/// Takes one spectrum probe of `net` on a fixed subsample of `train_set`.
///
/// The network's parameters and batch-norm running statistics are
/// restored afterwards (the gradient oracle installs whatever it evaluated
/// last, and its first evaluation updates the running statistics), so
/// probing never perturbs training.
///
/// # Errors
///
/// Returns shape errors if the probe batch is incompatible with the
/// network, and propagates estimator errors (zero probes/steps).
pub fn probe_spectrum(
    net: &mut Network,
    train_set: &Dataset,
    epoch: usize,
    opts: &SpectrumOptions,
) -> Result<SpectrumProbe> {
    let _obs = hero_obs::span("spectrum");
    let n = train_set.len().min(opts.samples);
    let images = train_set.images.narrow(0, n)?;
    let labels = &train_set.labels[..n];
    let params = net.params();
    let state = net.state();
    let infos = net.param_infos();
    let (density, traces) = estimate(&mut BatchOracle::new(net, &images, labels), &params, opts)?;
    net.set_params(&params)?;
    net.set_state(&state)?;
    let layers = infos
        .into_iter()
        .zip(traces)
        .map(|(info, trace)| LayerTrace {
            name: info.name,
            quantizable: info.kind.is_quantizable(),
            trace,
        })
        .collect();
    Ok(SpectrumProbe {
        epoch,
        lambda_max: density.lambda_max,
        lambda_min: density.lambda_min,
        mean_eigenvalue: density.mean_eigenvalue,
        second_moment: density.second_moment,
        layers,
    })
}

/// The SLQ density and per-layer Hutchinson traces at `params`, sharing
/// one base gradient: `slq_probes·steps + trace_probes·n_layers + 1`
/// gradient evaluations.
fn estimate(
    oracle: &mut BatchOracle<'_>,
    params: &[Tensor],
    opts: &SpectrumOptions,
) -> Result<(SlqDensity, Vec<Estimate>)> {
    let (_, base) = oracle.grad(params)?;
    let cfg = SlqConfig {
        steps: opts.steps,
        probes: opts.slq_probes,
        eps: opts.eps,
        seed: opts.seed,
        ..SlqConfig::default()
    };
    let density = slq_density(oracle, params, &base, cfg)?;
    let traces = layer_traces(
        oracle,
        params,
        &base,
        opts.trace_probes,
        opts.eps,
        // Decorrelated from the SLQ probe streams.
        opts.seed ^ 0x7ACE,
    )?;
    Ok((density, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_data::{SynthGenerator, SynthSpec};
    use hero_nn::models::{mini_resnet, mlp, ModelConfig};
    use hero_tensor::rng::StdRng;

    fn setup() -> (Network, Dataset) {
        let spec = SynthSpec {
            classes: 4,
            hw: 4,
            noise_std: 0.2,
            ..SynthSpec::default()
        };
        let (train_set, _) = SynthGenerator::new(spec).train_test(32, 8);
        let cfg = ModelConfig {
            classes: 4,
            in_channels: 3,
            input_hw: 4,
            width: 4,
        };
        let net = mlp(cfg, &[16], &mut StdRng::seed_from_u64(2));
        (net, train_set)
    }

    #[test]
    fn probe_reports_aligned_finite_estimates() {
        let (mut net, train_set) = setup();
        let opts = SpectrumOptions {
            steps: 4,
            slq_probes: 2,
            trace_probes: 2,
            samples: 16,
            ..SpectrumOptions::default()
        };
        let probe = probe_spectrum(&mut net, &train_set, 3, &opts).unwrap();
        assert_eq!(probe.epoch, 3);
        assert_eq!(probe.layers.len(), net.params().len());
        let infos = net.param_infos();
        for (l, info) in probe.layers.iter().zip(&infos) {
            assert_eq!(l.name, info.name);
            assert_eq!(l.quantizable, info.kind.is_quantizable());
            assert!(l.trace.mean.is_finite(), "{l:?}");
        }
        assert!(probe.lambda_max.mean.is_finite());
        assert!(probe.lambda_max.mean >= probe.lambda_min.mean);
        assert!(probe.global_trace().is_finite());
        assert!(probe.layers.iter().any(|l| l.quantizable));
    }

    #[test]
    fn probe_preserves_parameters_and_reproduces() {
        let (mut net, train_set) = setup();
        let before = net.params();
        let opts = SpectrumOptions {
            steps: 3,
            slq_probes: 1,
            trace_probes: 1,
            samples: 16,
            ..SpectrumOptions::default()
        }
        .with_seed(5);
        let a = probe_spectrum(&mut net, &train_set, 0, &opts).unwrap();
        assert_eq!(net.params(), before);
        let b = probe_spectrum(&mut net, &train_set, 0, &opts).unwrap();
        // Single-probe standard errors are NaN by contract, so compare the
        // (bitwise reproducible) means.
        assert_eq!(a.lambda_max.mean.to_bits(), b.lambda_max.mean.to_bits());
        assert!(a.lambda_max.std_error.is_nan());
        assert_eq!(
            a.layers
                .iter()
                .map(|l| l.trace.mean.to_bits())
                .collect::<Vec<_>>(),
            b.layers
                .iter()
                .map(|l| l.trace.mean.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn probe_restores_batch_norm_statistics() {
        let (_, train_set) = setup();
        let cfg = ModelConfig {
            classes: 4,
            in_channels: 3,
            input_hw: 4,
            width: 4,
        };
        let mut net = mini_resnet(cfg, 1, &mut StdRng::seed_from_u64(2));
        let (params, state) = (net.params(), net.state());
        let logits = net.predict(&train_set.images).unwrap();
        let opts = SpectrumOptions {
            steps: 3,
            slq_probes: 1,
            trace_probes: 1,
            samples: 16,
            ..SpectrumOptions::default()
        };
        probe_spectrum(&mut net, &train_set, 0, &opts).unwrap();
        assert_eq!(net.params(), params);
        assert_eq!(net.state(), state, "probe moved the running statistics");
        assert_eq!(net.predict(&train_set.images).unwrap(), logits);
    }

    #[test]
    fn probe_evaluates_the_base_gradient_once() {
        let (mut net, train_set) = setup();
        let params = net.params();
        let opts = SpectrumOptions {
            steps: 3,
            slq_probes: 2,
            trace_probes: 2,
            samples: 16,
            ..SpectrumOptions::default()
        };
        let images = train_set.images.narrow(0, 16).unwrap();
        let mut oracle = BatchOracle::new(&mut net, &images, &train_set.labels[..16]);
        estimate(&mut oracle, &params, &opts).unwrap();
        assert_eq!(oracle.calls(), 2 * 3 + 2 * params.len() + 1);
    }

    #[test]
    fn emitted_events_serialize_cleanly() {
        let (mut net, train_set) = setup();
        let opts = SpectrumOptions {
            steps: 3,
            slq_probes: 1,
            trace_probes: 1,
            samples: 16,
            ..SpectrumOptions::default()
        };
        let probe = probe_spectrum(&mut net, &train_set, 1, &opts).unwrap();
        // No run is active in unit tests: emit must be a silent no-op on
        // the JSONL side and must not panic on the series side.
        probe.emit();
        let _ = hero_obs::take_series();
    }
}
