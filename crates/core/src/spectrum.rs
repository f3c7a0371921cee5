//! Epoch-cadenced Hessian spectrum probes: SLQ density summaries and
//! per-layer Hutchinson traces recorded while a model trains.
//!
//! A [`SpectrumProbe`] is one observation of the loss landscape — the
//! eigenvalue extremes and moments from stochastic Lanczos quadrature plus
//! a Hutchinson trace per parameter tensor (the HeRo-Q quantization-
//! sensitivity proxy). The trainer takes one every
//! [`crate::TrainConfig::spectrum_every`] epochs (off by default: each
//! probe costs `slq_probes·steps + trace_probes·n_layers + 1` gradient
//! evaluations, the `trace_probes·n_layers` layer-masked ones each
//! backpropagating only to their own tensor, with a forward that restarts
//! at a top-level layer at or below that tensor's own from the recorded
//! input of the unchanged layers below), emits it as `spectrum` /
//! `spectrum_layer` JSONL events and records it into the `hero-obs` series
//! registry, so traced runs roll the whole trajectory into
//! `SUMMARY_<run>.json`.
//!
//! [`spectrum_report`] is the observatory behind `hero spectrum`: the same
//! estimator on each model's final weights, keeping the density grid
//! ([`probe_density`]), ranked against the certified static sensitivity.

use crate::artifact_io::record_from_artifact;
use crate::experiment::{slug, ModelSource};
use crate::preflight::{static_sensitivity_matrix, validate_grid};
use crate::trainer::probe_batch;
use crate::TrainRecord;
use hero_data::{Dataset, Preset};
use hero_hessian::{
    layer_traces, slq_density, spearman_rank_checked, Estimate, GradOracle, SlqConfig, SlqDensity,
};
use hero_nn::Network;
use hero_obs::json::{self, JsonObj};
use hero_optim::BatchOracle;
use hero_tensor::{Result, Tensor, TensorError};
use std::path::PathBuf;

/// Knobs for one spectrum probe (shared by the trainer's epoch-cadence
/// probe and the observatory's deep final probe).
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

/// Takes one spectrum probe of `net` on a fixed subsample of `train_set`:
/// [`probe_density`] without the density grid.
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
    let (density, layers) = probe_density(net, train_set, opts)?;
    Ok(SpectrumProbe {
        epoch,
        lambda_max: density.lambda_max,
        lambda_min: density.lambda_min,
        mean_eigenvalue: density.mean_eigenvalue,
        second_moment: density.second_moment,
        layers,
    })
}

/// The SLQ density (on a 32-point grid) and the per-layer Hutchinson
/// traces of `net` at its current weights, on the first `opts.samples`
/// training samples.
///
/// The network's parameters and batch-norm running statistics are
/// restored afterwards (the gradient oracle installs whatever it evaluated
/// last, and its first evaluation updates the running statistics), so
/// probing never perturbs training.
///
/// # Errors
///
/// Same contract as [`probe_spectrum`].
pub fn probe_density(
    net: &mut Network,
    train_set: &Dataset,
    opts: &SpectrumOptions,
) -> Result<(SlqDensity, Vec<LayerTrace>)> {
    let _obs = hero_obs::span("spectrum");
    let (images, labels) = probe_batch(train_set, opts.samples)?;
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
    Ok((density, layers))
}

/// The SLQ density and per-layer Hutchinson traces at `params`, sharing
/// one base gradient: `slq_probes·steps + trace_probes·n_layers + 1`
/// gradient evaluations.
fn estimate(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    opts: &SpectrumOptions,
) -> Result<(SlqDensity, Vec<Estimate>)> {
    let (_, base) = oracle.grad(params)?;
    let cfg = SlqConfig {
        steps: opts.steps,
        probes: opts.slq_probes,
        eps: opts.eps,
        seed: opts.seed,
        grid_points: 32,
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

// ---------------------------------------------------------------------------
// The spectrum observatory (`hero spectrum`)
// ---------------------------------------------------------------------------

/// One model's final probe and its trace-vs-certificate ranking.
#[derive(Debug, Clone)]
pub struct MethodSpectrum {
    /// Method label (paper name, or an artifact's `train.method.kind`).
    pub method: String,
    /// The training record (accuracy, epochs, spectrum trajectory).
    pub record: TrainRecord,
    /// SLQ density and per-tensor Hutchinson traces of the final weights.
    pub probe: (SlqDensity, Vec<LayerTrace>),
    /// Spearman ρ of the quantizable layers' per-weight trace `|tr(H_ii)|/nᵢ`
    /// against their certified curvature (`None` when degenerate), and the
    /// number of layers ranked.
    pub spearman: (Option<f32>, usize),
}

impl MethodSpectrum {
    /// Sum of the per-layer trace means: the global trace estimate.
    pub fn global_trace(&self) -> f32 {
        self.probe.1.iter().map(|l| l.trace.mean).sum()
    }
}

/// Result of [`spectrum_report`].
#[derive(Debug, Clone)]
pub struct SpectrumReport {
    /// Dataset preset.
    pub preset: Preset,
    /// Paper name of the probed architecture, and its training epochs.
    pub model: (&'static str, usize),
    /// The final probe's options.
    pub opts: SpectrumOptions,
    /// Width of the static sensitivity ranking.
    pub sens_bits: u8,
    /// One entry per probed model.
    pub methods: Vec<MethodSpectrum>,
}

/// The spectrum observatory: loads or trains each model of `sources`
/// (fresh ones with per-epoch spectrum telemetry when their recipe asks
/// for it), probes the final weights with [`probe_density`], and ranks the
/// quantizable layers' traces against the certified static sensitivity at
/// `sens_bits` (Spearman). A saved model is labelled by its artifact's
/// `train.method.kind`, a fresh one by its method's paper name. The probe
/// counts and the width are checked before any data is loaded.
pub fn spectrum_report(
    preset: Preset,
    scale: f32,
    sources: &[ModelSource],
    opts: SpectrumOptions,
    sens_bits: u8,
) -> Result<SpectrumReport> {
    if opts.steps == 0 || opts.slq_probes == 0 || opts.trace_probes == 0 {
        return Err(TensorError::InvalidArgument(
            "spectrum needs at least one Lanczos step and one probe".into(),
        ));
    }
    if sources.is_empty() {
        return Err(TensorError::InvalidArgument(
            "spectrum needs a model".into(),
        ));
    }
    validate_grid(&[sens_bits])?;
    let (train_set, test_set) = preset.load(scale);
    let mut runs = Vec::with_capacity(sources.len());
    let mut model = ("", 0);
    for source in sources {
        let (net, art, name) = source.load(preset, &train_set, &test_set, false)?;
        let art = art
            .ok_or_else(|| TensorError::InvalidArgument("spectrum needs a trained model".into()))?;
        let record = record_from_artifact(&art)?;
        let method = match source {
            ModelSource::Artifact(_) => art.meta_str("train.method.kind").unwrap_or("artifact"),
            _ => &record.method,
        };
        model = (name, record.epochs.len());
        runs.push((method.to_string(), net, record));
    }
    let (images, labels) = probe_batch(&train_set, opts.samples)?;
    let mut methods = Vec::with_capacity(runs.len());
    for (method, mut net, record) in runs {
        let probe = probe_density(&mut net, &train_set, &opts)?;
        // Both sides are per-weight curvature magnitudes: the raw `err`
        // cells can all clamp at the analyzer's loss-interval ceiling,
        // which would make the ranking constant.
        let matrix = static_sensitivity_matrix(&mut net, &images, labels, &[sens_bits])?;
        let sens = matrix.to_layer_sensitivities();
        let (empirical, certified): (Vec<f32>, Vec<f32>) = (probe.1.iter())
            .filter(|l| l.quantizable)
            .filter_map(|l| {
                let s = sens.iter().find(|s| s.name == l.name)?;
                Some(((l.trace.mean / s.numel.max(1) as f32).abs(), s.curvature))
            })
            .unzip();
        let rho = spearman_rank_checked(&empirical, &certified);
        methods.push(MethodSpectrum {
            method,
            record,
            probe,
            spearman: (rho, empirical.len()),
        });
    }
    Ok(SpectrumReport {
        preset,
        model,
        opts,
        sens_bits,
        methods,
    })
}

impl SpectrumReport {
    /// The document's default path: `results/SPECTRUM_<model>_<preset>.json`.
    pub fn default_path(&self) -> PathBuf {
        let stem = slug(&[self.model.0, self.preset.paper_name()]);
        PathBuf::from(format!("results/SPECTRUM_{stem}.json"))
    }

    /// Prints each model's summary line and ASCII density plot, and emits
    /// one `spectrum_summary` event per model.
    pub fn emit(&self) {
        for m in &self.methods {
            let (name, d, (rho, ranked)) = (&m.method, &m.probe.0, m.spearman);
            let rho_str = rho.map_or_else(|| "undefined".into(), |r| format!("{r:.3}"));
            println!(
                "{name} after {} epochs: λ_max {:.4} ± {:.4}, λ_min {:.4}, tr(H) {:.2}, \
                 E[λ²] {:.4}, trace-vs-static Spearman ρ {rho_str} over {ranked} layers",
                m.record.epochs.len(),
                d.lambda_max.mean,
                d.lambda_max.ci95(),
                d.lambda_min.mean,
                m.global_trace(),
                d.second_moment.mean,
            );
            let (probes, steps) = (self.opts.slq_probes, self.opts.steps);
            println!(
                "{name} spectral density (SLQ, {probes} probes × {steps} steps, σ {:.3}):",
                d.sigma
            );
            let rows: Vec<(String, f64)> = (d.grid.iter().zip(&d.density))
                .map(|(&x, &v)| (format!("{x:>10.3}"), f64::from(v)))
                .collect();
            print!("{}", hero_obs::ascii_bars(&rows, 48));
            hero_obs::Event::new("spectrum_summary")
                .str("method", name)
                .f64("lambda_max", f64::from(d.lambda_max.mean))
                .f64("lambda_min", f64::from(d.lambda_min.mean))
                .f64("trace", f64::from(m.global_trace()))
                .f64("second_moment", f64::from(d.second_moment.mean))
                .f64("spearman", f64::from(rho.unwrap_or(f32::NAN)))
                .emit();
        }
    }

    /// The comparison document: one line per model with its density grid,
    /// per-layer traces and per-epoch trajectory (`null` for an undefined
    /// ranking).
    pub fn to_json(&self) -> String {
        let nums = |v: &[f32]| json::list(v.iter().map(|&x| json::num(f64::from(x))));
        let methods = self.methods.iter().map(|m| {
            let (d, layers) = &m.probe;
            let layers = layers.iter().map(|l| {
                let mut layer = JsonObj::new();
                layer
                    .str("layer", &l.name)
                    .bool("quantizable", l.quantizable)
                    .f64("trace", f64::from(l.trace.mean))
                    .f64("trace_se", f64::from(l.trace.std_error));
                layer.finish()
            });
            let trajectory = m.record.spectra.iter().map(|p| {
                let mut point = JsonObj::new();
                point
                    .u64("epoch", p.epoch as u64)
                    .f64("lambda_max", f64::from(p.lambda_max.mean))
                    .f64("trace", f64::from(p.global_trace()))
                    .f64("second_moment", f64::from(p.second_moment.mean));
                point.finish()
            });
            let mut doc = JsonObj::new();
            doc.str("method", &m.method)
                .f64("test_acc", f64::from(m.record.final_test_acc))
                .f64("lambda_max", f64::from(d.lambda_max.mean))
                .f64("lambda_max_se", f64::from(d.lambda_max.std_error))
                .f64("lambda_min", f64::from(d.lambda_min.mean))
                .f64("mean_eigenvalue", f64::from(d.mean_eigenvalue.mean))
                .f64("second_moment", f64::from(d.second_moment.mean))
                .f64("trace", f64::from(m.global_trace()))
                .f64(
                    "spearman_trace_vs_static",
                    f64::from(m.spearman.0.unwrap_or(f32::NAN)),
                )
                .f64("sigma", f64::from(d.sigma))
                .raw("grid", &nums(&d.grid))
                .raw("density", &nums(&d.density))
                .raw("layers", &json::array_lines(layers))
                .raw("trajectory", &json::array_lines(trajectory));
            doc.finish()
        });
        let mut doc = JsonObj::new();
        doc.str("preset", self.preset.paper_name())
            .str("model", self.model.0)
            .u64("epochs", self.model.1 as u64)
            .u64("steps", self.opts.steps as u64)
            .u64("probes", self.opts.slq_probes as u64)
            .u64("sens_bits", u64::from(self.sens_bits))
            .raw("methods", &json::array_lines(methods));
        doc.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_data::{SynthGenerator, SynthSpec};
    use hero_nn::models::{mini_resnet, mlp, ModelConfig};
    use hero_tensor::rng::StdRng;

    /// Counts the gradient evaluations it forwards to `inner`.
    struct Counting<O> {
        inner: O,
        calls: usize,
    }

    impl<O: GradOracle> GradOracle for Counting<O> {
        fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
            self.calls += 1;
            self.inner.grad(params)
        }

        fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
            self.calls += 1;
            self.inner.grad_of(params, index)
        }
    }

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
        let mut oracle = Counting {
            inner: BatchOracle::new(&mut net, &images, &train_set.labels[..16]),
            calls: 0,
        };
        estimate(&mut oracle, &params, &opts).unwrap();
        assert_eq!(oracle.calls, 2 * 3 + 2 * params.len() + 1);
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
