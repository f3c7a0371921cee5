//! Quantization-noise preflight: certified static sensitivity and its
//! empirical cross-validation.
//!
//! This module wires `hero-analyze`'s forward quantization-noise pass
//! (DESIGN.md §14) to real networks:
//!
//! * [`preflight_report_with_noise`] — one probe tape, the full analyzer
//!   suite, plus noise seeds on every quantizable weight tensor (uniform
//!   or per-layer bit widths) so the report carries certified per-node
//!   error bounds and the noise-dominance / error-budget lints.
//! * [`static_sensitivity_matrix`] — the certified
//!   [`SensitivityMatrix`] `err[layer][bits]`: one tape and one
//!   interval/scale analysis, then one cheap noise propagation per
//!   `(layer, bits)` cell seeding that layer alone.
//! * [`SweepGate`] — `quant_sweep`'s soundness gate: one probe tape that
//!   is the sweep's static verification, the base of its whole-network
//!   bounds per bit width (all layers seeded at once) and its unquantized
//!   probe loss.
//! * [`noise_crosscheck`] — the adversarial check: per-layer fake-quant
//!   (and random in-bin perturbation) probe-loss trials, confirming the
//!   static bound dominates every measured error and that the static
//!   sensitivity *ranking* agrees with the empirical one.

use crate::experiment::{eval_quantized, MethodKind, ModelSource, Recipe};
use crate::trainer::probe_batch;
use hero_analyze::{relational_noise_pass, NoiseSeed, Report, ValueAnalysis, VerifyOptions};
use hero_artifact::{Artifact, MetaValue};
use hero_autodiff::{Graph, NodeTrace, Var};
use hero_data::{Dataset, Preset};
use hero_nn::models::ModelKind;
use hero_nn::Network;
use hero_obs::json::{self, JsonObj};
use hero_quant::{quantize_tensor, QuantScheme, SensitivityMatrix, StaticSensitivity};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Result, Tensor, TensorError};
use std::path::Path;

/// Relative slack for the dominance comparison: the certified bound is
/// computed in widened interval arithmetic and must exceed the measured
/// error outright; the epsilon only absorbs the final `f32` compare.
const DOMINANCE_REL_TOL: f32 = 1e-4;
/// Absolute slack for the dominance comparison near zero loss deltas.
const DOMINANCE_ABS_TOL: f32 = 1e-6;

/// A weight bit allocation: the widths of a preflight run's noise seeds
/// or of a fake quantization ([`crate::experiment::eval_quantized`]).
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseBits {
    /// Same width for every quantizable tensor.
    Uniform(u8),
    /// One width per quantizable tensor, in network parameter order (the
    /// order of [`hero_quant::network_sensitivities`]).
    PerLayer(Vec<u8>),
}

/// Configuration for a noise-seeded preflight.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Where the weight grids sit.
    pub bits: NoiseBits,
    /// Optional certified output-error budget; exceeding it at the loss
    /// root raises [`hero_analyze::DiagCode::QuantErrorBudgetExceeded`].
    pub budget: Option<f32>,
}

/// One noise seed per quantizable parameter, at the widths `bits` gives
/// them, from the probe tape's parameter variables.
fn build_seeds(net: &Network, vars: &[Var], bits: &NoiseBits) -> Result<Vec<NoiseSeed>> {
    let weights: Vec<(usize, f32)> = (vars.iter().zip(net.params()).zip(net.param_infos()))
        .filter(|(_, info)| info.kind.is_quantizable())
        .map(|((var, param), _)| (var.index(), param.norm_linf()))
        .collect();
    let widths = match bits {
        NoiseBits::Uniform(b) => vec![*b; weights.len()],
        NoiseBits::PerLayer(v) if v.len() == weights.len() => v.clone(),
        NoiseBits::PerLayer(v) => {
            return Err(TensorError::InvalidArgument(format!(
                "{} per-layer bit widths for {} quantizable tensors",
                v.len(),
                weights.len()
            )))
        }
    };
    let seeds = weights.into_iter().zip(widths);
    seeds
        .map(|((var, max_abs), b)| {
            QuantScheme::symmetric(b)?;
            Ok(NoiseSeed::for_quantized_weight(var, max_abs, b))
        })
        .collect()
}

/// The full analyzer suite over one frozen-BN probe tape (see
/// [`crate::verify_network_tape`]), plus an optional quantization-noise
/// configuration: when `noise` is set, every quantizable weight tensor is
/// seeded with `‖δW‖∞ ≤ Δ(bits)/2` and the report carries the certified
/// per-node error bounds, the noise-dominance lint and (with a budget)
/// the error-budget lint. Never errors on diagnostics.
///
/// # Errors
///
/// Returns shape errors if the batch is incompatible with the network, or
/// [`TensorError::InvalidArgument`] for invalid bit widths / per-layer
/// arity.
pub fn preflight_report_with_noise(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    opts: &VerifyOptions,
    noise: Option<&NoiseConfig>,
    render_dot: bool,
) -> Result<(Report, Option<String>)> {
    let mut g = Graph::new();
    let (loss, vars) = probe_tape(net, &mut g, images, labels)?;
    let mut opts = opts.clone();
    if let Some(noise) = noise {
        opts.noise_seeds = build_seeds(net, &vars, &noise.bits)?;
        opts.noise_budget = noise.budget;
    }
    let report = hero_analyze::verify_graph_with(&g, &[loss], &opts);
    let dot = render_dot.then(|| hero_analyze::to_dot_colored(&g.trace(), &report));
    g.reset();
    report.emit_obs(net.name());
    Ok((report, dot))
}

/// Records one frozen-BN train-mode probe forward and returns the scalar
/// cross-entropy loss — the empirical counterpart of the analyzed tape
/// (identical op sequence, so measured perturbations are exactly what
/// the noise pass bounds).
///
/// # Errors
///
/// Returns shape errors if the batch is incompatible with the network.
pub fn probe_loss(net: &mut Network, images: &Tensor, labels: &[usize]) -> Result<f32> {
    let mut g = Graph::new();
    let (loss, _) = probe_tape(net, &mut g, images, labels)?;
    let value = g.value(loss).data()[0];
    g.reset();
    Ok(value)
}

/// Records one train-mode forward of `net` and its cross-entropy loss on
/// `g` with the batch-norm running statistics frozen; returns the loss and
/// the parameter variables.
fn probe_tape(
    net: &mut Network,
    g: &mut Graph,
    images: &Tensor,
    labels: &[usize],
) -> Result<(Var, Vec<Var>)> {
    let prev = hero_nn::norm::set_bn_running_stat_updates(false);
    let built = net
        .forward(g, images)
        .and_then(|(logits, vars)| Ok((g.cross_entropy(logits, labels)?, vars)));
    hero_nn::norm::set_bn_running_stat_updates(prev);
    built
}

/// The error of a tape that fails static verification, rendering its
/// report; `Ok` when the report holds no error-severity finding.
pub(crate) fn check_verified(report: &Report, net: &Network) -> Result<()> {
    if report.has_errors() {
        return Err(TensorError::InvalidArgument(format!(
            "static tape verification failed for `{}`:\n{report}",
            net.name()
        )));
    }
    Ok(())
}

/// A verified, value-analyzed probe tape: what every certified noise
/// propagation runs over.
struct NoiseTape {
    tape: Vec<NodeTrace>,
    value: ValueAnalysis,
    recorded: Vec<f32>,
    loss: usize,
    /// The probe loss the tape recorded.
    base: f32,
    vars: Vec<Var>,
}

impl NoiseTape {
    /// Records `net`'s probe tape and analyzes it under `opts`; fails when
    /// it does not pass structural verification. `publish` sees the report
    /// first, pass or fail.
    fn record(
        net: &mut Network,
        images: &Tensor,
        labels: &[usize],
        opts: &VerifyOptions,
        publish: impl FnOnce(&Report),
    ) -> Result<Self> {
        let mut g = Graph::new();
        let (loss, vars) = probe_tape(net, &mut g, images, labels)?;
        let (mut report, tape, recorded) = hero_analyze::verify_graph_lowered(&g, &[loss], opts);
        let base = g.value(loss).data()[0];
        g.reset();
        publish(&report);
        check_verified(&report, net)?;
        let value = report.value.take().ok_or_else(|| {
            TensorError::InvalidArgument("analyzer produced no value analysis".into())
        })?;
        Ok(NoiseTape {
            tape,
            value,
            recorded,
            loss: loss.index(),
            base,
            vars,
        })
    }

    /// The certified bound on the loss shift when `seeds` perturb weights.
    fn bound(&self, seeds: &[NoiseSeed]) -> f32 {
        let rn = relational_noise_pass(
            &self.tape,
            &self.value.intervals,
            Some(&self.recorded),
            seeds,
        );
        rn.tightened[self.loss].abs_max()
    }
}

/// Validates a bit-width grid: non-empty, strictly increasing, supported.
pub(crate) fn validate_grid(bits_grid: &[u8]) -> Result<()> {
    if bits_grid.is_empty() || !bits_grid.windows(2).all(|w| w[0] < w[1]) {
        return Err(TensorError::InvalidArgument(
            "bit grid must be non-empty and strictly increasing".into(),
        ));
    }
    for &b in bits_grid {
        QuantScheme::symmetric(b)?;
    }
    Ok(())
}

/// Computes the certified static sensitivity matrix `err[layer][bits]`
/// for `net` on one probe batch: the tape is recorded and
/// interval/scale-analyzed once, then each `(layer, bits)` cell runs one
/// relational (zonotope) noise propagation seeding that layer alone with
/// `‖δW‖∞ ≤ Δ(bits)/2`, bounding the induced loss perturbation. The
/// zonotope pass centers its base-run ranges on the recorded trace
/// magnitudes, which is what keeps the raw cells off the loss-interval
/// ceiling.
///
/// This is the sound replacement for the `curvature = 1` placeholder of
/// [`hero_quant::network_sensitivities`]: feed the matrix (or its
/// [`SensitivityMatrix::to_layer_sensitivities`] projection) to the bit
/// allocator.
///
/// # Errors
///
/// Returns shape errors for an incompatible batch, or
/// [`TensorError::InvalidArgument`] for a malformed grid or a tape that
/// fails structural verification.
pub fn static_sensitivity_matrix(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    bits_grid: &[u8],
) -> Result<SensitivityMatrix> {
    validate_grid(bits_grid)?;
    let _obs = hero_obs::span("static_sensitivity");
    let t = NoiseTape::record(net, images, labels, &VerifyOptions::default(), |_| ())?;
    let mut layers = Vec::new();
    for ((var, param), info) in t.vars.iter().zip(net.params()).zip(net.param_infos()) {
        if !info.kind.is_quantizable() {
            continue;
        }
        let max_abs = param.norm_linf();
        let grad_bound = t.value.grad_bounds.get(var.index()).copied();
        let err = bits_grid
            .iter()
            .map(|&b| t.bound(&[NoiseSeed::for_quantized_weight(var.index(), max_abs, b)]))
            .collect();
        layers.push(StaticSensitivity {
            name: info.name,
            numel: param.numel(),
            max_abs,
            grad_bound: grad_bound.unwrap_or(f32::INFINITY),
            err,
        });
    }
    Ok(SensitivityMatrix {
        bits: bits_grid.to_vec(),
        layers,
    })
}

/// The soundness gate of a quantization sweep (DESIGN.md §14): one
/// frozen-BN probe tape, recorded and analyzed once. Its report, with the
/// clip-risk lint at the swept widths, is the sweep's static verification;
/// its value analysis carries one certified whole-network bound per width
/// (one noise propagation seeding *every* quantizable layer at `Δ(b)/2`);
/// and its loss is the unquantized probe loss each sweep point's shift is
/// measured from.
pub(crate) struct SweepGate<'a> {
    images: Tensor,
    labels: &'a [usize],
    /// The certified probe-loss shift bound of each swept width.
    bounds: Vec<f32>,
    /// The unquantized probe loss.
    base: f32,
}

impl<'a> SweepGate<'a> {
    /// Records, verifies and analyzes `net`'s probe tape on
    /// `images`/`labels` for a sweep over `bits`, publishing the report
    /// through `hero-obs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] carrying the rendered
    /// report for a tape that fails static verification, or for an
    /// unsupported width; shape errors for an incompatible batch.
    pub(crate) fn new(
        net: &mut Network,
        images: Tensor,
        labels: &'a [usize],
        bits: &[u8],
    ) -> Result<Self> {
        let opts = VerifyOptions {
            quant_bits: bits.to_vec(),
            ..VerifyOptions::default()
        };
        let name = net.name().to_owned();
        let t = NoiseTape::record(net, &images, labels, &opts, |r| r.emit_obs(&name))?;
        let seeds = |b| build_seeds(net, &t.vars, &NoiseBits::Uniform(b));
        let bounds = bits.iter().map(|&b| Ok(t.bound(&seeds(b)?)));
        Ok(SweepGate {
            bounds: bounds.collect::<Result<_>>()?,
            images,
            labels,
            base: t.base,
        })
    }

    /// Holds the probe-loss shift of the weights now installed in `net`,
    /// quantized to `b` bits (the sweep's `i`-th width), against their
    /// certified bound. Traced runs get a `quant_noise_gate` event tagged
    /// with `method`; a violation bumps `noise_crosscheck_violations`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when the measured shift
    /// escapes the bound; shape errors from the probe forward.
    pub(crate) fn check(&self, net: &mut Network, method: &str, i: usize, b: u8) -> Result<()> {
        let shifted = probe_loss(net, &self.images, self.labels)?;
        let measured = (shifted - self.base).abs();
        let certified = self.bounds[i];
        if hero_obs::run_active() {
            hero_obs::Event::new("quant_noise_gate")
                .str("method", method)
                .u64("bits", u64::from(b))
                .f64("certified", f64::from(certified))
                .f64("measured", f64::from(measured))
                .emit();
        }
        if measured > certified * 1.0001 + 1e-5 {
            hero_obs::counters::NOISE_CROSSCHECK_VIOLATIONS.incr();
            return Err(TensorError::InvalidArgument(format!(
                "noise-domain soundness violation at {b} bits: measured probe-loss \
                 shift {measured:.6e} escapes the certified bound {certified:.6e}"
            )));
        }
        Ok(())
    }
}

/// One `(layer, bits)` cell of the empirical crosscheck.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosscheckCell {
    /// Layer name.
    pub layer: String,
    /// Bit width probed.
    pub bits: u8,
    /// Certified static bound on the loss perturbation.
    pub certified: f32,
    /// Largest measured `|L(W + δ) − L(W)|` over the fake-quant trial
    /// plus the random in-bin perturbation trials.
    pub empirical: f32,
    /// Whether the measured error escaped the certified bound.
    pub violated: bool,
}

/// Result of [`noise_crosscheck`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrosscheckReport {
    /// Model name.
    pub model: String,
    /// Every probed `(layer, bits)` cell.
    pub cells: Vec<CrosscheckCell>,
    /// Number of cells whose empirical error escaped the bound (must be
    /// zero for a sound analysis).
    pub violations: usize,
    /// Fraction of the statically-predicted top-half most-sensitive
    /// layers that also rank top-half empirically (at [`Self::ref_bits`]).
    /// `1.0` for single-layer networks (ranking is trivial).
    pub overlap: f32,
    /// Spearman rank correlation between the static per-layer impacts and
    /// the empirical loss shifts at [`Self::ref_bits`]; `None` when the
    /// ranking is degenerate (fewer than two layers, or one side
    /// constant — e.g. every static cell clamped at the loss ceiling).
    /// Gates must treat `None` as a failure, never as a pass.
    pub rank_rho: Option<f32>,
    /// Bit width the ranking overlap was computed at (grid midpoint).
    pub ref_bits: u8,
    /// The certified static sensitivity matrix the cells were checked
    /// against.
    pub matrix: SensitivityMatrix,
    /// The matrix's mixed allocation at the average width.
    pub allocation: Vec<u8>,
    /// Test accuracy under that allocation, and under uniform quantization
    /// at the rounded average width.
    pub mixed_vs_uniform: (f32, f32),
}

impl CrosscheckReport {
    /// Most distinct values in any bit column of the raw matrix: under 2
    /// on a multi-layer model, the ranking means nothing.
    pub fn distinct_ranks(&self) -> usize {
        let m = &self.matrix;
        let column = |k: usize| {
            let mut col: Vec<f32> = m.layers.iter().map(|l| l.err[k]).collect();
            col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            col.dedup();
            col.len()
        };
        (0..m.bits.len()).map(column).max().unwrap_or(0)
    }
}

/// The measurement knobs of [`noise_crosscheck`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrosscheckGrid {
    /// The bit grid (strictly increasing).
    pub bits: Vec<u8>,
    /// Random in-bin perturbations per cell, beyond the rounding trial.
    pub trials: usize,
    /// Seed of the perturbation trials.
    pub seed: u64,
    /// Average width of the mixed allocation, and (rounded) of the uniform
    /// quantization it is compared against.
    pub avg: f32,
}

/// Cross-validates the static noise domain against measurement on the
/// probe batch: for every quantizable layer and grid width, fake-quantizes
/// that layer alone (round-to-nearest, plus `grid.trials` random
/// perturbations with `‖δ‖∞ ≤ Δ/2`) and measures the probe-loss shift.
/// Sound analysis means every measured shift sits inside the certified
/// bound (each violation increments `noise_crosscheck_violations`); a
/// useful one means the static sensitivity *ranking* matches the
/// empirical one. Then the certified matrix's mixed allocation at
/// `grid.avg` is evaluated against uniform quantization on `test_set`.
/// Parameters are restored before returning.
///
/// # Errors
///
/// Same contract as [`static_sensitivity_matrix`], plus allocation and
/// evaluation errors.
pub fn noise_crosscheck(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    test_set: &Dataset,
    grid: &CrosscheckGrid,
) -> Result<CrosscheckReport> {
    let bits_grid = &grid.bits;
    let matrix = static_sensitivity_matrix(net, images, labels, bits_grid)?;
    let base = probe_loss(net, images, labels)?;
    let full = net.params();
    let infos = net.param_infos();
    let quant_idx: Vec<usize> = (0..infos.len())
        .filter(|&i| infos[i].kind.is_quantizable())
        .collect();
    let mut rng = StdRng::seed_from_u64(grid.seed ^ 0xC805_5C8E);
    let mut cells = Vec::with_capacity(quant_idx.len() * bits_grid.len());
    for (l, &pi) in quant_idx.iter().enumerate() {
        for (k, &b) in bits_grid.iter().enumerate() {
            let certified = matrix.impact(l, b).min(matrix.layers[l].err[k]);
            let half = matrix.layers[l].delta(b) / 2.0;
            let mut empirical = 0.0f32;
            // Trial 0: the actual round-to-nearest fake quantization.
            let q = quantize_tensor(&full[pi], &QuantScheme::symmetric(b)?);
            let mut probe_with = |perturbed: Tensor| -> Result<()> {
                let mut params = full.clone();
                params[pi] = perturbed;
                net.set_params(&params)?;
                let shifted = probe_loss(net, images, labels)?;
                empirical = empirical.max((shifted - base).abs());
                Ok(())
            };
            probe_with(q.values)?;
            // Random in-bin perturbations: any ‖δ‖∞ ≤ Δ/2 is admissible
            // under the certificate, not just the rounding pattern.
            for _ in 0..grid.trials {
                let data = full[pi].data().iter();
                let data = data.map(|&w| w + rng.gen_range(-half..=half)).collect();
                probe_with(Tensor::from_vec(data, full[pi].shape().clone())?)?;
            }
            let violated = empirical > certified * (1.0 + DOMINANCE_REL_TOL) + DOMINANCE_ABS_TOL;
            if violated {
                hero_obs::counters::NOISE_CROSSCHECK_VIOLATIONS.incr();
            }
            cells.push(CrosscheckCell {
                layer: matrix.layers[l].name.clone(),
                bits: b,
                certified,
                empirical,
                violated,
            });
        }
    }
    net.set_params(&full)?;

    // Ranking at the grid midpoint: do the statically-sensitive layers
    // match the empirically-sensitive ones?
    let ref_k = bits_grid.len() / 2;
    let ref_bits = bits_grid[ref_k];
    let n = quant_idx.len();
    let static_scores: Vec<f32> = (0..n).map(|l| matrix.impact(l, ref_bits)).collect();
    let emp_scores: Vec<f32> = (0..n)
        .map(|l| cells[l * bits_grid.len() + ref_k].empirical)
        .collect();
    let top = n.div_ceil(2);
    let top_set = |score: &[f32]| -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            score[b]
                .partial_cmp(&score[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(top);
        order
    };
    let (static_top, emp_top) = (top_set(&static_scores), top_set(&emp_scores));
    let hits = static_top.iter().filter(|l| emp_top.contains(l)).count();
    // A single-layer ranking is trivially perfect.
    let overlap = if n < 2 { 1.0 } else { hits as f32 / top as f32 };
    let rank_rho = hero_hessian::spearman_rank_checked(&static_scores, &emp_scores);

    // Reuse the certified matrix rather than paying for a second
    // relational pass per layer×bits.
    let (lo, hi) = (bits_grid[0].min(2), bits_grid[bits_grid.len() - 1]);
    let allocation = matrix.allocate(grid.avg, lo, hi)?;
    let mixed = eval_quantized(net, &NoiseBits::PerLayer(allocation.clone()), test_set)?.0;
    let uniform = eval_quantized(net, &NoiseBits::Uniform(grid.avg.round() as u8), test_set)?.0;
    Ok(CrosscheckReport {
        model: net.name().to_string(),
        violations: cells.iter().filter(|c| c.violated).count(),
        cells,
        overlap,
        rank_rho,
        ref_bits,
        matrix,
        allocation,
        mixed_vs_uniform: (mixed, uniform),
    })
}

// ---------------------------------------------------------------------------
// The preflight and crosscheck experiments (`hero preflight`,
// `hero noise-crosscheck`)
// ---------------------------------------------------------------------------

/// Which quantization noise a preflight run certifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoisePlan {
    /// Every quantizable weight at this width.
    Uniform(u8),
    /// Per-layer widths allocated at this average width against the
    /// certified static sensitivity matrix over the lint grid.
    Mixed(f32),
}

/// Result of [`run_preflight`].
#[derive(Debug, Clone)]
pub struct PreflightRun {
    /// Paper name of the analyzed model (names the report files).
    pub model: &'static str,
    /// The network's own name.
    pub network: String,
    /// The noise plan, its certified sensitivity matrix and the width it
    /// seeds per quantizable layer.
    pub noise: Option<(NoisePlan, SensitivityMatrix, Vec<u8>)>,
    /// The analyzer report and its interval-colored Graphviz view.
    pub report: (Report, Option<String>),
    /// The report's provenance hash ([`crate::preflight_hash`]).
    pub hash: u64,
    /// The source artifact with the hash in `provenance.preflight_hash`.
    pub stamped: Option<Artifact>,
}

/// The static analyzer suite over one probe tape of an untrained or saved
/// model (64 training samples), with the clip-risk lint at `bits` and the
/// certified `noise` (under an optional error `budget`). The noise grid is
/// checked before the model is loaded; diagnostics never error.
pub fn run_preflight(
    preset: Preset,
    scale: f32,
    source: &ModelSource,
    bits: &[u8],
    noise: Option<NoisePlan>,
    budget: Option<f32>,
) -> Result<PreflightRun> {
    let grid = match noise {
        Some(NoisePlan::Mixed(_)) => bits.to_vec(),
        Some(NoisePlan::Uniform(b)) => vec![b],
        None => Vec::new(),
    };
    if noise.is_some() {
        validate_grid(&grid)?;
    }
    let (train_set, test_set) = preset.load(scale);
    let (mut net, artifact, model) = source.load(preset, &train_set, &test_set, true)?;
    let (images, labels) = probe_batch(&train_set, 64)?;
    let mut cfg = None;
    let noise = match noise {
        None => None,
        Some(plan) => {
            let matrix = static_sensitivity_matrix(&mut net, &images, labels, &grid)?;
            let (widths, bits) = match plan {
                NoisePlan::Mixed(avg) => {
                    let widths = matrix.allocate(avg, grid[0].min(2), grid[grid.len() - 1])?;
                    (widths.clone(), NoiseBits::PerLayer(widths))
                }
                NoisePlan::Uniform(b) => (vec![b; matrix.layers.len()], NoiseBits::Uniform(b)),
            };
            cfg = Some(NoiseConfig { bits, budget });
            Some((plan, matrix, widths))
        }
    };
    let vopts = VerifyOptions {
        quant_bits: bits.to_vec(),
        ..VerifyOptions::default()
    };
    let report =
        preflight_report_with_noise(&mut net, &images, labels, &vopts, cfg.as_ref(), true)?;
    let hash = crate::artifact_io::preflight_hash(&report.0);
    let stamped = artifact.map(|mut art| {
        art.set_meta("provenance.preflight_hash", MetaValue::U64(hash));
        art
    });
    Ok(PreflightRun {
        model,
        network: net.name().to_string(),
        noise,
        report,
        hash,
        stamped,
    })
}

impl PreflightRun {
    /// The certified sensitivity table: per layer, its width and every grid
    /// cell (mixed plan) or its one bound (uniform plan). Empty without a
    /// noise plan.
    pub fn sensitivity_table(&self) -> String {
        let Some((plan, matrix, widths)) = &self.noise else {
            return String::new();
        };
        let mut out = match plan {
            NoisePlan::Mixed(avg) => {
                format!(
                    "certified static sensitivity (err[layer][bits], avg {avg}-bit allocation):"
                )
            }
            NoisePlan::Uniform(b) => format!("certified per-layer loss-error bounds at {b} bits:"),
        };
        for (layer, width) in matrix.layers.iter().zip(widths) {
            out += &match plan {
                NoisePlan::Mixed(_) => {
                    let cells: Vec<String> = (matrix.bits.iter().zip(&layer.err))
                        .map(|(b, e)| format!("{b}b:{e:.2e}"))
                        .collect();
                    format!(
                        "\n  {:40} {width:>2} bits  {}",
                        layer.name,
                        cells.join("  ")
                    )
                }
                NoisePlan::Uniform(_) => {
                    format!("\n  {:40} err ≤ {:.3e}", layer.name, layer.err[0])
                }
            };
        }
        out + "\n"
    }
}

/// Result of [`run_crosscheck`].
#[derive(Debug, Clone)]
pub struct CrosscheckRun {
    /// Dataset preset.
    pub preset: Preset,
    /// The measurement knobs.
    pub grid: CrosscheckGrid,
    /// Per model: its paper name, full-precision test accuracy and report.
    pub models: Vec<(&'static str, f32, CrosscheckReport)>,
}

/// Adversarial validation of the static quantization-noise domain over
/// `preset`'s datasets at `scale`: one SGD baseline per model, trained for
/// `epochs` from `grid.seed`, then [`noise_crosscheck`] on 64 training
/// samples. The grid and the uniform width are checked before any data is
/// loaded.
pub fn run_crosscheck(
    preset: Preset,
    scale: f32,
    models: &[ModelKind],
    epochs: usize,
    grid: CrosscheckGrid,
) -> Result<CrosscheckRun> {
    validate_grid(&grid.bits)?;
    QuantScheme::symmetric(grid.avg.round() as u8)?;
    let (train_set, test_set) = preset.load(scale);
    let (images, labels) = probe_batch(&train_set, 64)?;
    let mut checks = Vec::with_capacity(models.len());
    for model in models {
        let recipe = Recipe::seeded(preset, *model, MethodKind::Sgd, epochs, grid.seed);
        let (mut net, record, _) = recipe.train(&train_set, &test_set, "unknown", None)?;
        let acc = record.final_test_acc;
        let report = noise_crosscheck(&mut net, &images, labels, &test_set, &grid)?;
        checks.push((model.paper_name(), acc, report));
    }
    Ok(CrosscheckRun {
        preset,
        grid,
        models: checks,
    })
}

impl CrosscheckRun {
    /// Prints one summary line and emits one `noise_crosscheck` event per
    /// model.
    pub fn emit(&self) {
        let avg = self.grid.avg;
        for (model, full_acc, r) in &self.models {
            let (mixed, uniform) = r.mixed_vs_uniform;
            let rho = r
                .rank_rho
                .map_or_else(|| "undefined".into(), |r| format!("{r:.3}"));
            println!(
                "{model}: {} cells, {} violations, overlap {:.2}, rank rho {rho}, \
                 {} distinct ranks, mixed {:.2}% vs uniform {:.2}% \
                 at avg {avg} bits (full {:.2}%)",
                r.cells.len(),
                r.violations,
                r.overlap,
                r.distinct_ranks(),
                100.0 * mixed,
                100.0 * uniform,
                100.0 * full_acc
            );
            hero_obs::Event::new("noise_crosscheck")
                .str("model", model)
                .u64("violations", r.violations as u64)
                .u64("distinct_ranks", r.distinct_ranks() as u64)
                .f64("overlap", f64::from(r.overlap))
                .f64("rank_rho", f64::from(r.rank_rho.unwrap_or(f32::NAN)))
                .f64("mixed_acc", f64::from(mixed))
                .f64("uniform_acc", f64::from(uniform))
                .emit();
        }
    }

    /// The smallest defined ranking overlap (a vacuous 1.0 when none is).
    pub fn worst_overlap(&self) -> f32 {
        let overlaps = self.models.iter().map(|m| m.2.overlap);
        overlaps
            .filter(|o| !o.is_nan())
            .reduce(f32::min)
            .unwrap_or(1.0)
    }

    /// The crosscheck document: one line per model with its cells. A NaN
    /// overlap or a non-finite measured shift serializes as `null`.
    pub fn to_json(&self) -> String {
        let docs = self.models.iter().map(|(model, full_acc, r)| {
            let cells = r.cells.iter().map(|c| {
                let mut cell = JsonObj::new();
                cell.str("layer", &c.layer)
                    .u64("bits", u64::from(c.bits))
                    .f64("certified", f64::from(c.certified))
                    .f64("empirical", f64::from(c.empirical))
                    .bool("violated", c.violated);
                cell.finish()
            });
            let mut doc = JsonObj::new();
            doc.str("model", model)
                .u64("violations", r.violations as u64)
                .f64("overlap", f64::from(r.overlap))
                .f64("rank_rho", f64::from(r.rank_rho.unwrap_or(f32::NAN)))
                .u64("distinct_ranks", r.distinct_ranks() as u64)
                .u64("ref_bits", u64::from(r.ref_bits))
                .f64("full_acc", f64::from(*full_acc))
                .f64("mixed_acc", f64::from(r.mixed_vs_uniform.0))
                .f64("uniform_acc", f64::from(r.mixed_vs_uniform.1))
                .raw("allocation", &json::list(&r.allocation))
                .raw("cells", &json::array_lines(cells));
            doc.finish()
        });
        let violations: usize = self.models.iter().map(|m| m.2.violations).sum();
        let mut doc = JsonObj::new();
        doc.str("preset", self.preset.paper_name())
            .raw("bits", &json::list(&self.grid.bits))
            .f64("avg_bits", f64::from(self.grid.avg))
            .raw("models", &json::array_lines(docs))
            .u64("total_violations", violations as u64)
            .f64("worst_overlap", f64::from(self.worst_overlap()));
        doc.finish() + "\n"
    }

    /// Why the run fails its gate, if it does: a soundness violation (see
    /// `out`), a rank-constant raw matrix on a multi-layer model, or, when
    /// `min_overlap > 0`, a degenerate ranking (NaN overlap, or undefined ρ
    /// on a multi-layer model: never a silent pass) or a worst overlap
    /// under `min_overlap`.
    pub fn failure(&self, min_overlap: f32, out: &Path) -> Option<String> {
        let reports = || self.models.iter().map(|m| &m.2);
        let violations: usize = reports().map(|r| r.violations).sum();
        let multi = |r: &CrosscheckReport| r.matrix.layers.len() >= 2;
        let constant: Vec<&str> = (self.models.iter())
            .filter(|m| multi(&m.2) && m.2.distinct_ranks() < 2)
            .map(|m| m.0)
            .collect();
        let degenerate =
            reports().any(|r| r.overlap.is_nan() || (r.rank_rho.is_none() && multi(r)));
        let worst = self.worst_overlap();
        Some(if violations > 0 {
            format!(
                "noise-domain soundness violated: {violations} measured errors \
                 escaped their certified bounds (see {})",
                out.display()
            )
        } else if !constant.is_empty() {
            let constant = constant.join(", ");
            format!("raw sensitivity matrix is rank-constant (every layer×bits cell ties) on: {constant}")
        } else if min_overlap > 0.0 && degenerate {
            format!(
                "static-vs-empirical ranking is degenerate (NaN overlap or undefined Spearman \
                 rho) on at least one model; cannot certify the required {min_overlap:.2} overlap"
            )
        } else if min_overlap > 0.0 && worst < min_overlap {
            format!("static-vs-empirical ranking overlap {worst:.2} below the required {min_overlap:.2}")
        } else {
            return None;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_data::{SynthGenerator, SynthSpec};
    use hero_nn::models::{mlp, ModelConfig};

    fn setup() -> (Network, Tensor, Vec<usize>) {
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
        let net = mlp(cfg, &[16, 12], &mut StdRng::seed_from_u64(7));
        let images = train_set.images.narrow(0, 16).unwrap();
        (net, images, train_set.labels[..16].to_vec())
    }

    #[test]
    fn noisy_preflight_produces_bounds() {
        let (mut net, images, labels) = setup();
        let cfg = NoiseConfig {
            bits: NoiseBits::Uniform(4),
            budget: None,
        };
        let (report, dot) = preflight_report_with_noise(
            &mut net,
            &images,
            &labels,
            &VerifyOptions::default(),
            Some(&cfg),
            true,
        )
        .unwrap();
        assert!(!report.has_errors(), "{report}");
        let noise = &report.value.as_ref().unwrap().noise;
        assert!(!noise.is_empty());
        // Bounds are finite and non-vacuous at the loss root.
        let worst = noise.iter().map(|e| e.abs_max()).fold(0.0f32, f32::max);
        assert!(worst.is_finite() && worst > 0.0);
        assert!(dot.unwrap().contains("e\u{2264}"));
    }

    #[test]
    fn per_layer_bits_validate_arity() {
        let (mut net, images, labels) = setup();
        let bad = NoiseConfig {
            bits: NoiseBits::PerLayer(vec![4]), // mlp has 3 weights
            budget: None,
        };
        assert!(preflight_report_with_noise(
            &mut net,
            &images,
            &labels,
            &VerifyOptions::default(),
            Some(&bad),
            false,
        )
        .is_err());
    }

    #[test]
    fn sensitivity_matrix_is_monotone_and_finite() {
        let (mut net, images, labels) = setup();
        let m = static_sensitivity_matrix(&mut net, &images, &labels, &[2, 4, 8]).unwrap();
        assert_eq!(m.bits, vec![2, 4, 8]);
        assert!(!m.layers.is_empty());
        for l in &m.layers {
            assert!(l.err.iter().all(|e| e.is_finite() && *e > 0.0), "{l:?}");
            // Fewer bits → bigger Δ → weaker (larger) bound.
            assert!(l.err[0] >= l.err[1] && l.err[1] >= l.err[2], "{l:?}");
            assert!(l.grad_bound.is_finite());
        }
    }

    #[test]
    fn crosscheck_has_no_violations_on_fresh_mlp() {
        let (mut net, images, labels) = setup();
        let before = net.params();
        let test_set = hero_data::Dataset {
            images: images.clone(),
            labels: labels.clone(),
            classes: 4,
        };
        let grid = CrosscheckGrid {
            bits: vec![2, 4, 8],
            trials: 2,
            seed: 11,
            avg: 4.0,
        };
        let report = noise_crosscheck(&mut net, &images, &labels, &test_set, &grid).unwrap();
        assert_eq!(report.violations, 0, "{:?}", report.cells);
        assert!(report
            .cells
            .iter()
            .all(|c| c.certified.is_finite() && c.empirical <= c.certified + 1e-5));
        // Bounds stay non-vacuous: certified within a few orders of
        // magnitude of measured error somewhere on the grid.
        assert!(report.cells.iter().any(|c| c.empirical > 0.0));
        assert_eq!(net.params(), before);
        assert!((0.0..=1.0).contains(&report.overlap));
    }

    #[test]
    fn certified_bounds_dominate_uniform_quantization() {
        let (mut net, images, labels) = setup();
        let bits = [2u8, 4, 8];
        let gate = SweepGate::new(&mut net, images.clone(), &labels, &bits).unwrap();
        let full = net.params();
        for (i, (&b, &bound)) in bits.iter().zip(&gate.bounds).enumerate() {
            let (qp, _) =
                hero_quant::quantize_params(&net, &QuantScheme::symmetric(b).unwrap()).unwrap();
            net.set_params(&qp).unwrap();
            let shifted = probe_loss(&mut net, &images, &labels).unwrap();
            let emp = (shifted - gate.base).abs();
            assert!(
                emp <= bound * (1.0 + DOMINANCE_REL_TOL) + DOMINANCE_ABS_TOL,
                "{b}-bit: measured {emp} escapes certified {bound}"
            );
            gate.check(&mut net, "SGD", i, b).unwrap();
            net.set_params(&full).unwrap();
        }
        // Monotone: more bits, tighter certified bound.
        let bounds = &gate.bounds;
        assert!(bounds[0] >= bounds[1] && bounds[1] >= bounds[2]);
    }

    /// The sweep gate's single tape gives, bit for bit, the bounds of a
    /// default-options noise tape and the loss of a separate probe
    /// forward: the clip-risk lint only adds diagnostics.
    #[test]
    fn the_sweep_gate_matches_separate_tapes_bitwise() {
        let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/c10_resnet_hero_smoke.ha");
        let bytes = std::fs::read(golden).unwrap();
        let resnet = crate::network_from_artifact(&Artifact::from_bytes(&bytes).unwrap());
        let mut nets = vec![resnet.unwrap()];
        let cfg = crate::experiment::model_config(Preset::C10);
        for (kind, seed) in [(ModelKind::Mobilenet, 0x3B11), (ModelKind::Vgg, 0x7667)] {
            nets.push(kind.build(cfg, &mut StdRng::seed_from_u64(seed)));
        }
        let (_, test_set) = Preset::C10.load(0.25);
        let (images, labels) = probe_batch(&test_set, 64).unwrap();
        let bits = [3u8, 4, 5, 6, 8];
        for mut net in nets {
            let gate = SweepGate::new(&mut net, images.clone(), labels, &bits).unwrap();
            let opts = VerifyOptions::default();
            let t = NoiseTape::record(&mut net, &images, labels, &opts, |_| ()).unwrap();
            let want: Vec<u32> = (bits.iter())
                .map(|&b| {
                    let seeds = build_seeds(&net, &t.vars, &NoiseBits::Uniform(b)).unwrap();
                    t.bound(&seeds).to_bits()
                })
                .collect();
            let got: Vec<u32> = gate.bounds.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{}: bounds", net.name());
            let base = probe_loss(&mut net, &images, labels).unwrap();
            assert_eq!(gate.base.to_bits(), base.to_bits(), "{}: base", net.name());
        }
    }

    #[test]
    fn the_sweep_gate_rejects_a_shift_beyond_its_bound() {
        let (mut net, images, labels) = setup();
        let mut gate = SweepGate::new(&mut net, images, &labels, &[2]).unwrap();
        let (qp, _) =
            hero_quant::quantize_params(&net, &QuantScheme::symmetric(2).unwrap()).unwrap();
        net.set_params(&qp).unwrap();
        gate.check(&mut net, "SGD", 0, 2).unwrap();
        // A certificate the measured shift escapes.
        gate.bounds[0] = 0.0;
        gate.base += 1.0;
        let err = gate.check(&mut net, "SGD", 0, 2).unwrap_err().to_string();
        assert!(err.contains("soundness violation at 2 bits"), "{err}");
    }

    #[test]
    fn the_sweep_gate_fails_verification_of_a_non_finite_tape() {
        let (mut net, images, labels) = setup();
        let mut params = net.params();
        params[0].data_mut()[0] = f32::NAN;
        net.set_params(&params).unwrap();
        let err = SweepGate::new(&mut net, images, &labels, &[4, 8]).err();
        let err = err.expect("a NaN weight passed verification").to_string();
        assert!(err.contains("static tape verification failed"), "{err}");
        assert!(SweepGate::new(&mut setup().0, setup().1, &labels, &[4, 32]).is_err());
    }

    #[test]
    fn grid_validation_rejects_junk() {
        let (mut net, images, labels) = setup();
        assert!(static_sensitivity_matrix(&mut net, &images, &labels, &[]).is_err());
        assert!(static_sensitivity_matrix(&mut net, &images, &labels, &[4, 4]).is_err());
        assert!(static_sensitivity_matrix(&mut net, &images, &labels, &[4, 32]).is_err());
    }
}
