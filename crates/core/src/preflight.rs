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
//! * [`certified_noise_bounds`] — the whole-network bound per bit width
//!   (all layers seeded at once), the cheap dominance gate used by
//!   `quant_sweep`.
//! * [`noise_crosscheck`] — the adversarial check: per-layer fake-quant
//!   (and random in-bin perturbation) probe-loss trials, confirming the
//!   static bound dominates every measured error and that the static
//!   sensitivity *ranking* agrees with the empirical one.

use hero_analyze::{relational_noise_pass, NoiseSeed, Report, VerifyOptions};
use hero_autodiff::Graph;
use hero_nn::Network;
use hero_quant::{quantize_tensor, QuantScheme, SensitivityMatrix, StaticSensitivity};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Result, Tensor, TensorError};

/// Relative slack for the dominance comparison: the certified bound is
/// computed in widened interval arithmetic and must exceed the measured
/// error outright; the epsilon only absorbs the final `f32` compare.
const DOMINANCE_REL_TOL: f32 = 1e-4;
/// Absolute slack for the dominance comparison near zero loss deltas.
const DOMINANCE_ABS_TOL: f32 = 1e-6;

/// Bit widths for the noise seeds of a preflight run.
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

impl NoiseConfig {
    /// Uniform `bits` everywhere, no budget.
    pub fn uniform(bits: u8) -> Self {
        NoiseConfig {
            bits: NoiseBits::Uniform(bits),
            budget: None,
        }
    }

    /// Per-layer widths (quantizable-tensor order), no budget.
    pub fn per_layer(bits: Vec<u8>) -> Self {
        NoiseConfig {
            bits: NoiseBits::PerLayer(bits),
            budget: None,
        }
    }

    /// The width for quantizable tensor `ordinal` out of `total`.
    fn bits_for(&self, ordinal: usize, total: usize) -> Result<u8> {
        match &self.bits {
            NoiseBits::Uniform(b) => Ok(*b),
            NoiseBits::PerLayer(v) => {
                if v.len() != total {
                    return Err(TensorError::InvalidArgument(format!(
                        "{} per-layer bit widths for {total} quantizable tensors",
                        v.len()
                    )));
                }
                Ok(v[ordinal])
            }
        }
    }
}

/// Builds one noise seed per quantizable parameter from the forward
/// tape's parameter variables.
fn build_seeds(
    net: &Network,
    vars: &[hero_autodiff::Var],
    noise: &NoiseConfig,
) -> Result<Vec<NoiseSeed>> {
    let params = net.params();
    let infos = net.param_infos();
    let total = infos.iter().filter(|i| i.kind.is_quantizable()).count();
    let mut seeds = Vec::with_capacity(total);
    let mut ordinal = 0usize;
    for ((var, param), info) in vars.iter().zip(&params).zip(&infos) {
        if !info.kind.is_quantizable() {
            continue;
        }
        let bits = noise.bits_for(ordinal, total)?;
        QuantScheme::symmetric(bits)?;
        seeds.push(NoiseSeed::for_quantized_weight(
            var.index(),
            param.norm_linf(),
            bits,
        ));
        ordinal += 1;
    }
    Ok(seeds)
}

/// [`crate::trainer::preflight_report`] plus an optional quantization-noise
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
    let prev = hero_nn::norm::set_bn_running_stat_updates(false);
    let mut g = Graph::new();
    let built = net
        .forward(&mut g, images, true)
        .and_then(|(logits, vars)| Ok((g.cross_entropy(logits, labels)?, vars)));
    hero_nn::norm::set_bn_running_stat_updates(prev);
    let (loss, vars) = built?;
    let mut opts = opts.clone();
    if let Some(noise) = noise {
        opts.noise_seeds = build_seeds(net, &vars, noise)?;
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
    let prev = hero_nn::norm::set_bn_running_stat_updates(false);
    let mut g = Graph::new();
    let built = net
        .forward(&mut g, images, true)
        .and_then(|(logits, _)| g.cross_entropy(logits, labels));
    hero_nn::norm::set_bn_running_stat_updates(prev);
    let loss = built?;
    let value = g.value(loss).data()[0];
    g.reset();
    Ok(value)
}

/// Validates a bit-width grid: non-empty, strictly increasing, supported.
fn validate_grid(bits_grid: &[u8]) -> Result<()> {
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
    let prev = hero_nn::norm::set_bn_running_stat_updates(false);
    let mut g = Graph::new();
    let built = net
        .forward(&mut g, images, true)
        .and_then(|(logits, vars)| Ok((g.cross_entropy(logits, labels)?, vars)));
    hero_nn::norm::set_bn_running_stat_updates(prev);
    let (loss, vars) = built?;
    let report = hero_analyze::verify_graph_with(&g, &[loss], &VerifyOptions::default());
    if report.has_errors() {
        g.reset();
        return Err(TensorError::InvalidArgument(format!(
            "static tape verification failed for `{}`:\n{report}",
            net.name()
        )));
    }
    let value = report.value.ok_or_else(|| {
        TensorError::InvalidArgument("analyzer produced no value analysis".into())
    })?;
    let tape = g.trace();
    let recorded = g.value_abs_max();
    let params = net.params();
    let infos = net.param_infos();
    let mut layers = Vec::new();
    for ((var, param), info) in vars.iter().zip(&params).zip(&infos) {
        if !info.kind.is_quantizable() {
            continue;
        }
        let max_abs = param.norm_linf();
        let grad_bound = value
            .grad_bounds
            .get(var.index())
            .copied()
            .unwrap_or(f32::INFINITY);
        let err = bits_grid
            .iter()
            .map(|&b| {
                let seed = NoiseSeed::for_quantized_weight(var.index(), max_abs, b);
                let rn = relational_noise_pass(&tape, &value.intervals, Some(&recorded), &[seed]);
                rn.tightened[loss.index()].abs_max()
            })
            .collect();
        layers.push(StaticSensitivity {
            name: info.name.clone(),
            numel: param.numel(),
            max_abs,
            grad_bound,
            err,
        });
    }
    g.reset();
    Ok(SensitivityMatrix {
        bits: bits_grid.to_vec(),
        layers,
    })
}

/// Certified whole-network loss-error bound per bit width: one analyzed
/// tape, then one noise propagation per entry of `bits` seeding *every*
/// quantizable layer at `Δ(b)/2` simultaneously. This bounds the loss
/// shift of uniformly quantizing the full network — the cheap dominance
/// gate `quant_sweep` holds every sweep point against.
///
/// # Errors
///
/// Same contract as [`static_sensitivity_matrix`].
pub fn certified_noise_bounds(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    bits: &[u8],
) -> Result<Vec<f32>> {
    for &b in bits {
        QuantScheme::symmetric(b)?;
    }
    let prev = hero_nn::norm::set_bn_running_stat_updates(false);
    let mut g = Graph::new();
    let built = net
        .forward(&mut g, images, true)
        .and_then(|(logits, vars)| Ok((g.cross_entropy(logits, labels)?, vars)));
    hero_nn::norm::set_bn_running_stat_updates(prev);
    let (loss, vars) = built?;
    let report = hero_analyze::verify_graph_with(&g, &[loss], &VerifyOptions::default());
    if report.has_errors() {
        g.reset();
        return Err(TensorError::InvalidArgument(format!(
            "static tape verification failed for `{}`:\n{report}",
            net.name()
        )));
    }
    let value = report.value.ok_or_else(|| {
        TensorError::InvalidArgument("analyzer produced no value analysis".into())
    })?;
    let tape = g.trace();
    let recorded = g.value_abs_max();
    let params = net.params();
    let infos = net.param_infos();
    let bounds = bits
        .iter()
        .map(|&b| {
            let seeds: Vec<NoiseSeed> = vars
                .iter()
                .zip(&params)
                .zip(&infos)
                .filter(|(_, info)| info.kind.is_quantizable())
                .map(|((var, param), _)| {
                    NoiseSeed::for_quantized_weight(var.index(), param.norm_linf(), b)
                })
                .collect();
            let rn = relational_noise_pass(&tape, &value.intervals, Some(&recorded), &seeds);
            rn.tightened[loss.index()].abs_max()
        })
        .collect();
    g.reset();
    Ok(bounds)
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
}

/// Cross-validates the static noise domain against measurement: for every
/// quantizable layer and every grid width, fake-quantizes that layer
/// alone (round-to-nearest, plus `trials` random perturbations with
/// `‖δ‖∞ ≤ Δ/2`) and measures the probe-loss shift. Sound analysis means
/// every measured shift sits inside the certified bound; a useful one
/// means the static sensitivity *ranking* matches the empirical ranking.
/// Each violated cell increments the
/// `noise_crosscheck_violations` counter.
///
/// Parameters are restored before returning.
///
/// # Errors
///
/// Same contract as [`static_sensitivity_matrix`].
pub fn noise_crosscheck(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    bits_grid: &[u8],
    trials: usize,
    seed: u64,
) -> Result<CrosscheckReport> {
    let matrix = static_sensitivity_matrix(net, images, labels, bits_grid)?;
    let base = probe_loss(net, images, labels)?;
    let full = net.params();
    let infos = net.param_infos();
    let quant_idx: Vec<usize> = infos
        .iter()
        .enumerate()
        .filter(|(_, i)| i.kind.is_quantizable())
        .map(|(i, _)| i)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC805_5C8E);
    let mut cells = Vec::with_capacity(quant_idx.len() * bits_grid.len());
    let mut violations = 0usize;
    for (l, &pi) in quant_idx.iter().enumerate() {
        for (k, &b) in bits_grid.iter().enumerate() {
            let certified = matrix.impact(l, b).min(matrix.layers[l].err[k]);
            let delta = matrix.layers[l].delta(b);
            let mut empirical = 0.0f32;
            // Trial 0: the actual round-to-nearest fake quantization.
            let q = quantize_tensor(&full[pi], &QuantScheme::symmetric(b)?)?;
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
            for _ in 0..trials {
                let half = delta / 2.0;
                let data: Vec<f32> = full[pi]
                    .data()
                    .iter()
                    .map(|&w| w + rng.gen_range(-half..=half))
                    .collect();
                probe_with(Tensor::from_vec(data, full[pi].shape().clone())?)?;
            }
            let violated = empirical > certified * (1.0 + DOMINANCE_REL_TOL) + DOMINANCE_ABS_TOL;
            if violated {
                violations += 1;
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

    // Ranking overlap at the grid midpoint: do the statically-sensitive
    // layers match the empirically-sensitive ones?
    let ref_k = bits_grid.len() / 2;
    let ref_bits = bits_grid[ref_k];
    let n = quant_idx.len();
    let overlap = if n < 2 {
        1.0
    } else {
        let top = n.div_ceil(2);
        let top_set = |score: &dyn Fn(usize) -> f32| -> Vec<usize> {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                score(b)
                    .partial_cmp(&score(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.truncate(top);
            order
        };
        let static_top = top_set(&|l| matrix.impact(l, ref_bits));
        let emp_top = top_set(&|l| {
            cells
                .iter()
                .find(|c| c.layer == matrix.layers[l].name && c.bits == ref_bits)
                .map_or(0.0, |c| c.empirical)
        });
        let hits = static_top.iter().filter(|l| emp_top.contains(l)).count();
        hits as f32 / top as f32
    };
    let static_scores: Vec<f32> = (0..n).map(|l| matrix.impact(l, ref_bits)).collect();
    let emp_scores: Vec<f32> = (0..n)
        .map(|l| {
            cells
                .iter()
                .find(|c| c.layer == matrix.layers[l].name && c.bits == ref_bits)
                .map_or(0.0, |c| c.empirical)
        })
        .collect();
    let rank_rho = hero_hessian::spearman_rank_checked(&static_scores, &emp_scores);

    Ok(CrosscheckReport {
        model: net.name().to_string(),
        cells,
        violations,
        overlap,
        rank_rho,
        ref_bits,
        matrix,
    })
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
        let cfg = NoiseConfig::uniform(4);
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
        let bad = NoiseConfig::per_layer(vec![4]); // mlp has 3 weights
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
        let report = noise_crosscheck(&mut net, &images, &labels, &[2, 4, 8], 2, 11).unwrap();
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
        let bounds = certified_noise_bounds(&mut net, &images, &labels, &bits).unwrap();
        let base = probe_loss(&mut net, &images, &labels).unwrap();
        let full = net.params();
        for (&b, &bound) in bits.iter().zip(&bounds) {
            let (qp, _) =
                hero_quant::quantize_params(&net, &QuantScheme::symmetric(b).unwrap()).unwrap();
            net.set_params(&qp).unwrap();
            let shifted = probe_loss(&mut net, &images, &labels).unwrap();
            let emp = (shifted - base).abs();
            assert!(
                emp <= bound * (1.0 + DOMINANCE_REL_TOL) + DOMINANCE_ABS_TOL,
                "{b}-bit: measured {emp} escapes certified {bound}"
            );
            net.set_params(&full).unwrap();
        }
        // Monotone: more bits, tighter certified bound.
        assert!(bounds[0] >= bounds[1] && bounds[1] >= bounds[2]);
    }

    #[test]
    fn grid_validation_rejects_junk() {
        let (mut net, images, labels) = setup();
        assert!(static_sensitivity_matrix(&mut net, &images, &labels, &[]).is_err());
        assert!(static_sensitivity_matrix(&mut net, &images, &labels, &[4, 4]).is_err());
        assert!(static_sensitivity_matrix(&mut net, &images, &labels, &[4, 32]).is_err());
    }
}
