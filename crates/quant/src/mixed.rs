//! Mixed-precision bit allocation guided by the paper's second-order
//! analysis.
//!
//! Theorem 3 says the tolerable ℓ∞ perturbation shrinks with the Hessian
//! eigenvalue `v` and grows with the bin width Δ; under the second-order
//! model the loss impact of quantizing layer `i` at `b` bits is
//! approximately `v_i · n_i · Δ_i(b)² / 24` (uniform rounding error has
//! variance Δ²/12, halved by symmetry of the quadratic form). Allocating a
//! global bit budget to minimize the summed impact is then a classic
//! greedy marginal-gain problem — the direction the paper points at with
//! its mixed-precision citations (§2.2, BSQ).

use crate::model::{quantize_each, ModelQuantReport};
use crate::scheme::QuantScheme;
use hero_nn::Network;
use hero_tensor::{Result, Tensor, TensorError};

/// Per-layer inputs to the bit allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSensitivity {
    /// Layer (parameter tensor) name, for reporting.
    pub name: String,
    /// Number of weights in the layer.
    pub numel: usize,
    /// Maximum absolute weight (determines Δ at a given bit width).
    pub max_abs: f32,
    /// Curvature proxy for the layer (e.g. λ_max of the layer-restricted
    /// Hessian, or a gradient-magnitude heuristic). Must be ≥ 0.
    pub curvature: f32,
}

impl LayerSensitivity {
    /// Bin width of a symmetric uniform quantizer at `bits` (shift-safe
    /// for any `u8` input via [`QuantScheme::half_levels`]).
    pub fn delta(&self, bits: u8) -> f32 {
        self.max_abs / QuantScheme::half_levels(bits) as f32
    }

    /// Estimated second-order loss impact of quantizing at `bits`.
    pub fn impact(&self, bits: u8) -> f32 {
        let d = self.delta(bits);
        self.curvature * self.numel as f32 * d * d / 24.0
    }
}

/// Greedy mixed-precision allocation: distributes a budget of
/// `avg_bits × Σ numel` weight-bits across layers within
/// `[min_bits, max_bits]`, minimizing the estimated total loss impact.
///
/// Returns one bit width per layer, aligned with `layers`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the bounds are inverted,
/// zero, or the budget is infeasible (below `min_bits` everywhere).
pub fn allocate_bits(
    layers: &[LayerSensitivity],
    avg_bits: f32,
    min_bits: u8,
    max_bits: u8,
) -> Result<Vec<u8>> {
    let numels: Vec<usize> = layers.iter().map(|l| l.numel).collect();
    let profiles: Vec<Vec<f32>> = layers
        .iter()
        .map(|l| {
            (min_bits..=max_bits.max(min_bits))
                .map(|b| l.impact(b))
                .collect()
        })
        .collect();
    greedy_allocate(&numels, &profiles, avg_bits, min_bits, max_bits)
}

/// Replaces `profile` with its lower convex minorant over the index, so
/// the marginal gain sequence `p[j] − p[j+1]` is non-increasing. Greedy
/// per-cost allocation over convex profiles is *monotone in the budget*
/// (a larger budget never lowers any layer's bits) — the property the
/// allocator tests pin down. Quadratic Δ²-model profiles are already
/// convex; certified noise-bound profiles need not be, so the shared
/// greedy convexifies unconditionally.
fn convex_minorant(profile: &mut [f32]) {
    let n = profile.len();
    if n < 3 {
        return;
    }
    // Lower hull of (j, p[j]) by Graham scan, then linear interpolation.
    let mut hull: Vec<usize> = Vec::with_capacity(n);
    for j in 0..n {
        while hull.len() >= 2 {
            let (a, b) = (hull[hull.len() - 2], hull[hull.len() - 1]);
            let cross = (b - a) as f64 * (f64::from(profile[j]) - f64::from(profile[a]))
                - (j - a) as f64 * (f64::from(profile[b]) - f64::from(profile[a]));
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(j);
    }
    for w in hull.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (pa, pb) = (f64::from(profile[a]), f64::from(profile[b]));
        for (j, p) in profile.iter_mut().enumerate().take(b).skip(a + 1) {
            *p = (pa + (pb - pa) * (j - a) as f64 / (b - a) as f64) as f32;
        }
    }
}

/// Shared greedy core behind [`allocate_bits`] and the certified-matrix
/// allocator: `profiles[i][j]` is layer `i`'s estimated loss impact at
/// `min_bits + j` bits. Profiles are convexified first (see
/// [`convex_minorant`]), then budget is spent on the best impact
/// reduction per weight-bit until exhausted or everything saturates.
pub(crate) fn greedy_allocate(
    numels: &[usize],
    profiles: &[Vec<f32>],
    avg_bits: f32,
    min_bits: u8,
    max_bits: u8,
) -> Result<Vec<u8>> {
    if min_bits == 0 || min_bits > max_bits || max_bits > QuantScheme::MAX_BITS {
        return Err(TensorError::InvalidArgument(format!(
            "invalid bit bounds [{min_bits}, {max_bits}] (supported range 1..={})",
            QuantScheme::MAX_BITS
        )));
    }
    let width = usize::from(max_bits - min_bits) + 1;
    if profiles.len() != numels.len() || profiles.iter().any(|p| p.len() != width) {
        return Err(TensorError::InvalidArgument(
            "impact profiles misaligned with layers or bit range".into(),
        ));
    }
    let mut profiles: Vec<Vec<f32>> = profiles.to_vec();
    for p in &mut profiles {
        convex_minorant(p);
    }
    let total_weights: usize = numels.iter().sum();
    let budget = (avg_bits * total_weights as f32).floor() as i64;
    let floor_cost: i64 = numels.iter().map(|&n| n as i64 * min_bits as i64).sum();
    if budget < floor_cost {
        return Err(TensorError::InvalidArgument(format!(
            "budget {avg_bits} avg bits is below the {min_bits}-bit floor"
        )));
    }
    let mut bits = vec![min_bits; numels.len()];
    let mut remaining = budget - floor_cost;
    // Greedy: repeatedly upgrade the layer with the best impact reduction
    // per weight-bit spent, stopping at the first unaffordable pick. The
    // upgrade *sequence* depends only on the profiles, never on the
    // budget, so a larger budget executes a strict superset of the same
    // upgrades — per-layer allocations are monotone in the budget (the
    // allocator_props invariant). Skipping an unaffordable pick to spend
    // leftovers on a cheaper layer would squeeze out a few more
    // weight-bits but breaks that monotonicity (the classic greedy
    // knapsack anomaly), so we deliberately leave at most one layer's
    // cost unspent.
    loop {
        let mut best: Option<(usize, f32)> = None;
        for (i, &numel) in numels.iter().enumerate() {
            if bits[i] >= max_bits {
                continue;
            }
            let j = usize::from(bits[i] - min_bits);
            let gain = profiles[i][j] - profiles[i][j + 1];
            let per_cost = gain / numel.max(1) as f32;
            if best.is_none_or(|(_, g)| per_cost > g) {
                best = Some((i, per_cost));
            }
        }
        let Some((i, _)) = best else { break };
        if numels[i] as i64 > remaining {
            break;
        }
        bits[i] += 1;
        remaining -= numels[i] as i64;
    }
    Ok(bits)
}

/// Builds layer sensitivities from a network snapshot using the
/// gradient-free proxy `curvature = 1` per layer (pure range/size
/// allocation). Callers with curvature estimates (e.g. from
/// `hero-hessian`) should overwrite the `curvature` fields.
pub fn network_sensitivities(net: &Network) -> Vec<LayerSensitivity> {
    let _obs = hero_obs::span("quant_sens");
    let params = net.params();
    let infos = net.param_infos();
    params
        .iter()
        .zip(&infos)
        .filter(|(_, info)| info.kind.is_quantizable())
        .map(|(p, info)| LayerSensitivity {
            name: info.name.clone(),
            numel: p.numel(),
            max_abs: p.norm_linf(),
            curvature: 1.0,
        })
        .collect()
}

/// Quantizes the network's weight tensors at per-layer bit widths (aligned
/// with the quantizable-tensor order of [`network_sensitivities`]),
/// returning the new parameter list and a report.
///
/// # Errors
///
/// Returns an error if `bits` does not match the number of quantizable
/// tensors or holds a width outside `1..=16`.
pub fn quantize_params_mixed(
    net: &Network,
    bits: &[u8],
) -> Result<(Vec<Tensor>, ModelQuantReport)> {
    let infos = net.param_infos();
    let quantizable = infos.iter().filter(|i| i.kind.is_quantizable()).count();
    if bits.len() != quantizable {
        return Err(TensorError::InvalidArgument(format!(
            "{} bit widths for {quantizable} quantizable tensors",
            bits.len()
        )));
    }
    quantize_each(net, |i| QuantScheme::symmetric(bits[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_nn::models::{mini_resnet, ModelConfig};
    use hero_tensor::rng::StdRng;

    fn layer(name: &str, numel: usize, max_abs: f32, curvature: f32) -> LayerSensitivity {
        LayerSensitivity {
            name: name.into(),
            numel,
            max_abs,
            curvature,
        }
    }

    #[test]
    fn uniform_layers_get_uniform_bits() {
        let layers = vec![
            layer("a", 100, 1.0, 1.0),
            layer("b", 100, 1.0, 1.0),
            layer("c", 100, 1.0, 1.0),
        ];
        let bits = allocate_bits(&layers, 6.0, 2, 8).unwrap();
        assert_eq!(bits, vec![6, 6, 6]);
    }

    #[test]
    fn sensitive_layers_get_more_bits() {
        let layers = vec![
            layer("robust", 100, 1.0, 0.01),
            layer("fragile", 100, 1.0, 100.0),
        ];
        let bits = allocate_bits(&layers, 5.0, 2, 8).unwrap();
        assert!(
            bits[1] > bits[0],
            "fragile {} should exceed robust {}",
            bits[1],
            bits[0]
        );
        // Budget respected.
        let spent: usize = layers
            .iter()
            .zip(&bits)
            .map(|(l, &b)| l.numel * b as usize)
            .sum();
        assert!(spent <= (5.0 * 200.0) as usize);
    }

    #[test]
    fn wide_range_layers_get_more_bits() {
        // Same curvature, but one layer has a 10x larger range => bigger Δ.
        let layers = vec![layer("narrow", 100, 0.1, 1.0), layer("wide", 100, 1.0, 1.0)];
        let bits = allocate_bits(&layers, 5.0, 2, 8).unwrap();
        assert!(bits[1] > bits[0]);
    }

    #[test]
    fn respects_min_and_max_bounds() {
        let layers = vec![layer("x", 10, 1.0, 1e9), layer("y", 10, 1.0, 1e-9)];
        let bits = allocate_bits(&layers, 16.0, 3, 6).unwrap();
        assert!(bits.iter().all(|&b| (3..=6).contains(&b)));
        // Huge budget saturates everything at max.
        assert_eq!(bits, vec![6, 6]);
    }

    #[test]
    fn validates_arguments() {
        let layers = vec![layer("x", 10, 1.0, 1.0)];
        assert!(allocate_bits(&layers, 4.0, 0, 8).is_err());
        assert!(allocate_bits(&layers, 4.0, 6, 4).is_err());
        assert!(allocate_bits(&layers, 1.0, 4, 8).is_err()); // below floor
                                                             // Widths past MAX_BITS would overflow u32 level arithmetic; the
                                                             // allocator rejects them instead of handing out a poisoned plan.
        assert!(allocate_bits(&layers, 20.0, 4, 32).is_err());
        assert!(allocate_bits(&layers, 20.0, 4, 255).is_err());
    }

    #[test]
    fn delta_is_shift_safe_for_wide_bits() {
        // Regression: `1u32 << bits` used to overflow (debug panic /
        // release wrap) for bits ≥ 32. Hand-built sensitivities can still
        // carry such widths; delta must stay finite and monotone.
        let l = layer("x", 10, 1.0, 1.0);
        let mut prev = f32::INFINITY;
        for bits in [1u8, 4, 16, 31, 32, 33, 64, 255] {
            let d = l.delta(bits);
            assert!(d.is_finite() && d > 0.0, "delta({bits}) = {d}");
            assert!(d <= prev, "delta not monotone at {bits}");
            prev = d;
        }
        assert!(l.impact(255).is_finite());
    }

    #[test]
    fn network_sensitivities_cover_weights_only() {
        let net = mini_resnet(ModelConfig::default(), 1, &mut StdRng::seed_from_u64(0));
        let sens = network_sensitivities(&net);
        let weights = net
            .param_infos()
            .iter()
            .filter(|i| i.kind.is_quantizable())
            .count();
        assert_eq!(sens.len(), weights);
        assert!(sens.iter().all(|s| s.numel > 0 && s.max_abs > 0.0));
        assert!(sens.iter().all(|s| s.name.ends_with("weight")));
    }

    #[test]
    fn mixed_quantization_applies_per_layer_bits() {
        let net = mini_resnet(ModelConfig::default(), 1, &mut StdRng::seed_from_u64(1));
        let sens = network_sensitivities(&net);
        let bits = allocate_bits(&sens, 5.0, 2, 8).unwrap();
        let (qp, report) = quantize_params_mixed(&net, &bits).unwrap();
        assert_eq!(qp.len(), net.params().len());
        assert_eq!(report.quantized_tensors, sens.len());
        assert!(report.worst_linf <= report.max_bin_width / 2.0 + 1e-6);
        // Wrong arity is rejected.
        assert!(quantize_params_mixed(&net, &bits[..1]).is_err());
    }

    #[test]
    fn mixed_allocation_beats_uniform_at_equal_budget() {
        // Construct a synthetic two-layer case where the error model is
        // exact: impact ~ curvature * n * Δ²/24. Greedy should beat uniform.
        let layers = vec![layer("a", 1000, 1.0, 10.0), layer("b", 1000, 1.0, 0.1)];
        let mixed = allocate_bits(&layers, 4.0, 2, 8).unwrap();
        let uniform = vec![4u8, 4];
        let impact =
            |bits: &[u8]| -> f32 { layers.iter().zip(bits).map(|(l, &b)| l.impact(b)).sum() };
        assert!(impact(&mixed) < impact(&uniform));
    }
}
