//! Certified static sensitivity: per-layer, per-bit-width bounds on the
//! end-to-end loss perturbation caused by quantizing that one layer.
//!
//! The matrix is *plain data* — `hero-quant` stays independent of the
//! analyzer. `hero-core` fills it from `hero-analyze`'s quantization-noise
//! pass (one forward error propagation per `(layer, bits)` cell seeding
//! `‖δW‖∞ ≤ Δ(bits)/2` on that layer alone) and hands it to
//! [`SensitivityMatrix::allocate`], replacing the `curvature = 1`
//! placeholder of [`crate::network_sensitivities`] with a sound bound.
//!
//! Each cell is clamped by the first-order certificate
//! `|δL| ≤ ĝ · n · Δ/2` (with `ĝ` the analyzer's per-element gradient
//! bound), whichever is tighter — the noise pass is exact-identity-based
//! and usually wins at low bits, the gradient bound at high bits where
//! its linearity matches the shrinking perturbation.

use crate::mixed::{greedy_allocate, LayerSensitivity};
use crate::scheme::QuantScheme;
use hero_tensor::{Result, TensorError};

/// One layer's certified sensitivity profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticSensitivity {
    /// Parameter tensor name, aligned with the network's quantizable order.
    pub name: String,
    /// Number of weights in the layer.
    pub numel: usize,
    /// Maximum absolute weight (determines Δ at a given bit width).
    pub max_abs: f32,
    /// Certified per-element bound on `|∂L/∂w|` for this layer from the
    /// analyzer's gradient-scale pass; `f32::INFINITY` when unavailable.
    pub grad_bound: f32,
    /// Certified end-to-end loss error bound per grid bit width, aligned
    /// with [`SensitivityMatrix::bits`]. Entry `k` bounds `|L(W + δ) − L(W)|`
    /// over all `‖δ‖∞ ≤ Δ(bits[k])/2` perturbations of this layer alone.
    pub err: Vec<f32>,
}

impl StaticSensitivity {
    /// Bin width of a symmetric min-max quantizer at `bits`.
    pub fn delta(&self, bits: u8) -> f32 {
        self.max_abs / QuantScheme::half_levels(bits) as f32
    }

    /// First-order certificate `ĝ · n · Δ(bits) / 2` (ℓ1-from-ℓ∞), or
    /// `+∞` when no gradient bound is known.
    pub fn first_order(&self, bits: u8) -> f32 {
        self.grad_bound * self.numel as f32 * self.delta(bits) / 2.0
    }
}

/// Certified static sensitivity matrix `err[layer][bits]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensitivityMatrix {
    /// Strictly increasing bit-width grid the `err` columns were
    /// certified at.
    pub bits: Vec<u8>,
    /// One profile per quantizable layer, in network parameter order.
    pub layers: Vec<StaticSensitivity>,
}

impl SensitivityMatrix {
    /// Validates grid/profiles alignment. Call after hand-assembly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty or
    /// non-increasing grid, widths outside `1..=16`, or a layer whose
    /// `err` row does not match the grid length.
    pub fn validate(&self) -> Result<()> {
        if self.bits.is_empty() || !self.bits.windows(2).all(|w| w[0] < w[1]) {
            return Err(TensorError::InvalidArgument(
                "sensitivity grid must be non-empty and strictly increasing".into(),
            ));
        }
        for &b in &self.bits {
            QuantScheme::symmetric(b)?;
        }
        for l in &self.layers {
            if l.err.len() != self.bits.len() {
                return Err(TensorError::InvalidArgument(format!(
                    "layer {}: {} err entries for a {}-point grid",
                    l.name,
                    l.err.len(),
                    self.bits.len()
                )));
            }
        }
        Ok(())
    }

    /// Certified (or certificate-extrapolated) loss impact of quantizing
    /// `layer` at `bits`: the grid cell when `bits` is on the grid,
    /// otherwise an *outward-rounded* Δ-linear rescale of the sampled
    /// cells — always clamped by the layer's first-order certificate.
    ///
    /// Off-grid the error curve's shape between samples is unknown: it
    /// is superlinear in Δ where higher-order terms dominate, and
    /// *sublinear* where the loss-interval ceiling saturates (there a
    /// down-rescale from the coarser cell badly under-reports — both
    /// cells sit at the cap, yet the linear estimate halves). Between
    /// two sampled cells the rescale therefore takes the worse (larger)
    /// of the two neighbours' linear extrapolations, covering both
    /// regimes; beyond the grid ends only one neighbour exists. The
    /// result is widened by a relative margin in `f64` and is never
    /// smaller than the single-neighbour estimate it replaces.
    pub fn impact(&self, layer: usize, bits: u8) -> f32 {
        let l = &self.layers[layer];
        let certified = match self.bits.binary_search(&bits) {
            Ok(k) => l.err[k],
            Err(ins) => {
                let rescale = |k: usize| -> f64 {
                    let from = f64::from(l.delta(self.bits[k])).max(f64::from(f32::MIN_POSITIVE));
                    f64::from(l.err[k]) * f64::from(l.delta(bits)) / from
                };
                let below = ins.checked_sub(1).map(rescale);
                let above = (ins < self.bits.len()).then(|| rescale(ins));
                let worst = match (below, above) {
                    (Some(a), Some(b)) => a.max(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => f64::INFINITY,
                };
                (worst * (1.0 + 1e-4)) as f32
            }
        };
        certified.min(l.first_order(bits))
    }

    /// Greedy mixed-precision allocation over the certified impacts:
    /// distributes `avg_bits × Σ numel` weight-bits within
    /// `[min_bits, max_bits]`. Same budget semantics (and the same
    /// monotone-in-budget guarantee) as [`crate::allocate_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an invalid matrix
    /// (see [`SensitivityMatrix::validate`]), invalid bounds, or an
    /// infeasible budget.
    pub fn allocate(&self, avg_bits: f32, min_bits: u8, max_bits: u8) -> Result<Vec<u8>> {
        self.validate()?;
        let numels: Vec<usize> = self.layers.iter().map(|l| l.numel).collect();
        let profiles: Vec<Vec<f32>> = (0..self.layers.len())
            .map(|i| {
                (min_bits..=max_bits.max(min_bits))
                    .map(|b| self.impact(i, b))
                    .collect()
            })
            .collect();
        greedy_allocate(&numels, &profiles, avg_bits, min_bits, max_bits)
    }

    /// Projects the matrix onto the quadratic-model
    /// [`LayerSensitivity`] interface by inverting
    /// `err = curvature · n · Δ²/24` at the grid's middle bit width —
    /// for callers (reports, plots) that speak the proxy vocabulary.
    pub fn to_layer_sensitivities(&self) -> Vec<LayerSensitivity> {
        let k = self.bits.len() / 2;
        self.layers
            .iter()
            .map(|l| {
                let d = self.bits.get(k).map_or(f32::MIN_POSITIVE, |&b| l.delta(b));
                let err = l.err.get(k).copied().unwrap_or(0.0);
                let curvature = if d > 0.0 && l.numel > 0 {
                    24.0 * err / (l.numel as f32 * d * d)
                } else {
                    0.0
                };
                LayerSensitivity {
                    name: l.name.clone(),
                    numel: l.numel,
                    max_abs: l.max_abs,
                    curvature,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> SensitivityMatrix {
        SensitivityMatrix {
            bits: vec![2, 4, 8],
            layers: vec![
                StaticSensitivity {
                    name: "fragile".into(),
                    numel: 100,
                    max_abs: 1.0,
                    grad_bound: f32::INFINITY,
                    err: vec![8.0, 1.6, 0.09],
                },
                StaticSensitivity {
                    name: "robust".into(),
                    numel: 100,
                    max_abs: 1.0,
                    grad_bound: f32::INFINITY,
                    err: vec![0.08, 0.016, 0.0009],
                },
            ],
        }
    }

    #[test]
    fn validate_catches_malformed_matrices() {
        assert!(matrix().validate().is_ok());
        let mut m = matrix();
        m.bits = vec![4, 4];
        assert!(m.validate().is_err());
        let mut m = matrix();
        m.bits = vec![2, 4, 32];
        assert!(m.validate().is_err());
        let mut m = matrix();
        m.layers[0].err.pop();
        assert!(m.validate().is_err());
        assert!(SensitivityMatrix::default().validate().is_err());
    }

    #[test]
    fn impact_reads_grid_and_extrapolates_off_grid() {
        let m = matrix();
        assert_eq!(m.impact(0, 4), 1.6);
        // Off-grid 6 bits: the worse of the two neighbours' Δ-linear
        // rescalings, rounded outward — never below either estimate.
        let down = 1.6 * (m.layers[0].delta(6) / m.layers[0].delta(4));
        let up = 0.09 * (m.layers[0].delta(6) / m.layers[0].delta(8));
        assert!(m.impact(0, 6) >= down.max(up));
        assert!(m.impact(0, 6) <= down.max(up) * 1.001);
        // Between grid points, rescaled up from the cell below.
        assert!(m.impact(0, 3) > m.impact(0, 4));
        // Below the grid: 1- and 2-bit symmetric grids share Δ
        // (half_levels saturates at 1), so the bound is merely not worse.
        assert!(m.impact(0, 1) >= m.impact(0, 2));
    }

    #[test]
    fn off_grid_rescale_rounds_outward_in_the_saturated_regime() {
        // Both sampled cells sit at the CE-loss ceiling: the true error
        // at 3 bits is plausibly still the ceiling, so the old
        // below-neighbour linear rescale (≈ cap·Δ(3)/Δ(2) ≈ cap/3)
        // under-reported it. Outward rounding must keep the estimate at
        // or above the ceiling.
        let cap = 27.66f32;
        let m = SensitivityMatrix {
            bits: vec![2, 4],
            layers: vec![StaticSensitivity {
                name: "saturated".into(),
                numel: 10,
                max_abs: 1.0,
                grad_bound: f32::INFINITY,
                err: vec![cap, cap],
            }],
        };
        let old_estimate = cap * (m.layers[0].delta(3) / m.layers[0].delta(2));
        assert!(old_estimate < cap * 0.5, "premise: old rescale halves");
        assert!(m.impact(0, 3) >= cap, "outward rescale must cover the cap");
        // And it is never weaker than the estimate it replaced.
        assert!(m.impact(0, 3) >= old_estimate);
    }

    #[test]
    fn first_order_certificate_clamps_loose_cells() {
        let mut m = matrix();
        m.layers[0].grad_bound = 1e-6; // certifiably flat layer
        assert!(m.impact(0, 4) <= m.layers[0].first_order(4));
        assert!(m.impact(0, 4) < 1.6);
    }

    #[test]
    fn allocate_favors_the_certified_fragile_layer() {
        let m = matrix();
        let bits = m.allocate(5.0, 2, 8).unwrap();
        assert!(
            bits[0] > bits[1],
            "fragile {} vs robust {}",
            bits[0],
            bits[1]
        );
        let spent: usize = m
            .layers
            .iter()
            .zip(&bits)
            .map(|(l, &b)| l.numel * usize::from(b))
            .sum();
        assert!(spent <= (5.0 * 200.0) as usize);
    }

    #[test]
    fn projection_orders_layers_by_certified_error() {
        let sens = matrix().to_layer_sensitivities();
        assert_eq!(sens.len(), 2);
        assert!(sens[0].curvature > sens[1].curvature);
        assert!(sens.iter().all(|s| s.curvature >= 0.0));
    }
}
