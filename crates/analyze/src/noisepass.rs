//! Shared pieces of the quantization-noise domain: the [`NoiseSeed`]
//! perturbation a quantized weight induces, the interval transfers the
//! relational pass ([`crate::relational_noise_pass`]) applies where
//! symbols do not survive (element-wise rounding, contractions, means,
//! monotone clamps), and the noise-domain lints.
//!
//! Every transfer runs in `f64` and widens outward before narrowing back
//! to `f32`; since *two* concrete runs round independently, every
//! rounding/contraction slack is doubled relative to the value pass and
//! scales with the *value* magnitude at the node (the rounding error of
//! `a+e` is proportional to `|a+e|`, not `|e|`).

use crate::diag::{DiagCode, Diagnostic};
use crate::interval::{Interval, ABS_MARGIN, CONTRACT_MARGIN, REL_MARGIN};
use hero_autodiff::{NodeTrace, TraceOp};

/// `-ln(1e-12)` rounded up: the per-sample cap the clamped CE loss obeys.
pub(crate) const CE_CAP: f64 = 27.65;

/// A symmetric perturbation `|δ| ≤ magnitude` on an input leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSeed {
    /// Tape index of the perturbed input node.
    pub node: usize,
    /// Element-wise ℓ∞ bound on the perturbation.
    pub magnitude: f32,
}

impl NoiseSeed {
    /// Seed for a weight tensor quantized symmetrically at `bits` with
    /// clip range `max_abs`: half a bin width, widened by the quantizer's
    /// own `f32` rounding headroom.
    pub fn for_quantized_weight(node: usize, max_abs: f32, bits: u8) -> NoiseSeed {
        let half_levels = ((1u64 << u32::from(bits.min(32))) / 2)
            .saturating_sub(1)
            .max(1) as f32;
        let delta = max_abs / half_levels;
        NoiseSeed {
            node,
            magnitude: 0.5 * delta * (1.0 + 1e-4) + 1e-6 * max_abs.max(1e-12),
        }
    }
}

/// Narrows `f64` bounds to an [`Interval`]; NaN bounds give up.
pub(crate) fn span(lo: f64, hi: f64) -> Interval {
    if lo.is_nan() || hi.is_nan() {
        return Interval::TOP;
    }
    Interval {
        lo: lo.min(hi) as f32,
        hi: lo.max(hi) as f32,
        maybe_nan: false,
    }
}

/// Element-wise op output: one rounding per run at magnitude `out_abs`.
pub(crate) fn elem(e: Interval, out_abs: f64) -> Interval {
    if e.maybe_nan || !out_abs.is_finite() {
        return Interval::TOP;
    }
    let slack = 2.0 * (REL_MARGIN * out_abs + ABS_MARGIN);
    span(f64::from(e.lo) - slack, f64::from(e.hi) + slack)
}

/// `K`-term contraction of a per-term error `e`, with both runs' summation
/// slack at term magnitude `term_abs`.
pub(crate) fn contract_err(e: Interval, k: usize, term_abs: f64) -> Interval {
    if e.maybe_nan || !term_abs.is_finite() {
        return Interval::TOP;
    }
    let kf = (k as f64).max(1.0);
    let slack = 2.0 * (kf * kf * CONTRACT_MARGIN * term_abs + ABS_MARGIN);
    span(f64::from(e.lo) * kf - slack, f64::from(e.hi) * kf + slack)
}

/// Mean-style reduction over `k` terms: the mean of per-element errors
/// stays inside `e`; only the accumulation slack (both runs) is added.
pub(crate) fn mean_err(e: Interval, k: usize, term_abs: f64) -> Interval {
    if e.maybe_nan || !term_abs.is_finite() {
        return Interval::TOP;
    }
    let kf = (k as f64).max(1.0);
    let slack = 2.0 * (kf * CONTRACT_MARGIN * term_abs + ABS_MARGIN);
    span(f64::from(e.lo) - slack, f64::from(e.hi) + slack)
}

/// Smallest interval containing `e` and `0` — the image of an error under
/// a monotone 1-Lipschitz clamp (ReLU family, max-pool).
pub(crate) fn hull_zero(e: Interval) -> Interval {
    Interval {
        lo: e.lo.min(0.0),
        hi: e.hi.max(0.0),
        maybe_nan: e.maybe_nan,
    }
}

/// Emits the noise-domain lints: [`DiagCode::QuantNoiseDominant`] at the
/// first node where the propagated error bound exceeds the node's own
/// value-interval width (the quantization noise drowns the signal), and
/// [`DiagCode::QuantErrorBudgetExceeded`] at each root whose certified
/// error bound exceeds `budget`.
pub(crate) fn noise_diags(
    tape: &[NodeTrace],
    values: &[Interval],
    noise: &[Interval],
    roots: &[usize],
    budget: Option<f32>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut dominant = vec![false; tape.len()];
    for (i, node) in tape.iter().enumerate() {
        if node.op == TraceOp::Input {
            continue;
        }
        let (val, err) = (values[i], noise[i]);
        if !val.is_finite() {
            continue;
        }
        let e_abs = err.abs_max();
        if e_abs > val.width().max(f32::MIN_POSITIVE) {
            dominant[i] = true;
            // Report at the origin only; downstream nodes inherit the
            // problem through propagation, not on their own account.
            let inherited = node.parents.iter().any(|&p| p < i && dominant[p]);
            if !inherited {
                out.push(Diagnostic::new(
                    tape,
                    i,
                    DiagCode::QuantNoiseDominant,
                    format!(
                        "propagated quantization-error bound {e_abs:e} exceeds the node's \
                         value-interval width {:e}; the noise drowns the signal here",
                        val.width()
                    ),
                ));
            }
        }
    }
    if let Some(b) = budget {
        for &r in roots {
            let Some(err) = noise.get(r) else { continue };
            let e_abs = err.abs_max();
            if e_abs > b {
                out.push(Diagnostic::new(
                    tape,
                    r,
                    DiagCode::QuantErrorBudgetExceeded,
                    format!(
                        "certified output-error bound {e_abs:e} exceeds the declared \
                         error budget {b:e}"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{interval_pass, RangeSeed};
    use crate::zonotope::relational_noise_pass;
    use hero_autodiff::Graph;
    use hero_tensor::Tensor;

    /// Certified error cell per node of `g`'s tape under `seeds`.
    fn noise(g: &Graph, seeds: &[NoiseSeed]) -> Vec<Interval> {
        let tape = g.trace();
        let ranges: Vec<RangeSeed> = g
            .input_ranges()
            .into_iter()
            .map(|(node, lo, hi)| RangeSeed { node, lo, hi })
            .collect();
        let values = interval_pass(&tape, &ranges);
        relational_noise_pass(&tape, &values, Some(&g.value_abs_max()), seeds).tightened
    }

    #[test]
    fn unseeded_leaves_carry_zero_noise() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let y = g.square(x);
        g.sum(y);
        for (i, e) in noise(&g, &[]).iter().enumerate() {
            assert_eq!(*e, Interval::point(0.0), "node {i} picked up phantom noise");
        }
    }

    #[test]
    fn seeded_noise_grows_through_a_contraction() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4, 8], |_| 0.5));
        let w = g.input(Tensor::from_fn([8, 3], |_| 0.1));
        let h = g.matmul(x, w).unwrap();
        let loss = g.sum(h);
        let seed = NoiseSeed {
            node: w.index(),
            magnitude: 0.01,
        };
        let noise = noise(&g, &[seed]);
        let at_w = noise[w.index()].abs_max();
        let at_h = noise[h.index()].abs_max();
        let at_loss = noise[loss.index()].abs_max();
        assert!((at_w - 0.01).abs() < 1e-6);
        // 8-term contraction at |x| ≤ 0.5: roughly 8·0.5·0.01 = 0.04.
        assert!(at_h > 0.03 && at_h < 0.1, "at_h = {at_h}");
        assert!(at_loss > at_h, "sum should accumulate: {at_loss}");
        assert!(noise[loss.index()].is_finite());
    }

    #[test]
    fn larger_bit_width_certifies_smaller_error() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4, 8], |_| 0.5));
        let w = g.input(Tensor::from_fn([8, 3], |_| 0.1));
        let h = g.matmul(x, w).unwrap();
        let loss = g.sum(h);
        let bound = |bits: u8| {
            let seed = NoiseSeed::for_quantized_weight(w.index(), 0.1, bits);
            noise(&g, &[seed])[loss.index()].abs_max()
        };
        assert!(bound(2) > bound(4));
        assert!(bound(4) > bound(8));
    }

    #[test]
    fn relu_and_pool_do_not_amplify() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([1, 1, 4, 4], |_| 0.3));
        let r = g.relu(x);
        let p = g.max_pool2d(r, 2).unwrap();
        let seed = NoiseSeed {
            node: x.index(),
            magnitude: 0.05,
        };
        let noise = noise(&g, &[seed]);
        assert!(noise[r.index()].abs_max() <= 0.05 + 1e-6);
        assert!(noise[p.index()].abs_max() <= 0.05 + 1e-6);
    }

    #[test]
    fn quantized_weight_seed_magnitude_matches_bin_width() {
        let s = NoiseSeed::for_quantized_weight(0, 1.0, 4);
        // Δ = 1/7 at 4 bits; seed ≈ Δ/2.
        assert!((s.magnitude - 0.5 / 7.0).abs() < 1e-3);
        // Degenerate bit widths stay finite (no shift overflow).
        let wide = NoiseSeed::for_quantized_weight(0, 1.0, 40);
        assert!(wide.magnitude.is_finite());
        let one = NoiseSeed::for_quantized_weight(0, 1.0, 1);
        assert!(one.magnitude.is_finite() && one.magnitude > 0.0);
    }
}
