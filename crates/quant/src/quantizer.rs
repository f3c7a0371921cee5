//! Fake-quantization (quantize→dequantize) of weight tensors.

use crate::scheme::QuantScheme;
use hero_tensor::{Result, Tensor};

/// Result of quantizing one tensor: the dequantized values plus the grid
/// parameters, exposing the bin width Theorem 2 reasons about.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    /// Dequantized (fake-quantized) values, same shape as the input.
    pub values: Tensor,
    /// Bin width Δ of the tensor's grid — the `2ρ` of Theorem 2.
    pub bin_width: f32,
}

/// Fake-quantizes a weight tensor under `scheme`: one symmetric range for
/// the whole tensor. The result takes `t`'s shape.
pub fn quantize_tensor(t: &Tensor, scheme: &QuantScheme) -> QuantizedTensor {
    let values = t.data();
    // The min-max range, widened to include zero.
    let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let (lo, hi) = (lo.min(0.0).min(hi), hi.max(0.0).max(lo));
    let max_abs = lo.abs().max(hi.abs());
    let half_levels = QuantScheme::half_levels(scheme.bits) as f32; // 2^(n-1) - 1
    if max_abs <= f32::MIN_POSITIVE {
        return QuantizedTensor {
            values: Tensor::zeros(t.shape().clone()),
            bin_width: 0.0,
        };
    }
    let scale = max_abs / half_levels;
    QuantizedTensor {
        values: t.map(|v| (v / scale).round().clamp(-half_levels, half_levels) * scale),
        bin_width: scale,
    }
}

/// Quantization error statistics between an original and its quantized
/// version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantError {
    /// ‖W_q − W‖∞ — the quantity Theorem 2 bounds by Δ/2.
    pub linf: f32,
    /// Mean squared error.
    pub mse: f32,
    /// ‖W_q − W‖₂.
    pub l2: f32,
}

/// Computes error statistics for a quantization.
///
/// # Errors
///
/// Returns a shape error if the tensors differ in shape.
pub fn quant_error(original: &Tensor, quantized: &Tensor) -> Result<QuantError> {
    let diff = quantized.sub(original)?;
    Ok(QuantError {
        linf: diff.norm_linf(),
        mse: diff.norm_l2_sq() / diff.numel().max(1) as f32,
        l2: diff.norm_l2(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [v.len()]).unwrap()
    }

    #[test]
    fn symmetric_error_bounded_by_half_bin() {
        // Theorem 2 premise: min-max symmetric quantization perturbs each
        // weight by at most Δ/2.
        let w = t(&[-1.0, -0.33, 0.0, 0.4, 0.77, 1.0]);
        for bits in 2..=8 {
            let q = quantize_tensor(&w, &QuantScheme::symmetric(bits).unwrap());
            let err = quant_error(&w, &q.values).unwrap();
            assert!(
                err.linf <= q.bin_width / 2.0 + 1e-6,
                "{bits}-bit: linf {} > Δ/2 {}",
                err.linf,
                q.bin_width / 2.0
            );
        }
    }

    #[test]
    fn more_bits_reduce_error() {
        let w = Tensor::from_fn([64], |i| ((i[0] * 37 % 64) as f32 / 32.0) - 1.0);
        let mut prev = f32::INFINITY;
        for bits in [2u8, 3, 4, 6, 8] {
            let q = quantize_tensor(&w, &QuantScheme::symmetric(bits).unwrap());
            let err = quant_error(&w, &q.values).unwrap();
            assert!(
                err.mse <= prev + 1e-9,
                "{bits}-bit mse {} > previous {prev}",
                err.mse
            );
            prev = err.mse;
        }
    }

    #[test]
    fn high_precision_is_nearly_lossless() {
        let w = Tensor::from_fn([32], |i| (i[0] as f32 / 16.0) - 1.0);
        let q = quantize_tensor(&w, &QuantScheme::symmetric(16).unwrap());
        let err = quant_error(&w, &q.values).unwrap();
        assert!(err.linf < 1e-4);
    }

    #[test]
    fn symmetric_preserves_exact_zero() {
        let w = t(&[-1.0, 0.0, 1.0]);
        let q = quantize_tensor(&w, &QuantScheme::symmetric(3).unwrap());
        assert_eq!(q.values.data()[1], 0.0);
    }

    #[test]
    fn quantization_is_idempotent() {
        let w = Tensor::from_fn([40], |i| (i[0] as f32 * 0.37).sin());
        let scheme = QuantScheme::symmetric(4).unwrap();
        let q1 = quantize_tensor(&w, &scheme);
        let q2 = quantize_tensor(&q1.values, &scheme);
        for (a, b) in q1.values.data().iter().zip(q2.values.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn values_lie_on_the_grid() {
        let w = Tensor::from_fn([30], |i| (i[0] as f32 * 0.21).cos() * 2.0);
        let q = quantize_tensor(&w, &QuantScheme::symmetric(3).unwrap());
        let delta = q.bin_width;
        for &v in q.values.data() {
            let steps = v / delta;
            assert!(
                (steps - steps.round()).abs() < 1e-4,
                "{v} not on grid Δ={delta}"
            );
        }
    }

    #[test]
    fn constant_tensor_quantizes_cleanly() {
        let w = Tensor::zeros([8]);
        let q = quantize_tensor(&w, &QuantScheme::symmetric(4).unwrap());
        assert_eq!(q.values.data(), w.data());
        assert_eq!(q.bin_width, 0.0);
    }

    #[test]
    fn validates_arguments() {
        let w = t(&[1.0]);
        // Out-of-range widths are rejected at construction.
        assert!(QuantScheme::symmetric(0).is_err());
        assert!(QuantScheme::symmetric(17).is_err());
        assert!(QuantScheme::symmetric(32).is_err());
        assert!(quant_error(&w, &t(&[1.0, 2.0])).is_err());
    }
}
