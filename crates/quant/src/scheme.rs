//! Quantization scheme description: precision on the paper's grid
//! (symmetric, min-max calibrated, one range per weight tensor).

use hero_tensor::{Result, TensorError};
use std::fmt;

/// A linear uniform quantization scheme: a zero-centred grid `[-A, A]`
/// (zero is exactly representable) with one range per weight tensor — the
/// paper's per-layer setting. `A` is the tensor's largest magnitude
/// (min-max calibration), so nothing clips and the Theorem 2 premise
/// `‖W_q − W‖∞ ≤ Δ/2` holds for every weight.
///
/// Constructed via [`QuantScheme::symmetric`], which validates
/// `1 ≤ bits ≤ 16` up front; the fields are private, so no scheme with
/// another width exists.
///
/// # Examples
///
/// ```
/// use hero_quant::QuantScheme;
///
/// let s = QuantScheme::symmetric(4).unwrap();
/// assert_eq!(s.to_string(), "4-bit sym per-tensor");
/// assert_eq!(QuantScheme::half_levels(4), 7); // levels -7..=7
/// assert!(QuantScheme::symmetric(32).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantScheme {
    /// Bit width `n`; the grid has `2^n − 1` levels.
    pub(crate) bits: u8,
}

impl QuantScheme {
    /// Largest supported bit width. Wider grids gain nothing over `f32`
    /// weights and would overflow the `u32` level arithmetic.
    pub const MAX_BITS: u8 = 16;

    /// Symmetric per-tensor min-max scheme at `bits` — the paper's
    /// post-training quantization setting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] unless `1 ≤ bits ≤ 16`.
    pub fn symmetric(bits: u8) -> Result<Self> {
        if bits == 0 || bits > Self::MAX_BITS {
            return Err(TensorError::InvalidArgument(format!(
                "quantization bit width {bits} outside the supported 1..={} range",
                Self::MAX_BITS
            )));
        }
        Ok(QuantScheme { bits })
    }

    /// Number of levels on each side of zero for a symmetric grid at
    /// `bits` (`2^(n−1) − 1`, floored at 1), without shift overflow for
    /// any `u8` input.
    pub fn half_levels(bits: u8) -> u32 {
        (((1u64 << u32::from(bits.min(32))) / 2).saturating_sub(1)).max(1) as u32
    }
}

impl fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit sym per-tensor", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let s = QuantScheme::symmetric(8).unwrap();
        assert_eq!(s.bits, 8);
    }

    #[test]
    fn display_is_descriptive() {
        assert_eq!(
            QuantScheme::symmetric(4).unwrap().to_string(),
            "4-bit sym per-tensor"
        );
    }
}
