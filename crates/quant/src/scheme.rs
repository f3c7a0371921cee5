//! Quantization scheme description: precision and range calibration on the
//! paper's grid (symmetric, one range per weight tensor).

use hero_tensor::{Result, TensorError};
use std::fmt;

/// How the clipping range is chosen from the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Calibration {
    /// Use the exact min/max — nothing clips, so the Theorem 2 premise
    /// `‖W_q − W‖∞ ≤ Δ/2` holds for every weight.
    MinMax,
    /// Clip to the given two-sided quantile (e.g. `0.999`), trading clipped
    /// outliers for a finer grid on the bulk.
    Percentile(f32),
}

/// A linear uniform quantization scheme: a zero-centred grid `[-A, A]`
/// (zero is exactly representable) with one range per weight tensor — the
/// paper's per-layer setting.
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
    /// Range calibration rule.
    pub(crate) calibration: Calibration,
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
        Ok(QuantScheme {
            bits,
            calibration: Calibration::MinMax,
        })
    }

    /// Switches to percentile calibration at quantile `q` (0.5 < q ≤ 1).
    #[must_use]
    pub fn with_percentile(mut self, q: f32) -> Self {
        self.calibration = Calibration::Percentile(q);
        self
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
        assert_eq!(s.calibration, Calibration::MinMax);
    }

    #[test]
    fn builders_compose() {
        let s = QuantScheme::symmetric(4).unwrap().with_percentile(0.99);
        assert_eq!(s.bits, 4);
        assert_eq!(s.calibration, Calibration::Percentile(0.99));
    }

    #[test]
    fn display_is_descriptive() {
        assert_eq!(
            QuantScheme::symmetric(4).unwrap().to_string(),
            "4-bit sym per-tensor"
        );
    }
}
