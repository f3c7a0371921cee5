//! # hero-quant
//!
//! Post-training linear uniform weight quantization for the HERO (DAC 2022)
//! reproduction on the paper's grid: symmetric, one range per weight tensor
//! (per layer), min-max calibration, and whole-network fake quantization
//! that touches weight tensors only.
//!
//! The implementation is property-tested against the premise of the paper's
//! Theorem 2: with min-max calibration, `‖W_q − W‖∞ ≤ Δ/2`.
//!
//! # Examples
//!
//! ```
//! use hero_quant::{quantize_tensor, QuantScheme};
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let w = Tensor::from_vec(vec![-0.9, -0.2, 0.3, 0.8], [4])?;
//! let q = quantize_tensor(&w, &QuantScheme::symmetric(4)?);
//! let worst = q.values.sub(&w)?.norm_linf();
//! assert!(worst <= q.bin_width / 2.0 + 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod mixed;
mod model;
mod quantizer;
mod scheme;
mod sensitivity;

pub use mixed::{allocate_bits, network_sensitivities, quantize_params_mixed, LayerSensitivity};
pub use model::{quantize_params, ModelQuantReport};
pub use quantizer::{quant_error, quantize_tensor, QuantError, QuantizedTensor};
pub use scheme::QuantScheme;
pub use sensitivity::{SensitivityMatrix, StaticSensitivity};
