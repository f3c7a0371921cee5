//! # hero-core
//!
//! The top-level API of the HERO (DAC 2022) reproduction: the training
//! loop ([`train`]), experiment runners for every table and figure of the
//! paper ([`experiment`]), and plain-text report rendering ([`report`]).
//!
//! The crate ties together the substrates built for this reproduction:
//! `hero-tensor` (dense tensors), `hero-autodiff` (reverse mode),
//! `hero-nn` (layers and the three scaled-down model families),
//! `hero-optim` (SGD / SAM / GRAD-L1 / HERO), `hero-quant` (post-training
//! quantization), `hero-data` (synthetic benchmark presets),
//! `hero-hessian` (curvature probes) and `hero-landscape` (loss contours).
//!
//! # Examples
//!
//! Train the ResNet20 stand-in with HERO on the CIFAR-10 preset at smoke
//! scale and quantize it to 4 bits:
//!
//! ```no_run
//! use hero_core::experiment::{quant_sweep, train_cell, MethodKind, Scale};
//! use hero_data::Preset;
//! use hero_nn::models::ModelKind;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let scale = Scale::fast();
//! let mut trained =
//!     train_cell(Preset::C10, ModelKind::Resnet, MethodKind::Hero, scale, 0, None)?;
//! let (_, test) = Preset::C10.load(scale.data);
//! let curve = quant_sweep(&mut trained, &test, &[4, 8])?;
//! println!("4-bit accuracy: {:.3}", curve.points[0].1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact_io;
pub mod config;
pub mod experiment;
pub mod metrics;
pub mod preflight;
pub mod report;
pub mod spectrum;
pub mod trainer;

pub use artifact_io::{
    attach_quant, build_artifact, describe_artifact, golden_recipe, load_artifact,
    network_from_artifact, preflight_hash, record_from_artifact, resume_from_artifact,
    run_meta_from_artifact, save_artifact, train_to_artifact, trainer_state_from_artifact,
    ModelSpec, RunMeta,
};
pub use config::TrainConfig;
pub use metrics::{EpochMetrics, TrainRecord};
pub use preflight::{
    noise_crosscheck, preflight_report_with_noise, probe_loss, run_crosscheck, run_preflight,
    static_sensitivity_matrix, CrosscheckCell, CrosscheckGrid, CrosscheckReport, CrosscheckRun,
    NoiseBits, NoiseConfig, NoisePlan, PreflightRun,
};
pub use spectrum::{
    probe_density, probe_spectrum, spectrum_report, LayerTrace, MethodSpectrum, SpectrumOptions,
    SpectrumProbe, SpectrumReport,
};
pub use trainer::{
    probe_batch, probe_hessian_norm, train, train_resumable, verify_network_tape, TrainerState,
};
