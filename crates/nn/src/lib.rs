//! # hero-nn
//!
//! Neural-network layers and reference models for the HERO (DAC 2022)
//! reproduction: dense, convolutional (standard + depthwise) and batch-norm
//! layers composed into scaled-down stand-ins for the paper's ResNet20,
//! MobileNetV2 and VGG19BN architectures.
//!
//! The central abstractions are [`Layer`] (a block that contributes
//! parameters to an autodiff [`hero_autodiff::Graph`] on each train-mode
//! forward pass, and runs eval-mode forwards on owned tensors with no
//! graph) and [`Network`] (a complete model exposing the flat canonical-order
//! parameter view the HERO training methods operate on).
//!
//! # Examples
//!
//! ```
//! use hero_nn::models::{mlp, ModelConfig};
//! use hero_nn::loss::loss_and_grads;
//! use hero_tensor::Tensor;
//! use hero_tensor::rng::StdRng;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = ModelConfig { classes: 3, in_channels: 1, input_hw: 2, width: 4 };
//! let mut net = mlp(cfg, &[8], &mut rng);
//! let x = Tensor::ones([2, 1, 2, 2]);
//! let out = loss_and_grads(&mut net, &x, &[0, 2])?;
//! assert_eq!(out.grads.len(), net.params().len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod act;
pub mod block;
pub mod conv;
pub mod linear;
pub mod loss;
pub mod models;
pub mod module;
pub mod norm;

pub use act::{Activation, Flatten, GlobalAvgPool2d, MaxPool2d};
pub use block::{BasicBlock, InvertedResidual};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use linear::Linear;
pub use loss::{eval_loss, evaluate_accuracy, loss_and_grads, param_grad, LossAndGrads};
pub use module::{EntryMut, Layer, LayerClone, Network, ParamInfo, ParamKind, Sequential, Walk};
pub use norm::BatchNorm2d;
