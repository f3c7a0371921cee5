//! # hero-autodiff
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`hero_tensor::Tensor`], built for the HERO (DAC 2022) reproduction.
//!
//! A [`Graph`] records operations define-by-run style; [`Graph::backward`]
//! walks the tape in reverse and returns [`Gradients`] for every node on a
//! path from the nodes it is asked about to the scalar loss. The op set covers what the paper's models
//! need: dense and convolutional layers (regular + depthwise), batch
//! normalization, pooling, ReLU/ReLU6 and softmax cross-entropy.
//!
//! Every backward rule is validated against central finite differences by
//! the gradient-check harness of `tests/gradcheck_corpus.rs`.
//!
//! # Examples
//!
//! ```
//! use hero_autodiff::Graph;
//! use hero_tensor::Tensor;
//!
//! # fn main() -> Result<(), hero_tensor::TensorError> {
//! let mut g = Graph::new();
//! let w = g.input(Tensor::from_vec(vec![0.5, -0.5], [1, 2])?);
//! let x = g.input(Tensor::from_vec(vec![1.0, 2.0], [2, 1])?);
//! let y = g.matmul(w, x)?;              // (1,1)
//! let loss = g.sum(y);
//! let grads = g.backward(loss, &[w])?;
//! assert_eq!(grads.get(w).unwrap().data(), &[1.0, 2.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod graph;
mod ops_nn;
pub mod trace;

pub use graph::{Gradients, Graph, Var};
pub use ops_nn::BatchStats;
pub use trace::{NodeTrace, TraceOp};
