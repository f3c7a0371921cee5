//! Parameter-free layers: activations, pooling, flatten.

use crate::module::Layer;
use hero_autodiff::{Graph, Var};
use hero_tensor::{Result, Tensor, TensorError};

/// Activation functions used by the paper's architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(x, 0)` — ResNet/VGG.
    Relu,
    /// `min(max(x, 0), 6)` — MobileNetV2.
    Relu6,
}

impl Layer for Activation {
    fn forward(&mut self, g: &mut Graph, x: Var, _vars: &mut Vec<Var>) -> Result<Var> {
        Ok(match self {
            Activation::Relu => g.relu(x),
            Activation::Relu6 => g.relu6(x),
        })
    }

    /// In place, with the element functions of [`Tensor::clamp_min`] and
    /// [`Tensor::clamp`], which the graph ops run.
    fn infer(&self, mut x: Tensor) -> Result<Tensor> {
        match self {
            Activation::Relu => x.map_in_place(|v| v.max(0.0)),
            Activation::Relu6 => x.map_in_place(|v| v.clamp(0.0, 6.0)),
        }
        Ok(x)
    }
}

/// Non-overlapping max pooling with a square window.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    /// Window side length.
    pub k: usize,
}

impl Layer for MaxPool2d {
    fn forward(&mut self, g: &mut Graph, x: Var, _vars: &mut Vec<Var>) -> Result<Var> {
        g.max_pool2d(x, self.k)
    }

    /// The values of the graph op's kernel, with no argmax: nothing
    /// differentiates an eval forward.
    fn infer(&self, x: Tensor) -> Result<Tensor> {
        x.max_pool2d_values(self.k)
    }
}

/// Global average pooling `(n, c, h, w) -> (n, c)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool2d;

impl Layer for GlobalAvgPool2d {
    fn forward(&mut self, g: &mut Graph, x: Var, _vars: &mut Vec<Var>) -> Result<Var> {
        g.global_avg_pool2d(x)
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        x.global_avg_pool2d()
    }
}

/// Flattens all trailing axes: `(n, ...) -> (n, prod(...))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten;

/// The flattened shape `[n, prod(rest)]` of a batch with dims `(n, rest…)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a rank-0 tensor, which has
/// no batch axis.
fn flat_dims(x: &Tensor) -> Result<[usize; 2]> {
    match x.dims().split_first() {
        Some((&n, rest)) => Ok([n, rest.iter().product()]),
        None => Err(TensorError::RankMismatch {
            expected: 1,
            actual: 0,
        }),
    }
}

impl Layer for Flatten {
    fn forward(&mut self, g: &mut Graph, x: Var, _vars: &mut Vec<Var>) -> Result<Var> {
        let dims = flat_dims(g.value(x))?;
        g.reshape(x, dims)
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        let dims = flat_dims(&x)?;
        Tensor::from_vec(x.into_vec(), dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Network, Sequential};

    #[test]
    fn relu_layers_apply_nonlinearity() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![-1.0, 3.0, 8.0], [3]).unwrap());
        let mut vars = Vec::new();
        let y = Activation::Relu.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).data(), &[0.0, 3.0, 8.0]);
        let y6 = Activation::Relu6.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y6).data(), &[0.0, 3.0, 6.0]);
        assert!(vars.is_empty());
    }

    #[test]
    fn pooling_layers_reduce_spatial() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32));
        let mut vars = Vec::new();
        let m = MaxPool2d { k: 2 }.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(m).dims(), &[1, 1, 2, 2]);
        let gp = GlobalAvgPool2d.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(gp).dims(), &[1, 1]);
    }

    #[test]
    fn flatten_collapses_trailing_axes() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 3, 4, 4]));
        let mut vars = Vec::new();
        let y = Flatten.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 48]);
    }

    #[test]
    fn stateless_layers_have_no_params() {
        let body = Sequential::new()
            .push("act", Activation::Relu)
            .push("flatten", Flatten)
            .push("max", MaxPool2d { k: 2 })
            .push("gap", GlobalAvgPool2d);
        let net = Network::new("stateless", body);
        assert!(net.params().is_empty());
        assert!(net.param_infos().is_empty());
        assert!(net.state().is_empty());
    }
}
