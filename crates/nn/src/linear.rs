//! Fully-connected (dense) layer.

use crate::module::{EntryMut, Layer, ParamKind, Walk};
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::Rng;
use hero_tensor::{Init, Result, Tensor};

/// Dense layer computing `y = x W + b` for `x` of shape `(batch, in_dim)`.
///
/// The weight is stored `(in_dim, out_dim)` so the forward pass is a plain
/// matmul with no transposition.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
}

impl Linear {
    /// Creates a Kaiming-initialized dense layer with bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            w: Init::KaimingNormal { fan_in: in_dim }.tensor([in_dim, out_dim], rng),
            b: Tensor::zeros([out_dim]),
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let w = g.input(self.w.clone());
        vars.push(w);
        let out = g.matmul(x, w)?;
        let b = g.input(self.b.clone());
        vars.push(b);
        g.add(out, b) // broadcasts (out_dim,) over rows
    }

    /// `x W`, then the bias added into each row in place.
    fn infer(&self, x: Tensor) -> Result<Tensor> {
        let mut out = x.matmul(&self.w)?;
        let bias = self.b.data();
        for row in out.data_mut().chunks_exact_mut(bias.len().max(1)) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        Ok(out)
    }

    fn walk(&self, w: &mut Walk<'_>) {
        w.param("weight", ParamKind::Weight, &self.w);
        w.param("bias", ParamKind::Bias, &self.b);
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        f(EntryMut::Param(&mut self.w));
        f(EntryMut::Param(&mut self.b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::rng::StdRng;

    #[test]
    fn forward_computes_affine_map() {
        let mut l = Linear::new(3, 2, &mut StdRng::seed_from_u64(0));
        // Overwrite with known values.
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], [3, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]).unwrap();
        (l.w, l.b) = (w, b);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).unwrap());
        let mut vars = Vec::new();
        let y = l.forward(&mut g, x, &mut vars).unwrap();
        // y = [1*1 + 2*0 + 3*1 + 10, 1*0 + 2*1 + 3*1 + 20] = [14, 25]
        assert_eq!(g.value(y).data(), &[14.0, 25.0]);
        assert_eq!(vars.len(), 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).unwrap();
        assert_eq!(l.infer(x).unwrap().data(), &[14.0, 25.0]);
    }

    #[test]
    fn gradient_shapes_match_params() {
        let mut l = Linear::new(3, 2, &mut StdRng::seed_from_u64(3));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones([4, 3]));
        let mut vars = Vec::new();
        let y = l.forward(&mut g, x, &mut vars).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss, &vars).unwrap();
        assert_eq!(grads.get(vars[0]).unwrap().dims(), &[3, 2]);
        assert_eq!(grads.get(vars[1]).unwrap().dims(), &[2]);
        // Bias gradient of sum loss is the batch size per output.
        assert_eq!(grads.get(vars[1]).unwrap().data(), &[4.0, 4.0]);
    }
}
