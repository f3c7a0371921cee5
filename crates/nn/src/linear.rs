//! Fully-connected (dense) layer.

use crate::module::{Layer, ParamInfo, ParamKind, ParamSource};
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
    b: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized dense layer with bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            w: Init::KaimingNormal { fan_in: in_dim }.tensor([in_dim, out_dim], rng),
            b: Some(Tensor::zeros([out_dim])),
        }
    }

    /// Creates a dense layer without bias.
    pub fn new_no_bias(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            w: Init::KaimingNormal { fan_in: in_dim }.tensor([in_dim, out_dim], rng),
            b: None,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.w.dims()[0]
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.w.dims()[1]
    }
}

impl Layer for Linear {
    fn forward(&mut self, g: &mut Graph, x: Var, _train: bool, vars: &mut Vec<Var>) -> Result<Var> {
        let w = g.input(self.w.clone());
        vars.push(w);
        let mut out = g.matmul(x, w)?;
        if let Some(b) = &self.b {
            let bv = g.input(b.clone());
            vars.push(bv);
            out = g.add(out, bv)?; // broadcasts (out_dim,) over rows
        }
        Ok(out)
    }

    fn collect_params(&self, out: &mut Vec<Tensor>) {
        out.push(self.w.clone());
        if let Some(b) = &self.b {
            out.push(b.clone());
        }
    }

    fn assign_params(&mut self, src: &mut ParamSource<'_>) -> Result<()> {
        src.copy_into(&mut self.w)?;
        if let Some(b) = &mut self.b {
            src.copy_into(b)?;
        }
        Ok(())
    }

    fn param_infos(&self, prefix: &str, out: &mut Vec<ParamInfo>) {
        out.push(ParamInfo {
            name: format!("{prefix}.weight"),
            kind: ParamKind::Weight,
        });
        if self.b.is_some() {
            out.push(ParamInfo {
                name: format!("{prefix}.bias"),
                kind: ParamKind::Bias,
            });
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
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
        l.assign_params(&mut ParamSource::new(&[w, b])).unwrap();
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]).unwrap());
        let mut vars = Vec::new();
        let y = l.forward(&mut g, x, true, &mut vars).unwrap();
        // y = [1*1 + 2*0 + 3*1 + 10, 1*0 + 2*1 + 3*1 + 20] = [14, 25]
        assert_eq!(g.value(y).data(), &[14.0, 25.0]);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn no_bias_variant_has_one_param() {
        let l = Linear::new_no_bias(4, 3, &mut StdRng::seed_from_u64(1));
        let mut ps = Vec::new();
        l.collect_params(&mut ps);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].dims(), &[4, 3]);
        let mut infos = Vec::new();
        l.param_infos("fc", &mut infos);
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "fc.weight");
    }

    #[test]
    fn dims_accessors() {
        let l = Linear::new(5, 7, &mut StdRng::seed_from_u64(2));
        assert_eq!(l.in_dim(), 5);
        assert_eq!(l.out_dim(), 7);
    }

    #[test]
    fn gradient_shapes_match_params() {
        let mut l = Linear::new(3, 2, &mut StdRng::seed_from_u64(3));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones([4, 3]));
        let mut vars = Vec::new();
        let y = l.forward(&mut g, x, true, &mut vars).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss, &vars).unwrap();
        assert_eq!(grads.get(vars[0]).unwrap().dims(), &[3, 2]);
        assert_eq!(grads.get(vars[1]).unwrap().dims(), &[2]);
        // Bias gradient of sum loss is the batch size per output.
        assert_eq!(grads.get(vars[1]).unwrap().data(), &[4.0, 4.0]);
    }
}
