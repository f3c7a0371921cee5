//! Composite blocks: ResNet basic blocks and MobileNetV2 inverted
//! residuals.

use crate::act::Activation;
use crate::conv::{Conv2d, DepthwiseConv2d};
use crate::module::{EntryMut, Layer, Walk};
use crate::norm::BatchNorm2d;
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::Rng;
use hero_tensor::{Result, Tensor};

/// ResNet "basic block": two 3×3 conv-BN pairs with an identity (or 1×1
/// projection) shortcut, post-activation ReLU.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    /// 1×1 strided projection when the shape changes, otherwise identity.
    downsample: Option<(Conv2d, BatchNorm2d)>,
}

impl BasicBlock {
    /// Creates a block mapping `in_c` channels to `out_c` with the given
    /// stride on the first convolution.
    pub fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut impl Rng) -> Self {
        let downsample = if stride != 1 || in_c != out_c {
            Some((
                Conv2d::new(in_c, out_c, 1, stride, 0, rng),
                BatchNorm2d::new(out_c),
            ))
        } else {
            None
        };
        BasicBlock {
            conv1: Conv2d::new(in_c, out_c, 3, stride, 1, rng),
            bn1: BatchNorm2d::new(out_c),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_c),
            downsample,
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let mut h = self.conv1.forward(g, x, vars)?;
        h = self.bn1.forward(g, h, vars)?;
        h = g.relu(h);
        h = self.conv2.forward(g, h, vars)?;
        h = self.bn2.forward(g, h, vars)?;
        let shortcut = match &mut self.downsample {
            Some((conv, bn)) => {
                let s = conv.forward(g, x, vars)?;
                bn.forward(g, s, vars)?
            }
            None => x,
        };
        let sum = g.add(h, shortcut)?;
        Ok(g.relu(sum))
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        let h = self.bn1.infer(self.conv1.apply(&x)?)?;
        let h = Activation::Relu.infer(h)?;
        let mut h = self.bn2.infer(self.conv2.infer(h)?)?;
        let shortcut = match &self.downsample {
            Some((conv, bn)) => bn.infer(conv.apply(&x)?)?,
            None => x,
        };
        // `1·shortcut` is exact, so this rounds as the graph's `h + shortcut`.
        h.axpy(1.0, &shortcut)?;
        Activation::Relu.infer(h)
    }

    fn walk(&self, w: &mut Walk<'_>) {
        w.child("conv1", &self.conv1);
        w.child("bn1", &self.bn1);
        w.child("conv2", &self.conv2);
        w.child("bn2", &self.bn2);
        if let Some((conv, bn)) = &self.downsample {
            w.child("down.conv", conv);
            w.child("down.bn", bn);
        }
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        self.conv1.walk_mut(f);
        self.bn1.walk_mut(f);
        self.conv2.walk_mut(f);
        self.bn2.walk_mut(f);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.walk_mut(f);
            bn.walk_mut(f);
        }
    }
}

/// MobileNetV2 inverted residual: 1×1 expansion (ReLU6) → 3×3 depthwise
/// (ReLU6) → 1×1 linear projection, with an identity skip when the stride
/// is 1 and channel counts match.
#[derive(Debug, Clone)]
pub struct InvertedResidual {
    expand: Option<(Conv2d, BatchNorm2d)>,
    depthwise: DepthwiseConv2d,
    bn_dw: BatchNorm2d,
    project: Conv2d,
    bn_proj: BatchNorm2d,
    use_skip: bool,
}

impl InvertedResidual {
    /// Creates a block with the given expansion factor (`expansion == 1`
    /// skips the expansion convolution, as in MobileNetV2's first block).
    pub fn new(
        in_c: usize,
        out_c: usize,
        stride: usize,
        expansion: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let hidden = in_c * expansion;
        let expand = if expansion != 1 {
            Some((
                Conv2d::new(in_c, hidden, 1, 1, 0, rng),
                BatchNorm2d::new(hidden),
            ))
        } else {
            None
        };
        InvertedResidual {
            expand,
            depthwise: DepthwiseConv2d::new(hidden, 3, stride, 1, rng),
            bn_dw: BatchNorm2d::new(hidden),
            project: Conv2d::new(hidden, out_c, 1, 1, 0, rng),
            bn_proj: BatchNorm2d::new(out_c),
            use_skip: stride == 1 && in_c == out_c,
        }
    }
}

impl Layer for InvertedResidual {
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let mut h = x;
        if let Some((conv, bn)) = &mut self.expand {
            h = conv.forward(g, h, vars)?;
            h = bn.forward(g, h, vars)?;
            h = g.relu6(h);
        }
        h = self.depthwise.forward(g, h, vars)?;
        h = self.bn_dw.forward(g, h, vars)?;
        h = g.relu6(h);
        h = self.project.forward(g, h, vars)?;
        h = self.bn_proj.forward(g, h, vars)?;
        if self.use_skip {
            h = g.add(h, x)?;
        }
        Ok(h)
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        let h = match &self.expand {
            Some((conv, bn)) => {
                let e = Activation::Relu6.infer(bn.infer(conv.apply(&x)?)?)?;
                self.depthwise.apply(&e)?
            }
            None => self.depthwise.apply(&x)?,
        };
        let h = Activation::Relu6.infer(self.bn_dw.infer(h)?)?;
        let mut h = self.bn_proj.infer(self.project.infer(h)?)?;
        if self.use_skip {
            // `1·x` is exact, so this rounds as the graph's `h + x`.
            h.axpy(1.0, &x)?;
        }
        Ok(h)
    }

    fn walk(&self, w: &mut Walk<'_>) {
        if let Some((conv, bn)) = &self.expand {
            w.child("expand.conv", conv);
            w.child("expand.bn", bn);
        }
        w.child("dw", &self.depthwise);
        w.child("dw.bn", &self.bn_dw);
        w.child("proj", &self.project);
        w.child("proj.bn", &self.bn_proj);
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        if let Some((conv, bn)) = &mut self.expand {
            conv.walk_mut(f);
            bn.walk_mut(f);
        }
        self.depthwise.walk_mut(f);
        self.bn_dw.walk_mut(f);
        self.project.walk_mut(f);
        self.bn_proj.walk_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Network, Sequential};
    use hero_tensor::rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn identity_block_preserves_shape() {
        let mut b = BasicBlock::new(8, 8, 1, &mut rng());
        assert!(b.downsample.is_none());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 8, 4, 4]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 8, 4, 4]);
        // conv1(w) + bn1(2) + conv2(w) + bn2(2) = 6 parameter vars.
        assert_eq!(vars.len(), 6);
    }

    #[test]
    fn strided_block_downsamples_with_projection() {
        let mut b = BasicBlock::new(8, 16, 2, &mut rng());
        assert!(b.downsample.is_some());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 8, 8, 8]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 16, 4, 4]);
        assert_eq!(vars.len(), 9); // + projection conv + its bn(2)
    }

    #[test]
    fn basic_block_params_round_trip() {
        let b = BasicBlock::new(4, 8, 2, &mut rng());
        let mut net = Network::new("block", Sequential::new().push("block", b));
        let ps = net.params();
        let n = ps.len();
        assert_eq!(n, 9);
        net.set_params(&ps).unwrap();
        let infos = net.param_infos();
        assert_eq!(infos.len(), n);
        assert!(infos.iter().any(|i| i.name.contains("down.conv")));
    }

    #[test]
    fn inverted_residual_with_skip() {
        let mut b = InvertedResidual::new(8, 8, 1, 4, &mut rng());
        assert!(b.use_skip);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 8, 4, 4]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn inverted_residual_stride_two_no_skip() {
        let mut b = InvertedResidual::new(8, 16, 2, 4, &mut rng());
        assert!(!b.use_skip);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 8, 8, 8]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 16, 4, 4]);
    }

    #[test]
    fn expansion_one_skips_expand_conv() {
        let count = |expansion| {
            let b = InvertedResidual::new(8, 8, 1, expansion, &mut rng());
            Network::new("ir", Sequential::new().push("ir", b))
                .params()
                .len()
        };
        assert!(count(1) < count(4));
    }

    #[test]
    fn block_gradients_reach_all_params() {
        let mut b = BasicBlock::new(4, 4, 1, &mut rng());
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([2, 4, 4, 4], |i| {
            (i.iter().sum::<usize>() % 5) as f32 * 0.3 - 0.5
        }));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, &mut vars).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &vars).unwrap();
        for (i, v) in vars.iter().enumerate() {
            assert!(grads.get(*v).is_some(), "param {i} received no gradient");
        }
    }
}
