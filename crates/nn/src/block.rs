//! Composite blocks: ResNet basic blocks and MobileNetV2 inverted
//! residuals.

use crate::act::Activation;
use crate::conv::{Conv2d, DepthwiseConv2d};
use crate::module::{Layer, ParamInfo, ParamSource, StateSource};
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

    /// Whether the block carries a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.downsample.is_some()
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool, vars: &mut Vec<Var>) -> Result<Var> {
        let mut h = self.conv1.forward(g, x, train, vars)?;
        h = self.bn1.forward(g, h, train, vars)?;
        h = Activation::Relu.forward(g, h, train, vars)?;
        h = self.conv2.forward(g, h, train, vars)?;
        h = self.bn2.forward(g, h, train, vars)?;
        let shortcut = match &mut self.downsample {
            Some((conv, bn)) => {
                let s = conv.forward(g, x, train, vars)?;
                bn.forward(g, s, train, vars)?
            }
            None => x,
        };
        let sum = g.add(h, shortcut)?;
        Ok(g.relu(sum))
    }

    fn collect_params(&self, out: &mut Vec<Tensor>) {
        self.conv1.collect_params(out);
        self.bn1.collect_params(out);
        self.conv2.collect_params(out);
        self.bn2.collect_params(out);
        if let Some((conv, bn)) = &self.downsample {
            conv.collect_params(out);
            bn.collect_params(out);
        }
    }

    fn assign_params(&mut self, src: &mut ParamSource<'_>) -> Result<()> {
        self.conv1.assign_params(src)?;
        self.bn1.assign_params(src)?;
        self.conv2.assign_params(src)?;
        self.bn2.assign_params(src)?;
        if let Some((conv, bn)) = &mut self.downsample {
            conv.assign_params(src)?;
            bn.assign_params(src)?;
        }
        Ok(())
    }

    fn param_infos(&self, prefix: &str, out: &mut Vec<ParamInfo>) {
        self.conv1.param_infos(&format!("{prefix}.conv1"), out);
        self.bn1.param_infos(&format!("{prefix}.bn1"), out);
        self.conv2.param_infos(&format!("{prefix}.conv2"), out);
        self.bn2.param_infos(&format!("{prefix}.bn2"), out);
        if let Some((conv, bn)) = &self.downsample {
            conv.param_infos(&format!("{prefix}.down.conv"), out);
            bn.param_infos(&format!("{prefix}.down.bn"), out);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn collect_state(&self, prefix: &str, out: &mut Vec<(String, Vec<f32>)>) {
        self.bn1.collect_state(&format!("{prefix}.bn1"), out);
        self.bn2.collect_state(&format!("{prefix}.bn2"), out);
        if let Some((_, bn)) = &self.downsample {
            bn.collect_state(&format!("{prefix}.down.bn"), out);
        }
    }

    fn assign_state(&mut self, src: &mut StateSource<'_>) -> Result<()> {
        self.bn1.assign_state(src)?;
        self.bn2.assign_state(src)?;
        if let Some((_, bn)) = &mut self.downsample {
            bn.assign_state(src)?;
        }
        Ok(())
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

    /// Whether the block adds an identity skip connection.
    pub fn has_skip(&self) -> bool {
        self.use_skip
    }
}

impl Layer for InvertedResidual {
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool, vars: &mut Vec<Var>) -> Result<Var> {
        let mut h = x;
        if let Some((conv, bn)) = &mut self.expand {
            h = conv.forward(g, h, train, vars)?;
            h = bn.forward(g, h, train, vars)?;
            h = Activation::Relu6.forward(g, h, train, vars)?;
        }
        h = self.depthwise.forward(g, h, train, vars)?;
        h = self.bn_dw.forward(g, h, train, vars)?;
        h = Activation::Relu6.forward(g, h, train, vars)?;
        h = self.project.forward(g, h, train, vars)?;
        h = self.bn_proj.forward(g, h, train, vars)?;
        if self.use_skip {
            h = g.add(h, x)?;
        }
        Ok(h)
    }

    fn collect_params(&self, out: &mut Vec<Tensor>) {
        if let Some((conv, bn)) = &self.expand {
            conv.collect_params(out);
            bn.collect_params(out);
        }
        self.depthwise.collect_params(out);
        self.bn_dw.collect_params(out);
        self.project.collect_params(out);
        self.bn_proj.collect_params(out);
    }

    fn assign_params(&mut self, src: &mut ParamSource<'_>) -> Result<()> {
        if let Some((conv, bn)) = &mut self.expand {
            conv.assign_params(src)?;
            bn.assign_params(src)?;
        }
        self.depthwise.assign_params(src)?;
        self.bn_dw.assign_params(src)?;
        self.project.assign_params(src)?;
        self.bn_proj.assign_params(src)?;
        Ok(())
    }

    fn param_infos(&self, prefix: &str, out: &mut Vec<ParamInfo>) {
        if let Some((conv, bn)) = &self.expand {
            conv.param_infos(&format!("{prefix}.expand.conv"), out);
            bn.param_infos(&format!("{prefix}.expand.bn"), out);
        }
        self.depthwise.param_infos(&format!("{prefix}.dw"), out);
        self.bn_dw.param_infos(&format!("{prefix}.dw.bn"), out);
        self.project.param_infos(&format!("{prefix}.proj"), out);
        self.bn_proj.param_infos(&format!("{prefix}.proj.bn"), out);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn collect_state(&self, prefix: &str, out: &mut Vec<(String, Vec<f32>)>) {
        if let Some((_, bn)) = &self.expand {
            bn.collect_state(&format!("{prefix}.expand.bn"), out);
        }
        self.bn_dw.collect_state(&format!("{prefix}.dw.bn"), out);
        self.bn_proj
            .collect_state(&format!("{prefix}.proj.bn"), out);
    }

    fn assign_state(&mut self, src: &mut StateSource<'_>) -> Result<()> {
        if let Some((_, bn)) = &mut self.expand {
            bn.assign_state(src)?;
        }
        self.bn_dw.assign_state(src)?;
        self.bn_proj.assign_state(src)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn identity_block_preserves_shape() {
        let mut b = BasicBlock::new(8, 8, 1, &mut rng());
        assert!(!b.has_projection());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 8, 4, 4]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 8, 4, 4]);
        // conv1(w) + bn1(2) + conv2(w) + bn2(2) = 6 parameter vars.
        assert_eq!(vars.len(), 6);
    }

    #[test]
    fn strided_block_downsamples_with_projection() {
        let mut b = BasicBlock::new(8, 16, 2, &mut rng());
        assert!(b.has_projection());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 8, 8, 8]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 16, 4, 4]);
        assert_eq!(vars.len(), 9); // + projection conv + its bn(2)
    }

    #[test]
    fn basic_block_params_round_trip() {
        let mut b = BasicBlock::new(4, 8, 2, &mut rng());
        let mut ps = Vec::new();
        b.collect_params(&mut ps);
        let n = ps.len();
        assert_eq!(n, 9);
        b.assign_params(&mut ParamSource::new(&ps)).unwrap();
        let mut infos = Vec::new();
        b.param_infos("block", &mut infos);
        assert_eq!(infos.len(), n);
        assert!(infos.iter().any(|i| i.name.contains("down.conv")));
    }

    #[test]
    fn inverted_residual_with_skip() {
        let mut b = InvertedResidual::new(8, 8, 1, 4, &mut rng());
        assert!(b.has_skip());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 8, 4, 4]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn inverted_residual_stride_two_no_skip() {
        let mut b = InvertedResidual::new(8, 16, 2, 4, &mut rng());
        assert!(!b.has_skip());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 8, 8, 8]));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 16, 4, 4]);
    }

    #[test]
    fn expansion_one_skips_expand_conv() {
        let b1 = InvertedResidual::new(8, 8, 1, 1, &mut rng());
        let b4 = InvertedResidual::new(8, 8, 1, 4, &mut rng());
        let mut p1 = Vec::new();
        b1.collect_params(&mut p1);
        let mut p4 = Vec::new();
        b4.collect_params(&mut p4);
        assert!(p1.len() < p4.len());
    }

    #[test]
    fn block_gradients_reach_all_params() {
        let mut b = BasicBlock::new(4, 4, 1, &mut rng());
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([2, 4, 4, 4], |i| {
            (i.iter().sum::<usize>() % 5) as f32 * 0.3 - 0.5
        }));
        let mut vars = Vec::new();
        let y = b.forward(&mut g, x, true, &mut vars).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &vars).unwrap();
        for (i, v) in vars.iter().enumerate() {
            assert!(grads.get(*v).is_some(), "param {i} received no gradient");
        }
    }
}
