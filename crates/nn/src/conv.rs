//! Convolutional layers: standard and depthwise.

use crate::module::{EntryMut, Layer, ParamKind, Walk};
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::Rng;
use hero_tensor::{ConvGeometry, Init, Result, Tensor};

/// 2-D convolution with a square kernel over NCHW inputs.
///
/// Weights are stored flattened as `(out_c, in_c*k*k)` — the layout
/// [`Graph::conv2d`] consumes directly. Convolutions are bias-free (the
/// paper's architectures all follow them with batch norm).
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: Tensor,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            w: Init::KaimingNormal { fan_in }.tensor([out_c, fan_in], rng),
            kernel,
            stride,
            pad,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, g: &mut Graph, x: Var, _train: bool, vars: &mut Vec<Var>) -> Result<Var> {
        let dims = g.value(x).dims().to_vec();
        let geom = ConvGeometry::new(dims[2], dims[3], self.kernel, self.stride, self.pad)?;
        let w = g.input(self.w.clone());
        vars.push(w);
        g.conv2d(x, w, geom)
    }

    fn walk(&self, w: &mut Walk<'_>) {
        w.param("weight", ParamKind::Weight, &self.w);
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        f(EntryMut::Param(&mut self.w));
    }
}

/// Depthwise 2-D convolution (`groups == channels`), the core of
/// MobileNet-style blocks. Weights are `(c, k, k)`.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    w: Tensor,
    channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl DepthwiseConv2d {
    /// Creates a Kaiming-initialized depthwise convolution.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = kernel * kernel;
        DepthwiseConv2d {
            w: Init::KaimingNormal { fan_in }.tensor([channels, kernel, kernel], rng),
            channels,
            kernel,
            stride,
            pad,
        }
    }

    /// Channel count (input == output for depthwise).
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, g: &mut Graph, x: Var, _train: bool, vars: &mut Vec<Var>) -> Result<Var> {
        let dims = g.value(x).dims().to_vec();
        let geom = ConvGeometry::new(dims[2], dims[3], self.kernel, self.stride, self.pad)?;
        let w = g.input(self.w.clone());
        vars.push(w);
        g.depthwise_conv2d(x, w, geom)
    }

    fn walk(&self, w: &mut Walk<'_>) {
        w.param("weight", ParamKind::Weight, &self.w);
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        f(EntryMut::Param(&mut self.w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Network, Sequential};
    use hero_tensor::rng::StdRng;

    #[test]
    fn conv_preserves_spatial_with_same_padding() {
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut StdRng::seed_from_u64(0));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 3, 8, 8]));
        let mut vars = Vec::new();
        let y = c.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 8, 8, 8]);
        assert_eq!(c.w.dims(), &[8, 27]);
    }

    #[test]
    fn strided_conv_halves_spatial() {
        let mut c = Conv2d::new(4, 4, 3, 2, 1, &mut StdRng::seed_from_u64(1));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 4, 8, 8]));
        let mut vars = Vec::new();
        let y = c.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn conv_rejects_wrong_channels() {
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut StdRng::seed_from_u64(2));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 5, 8, 8]));
        let mut vars = Vec::new();
        assert!(c.forward(&mut g, x, true, &mut vars).is_err());
    }

    #[test]
    fn depthwise_preserves_channel_count() {
        let mut c = DepthwiseConv2d::new(6, 3, 1, 1, &mut StdRng::seed_from_u64(3));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 6, 4, 4]));
        let mut vars = Vec::new();
        let y = c.forward(&mut g, x, true, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 6, 4, 4]);
        assert_eq!(c.channels(), 6);
    }

    #[test]
    fn params_round_trip() {
        let c = Conv2d::new(2, 4, 3, 1, 1, &mut StdRng::seed_from_u64(4));
        let mut net = Network::new("conv", Sequential::new().push("stem", c));
        let ps = net.params();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].dims(), &[4, 18]);
        net.set_params(&ps).unwrap();
        let infos = net.param_infos();
        assert_eq!(infos[0].name, "stem.weight");
        assert_eq!(infos[0].kind, ParamKind::Weight);
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let small = Conv2d::new(1, 64, 3, 1, 1, &mut StdRng::seed_from_u64(5));
        let large = Conv2d::new(64, 64, 3, 1, 1, &mut StdRng::seed_from_u64(5));
        let variance = |t: &Tensor| t.add_scalar(-t.mean()).norm_l2_sq() / t.numel() as f32;
        assert!(variance(&small.w) > variance(&large.w));
    }
}
