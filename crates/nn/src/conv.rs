//! Convolutional layers: standard and depthwise.

use crate::module::{EntryMut, Layer, ParamKind, Walk};
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::Rng;
use hero_tensor::{ConvGeometry, Init, Result, Tensor, TensorError};

/// The geometry of a square `kernel` over the spatial axes of the NCHW
/// batch `x`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `x` is 4-D, and geometry
/// errors from [`ConvGeometry::new`].
fn geometry(x: &Tensor, kernel: usize, stride: usize, pad: usize) -> Result<ConvGeometry> {
    match *x.dims() {
        [_, _, h, w] => ConvGeometry::new(h, w, kernel, stride, pad),
        _ => Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
        }),
    }
}

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

impl Conv2d {
    /// The eval-mode convolution of `x`, which it only reads (a residual
    /// block's shortcut reads the same input).
    pub(crate) fn apply(&self, x: &Tensor) -> Result<Tensor> {
        x.conv2d(&self.w, &geometry(x, self.kernel, self.stride, self.pad)?)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let geom = geometry(g.value(x), self.kernel, self.stride, self.pad)?;
        let w = g.input(self.w.clone());
        vars.push(w);
        g.conv2d(x, w, geom)
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        self.apply(&x)
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

impl DepthwiseConv2d {
    /// The eval-mode depthwise convolution of `x`, which it only reads (an
    /// inverted residual's skip reads the same input).
    pub(crate) fn apply(&self, x: &Tensor) -> Result<Tensor> {
        x.depthwise_conv2d(&self.w, &geometry(x, self.kernel, self.stride, self.pad)?)
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let geom = geometry(g.value(x), self.kernel, self.stride, self.pad)?;
        let w = g.input(self.w.clone());
        vars.push(w);
        g.depthwise_conv2d(x, w, geom)
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        self.apply(&x)
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
        let y = c.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 8, 8, 8]);
        assert_eq!(c.w.dims(), &[8, 27]);
    }

    #[test]
    fn strided_conv_halves_spatial() {
        let mut c = Conv2d::new(4, 4, 3, 2, 1, &mut StdRng::seed_from_u64(1));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 4, 8, 8]));
        let mut vars = Vec::new();
        let y = c.forward(&mut g, x, &mut vars).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn conv_rejects_wrong_channels() {
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut StdRng::seed_from_u64(2));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 5, 8, 8]));
        let mut vars = Vec::new();
        assert!(c.forward(&mut g, x, &mut vars).is_err());
    }

    #[test]
    fn convs_reject_inputs_that_are_not_4d() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut StdRng::seed_from_u64(2));
        let dw = DepthwiseConv2d::new(3, 3, 1, 1, &mut StdRng::seed_from_u64(2));
        let layers: [Box<dyn Layer>; 2] = [Box::new(conv), Box::new(dw)];
        for mut layer in layers {
            for dims in [vec![2, 3], vec![2, 3, 8]] {
                let mut g = Graph::new();
                let x = g.input(Tensor::zeros(dims.as_slice()));
                let err = layer.forward(&mut g, x, &mut Vec::new()).unwrap_err();
                assert!(matches!(err, TensorError::RankMismatch { .. }), "{err}");
                let err = layer.infer(Tensor::zeros(dims.as_slice())).unwrap_err();
                assert!(matches!(err, TensorError::RankMismatch { .. }), "{err}");
            }
        }
    }

    #[test]
    fn depthwise_preserves_channel_count() {
        let mut c = DepthwiseConv2d::new(6, 3, 1, 1, &mut StdRng::seed_from_u64(3));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 6, 4, 4]));
        let mut vars = Vec::new();
        let y = c.forward(&mut g, x, &mut vars).unwrap();
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
