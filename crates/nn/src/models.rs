//! Reference architectures: scaled-down stand-ins for the paper's
//! ResNet20, MobileNetV2 and VGG19BN (see DESIGN.md for the substitution
//! rationale), plus an MLP for fast tests.

use crate::act::{Activation, Flatten, GlobalAvgPool2d, MaxPool2d};
use crate::block::{BasicBlock, InvertedResidual};
use crate::conv::Conv2d;
use crate::linear::Linear;
use crate::module::{Network, Sequential};
use crate::norm::BatchNorm2d;
use hero_tensor::rng::Rng;

/// Configuration shared by the model builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of output classes.
    pub classes: usize,
    /// Input channel count (3 for the synthetic vision presets).
    pub in_channels: usize,
    /// Input spatial side length (8 for C10/C100 presets, 16 for IN).
    pub input_hw: usize,
    /// Base channel width; scales every stage.
    pub width: usize,
}

impl Default for ModelConfig {
    /// 10-class, 3×8×8 input, width 8 — the C10-preset default.
    fn default() -> Self {
        ModelConfig {
            classes: 10,
            in_channels: 3,
            input_hw: 8,
            width: 8,
        }
    }
}

/// Builds a plain MLP: flatten → (linear → ReLU)* → linear.
///
/// `hidden` lists the hidden-layer widths. Used for fast unit tests and the
/// optimizer fixtures.
pub fn mlp(cfg: ModelConfig, hidden: &[usize], rng: &mut impl Rng) -> Network {
    let mut seq = Sequential::new();
    seq.add("flatten", Flatten);
    let mut in_dim = cfg.in_channels * cfg.input_hw * cfg.input_hw;
    for (i, &h) in hidden.iter().enumerate() {
        seq.add(format!("fc{i}"), Linear::new(in_dim, h, rng));
        seq.add(format!("act{i}"), Activation::Relu);
        in_dim = h;
    }
    seq.add("head", Linear::new(in_dim, cfg.classes, rng));
    Network::new("mlp", seq)
}

/// Builds the MiniResNet: conv stem + three residual stages + GAP + linear
/// head. Stand-in for the paper's ResNet20 (and, with `blocks_per_stage=2`
/// and larger width, ResNet18).
///
/// Stage widths are `w, w, 2w` with stride-2 transitions, mirroring the
/// CIFAR ResNet layout at a scale where it stays the *smallest* of the
/// three families (matching the paper's 0.27M vs 2.3M vs 20M ordering).
pub fn mini_resnet(cfg: ModelConfig, blocks_per_stage: usize, rng: &mut impl Rng) -> Network {
    let w = cfg.width;
    let mut seq = Sequential::new();
    seq.add("stem.conv", Conv2d::new(cfg.in_channels, w, 3, 1, 1, rng));
    seq.add("stem.bn", BatchNorm2d::new(w));
    seq.add("stem.act", Activation::Relu);
    let widths = [w, w, 2 * w];
    let mut in_c = w;
    for (stage, &out_c) in widths.iter().enumerate() {
        for b in 0..blocks_per_stage {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            seq.add(
                format!("stage{stage}.block{b}"),
                BasicBlock::new(in_c, out_c, stride, rng),
            );
            in_c = out_c;
        }
    }
    seq.add("gap", GlobalAvgPool2d);
    seq.add("head", Linear::new(in_c, cfg.classes, rng));
    Network::new("mini_resnet", seq)
}

/// Builds the MiniVgg: plain conv-BN-ReLU stacks with max-pool reductions
/// and a deliberately large fully-connected head. Stand-in for VGG19BN —
/// the most over-parameterized of the three families, which the paper shows
/// is the most quantization-sensitive.
pub fn mini_vgg(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let w = cfg.width * 2; // VGG is the wide model of the family
    let mut seq = Sequential::new();
    let mut in_c = cfg.in_channels;
    let mut hw = cfg.input_hw;
    for (stage, mult) in [1usize, 2].into_iter().enumerate() {
        let out_c = w * mult;
        for conv in 0..2 {
            seq.add(
                format!("stage{stage}.conv{conv}"),
                Conv2d::new(in_c, out_c, 3, 1, 1, rng),
            );
            seq.add(format!("stage{stage}.bn{conv}"), BatchNorm2d::new(out_c));
            seq.add(format!("stage{stage}.act{conv}"), Activation::Relu);
            in_c = out_c;
        }
        seq.add(format!("stage{stage}.pool"), MaxPool2d { k: 2 });
        hw /= 2;
    }
    seq.add("flatten", Flatten);
    let feat = in_c * hw * hw;
    let fc_width = feat; // square FC layer: the "heavy head" that makes VGG big
    seq.add("fc0", Linear::new(feat, fc_width, rng));
    seq.add("fc0.act", Activation::Relu);
    seq.add("head", Linear::new(fc_width, cfg.classes, rng));
    Network::new("mini_vgg", seq)
}

/// Builds the MiniMobileNet: conv stem + inverted-residual blocks
/// (expansion 4) + 1×1 head conv + GAP + linear. Stand-in for MobileNetV2.
pub fn mini_mobilenet(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let w = cfg.width;
    let mut seq = Sequential::new();
    seq.add("stem.conv", Conv2d::new(cfg.in_channels, w, 3, 1, 1, rng));
    seq.add("stem.bn", BatchNorm2d::new(w));
    seq.add("stem.act", Activation::Relu6);
    // (out_c, stride, expansion)
    let blocks = [
        (w, 1, 1),
        (2 * w, 2, 4),
        (2 * w, 1, 4),
        (3 * w, 2, 4),
        (3 * w, 1, 4),
    ];
    let mut in_c = w;
    for (i, (out_c, stride, expansion)) in blocks.into_iter().enumerate() {
        seq.add(
            format!("ir{i}"),
            InvertedResidual::new(in_c, out_c, stride, expansion, rng),
        );
        in_c = out_c;
    }
    let head_c = 6 * w;
    seq.add("headconv", Conv2d::new(in_c, head_c, 1, 1, 0, rng));
    seq.add("headconv.bn", BatchNorm2d::new(head_c));
    seq.add("headconv.act", Activation::Relu6);
    seq.add("gap", GlobalAvgPool2d);
    seq.add("head", Linear::new(head_c, cfg.classes, rng));
    Network::new("mini_mobilenet", seq)
}

/// The three paper model families, used to parameterize experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// MiniResNet (ResNet20/ResNet18 stand-in).
    Resnet,
    /// MiniMobileNet (MobileNetV2 stand-in).
    Mobilenet,
    /// MiniVgg (VGG19BN stand-in).
    Vgg,
}

impl ModelKind {
    /// The display name used in reports (matching the paper's tables).
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::Resnet => "ResNet20",
            ModelKind::Mobilenet => "MobileNetV2",
            ModelKind::Vgg => "VGG19BN",
        }
    }

    /// Builds the corresponding network.
    pub fn build(self, cfg: ModelConfig, rng: &mut impl Rng) -> Network {
        match self {
            ModelKind::Resnet => mini_resnet(cfg, 1, rng),
            ModelKind::Mobilenet => mini_mobilenet(cfg, rng),
            ModelKind::Vgg => mini_vgg(cfg, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_autodiff::Graph;
    use hero_tensor::rng::StdRng;
    use hero_tensor::Tensor;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn scalars(net: &Network) -> usize {
        net.params().iter().map(Tensor::numel).sum()
    }

    fn check_model(net: &mut Network, cfg: ModelConfig) {
        let x = Tensor::from_fn([2, cfg.in_channels, cfg.input_hw, cfg.input_hw], |i| {
            (i.iter().sum::<usize>() % 7) as f32 * 0.2 - 0.6
        });
        // Train-mode forward produces logits with gradients for all params.
        let mut g = Graph::new();
        let (logits, vars) = net.forward(&mut g, &x).unwrap();
        assert_eq!(g.value(logits).dims(), &[2, cfg.classes]);
        let loss = g.cross_entropy(logits, &[0, 1]).unwrap();
        let grads = g.backward(loss, &vars).unwrap();
        for (i, v) in vars.iter().enumerate() {
            assert!(grads.get(*v).is_some(), "param {i} got no gradient");
        }
        // The forward's parameter handles follow the canonical order.
        let params = net.params();
        assert_eq!(vars.len(), params.len());
        for (i, (v, p)) in vars.iter().zip(&params).enumerate() {
            assert_eq!(g.value(*v), p, "forward var {i} is not params()[{i}]");
        }
        // Eval-mode predictions work and are finite.
        let pred = net.predict(&x).unwrap();
        assert_eq!(pred.dims(), &[2, cfg.classes]);
        assert!(pred.is_finite());
        // Param round trip preserves behaviour.
        let ps = net.params();
        net.set_params(&ps).unwrap();
        let infos = net.param_infos();
        assert_eq!(infos.len(), ps.len());
    }

    #[test]
    fn mlp_shapes_and_gradients() {
        let cfg = ModelConfig::default();
        let mut net = mlp(cfg, &[16, 16], &mut rng());
        check_model(&mut net, cfg);
    }

    #[test]
    fn mini_resnet_shapes_and_gradients() {
        let cfg = ModelConfig::default();
        let mut net = mini_resnet(cfg, 1, &mut rng());
        check_model(&mut net, cfg);
    }

    #[test]
    fn mini_vgg_shapes_and_gradients() {
        let cfg = ModelConfig::default();
        let mut net = mini_vgg(cfg, &mut rng());
        check_model(&mut net, cfg);
    }

    #[test]
    fn mini_mobilenet_shapes_and_gradients() {
        let cfg = ModelConfig::default();
        let mut net = mini_mobilenet(cfg, &mut rng());
        check_model(&mut net, cfg);
    }

    #[test]
    fn deeper_resnet_preset_works_on_16px() {
        let cfg = ModelConfig {
            classes: 50,
            input_hw: 16,
            width: 8,
            in_channels: 3,
        };
        let mut net = mini_resnet(cfg, 2, &mut rng());
        check_model(&mut net, cfg);
    }

    #[test]
    fn vgg_is_the_largest_model() {
        // Mirrors the paper's size ordering: VGG19BN >> MobileNetV2 > ResNet20.
        let cfg = ModelConfig::default();
        let r = scalars(&mini_resnet(cfg, 1, &mut rng()));
        let m = scalars(&mini_mobilenet(cfg, &mut rng()));
        let v = scalars(&mini_vgg(cfg, &mut rng()));
        assert!(v > m, "vgg {v} should exceed mobilenet {m}");
        assert!(m > r, "mobilenet {m} should exceed resnet {r}");
    }

    #[test]
    fn model_kind_builds_all_families() {
        let cfg = ModelConfig::default();
        for kind in [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg] {
            let net = kind.build(cfg, &mut rng());
            assert!(scalars(&net) > 0);
            assert!(!kind.paper_name().is_empty());
        }
    }

    #[test]
    fn seeded_builders_are_deterministic() {
        let cfg = ModelConfig::default();
        let a = mini_resnet(cfg, 1, &mut rng()).params();
        let b = mini_resnet(cfg, 1, &mut rng()).params();
        assert_eq!(a, b);
    }
}
