//! GEMM throughput sweep over preset-scale products, not just the square
//! 256³ headline product, followed by the direct convolution kernels on
//! every conv layer the C10 models run.
//!
//! Each GEMM shape is timed under every kernel variant — `reference` (the
//! blocked oracle), `scalar` (portable packed kernel), `avx2fma` (forced
//! SIMD; silently identical to scalar on hardware without AVX2+FMA, the
//! `kernel_ran` extra records what actually ran, and `lane_width` the
//! chains per vector it ran at: 16 for the fused kernel on an AVX-512F
//! CPU, else 8). Conv-as-im2col GEMMs are
//! skinny (m = out-channels ≤ 16) with fat panel dims, which stresses the
//! edge-tile and packing paths very differently from a square matmul.
//!
//! The conv rows are read off a recorded train-mode forward tape of each
//! C10 model (ResNet, MobileNet, VGG) at the training batch of 32, so they
//! cannot drift from the layers the models actually run. Each distinct
//! layer is timed through the direct kernels — forward, weight gradient
//! and input gradient (`*_fwd`, `*_dw`, `*_dx`), each credited with its
//! layer's GEMM flops; the `count` extra says how many of the model's
//! convs share the shape. Each distinct depthwise layer is timed the same
//! way (`*_depthwise_<c>ch_k<k>s<s>_<h>x<w>_{fwd,dw,dx}`), each pass
//! credited with `2·n·c·oh·ow·k²` flops. The batch-norm rows come off the
//! same tapes:
//! each distinct train-mode batch norm's forward and backward kernels
//! (`*_bn_fwd`, `*_bn_bwd`) with a GB/s figure that counts one read of
//! each tensor-sized input and one write of each tensor-sized output
//! (forward `x` → `out`, `x̂`; backward `dY`, `x̂` → `dX`). The last row,
//! `pool_lease_held1024`, is one lease and recycle against a scratch pool
//! holding its cap of 1024 buffers, none of exactly the leased size.
//! Writes `results/BENCH_gemm.json` with a GFLOP/s or GB/s figure per row
//! (override the path with `HERO_BENCH_OUT`).

use hero_autodiff::{Graph, NodeTrace, TraceOp};
use hero_bench::timing::{bench_out_path, default_budget, time_op, write_json, BenchRow};
use hero_core::experiment::model_config;
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_tensor::pool::MAX_HELD;
use hero_tensor::rng::StdRng;
use hero_tensor::{
    active_gemm_kernel, force_gemm_kernel, lane_width, matmul_reference, ConvGeometry, GemmKernel,
    ScratchPool, Tensor,
};

/// Named GEMM shapes `(name, m, n, k)`.
///
/// The conv rows are im2col GEMMs `(out_c, N·oh·ow, in_c·k·k)` at batch
/// 16; the `grad_w` row is the backward dW product of the same layer,
/// whose reduction runs over the long spatial dimension instead.
const SHAPES: [(&str, usize, usize, usize); 6] = [
    ("matmul_256x256x256", 256, 256, 256),
    // resnet: 8→8ch 3×3 stage conv on 8×8.
    ("resnet_stage_conv", 8, 1024, 72),
    // resnet stage conv backward: dW = dY·colsᵀ (reduction over N·oh·ow).
    ("resnet_stage_conv_grad_w", 8, 72, 1024),
    // mobilenet: 8→16ch 1×1 pointwise conv on 8×8.
    ("mobilenet_pointwise_conv", 16, 1024, 8),
    // vgg: 16→16ch 3×3 conv on 8×8 (the fattest conv panel at this scale).
    ("vgg_conv", 16, 1024, 144),
    // square FC head (vgg-style) at batch 16.
    ("fc_head", 16, 256, 256),
];

/// Batch of the conv rows: the C10 training batch.
const CONV_BATCH: usize = 32;

/// One conv layer of a model: batch, in and out channels, input height
/// and width, and window geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ConvLayer {
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
}

impl ConvLayer {
    /// Row name, e.g. `resnet_8to16_k1s2_4x4`.
    fn name(&self, model: &str) -> String {
        let g = &self.geom;
        format!(
            "{model}_{}to{}_k{}s{}_{}x{}",
            self.c, self.oc, g.kernel, g.stride, self.h, self.w
        )
    }
}

/// A train-mode forward tape of `kind`'s C10 model at batch
/// [`CONV_BATCH`].
fn model_tape(kind: ModelKind) -> Vec<NodeTrace> {
    let cfg = model_config(Preset::C10);
    let mut net = kind.build(cfg, &mut StdRng::seed_from_u64(0));
    let x = Tensor::zeros([CONV_BATCH, cfg.in_channels, cfg.input_hw, cfg.input_hw]);
    let mut g = Graph::new();
    net.forward(&mut g, &x).expect("model forward");
    g.trace()
}

/// Adds one sighting of `layer` to a tape-ordered list of distinct layers
/// with their counts.
fn tally<T: PartialEq>(layers: &mut Vec<(T, usize)>, layer: T) {
    match layers.iter_mut().find(|(l, _)| *l == layer) {
        Some((_, count)) => *count += 1,
        None => layers.push((layer, 1)),
    }
}

/// The distinct conv layers of a model tape, in tape order, each with how
/// many of the model's convs share it. The input's shape comes from the
/// conv node's first parent, the output channels from its own shape.
fn model_convs(tape: &[NodeTrace]) -> Vec<(ConvLayer, usize)> {
    let mut layers: Vec<(ConvLayer, usize)> = Vec::new();
    for node in tape {
        let TraceOp::Conv2d { geom } = node.op else {
            continue;
        };
        let input = &tape[node.parents[0]].shape;
        let layer = ConvLayer {
            n: input[0],
            c: input[1],
            oc: node.shape[1],
            h: input[2],
            w: input[3],
            geom,
        };
        tally(&mut layers, layer);
    }
    layers
}

/// The distinct depthwise layers of a model tape, in tape order, with
/// their counts: input shape `(n, c, h, w)` and window geometry.
fn model_depthwise(tape: &[NodeTrace]) -> Vec<((Vec<usize>, ConvGeometry), usize)> {
    let mut layers = Vec::new();
    for node in tape {
        if let TraceOp::DepthwiseConv2d { geom } = node.op {
            tally(&mut layers, (tape[node.parents[0]].shape.clone(), geom));
        }
    }
    layers
}

/// The distinct batch-norm input shapes `(n, c, h, w)` of a model tape,
/// in tape order, with their counts.
fn model_batch_norms(tape: &[NodeTrace]) -> Vec<(Vec<usize>, usize)> {
    let mut layers = Vec::new();
    for node in tape
        .iter()
        .filter(|node| matches!(node.op, TraceOp::BatchNorm { .. }))
    {
        tally(&mut layers, tape[node.parents[0]].shape.clone());
    }
    layers
}

fn operand(dims: [usize; 2], salt: usize) -> Tensor {
    Tensor::from_fn(dims, |i| {
        ((i[0] * 31 + i[1] * 13 + salt * 17) % 23) as f32 / 11.0 - 1.0
    })
}

/// Attaches the GFLOP/s figure implied by the median iteration time.
fn with_gflops(row: BenchRow, m: usize, n: usize, k: usize) -> BenchRow {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let gflops = flops / row.ns_per_iter; // flops/ns ≡ GFLOP/s
    row.with_extra("gflops", gflops)
}

fn main() {
    hero_obs::disable();
    let budget = default_budget();
    let mut rows = Vec::new();

    for &(name, m, n, k) in &SHAPES {
        let a = operand([m, k], m + k);
        let b = operand([k, n], k + n);

        let row = time_op(&format!("{name}_reference"), budget, || {
            std::hint::black_box(matmul_reference(&a, &b).unwrap());
        });
        rows.push(with_gflops(row, m, n, k));

        for forced in [GemmKernel::Scalar, GemmKernel::Avx2Fma] {
            force_gemm_kernel(Some(forced));
            let active = active_gemm_kernel(); // records SIMD fallback
            let row = time_op(&format!("{name}_{}", forced.name()), budget, || {
                std::hint::black_box(a.matmul(&b).unwrap());
            });
            rows.push(
                with_gflops(row, m, n, k)
                    .with_extra("kernel_ran", (active == GemmKernel::Avx2Fma) as u64 as f64)
                    .with_extra("lane_width", lane_width() as f64),
            );
            force_gemm_kernel(None);
        }
    }

    // The direct conv kernels on each model's conv layers, under the
    // auto-detected kernel.
    let models = [
        ("resnet", ModelKind::Resnet),
        ("mobilenet", ModelKind::Mobilenet),
        ("vgg", ModelKind::Vgg),
    ];
    for (model, kind) in models {
        let tape = model_tape(kind);
        for (layer, count) in model_convs(&tape) {
            let ConvLayer {
                n,
                c,
                oc,
                h,
                w,
                geom,
            } = layer;
            let name = layer.name(model);
            let (oh, ow) = geom.out_hw();
            let k = geom.kernel;
            let x = Tensor::from_fn([n, c, h, w], |i| {
                ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
            });
            let wt = operand([oc, c * k * k], 3);
            let dy = Tensor::from_fn([n, oc, oh, ow], |i| {
                ((i[0] * 5 + i[1] * 3 + i[2] * 7 + i[3]) % 13) as f32 / 6.0 - 1.0
            });
            let (m, sites, taps) = (oc, n * oh * ow, c * k * k);
            let passes: [(&str, &dyn Fn() -> Tensor); 3] = [
                ("fwd", &|| x.conv2d(&wt, &geom).unwrap()),
                ("dw", &|| dy.conv2d_grad_weight(&x, &geom).unwrap()),
                ("dx", &|| dy.conv2d_grad_input(&wt, &geom).unwrap()),
            ];
            for (pass, run) in passes {
                let row = time_op(&format!("{name}_{pass}"), budget, || {
                    std::hint::black_box(run());
                });
                rows.push(with_gflops(row, m, sites, taps).with_extra("count", count as f64));
            }
        }
        for ((dims, geom), count) in model_depthwise(&tape) {
            let [n, c, h, w] = dims[..] else {
                panic!("depthwise input {dims:?} is not NCHW");
            };
            let (k, (oh, ow)) = (geom.kernel, geom.out_hw());
            let name = format!("{model}_depthwise_{c}ch_k{k}s{}_{h}x{w}", geom.stride);
            let x = Tensor::from_fn([n, c, h, w], |i| {
                ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
            });
            let wt = Tensor::from_fn([c, k, k], |i| {
                ((i[0] * 3 + i[1] * 5 + i[2]) % 11) as f32 / 5.0 - 1.0
            });
            let dy = Tensor::from_fn([n, c, oh, ow], |i| {
                ((i[0] * 5 + i[1] * 3 + i[2] * 7 + i[3]) % 13) as f32 / 6.0 - 1.0
            });
            let passes: [(&str, &dyn Fn() -> Tensor); 3] = [
                ("fwd", &|| x.depthwise_conv2d(&wt, &geom).unwrap()),
                ("dw", &|| {
                    dy.depthwise_conv2d_grad_weight(&x, &geom).unwrap()
                }),
                ("dx", &|| {
                    dy.depthwise_conv2d_grad_input(&wt, &geom).unwrap()
                }),
            ];
            for (pass, run) in passes {
                let row = time_op(&format!("{name}_{pass}"), budget, || {
                    std::hint::black_box(run());
                });
                rows.push(
                    with_gflops(row, c, n * oh * ow, k * k).with_extra("count", count as f64),
                );
            }
        }
        for (dims, count) in model_batch_norms(&tape) {
            let [n, c, h, w] = dims[..] else {
                panic!("batch norm input {dims:?} is not NCHW");
            };
            let name = format!("{model}_bn_{c}ch_{h}x{w}");
            let x = Tensor::from_fn([n, c, h, w], |i| {
                ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
            });
            let dy = Tensor::from_fn([n, c, h, w], |i| {
                ((i[0] * 5 + i[1] * 3 + i[2] * 7 + i[3]) % 13) as f32 / 6.0 - 1.0
            });
            let gamma = Tensor::from_fn([c], |i| 0.5 + (i[0] % 5) as f32 / 4.0);
            let beta = Tensor::from_fn([c], |i| (i[0] % 3) as f32 / 2.0 - 0.5);
            let saved = x.batch_norm_train(&gamma, &beta, 1e-5).unwrap();
            let passes: [(&str, &dyn Fn()); 2] = [
                ("fwd", &|| {
                    std::hint::black_box(x.batch_norm_train(&gamma, &beta, 1e-5).unwrap());
                }),
                ("bwd", &|| {
                    std::hint::black_box(
                        dy.batch_norm_backward(&saved.xhat, &gamma, &saved.inv_std)
                            .unwrap(),
                    );
                }),
            ];
            let bytes = 3.0 * x.numel() as f64 * 4.0;
            for (pass, run) in passes {
                let row = time_op(&format!("{name}_{pass}"), budget, run);
                let gbps = bytes / row.ns_per_iter; // bytes/ns ≡ GB/s
                rows.push(
                    row.with_extra("gbps", gbps)
                        .with_extra("count", count as f64),
                );
            }
        }
    }

    // One best-fit lease against a full free list: capacities 16..2048
    // floats in steps of 16, eight buffers each; 1000 fits none exactly.
    let mut pool = ScratchPool::new();
    for i in 0..MAX_HELD {
        pool.recycle(Vec::with_capacity(16 * (1 + i % 128)));
    }
    let row = time_op("pool_lease_held1024", budget, || {
        let buf = pool.lease(std::hint::black_box(1000));
        pool.recycle(buf);
    });
    rows.push(row.with_extra("held", pool.stats().held as f64));

    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_gemm.json"
    ));
    write_json(out, &rows).expect("write results");
}
