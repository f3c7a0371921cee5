//! GEMM throughput sweep over the *real* layer shapes of the experiment
//! presets (resnet / mobilenet / vgg at the `model_config` scale: width 8,
//! 8×8 inputs, batch 16), not just the square 256³ headline product.
//! Conv-as-im2col GEMMs are skinny (m = out-channels ≤ 16) with fat panel
//! dims, which stresses the edge-tile and packing paths very differently
//! from a square matmul.
//!
//! Each shape is timed under every kernel variant — `reference` (the
//! blocked oracle), `scalar` (portable packed kernel), `avx2fma` (forced
//! SIMD; silently identical to scalar on hardware without AVX2+FMA, the
//! `kernel` extra records what actually ran). Each preset conv layer is
//! then timed through the direct convolution kernels that training runs
//! — forward, weight gradient and input gradient (`*_fwd`, `*_dw`,
//! `*_dx`), each credited with its layer's GEMM flops. Writes
//! `results/BENCH_gemm.json` with a GFLOP/s figure per row (override the
//! path with `HERO_BENCH_OUT`).

use hero_bench::timing::{bench_out_path, default_budget, time_op, write_json, BenchRow};
use hero_tensor::{
    active_gemm_kernel, force_gemm_kernel, matmul_reference, ConvGeometry, GemmKernel, Tensor,
};

/// Named layer shapes `(name, m, n, k)` of the preset models.
///
/// Conv layers appear as their im2col GEMM `(out_c, N·oh·ow, in_c·k·k)`;
/// the `grad_w` row is the backward dW product of the same layer, whose
/// reduction runs over the long spatial dimension instead.
const SHAPES: [(&str, usize, usize, usize); 9] = [
    ("matmul_256x256x256", 256, 256, 256),
    // resnet: 3→8ch 3×3 stem on 8×8, batch 16.
    ("resnet_stem_conv", 8, 1024, 27),
    // resnet: 8→8ch 3×3 stage conv on 8×8.
    ("resnet_stage_conv", 8, 1024, 72),
    // resnet: 8→16ch stride-2 transition (8×8 → 4×4).
    ("resnet_transition_conv", 16, 256, 72),
    // resnet/vgg: 16→16ch 3×3 conv on 4×4.
    ("resnet_stage2_conv", 16, 256, 144),
    // resnet stage conv backward: dW = dY·colsᵀ (reduction over N·oh·ow).
    ("resnet_stage_conv_grad_w", 8, 72, 1024),
    // mobilenet: 8→16ch 1×1 pointwise conv on 8×8.
    ("mobilenet_pointwise_conv", 16, 1024, 8),
    // vgg: 16→16ch 3×3 conv on 8×8 (the fattest conv panel at this scale).
    ("vgg_conv", 16, 1024, 144),
    // square FC head (vgg-style) at batch 16.
    ("fc_head", 16, 256, 256),
];

/// A conv layer: `(name, batch, in_c, out_c, side, kernel, stride, pad)`.
type ConvLayer = (
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// The preset conv layers above.
const CONVS: [ConvLayer; 6] = [
    ("resnet_stem_conv", 16, 3, 8, 8, 3, 1, 1),
    ("resnet_stage_conv", 16, 8, 8, 8, 3, 1, 1),
    ("resnet_transition_conv", 16, 8, 16, 8, 3, 2, 1),
    ("resnet_stage2_conv", 16, 16, 16, 4, 3, 1, 1),
    ("mobilenet_pointwise_conv", 16, 8, 16, 8, 1, 1, 0),
    ("vgg_conv", 16, 16, 16, 8, 3, 1, 1),
];

fn operand(dims: [usize; 2], salt: usize) -> Tensor {
    Tensor::from_fn(dims, |i| {
        ((i[0] * 31 + i[1] * 13 + salt * 17) % 23) as f32 / 11.0 - 1.0
    })
}

/// Attaches the GFLOP/s figure implied by the mean iteration time.
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
                    .with_extra("kernel_ran", (active == GemmKernel::Avx2Fma) as u64 as f64),
            );
            force_gemm_kernel(None);
        }
    }

    // The direct conv kernels on each preset layer, under the
    // auto-detected kernel.
    for &(name, n, c, oc, side, k, stride, pad) in &CONVS {
        let geom = ConvGeometry::new(side, side, k, stride, pad).unwrap();
        let (oh, ow) = geom.out_hw();
        let x = Tensor::from_fn([n, c, side, side], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 17) as f32 / 8.0 - 1.0
        });
        let w = operand([oc, c * k * k], 3);
        let dy = Tensor::from_fn([n, oc, oh, ow], |i| {
            ((i[0] * 5 + i[1] * 3 + i[2] * 7 + i[3]) % 13) as f32 / 6.0 - 1.0
        });
        let (m, sites, taps) = (oc, n * oh * ow, c * k * k);
        let row = time_op(&format!("{name}_fwd"), budget, || {
            std::hint::black_box(x.conv2d(&w, &geom).unwrap());
        });
        rows.push(with_gflops(row, m, sites, taps));
        let row = time_op(&format!("{name}_dw"), budget, || {
            std::hint::black_box(dy.conv2d_grad_weight(&x, &geom).unwrap());
        });
        rows.push(with_gflops(row, m, sites, taps));
        let row = time_op(&format!("{name}_dx"), budget, || {
            std::hint::black_box(dy.conv2d_grad_input(&w, &geom).unwrap());
        });
        rows.push(with_gflops(row, m, sites, taps));
    }

    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_gemm.json"
    ));
    write_json(out, &rows).expect("write results");
}
