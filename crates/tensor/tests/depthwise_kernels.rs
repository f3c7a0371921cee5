//! Bitwise corpus for the depthwise convolution kernels
//! (`Tensor::depthwise_conv2d`, `depthwise_conv2d_grad_input`,
//! `depthwise_conv2d_grad_weight`).
//!
//! The oracle is the plain loop nest: per `(image, channel)` plane and
//! output site in ascending `(oy, ox)` order, its real taps in ascending
//! `(ky, kx)` order. The forward adds `x·w` into an output that starts at
//! +0.0; the backward skips `dY == 0` sites and scatters `dY·w` into dX and
//! `dY·x` into dW, both zeroed. Every check runs under both forced GEMM
//! kernels and at 1–3 worker threads. Cases cover MobileNet's five
//! depthwise layers at batch 8, 32, 64 and 65 (65 crosses a fold chunk),
//! 3 and 13 channels (off the lane width), kernels 1/3/5, strides 1–3,
//! padding 0–2, 1×1 and empty planes, layers large enough for the worker
//! pool to split, an empty batch, ±inf and NaN in `x`,
//! `w` and `dY` next to the padding, and sparse `dY` with exact zeros and
//! −0.0. A release-only sweep (`#[ignore]`d; run with
//! `cargo test --release -p hero-tensor --test depthwise_kernels --
//! --include-ignored`) adds seeded geometries up to batch 70 and 96
//! channels.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{force_gemm_kernel, set_gemm_threads, ConvGeometry, GemmKernel, Tensor};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests that touch the process-wide kernel/thread overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

struct OverrideGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        force_gemm_kernel(None);
        set_gemm_threads(None);
    }
}

fn lock_overrides() -> OverrideGuard {
    OverrideGuard(OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner))
}

/// One depthwise convolution: batch, channels, input height and width,
/// kernel, stride, padding.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
}

/// A [`Case`] from its fields in declaration order.
const fn case(n: usize, c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Case {
    Case {
        n,
        c,
        h,
        w,
        k,
        s,
        p,
    }
}

impl Case {
    fn geom(&self) -> ConvGeometry {
        ConvGeometry::new(self.h, self.w, self.k, self.s, self.p).unwrap()
    }

    fn dims(&self) -> ([usize; 4], [usize; 3], [usize; 4]) {
        let (oh, ow) = self.geom().out_hw();
        (
            [self.n, self.c, self.h, self.w],
            [self.c, self.k, self.k],
            [self.n, self.c, oh, ow],
        )
    }
}

/// MobileNet's depthwise layers `(channels, side, stride)`: the 3×3, pad 1
/// convolution of each of the C10 model's five inverted-residual blocks.
const MOBILENET: [(usize, usize, usize); 5] =
    [(8, 8, 1), (32, 8, 2), (64, 4, 1), (64, 4, 2), (96, 2, 1)];

/// Seeded uniform values in [−1, 1).
fn seeded(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

/// Forward, dX and dW through the loop nest.
fn loop_nest(case: &Case, x: &Tensor, w: &Tensor, dy: &Tensor) -> [Vec<f32>; 3] {
    let Case {
        n,
        c,
        h,
        w: iw,
        k,
        s,
        p,
    } = *case;
    let (oh, ow) = case.geom().out_hw();
    let (xd, wd, gd) = (x.data(), w.data(), dy.data());
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut dx = vec![0.0f32; n * c * h * iw];
    let mut dw = vec![0.0f32; c * k * k];
    for plane in 0..n * c {
        let ch = plane % c;
        for oy in 0..oh {
            for ox in 0..ow {
                let oi = (plane * oh + oy) * ow + ox;
                let g = gd[oi];
                for ky in 0..k {
                    for kx in 0..k {
                        let (y, xx) = (
                            (oy * s + ky) as isize - p as isize,
                            (ox * s + kx) as isize - p as isize,
                        );
                        if y < 0 || y >= h as isize || xx < 0 || xx >= iw as isize {
                            continue;
                        }
                        let xi = (plane * h + y as usize) * iw + xx as usize;
                        let wi = (ch * k + ky) * k + kx;
                        out[oi] += xd[xi] * wd[wi];
                        if g != 0.0 {
                            dx[xi] += g * wd[wi];
                            dw[wi] += g * xd[xi];
                        }
                    }
                }
            }
        }
    }
    [out, dx, dw]
}

/// Forward, dX and dW through the kernels.
fn kernels(case: &Case, x: &Tensor, w: &Tensor, dy: &Tensor) -> [Vec<f32>; 3] {
    let geom = case.geom();
    [
        x.depthwise_conv2d(w, &geom).unwrap().data().to_vec(),
        dy.depthwise_conv2d_grad_input(w, &geom)
            .unwrap()
            .data()
            .to_vec(),
        dy.depthwise_conv2d_grad_weight(x, &geom)
            .unwrap()
            .data()
            .to_vec(),
    ]
}

/// Checks every kernel of `case` against the loop nest, under both GEMM
/// kernels and 1–3 threads. NaNs compare equal to each other (their payload
/// bits are not part of the contract); everything else to the bit.
fn check(case: &Case, x: &Tensor, w: &Tensor, dy: &Tensor) {
    let want = loop_nest(case, x, w, dy);
    for kernel in [GemmKernel::Scalar, GemmKernel::Avx2Fma] {
        force_gemm_kernel(Some(kernel));
        for threads in 1..=3 {
            set_gemm_threads(Some(threads));
            let got = kernels(case, x, w, dy);
            for (what, (g, w)) in ["forward", "dX", "dW"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(g.len(), w.len(), "{case:?} {what}");
                for (i, (&gv, &wv)) in g.iter().zip(w).enumerate() {
                    assert!(
                        gv.to_bits() == wv.to_bits() || (gv.is_nan() && wv.is_nan()),
                        "{case:?} {} threads={threads} {what} idx {i}: {gv:e} vs {wv:e}",
                        kernel.name()
                    );
                }
            }
        }
    }
}

/// Checks `case` on seeded operands, with a fifth of `dY` set to exact
/// zeros of either sign (the backward skips them).
fn check_seeded(case: &Case, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (xd, wd, yd) = case.dims();
    let x = seeded(&xd, &mut rng);
    let w = seeded(&wd, &mut rng);
    let dy = seeded(&yd, &mut rng).map(|v| match v {
        v if v > 0.8 => 0.0,
        v if v < -0.8 => -0.0,
        v => v,
    });
    check(case, &x, &w, &dy);
}

/// Seeded geometries: kernels 1/3/5, strides 1–3, padding 0–2, sides from
/// 1 to `side_max`, batches up to `n_max`, up to `c_max` channels.
fn seeded_cases(seed: u64, count: usize, n_max: usize, c_max: usize, side_max: usize) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let case = Case {
            n: rng.gen_range(1..n_max + 1),
            c: rng.gen_range(1..c_max + 1),
            h: rng.gen_range(1..side_max + 1),
            w: rng.gen_range(1..side_max + 1),
            k: [1, 3, 5][rng.gen_range(0..3usize)],
            s: rng.gen_range(1..4usize),
            p: rng.gen_range(0..3usize),
        };
        if case.k <= case.h + 2 * case.p && case.k <= case.w + 2 * case.p {
            out.push(case);
        }
    }
    out
}

#[test]
fn mobilenet_layers_match_the_loop_nest_bitwise() {
    let _guard = lock_overrides();
    for n in [8, 32, 64, 65] {
        for (i, &(c, side, s)) in MOBILENET.iter().enumerate() {
            check_seeded(&case(n, c, side, side, 3, s, 1), (n * 10 + i) as u64);
        }
    }
}

#[test]
fn seeded_geometries_match_the_loop_nest_bitwise() {
    let _guard = lock_overrides();
    for (i, case) in seeded_cases(0xD3E9, 40, 5, 20, 9).iter().enumerate() {
        check_seeded(case, 100 + i as u64);
    }
}

#[test]
fn odd_shapes_match_the_loop_nest_bitwise() {
    let _guard = lock_overrides();
    let mut cases = Vec::new();
    // Channels off the lane width, every kernel, stride and padding.
    for c in [3, 13] {
        for k in [1, 3, 5] {
            for s in 1..=3 {
                for p in 0..=2 {
                    cases.push(case(2, c, 7, 6, k, s, p));
                }
            }
        }
    }
    // 1×1 planes (all border), a 1-wide strip, planes that stride past
    // their last column, MobileNet's block shapes at batch 1, and two
    // layers above the worker pool's 4 Mi-flop threshold, so 2 and 3
    // threads split them.
    cases.extend([
        case(3, 13, 1, 1, 3, 1, 1),
        case(2, 3, 1, 1, 1, 1, 0),
        case(2, 5, 1, 1, 5, 2, 2),
        case(2, 9, 1, 11, 3, 2, 1),
        case(3, 4, 9, 9, 1, 3, 0),
        case(1, 8, 8, 8, 3, 1, 1),
        case(1, 96, 2, 2, 3, 1, 1),
        case(16, 64, 16, 16, 3, 1, 1),
        case(32, 48, 16, 16, 5, 2, 2),
    ]);
    for (i, case) in cases.iter().enumerate() {
        check_seeded(case, 200 + i as u64);
    }
}

#[test]
fn small_geometries_match_the_loop_nest_bitwise() {
    let _guard = lock_overrides();
    // MobileNet's 8/4/2 planes, strided, unpadded, wide-padded, 1×1 and
    // all-border shapes at 3 channels.
    for (i, &(h, w, k, s, p)) in [
        (8, 8, 3, 1, 1),
        (8, 8, 3, 2, 1),
        (4, 4, 3, 2, 1),
        (2, 2, 3, 1, 1),
        (5, 7, 3, 2, 0),
        (6, 6, 5, 1, 2),
        (3, 3, 1, 1, 0),
        (4, 4, 1, 2, 1),
        (1, 1, 3, 1, 2),
    ]
    .iter()
    .enumerate()
    {
        check_seeded(&case(2, 3, h, w, k, s, p), 300 + i as u64);
    }
}

#[test]
fn empty_batches_and_planes_give_zeros() {
    let _guard = lock_overrides();
    // No images; and planes with no pixel, where every tap is padding.
    for case in [
        case(0, 4, 4, 4, 3, 1, 1),
        case(2, 3, 0, 0, 1, 1, 1),
        case(2, 3, 0, 2, 3, 2, 2),
    ] {
        check_seeded(&case, 400);
    }
}

/// Operands of `case` with non-finite values planted at `x`, `w` and `dY`
/// positions that meet the padding: the first and last pixel of every
/// plane, the corner weights, and border output sites.
fn non_finite(case: &Case, seed: u64, values: [f32; 3]) -> (Tensor, Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (xd, wd, yd) = case.dims();
    let mut x = seeded(&xd, &mut rng);
    let mut w = seeded(&wd, &mut rng);
    let mut dy = seeded(&yd, &mut rng);
    let [vx, vw, vy] = values;
    let hw = case.h * case.w;
    for plane in x.data_mut().chunks_exact_mut(hw).step_by(2) {
        plane[0] = vx;
        plane[hw - 1] = vx;
    }
    let kk = case.k * case.k;
    for (ch, taps) in w.data_mut().chunks_exact_mut(kk).enumerate() {
        taps[if ch % 2 == 0 { 0 } else { kk - 1 }] = vw;
    }
    let ohw = yd[2] * yd[3];
    for (i, plane) in dy.data_mut().chunks_exact_mut(ohw).enumerate() {
        plane[i % ohw] = vy;
        plane[ohw - 1] = vy;
    }
    (x, w, dy)
}

#[test]
fn non_finite_values_meet_padding_and_zeros_as_the_loop_nest_does() {
    let _guard = lock_overrides();
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let cases = [
        case(3, 9, 8, 8, 3, 1, 1),
        case(2, 11, 8, 8, 3, 2, 1),
        case(3, 8, 2, 2, 3, 1, 1),
        case(2, 5, 5, 6, 5, 2, 2),
        case(2, 3, 3, 3, 1, 2, 1),
    ];
    for (i, case) in cases.iter().enumerate() {
        for values in [
            [inf, 1.0, 1.0],
            [1.0, inf, 1.0],
            [1.0, 1.0, inf],
            [-inf, -inf, inf],
            [nan, 1.0, 1.0],
            [1.0, nan, 1.0],
            [1.0, 1.0, nan],
        ] {
            let (x, w, mut dy) = non_finite(case, 500 + i as u64, values);
            check(case, &x, &w, &dy);
            // Exact zeros of either sign in `dY` next to infinite `x` and
            // `w`: the loop nest skips them, so no NaN may appear.
            for (j, v) in dy.data_mut().iter_mut().enumerate() {
                if j % 3 == 0 {
                    *v = if j % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            check(case, &x, &w, &dy);
        }
    }
}

#[test]
fn negative_zeros_stay_as_the_loop_nest_leaves_them() {
    let _guard = lock_overrides();
    // All −0.0 operands: every product is ±0.0, and every output of the
    // loop nest stays +0.0.
    for case in [case(2, 9, 4, 4, 3, 1, 1), case(2, 9, 5, 5, 3, 2, 0)] {
        let (xd, wd, yd) = case.dims();
        let x = Tensor::full(xd, -0.0);
        let w = Tensor::full(wd, -0.0);
        check(&case, &x, &w, &Tensor::full(yd, -0.0));
        check(&case, &x, &w, &Tensor::full(yd, 1.0));
    }
}

#[test]
fn kernels_validate_shapes() {
    let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
    let x = Tensor::zeros([2, 3, 4, 4]);
    let w = Tensor::zeros([3, 3, 3]);
    let dy = Tensor::zeros([2, 3, 4, 4]);
    assert!(x
        .depthwise_conv2d(&Tensor::zeros([2, 3, 3]), &geom)
        .is_err());
    assert!(x.depthwise_conv2d(&Tensor::zeros([3, 9]), &geom).is_err());
    assert!(Tensor::zeros([3, 4, 4])
        .depthwise_conv2d(&w, &geom)
        .is_err());
    assert!(Tensor::zeros([2, 3, 5, 4])
        .depthwise_conv2d(&w, &geom)
        .is_err());
    assert!(dy
        .depthwise_conv2d_grad_input(&Tensor::zeros([3, 2, 2]), &geom)
        .is_err());
    assert!(Tensor::zeros([2, 3, 3, 4])
        .depthwise_conv2d_grad_input(&w, &geom)
        .is_err());
    assert!(dy
        .depthwise_conv2d_grad_weight(&Tensor::zeros([2, 4, 4, 4]), &geom)
        .is_err());
    assert!(dy
        .depthwise_conv2d_grad_weight(&Tensor::zeros([1, 3, 4, 4]), &geom)
        .is_err());
    assert!(Tensor::zeros([2, 3, 4])
        .depthwise_conv2d_grad_weight(&x, &geom)
        .is_err());
}

#[test]
#[ignore = "release-only: cargo test --release -p hero-tensor --test depthwise_kernels -- --include-ignored"]
fn large_seeded_geometries_match_the_loop_nest_bitwise() {
    let _guard = lock_overrides();
    for (i, case) in seeded_cases(0xD3EA, 120, 70, 96, 16).iter().enumerate() {
        check_seeded(case, 1000 + i as u64);
    }
}
