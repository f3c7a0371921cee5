//! Bitwise corpus for the direct convolution kernels (`Tensor::conv2d`,
//! `conv2d_grad_weight`, `conv2d_grad_input`).
//!
//! Each kernel is compared bit for bit with the im2col lowering
//! (`hero_testkit::im2col`/`col2im`) whose
//! products it computes: forward against `im2col` + `matmul`, dW against
//! `matmul_nt` with the patch matrix, dX against `matmul_tn` + `col2im`.
//! Every check runs under both forced GEMM kernels and at 1–4 worker
//! threads. Seeded geometries cover kernels 1/3/5, strides 1–3, padding
//! 0–2, 1–40 channels, spatial sizes 1–9 and batches 1–5; fixed cases add
//! the preset layer shapes, every ResNet training layer at batch 32 (some
//! large enough to engage the worker pool), the spectrum probe's batch 64
//! (two fold chunks), `C·k·k` and `N·oh·ow` beyond the GEMM's 256-deep
//! reduction block, more than 256 output channels, a channel count that
//! leaves dX's last channel block part empty, a folded site grid that ends
//! inside a tile, and an empty batch.
//! Non-finite cases put infinities where padding or a neighbouring image
//! meets them. A release-only sweep (`#[ignore]`d; run with
//! `cargo test --release -p hero-tensor --test conv_kernels --
//! --include-ignored`) adds seeded geometries up to batch 64, side 16
//! and 50 MFLOP.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{force_gemm_kernel, set_gemm_threads, ConvGeometry, GemmKernel, Tensor};
use hero_testkit::{col2im, im2col};
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

/// One convolution: batch, input and output channels, input height and
/// width, kernel, stride, padding.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
}

impl Case {
    fn geom(&self) -> ConvGeometry {
        ConvGeometry::new(self.h, self.w, self.k, self.s, self.p).unwrap()
    }

    /// `2·out_c·(N·oh·ow)·(C·k·k)`, the flops of each of the three products.
    fn flops(&self) -> usize {
        let (oh, ow) = self.geom().out_hw();
        2 * self.oc * self.n * oh * ow * self.c * self.k * self.k
    }
}

/// Seeded uniform values in [−1, 1).
fn seeded(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

/// Swaps the two outer axes of an `a × b × inner` array: the reorder
/// between the lowering's `(out_c, N·oh·ow)` matrices and NCHW.
fn swap_outer(t: &[f32], a: usize, b: usize, inner: usize) -> Vec<f32> {
    let mut out = vec![0.0; t.len()];
    for i in 0..a {
        for j in 0..b {
            out[(j * a + i) * inner..][..inner].copy_from_slice(&t[(i * b + j) * inner..][..inner]);
        }
    }
    out
}

/// Forward, dW and dX through the im2col lowering.
fn lowered(case: &Case, x: &Tensor, w: &Tensor, dy: &Tensor) -> [Vec<f32>; 3] {
    let geom = case.geom();
    let (oh, ow) = geom.out_hw();
    let sites = case.n * oh * ow;
    let cols = im2col(x, &geom).unwrap();
    let fwd = w.matmul(&cols).unwrap();
    let dy2 = swap_outer(dy.data(), case.n, case.oc, oh * ow);
    let dy2 = Tensor::from_vec(dy2, [case.oc, sites]).unwrap();
    let dw = dy2.matmul_nt(&cols).unwrap();
    let dx = w.matmul_tn(&dy2).unwrap();
    let dx = col2im(&dx, &geom, case.n, case.c).unwrap();
    [
        swap_outer(fwd.data(), case.oc, case.n, oh * ow),
        dw.data().to_vec(),
        dx.data().to_vec(),
    ]
}

/// Forward, dW and dX through the direct kernels.
fn direct(case: &Case, x: &Tensor, w: &Tensor, dy: &Tensor) -> [Vec<f32>; 3] {
    let geom = case.geom();
    [
        x.conv2d(w, &geom).unwrap().data().to_vec(),
        dy.conv2d_grad_weight(x, &geom).unwrap().data().to_vec(),
        dy.conv2d_grad_input(w, &geom).unwrap().data().to_vec(),
    ]
}

/// Checks every kernel of `case` against the lowering, under both GEMM
/// kernels and 1–4 threads. NaNs compare equal to each other (their
/// payload bits are not part of the contract); everything else to the bit.
fn check(case: &Case, x: &Tensor, w: &Tensor, dy: &Tensor) {
    for kernel in [GemmKernel::Scalar, GemmKernel::Avx2Fma] {
        force_gemm_kernel(Some(kernel));
        set_gemm_threads(Some(1));
        let want = lowered(case, x, w, dy);
        for threads in 1..=4 {
            set_gemm_threads(Some(threads));
            let got = direct(case, x, w, dy);
            for (what, (g, w)) in ["forward", "dW", "dX"].iter().zip(got.iter().zip(&want)) {
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

/// [`check`] on seeded operands.
fn check_seeded(case: &Case, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (oh, ow) = case.geom().out_hw();
    let x = seeded(&[case.n, case.c, case.h, case.w], &mut rng);
    let w = seeded(&[case.oc, case.c * case.k * case.k], &mut rng);
    let dy = seeded(&[case.n, case.oc, oh, ow], &mut rng);
    check(case, &x, &w, &dy);
}

/// Checks `cases` seeded geometries drawn from `seed`: batches `1..n_max`,
/// sides `1..side_max`, at most `max_flops` per product.
fn check_seeded_sweep(seed: u64, cases: u64, n_max: usize, side_max: usize, max_flops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checked = 0;
    while checked < cases {
        let mut draw = |lo: usize, hi: usize| rng.gen_range(lo..hi);
        let k = [1, 3, 5][draw(0, 3)];
        let case = Case {
            n: draw(1, n_max),
            c: draw(1, 41),
            oc: draw(1, 41),
            h: draw(1, side_max),
            w: draw(1, side_max),
            k,
            s: draw(1, 4),
            p: draw(0, 3),
        };
        if k > case.h + 2 * case.p || k > case.w + 2 * case.p || case.flops() > max_flops {
            continue;
        }
        check_seeded(&case, checked);
        checked += 1;
    }
}

#[test]
fn seeded_geometries_match_the_im2col_lowering_bitwise() {
    let _g = lock_overrides();
    // Small enough to keep the unoptimized test build quick.
    check_seeded_sweep(0xC0_4E, 48, 6, 10, 400_000);
}

#[test]
#[ignore = "release-only: cargo test --release -p hero-tensor --test conv_kernels -- --include-ignored"]
fn large_seeded_geometries_match_the_im2col_lowering_bitwise() {
    // Batches up to 64 fold long site grids, and cases above 4 Mi flops
    // engage the worker pool.
    let _g = lock_overrides();
    check_seeded_sweep(0xB16_C04E, 64, 65, 17, 50_000_000);
}

#[test]
fn layer_shapes_match_the_im2col_lowering_bitwise() {
    let _g = lock_overrides();
    let case = |n, c, oc, hw, k, s, p| Case {
        n,
        c,
        oc,
        h: hw,
        w: hw,
        k,
        s,
        p,
    };
    let cases = [
        // ResNet stem, stride-1 stage conv (over the parallel threshold,
        // 4096 dW sites) and stride-2 transition with its 1×1 shortcut. At
        // batch 64, the spectrum probe's, the stage conv folds two chunks
        // of 32 images.
        case(2, 3, 8, 8, 3, 1, 1),
        case(64, 8, 8, 8, 3, 1, 1),
        case(4, 8, 16, 8, 3, 2, 1),
        case(4, 8, 16, 8, 1, 2, 0),
        // 2×2 spatial, where most taps are padding.
        case(4, 16, 16, 2, 3, 1, 1),
        // VGG's 32-channel 3×3 conv: 288 taps, two reduction blocks, and
        // over the parallel threshold.
        case(4, 32, 32, 8, 3, 1, 1),
        // MobileNet's 16→64 pointwise conv.
        case(4, 16, 64, 4, 1, 1, 0),
        // 5×5 kernel with 275 taps; stride 3 over a 1×1 kernel.
        case(2, 11, 5, 5, 5, 1, 2),
        case(2, 3, 4, 7, 1, 3, 1),
        // More output channels than one reduction block (dX chains).
        case(1, 2, 260, 3, 3, 1, 1),
        // A folded grid of 2·36 + 4·6 + 5 = 101 sites: the last tile is
        // part junk, past the end of the batch.
        case(3, 5, 6, 5, 3, 1, 1),
        // Five input channels: dX's last block of four holds one real
        // channel, at stride 1 over a chunk boundary and at stride 2.
        case(40, 5, 6, 6, 3, 1, 1),
        case(3, 5, 7, 7, 3, 2, 1),
        // The ResNet training layers at batch 32: stage 1's stride-2 conv
        // and 1×1 shortcut on 8×8, its 8→8 conv on 4×4; stage 2's 8→16
        // stride-2 conv and shortcut on 4×4, its 16→16 conv on 2×2.
        case(32, 8, 8, 8, 3, 2, 1),
        case(32, 8, 8, 8, 1, 2, 0),
        case(32, 8, 8, 4, 3, 1, 1),
        case(32, 8, 16, 4, 3, 2, 1),
        case(32, 8, 16, 4, 1, 2, 0),
        case(32, 16, 16, 2, 3, 1, 1),
        // Empty batch.
        case(0, 3, 4, 5, 3, 1, 1),
    ];
    for (i, c) in cases.iter().enumerate() {
        check_seeded(c, 100 + i as u64);
    }
}

#[test]
fn non_finite_values_meet_padding_as_zeros() {
    // The lowering multiplies padding in as zeros, so an infinite weight
    // or output gradient meeting padding yields NaN; a kernel that skipped
    // padding taps would report ±inf or a finite value there instead. dX
    // must also keep the NaNs its junk grid lanes compute (inf · 0) out of
    // real pixels.
    let _g = lock_overrides();
    let case = Case {
        n: 2,
        c: 2,
        oc: 3,
        h: 5,
        w: 5,
        k: 3,
        s: 1,
        p: 1,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let x = seeded(&[2, 2, 5, 5], &mut rng);
    let mut w = seeded(&[3, 18], &mut rng);
    // Tap (0, 0, 0) of output channel 0 reads padding along the top row
    // and the left column.
    w.data_mut()[0] = f32::INFINITY;
    let mut dy = seeded(&[2, 3, 5, 5], &mut rng);
    // Site (0, 0) of image 0, channel 0 reads padding on five taps.
    dy.data_mut()[0] = f32::INFINITY;
    check(&case, &x, &w, &dy);
}

#[test]
fn non_finite_values_stay_inside_their_image() {
    // On the folded grid image 0's last row and column sit next to junk
    // sites and image 1's first site. An infinity there must reach only
    // the elements the lowering sends it to: a junk lane's `inf · 0` NaN
    // must not leak into either image.
    let _g = lock_overrides();
    for s in [1, 2] {
        let case = Case {
            n: 3,
            c: 2,
            oc: 3,
            h: 6,
            w: 6,
            k: 3,
            s,
            p: 1,
        };
        let (oh, ow) = case.geom().out_hw();
        let mut rng = StdRng::seed_from_u64(11 + s as u64);
        let x = seeded(&[3, 2, 6, 6], &mut rng);
        let w = seeded(&[3, 18], &mut rng);
        let dy = seeded(&[3, 3, oh, ow], &mut rng);
        // Infinities in image 0's last row and column and at image 1's
        // first site, channel 0 of an `(n, ch, hh, ww)` tensor.
        let poke = |t: &Tensor, hh: usize, ww: usize| {
            let mut t = t.clone();
            let plane = t.dims()[1] * hh * ww;
            let data = t.data_mut();
            for i in 0..hh {
                data[i * ww + ww - 1] = f32::INFINITY;
            }
            for j in 0..ww {
                data[(hh - 1) * ww + j] = f32::INFINITY;
            }
            data[plane] = f32::INFINITY;
            t
        };
        check(&case, &poke(&x, 6, 6), &w, &dy);
        check(&case, &x, &w, &poke(&dy, oh, ow));
        // An infinite weight meets the junk lanes of every image.
        let mut wi = w.clone();
        wi.data_mut()[0] = f32::INFINITY;
        wi.data_mut()[2 * 18 - 1] = f32::NEG_INFINITY;
        check(&case, &x, &wi, &poke(&dy, oh, ow));
    }
}

#[test]
fn empty_planes_see_only_padding() {
    // A 0×0 input padded by 1 has a 2×2 output of padding-only sites: the
    // forward multiplies zeros in (NaN rows for an infinite weight, as in
    // the lowering), and dX is the empty `(N, C, 0, 0)`.
    let _g = lock_overrides();
    let case = Case {
        n: 2,
        c: 3,
        oc: 2,
        h: 0,
        w: 0,
        k: 1,
        s: 1,
        p: 1,
    };
    let mut rng = StdRng::seed_from_u64(13);
    let x = Tensor::zeros([2, 3, 0, 0]);
    let mut w = seeded(&[2, 3], &mut rng);
    let dy = seeded(&[2, 2, 2, 2], &mut rng);
    check(&case, &x, &w, &dy);
    w.data_mut()[0] = f32::INFINITY;
    check(&case, &x, &w, &dy);
    let geom = case.geom();
    let fwd = x.conv2d(&w, &geom).unwrap();
    assert_eq!(fwd.dims(), &[2, 2, 2, 2]);
    assert!(fwd.data()[..4].iter().all(|v| v.is_nan()));
    assert!(fwd.data()[4..8].iter().all(|&v| v == 0.0));
    let dx = dy.conv2d_grad_input(&w, &geom).unwrap();
    assert_eq!(dx.dims(), &[2, 3, 0, 0]);
}

#[test]
fn kernels_validate_shapes() {
    let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
    let x = Tensor::zeros([1, 2, 4, 4]);
    // Weight columns must be C·k·k = 18; input must be 4-D and match geom.
    assert!(x.conv2d(&Tensor::zeros([3, 17]), &geom).is_err());
    assert!(x.conv2d(&Tensor::zeros([18]), &geom).is_err());
    let w = Tensor::zeros([3, 18]);
    assert!(Tensor::zeros([2, 4, 4]).conv2d(&w, &geom).is_err());
    assert!(Tensor::zeros([1, 2, 5, 5]).conv2d(&w, &geom).is_err());
    // Output gradients must be (N, out_c, oh, ow) for the input's batch
    // and the weights' channel count.
    let dy = Tensor::zeros([1, 3, 4, 4]);
    assert!(dy.conv2d_grad_weight(&x, &geom).is_ok());
    assert!(Tensor::zeros([2, 3, 4, 4])
        .conv2d_grad_weight(&x, &geom)
        .is_err());
    assert!(Tensor::zeros([1, 3, 3, 4])
        .conv2d_grad_weight(&x, &geom)
        .is_err());
    assert!(dy.conv2d_grad_input(&w, &geom).is_ok());
    assert!(dy
        .conv2d_grad_input(&Tensor::zeros([4, 18]), &geom)
        .is_err());
    assert!(dy
        .conv2d_grad_input(&Tensor::zeros([3, 17]), &geom)
        .is_err());
    assert!(Tensor::zeros([3, 4, 4])
        .conv2d_grad_input(&w, &geom)
        .is_err());
}
