//! Kernel-equivalence corpus for the GEMM micro-kernel under both
//! kernels' lanes.
//!
//! # Bitwise contract (both kernel variants)
//!
//! * **Every kernel vs an FMA-chain model — bitwise.** Both kernels step
//!   with one correctly rounded fused multiply-add (`vfmadd231ps` on the
//!   fused lanes, `f32::mul_add` on the portable ones), so every element is
//!   one chain of `f32::mul_add` per `KC = 256` block of k, started from
//!   zero in ascending k, and the chains are added into a zero C in block
//!   order. The test recomputes that model and matches each kernel to it
//!   bit for bit, so the two kernels give the same bits. Panel
//!   zero-padding only ever pads the MR/NR dimensions (never k), so
//!   padding cannot perturb valid sums.
//! * **Parallel vs serial — bitwise, any thread count.** Worker chunk
//!   boundaries are NR-aligned C column ranges; every element's summation
//!   order is the serial order regardless of which worker owns it.
//!
//! The convolution kernels' bitwise contract against the im2col lowering
//! lives in `conv_kernels.rs`.

use hero_tensor::{force_gemm_kernel, gemm_pool_stats, set_gemm_threads, GemmKernel, Tensor};
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

/// Seeded operand values on an odd grid, never exactly 0.0, bounded in
/// (−1.65, 1.65).
fn fill(dims: [usize; 2], salt: usize) -> Tensor {
    Tensor::from_fn(dims, |i| {
        let v = (i[0] * 31 + i[1] * 13 + salt * 17) % 23;
        (v as f32 - 11.5) / 7.0
    })
}

/// Edge-dim corpus: unit dims, MR−1/MR/MR+1 and NR−1/NR/NR+1 around the
/// 6×16 micro-tile both kernels share, KC straddles, and tall/skinny
/// panels that force zero-padded tails.
const SHAPES: [(usize, usize, usize); 14] = [
    (1, 1, 1),
    (3, 7, 2),
    (4, 8, 4),
    (5, 9, 5),
    (5, 15, 11),
    (6, 16, 8),
    (7, 17, 9),
    (12, 32, 64),
    (13, 31, 17),
    (1, 100, 3),
    (100, 1, 3),
    (64, 96, 255),
    (33, 47, 256),
    (29, 53, 257),
];

/// All three transpose variants of `op(A)·op(B)` via the public API,
/// with operands laid out for each storage order.
fn products(m: usize, n: usize, k: usize, salt: usize) -> Vec<(&'static str, Tensor)> {
    let a = fill([m, k], salt);
    let b = fill([k, n], salt + 1);
    let at = a.transpose().unwrap(); // (k, m) storage for tn
    let bt = b.transpose().unwrap(); // (n, k) storage for nt
    vec![
        ("nn", a.matmul(&b).unwrap()),
        ("tn", at.matmul_tn(&b).unwrap()),
        ("nt", a.matmul_nt(&bt).unwrap()),
    ]
}

/// The packed GEMM's rounding, element by element: one chain per
/// `KC = 256` block of the reduction, started from 0.0 and run in
/// ascending k with `f32::mul_add` steps, then the chains added into a
/// zero C in block order.
fn chain_model(a: &Tensor, b: &Tensor) -> Vec<f32> {
    const KC: usize = 256;
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let (a, b) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for k0 in (0..k).step_by(KC) {
                let mut chain = 0.0f32;
                for kk in k0..(k0 + KC).min(k) {
                    chain = a[i * k + kk].mul_add(b[kk * n + j], chain);
                }
                c[i * n + j] += chain;
            }
        }
    }
    c
}

/// Forces `kernel` and matches every product variant over the shape
/// corpus to the FMA-chain model bit for bit.
fn assert_matches_chain_model(kernel: GemmKernel) {
    force_gemm_kernel(Some(kernel));
    // k = 600 spans three KC blocks, the last one partial.
    for (m, n, k) in SHAPES.into_iter().chain([(7, 19, 600)]) {
        let salt = m + n + k;
        let want = chain_model(&fill([m, k], salt), &fill([k, n], salt + 1));
        for (variant, got) in products(m, n, k, salt) {
            assert_eq!(got.dims(), [m, n]);
            for (i, (&g, &w)) in got.data().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{} ({m},{n},{k}) {variant} idx {i}: {g} vs {w}",
                    kernel.name()
                );
            }
        }
    }
}

/// The portable lanes fuse each multiply-add with `f32::mul_add`, so the
/// scalar kernel's reference is the FMA-chain model, matched bit for bit.
#[test]
fn scalar_kernel_is_bitwise_equal_to_reference() {
    let _g = lock_overrides();
    assert_matches_chain_model(GemmKernel::Scalar);
}

/// The fused kernel's error against the FMA-chain model is zero: every
/// element matches it bit for bit, so it gives the scalar kernel's bits.
/// (A host without AVX2+FMA runs the forced fused kernel on the portable
/// lanes.)
#[test]
fn simd_kernel_stays_within_fma_error_bound() {
    let _g = lock_overrides();
    assert_matches_chain_model(GemmKernel::Avx2Fma);
}

#[test]
fn parallel_macro_kernel_is_bitwise_equal_to_serial() {
    let _g = lock_overrides();
    // Big enough to clear the parallel flop threshold; odd n exercises a
    // partial trailing panel on the last worker.
    let (m, n, k) = (96, 272, 192);
    let a = fill([m, k], 5);
    let b = fill([k, n], 6);
    for kernel in [GemmKernel::Scalar, GemmKernel::Avx2Fma] {
        force_gemm_kernel(Some(kernel));
        set_gemm_threads(Some(0));
        let serial = a.matmul(&b).unwrap();
        for threads in [2, 3, 4] {
            set_gemm_threads(Some(threads));
            let parallel = a.matmul(&b).unwrap();
            for (i, (&s, &p)) in serial.data().iter().zip(parallel.data()).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "{}: threads={threads} idx {i}: {s} vs {p}",
                    kernel.name()
                );
            }
        }
    }
    // The worker pool really ran: it exposes per-worker stats once spun up.
    assert!(
        !gemm_pool_stats().is_empty(),
        "parallel path never engaged the worker pool"
    );
}

#[test]
fn forced_kernel_is_reported_as_active() {
    let _g = lock_overrides();
    force_gemm_kernel(Some(GemmKernel::Scalar));
    assert_eq!(hero_tensor::active_gemm_kernel(), GemmKernel::Scalar);
    force_gemm_kernel(None);
    // Auto mode resolves to a real kernel either way; on AVX2 hardware
    // without HERO_NO_SIMD it must pick the SIMD variant.
    let auto = hero_tensor::active_gemm_kernel();
    assert!(matches!(auto, GemmKernel::Scalar | GemmKernel::Avx2Fma));
}
