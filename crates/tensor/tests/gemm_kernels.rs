//! Kernel-equivalence corpus for the GEMM micro-kernel under both
//! kernels' lanes.
//!
//! # Bitwise contract (per kernel variant)
//!
//! * **Scalar vs [`matmul_reference`] — bitwise.** The scalar packed
//!   kernel accumulates with plain mul+add in ascending-k order, exactly
//!   the per-element summation order of the reference kernel, and panel
//!   zero-padding only ever pads the MR/NR dimensions (never k), so
//!   padding cannot perturb valid sums. Every element must match to the
//!   bit. (The operand generator below avoids exact zeros because the
//!   reference kernel skips `a == 0.0` terms, which can flip a signed
//!   zero in degenerate all-zero prefixes — a non-goal to reproduce.)
//! * **AVX2/FMA vs an FMA-chain model — bitwise.** `vfmadd231ps` fuses
//!   each multiply-add into one rounding, so the kernel differs from the
//!   reference by a few ULP, but it rounds exactly one way: every element
//!   is one chain of `f32::mul_add` per `KC = 256` block of k, started
//!   from zero in ascending k, and the chains are added into a zero C in
//!   block order. The test recomputes that model and matches it to the
//!   bit.
//! * **Parallel vs serial — bitwise, any thread count.** Worker chunk
//!   boundaries are NR-aligned C column ranges; every element's summation
//!   order is the serial order regardless of which worker owns it.
//!
//! The convolution kernels' bitwise contract against the im2col lowering
//! lives in `conv_kernels.rs`.

use hero_tensor::{
    force_gemm_kernel, gemm_pool_stats, matmul_reference, set_gemm_threads, GemmKernel, Tensor,
};
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

/// Seeded operand values on an odd grid — never exactly 0.0 (see the
/// signed-zero note in the module docs), bounded in (−1.65, 1.65).
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
fn products(m: usize, n: usize, k: usize, salt: usize) -> Vec<(&'static str, Tensor, Tensor)> {
    let a = fill([m, k], salt);
    let b = fill([k, n], salt + 1);
    let at = a.transpose().unwrap(); // (k, m) storage for tn
    let bt = b.transpose().unwrap(); // (n, k) storage for nt
    vec![
        (
            "nn",
            a.matmul(&b).unwrap(),
            matmul_reference(&a, &b).unwrap(),
        ),
        (
            "tn",
            at.matmul_tn(&b).unwrap(),
            matmul_reference(&a, &b).unwrap(),
        ),
        (
            "nt",
            a.matmul_nt(&bt).unwrap(),
            matmul_reference(&a, &b).unwrap(),
        ),
    ]
}

#[test]
fn scalar_kernel_is_bitwise_equal_to_reference() {
    let _g = lock_overrides();
    force_gemm_kernel(Some(GemmKernel::Scalar));
    for &(m, n, k) in &SHAPES {
        for (variant, got, want) in products(m, n, k, m + n + k) {
            assert_eq!(got.dims(), want.dims());
            for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "({m},{n},{k}) {variant} idx {i}: {g} vs {w}"
                );
            }
        }
    }
}

/// The packed GEMM's rounding, element by element: one chain per
/// `KC = 256` block of the reduction, started from 0.0 and run in
/// ascending k with `fused` (`f32::mul_add`) or plain multiply-add steps,
/// then the chains added into a zero C in block order.
fn chain_model(a: &Tensor, b: &Tensor, fused: bool) -> Vec<f32> {
    const KC: usize = 256;
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let (a, b) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for k0 in (0..k).step_by(KC) {
                let mut chain = 0.0f32;
                for kk in k0..(k0 + KC).min(k) {
                    let (x, y) = (a[i * k + kk], b[kk * n + j]);
                    chain = if fused {
                        x.mul_add(y, chain)
                    } else {
                        chain + x * y
                    };
                }
                c[i * n + j] += chain;
            }
        }
    }
    c
}

/// The AVX2 kernel's error against the FMA-chain model is zero: every
/// element matches it bit for bit.
#[test]
fn simd_kernel_stays_within_fma_error_bound() {
    let _g = lock_overrides();
    force_gemm_kernel(Some(GemmKernel::Avx2Fma));
    // A host without AVX2+FMA falls back to scalar: check that against
    // the unfused model instead.
    let fused = hero_tensor::active_gemm_kernel() == GemmKernel::Avx2Fma;
    // k = 600 spans three KC blocks, the last one partial.
    for (m, n, k) in SHAPES.into_iter().chain([(7, 19, 600)]) {
        let salt = m + n + k;
        let want = chain_model(&fill([m, k], salt), &fill([k, n], salt + 1), fused);
        for (variant, got, _) in products(m, n, k, salt) {
            for (i, (&g, &w)) in got.data().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "({m},{n},{k}) {variant} idx {i}: {g} vs {w}"
                );
            }
        }
    }
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
