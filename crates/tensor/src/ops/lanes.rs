//! The lane layer: the one place that encodes how each [`GemmKernel`]
//! rounds.
//!
//! Every product kernel — the packed GEMM micro-kernel, the direct
//! convolution passes and the depthwise passes — is written once,
//! generically over [`Lanes`]: `LANES` accumulation chains side by side.
//! The GEMM and convolution chains step with the kernel's multiply-add; the
//! depthwise chains with an unfused [`Lanes::mul`] and [`Lanes::add`],
//! which round alike on both lanes. [`GemmKernel::Scalar`] runs the body on `[f32; LANES]`
//! (a rounded product, then a rounded sum) and [`GemmKernel::Avx2Fma`] on
//! `__m256` (one fused multiply-add per step, `vfmadd231ps`), compiled
//! for AVX2+FMA by [`run_fused`]. A kernel body is a [`Pass`];
//! [`dispatch`] is the single kernel → lanes match.

use crate::ops::gemm::{GemmKernel, Product};

/// Vector width of every tile: chains per `f32x8`.
pub(crate) const LANES: usize = 8;

/// `LANES` accumulation chains side by side, stepped the way one GEMM
/// kernel rounds: the kernels' one generic body runs on either type.
pub(crate) trait Lanes: Copy {
    fn zero() -> Self;
    fn splat(v: f32) -> Self;
    /// The first `LANES` values of `src`.
    fn load(src: &[f32]) -> Self;
    /// Writes the lanes to the first `LANES` values of `dst`.
    fn store(self, dst: &mut [f32]);
    /// `self + a·b` in every lane, rounded as the kernel rounds.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `self + b` in every lane.
    fn add(self, b: Self) -> Self;
    /// `self·b` in every lane, rounded: with [`Lanes::add`] after it, the
    /// same two roundings on either kernel.
    fn mul(self, b: Self) -> Self;
    /// The bitwise AND of every lane with `mask`.
    fn and(self, mask: Self) -> Self;

    #[inline(always)]
    fn to_array(self) -> [f32; LANES] {
        let mut out = [0.0; LANES];
        self.store(&mut out);
        out
    }
}

/// [`GemmKernel::Scalar`]: a rounded product, then a rounded sum.
impl Lanes for [f32; LANES] {
    #[inline(always)]
    fn zero() -> Self {
        [0.0; LANES]
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; LANES]
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut out = [0.0; LANES];
        out.copy_from_slice(&src[..LANES]);
        out
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self);
    }

    #[inline(always)]
    fn mul_add(mut self, a: Self, b: Self) -> Self {
        for ((s, a), b) in self.iter_mut().zip(a).zip(b) {
            *s += a * b;
        }
        self
    }

    #[inline(always)]
    fn add(mut self, b: Self) -> Self {
        for (s, b) in self.iter_mut().zip(b) {
            *s += b;
        }
        self
    }

    #[inline(always)]
    fn mul(mut self, b: Self) -> Self {
        for (s, b) in self.iter_mut().zip(b) {
            *s *= b;
        }
        self
    }

    #[inline(always)]
    fn and(mut self, mask: Self) -> Self {
        for (s, m) in self.iter_mut().zip(mask) {
            *s = f32::from_bits(s.to_bits() & m.to_bits());
        }
        self
    }
}

/// [`GemmKernel::Avx2Fma`]: one fused multiply-add per lane
/// (`vfmadd231ps`). Only ever instantiated inside [`run_fused`], on a CPU
/// with AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256 {
    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: only reached from `run_fused`, which requires AVX.
        unsafe { std::arch::x86_64::_mm256_setzero_ps() }
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm256_set1_ps(v) }
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let src = &src[..LANES];
        // SAFETY: `src` holds `LANES` floats; AVX as for `zero`.
        unsafe { std::arch::x86_64::_mm256_loadu_ps(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst = &mut dst[..LANES];
        // SAFETY: `dst` holds `LANES` floats; AVX as for `zero`.
        unsafe { std::arch::x86_64::_mm256_storeu_ps(dst.as_mut_ptr(), self) };
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: FMA as for `zero`: `run_fused` requires it.
        unsafe { std::arch::x86_64::_mm256_fmadd_ps(a, b, self) }
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm256_add_ps(self, b) }
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm256_mul_ps(self, b) }
    }

    #[inline(always)]
    fn and(self, mask: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm256_and_ps(self, mask) }
    }
}

/// One kernel's work over a range of independent items.
pub(crate) trait Pass: Sync {
    /// Runs items `lo..hi` on lanes `V`.
    fn run<V: Lanes>(&self, lo: usize, hi: usize);
}

/// Runs items `lo..hi` of `pass` on `kernel`'s lanes.
///
/// # Safety
///
/// `kernel` may be [`GemmKernel::Avx2Fma`] only on a CPU with AVX2 and
/// FMA, as every kernel [`crate::active_gemm_kernel`] reports is.
#[inline(always)]
pub(crate) unsafe fn dispatch<P: Pass>(kernel: GemmKernel, pass: &P, lo: usize, hi: usize) {
    match kernel {
        GemmKernel::Scalar => pass.run::<[f32; LANES]>(lo, hi),
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx2Fma => run_fused(pass, lo, hi),
        #[cfg(not(target_arch = "x86_64"))]
        GemmKernel::Avx2Fma => unreachable!("SIMD kernel on non-x86_64"),
    }
}

/// Runs `items` of `pass` on `product`'s kernel, split over the worker
/// pool as the product decides.
pub(crate) fn execute<P: Pass>(product: &Product, pass: &P, items: usize) {
    let kernel = product.kernel;
    // SAFETY: a product's kernel comes from `active_gemm_kernel`.
    product.split(items, &|lo, hi| unsafe { dispatch(kernel, pass, lo, hi) });
}

/// [`Pass::run`] on `__m256` lanes, compiled for AVX2+FMA so every chain
/// step is one `vfmadd231ps` and the tiles live in ymm registers (the pass
/// bodies are `#[inline(always)]` so they inherit these features).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn run_fused<P: Pass>(pass: &P, lo: usize, hi: usize) {
    pass.run::<std::arch::x86_64::__m256>(lo, hi);
}
