//! The lane layer: the one place that encodes how the product kernels
//! round, how many chains share a vector, and which CPU features that
//! takes. It is the only program file that names an intrinsic, a target
//! feature or feature detection.
//!
//! Every product kernel — the packed GEMM micro-kernel, the direct
//! convolution passes and the depthwise passes — is written once,
//! generically over [`Lanes`]: [`Lanes::N`] accumulation chains side by
//! side. Every lane type steps [`Lanes::mul_add`] with one correctly
//! rounded fused multiply-add, so both kernels give the same bits.
//! [`GemmKernel::Scalar`] runs the body on `[f32; 8]` (`f32::mul_add`, a
//! libm `fmaf` call where the build target lacks FMA);
//! [`GemmKernel::Avx2Fma`] on `vfmadd231ps`: on `__m512`, 16 chains wide,
//! when the CPU has AVX-512F, else on `__m256`, 8 wide, each compiled for
//! its features by its runner ([`run_wide`], [`run_fused`]). The depthwise
//! chains step with [`Lanes::mul`] and [`Lanes::add`]: a masked pass ANDs
//! a mask into each product before the add (so an infinity times a padded
//! zero adds +0.0, not a NaN), which a fused multiply-add cannot.
//!
//! The width only decides which chains share a vector. Every output element
//! keeps its chain (the same taps, the same `KC` blocks, one multiply-add
//! per step), so both widths give the same bits and the kernel keeps its
//! name. The layout sizes a pass derives from the width (padded channel
//! counts, tile grids, packed strips) follow the [`Product`]'s `width`,
//! fixed before the pass runs. Passes that put channels in the lanes (conv
//! dW, depthwise) run 8 wide when 8 lanes hold every channel
//! ([`Product::lanes_over`]). A kernel body is a [`Pass`]; [`dispatch`] is
//! the single kernel and width → lanes match.

use crate::ops::gemm::{active_gemm_kernel, GemmKernel, Product};

/// The widest lanes: a buffer of this many floats holds any lane type.
pub(crate) const MAX_LANES: usize = 16;
/// The narrowest lanes, which every kernel runs.
pub(crate) const MIN_LANES: usize = 8;

/// [`Lanes::N`] accumulation chains side by side, stepped the way one GEMM
/// kernel rounds: the kernels' one generic body runs on any lane type.
pub(crate) trait Lanes: Copy {
    /// Chains per vector.
    const N: usize;

    fn zero() -> Self;
    fn splat(v: f32) -> Self;
    /// The first `N` values of `src`.
    fn load(src: &[f32]) -> Self;
    /// Writes the lanes to the first `N` values of `dst`.
    fn store(self, dst: &mut [f32]);
    /// `self + a·b` in every lane, rounded once (a fused multiply-add).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `self + b` in every lane.
    fn add(self, b: Self) -> Self;
    /// `self·b` in every lane, rounded: with [`Lanes::add`] after it, the
    /// same two roundings on every lane type.
    fn mul(self, b: Self) -> Self;
    /// The bitwise AND of every lane with `mask`.
    fn and(self, mask: Self) -> Self;

    /// The lanes in the first `N` values of an array.
    #[inline(always)]
    fn to_array(self) -> [f32; MAX_LANES] {
        let mut out = [0.0; MAX_LANES];
        self.store(&mut out);
        out
    }
}

/// [`GemmKernel::Scalar`]: portable lanes.
impl<const W: usize> Lanes for [f32; W] {
    const N: usize = W;

    #[inline(always)]
    fn zero() -> Self {
        [0.0; W]
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; W]
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut out = [0.0; W];
        out.copy_from_slice(&src[..W]);
        out
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..W].copy_from_slice(&self);
    }

    #[inline(always)]
    fn mul_add(mut self, a: Self, b: Self) -> Self {
        for ((s, a), b) in self.iter_mut().zip(a).zip(b) {
            *s = a.mul_add(b, *s);
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

/// [`GemmKernel::Avx2Fma`] on 8 lanes: one fused multiply-add per lane
/// (`vfmadd231ps` on a ymm register). Only ever instantiated inside
/// [`run_fused`], on a CPU with AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256 {
    const N: usize = 8;

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
        let src = &src[..Self::N];
        // SAFETY: `src` holds `N` floats; AVX as for `zero`.
        unsafe { std::arch::x86_64::_mm256_loadu_ps(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst = &mut dst[..Self::N];
        // SAFETY: `dst` holds `N` floats; AVX as for `zero`.
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

/// [`GemmKernel::Avx2Fma`] on 16 lanes: the same fused multiply-add per
/// lane on a zmm register. Only ever instantiated inside [`run_wide`], on
/// a CPU with AVX-512F.
#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m512 {
    const N: usize = 16;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: only reached from `run_wide`, which requires AVX-512F.
        unsafe { std::arch::x86_64::_mm512_setzero_ps() }
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm512_set1_ps(v) }
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let src = &src[..Self::N];
        // SAFETY: `src` holds `N` floats; AVX-512F as for `zero`.
        unsafe { std::arch::x86_64::_mm512_loadu_ps(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst = &mut dst[..Self::N];
        // SAFETY: `dst` holds `N` floats; AVX-512F as for `zero`.
        unsafe { std::arch::x86_64::_mm512_storeu_ps(dst.as_mut_ptr(), self) };
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm512_fmadd_ps(a, b, self) }
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm512_add_ps(self, b) }
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm512_mul_ps(self, b) }
    }

    #[inline(always)]
    fn and(self, mask: Self) -> Self {
        use std::arch::x86_64::{_mm512_and_si512, _mm512_castps_si512, _mm512_castsi512_ps};
        // SAFETY: as for `zero`. The integer AND keeps this within
        // AVX-512F (the float AND is AVX-512DQ).
        unsafe {
            _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(self),
                _mm512_castps_si512(mask),
            ))
        }
    }
}

/// True when this CPU can run the fused lanes: AVX2 and FMA.
pub(crate) fn fused_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when this CPU can also run the fused lanes 16 wide: AVX-512F.
fn wide_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        fused_supported() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The lane width `kernel` runs at on this CPU: 16 for the fused kernel
/// where AVX-512F is present, 8 otherwise.
fn width(kernel: GemmKernel) -> usize {
    match kernel {
        GemmKernel::Avx2Fma if wide_supported() => MAX_LANES,
        _ => MIN_LANES,
    }
}

/// The kernel and lane width the next product runs on.
pub(crate) fn select() -> (GemmKernel, usize) {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED.with(std::cell::Cell::get) {
        return forced;
    }
    let kernel = active_gemm_kernel();
    (kernel, width(kernel))
}

/// The lane width the next matrix product or convolution runs at: 16
/// chains per vector for the fused kernel ([`GemmKernel::Avx2Fma`]) on a
/// CPU with AVX-512F, 8 otherwise (and always 8 for
/// [`GemmKernel::Scalar`]). The width changes no result bit.
pub fn lane_width() -> usize {
    select().1
}

/// One kernel's work over a range of independent items.
pub(crate) trait Pass: Sync {
    /// Runs items `lo..hi` on lanes `V`.
    fn run<V: Lanes>(&self, lo: usize, hi: usize);
}

/// Runs items `lo..hi` of `pass` on `kernel`'s lanes, `width` wide.
///
/// # Safety
///
/// `(kernel, width)` must be a pair [`select`] returns, which only names
/// lanes this CPU runs.
#[inline(always)]
pub(crate) unsafe fn dispatch<P: Pass>(
    kernel: GemmKernel,
    width: usize,
    pass: &P,
    lo: usize,
    hi: usize,
) {
    match (kernel, width) {
        (GemmKernel::Scalar, 8) => pass.run::<[f32; 8]>(lo, hi),
        #[cfg(test)]
        (GemmKernel::Scalar, 16) => pass.run::<[f32; 16]>(lo, hi),
        #[cfg(target_arch = "x86_64")]
        (GemmKernel::Avx2Fma, 8) => run_fused(pass, lo, hi),
        #[cfg(target_arch = "x86_64")]
        (GemmKernel::Avx2Fma, 16) => run_wide(pass, lo, hi),
        _ => unreachable!("no {width}-lane {} lanes on this target", kernel.name()),
    }
}

/// Runs `items` of `pass` on `product`'s kernel and width, split over the
/// worker pool as the product decides.
pub(crate) fn execute<P: Pass>(product: &Product, pass: &P, items: usize) {
    let (kernel, width) = (product.kernel, product.width);
    // SAFETY: a product's kernel and width come from `select`.
    product.split(items, &|lo, hi| unsafe {
        dispatch(kernel, width, pass, lo, hi)
    });
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

/// [`Pass::run`] on `__m512` lanes, compiled for AVX-512F (which implies
/// AVX2 and FMA): the tiles live in zmm registers, 16 chains each.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_wide<P: Pass>(pass: &P, lo: usize, hi: usize) {
    pass.run::<std::arch::x86_64::__m512>(lo, hi);
}

#[cfg(test)]
mod tests {
    //! Width equivalence: every pass gives the same bits at 8 and at 16
    //! lanes. The kernel corpora (`crates/tensor/tests`) hold the width this
    //! CPU dispatches at against the lowering and the loop nest; with this
    //! test, both widths are held to them.

    use super::*;
    use crate::rng::{Rng, StdRng};
    use crate::{ConvGeometry, Tensor};
    use std::cell::Cell;

    thread_local! {
        /// The kernel and width this thread's products run on, in place of
        /// the ones [`select`] detects.
        pub(super) static FORCED: Cell<Option<(GemmKernel, usize)>> = const { Cell::new(None) };
    }

    /// `f` with this thread's products on `kernel`, `width` lanes wide.
    fn at<R>(kernel: GemmKernel, width: usize, f: impl FnOnce() -> R) -> R {
        FORCED.with(|c| c.set(Some((kernel, width))));
        let out = f();
        FORCED.with(|c| c.set(None));
        out
    }

    /// The kernels whose 16-lane side this CPU runs: the scalar lanes
    /// always, the fused ones where AVX-512F is present.
    fn kernels() -> Vec<GemmKernel> {
        if wide_supported() {
            vec![GemmKernel::Scalar, GemmKernel::Avx2Fma]
        } else {
            eprintln!("note: no AVX-512F on this CPU; the fused kernel's 16-lane side is skipped");
            vec![GemmKernel::Scalar]
        }
    }

    /// Asserts that `run`'s outputs are bitwise equal at 8 and 16 lanes
    /// under every kernel of [`kernels`]. NaNs compare equal to each other
    /// (their payload bits are not part of the contract).
    fn same_bits(what: &str, run: impl Fn() -> Vec<Vec<f32>>) {
        for kernel in kernels() {
            let narrow = at(kernel, 8, &run);
            let wide = at(kernel, 16, &run);
            assert_eq!(narrow.len(), wide.len(), "{what}");
            for (i, (a, b)) in narrow.iter().zip(&wide).enumerate() {
                assert_eq!(a.len(), b.len(), "{what} output {i}");
                for (j, (&x, &y)) in a.iter().zip(b).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{what} {} output {i} idx {j}: {x:e} at 8 lanes, {y:e} at 16",
                        kernel.name()
                    );
                }
            }
        }
    }

    /// Seeded uniform values in [−1, 1).
    fn seeded(dims: &[usize], rng: &mut StdRng) -> Tensor {
        let len = dims.iter().product();
        let data = (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        Tensor::from_vec(data, dims.to_vec()).unwrap()
    }

    #[test]
    fn the_fused_kernel_runs_as_wide_as_the_cpu_allows() {
        assert_eq!(width(GemmKernel::Scalar), 8);
        let fused = if wide_supported() { 16 } else { 8 };
        assert_eq!(width(GemmKernel::Avx2Fma), fused);
        assert_eq!(at(GemmKernel::Scalar, 16, lane_width), 16);
        assert_eq!(at(GemmKernel::Avx2Fma, 8, lane_width), 8);
        // Passes with channels in the lanes run 8 wide for 8 channels.
        at(GemmKernel::Scalar, 16, || {
            let product = || Product::begin(1, 1, 1).expect("a product");
            assert_eq!(product().lanes_over(8).width, 8);
            assert_eq!(product().lanes_over(9).width, 16);
        });
    }

    /// The portable lanes round each multiply-add once, as `f32::mul_add`
    /// does: with `a = 1 + 2⁻¹²`, `a·a − (1 + 2⁻¹¹)` is 2⁻²⁴ exactly, where
    /// a rounded product then a rounded sum give 0.
    #[test]
    fn portable_lanes_fuse_their_multiply_add() {
        let a = 1.0 + 2f32.powi(-12);
        let s = -(1.0 + 2f32.powi(-11));
        assert_eq!(s + a * a, 0.0);
        let x: [f32; 8] = std::array::from_fn(|i| a + i as f32 * 2f32.powi(-9));
        let got = [s; 8].mul_add(x, x);
        for (i, (&g, &x)) in got.iter().zip(&x).enumerate() {
            assert_eq!(g.to_bits(), x.mul_add(x, s).to_bits(), "lane {i}");
        }
        assert_eq!(got[0], 2f32.powi(-24));
    }

    /// Convolution `(n, c, oc, h, w, k, s, p)`: forward, dW and dX.
    fn conv(&[n, c, oc, h, w, k, s, p]: &[usize; 8], seed: u64) {
        let geom = ConvGeometry::new(h, w, k, s, p).unwrap();
        let (oh, ow) = geom.out_hw();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = seeded(&[n, c, h, w], &mut rng);
        let wt = seeded(&[oc, c * k * k], &mut rng);
        let dy = seeded(&[n, oc, oh, ow], &mut rng);
        same_bits(&format!("conv {:?}", [n, c, oc, h, w, k, s, p]), || {
            vec![
                x.conv2d(&wt, &geom).unwrap().data().to_vec(),
                dy.conv2d_grad_weight(&x, &geom).unwrap().data().to_vec(),
                dy.conv2d_grad_input(&wt, &geom).unwrap().data().to_vec(),
            ]
        });
    }

    #[test]
    fn conv_passes_give_the_same_bits_at_both_widths() {
        // The seeded geometries of `tests/conv_kernels.rs`, drawn the same
        // way from the same seed.
        let mut rng = StdRng::seed_from_u64(0xC0_4E);
        let mut checked = 0;
        while checked < 48 {
            let mut draw = |lo: usize, hi: usize| rng.gen_range(lo..hi);
            let k = [1, 3, 5][draw(0, 3)];
            let g = [
                draw(1, 6),
                draw(1, 41),
                draw(1, 41),
                draw(1, 10),
                draw(1, 10),
                k,
                draw(1, 4),
                draw(0, 3),
            ];
            let Ok(geom) = ConvGeometry::new(g[3], g[4], k, g[6], g[7]) else {
                continue;
            };
            let (oh, ow) = geom.out_hw();
            if 2 * g[2] * g[0] * oh * ow * g[1] * k * k > 400_000 {
                continue;
            }
            conv(&g, checked);
            checked += 1;
        }
        // Two fold chunks over the worker-pool threshold, two reduction
        // blocks, more output channels than a reduction block, a stride-2
        // layer, and an empty batch.
        for (i, g) in [
            [64, 8, 8, 8, 8, 3, 1, 1],
            [4, 32, 32, 8, 8, 3, 1, 1],
            [1, 2, 260, 3, 3, 3, 1, 1],
            [32, 8, 16, 4, 4, 3, 2, 1],
            [0, 3, 4, 5, 5, 3, 1, 1],
        ]
        .iter()
        .enumerate()
        {
            conv(g, 100 + i as u64);
        }
    }

    /// Depthwise convolution `(n, c, h, w, k, s, p)` on seeded operands
    /// with a fifth of `dY` at exact zeros of either sign; `poison` puts
    /// an infinity in the first input, weight and `dY` value, which turns
    /// the masked passes on.
    fn depthwise(&[n, c, h, w, k, s, p]: &[usize; 7], seed: u64, poison: bool) {
        let geom = ConvGeometry::new(h, w, k, s, p).unwrap();
        let (oh, ow) = geom.out_hw();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = seeded(&[n, c, h, w], &mut rng);
        let mut wt = seeded(&[c, k, k], &mut rng);
        let mut dy = seeded(&[n, c, oh, ow], &mut rng).map(|v| match v {
            v if v > 0.8 => 0.0,
            v if v < -0.8 => -0.0,
            v => v,
        });
        if poison {
            for t in [&mut x, &mut wt, &mut dy] {
                if let Some(v) = t.data_mut().first_mut() {
                    *v = f32::INFINITY;
                }
            }
        }
        same_bits(&format!("depthwise {:?}", [n, c, h, w, k, s, p]), || {
            vec![
                x.depthwise_conv2d(&wt, &geom).unwrap().data().to_vec(),
                dy.depthwise_conv2d_grad_input(&wt, &geom)
                    .unwrap()
                    .data()
                    .to_vec(),
                dy.depthwise_conv2d_grad_weight(&x, &geom)
                    .unwrap()
                    .data()
                    .to_vec(),
            ]
        });
    }

    #[test]
    fn depthwise_passes_give_the_same_bits_at_both_widths() {
        // The seeded geometries of `tests/depthwise_kernels.rs`, drawn the
        // same way from the same seed.
        let mut rng = StdRng::seed_from_u64(0xD3E9);
        let mut cases = Vec::new();
        while cases.len() < 40 {
            let g = [
                rng.gen_range(1..6usize),
                rng.gen_range(1..21usize),
                rng.gen_range(1..10usize),
                rng.gen_range(1..10usize),
                [1, 3, 5][rng.gen_range(0..3usize)],
                rng.gen_range(1..4usize),
                rng.gen_range(0..3usize),
            ];
            if g[4] <= g[2] + 2 * g[6] && g[4] <= g[3] + 2 * g[6] {
                cases.push(g);
            }
        }
        for (i, g) in cases.iter().enumerate() {
            depthwise(g, 100 + i as u64, false);
        }
        // MobileNet's five depthwise layers at batch 65 (past a fold
        // chunk), and channel counts off both widths with non-finite
        // operands.
        for (i, &(c, side, s)) in [(8, 8, 1), (32, 8, 2), (64, 4, 1), (64, 4, 2), (96, 2, 1)]
            .iter()
            .enumerate()
        {
            depthwise(&[65, c, side, side, 3, s, 1], 200 + i as u64, false);
        }
        for (i, g) in [[3, 13, 8, 8, 3, 1, 1], [2, 21, 7, 6, 5, 2, 2]]
            .iter()
            .enumerate()
        {
            depthwise(g, 300 + i as u64, true);
        }
    }

    /// Values on an odd grid, never exactly zero.
    fn fill(dims: [usize; 2], salt: usize) -> Tensor {
        Tensor::from_fn(dims, |i| {
            let v = (i[0] * 31 + i[1] * 13 + salt * 17) % 23;
            (v as f32 - 11.5) / 7.0
        })
    }

    #[test]
    fn gemm_gives_the_same_bits_at_both_widths() {
        // The shapes of `tests/gemm_kernels.rs`, its three-block k = 600
        // case, and a product wider than one column block.
        let shapes = [
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
            (7, 19, 600),
            (5, 1030, 7),
        ];
        for (m, n, k) in shapes {
            let salt = m + n + k;
            let (a, b) = (fill([m, k], salt), fill([k, n], salt + 1));
            let (at_, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
            same_bits(&format!("gemm ({m}, {n}, {k})"), || {
                vec![
                    a.matmul(&b).unwrap().data().to_vec(),
                    at_.matmul_tn(&b).unwrap().data().to_vec(),
                    a.matmul_nt(&bt).unwrap().data().to_vec(),
                ]
            });
        }
    }
}
