//! Direct convolution kernels: forward, weight gradient (dW) and input
//! gradient (dX) of a 2-D convolution over NCHW activations.
//!
//! The kernels read activations through a zero-padded copy of each image
//! and never build, pack or scatter a patch matrix. They compute the
//! products the im2col lowering expresses as GEMMs — forward `W·cols`, dW
//! `dY·colsᵀ`, dX `col2im(Wᵀ·dY)` — with the packed GEMM's rounding, so
//! every output is bitwise identical to that lowering under either
//! [`GemmKernel`]:
//!
//! * **Chains.** A forward or dW output element is one chain per `KC`
//!   block of its reduction (the `C·k·k` taps for forward, the `N·oh·ow`
//!   output sites for dW), each started from zero and run in ascending
//!   order with the kernel's multiply-add ([`Lanes::mul_add`]); the block
//!   results are added into a zero output in block order.
//! * **Padding.** Taps and sites that fall in the padding are multiplied
//!   in as zeros, never skipped, exactly as the patch matrix holds them
//!   (skipping an `inf · 0` term would hide a NaN).
//! * **dX.** Each tap's contribution to an input element is its own chain
//!   over output channels (`KC`-blocked likewise), added into a zeroed
//!   padded buffer in ascending `(ky, kx)` order — col2im's order — and
//!   the buffer is cropped at the end.
//!
//! **Layout.** A padded image is stored as `s × s` phase planes of width
//! `wq = ⌈(w + 2p)/s⌉` (a single plane at stride 1), so output site
//! `(oy, ox)` reads tap `(ky, kx)` at a constant offset from `oy·wq + ox`.
//! Forward and dX therefore run over the flattened site grid in
//! [`LANES`]-wide tiles with contiguous loads and stores; grid columns
//! `ox ≥ ow` are junk lanes, which forward discards and dX masks out.
//! Forward tiles hold 8 output channels × 8 sites, dW tiles put 8 output
//! channels in the lanes against 12 taps, and dX runs up to 8 site tiles
//! of one tap at a time.
//!
//! Each kernel runs inside its product's GEMM span and counters and splits
//! its outer loop over the GEMM worker pool: images for forward and dX,
//! channel × tap tiles for dW. Items write disjoint outputs and no chain
//! depends on the split, so results are bitwise equal at any thread count.
//! Scratch buffers are leased from the running thread's pool.

use crate::error::{Result, TensorError};
use crate::ops::gemm::{GemmKernel, Product, SharedOut, KC};
use crate::ops::im2col::ConvGeometry;
use crate::pool;
use crate::tensor::Tensor;

/// Vector width of every tile: output channels or output sites per
/// `f32x8`.
const LANES: usize = 8;
/// Taps per dW tile: twelve `f32x8` accumulators, the `dY` lanes and one
/// broadcast fit the sixteen ymm registers.
const DW_TAPS: usize = 12;

/// `LANES` accumulation chains side by side, stepped the way one GEMM
/// kernel rounds: the kernels' one generic body runs on either type.
trait Lanes: Copy {
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
    fn and(mut self, mask: Self) -> Self {
        for (s, m) in self.iter_mut().zip(mask) {
            *s = f32::from_bits(s.to_bits() & m.to_bits());
        }
        self
    }
}

/// [`GemmKernel::Avx2Fma`]: one fused multiply-add per lane
/// (`vfmadd231ps`), the AVX2 GEMM micro-kernel's rounding. Only ever
/// instantiated inside [`run_fused`], on a CPU with AVX2 and FMA.
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
    fn and(self, mask: Self) -> Self {
        // SAFETY: as for `zero`.
        unsafe { std::arch::x86_64::_mm256_and_ps(self, mask) }
    }
}

/// One kernel's work over a range of independent items.
trait Pass: Sync {
    /// Runs items `lo..hi` on lanes `V`.
    fn run<V: Lanes>(&self, lo: usize, hi: usize);
}

/// Runs `items` of `pass` on `product`'s kernel, split over the worker
/// pool as the product decides.
fn execute<P: Pass>(product: &Product, pass: &P, items: usize) {
    let kernel = product.kernel;
    product.split(items, &|lo, hi| match kernel {
        GemmKernel::Scalar => pass.run::<[f32; LANES]>(lo, hi),
        // SAFETY: `active_gemm_kernel` only reports `Avx2Fma` on a CPU with
        // AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx2Fma => unsafe { run_fused(pass, lo, hi) },
        #[cfg(not(target_arch = "x86_64"))]
        GemmKernel::Avx2Fma => unreachable!("SIMD kernel on non-x86_64"),
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

/// Shapes of one convolution and of its phase-split image layout.
#[derive(Debug, Clone, Copy)]
struct Plan {
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    k: usize,
    s: usize,
    p: usize,
    oh: usize,
    ow: usize,
    /// Phase planes per axis, `min(s, k)`: phases no tap reads are not
    /// stored.
    sp: usize,
    /// Phase-plane width.
    wq: usize,
    /// Phase-plane size.
    ps: usize,
    /// Channel stride of a phase-split image.
    cs: usize,
    /// Sites of the flattened output grid, `(oh − 1)·wq + ow`.
    grid: usize,
    /// `LANES`-wide tiles covering the grid.
    tiles: usize,
    /// Patch rows, `c·k·k`.
    taps: usize,
    /// Output channels rounded up to whole lane groups.
    ocp: usize,
}

impl Plan {
    fn new(geom: &ConvGeometry, c: usize, oc: usize) -> Plan {
        let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
        let (oh, ow) = geom.out_hw();
        let sp = s.min(k);
        let hq = (geom.in_h + 2 * p).div_ceil(s);
        let wq = (geom.in_w + 2 * p).div_ceil(s);
        let grid = (oh - 1) * wq + ow;
        Plan {
            c,
            h: geom.in_h,
            w: geom.in_w,
            oc,
            k,
            s,
            p,
            oh,
            ow,
            sp,
            wq,
            ps: hq * wq,
            cs: sp * sp * hq * wq,
            grid,
            tiles: grid.div_ceil(LANES),
            taps: c * k * k,
            ocp: oc.div_ceil(LANES) * LANES,
        }
    }

    /// Elements of one phase-split image, plus one tile of slack that the
    /// last grid tile reads or writes past the end.
    fn split_len(&self) -> usize {
        self.c * self.cs + LANES
    }

    /// Fills `out` with the offsets of taps `t0, t0 + 1, …` in a
    /// phase-split image, relative to the grid position `oy·wq + ox` of the
    /// output site that reads them. Tap `(ch, ky, kx)` lies in phase plane
    /// `(ky mod s, kx mod s)` at row `ky / s`, column `kx / s`; the
    /// quotients and remainders are stepped rather than divided per tap.
    fn tap_offsets(&self, t0: usize, out: &mut [usize]) {
        let (k, s) = (self.k, self.s);
        let (mut ch, mut ky, mut kx) = (t0 / (k * k), t0 / k % k, t0 % k);
        let (mut qy, mut ry, mut qx, mut rx) = (ky / s, ky % s, kx / s, kx % s);
        for o in out {
            *o = ch * self.cs + (ry * self.sp + rx) * self.ps + qy * self.wq + qx;
            (kx, rx) = (kx + 1, rx + 1);
            if rx == s {
                (qx, rx) = (qx + 1, 0);
            }
            if kx == k {
                (kx, qx, rx) = (0, 0, 0);
                (ky, ry) = (ky + 1, ry + 1);
                if ry == s {
                    (qy, ry) = (qy + 1, 0);
                }
                if ky == k {
                    (ky, qy, ry) = (0, 0, 0);
                    ch += 1;
                }
            }
        }
    }

    /// Calls `f(pixel, slot, len)` for each run of `len` pixels `pixel,
    /// pixel + s, …` of one row of an unpadded `c × h × w` image that land
    /// on the consecutive slots `slot, slot + 1, …` of its phase-split
    /// copy. Pixels no tap reads (stride above kernel) are left out.
    fn for_each_run(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (s, p) = (self.s, self.p);
        // Phase indices `i` with `p ≤ i·s + r < p + len`.
        let span = |r: usize, len: usize| {
            (
                p.saturating_sub(r).div_ceil(s),
                (p + len).saturating_sub(r).div_ceil(s),
            )
        };
        for ch in 0..self.c {
            for ry in 0..self.sp {
                let (a0, a1) = span(ry, self.h);
                for rx in 0..self.sp {
                    let (b0, b1) = span(rx, self.w);
                    if b0 >= b1 {
                        continue;
                    }
                    let plane = ch * self.cs + (ry * self.sp + rx) * self.ps;
                    for a in a0..a1 {
                        let (y, x) = (a * s + ry - p, b0 * s + rx - p);
                        f(
                            (ch * self.h + y) * self.w + x,
                            plane + a * self.wq + b0,
                            b1 - b0,
                        );
                    }
                }
            }
        }
    }

    /// Copies image `src` into the interior of its phase-split copy `dst`;
    /// the padding slots keep their (zero) values.
    fn split(&self, src: &[f32], dst: &mut [f32]) {
        self.for_each_run(|px, slot, len| {
            let run = src[px..].iter().step_by(self.s);
            for (d, &v) in dst[slot..][..len].iter_mut().zip(run) {
                *d = v;
            }
        });
    }

    /// Crops a phase-split buffer back to the unpadded image `dst`; pixels
    /// no tap touches keep their (zero) values.
    fn merge(&self, src: &[f32], dst: &mut [f32]) {
        self.for_each_run(|px, slot, len| {
            let run = dst[px..].iter_mut().step_by(self.s);
            for (d, &v) in run.zip(&src[slot..][..len]) {
                *d = v;
            }
        });
    }
}

/// Adds one `KC` block's chains into the running sums and restarts the
/// chains from zero.
#[inline(always)]
fn add_block<V: Lanes, const R: usize>(sums: &mut [V; R], acc: &mut [V; R]) {
    for (s, a) in sums.iter_mut().zip(acc.iter_mut()) {
        *s = s.add(*a);
        *a = V::zero();
    }
}

/// Forward: output slabs `(oc, oh, ow)` of images `lo..hi`.
struct Forward<'a> {
    plan: Plan,
    /// Weights transposed to `taps × ocp`, zero in the padding lanes.
    wt: &'a [f32],
    x: &'a [f32],
    out: SharedOut,
}

impl Pass for Forward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.plan;
        let (chw, slab) = (p.c * p.h * p.w, p.oc * p.oh * p.ow);
        let mut xs = pool::lease(p.split_len());
        for img in lo..hi {
            p.split(&self.x[img * chw..][..chw], &mut xs);
            // SAFETY: each image owns its output slab, and items are
            // disjoint ranges of images.
            let out = unsafe { self.out.slice(img * slab, slab) };
            forward_image::<V>(p, self.wt, &xs, out);
        }
        pool::recycle(xs);
    }
}

/// Forward of one phase-split image `xs` into its zeroed output slab.
#[inline(always)]
fn forward_image<V: Lanes>(p: &Plan, wt: &[f32], xs: &[f32], out: &mut [f32]) {
    let mut table = [0usize; KC];
    for k0 in (0..p.taps).step_by(KC) {
        let offs = &mut table[..KC.min(p.taps - k0)];
        p.tap_offsets(k0, offs);
        let wblk = &wt[k0 * p.ocp..];
        let (mut oy0, mut ox0) = (0, 0);
        for g0 in (0..p.grid).step_by(LANES) {
            for o0 in (0..p.oc).step_by(LANES) {
                // Rows are output channels, lanes are sites.
                let mut acc = [V::zero(); LANES];
                for (i, &off) in offs.iter().enumerate() {
                    let wv = &wblk[i * p.ocp + o0..][..LANES];
                    let xv = V::load(&xs[off + g0..]);
                    for (a, &wr) in acc.iter_mut().zip(wv) {
                        *a = a.mul_add(V::splat(wr), xv);
                    }
                }
                // Add the block's chains into the output, dropping the
                // padding channels and the junk sites. A tile of real sites
                // that is contiguous in the output (inside one output row,
                // or anywhere when the grid has no junk columns) adds as
                // whole lanes.
                let rows = acc.iter().enumerate().take(p.oc - o0);
                if (p.wq == p.ow || ox0 + LANES <= p.ow) && g0 + LANES <= p.grid {
                    let at = oy0 * p.ow + ox0;
                    for (r, a) in rows {
                        let dst = &mut out[(o0 + r) * p.oh * p.ow + at..][..LANES];
                        V::load(dst).add(*a).store(dst);
                    }
                } else {
                    for (r, a) in rows {
                        let (mut oy, mut ox) = (oy0, ox0);
                        for (j, v) in a.to_array().into_iter().enumerate() {
                            if g0 + j == p.grid {
                                break;
                            }
                            if ox < p.ow {
                                out[((o0 + r) * p.oh + oy) * p.ow + ox] += v;
                            }
                            ox += 1;
                            if ox == p.wq {
                                (oy, ox) = (oy + 1, 0);
                            }
                        }
                    }
                }
            }
            // Grid position of the next tile's first site.
            ox0 += LANES;
            while ox0 >= p.wq {
                (oy0, ox0) = (oy0 + 1, ox0 - p.wq);
            }
        }
    }
}

/// dW: `(channel tile, tap tile)` items of the `oc × taps` output.
struct GradW<'a> {
    plan: Plan,
    /// `dY` transposed to `sites × ocp`, zero in the padding lanes.
    dyt: &'a [f32],
    /// Every image, phase-split, back to back.
    xs: &'a [f32],
    out: SharedOut,
}

impl Pass for GradW<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.plan;
        let tap_tiles = p.taps.div_ceil(DW_TAPS);
        for item in lo..hi {
            let (o0, t0) = (item / tap_tiles * LANES, item % tap_tiles * DW_TAPS);
            let sums = grad_w_tile::<V>(p, self.dyt, self.xs, o0, t0).map(V::to_array);
            for (i, row) in sums.iter().enumerate().take(p.taps - t0) {
                for (l, &v) in row.iter().enumerate().take(p.oc - o0) {
                    // SAFETY: `(o0 + l, t0 + i)` lies inside the `oc × taps`
                    // output, and items own disjoint tiles of it.
                    unsafe { *self.out.ptr().add((o0 + l) * p.taps + t0 + i) = v };
                }
            }
        }
    }
}

/// dW of output channels `o0..o0 + LANES` and taps `t0..t0 + DW_TAPS`
/// (taps past the end repeat the last one, and callers drop them): one
/// chain per `KC` block of output sites, sites in `(img, oy, ox)` order.
#[inline(always)]
fn grad_w_tile<V: Lanes>(p: &Plan, dyt: &[f32], xs: &[f32], o0: usize, t0: usize) -> [V; DW_TAPS] {
    let mut offs = [0usize; DW_TAPS];
    let real = DW_TAPS.min(p.taps - t0);
    p.tap_offsets(t0, &mut offs[..real]);
    let last = offs[real - 1];
    offs[real..].fill(last);
    // Rows are taps, lanes are output channels.
    let mut sums = [V::zero(); DW_TAPS];
    let mut acc = [V::zero(); DW_TAPS];
    let mut site = 0;
    for img in xs.chunks_exact(p.split_len()) {
        for oy in 0..p.oh {
            let row = &img[oy * p.wq..];
            for ox in 0..p.ow {
                let dv = V::load(&dyt[site * p.ocp + o0..]);
                for (a, &off) in acc.iter_mut().zip(&offs) {
                    *a = a.mul_add(dv, V::splat(row[ox + off]));
                }
                site += 1;
                if site % KC == 0 {
                    add_block(&mut sums, &mut acc);
                }
            }
        }
    }
    if site % KC != 0 {
        add_block(&mut sums, &mut acc);
    }
    sums
}

/// dX: input-gradient slabs `(c, h, w)` of images `lo..hi`.
struct GradX<'a> {
    plan: Plan,
    /// Weights `oc × taps`.
    w: &'a [f32],
    /// Output gradient `(n, oc, oh, ow)`.
    dy: &'a [f32],
    out: SharedOut,
}

impl Pass for GradX<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.plan;
        let gp = p.tiles * LANES;
        let (chw, ohw) = (p.c * p.h * p.w, p.oh * p.ow);
        // One image's `dY` on the site grid (junk sites stay zero), and a
        // lane mask with all bits set on real sites and clear on junk ones.
        let mut dyg = pool::lease(p.oc * gp);
        let mut real = pool::lease(gp);
        for oy in 0..p.oh {
            real[oy * p.wq..][..p.ow].fill(f32::from_bits(u32::MAX));
        }
        let mut dxs = pool::lease(p.split_len());
        for img in lo..hi {
            let planes = self.dy[img * p.oc * ohw..][..p.oc * ohw].chunks_exact(ohw);
            for (oc, plane) in planes.enumerate() {
                for (oy, row) in plane.chunks_exact(p.ow).enumerate() {
                    dyg[oc * gp + oy * p.wq..][..p.ow].copy_from_slice(row);
                }
            }
            dxs.fill(0.0);
            // Enough taps per block that the short chains over output
            // channels have independent accumulators to interleave.
            match p.tiles {
                1 => grad_x_image::<V, 8>(p, self.w, &dyg, &real, &mut dxs),
                2 | 3 => grad_x_image::<V, 4>(p, self.w, &dyg, &real, &mut dxs),
                _ => grad_x_image::<V, 3>(p, self.w, &dyg, &real, &mut dxs),
            }
            // SAFETY: each image owns its output slab, and items are
            // disjoint ranges of images.
            let out = unsafe { self.out.slice(img * chw, chw) };
            p.merge(&dxs, out);
        }
        pool::recycle(dyg);
        pool::recycle(real);
        pool::recycle(dxs);
    }
}

/// dX of one image into its zeroed padded buffer `dxs`, `T` taps per
/// block. Blocks run over the site grid from the top down: within a block
/// a buffer element takes a lower tap from a higher site than any higher
/// tap (tap offsets grow with the tap index inside a channel's phase
/// plane), so top-down blocks that each add their taps in order keep
/// col2im's ascending tap order at every element.
#[inline(always)]
fn grad_x_image<V: Lanes, const T: usize>(
    p: &Plan,
    w: &[f32],
    dyg: &[f32],
    real: &[f32],
    dxs: &mut [f32],
) {
    for t0 in (0..p.taps).step_by(T) {
        // Taps past the end repeat the last one and are never added.
        let real_taps = T.min(p.taps - t0);
        let mut offs = [0usize; T];
        p.tap_offsets(t0, &mut offs[..real_taps]);
        let taps: [usize; T] = std::array::from_fn(|i| t0 + i.min(real_taps - 1));
        let blk = (&taps, &offs[..real_taps]);
        let mut end = p.tiles;
        while end > 0 {
            end -= match end {
                4.. => grad_x_block::<V, T, 4>(p, w, blk, dyg, real, dxs, end - 4),
                3 => grad_x_block::<V, T, 3>(p, w, blk, dyg, real, dxs, 0),
                2 => grad_x_block::<V, T, 2>(p, w, blk, dyg, real, dxs, 0),
                _ => grad_x_block::<V, T, 1>(p, w, blk, dyg, real, dxs, 0),
            };
        }
    }
}

/// dX contributions of the block's `taps` at grid tiles `t..t + J`: per tap
/// and site, one chain over output channels (`KC`-blocked), added into the
/// padded dX buffer `dxs` tap after tap at the taps' offsets `offs` (one
/// per real tap), on real sites only — so a NaN from a non-finite weight
/// times a junk zero never lands. Returns `J`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn grad_x_block<V: Lanes, const T: usize, const J: usize>(
    p: &Plan,
    w: &[f32],
    (taps, offs): (&[usize; T], &[usize]),
    dyg: &[f32],
    real: &[f32],
    dxs: &mut [f32],
    t: usize,
) -> usize {
    let (g0, gp) = (t * LANES, p.tiles * LANES);
    // Rows are taps, columns are site tiles, lanes are sites.
    let mut sums = [[V::zero(); J]; T];
    for c0 in (0..p.oc).step_by(KC) {
        let mut acc = [[V::zero(); J]; T];
        for oc in c0..p.oc.min(c0 + KC) {
            let row = &dyg[oc * gp + g0..][..J * LANES];
            let dv: [V; J] = std::array::from_fn(|j| V::load(&row[j * LANES..]));
            for (a, &tap) in acc.iter_mut().zip(taps) {
                let wv = V::splat(w[oc * p.taps + tap]);
                for (aj, &dj) in a.iter_mut().zip(&dv) {
                    *aj = aj.mul_add(wv, dj);
                }
            }
        }
        for (s, a) in sums.iter_mut().zip(acc.iter_mut()) {
            add_block(s, a);
        }
    }
    // Junk lanes add +0.0, which leaves the buffer as it is: it starts at
    // +0.0, and a sum of IEEE adds never turns it into −0.0.
    let real = &real[g0..][..J * LANES];
    for (s, &off) in sums.iter().zip(offs) {
        let dst = &mut dxs[off + g0..][..J * LANES];
        for ((d, m), &sj) in dst
            .chunks_exact_mut(LANES)
            .zip(real.chunks_exact(LANES))
            .zip(s)
        {
            V::load(d).add(sj.and(V::load(m))).store(d);
        }
    }
    J
}

/// Batch and channel count of an NCHW input that `geom` describes.
fn input_dims(x: &Tensor, geom: &ConvGeometry) -> Result<(usize, usize)> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
        });
    }
    let d = x.dims();
    if (d[2], d[3]) != (geom.in_h, geom.in_w) {
        return Err(TensorError::InvalidGeometry(format!(
            "geometry expects {}x{}, input is {}x{}",
            geom.in_h, geom.in_w, d[2], d[3]
        )));
    }
    Ok((d[0], d[1]))
}

/// Batch and channel count of an output gradient `(n, out_c, oh, ow)`.
fn grad_dims(dy: &Tensor, geom: &ConvGeometry) -> Result<(usize, usize)> {
    if dy.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: dy.rank(),
        });
    }
    let d = dy.dims();
    let (oh, ow) = geom.out_hw();
    if (d[2], d[3]) != (oh, ow) {
        return Err(TensorError::ShapeMismatch {
            left: vec![d[0], d[1], oh, ow],
            right: d.to_vec(),
        });
    }
    Ok((d[0], d[1]))
}

/// Rows of a `(rows, cols)` weight matrix.
fn weight_rows(w: &Tensor, cols: usize) -> Result<usize> {
    if w.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: w.rank(),
        });
    }
    if w.dims()[1] != cols {
        return Err(TensorError::MatmulDims {
            left_cols: w.dims()[1],
            right_rows: cols,
        });
    }
    Ok(w.dims()[0])
}

impl Tensor {
    /// 2-D convolution of this NCHW input with weights `(out_c, C·k·k)`,
    /// giving `(N, out_c, oh, ow)`.
    ///
    /// Runs the direct forward kernel (no patch matrix); the result is
    /// bitwise identical to `w.matmul(&x.im2col(geom)?)` reordered to NCHW.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D and
    /// `w` 2-D, a geometry error if `geom` disagrees with the input's
    /// spatial size, or [`TensorError::MatmulDims`] if `w`'s columns
    /// differ from `C·k·k`.
    pub fn conv2d(&self, w: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c) = input_dims(self, geom)?;
        let oc = weight_rows(w, c * geom.kernel * geom.kernel)?;
        let plan = Plan::new(geom, c, oc);
        let sites = n * plan.oh * plan.ow;
        let mut out = pool::lease(oc * sites);
        if let Some(product) = Product::begin(oc, sites, plan.taps) {
            let mut wt = pool::lease(plan.taps * plan.ocp);
            for (o, row) in w.data().chunks_exact(plan.taps).enumerate() {
                for (t, &v) in row.iter().enumerate() {
                    wt[t * plan.ocp + o] = v;
                }
            }
            let pass = Forward {
                plan,
                wt: &wt,
                x: self.data(),
                out: SharedOut::new(&mut out),
            };
            execute(&product, &pass, n);
            pool::recycle(wt);
        }
        Tensor::from_vec(out, [n, oc, plan.oh, plan.ow])
    }

    /// Weight gradient of [`Tensor::conv2d`]: `self` is the output
    /// gradient `(N, out_c, oh, ow)` and `x` the forward input; returns
    /// `(out_c, C·k·k)`.
    ///
    /// Runs the direct dW kernel; the result is bitwise identical to
    /// `dy2.matmul_nt(&x.im2col(geom)?)`, with `dy2` the `(out_c, N·oh·ow)`
    /// reorder of `self`.
    ///
    /// # Errors
    ///
    /// Returns rank and geometry errors as [`Tensor::conv2d`] does, and
    /// [`TensorError::ShapeMismatch`] if `self` is not
    /// `(N, out_c, oh, ow)` for `x`'s batch and `geom`'s output size.
    pub fn conv2d_grad_weight(&self, x: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c) = input_dims(x, geom)?;
        let (dn, oc) = grad_dims(self, geom)?;
        let plan = Plan::new(geom, c, oc);
        if dn != n {
            return Err(TensorError::ShapeMismatch {
                left: vec![n, oc, plan.oh, plan.ow],
                right: self.dims().to_vec(),
            });
        }
        let ohw = plan.oh * plan.ow;
        let mut out = pool::lease(oc * plan.taps);
        if let Some(product) = Product::begin(oc, plan.taps, n * ohw) {
            let mut dyt = pool::lease(n * ohw * plan.ocp);
            for (plane, src) in self.data().chunks_exact(ohw).enumerate() {
                let (img, o) = (plane / oc, plane % oc);
                for (j, &v) in src.iter().enumerate() {
                    dyt[(img * ohw + j) * plan.ocp + o] = v;
                }
            }
            let (chw, split) = (c * plan.h * plan.w, plan.split_len());
            let mut xs = pool::lease(n * split);
            for (img, dst) in xs.chunks_exact_mut(split).enumerate() {
                plan.split(&x.data()[img * chw..][..chw], dst);
            }
            let pass = GradW {
                plan,
                dyt: &dyt,
                xs: &xs,
                out: SharedOut::new(&mut out),
            };
            execute(
                &product,
                &pass,
                plan.ocp / LANES * plan.taps.div_ceil(DW_TAPS),
            );
            pool::recycle(dyt);
            pool::recycle(xs);
        }
        Tensor::from_vec(out, [oc, plan.taps])
    }

    /// Input gradient of [`Tensor::conv2d`]: `self` is the output gradient
    /// `(N, out_c, oh, ow)` and `w` the `(out_c, C·k·k)` weights; returns
    /// `(N, C, in_h, in_w)`.
    ///
    /// Runs the direct dX kernel; the result is bitwise identical to
    /// `w.matmul_tn(&dy2)?.col2im(geom, N, C)`, with `dy2` the
    /// `(out_c, N·oh·ow)` reorder of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is 4-D and `w`
    /// 2-D, [`TensorError::InvalidGeometry`] if `w`'s columns are not a
    /// multiple of `k·k`, and [`TensorError::ShapeMismatch`] if `self` is
    /// not `(N, out_c, oh, ow)` for `w`'s rows and `geom`'s output size.
    pub fn conv2d_grad_input(&self, w: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        if w.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: w.rank(),
            });
        }
        let (oc, taps) = (w.dims()[0], w.dims()[1]);
        let kk = geom.kernel * geom.kernel;
        if taps % kk != 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "weight has {taps} columns, not a multiple of the {kk} kernel taps"
            )));
        }
        let (n, dc) = grad_dims(self, geom)?;
        let plan = Plan::new(geom, taps / kk, oc);
        if dc != oc {
            return Err(TensorError::ShapeMismatch {
                left: vec![n, oc, plan.oh, plan.ow],
                right: self.dims().to_vec(),
            });
        }
        let mut out = pool::lease(n * plan.c * plan.h * plan.w);
        if let Some(product) = Product::begin(taps, n * plan.oh * plan.ow, oc) {
            let pass = GradX {
                plan,
                w: w.data(),
                dy: self.data(),
                out: SharedOut::new(&mut out),
            };
            execute(&product, &pass, n);
        }
        Tensor::from_vec(out, [n, plan.c, plan.h, plan.w])
    }
}
