//! Direct convolution kernels: forward, weight gradient (dW) and input
//! gradient (dX) of a 2-D convolution over NCHW activations.
//!
//! The kernels read activations through one zero-padded copy of the batch
//! and never build, pack or scatter a patch matrix. They compute the
//! products the im2col lowering expresses as GEMMs — forward `W·cols`, dW
//! `dY·colsᵀ`, dX `col2im(Wᵀ·dY)` — with the packed GEMM's rounding, so
//! every output is bitwise identical to that lowering under either
//! [`GemmKernel`](crate::GemmKernel) — both run on the lanes of
//! [`crate::ops::lanes`]. The lowering itself is test code
//! (`hero_testkit::im2col`/`col2im`), the reference
//! `crates/tensor/tests/conv_kernels.rs` holds these kernels against:
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
//!   over output channels (`KC`-blocked likewise), and the element is the
//!   sum of those contributions in ascending `(ky, kx)` order — col2im's
//!   order — started from zero. The kernel gathers: it walks an element's
//!   taps in that order, adds their chains in registers and stores the
//!   element once.
//!
//! **Layout.** The batch is copied once, by rows, into one folded buffer
//! (the forward folds, and dX unfolds, at most a training batch of images
//! at a time): per channel,
//! `s × s` phase planes (a single plane at stride 1), each holding every
//! image's zero-padded plane rows one image after another. Neighbouring rows and images share their padding, so rows are
//! `wq` wide and images `hq` rows tall with `wq ≤ ⌈(w + 2p)/s⌉` and
//! `hq ≤ ⌈(h + 2p)/s⌉` (see `Plan::new`). Output site `(img, oy, ox)`
//! sits at `img·hq·wq + oy·wq + ox` on the folded site grid and reads tap
//! `(ky, kx)` at a constant offset from there. The forward therefore runs
//! over the whole batch's grid in lane-wide tiles with contiguous
//! loads and stores; sites with `ox ≥ ow` or `oy ≥ oh` are junk lanes,
//! which it crops away. dX runs the other way, with lanes over the
//! positions of a folded dX buffer, one phase plane at a time: tap
//! `(ky, kx)` of plane `(ky mod s, kx mod s)` reaches position `q` from
//! site `q − (ky/s)·wq − kx/s`, so it reads `dY` at a constant negative
//! offset in a front-padded `dY` grid, and a lane mask drops junk sites.
//! Forward tiles hold 4 output channels × 2 site tiles, dW tiles put one
//! lane vector of output channels against 12 taps, and dX tiles hold 4
//! input channels × 2 position tiles, so each `dY` load feeds 4 chains.
//! The depthwise kernels (`ops::depthwise`) fold their operands into the
//! same layout, with a lane vector of channels side by side.
//!
//! **Width.** Tiles are whole lane vectors of the product's width (8 or 16,
//! see [`crate::ops::lanes`]), and so are the sizes the [`Plan`] pads to:
//! output channels (`ocp`), the forward grid (`gp`) and the dX planes. The
//! plan takes the width from the product before a pass runs; dW, whose
//! lanes are output channels, runs 8 wide for at most 8 of them. The width
//! moves which chains share a vector, never a chain's terms or order.
//!
//! Each kernel runs inside its product's GEMM span and counters and splits
//! its outer loop over the GEMM worker pool: forward tiles, dW channel ×
//! tap tiles, and dX `(channel block, plane, position group)` items. Items
//! write disjoint outputs and no chain depends on the split, so results
//! are bitwise equal at any thread count. Scratch buffers are leased from
//! the running thread's pool.

use crate::error::{Result, TensorError};
use crate::ops::gemm::{Product, SharedOut, KC};
use crate::ops::lanes::{execute, Lanes, Pass};
use crate::pool;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution window over an NCHW input.
///
/// # Examples
///
/// ```
/// use hero_tensor::ConvGeometry;
///
/// # fn main() -> Result<(), hero_tensor::TensorError> {
/// let g = ConvGeometry::new(8, 8, 3, 1, 1)?; // 8x8 input, 3x3 kernel, stride 1, pad 1
/// assert_eq!(g.out_hw(), (8, 8)); // "same" convolution
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates and validates a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] for a zero stride/kernel or
    /// a kernel larger than the padded input.
    pub fn new(in_h: usize, in_w: usize, kernel: usize, stride: usize, pad: usize) -> Result<Self> {
        if stride == 0 || kernel == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel and stride must be positive".into(),
            ));
        }
        if kernel > in_h + 2 * pad || kernel > in_w + 2 * pad {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} exceeds padded input {}x{}",
                in_h + 2 * pad,
                in_w + 2 * pad
            )));
        }
        Ok(ConvGeometry {
            in_h,
            in_w,
            kernel,
            stride,
            pad,
        })
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn out_hw(&self) -> (usize, usize) {
        let oh = (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }
}

/// Taps per dW tile: twelve accumulators, the `dY` lanes and one
/// broadcast fit the sixteen ymm registers.
const DW_TAPS: usize = 12;
/// Output channels × site tiles per forward tile: eight chains, enough to
/// keep both FMA ports busy, for six loads per tap. (At 8 lanes, three site
/// tiles leave one register short, and the two spilled chains cost a fifth
/// of the forward.)
const FWD_CHANNELS: usize = 4;
const FWD_TILES: usize = 2;
/// Images the forward and dX fold at a time: a training batch. Larger
/// (evaluation, probe) batches run in chunks, so the folded copies and grid
/// scratch stay the size a training step leases.
pub(crate) const FOLD_IMAGES: usize = 32;
/// Input channels × position tiles per dX item: each `dY` load feeds four
/// channels' chains, for six loads per eight FMAs as in the forward.
const DX_CHANNELS: usize = 4;
const DX_TILES: usize = 2;

/// Shapes of one convolution over a batch and of its folded layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    pub(crate) n: usize,
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    oc: usize,
    pub(crate) k: usize,
    pub(crate) s: usize,
    pub(crate) p: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    /// Phase planes per axis, `min(s, k)`: phases no tap reads are not
    /// stored.
    pub(crate) sp: usize,
    /// Phase-plane width.
    pub(crate) wq: usize,
    /// Grid stride of one image, `hq·wq`.
    pub(crate) ig: usize,
    /// Phase-plane size, `n·ig`: every image's rows, one after another.
    pub(crate) ps: usize,
    /// Channel stride of the folded buffer.
    pub(crate) cs: usize,
    /// Sites of the folded grid up to the last real one,
    /// `(n − 1)·ig + (oh − 1)·wq + ow`.
    grid: usize,
    /// The grid rounded up to whole forward tiles: the row length of
    /// grid-shaped scratch.
    gp: usize,
    /// Patch rows, `c·k·k`.
    taps: usize,
    /// The lane width the plan's passes run at.
    pub(crate) lanes: usize,
    /// Output channels rounded up to whole lane vectors.
    pub(crate) ocp: usize,
}

impl Plan {
    /// The plan of `n` images of `c` channels into `oc`, laid out for
    /// passes `lanes` wide.
    pub(crate) fn new(geom: &ConvGeometry, n: usize, c: usize, oc: usize, lanes: usize) -> Plan {
        let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
        let (oh, ow) = geom.out_hw();
        let sp = s.min(k);
        // Pitch of the folded layout along one axis: plane row width, or
        // rows per image. Neighbours share their padding: phase `r` holds
        // data at indices `lo..hi`, and real sites reach index
        // `out − 1 + (k − 1 − r)/s`, so a pitch that holds the data and
        // keeps every reach past it inside the next row's (or image's)
        // leading padding reads what a separately padded image holds.
        let pitch = |len: usize, out: usize| {
            (0..sp).fold(out, |pitch, r| {
                let lo = p.saturating_sub(r).div_ceil(s);
                let hi = (p + len).saturating_sub(r).div_ceil(s);
                let reach = out + (k - 1 - r) / s;
                pitch.max(hi).max(reach.saturating_sub(lo))
            })
        };
        let (hq, wq) = (pitch(geom.in_h, oh), pitch(geom.in_w, ow));
        let ig = hq * wq;
        // A plane holds every image, then the rows the last image's real
        // sites reach past its own, plus one for reads past the last
        // column.
        let rows = match n {
            0 => 0,
            _ => (n - 1) * hq + hq.max(oh + (k - 1) / s + 1),
        };
        let grid = match n {
            0 => 0,
            _ => (n - 1) * ig + (oh - 1) * wq + ow,
        };
        Plan {
            n,
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
            ig,
            ps: rows * wq,
            cs: sp * sp * rows * wq,
            grid,
            gp: grid.div_ceil(FWD_TILES * lanes) * FWD_TILES * lanes,
            taps: c * k * k,
            lanes,
            ocp: oc.div_ceil(lanes) * lanes,
        }
    }

    /// Grid sites per forward tile.
    fn fwd_sites(&self) -> usize {
        FWD_TILES * self.lanes
    }

    /// Folded dX positions per item.
    fn dx_sites(&self) -> usize {
        DX_TILES * self.lanes
    }

    /// Checks that a pass runs on lanes `V` as wide as the plan's layout.
    #[inline(always)]
    pub(crate) fn check_lanes<V: Lanes>(&self) {
        assert_eq!(V::N, self.lanes, "pass runs at another lane width");
    }

    /// Elements of the folded buffer, plus the slack that tiles past the
    /// last real site read or write beyond the end.
    fn split_len(&self) -> usize {
        self.c * self.cs + self.gp - self.grid
    }

    /// Fills `out` with the offsets of taps `t0, t0 + 1, …` in the folded
    /// buffer, relative to the grid position of the output site that reads
    /// them. Tap `(ch, ky, kx)` lies in phase plane `(ky mod s, kx mod s)`
    /// at row `ky / s`, column `kx / s`; the quotients and remainders are
    /// stepped rather than divided per tap.
    pub(crate) fn tap_offsets(&self, t0: usize, out: &mut [usize]) {
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

    /// Calls `f(pixel, slot, len)` for each input row of the NCHW batch,
    /// once per phase plane that stores part of it: its pixels `pixel,
    /// pixel + s, …` land on the `len` consecutive slots `slot, slot + 1, …`
    /// of the folded buffer. Pixels no tap reads (stride above kernel) are
    /// left out.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (s, p) = (self.s, self.p);
        // Padded row `y + p` of input row `y` is row `a` of phase `ry`.
        let (a0, ry0) = (p / s, p % s);
        for rx in 0..self.sp {
            // Phase columns `b` with `p ≤ b·s + rx < p + w`.
            let b0 = p.saturating_sub(rx).div_ceil(s);
            let b1 = (p + self.w).saturating_sub(rx).div_ceil(s);
            if b0 >= b1 {
                continue;
            }
            // Input rows in storage order, so the batch is read front to
            // back once per stored column phase.
            let mut px = b0 * s + rx - p;
            for img in 0..self.n {
                for ch in 0..self.c {
                    let (mut a, mut ry) = (a0, ry0);
                    for _ in 0..self.h {
                        if ry < self.sp {
                            let plane = ch * self.cs + (ry * self.sp + rx) * self.ps;
                            f(px, plane + img * self.ig + a * self.wq + b0, b1 - b0);
                        }
                        px += self.w;
                        (a, ry) = if ry + 1 == s { (a + 1, 0) } else { (a, ry + 1) };
                    }
                }
            }
        }
    }

    /// Copies the NCHW batch `src` into the interior of the zeroed folded
    /// buffer `dst`, one row copy (a deinterleave at stride above 1) per
    /// run; the padding and slack keep their zeros.
    fn split(&self, src: &[f32], dst: &mut [f32]) {
        self.for_each_run(|px, slot, len| {
            let run = &mut dst[slot..][..len];
            if self.s == 1 {
                copy_row(run, &src[px..][..len]);
            } else {
                let src = &src[px..][..(len - 1) * self.s + 1];
                for (i, d) in run.iter_mut().enumerate() {
                    *d = src[i * self.s];
                }
            }
        });
    }

    /// Crops the folded buffer `src` back to the NCHW batch `dst`, one row
    /// copy per run; pixels no tap touches keep their (zero) values.
    fn merge(&self, src: &[f32], dst: &mut [f32]) {
        self.for_each_run(|px, slot, len| {
            let run = &src[slot..][..len];
            if self.s == 1 {
                copy_row(&mut dst[px..][..len], run);
            } else {
                let dst = &mut dst[px..][..(len - 1) * self.s + 1];
                for (i, &v) in run.iter().enumerate() {
                    dst[i * self.s] = v;
                }
            }
        });
    }

    /// This plan with phase planes `len` long (at least `n·ig`, every
    /// image's rows): the dX kernel's folded buffer, whose planes hold whole
    /// position groups.
    fn with_plane_len(mut self, len: usize) -> Plan {
        self.ps = len;
        self.cs = self.sp * self.sp * len;
        self
    }

    /// Calls `f(at, px, len)` for every run of output sites that lie
    /// next to each other both on the grid and in the `(n, oc, oh, ow)`
    /// tensor: `at` is the run's first site in grid-shaped scratch with one
    /// `row`-long row per output channel, `px` its first element in the
    /// tensor. A run is an output row, or a whole output plane when the
    /// grid has no junk columns (`wq = ow`, as at 1×1 stride 1).
    fn for_each_output_run(&self, row: usize, mut f: impl FnMut(usize, usize, usize)) {
        let (rows, len) = match self.wq == self.ow {
            true => (1, self.oh * self.ow),
            false => (self.oh, self.ow),
        };
        for img in 0..self.n {
            for o in 0..self.oc {
                let px = (img * self.oc + o) * self.oh * self.ow;
                for r in 0..rows {
                    f(o * row + img * self.ig + r * self.wq, px + r * len, len);
                }
            }
        }
    }
}

/// Copies `src` into `dst` of the same length. The rows of small feature
/// maps are a few elements long, where fixed-size pieces that stay in
/// registers beat a `memcpy` call.
#[inline(always)]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let len = src.len();
    match len {
        0..4 => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v;
            }
        }
        // Two overlapping 4-element pieces.
        4..=8 => {
            dst[..4].copy_from_slice(&src[..4]);
            dst[len - 4..].copy_from_slice(&src[len - 4..]);
        }
        _ => dst.copy_from_slice(src),
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

/// Forward: grid tiles `lo..hi` (`fwd_sites` sites each) of every output
/// channel.
struct Forward<'a> {
    plan: Plan,
    /// Weights transposed to `taps × ocp`, zero in the padding lanes.
    wt: &'a [f32],
    /// The folded input.
    xs: &'a [f32],
    /// Zeroed `oc × gp` grid-shaped output.
    out: SharedOut,
}

impl Pass for Forward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.plan;
        p.check_lanes::<V>();
        let sites = p.fwd_sites();
        let mut table = [0usize; KC];
        for k0 in (0..p.taps).step_by(KC) {
            let offs = &mut table[..KC.min(p.taps - k0)];
            p.tap_offsets(k0, offs);
            let wblk = &self.wt[k0 * p.ocp..];
            for g0 in (lo * sites..hi * sites).step_by(sites) {
                for o0 in (0..p.oc).step_by(FWD_CHANNELS) {
                    let acc = forward_tile::<V>(p, wblk, offs, &self.xs[g0..], o0);
                    // Add the block's chains into the output as whole
                    // lanes, dropping the padding channels.
                    for (r, a) in acc.iter().enumerate().take(p.oc - o0) {
                        // SAFETY: the tile lies inside row `o0 + r` of the
                        // `oc × gp` output, and items own disjoint tiles.
                        let dst = unsafe { self.out.slice((o0 + r) * p.gp + g0, sites) };
                        for (d, &aj) in dst.chunks_exact_mut(V::N).zip(a) {
                            V::load(d).add(aj).store(d);
                        }
                    }
                }
            }
        }
    }
}

/// One `KC` block's chains of output channels `o0..o0 + FWD_CHANNELS` at
/// the `FWD_TILES · N` grid sites whose folded input starts at `xs`, over the
/// taps at offsets `offs` (weights from `wblk`).
#[inline(always)]
fn forward_tile<V: Lanes>(
    p: &Plan,
    wblk: &[f32],
    offs: &[usize],
    xs: &[f32],
    o0: usize,
) -> [[V; FWD_TILES]; FWD_CHANNELS] {
    // Rows are output channels, columns are site tiles, lanes are sites.
    let mut acc = [[V::zero(); FWD_TILES]; FWD_CHANNELS];
    for (i, &off) in offs.iter().enumerate() {
        let x = &xs[off..][..FWD_TILES * V::N];
        let xv: [V; FWD_TILES] = std::array::from_fn(|j| V::load(&x[j * V::N..]));
        let wv = &wblk[i * p.ocp + o0..][..FWD_CHANNELS];
        for (a, &wr) in acc.iter_mut().zip(wv) {
            let wr = V::splat(wr);
            for (aj, &xj) in a.iter_mut().zip(&xv) {
                *aj = aj.mul_add(wr, xj);
            }
        }
    }
    acc
}

/// dW: `(channel tile, tap tile)` items of the `oc × taps` output.
struct GradW<'a> {
    plan: Plan,
    /// `dY` transposed to `sites × ocp`, zero in the padding lanes.
    dyt: &'a [f32],
    /// The folded input.
    xs: &'a [f32],
    out: SharedOut,
}

impl Pass for GradW<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.plan;
        p.check_lanes::<V>();
        let tap_tiles = p.taps.div_ceil(DW_TAPS);
        for item in lo..hi {
            let (o0, t0) = (item / tap_tiles * V::N, item % tap_tiles * DW_TAPS);
            let sums = grad_w_tile::<V>(p, self.dyt, self.xs, o0, t0).map(V::to_array);
            for (i, row) in sums.iter().enumerate().take(p.taps - t0) {
                for (l, &v) in row.iter().enumerate().take(V::N.min(p.oc - o0)) {
                    // SAFETY: `(o0 + l, t0 + i)` lies inside the `oc × taps`
                    // output, and items own disjoint tiles of it.
                    unsafe { *self.out.ptr().add((o0 + l) * p.taps + t0 + i) = v };
                }
            }
        }
    }
}

/// dW of output channels `o0..o0 + N` and taps `t0..t0 + DW_TAPS`
/// (taps past the end repeat the last one, and callers drop them): one
/// chain per `KC` block of output sites, sites in `(img, oy, ox)` order.
#[inline(always)]
fn grad_w_tile<V: Lanes>(p: &Plan, dyt: &[f32], xs: &[f32], o0: usize, t0: usize) -> [V; DW_TAPS] {
    let mut offs = [0usize; DW_TAPS];
    let real = DW_TAPS.min(p.taps - t0);
    p.tap_offsets(t0, &mut offs[..real]);
    let last = offs[real - 1];
    offs[real..].fill(last);
    let reach = offs.iter().max().copied().unwrap_or(0) + p.ow;
    // Rows are taps, lanes are output channels.
    let mut sums = [V::zero(); DW_TAPS];
    let mut acc = [V::zero(); DW_TAPS];
    let mut site = 0;
    for img in 0..p.n {
        for oy in 0..p.oh {
            let row = &xs[img * p.ig + oy * p.wq..];
            assert!(reach <= row.len(), "tap past the folded buffer");
            for ox in 0..p.ow {
                let dv = V::load(&dyt[site * p.ocp + o0..]);
                for (a, &off) in acc.iter_mut().zip(&offs) {
                    // SAFETY: `ox + off < reach ≤ row.len()`. Checking
                    // every tap instead costs a quarter of the kernel.
                    let x = unsafe { *row.get_unchecked(ox + off) };
                    *a = a.mul_add(dv, V::splat(x));
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

/// dX: `(channel block, phase plane, position group)` items of a chunk's
/// folded dX buffer, `dx_sites` positions each.
struct GradX<'a> {
    /// The chunk's plan, with phase planes of whole position groups.
    plan: Plan,
    /// Weights regrouped to `(channel block, k·k taps, oc, DX_CHANNELS)`,
    /// zero in the padding channels of the last block.
    wg: &'a [f32],
    /// The chunk's `dY` on the folded grid, one row of `row` elements per
    /// output channel, shifted by `front` zero sites (junk sites stay
    /// zero).
    dyg: &'a [f32],
    /// A lane mask on the same shifted grid: all bits set on real sites,
    /// clear on junk and front sites.
    real: &'a [f32],
    row: usize,
    front: usize,
    out: SharedOut,
}

impl Pass for GradX<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.plan;
        p.check_lanes::<V>();
        let sites = p.dx_sites();
        let (groups, planes) = (p.ps / sites, p.sp * p.sp);
        // Items run `(channel block, plane, group)` in row-major order:
        // divide once per run of groups in one plane.
        let mut item = lo;
        while item < hi {
            let (block, g0) = (item / groups, item % groups);
            let g1 = groups.min(g0 + hi - item);
            let (cb, plane) = (block / planes, block % planes);
            let phase = (plane / p.sp, plane % p.sp);
            for g in g0..g1 {
                self.group::<V>(cb, plane, phase, g * sites);
            }
            item += g1 - g0;
        }
    }
}

impl GradX<'_> {
    /// dX of channel block `cb` at positions `q0..q0 + DX_TILES · N` of
    /// phase plane `plane` (phase `(ry, rx)`), each element summed in
    /// registers and stored once.
    #[inline(always)]
    fn group<V: Lanes>(&self, cb: usize, plane: usize, (ry, rx): (usize, usize), q0: usize) {
        let p = &self.plan;
        let (k, sites) = (p.k, DX_TILES * V::N);
        let last = self.front + q0 + (p.oc - 1) * self.row + sites;
        assert!(last <= self.dyg.len(), "tap past the dY grid");
        // Rows are input channels, columns are position tiles, lanes are
        // positions.
        let mut sums = [[V::zero(); DX_TILES]; DX_CHANNELS];
        // The plane's taps in ascending `(ky, kx)` order, col2im's order at
        // every element. Tap `(ky, kx)` = `(ry + qy·s, rx + qx·s)` reaches
        // position `q` from site `q − qy·wq − qx`.
        for (qy, ky) in (ry..k).step_by(p.s).enumerate() {
            for (qx, kx) in (rx..k).step_by(p.s).enumerate() {
                let at = self.front + q0 - qy * p.wq - qx;
                let w = &self.wg[((cb * k + ky) * k + kx) * p.oc * DX_CHANNELS..];
                // SAFETY: checked above for the tap at offset zero, which
                // reads furthest.
                let chain = unsafe { grad_x_chain::<V>(p.oc, w, &self.dyg[at..], self.row) };
                // Junk and front sites add +0.0, which leaves a sum as it
                // is: it starts at +0.0, and a sum of IEEE adds never turns
                // it into −0.0. The mask also keeps a non-finite weight
                // times a junk zero from landing.
                let real = &self.real[at..][..sites];
                for (sum, c) in sums.iter_mut().zip(&chain) {
                    for ((sj, &cj), m) in sum.iter_mut().zip(c).zip(real.chunks_exact(V::N)) {
                        *sj = sj.add(cj.and(V::load(m)));
                    }
                }
            }
        }
        let c0 = cb * DX_CHANNELS;
        for (r, sum) in sums.iter().enumerate().take(p.c - c0) {
            // SAFETY: the group lies inside plane `plane` of channel
            // `c0 + r`, and items own disjoint groups.
            let dst = unsafe { self.out.slice((c0 + r) * p.cs + plane * p.ps + q0, sites) };
            for (d, sj) in dst.chunks_exact_mut(V::N).zip(sum) {
                sj.store(d);
            }
        }
    }
}

/// One tap's chains over output channels (`KC`-blocked) for the
/// `DX_CHANNELS` input channels whose weights `w` holds (`oc ×
/// DX_CHANNELS`) at the `DX_TILES · N` sites whose `dY` starts at `dy` (rows
/// `row` apart). Blocks after the first are added in block order; the
/// lowering's `0 +` before the first block only changes the sign of a zero
/// chain, which the caller's add erases.
///
/// # Safety
///
/// `dy` must hold `(oc − 1)·row + DX_TILES · N` values.
#[inline(always)]
unsafe fn grad_x_chain<V: Lanes>(
    oc: usize,
    w: &[f32],
    dy: &[f32],
    row: usize,
) -> [[V; DX_TILES]; DX_CHANNELS] {
    let mut sums = grad_x_block::<V>(w, dy, row, 0..KC.min(oc));
    for c0 in (KC..oc).step_by(KC) {
        let acc = grad_x_block::<V>(w, dy, row, c0..oc.min(c0 + KC));
        for (s, a) in sums.iter_mut().zip(&acc) {
            for (sj, &aj) in s.iter_mut().zip(a) {
                *sj = sj.add(aj);
            }
        }
    }
    sums
}

/// The chains of [`grad_x_chain`] over output channels `outs`, one `KC`
/// block, started from zero.
///
/// # Safety
///
/// As for [`grad_x_chain`], with `oc = outs.end`.
#[inline(always)]
unsafe fn grad_x_block<V: Lanes>(
    w: &[f32],
    dy: &[f32],
    row: usize,
    outs: std::ops::Range<usize>,
) -> [[V; DX_TILES]; DX_CHANNELS] {
    let mut acc = [[V::zero(); DX_TILES]; DX_CHANNELS];
    let wblk = &w[outs.start * DX_CHANNELS..outs.end * DX_CHANNELS];
    let mut at = outs.start * row;
    for wr in wblk.chunks_exact(DX_CHANNELS) {
        // One `dY` load per tile feeds every channel's chain. Checking
        // every load instead cost ~15% on the 8→8 3×3 layer.
        let y = dy.get_unchecked(at..at + DX_TILES * V::N);
        let dv: [V; DX_TILES] = std::array::from_fn(|j| V::load(&y[j * V::N..]));
        for (a, &wc) in acc.iter_mut().zip(wr) {
            let wv = V::splat(wc);
            for (aj, &dj) in a.iter_mut().zip(&dv) {
                *aj = aj.mul_add(wv, dj);
            }
        }
        at += row;
    }
    acc
}

/// Batch and channel count of an NCHW input that `geom` describes.
pub(crate) fn input_dims(x: &Tensor, geom: &ConvGeometry) -> Result<(usize, usize)> {
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
pub(crate) fn grad_dims(dy: &Tensor, geom: &ConvGeometry) -> Result<(usize, usize)> {
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
    /// bitwise identical to `w.matmul(&im2col(x, geom)?)` reordered to NCHW.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D and
    /// `w` 2-D, a geometry error if `geom` disagrees with the input's
    /// spatial size, or [`TensorError::MatmulDims`] if `w`'s columns
    /// differ from `C·k·k`.
    pub fn conv2d(&self, w: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c) = input_dims(self, geom)?;
        let taps = c * geom.kernel * geom.kernel;
        let oc = weight_rows(w, taps)?;
        let (oh, ow) = geom.out_hw();
        let (chw, slab) = (c * geom.in_h * geom.in_w, oc * oh * ow);
        let mut out = pool::lease(n * slab);
        if let Some(product) = Product::begin(oc, n * oh * ow, taps) {
            let plan = Plan::new(geom, n, c, oc, product.width);
            let mut wt = pool::lease(plan.taps * plan.ocp);
            for (o, row) in w.data().chunks_exact(plan.taps).enumerate() {
                for (t, &v) in row.iter().enumerate() {
                    wt[t * plan.ocp + o] = v;
                }
            }
            // Chunk by image count: an empty input plane (`chw == 0`)
            // still has padding-only output sites.
            for img0 in (0..n).step_by(FOLD_IMAGES) {
                let plan = Plan::new(geom, FOLD_IMAGES.min(n - img0), c, oc, product.width);
                let x = &self.data()[img0 * chw..][..plan.n * chw];
                let out = &mut out[img0 * slab..][..plan.n * slab];
                let mut xs = pool::lease(plan.split_len());
                plan.split(x, &mut xs);
                let mut grid = pool::lease(oc * plan.gp);
                let pass = Forward {
                    plan,
                    wt: &wt,
                    xs: &xs,
                    out: SharedOut::new(&mut grid),
                };
                execute(&product, &pass, plan.gp / plan.fwd_sites());
                // Crop the real sites into NCHW.
                plan.for_each_output_run(plan.gp, |at, px, len| {
                    copy_row(&mut out[px..][..len], &grid[at..][..len]);
                });
                pool::recycle(xs);
                pool::recycle(grid);
            }
            pool::recycle(wt);
        }
        Tensor::from_vec(out, [n, oc, oh, ow])
    }

    /// Weight gradient of [`Tensor::conv2d`]: `self` is the output
    /// gradient `(N, out_c, oh, ow)` and `x` the forward input; returns
    /// `(out_c, C·k·k)`.
    ///
    /// Runs the direct dW kernel; the result is bitwise identical to
    /// `dy2.matmul_nt(&im2col(x, geom)?)`, with `dy2` the `(out_c, N·oh·ow)`
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
        let (oh, ow) = geom.out_hw();
        if dn != n {
            return Err(TensorError::ShapeMismatch {
                left: vec![n, oc, oh, ow],
                right: self.dims().to_vec(),
            });
        }
        let (ohw, taps) = (oh * ow, c * geom.kernel * geom.kernel);
        let mut out = pool::lease(oc * taps);
        if let Some(product) = Product::begin(oc, taps, n * ohw).map(|p| p.lanes_over(oc)) {
            let plan = Plan::new(geom, n, c, oc, product.width);
            let mut dyt = pool::lease(n * ohw * plan.ocp);
            let images = dyt.chunks_exact_mut(ohw * plan.ocp);
            for (dst, src) in images.zip(self.data().chunks_exact(oc * ohw)) {
                for (j, dst) in dst.chunks_exact_mut(plan.ocp).enumerate() {
                    for (d, plane) in dst.iter_mut().zip(src.chunks_exact(ohw)) {
                        *d = plane[j];
                    }
                }
            }
            let mut xs = pool::lease(plan.split_len());
            plan.split(x.data(), &mut xs);
            let pass = GradW {
                plan,
                dyt: &dyt,
                xs: &xs,
                out: SharedOut::new(&mut out),
            };
            execute(
                &product,
                &pass,
                plan.ocp / plan.lanes * taps.div_ceil(DW_TAPS),
            );
            pool::recycle(dyt);
            pool::recycle(xs);
        }
        Tensor::from_vec(out, [oc, taps])
    }

    /// Input gradient of [`Tensor::conv2d`]: `self` is the output gradient
    /// `(N, out_c, oh, ow)` and `w` the `(out_c, C·k·k)` weights; returns
    /// `(N, C, in_h, in_w)`.
    ///
    /// Runs the direct dX kernel; the result is bitwise identical to
    /// `col2im(&w.matmul_tn(&dy2)?, geom, N, C)`, with `dy2` the
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
        let (c, (oh, ow)) = (taps / kk, geom.out_hw());
        if dc != oc {
            return Err(TensorError::ShapeMismatch {
                left: vec![n, oc, oh, ow],
                right: self.dims().to_vec(),
            });
        }
        let (chw, slab) = (c * geom.in_h * geom.in_w, oc * oh * ow);
        let mut out = pool::lease(n * chw);
        if let Some(product) = Product::begin(taps, n * oh * ow, oc) {
            let blocks = c.div_ceil(DX_CHANNELS);
            let mut wg = pool::lease(blocks * kk * oc * DX_CHANNELS);
            for (o, row) in w.data().chunks_exact(taps).enumerate() {
                for (ch, taps) in row.chunks_exact(kk).enumerate() {
                    let (block, lane) = (ch / DX_CHANNELS * kk, ch % DX_CHANNELS);
                    for (tk, &v) in taps.iter().enumerate() {
                        wg[((block + tk) * oc + o) * DX_CHANNELS + lane] = v;
                    }
                }
            }
            for img0 in (0..n).step_by(FOLD_IMAGES) {
                let chunk = Plan::new(geom, FOLD_IMAGES.min(n - img0), c, oc, product.width);
                let dy = &self.data()[img0 * slab..][..chunk.n * slab];
                let out = &mut out[img0 * chw..][..chunk.n * chw];
                let sites = chunk.dx_sites();
                let plan = chunk.with_plane_len((chunk.n * chunk.ig).div_ceil(sites) * sites);
                // Sites reach positions up to `front` past them, so `dY`
                // rows start that many zero sites late and every read
                // stays inside the row.
                let reach = (plan.k - 1) / plan.s;
                let front = reach * (plan.wq + 1);
                let row = front + plan.ps;
                let mut dyg = pool::lease(oc * row);
                plan.for_each_output_run(row, |at, px, len| {
                    copy_row(&mut dyg[front + at..][..len], &dy[px..][..len]);
                });
                let mut real = pool::lease(row);
                for img in 0..plan.n {
                    for oy in 0..plan.oh {
                        let at = front + img * plan.ig + oy * plan.wq;
                        real[at..][..plan.ow].fill(f32::from_bits(u32::MAX));
                    }
                }
                let mut dxs = pool::lease(plan.c * plan.cs);
                let pass = GradX {
                    plan,
                    wg: &wg,
                    dyg: &dyg,
                    real: &real,
                    row,
                    front,
                    out: SharedOut::new(&mut dxs),
                };
                let planes = plan.sp * plan.sp;
                execute(&product, &pass, blocks * planes * plan.ps / sites);
                plan.merge(&dxs, out);
                pool::recycle(dyg);
                pool::recycle(real);
                pool::recycle(dxs);
            }
            pool::recycle(wg);
        }
        Tensor::from_vec(out, [n, c, geom.in_h, geom.in_w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    #[test]
    fn geometry_validates() {
        assert!(ConvGeometry::new(4, 4, 3, 1, 0).is_ok());
        assert!(ConvGeometry::new(4, 4, 0, 1, 0).is_err());
        assert!(ConvGeometry::new(4, 4, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(2, 2, 5, 1, 1).is_err());
    }

    #[test]
    fn out_hw_matches_formula() {
        assert_eq!(ConvGeometry::new(8, 8, 3, 1, 1).unwrap().out_hw(), (8, 8));
        assert_eq!(ConvGeometry::new(8, 8, 3, 2, 1).unwrap().out_hw(), (4, 4));
        assert_eq!(ConvGeometry::new(5, 5, 3, 1, 0).unwrap().out_hw(), (3, 3));
        assert_eq!(ConvGeometry::new(4, 4, 1, 1, 0).unwrap().out_hw(), (4, 4));
    }

    /// Seeded geometries `(n, c, h, w, k, s, p)`, including strides above
    /// the kernel (1×1 at stride 2 and 3), where some pixels are not
    /// stored.
    fn geometries() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
        let mut rng = StdRng::seed_from_u64(0x5_9117);
        let mut out = vec![(3, 2, 8, 8, 1, 2, 0), (2, 3, 7, 5, 1, 3, 1)];
        while out.len() < 40 {
            let mut draw = |lo: usize, hi: usize| rng.gen_range(lo..hi);
            let g = (
                draw(1, 5),
                draw(1, 4),
                draw(1, 10),
                draw(1, 10),
                draw(1, 6),
                draw(1, 4),
                draw(0, 3),
            );
            if g.4 <= g.2 + 2 * g.6 && g.4 <= g.3 + 2 * g.6 {
                out.push(g);
            }
        }
        out
    }

    fn plan(&(n, c, h, w, k, s, p): &(usize, usize, usize, usize, usize, usize, usize)) -> Plan {
        Plan::new(&ConvGeometry::new(h, w, k, s, p).unwrap(), n, c, 1, 8)
    }

    /// Whether a tap reads pixel `(y, x)`: its padded coordinates fall in
    /// a stored phase.
    fn stored(pl: &Plan, y: usize, x: usize) -> bool {
        (y + pl.p) % pl.s < pl.sp && (x + pl.p) % pl.s < pl.sp
    }

    #[test]
    fn merge_undoes_split() {
        for g in geometries() {
            let pl = plan(&g);
            let len = pl.n * pl.c * pl.h * pl.w;
            let x: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            let mut xs = vec![0.0; pl.split_len()];
            pl.split(&x, &mut xs);
            let mut back = vec![0.0; len];
            pl.merge(&xs, &mut back);
            for (i, (&b, &v)) in back.iter().zip(&x).enumerate() {
                let (y, xx) = (i / pl.w % pl.h, i % pl.w);
                let want = if stored(&pl, y, xx) { v } else { 0.0 };
                assert_eq!(b, want, "{g:?} pixel {i}");
            }
        }
    }

    #[test]
    fn split_leaves_padding_at_positive_zero() {
        for g in geometries() {
            let pl = plan(&g);
            let len = pl.n * pl.c * pl.h * pl.w;
            // A dirty buffer back in the pool comes out of the next lease
            // zeroed; the split must write pixels only.
            let mut dirty = pool::lease(pl.split_len());
            dirty.fill(-0.0);
            pool::recycle(dirty);
            let mut xs = pool::lease(pl.split_len());
            pl.split(&vec![1.0; len], &mut xs);
            let pixels = (0..len)
                .filter(|&i| stored(&pl, i / pl.w % pl.h, i % pl.w))
                .count();
            assert_eq!(xs.iter().filter(|&&v| v == 1.0).count(), pixels, "{g:?}");
            for (slot, v) in xs.iter().enumerate() {
                assert!(v.to_bits() == 0 || *v == 1.0, "{g:?} slot {slot}: {v:e}");
            }
            pool::recycle(xs);
        }
    }
}
