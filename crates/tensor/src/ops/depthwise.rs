//! Depthwise convolution kernels: forward, input gradient (dX) and weight
//! gradient (dW) of a per-channel 2-D convolution over NCHW activations,
//! with weights `(C, k, k)`.
//!
//! The kernels run on the lanes of [`crate::ops::lanes`] over the folded
//! layout of [`crate::ops::conv`] (the batch fold, the phase planes, the
//! site grid and the tap offsets of its `Plan`). Each is bitwise identical,
//! under either [`GemmKernel`](crate::GemmKernel), to the plain loop nest
//! that `tests/depthwise_kernels.rs` keeps as its oracle:
//!
//! * **Rounding.** Every term is a rounded product added to its chain
//!   ([`Lanes::mul`], then [`Lanes::add`]), as in the loop nest, so that a
//!   masked pass (below) can AND into the product before the add. Chains
//!   are whole (no `KC` blocking) and start at +0.0.
//! * **Order.** A forward output sums its taps in ascending `(ky, kx)`
//!   order. A dX element sums its taps in descending `(ky, kx)` order: the
//!   loop nest scatters over ascending `(oy, ox)`, which reaches an input
//!   element from its last tap first. A dW element is one chain over the
//!   output sites in `(img, oy, ox)` order.
//! * **Skipped terms.** The loop nest skips padding taps and `dY == 0`
//!   terms; the kernels compute them too. Such a term is a product with a
//!   zero (the padding's, a junk site's or `dY`'s), so when the other
//!   operand is finite it is `±0.0`, which leaves a chain as it is: the
//!   chain starts at +0.0, and IEEE addition never turns it into −0.0. When
//!   the other operand may not be finite (weights for the forward and dX,
//!   the input or `dY` for dW), the pass ANDs a mask into every product
//!   instead — all bits set for a real tap with a nonzero `dY`, clear
//!   otherwise — so a skipped term adds +0.0 rather than a NaN.
//!
//! **Layout.** All three passes put a group of channels side by side in the
//! lanes, one per lane: 8 or 16, the product's lane width (8 for at most 8
//! channels), which the plan and every lane-interleaved copy are sized from
//! before a pass runs. The batch runs in chunks of whole images. An item
//! folds one channel group of one chunk into the plan's layout, with the
//! group's channels next to each other at every slot, and lays `dY` onto
//! the site grid the same way, with `(k − 1)/s·(wq + 1)` zero sites in front. A tap then
//! reads a constant offset from its site, for any stride, and only real
//! sites and pixels are computed. The forward walks an image's output rows,
//! up to [`RUN`] neighbouring sites at a time (independent chains side by
//! side), and stores each site's lanes straight into NCHW. dX walks an
//! image's input rows by column phase, up to [`RUN`] neighbouring positions
//! of one phase plane at a time, gathers the plane's taps from `dY` at
//! constant negative offsets and stores the same way. dW runs one chain per
//! tap down the grid in site order, chunk after chunk.
//!
//! Each pass opens a `depthwise` span, adds nothing to the GEMM counters
//! and splits its items — `(chunk, channel group)` for the forward and dX,
//! `(channel group, tap tile)` for dW — over the GEMM worker pool, so a
//! call makes one round trip to the pool. Items fold into scratch leased
//! from the running thread's pool and write disjoint outputs, and no chain
//! depends on the split, so results are bitwise equal at any thread count.

use crate::error::{Result, TensorError};
use crate::ops::conv::ConvGeometry;
use crate::ops::conv::{grad_dims, input_dims, Plan, FOLD_IMAGES};
use crate::ops::gemm::{Product, SharedOut};
use crate::ops::lanes::{execute, Lanes, Pass};
use crate::pool;
use crate::tensor::Tensor;

/// A lane mask that keeps a product.
const KEEP: f32 = f32::from_bits(u32::MAX);
/// Neighbouring sites (forward) or positions (dX) computed together: four
/// independent chains hide the add latency that one chain waits on.
const RUN: usize = 4;
/// Floats of one item's folded channel group (16 KiB), which sets the
/// images per chunk: an item's scratch stays in L1.
const CHUNK_FLOATS: usize = 4 << 10;
/// Capacity every item's scratch is leased with, room for a chunk and
/// the rows past its last image (see [`lease_scratch`]).
const SCRATCH_FLOATS: usize = 2 * CHUNK_FLOATS;
/// Taps per dW item: one 3×3 window's nine chains, with the `dY` lanes,
/// its mask and a load, fit the sixteen ymm registers at 8 lanes.
const DW_TAPS: usize = 9;

/// The lanes at slot `i` of a lane-interleaved buffer.
///
/// # Safety
///
/// `buf` must hold `(i + 1)·N` values.
#[inline(always)]
unsafe fn lanes_at<V: Lanes>(buf: &[f32], i: usize) -> V {
    V::load(buf.get_unchecked(i * V::N..(i + 1) * V::N))
}

/// Writes the lanes of `v` to NCHW `out`: channel `c0 + l` of a group at
/// `at + l·plane`, for the group's first `real ≤ N` channels.
///
/// # Safety
///
/// Every written element must lie inside `out`'s buffer, and no other
/// thread may touch it.
#[inline(always)]
unsafe fn scatter<V: Lanes>(out: SharedOut, v: V, at: usize, plane: usize, real: usize) {
    for (l, &v) in v.to_array().iter().enumerate().take(real) {
        *out.ptr().add(at + l * plane) = v;
    }
}

/// Runs `body` over `0..len` in runs of [`RUN`] indices, then 2, then 1,
/// with `start` the run's first index and `T` its length as a constant.
macro_rules! in_runs {
    ($len:expr, |$start:ident, $t:ident| $body:expr) => {{
        let len = $len;
        let mut $start = 0;
        while $start + RUN <= len {
            const $t: usize = RUN;
            $body;
            $start += RUN;
        }
        if $start + 2 <= len {
            const $t: usize = 2;
            $body;
            $start += 2;
        }
        if $start < len {
            const $t: usize = 1;
            $body;
        }
    }};
}

/// The shape of one call: the whole batch's plan and its chunks.
#[derive(Clone, Copy)]
struct Shape {
    geom: ConvGeometry,
    /// The whole batch.
    plan: Plan,
    /// Images per chunk: as many as keep a channel group's folded input
    /// (or `dY`) within [`CHUNK_FLOATS`], at least one and at most
    /// [`FOLD_IMAGES`].
    imgs: usize,
}

impl Shape {
    fn new(geom: &ConvGeometry, n: usize, c: usize, lanes: usize) -> Shape {
        let plan = Plan::new(geom, n, c, c, lanes);
        let per_image = lanes * plan.sp * plan.sp * plan.ig;
        Shape {
            geom: *geom,
            plan,
            imgs: (CHUNK_FLOATS / per_image.max(1)).clamp(1, FOLD_IMAGES),
        }
    }

    fn chunks(&self) -> usize {
        self.plan.n.div_ceil(self.imgs)
    }

    fn groups(&self) -> usize {
        self.plan.ocp / self.plan.lanes
    }

    /// Chunk `i`: its plan and the batch index of its first image.
    fn chunk(&self, i: usize) -> (Plan, usize) {
        let img0 = i * self.imgs;
        let n = self.imgs.min(self.plan.n - img0);
        let p = &self.plan;
        (Plan::new(&self.geom, n, p.c, p.c, p.lanes), img0)
    }
}

/// Starts one pass over `n` images of `c` channels: `2·n·c·oh·ow·k²`
/// flops in a `depthwise` span, on lanes no wider than the channels need.
fn begin(geom: &ConvGeometry, n: usize, c: usize) -> Option<Product> {
    let (oh, ow) = geom.out_hw();
    let flops = (2 * n * c * oh * ow * geom.kernel * geom.kernel) as u64;
    Product::begin_uncounted("depthwise", flops).map(|p| p.lanes_over(c))
}

/// Forward: `(chunk, channel group)` items of the NCHW output.
struct Forward<'a> {
    shape: Shape,
    x: &'a [f32],
    /// [`lane_weights`].
    wt: &'a [f32],
    /// Whether a weight is not finite, so products are masked.
    masked: bool,
    out: SharedOut,
}

impl Pass for Forward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        self.shape.plan.check_lanes::<V>();
        let groups = self.shape.groups();
        for item in lo..hi {
            let (chunk, c0) = (item / groups, item % groups * V::N);
            let (plan, img0) = self.shape.chunk(chunk);
            let xt = fold_lanes(&plan, self.x, img0, c0);
            let real = match self.masked {
                true => real_mask(&self.shape.geom, &plan),
                false => Vec::new(),
            };
            let group = ForwardGroup {
                plan,
                offs: &tap_offsets(&plan),
                wt: &self.wt[c0 * plan.k * plan.k..][..plan.k * plan.k * V::N],
                xt: &xt,
                real: &real,
                out: self.out,
            };
            for img in 0..plan.n {
                match self.masked {
                    true => group.image::<V, true>(c0, img0, img),
                    false => group.image::<V, false>(c0, img0, img),
                }
            }
            pool::recycle(xt);
            pool::recycle(real);
        }
    }
}

/// One forward item's operands.
struct ForwardGroup<'a> {
    /// The chunk's plan.
    plan: Plan,
    /// Offsets of the `k·k` taps from the site that reads them.
    offs: &'a [usize],
    /// The group's weights, `k·k` lane groups.
    wt: &'a [f32],
    /// [`fold_lanes`] of the group and chunk.
    xt: &'a [f32],
    /// [`real_mask`] of the chunk's folded planes; empty unless masked.
    real: &'a [f32],
    out: SharedOut,
}

impl ForwardGroup<'_> {
    /// The outputs of channels `c0..c0 + N` over the sites of the
    /// chunk's image `img` (batch image `img0 + img`); `MASK` ANDs the
    /// real-pixel mask into every product.
    #[inline(always)]
    fn image<V: Lanes, const MASK: bool>(&self, c0: usize, img0: usize, img: usize) {
        let p = &self.plan;
        let reach = self.offs.iter().max().map_or(0, |&o| o + 1);
        let last = img * p.ig + (p.oh - 1) * p.wq + p.ow - 1 + reach;
        assert!(last <= p.cs, "tap past the folded buffer");
        assert!(!MASK || last <= self.real.len(), "tap past the mask");
        assert!(self.wt.len() == self.offs.len() * V::N, "weights per tap");
        let (ohw, real) = (p.oh * p.ow, V::N.min(p.c - c0));
        for oy in 0..p.oh {
            let g0 = img * p.ig + oy * p.wq;
            let at = ((img0 + img) * p.c + c0) * ohw + oy * p.ow;
            in_runs!(p.ow, |ox, T| {
                // SAFETY: every site of the run reads below `last ≤ cs`.
                let acc = unsafe { self.sites::<V, MASK, T>(g0 + ox) };
                for (j, a) in acc.into_iter().enumerate() {
                    // SAFETY: the site of channel `c0 + l` lies inside the
                    // output, and items own disjoint chunks × groups.
                    unsafe { scatter(self.out, a, at + ox + j, ohw, real) };
                }
            });
        }
    }

    /// The chains of sites `g..g + T`: taps in ascending order, each a
    /// product `x·w`.
    ///
    /// # Safety
    ///
    /// The folded buffer (and under `MASK` the mask) must hold every slot
    /// the sites' taps read.
    #[inline(always)]
    unsafe fn sites<V: Lanes, const MASK: bool, const T: usize>(&self, g: usize) -> [V; T] {
        let mut acc = [V::zero(); T];
        for (t, &off) in self.offs.iter().enumerate() {
            let wv = lanes_at::<V>(self.wt, t);
            for (j, a) in acc.iter_mut().enumerate() {
                let pos = g + j + off;
                let mut term = lanes_at::<V>(self.xt, pos).mul(wv);
                if MASK {
                    term = term.and(V::splat(*self.real.get_unchecked(pos)));
                }
                *a = a.add(term);
            }
        }
        acc
    }
}

/// dX: `(chunk, channel group)` items of the NCHW input gradient.
struct GradX<'a> {
    shape: Shape,
    /// [`Phase::all`] of the plan.
    phases: &'a [Phase],
    dy: &'a [f32],
    /// [`lane_weights`].
    wt: &'a [f32],
    /// Whether a weight is not finite, so products are masked.
    masked: bool,
    out: SharedOut,
}

/// What dX needs of one phase plane `(ry, rx)`.
struct Phase {
    /// The plane's taps in descending `(ky, kx)` order, as `(back, tap)`:
    /// tap `(ky, kx)` = `(ry + qy·s, rx + qx·s)` reaches a position from
    /// the site `back = qy·wq + qx` before it, and `tap = ky·k + kx`.
    taps: Vec<(usize, usize)>,
    /// The phase columns `b` that hold an input pixel, `b·s + rx − p`.
    cols: std::ops::Range<usize>,
}

impl Phase {
    /// Every phase plane of `plan`, `(ry, rx)` at `ry·sp + rx`.
    fn all(plan: &Plan) -> Vec<Phase> {
        let (k, s, p) = (plan.k, plan.s, plan.p);
        (0..plan.sp * plan.sp)
            .map(|plane| {
                let (ry, rx) = (plane / plan.sp, plane % plan.sp);
                let mut taps = Vec::new();
                for (qy, ky) in (ry..k).step_by(s).enumerate().rev() {
                    for (qx, kx) in (rx..k).step_by(s).enumerate().rev() {
                        taps.push((qy * plan.wq + qx, ky * k + kx));
                    }
                }
                // Columns with `p ≤ b·s + rx < p + w`.
                let b0 = p.saturating_sub(rx).div_ceil(s);
                let b1 = (p + plan.w).saturating_sub(rx).div_ceil(s);
                Phase {
                    taps,
                    cols: b0..b1.max(b0),
                }
            })
            .collect()
    }
}

impl Pass for GradX<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        self.shape.plan.check_lanes::<V>();
        let groups = self.shape.groups();
        for item in lo..hi {
            let (chunk, c0) = (item / groups, item % groups * V::N);
            let (plan, img0) = self.shape.chunk(chunk);
            let dy = DyLanes::new(&plan, self.dy, img0, c0);
            let live = match self.masked {
                true => dy.live(),
                false => Vec::new(),
            };
            let group = GradXGroup {
                plan,
                phases: self.phases,
                wt: &self.wt[c0 * plan.k * plan.k..][..plan.k * plan.k * V::N],
                dy: &dy,
                live: &live,
                out: self.out,
            };
            for img in 0..plan.n {
                match self.masked {
                    true => group.image::<V, true>(c0, img0, img),
                    false => group.image::<V, false>(c0, img0, img),
                }
            }
            pool::recycle(dy.grid);
            pool::recycle(live);
        }
    }
}

/// One dX item's operands.
struct GradXGroup<'a> {
    /// The chunk's plan.
    plan: Plan,
    phases: &'a [Phase],
    /// The group's weights, `k·k` lane groups.
    wt: &'a [f32],
    /// [`DyLanes`] of the group and chunk.
    dy: &'a DyLanes,
    /// [`DyLanes::live`]; empty unless masked.
    live: &'a [f32],
    out: SharedOut,
}

impl GradXGroup<'_> {
    /// dX of channels `c0..c0 + N` at the pixels of the chunk's image
    /// `img` (batch image `img0 + img`); `MASK` ANDs the live-site mask
    /// into every product.
    #[inline(always)]
    fn image<V: Lanes, const MASK: bool>(&self, c0: usize, img0: usize, img: usize) {
        let (p, dy) = (&self.plan, self.dy);
        let s = p.s;
        assert!(self.wt.len() == p.k * p.k * V::N, "weights per tap");
        assert!(!MASK || self.live.len() == dy.grid.len(), "mask per site");
        let (hw, real) = (p.h * p.w, V::N.min(p.c - c0));
        // Padded row `y + p` is row `a` of phase `ry`, stepped rather than
        // divided per row. Rows and columns of phases no tap reads (stride
        // above kernel) keep their zero gradient.
        let (mut a, mut ry) = (p.p / s, p.p % s);
        for y in 0..p.h {
            // Phase column `b` holds pixel `b·s + rx − p` at position
            // `q0 + b`.
            let q0 = dy.front + img * p.ig + a * p.wq;
            let at = ((img0 + img) * p.c + c0) * hw + y * p.w;
            let phases = match ry < p.sp {
                true => &self.phases[ry * p.sp..][..p.sp],
                false => &[],
            };
            for (rx, phase) in phases.iter().enumerate() {
                assert!(q0 + phase.cols.end <= dy.row, "position past the dY grid");
                in_runs!(phase.cols.len(), |i, T| {
                    let b = phase.cols.start + i;
                    // SAFETY: every position of the run lies below
                    // `q0 + cols.end ≤ row`, and at or past `front`.
                    let sums = unsafe { self.positions::<V, MASK, T>(&phase.taps, q0 + b) };
                    for (j, sum) in sums.into_iter().enumerate() {
                        let x = (b + j) * s + rx - p.p;
                        // SAFETY: the pixel of channel `c0 + l` lies inside
                        // the output, and items own disjoint chunks ×
                        // groups.
                        unsafe { scatter(self.out, sum, at + x, hw, real) };
                    }
                });
            }
            (a, ry) = if ry + 1 == s { (a + 1, 0) } else { (a, ry + 1) };
        }
    }

    /// The dX chains of positions `q..q + T` of one phase plane: its `taps`
    /// (see [`Phase::taps`]) in descending `(ky, kx)` order, each a product
    /// `dY·w`.
    ///
    /// # Safety
    ///
    /// The `dY` grid (and under `MASK` the mask) must hold the `T`
    /// positions from `q`, and `q` must be at least every tap's `back`.
    #[inline(always)]
    unsafe fn positions<V: Lanes, const MASK: bool, const T: usize>(
        &self,
        taps: &[(usize, usize)],
        q: usize,
    ) -> [V; T] {
        let mut sums = [V::zero(); T];
        for &(back, tap) in taps {
            let site = q - back;
            let wv = lanes_at::<V>(self.wt, tap);
            for (j, sum) in sums.iter_mut().enumerate() {
                let mut term = lanes_at::<V>(&self.dy.grid, site + j).mul(wv);
                if MASK {
                    term = term.and(lanes_at(self.live, site + j));
                }
                *sum = sum.add(term);
            }
        }
        sums
    }
}

/// dW: `(channel group, tap tile)` items of the `c × k·k` output.
struct GradW<'a> {
    shape: Shape,
    x: &'a [f32],
    dy: &'a [f32],
    /// Whether the input or `dY` holds a value that is not finite, so
    /// products are masked.
    masked: bool,
    out: SharedOut,
}

impl Pass for GradW<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let p = &self.shape.plan;
        p.check_lanes::<V>();
        let kk = p.k * p.k;
        let tap_tiles = kk.div_ceil(DW_TAPS);
        for item in lo..hi {
            let (c0, t0) = (item / tap_tiles * V::N, item % tap_tiles * DW_TAPS);
            let mut acc = [V::zero(); DW_TAPS];
            for chunk in 0..self.shape.chunks() {
                match self.masked {
                    true => self.tile::<V, true>(chunk, c0, t0, &mut acc),
                    false => self.tile::<V, false>(chunk, c0, t0, &mut acc),
                }
            }
            for (i, row) in acc.map(V::to_array).iter().enumerate().take(kk - t0) {
                for (l, &v) in row.iter().enumerate().take(V::N.min(p.c - c0)) {
                    // SAFETY: `(c0 + l, t0 + i)` lies inside the `c × k·k`
                    // output, and items own disjoint tiles of it.
                    unsafe { *self.out.ptr().add((c0 + l) * kk + t0 + i) = v };
                }
            }
        }
    }
}

impl GradW<'_> {
    /// Continues the dW chains `acc` of channels `c0..c0 + N` and taps
    /// `t0..t0 + DW_TAPS` (taps past the end repeat the last one, and the
    /// caller drops them) over chunk `chunk`: one chain per tap of products
    /// `dY·x` over the sites in `(img, oy, ox)` order; `MASK` ANDs the
    /// live-site and real-pixel masks into every product.
    #[inline(always)]
    fn tile<V: Lanes, const MASK: bool>(
        &self,
        chunk: usize,
        c0: usize,
        t0: usize,
        acc: &mut [V; DW_TAPS],
    ) {
        let (p, img0) = self.shape.chunk(chunk);
        let all = tap_offsets(&p);
        let taps = DW_TAPS.min(all.len() - t0);
        let mut offs = [0usize; DW_TAPS];
        offs[..taps].copy_from_slice(&all[t0..t0 + taps]);
        let last = offs[taps - 1];
        offs[taps..].fill(last);
        let reach = offs.iter().max().map_or(0, |&o| o + 1);
        let xt = fold_lanes(&p, self.x, img0, c0);
        let dy = DyLanes::new(&p, self.dy, img0, c0);
        let (real, live) = match MASK {
            true => (real_mask(&self.shape.geom, &p), dy.live()),
            false => (Vec::new(), Vec::new()),
        };
        for img in 0..p.n {
            for oy in 0..p.oh {
                let row = img * p.ig + oy * p.wq;
                let end = row + p.ow - 1;
                assert!(
                    end + reach <= p.cs && dy.front + end < dy.row,
                    "tap past the folded buffer"
                );
                assert!(!MASK || end + reach <= real.len(), "tap past the mask");
                for g in row..=end {
                    // SAFETY: `front + g < row`, checked above.
                    let dv = unsafe { lanes_at::<V>(&dy.grid, dy.front + g) };
                    let keep = match MASK {
                        // SAFETY: as above; `live` is laid out like the grid.
                        true => unsafe { lanes_at::<V>(&live, dy.front + g) },
                        false => V::zero(),
                    };
                    for (a, &off) in acc.iter_mut().zip(&offs) {
                        let pos = g + off;
                        // SAFETY: `pos < end + reach ≤ cs`, checked above.
                        let mut term = dv.mul(unsafe { lanes_at::<V>(&xt, pos) });
                        if MASK {
                            // SAFETY: as above.
                            let r = unsafe { *real.get_unchecked(pos) };
                            term = term.and(keep).and(V::splat(r));
                        }
                        *a = a.add(term);
                    }
                }
            }
        }
        for buf in [xt, dy.grid, real, live] {
            pool::recycle(buf);
        }
    }
}

/// Leases `len` zeroed floats in a buffer of at least [`SCRATCH_FLOATS`]
/// capacity, so every item's scratch falls in one size class of the
/// pool: leasing each item's exact size raised the Table 1 workload's
/// peak RSS about 2% over the scalar loops', the one class under 1%.
fn lease_scratch(len: usize) -> Vec<f32> {
    let mut buf = pool::lease_raw(len.max(SCRATCH_FLOATS));
    buf.resize(len, 0.0);
    buf
}

/// Channel group `c0` of `plan`'s images of the NCHW batch `x` (batch
/// images `img0..`), folded into the plan's layout with the group's
/// channels side by side at every slot: element `slot·lanes + lane`.
/// Padding slots and channels past the last are zero.
fn fold_lanes(plan: &Plan, x: &[f32], img0: usize, c0: usize) -> Vec<f32> {
    let (c, s, p, hw, lanes) = (plan.c, plan.s, plan.p, plan.h * plan.w, plan.lanes);
    let mut xt = lease_scratch(plan.cs * lanes);
    for img in 0..plan.n {
        let src = &x[((img0 + img) * c + c0) * hw..][..lanes.min(c - c0) * hw];
        // Padded row `y + p` is row `a` of phase `ry`, and padded column
        // `x + p` column `b` of phase `rx`; both are stepped rather than
        // divided per pixel. Pixels of phases no tap reads (stride above
        // kernel) are left out.
        let (mut a, mut ry) = (p / s, p % s);
        for y in 0..plan.h {
            let (mut b, mut rx) = (p / s, p % s);
            for px in y * plan.w..(y + 1) * plan.w {
                if ry < plan.sp && rx < plan.sp {
                    let slot = (ry * plan.sp + rx) * plan.ps + img * plan.ig + a * plan.wq + b;
                    gather(&mut xt[slot * lanes..][..lanes], src, px, hw);
                }
                (b, rx) = if rx + 1 == s { (b + 1, 0) } else { (b, rx + 1) };
            }
            (a, ry) = if ry + 1 == s { (a + 1, 0) } else { (a, ry + 1) };
        }
    }
    xt
}

/// Sets lane `l` of `dst` to `src[at + l·plane]` for every plane `src`
/// holds (at most `dst.len()`).
#[inline(always)]
fn gather(dst: &mut [f32], src: &[f32], at: usize, plane: usize) {
    let lanes = src.len() / plane;
    assert!(at < plane && lanes <= dst.len(), "pixel past its plane");
    // SAFETY: `at + l·plane < (l + 1)·plane ≤ src.len()` for `l < lanes`.
    let value = |l: usize| unsafe { *src.get_unchecked(at + l * plane) };
    if lanes == dst.len() {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = value(l);
        }
    } else {
        for (l, d) in dst.iter_mut().enumerate().take(lanes) {
            *d = value(l);
        }
    }
}

/// Whether every value of `v` is finite: `x·0` is NaN exactly for an
/// infinite or NaN `x`, and eight independent sums of them vectorize.
fn all_finite(v: &[f32]) -> bool {
    let mut sums = [0.0f32; 8];
    let chunks = v.chunks_exact(8);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (s, &x) in sums.iter_mut().zip(chunk) {
            *s += x * 0.0;
        }
    }
    sums.iter().chain(rest).all(|s| s.is_finite())
}

/// All bits set on the slots of `plan`'s folded planes that hold an input
/// pixel, clear on their padding: one channel's planes, which every
/// channel shares.
fn real_mask(geom: &ConvGeometry, plan: &Plan) -> Vec<f32> {
    let one = Plan::new(geom, plan.n, 1, 1, plan.lanes);
    let mut real = lease_scratch(one.cs);
    one.for_each_run(|_, slot, len| real[slot..][..len].fill(KEEP));
    real
}

/// The weights `(c, k·k)` with the channels of a group side by side per
/// tap: element `(group·k·k + tap)·lanes + lane`, zero past the last
/// channel.
fn lane_weights(w: &[f32], plan: &Plan) -> Vec<f32> {
    let (kk, lanes) = (plan.k * plan.k, plan.lanes);
    let mut wt = pool::lease(plan.ocp * kk);
    for (ch, taps) in w.chunks_exact(kk).enumerate() {
        let group = ch / lanes * kk;
        for (t, &v) in taps.iter().enumerate() {
            wt[(group + t) * lanes + ch % lanes] = v;
        }
    }
    wt
}

/// Channel group `c0` of `dY` for `plan`'s images (batch images `img0..`)
/// on the plan's site grid, the group's channels side by side.
struct DyLanes {
    /// Element `(front + site)·lanes + lane`; junk and front sites and
    /// channels past the last are zero.
    grid: Vec<f32>,
    /// Zero sites in front of the grid: sites reach pixels up to this many
    /// positions past them.
    front: usize,
    /// Sites of the grid, `front + ps`.
    row: usize,
}

impl DyLanes {
    fn new(plan: &Plan, dy: &[f32], img0: usize, c0: usize) -> DyLanes {
        let front = (plan.k - 1) / plan.s * (plan.wq + 1);
        let row = front + plan.ps;
        let lanes = plan.lanes;
        let mut grid = lease_scratch(row * lanes);
        let (c, ohw) = (plan.c, plan.oh * plan.ow);
        for img in 0..plan.n {
            let src = &dy[((img0 + img) * c + c0) * ohw..][..lanes.min(c - c0) * ohw];
            for oy in 0..plan.oh {
                let at = front + img * plan.ig + oy * plan.wq;
                for ox in 0..plan.ow {
                    let d = &mut grid[(at + ox) * lanes..][..lanes];
                    gather(d, src, oy * plan.ow + ox, ohw);
                }
            }
        }
        DyLanes { grid, front, row }
    }

    /// A lane mask in the grid's layout: set on real sites whose `dY` is
    /// nonzero, clear elsewhere (junk and front sites hold zero).
    fn live(&self) -> Vec<f32> {
        let mut live = lease_scratch(self.grid.len());
        for (m, &v) in live.iter_mut().zip(&self.grid) {
            if v != 0.0 {
                *m = KEEP;
            }
        }
        live
    }
}

/// Rejects weights that are not `(c, k, k)`.
fn check_weight(w: &Tensor, c: usize, k: usize) -> Result<()> {
    if w.dims() != [c, k, k] {
        return Err(TensorError::ShapeMismatch {
            left: vec![c, k, k],
            right: w.dims().to_vec(),
        });
    }
    Ok(())
}

/// The offsets of a channel's `k·k` taps from the site that reads them.
fn tap_offsets(plan: &Plan) -> Vec<usize> {
    let mut offs = vec![0; plan.k * plan.k];
    plan.tap_offsets(0, &mut offs);
    offs
}

impl Tensor {
    /// Depthwise convolution of this NCHW input: channel `ch` is convolved
    /// with filter `w[ch]` of the `(C, k, k)` weights, giving
    /// `(N, C, oh, ow)`.
    ///
    /// Each output is its real taps' products `x·w` added to +0.0 in
    /// ascending `(ky, kx)` order, as the plain loop nest computes it; the
    /// padding is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the input is 4-D, a
    /// geometry error if `geom` disagrees with its spatial size, or
    /// [`TensorError::ShapeMismatch`] unless `w` is `(C, k, k)`.
    pub fn depthwise_conv2d(&self, w: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c) = input_dims(self, geom)?;
        check_weight(w, c, geom.kernel)?;
        let (oh, ow) = geom.out_hw();
        let mut out = pool::lease(n * c * oh * ow);
        if let Some(product) = begin(geom, n, c) {
            let shape = Shape::new(geom, n, c, product.width);
            let wt = lane_weights(w.data(), &shape.plan);
            let pass = Forward {
                shape,
                x: self.data(),
                wt: &wt,
                masked: !all_finite(w.data()),
                out: SharedOut::new(&mut out),
            };
            execute(&product, &pass, shape.chunks() * shape.groups());
            pool::recycle(wt);
        }
        Tensor::from_vec(out, [n, c, oh, ow])
    }

    /// Input gradient of [`Tensor::depthwise_conv2d`]: `self` is the output
    /// gradient `(N, C, oh, ow)` and `w` the `(C, k, k)` weights; returns
    /// `(N, C, in_h, in_w)`.
    ///
    /// Each input element is its taps' products `dY·w` added to +0.0 in
    /// descending `(ky, kx)` order, as the loop nest's scatter over
    /// ascending `(oy, ox)` adds them; padding taps and `dY == 0` terms are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is 4-D,
    /// [`TensorError::ShapeMismatch`] if its spatial size is not `geom`'s
    /// output size or `w` is not `(C, k, k)`.
    pub fn depthwise_conv2d_grad_input(&self, w: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c) = grad_dims(self, geom)?;
        check_weight(w, c, geom.kernel)?;
        let mut out = pool::lease(n * c * geom.in_h * geom.in_w);
        if let Some(product) = begin(geom, n, c) {
            let shape = Shape::new(geom, n, c, product.width);
            let wt = lane_weights(w.data(), &shape.plan);
            let phases = Phase::all(&shape.plan);
            let pass = GradX {
                shape,
                phases: &phases,
                dy: self.data(),
                wt: &wt,
                masked: !all_finite(w.data()),
                out: SharedOut::new(&mut out),
            };
            execute(&product, &pass, shape.chunks() * shape.groups());
            pool::recycle(wt);
        }
        Tensor::from_vec(out, [n, c, geom.in_h, geom.in_w])
    }

    /// Weight gradient of [`Tensor::depthwise_conv2d`]: `self` is the
    /// output gradient `(N, C, oh, ow)` and `x` the forward input; returns
    /// `(C, k, k)`.
    ///
    /// Each weight is one chain of products `dY·x` added to +0.0 over the
    /// output sites in `(img, oy, ox)` order; padding taps and `dY == 0`
    /// terms are skipped.
    ///
    /// # Errors
    ///
    /// Returns rank and geometry errors as [`Tensor::depthwise_conv2d`]
    /// does, and [`TensorError::ShapeMismatch`] if `self` is not
    /// `(N, C, oh, ow)` for `x`'s batch and channels and `geom`'s output
    /// size.
    pub fn depthwise_conv2d_grad_weight(&self, x: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
        let (n, c) = input_dims(x, geom)?;
        let (k, (oh, ow)) = (geom.kernel, geom.out_hw());
        if grad_dims(self, geom)? != (n, c) {
            return Err(TensorError::ShapeMismatch {
                left: vec![n, c, oh, ow],
                right: self.dims().to_vec(),
            });
        }
        let kk = k * k;
        let mut out = pool::lease(c * kk);
        if let Some(product) = begin(geom, n, c) {
            let shape = Shape::new(geom, n, c, product.width);
            let pass = GradW {
                shape,
                x: x.data(),
                dy: self.data(),
                masked: !all_finite(x.data()) || !all_finite(self.data()),
                out: SharedOut::new(&mut out),
            };
            execute(&product, &pass, shape.groups() * kk.div_ceil(DW_TAPS));
        }
        Tensor::from_vec(out, [c, k, k])
    }
}
