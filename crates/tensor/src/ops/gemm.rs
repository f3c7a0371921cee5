//! Packed register-blocked GEMM: one lane-generic micro-kernel and a
//! multicore macro-kernel.
//!
//! All matmul variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) route through one [`gemm`]
//! entry point that handles transposition during packing, so the inner
//! loop is always the same branch-free MR × 2N micro-kernel (N the lane
//! width) over contiguous panels. Convolution runs its own direct kernels
//! (`ops::conv`), which share this module's kernel selection, span,
//! counters, KC block and worker pool through [`Product`].
//!
//! * **Packing** — for each KC-deep slice of the reduction dimension, a
//!   block of A is repacked into MR-row strips (`strip·kc·MR + kk·MR + r`)
//!   and a block of B into `nr = 2N`-column strips
//!   (`strip·kc·nr + kk·nr + j`), both zero-padded to full strip width.
//! * **Micro-kernel** — one 6 × 2N register tile for every lane width N,
//!   written once over the lanes of [`crate::ops::lanes`]: twelve N-lane
//!   accumulators (6×16 at 8 lanes, 6×32 at 16), each packed k-step
//!   broadcasting six A values against two B vectors. The lanes are the
//!   only place that encodes rounding: plain mul+add under `Scalar`
//!   (within a KC block the ascending-k order of
//!   [`crate::matmul_reference`]), one fused multiply-add per step under
//!   `Avx2Fma`. Every C element is one chain per KC block, started from
//!   zero and added into C in block order, whichever strip holds its
//!   column — see the bitwise contracts in
//!   `crates/tensor/tests/gemm_kernels.rs`.
//! * **Blocking** — loops are ordered jc → pc → ic → jr → ir with cache
//!   blocks NC/KC/MC, so the B panel stays in L2/L3 across the ic loop and
//!   each A strip stays in L1 across the jr loop (the BLIS / GotoBLAS
//!   loop nest).
//! * **Multicore** — when `HERO_THREADS ≥ 2` (or [`set_gemm_threads`])
//!   and the product is large enough, the jc loop is partitioned into
//!   contiguous strip-aligned column chunks scattered over a process-wide
//!   [`WorkerPool`]. Each worker runs the full serial loop nest over its
//!   own chunk with pack buffers leased from its *own* thread-local
//!   [`crate::pool`], and owns a disjoint set of C columns, so there is
//!   no shared mutable packing state and the per-element summation order
//!   is exactly the serial order: parallel output is bitwise identical to
//!   serial output for any thread count.
//!
//! Pack buffers are leased from the thread-local [`crate::pool`], so a
//! steady-state training step performs no fresh pack allocations — on the
//! calling thread and on every GEMM worker alike.

use crate::ops::lanes::{dispatch, fused_supported, select, Lanes, Pass, MAX_LANES, MIN_LANES};
use crate::pool;
use crate::workers::{Job, WorkerPool};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock, PoisonError};

/// Micro-tile rows: six broadcast A values against two B vectors give
/// twelve accumulators (+ 1 broadcast + 2 B loads = 15 of the 16 ymm
/// registers under AVX2). The tile is `MR × 2N` for lane width `N`: B is
/// packed in strips of two lane vectors.
const MR: usize = 6;
/// Reduction-dimension cache block (sizes the packed panels). Every C
/// element is the sum of one chain per block, each started from zero, so
/// this constant is part of the rounding the convolution kernels match.
pub(crate) const KC: usize = 256;
/// Row cache block — a multiple of `MR`.
const MC: usize = 126;
/// Column cache block — a multiple of every strip width `2N`.
const NC: usize = 512;

/// Minimum `2·m·n·k` flop count before a product considers fanning out to
/// the worker pool; below this the scatter/join round trip costs more
/// than the arithmetic saves.
const PAR_MIN_FLOPS: u64 = 4 << 20;

/// Which micro-kernel the GEMM dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Portable lanes: plain mul+add, auto-vectorized. Within a KC block
    /// of the reduction, bitwise identical to [`crate::matmul_reference`]
    /// for the same operands.
    Scalar,
    /// x86-64 lanes of fused multiply-adds (`vfmadd231ps`); requires
    /// AVX2+FMA at runtime, and runs 16 lanes wide (`__m512`) where the
    /// CPU also has AVX-512F, 8 wide (`__m256`) otherwise. The width
    /// changes no bit, so the name stays. Fused rounding makes it differ
    /// from `Scalar` by a few ULP per dot product.
    Avx2Fma,
}

impl GemmKernel {
    /// Stable identifier used in bench rows and span names.
    pub fn name(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "scalar",
            GemmKernel::Avx2Fma => "avx2fma",
        }
    }

    /// Span name: the kernel variant is an attribute of every GEMM trace
    /// event, expressed as distinct span names since spans carry none.
    fn span_name(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "gemm",
            GemmKernel::Avx2Fma => "gemm_simd",
        }
    }
}

/// Kernel chosen by runtime detection, honoring the `HERO_NO_SIMD`
/// escape hatch (any value other than `0`/empty disables SIMD for the
/// process — the env var is read once).
fn detected_kernel() -> GemmKernel {
    static DETECTED: OnceLock<GemmKernel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let disabled = std::env::var("HERO_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0");
        if !disabled && fused_supported() {
            GemmKernel::Avx2Fma
        } else {
            GemmKernel::Scalar
        }
    })
}

/// `0` = auto-detect, `1` = force scalar, `2` = force AVX2.
static FORCED_KERNEL: AtomicU8 = AtomicU8::new(0);

/// Overrides runtime kernel detection process-wide (`None` restores
/// auto-detection). Forcing [`GemmKernel::Avx2Fma`] on hardware without
/// AVX2+FMA silently falls back to scalar rather than faulting, so tests
/// and benches can request both variants unconditionally. The fused
/// kernel runs at the widest lanes the CPU has (see
/// [`lane_width`](crate::lane_width)); no override changes the width.
pub fn force_gemm_kernel(kernel: Option<GemmKernel>) {
    let v = match kernel {
        None => 0,
        Some(GemmKernel::Scalar) => 1,
        Some(GemmKernel::Avx2Fma) => 2,
    };
    FORCED_KERNEL.store(v, Ordering::Relaxed);
}

/// The micro-kernel the next [`gemm`] call will dispatch to, after the
/// force override, `HERO_NO_SIMD`, and CPU detection are applied.
pub fn active_gemm_kernel() -> GemmKernel {
    match FORCED_KERNEL.load(Ordering::Relaxed) {
        1 => GemmKernel::Scalar,
        2 if fused_supported() => GemmKernel::Avx2Fma,
        2 => GemmKernel::Scalar,
        _ => detected_kernel(),
    }
}

/// Worker-count override; `usize::MAX` means "use `HERO_THREADS`".
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Overrides the GEMM worker count process-wide (`None` restores the
/// `HERO_THREADS` environment value). `0` or `1` keeps the macro-kernel
/// serial. The parallel output is bitwise identical to serial, so this
/// only moves work between threads — it never changes results.
pub fn set_gemm_threads(threads: Option<usize>) {
    THREADS_OVERRIDE.store(threads.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// Effective GEMM worker count (override, else `HERO_THREADS`, read once).
fn gemm_threads() -> usize {
    let o = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if o != usize::MAX {
        return o;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("HERO_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// One matrix product in flight: the kernel and lane width it runs on,
/// its flop count, and the kernel's span, open until the product is
/// dropped.
pub(crate) struct Product {
    /// The micro-kernel variant every part of the product uses.
    pub(crate) kernel: GemmKernel,
    /// The kernel's lane width: every layout a pass derives from the width
    /// is sized from this before the pass runs.
    pub(crate) width: usize,
    /// `2·m·n·k`.
    flops: u64,
    _span: hero_obs::SpanGuard,
}

impl Product {
    /// Starts an `(m × k)·(k × n)` product on the active kernel: opens the
    /// kernel's span and counts the call and its flops. Returns `None` for
    /// an empty product, which computes nothing and counts nothing.
    pub(crate) fn begin(m: usize, n: usize, k: usize) -> Option<Product> {
        if m == 0 || n == 0 || k == 0 {
            return None;
        }
        let (kernel, width) = select();
        let span = hero_obs::span(kernel.span_name());
        hero_obs::counters::GEMM_CALLS.incr();
        let flops = 2 * (m as u64) * (n as u64) * (k as u64);
        hero_obs::counters::GEMM_FLOPS.add(flops);
        if kernel == GemmKernel::Avx2Fma {
            hero_obs::counters::GEMM_SIMD_HITS.incr();
        }
        Some(Product {
            kernel,
            width,
            flops,
            _span: span,
        })
    }

    /// Starts a kernel of `flops` that is not a matrix product (the
    /// depthwise convolution): it opens `span` and runs on the active
    /// kernel's lanes and worker pool, but adds nothing to the GEMM
    /// counters. Returns `None` for no flops.
    pub(crate) fn begin_uncounted(span: &'static str, flops: u64) -> Option<Product> {
        (flops > 0).then(|| {
            let (kernel, width) = select();
            Product {
                kernel,
                width,
                flops,
                _span: hero_obs::span(span),
            }
        })
    }

    /// This product at 8 lanes when its pass puts at most 8 channels side
    /// by side in the lanes (the conv dW and depthwise passes): wider lanes
    /// would compute as many padding channels as real ones. The bits are
    /// the same at either width.
    pub(crate) fn lanes_over(mut self, channels: usize) -> Product {
        if channels <= MIN_LANES {
            self.width = MIN_LANES;
        }
        self
    }

    /// Runs `work(lo, hi)` over `0..items`: split into contiguous chunks
    /// across the worker pool when the product clears [`PAR_MIN_FLOPS`]
    /// and at least two workers are configured, otherwise as one serial
    /// call. Callers make each item's result independent of the chunk it
    /// lands in, so parallel output is bitwise identical to serial.
    pub(crate) fn split(&self, items: usize, work: &(dyn Fn(usize, usize) + Sync)) {
        let threads = gemm_threads();
        let parallel =
            threads >= 2 && self.flops >= PAR_MIN_FLOPS && scatter_chunks(threads, items, work);
        if !parallel {
            work(0, items);
        }
    }
}

/// An output buffer that parallel workers write in disjoint parts.
#[derive(Clone, Copy)]
pub(crate) struct SharedOut(*mut f32);

// SAFETY: the pointer is only dereferenced by callers of `ptr` and
// `slice`, who guarantee that concurrent users touch disjoint elements of
// a buffer that outlives every worker job.
unsafe impl Send for SharedOut {}
// SAFETY: as for `Send`; a shared reference only hands out the pointer.
unsafe impl Sync for SharedOut {}

impl SharedOut {
    pub(crate) fn new(buf: &mut [f32]) -> Self {
        SharedOut(buf.as_mut_ptr())
    }

    pub(crate) fn ptr(self) -> *mut f32 {
        self.0
    }

    /// # Safety
    ///
    /// `[at, at + len)` must lie inside the buffer, the buffer must outlive
    /// the returned slice, and no other thread may access that range while
    /// the slice lives.
    pub(crate) unsafe fn slice<'a>(self, at: usize, len: usize) -> &'a mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(at), len)
    }
}

#[inline]
fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

/// Packs the `mc × kc` block of A at `(ic, pc)` into `MR`-row strips.
///
/// `lda` is the leading dimension of the stored matrix (`k` for row-major
/// A, `m` when `trans` reads the stored `k × m` matrix as Aᵀ). The final
/// partial strip is zero-padded so the micro-kernel never needs a row
/// bounds check.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    trans: bool,
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let base = s * kc * MR;
        let rows = MR.min(mc - s * MR);
        for kk in 0..kc {
            let at = base + kk * MR;
            for r in 0..rows {
                let (gi, gk) = (ic + s * MR + r, pc + kk);
                dst[at + r] = if trans {
                    a[gk * lda + gi]
                } else {
                    a[gi * lda + gk]
                };
            }
            for r in rows..MR {
                dst[at + r] = 0.0;
            }
        }
    }
}

/// Packs the `kc × nc` block of B at `(pc, jc)` into `nr`-column strips
/// (`ldb` is `n` row-major, `k` when transposed). The final partial strip
/// is zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    dst: &mut [f32],
    b: &[f32],
    trans: bool,
    ldb: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
) {
    let strips = nc.div_ceil(nr);
    for s in 0..strips {
        let base = s * kc * nr;
        let cols = nr.min(nc - s * nr);
        for kk in 0..kc {
            let at = base + kk * nr;
            let gk = pc + kk;
            for j in 0..cols {
                let gj = jc + s * nr + j;
                dst[at + j] = if trans {
                    b[gj * ldb + gk]
                } else {
                    b[gk * ldb + gj]
                };
            }
            for j in cols..nr {
                dst[at + j] = 0.0;
            }
        }
    }
}

/// The micro-tiles of one packed B strip: item `s` is A strip `s` of the
/// packed block against the strip, added into the `mc × nr` corner of C
/// at `c`.
struct Tiles<'a> {
    kc: usize,
    /// The packed A block, `kc·MR` per strip.
    ap: &'a [f32],
    /// One packed B strip, `kc·2N` for lane width `N`.
    bp: &'a [f32],
    c: SharedOut,
    ldc: usize,
    mc: usize,
    nr: usize,
}

impl Pass for Tiles<'_> {
    #[inline(always)]
    fn run<V: Lanes>(&self, lo: usize, hi: usize) {
        let nr = 2 * V::N;
        assert_eq!(
            self.bp.len(),
            self.kc * nr,
            "B strip packed at another width"
        );
        for s in lo..hi {
            let ap = &self.ap[s * self.kc * MR..][..self.kc * MR];
            let acc = micro_kernel::<V>(ap, self.bp);
            let rows = MR.min(self.mc - s * MR);
            for (r, lanes) in acc.iter().enumerate().take(rows) {
                // SAFETY: row `s·MR + r` of the corner lies inside C, and
                // the caller owns these columns of it.
                let row = unsafe { self.c.slice((s * MR + r) * self.ldc, self.nr) };
                if self.nr == nr {
                    for (d, &l) in row.chunks_exact_mut(V::N).zip(lanes) {
                        V::load(d).add(l).store(d);
                    }
                } else {
                    // An edge tile adds element by element, which rounds
                    // as the lane add does.
                    let mut tile = [0.0; 2 * MAX_LANES];
                    lanes[0].store(&mut tile);
                    lanes[1].store(&mut tile[V::N..]);
                    for (d, &v) in row.iter_mut().zip(&tile) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// The MR × 2N register tile of `Ap · Bp` over the packed k-steps: one
/// chain per element, from zero, in ascending k with the lanes'
/// multiply-add. k is unrolled 2×, which halves the loop overhead and
/// leaves every chain's order as it is.
#[inline(always)]
fn micro_kernel<V: Lanes>(ap: &[f32], bp: &[f32]) -> [[V; 2]; MR] {
    let mut acc = [[V::zero(); 2]; MR];
    let nr = 2 * V::N;
    let (mut a2, mut b2) = (ap.chunks_exact(2 * MR), bp.chunks_exact(2 * nr));
    for (a, b) in (&mut a2).zip(&mut b2) {
        k_step(&mut acc, &a[..MR], &b[..nr]);
        k_step(&mut acc, &a[MR..], &b[nr..]);
    }
    if !a2.remainder().is_empty() {
        k_step(&mut acc, a2.remainder(), b2.remainder());
    }
    acc
}

/// One packed k-step: six A broadcasts against the two B vectors.
#[inline(always)]
fn k_step<V: Lanes>(acc: &mut [[V; 2]; MR], a: &[f32], b: &[f32]) {
    let (b0, b1) = (V::load(b), V::load(&b[V::N..]));
    for (lanes, &ar) in acc.iter_mut().zip(&a[..MR]) {
        let av = V::splat(ar);
        lanes[0] = lanes[0].mul_add(av, b0);
        lanes[1] = lanes[1].mul_add(av, b1);
    }
}

/// Runs the serial BLIS loop nest over C columns `[j0, j1)` on `kernel`'s
/// lanes, `width` wide, leasing pack buffers from the *calling thread's*
/// scratch pool (per-worker buffers in the parallel path).
///
/// # Safety
///
/// `c` must point to an `m × n` row-major matrix valid for reads and
/// writes, and no other thread may concurrently access columns
/// `[j0, j1)` of it (callers partition columns disjointly).
/// `(kernel, width)` must come from [`select`].
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_range(
    (kernel, width): (GemmKernel, usize),
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: SharedOut,
    j0: usize,
    j1: usize,
) {
    let lda = if a_trans { m } else { k };
    let ldb = if b_trans { k } else { n };
    let nr = 2 * width;
    // Exact panel capacities so repeat leases hit the pool's free list.
    let kc_cap = KC.min(k);
    let mut a_pack = pool::lease(round_up(m.min(MC), MR) * kc_cap);
    let mut b_pack = pool::lease(round_up((j1 - j0).min(NC), nr) * kc_cap);
    for jc in (j0..j1).step_by(NC) {
        let nc = NC.min(j1 - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b_block = &mut b_pack[..round_up(nc, nr) * kc];
            pack_b(b_block, b, b_trans, ldb, pc, kc, jc, nc, nr);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let a_block = &mut a_pack[..round_up(mc, MR) * kc];
                pack_a(a_block, a, a_trans, lda, ic, mc, pc, kc);
                for (jr, bp) in (0..nc).step_by(nr).zip(b_block.chunks_exact(kc * nr)) {
                    let tiles = Tiles {
                        kc,
                        ap: a_block,
                        bp,
                        c: SharedOut(c.ptr().add(ic * n + jc + jr)),
                        ldc: n,
                        mc,
                        nr: nr.min(nc - jr),
                    };
                    dispatch(kernel, width, &tiles, 0, mc.div_ceil(MR));
                }
            }
        }
    }
    pool::recycle(a_pack);
    pool::recycle(b_pack);
}

/// Computes `C += op(A) · op(B)` where `op` is transpose when the matching
/// flag is set: logical shapes `(m, k) × (k, n) → (m, n)`, all row-major
/// (a transposed B is stored `n × k`).
///
/// `c` must hold exactly `m * n` elements and is accumulated into (callers
/// lease it zeroed from the pool). Transposition is absorbed by the
/// packing routines, so every variant shares the same micro-kernel.
/// Dispatches to the AVX2/FMA kernel when available and to the worker
/// pool for large products (both controllable: see [`force_gemm_kernel`],
/// [`set_gemm_threads`], and `HERO_NO_SIMD`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let Some(product) = Product::begin(m, n, k) else {
        return;
    };
    let lanes = (product.kernel, product.width);
    let nr = 2 * product.width;
    let out = SharedOut::new(c);
    // One item per strip-wide column panel, so no packing strip straddles
    // two workers and every C element sees exactly the serial summation
    // order.
    let panels = |p0: usize, p1: usize| {
        // SAFETY: `out` is the exclusive `m × n` slice `c` and each call
        // owns a disjoint range of panels; the kernel and width came from
        // `select`, which only reports lanes this CPU runs.
        unsafe {
            gemm_range(
                lanes,
                m,
                n,
                k,
                a,
                a_trans,
                b,
                b_trans,
                out,
                p0 * nr,
                (p1 * nr).min(n),
            );
        }
    };
    let items = n.div_ceil(nr);
    if n >= 2 * nr {
        product.split(items, &panels);
    } else {
        panels(0, items);
    }
}

/// The process-wide worker pool behind every parallel product. Workers
/// carry no state (`S = ()`); determinism comes from each product's
/// partition of its output, not from which worker runs which chunk.
static GEMM_POOL: Mutex<Option<WorkerPool<(), ()>>> = Mutex::new(None);

/// Splits `0..items` into contiguous near-equal chunks, one per worker,
/// and runs `work(lo, hi)` for each on the worker pool. Returns `false`
/// (the caller runs serially) when fewer than two workers would get a
/// chunk or the pool is busy — e.g. a shard worker's product racing the
/// trainer's — which is always safe because callers only split work
/// whose result does not depend on the partition.
fn scatter_chunks(threads: usize, items: usize, work: &(dyn Fn(usize, usize) + Sync)) -> bool {
    let workers = threads.min(items);
    if workers < 2 {
        return false;
    }
    let Ok(mut guard) = GEMM_POOL.try_lock() else {
        return false;
    };
    let slot = &mut *guard;
    if slot.as_ref().is_none_or(|p| p.threads() != threads) {
        *slot = Some(WorkerPool::new(vec![(); threads]));
    }
    let pool = slot.as_mut().expect("pool just installed");
    // SAFETY: only the lifetime changes. `scatter` blocks until every job
    // has run — it drains all of them even when one panics — so `work`
    // outlives each use of the extended borrow.
    let work = unsafe {
        std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), &'static (dyn Fn(usize, usize) + Sync)>(
            work,
        )
    };
    let (base, extra) = (items / workers, items % workers);
    let mut jobs: Vec<Job<(), ()>> = Vec::with_capacity(workers);
    let mut lo = 0;
    for w in 0..workers {
        let hi = lo + base + usize::from(w < extra);
        jobs.push(Box::new(move |_: &mut ()| work(lo, hi)));
        lo = hi;
    }
    debug_assert_eq!(lo, items);
    match pool.scatter(jobs) {
        Ok(_) => {
            hero_obs::counters::GEMM_PANELS_PARALLEL.add(workers as u64);
            true
        }
        // The output may be partially written by the time a job fails, so
        // there is no serial fallback from here — surface the fault.
        Err(e) => panic!("parallel GEMM failed: {e}"),
    }
}

/// Runs `f` once on every GEMM worker thread (a barrier keeps any single
/// worker from draining several jobs) and collects the results in
/// arbitrary worker order. Returns an empty vec if the pool was never
/// spun up.
fn on_each_gemm_worker<R: Send + 'static>(f: fn() -> R) -> Vec<R> {
    let mut guard = GEMM_POOL.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(pool) = guard.as_mut() else {
        return Vec::new();
    };
    let threads = pool.threads();
    let barrier = Arc::new(Barrier::new(threads));
    let (tx, rx) = std::sync::mpsc::channel();
    let jobs: Vec<Job<(), ()>> = (0..threads)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            Box::new(move |_: &mut ()| {
                barrier.wait();
                let _ = tx.send(f());
            }) as Job<(), ()>
        })
        .collect();
    pool.scatter(jobs).expect("gemm worker round failed");
    drop(tx);
    rx.iter().collect()
}

/// Scratch-pool statistics of every GEMM worker thread (one entry per
/// worker, arbitrary order; empty if the parallel macro-kernel has never
/// run). Steady state shows zero `fresh_allocs` and zero
/// `foreign_recycles`: each worker packs exclusively out of its own
/// thread-local pool.
pub fn gemm_pool_stats() -> Vec<pool::PoolStats> {
    on_each_gemm_worker(pool::stats)
}

/// Resets every GEMM worker's scratch-pool statistics (start of a
/// steady-state measurement window).
pub fn gemm_pool_reset_stats() {
    let _ = on_each_gemm_worker(pool::reset_stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple loop over logical (possibly transposed) operands.
    fn naive(m: usize, n: usize, k: usize, a: &[f32], at: bool, b: &[f32], bt: bool) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    let av = if at { a[kk * m + i] } else { a[i * k + kk] };
                    let bv = if bt { b[j * k + kk] } else { b[kk * n + j] };
                    acc += av * bv;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn fill(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + salt * 17) % 23) as f32 / 11.0 - 1.0)
            .collect()
    }

    #[test]
    fn packed_matches_naive_across_shape_grid_and_transposes() {
        // Shapes chosen to hit every edge case: unit dims, primes straddling
        // MR/NR, tall/skinny, wide, and sizes crossing the MC/NC/KC blocks.
        let shapes = [
            (1, 1, 1),
            (1, 9, 5),
            (4, 8, 16),
            (5, 7, 3),
            (6, 16, 8),
            (7, 17, 9),
            (13, 11, 17),
            (3, 100, 2),
            (100, 3, 2),
            (129, 9, 257),
            (9, 513, 5),
            (33, 47, 300),
        ];
        for &(m, n, k) in &shapes {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            for (at, bt) in [(false, false), (true, false), (false, true), (true, true)] {
                // Re-layout the operands for the transposed storage orders.
                let a_store = if at {
                    let mut s = vec![0.0; m * k];
                    for i in 0..m {
                        for kk in 0..k {
                            s[kk * m + i] = a[i * k + kk];
                        }
                    }
                    s
                } else {
                    a.clone()
                };
                let b_store = if bt {
                    let mut s = vec![0.0; k * n];
                    for kk in 0..k {
                        for j in 0..n {
                            s[j * k + kk] = b[kk * n + j];
                        }
                    }
                    s
                } else {
                    b.clone()
                };
                let mut c = vec![0.0f32; m * n];
                gemm(m, n, k, &a_store, at, &b_store, bt, &mut c);
                let want = naive(m, n, k, &a_store, at, &b_store, bt);
                for (idx, (&got, &exp)) in c.iter().zip(&want).enumerate() {
                    assert!(
                        (got - exp).abs() <= 1e-5 * exp.abs().max(1.0),
                        "({m},{n},{k}) trans=({at},{bt}) idx {idx}: {got} vs {exp}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = vec![1.0; 6];
        let b = vec![2.0; 6];
        let mut c = vec![10.0f32; 4];
        gemm(2, 2, 3, &a, false, &b, false, &mut c);
        assert_eq!(c, vec![16.0; 4]);
    }

    #[test]
    fn zero_k_leaves_c_untouched() {
        let mut c = vec![3.0f32; 4];
        gemm(2, 2, 0, &[], false, &[], false, &mut c);
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn forcing_unsupported_kernel_falls_back_to_scalar() {
        // Exercises the override decode paths without touching the global
        // in a way that could race other tests: auto and re-auto only.
        force_gemm_kernel(None);
        let auto = active_gemm_kernel();
        assert_eq!(auto, detected_kernel());
        assert!(!auto.name().is_empty());
    }
}
