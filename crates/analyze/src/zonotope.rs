//! Relational (zonotope / affine-arithmetic) quantization-noise domain.
//!
//! The noise domain of `hero-analyze`: given the value intervals from
//! [`crate::interval_pass`] and a set of [`NoiseSeed`]s — input leaves
//! carrying a symmetric perturbation `|δ| ≤ m` (a weight tensor quantized
//! at `b` bits satisfies `m = Δ(b)/2`) — the pass derives, per tape node,
//! a sound enclosure of the element-wise difference between the perturbed
//! and the unperturbed `f32` forward run, `f(x + δ) − f(x)`. Both runs
//! share all non-seeded state: same batch, labels and batch-norm mode. At
//! the loss root the enclosure is a *certified* end-to-end
//! quantization-error bound, which `hero-quant` consumes as the static
//! sensitivity matrix `err[layer][bits]`.
//!
//! Each node carries *shared noise symbols* in an affine form
//!
//! ```text
//!   e  =  Σᵢ cᵢ·εᵢ  +  [r_lo, r_hi]        εᵢ ∈ [−1, 1]
//! ```
//!
//! with one symbol family `εᵢ` minted per seed (one per seeded weight
//! tensor) and an interval remainder absorbing nonlinear and rounding
//! slack. Every transfer runs in `f64` with the value pass's margin
//! discipline, doubled because *two* concrete runs round independently;
//! [`AffineNoise::concretize`] narrows to the adjacent `f32` outward.
//!
//! # Lane-aligned symbol semantics
//!
//! A seeded tensor's elements perturb *independently*, so symbol `i`
//! is really a vector of independent symbols, one per element (lane) of
//! seed `i`'s tensor. A form is attached to a node under the invariant
//! that any node carrying a nonzero coefficient on symbol `i` has the
//! same shape as seed `i`'s tensor with the identity lane map (reshape,
//! which permutes nothing in flat order, also preserves lanes). Where
//! that alignment breaks — contractions (matmul, conv, reductions,
//! batch-norm, losses) and broadcasts — the symbolic part is
//! *delinearized*: `Σ|cᵢ|` folds into the remainder and the term list
//! empties. Cancellation (e.g. `x − x ≡ 0` up to rounding slack) is
//! therefore exact through element-wise chains and degrades soundly to
//! interval arithmetic across contractions.
//!
//! # Trace-centered magnitudes
//!
//! The pass certifies the *two-run* difference `f(x+δ) − f(x)` against
//! one recorded tape — the crosscheck's base run is that exact recorded
//! forward (byte-reproducible by the determinism contract). So this pass
//! may soundly intersect every *base-run* value range with the recorded
//! per-node magnitude (`Graph::value_abs_max`): in the exact first-order
//! error identities (`a'b' − ab = a·e_b + e_a·b'`) the unprimed factors
//! are base-run values, and batch-norm's recorded `|x̂|` replaces the
//! worst-case `√m` for the base run. This is where the bounds tighten on
//! real conv nets — input-range-general value intervals balloon layer
//! over layer, while the recorded trace stays small. The resulting
//! certificate is correspondingly *trace-specific*: it bounds
//! perturbations of the recorded batch, which is exactly what the static
//! sensitivity matrix and `hero noise-crosscheck` consume.
//!
//! The same argument gives *zero preservation*: a node whose parents all
//! carry exactly zero error is recomputed by the identical f32
//! instruction sequence on bit-identical inputs in both runs, so its
//! two-run difference is exactly zero (guarded by the value interval:
//! `NaN − NaN` is `NaN`). Error therefore only exists inside a seed's
//! cone of influence instead of growing from unseeded regions of the
//! tape through rounding margins charged unconditionally.

use crate::interval::{Interval, ABS_MARGIN, CONTRACT_MARGIN, REL_MARGIN};
use crate::noisepass::{contract_err, elem, hull_zero, mean_err, span, NoiseSeed, CE_CAP};
use crate::verify::{numel, Operands};
use hero_autodiff::{NodeTrace, TraceOp};

/// An affine error form `Σᵢ cᵢ·εᵢ + [rem_lo, rem_hi]`, `εᵢ ∈ [−1, 1]`.
///
/// Coefficients are signed (that is what lets `x − x` cancel); symbol
/// ids index the seed list handed to [`relational_noise_pass`]. The
/// `top` flag marks the unbounded form (no finite certificate).
#[derive(Debug, Clone, PartialEq)]
pub struct AffineNoise {
    /// `(symbol id, coefficient)`, strictly sorted by id.
    terms: Vec<(u32, f64)>,
    /// Remainder lower bound.
    rem_lo: f64,
    /// Remainder upper bound.
    rem_hi: f64,
    /// Unbounded form (analogue of [`Interval::TOP`]).
    top: bool,
}

impl AffineNoise {
    /// The exactly-zero form (unseeded leaves).
    pub fn zero() -> Self {
        AffineNoise {
            terms: Vec::new(),
            rem_lo: 0.0,
            rem_hi: 0.0,
            top: false,
        }
    }

    /// The unbounded form.
    pub fn top() -> Self {
        AffineNoise {
            terms: Vec::new(),
            rem_lo: f64::NEG_INFINITY,
            rem_hi: f64::INFINITY,
            top: true,
        }
    }

    /// A fresh symbol `c·ε` for seed `id` with magnitude `c ≥ 0`. A zero
    /// magnitude is the exactly-zero form (keeps zero preservation
    /// firing downstream of zero-magnitude seeds).
    pub fn symbol(id: u32, magnitude: f64) -> Self {
        if !magnitude.is_finite() {
            return Self::top();
        }
        if magnitude == 0.0 {
            return Self::zero();
        }
        AffineNoise {
            terms: vec![(id, magnitude)],
            rem_lo: 0.0,
            rem_hi: 0.0,
            top: false,
        }
    }

    /// A purely non-relational form: the interval goes to the remainder.
    pub fn from_interval(iv: Interval) -> Self {
        if iv.maybe_nan || !iv.is_finite() {
            return Self::top();
        }
        AffineNoise {
            terms: Vec::new(),
            rem_lo: f64::from(iv.lo),
            rem_hi: f64::from(iv.hi),
            top: false,
        }
    }

    /// Sum of coefficient magnitudes (the symbolic radius).
    fn radius(&self) -> f64 {
        self.terms.iter().map(|&(_, c)| c.abs()).sum()
    }

    /// Drops the symbolic part into the remainder (sound: each `εᵢ`
    /// ranges over `[−1, 1]`).
    fn delinearize(&mut self) {
        let r = self.radius();
        self.rem_lo -= r;
        self.rem_hi += r;
        self.terms.clear();
    }

    /// Self with the symbolic part folded into the remainder.
    fn delinearized(&self) -> Self {
        let mut out = self.clone();
        out.delinearize();
        out
    }

    /// The concrete enclosure `[rem_lo − Σ|cᵢ|, rem_hi + Σ|cᵢ|]`,
    /// narrowed to the adjacent `f32` outward (lo down, hi up): exact
    /// whenever the `f64` bounds are themselves `f32` values.
    pub fn concretize(&self) -> Interval {
        if self.top {
            return Interval::TOP;
        }
        let r = self.radius();
        let lo = self.rem_lo - r;
        let hi = self.rem_hi + r;
        if lo.is_nan() || hi.is_nan() {
            return Interval::TOP;
        }
        let near = (lo as f32, hi as f32);
        Interval {
            lo: if f64::from(near.0) > lo {
                near.0.next_down()
            } else {
                near.0
            },
            hi: if f64::from(near.1) < hi {
                near.1.next_up()
            } else {
                near.1
            },
            maybe_nan: false,
        }
    }

    /// `self + other` with exact (signed) merging of shared symbols.
    fn add_form(&self, other: &Self) -> Self {
        if self.top || other.top {
            return Self::top();
        }
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut a, mut b) = (self.terms.iter().peekable(), other.terms.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia == ib {
                        let c = ca + cb;
                        if c != 0.0 {
                            terms.push((ia, c));
                        }
                        a.next();
                        b.next();
                    } else if ia < ib {
                        terms.push((ia, ca));
                        a.next();
                    } else {
                        terms.push((ib, cb));
                        b.next();
                    }
                }
                (Some(&&t), None) => {
                    terms.push(t);
                    a.next();
                }
                (None, Some(&&t)) => {
                    terms.push(t);
                    b.next();
                }
                (None, None) => break,
            }
        }
        AffineNoise {
            terms,
            rem_lo: self.rem_lo + other.rem_lo,
            rem_hi: self.rem_hi + other.rem_hi,
            top: false,
        }
        .checked()
    }

    /// `self − other` (exact symbol cancellation).
    fn sub_form(&self, other: &Self) -> Self {
        self.add_form(&other.neg_form())
    }

    /// `−self`.
    fn neg_form(&self) -> Self {
        if self.top {
            return Self::top();
        }
        AffineNoise {
            terms: self.terms.iter().map(|&(i, c)| (i, -c)).collect(),
            rem_lo: -self.rem_hi,
            rem_hi: -self.rem_lo,
            top: false,
        }
    }

    /// `c · self` for a known constant factor.
    fn scale_by(&self, c: f64) -> Self {
        if self.top {
            return Self::top();
        }
        if !c.is_finite() {
            return Self::top();
        }
        let (lo, hi) = if c >= 0.0 {
            (self.rem_lo * c, self.rem_hi * c)
        } else {
            (self.rem_hi * c, self.rem_lo * c)
        };
        AffineNoise {
            terms: self.terms.iter().map(|&(i, k)| (i, k * c)).collect(),
            rem_lo: lo,
            rem_hi: hi,
            top: false,
        }
        .checked()
    }

    /// `a · self` for an unknown per-lane factor `a ∈ r` (slope
    /// enclosures, first-order products): coefficients scale by `mid(r)`,
    /// the remainder takes the four-corner product hull plus the
    /// half-width excursion `½·width(r)·Σ|cᵢ|`.
    fn mul_by_range(&self, r: Interval) -> Self {
        if self.top {
            return Self::top();
        }
        if r.maybe_nan || !r.is_finite() {
            return Self::top();
        }
        let (rlo, rhi) = (f64::from(r.lo), f64::from(r.hi));
        let mid = 0.5 * (rlo + rhi);
        let half = (0.5 * (rhi - rlo)).max(0.0);
        let corners = [
            self.rem_lo * rlo,
            self.rem_lo * rhi,
            self.rem_hi * rlo,
            self.rem_hi * rhi,
        ];
        let excursion = half * self.radius();
        AffineNoise {
            terms: self.terms.iter().map(|&(i, c)| (i, c * mid)).collect(),
            rem_lo: corners.iter().copied().fold(f64::INFINITY, f64::min) - excursion,
            rem_hi: corners.iter().copied().fold(f64::NEG_INFINITY, f64::max) + excursion,
            top: false,
        }
        .checked()
    }

    /// `a · self` for an unknown per-lane factor `a ∈ r`, minting a
    /// *fresh* symbol for the excursion instead of widening the
    /// remainder. Sound because for any fixed admissible run the
    /// excursion `(a − mid)·e` is one fixed per-lane quantity — the same
    /// quantity wherever this node's output flows — so it may share a
    /// single symbol (`|(a − mid)·e| ≤ ½·width(r)·max|e|`). This is what
    /// lets activation outputs still cancel (`relu(x) − relu(x) ≈ 0`).
    ///
    /// `fresh` is the next unused symbol id; it is consumed only if the
    /// excursion is nonzero.
    fn mul_by_range_fresh(&self, r: Interval, fresh: &mut u32) -> Self {
        if self.top {
            return Self::top();
        }
        if r.maybe_nan || !r.is_finite() {
            return Self::top();
        }
        let (rlo, rhi) = (f64::from(r.lo), f64::from(r.hi));
        let mid = 0.5 * (rlo + rhi);
        let half = (0.5 * (rhi - rlo)).max(0.0);
        let e_abs = self.radius() + self.rem_lo.abs().max(self.rem_hi.abs());
        let mut out = self.scale_by(mid);
        let k = half * e_abs;
        if out.top || !k.is_finite() {
            return Self::top();
        }
        if k > 0.0 {
            // Minted ids grow monotonically in tape order, so appending
            // preserves the sorted-by-id invariant.
            out.terms.push((*fresh, k));
            *fresh += 1;
        }
        out.checked()
    }

    /// Widens the remainder symmetrically by `s ≥ 0` (rounding slack).
    fn widen_sym(&mut self, s: f64) {
        if self.top {
            return;
        }
        if !s.is_finite() {
            *self = Self::top();
            return;
        }
        self.rem_lo -= s;
        self.rem_hi += s;
    }

    /// Adds an interval straight into the remainder (e.g. a `δ²` term).
    fn add_rem(&mut self, iv: Interval) {
        if self.top {
            return;
        }
        if iv.maybe_nan || !iv.is_finite() {
            *self = Self::top();
            return;
        }
        self.rem_lo += f64::from(iv.lo);
        self.rem_hi += f64::from(iv.hi);
    }

    /// Collapses to top if any bound went non-finite.
    fn checked(self) -> Self {
        if self.top {
            return self;
        }
        if !self.rem_lo.is_finite()
            || !self.rem_hi.is_finite()
            || self.terms.iter().any(|&(_, c)| !c.is_finite())
        {
            return Self::top();
        }
        self
    }
}

/// Result of [`relational_noise_pass`], index-aligned with the tape.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalNoise {
    /// The affine form per node.
    pub forms: Vec<AffineNoise>,
    /// `concretize(form)` per node: the certified error interval.
    pub tightened: Vec<Interval>,
}

/// True when an error cell pins the two-run difference to exactly zero.
fn exactly_zero(iv: Interval) -> bool {
    iv.lo == 0.0 && iv.hi == 0.0 && !iv.maybe_nan
}

/// Batch-norm output error with the recorded `|x̂|` in every place the
/// base run appears. `m` is the per-channel normalization count `n·h·w`,
/// `inv_std_max` the recorded largest `1/√(σ²+ε)`.
///
/// With `u = √(σ²+ε)`, a per-element input perturbation `|δ| ≤ w/2`
/// (width `w` of `e_x`) shifts the channel mean by at most `w` and —
/// since the standard deviation is a 1-Lipschitz seminorm — shifts `u`
/// by at most `d = w/2`. Writing `x̂' − x̂ = x̂·(u−u')/u' + (δ − μ(δ))/u'`
/// gives `|x̂' − x̂| ≤ (|x̂|·d + w) / (u_min − d)`, capped by the trivial
/// `|x̂'| + |x̂|` (which needs no `u_min` and survives `d ≥ u_min`). Here
///
/// * the *base-run* `|x̂|` is bounded by `min(√m_widened, x̂_rec)` where
///   `x̂_rec` is the largest normalized value the recorded forward
///   actually produced (the perturbed run keeps the input-independent
///   `√m` bound — an adversarial in-bin `δ` can collapse a channel's
///   variance, so no recorded quantity bounds `x̂'` by itself);
/// * the perturbed `|x̂'|` is additionally capped by `x̂_rec + |x̂'−x̂|`.
///
/// The output error `γ(x̂'−x̂) + e_γ·x̂' + e_β` then takes the normalization's
/// accumulation slack over `m` terms.
#[allow(clippy::too_many_arguments)]
fn bn_err_rec(
    ex: Interval,
    eg: Interval,
    eb: Interval,
    vg: Interval,
    m: usize,
    inv_std_max: f32,
    xhat_rec: f64,
    out_abs: f64,
) -> Interval {
    if ex.maybe_nan || eg.maybe_nan || eb.maybe_nan {
        return Interval::TOP;
    }
    let mf = m as f64;
    let xhat_stat = mf.sqrt() * (1.0 + mf * CONTRACT_MARGIN) + 1e-6;
    let xrec = if xhat_rec.is_finite() {
        xhat_rec.min(xhat_stat)
    } else {
        xhat_stat
    };
    let g_base = f64::from(vg.abs_max());
    let g_pert = f64::from(vg.add(eg).abs_max());
    let eg_abs = f64::from(eg.abs_max());
    let w = f64::from(ex.hi) - f64::from(ex.lo);
    if !w.is_finite() || !g_pert.is_finite() || !out_abs.is_finite() {
        return Interval::TOP;
    }
    let d = w / 2.0;
    let u_min = (1.0 / f64::from(inv_std_max)) * (1.0 - 1e-5);
    let trivial = xhat_stat + xrec;
    let refined = if u_min.is_finite() && u_min > d {
        (xrec * d + w) / (u_min - d)
    } else {
        f64::INFINITY
    };
    let xdiff = refined.min(trivial);
    let xhat_pert = xhat_stat.min(xrec + xdiff);
    let core = g_base * xdiff + eg_abs * xhat_pert;
    let e = span(-core, core).add(eb);
    mean_err(e, m, out_abs.max(g_pert * xhat_pert))
}

/// Runs the relational noise pass. `values` must be the interval-pass
/// result for the same tape; `recorded_abs` is the per-node recorded
/// `max |value|` from the traced base run ([`Graph::value_abs_max`],
/// `None` or short/`∞` entries degrade gracefully to the input-range
/// bounds); `seeds` perturb input leaves (unseeded inputs carry exactly
/// zero noise). Nodes whose value interval is unbounded or may be NaN get
/// [`Interval::TOP`] noise: an unbounded signal admits no finite
/// rounding-error bound.
///
/// [`Graph::value_abs_max`]: hero_autodiff::Graph::value_abs_max
pub fn relational_noise_pass(
    tape: &[NodeTrace],
    values: &[Interval],
    recorded_abs: Option<&[f32]>,
    seeds: &[NoiseSeed],
) -> RelationalNoise {
    hero_obs::counters::ANALYZE_ZONOTOPE_PASSES.incr();
    let mut forms: Vec<AffineNoise> = Vec::with_capacity(tape.len());
    // Symbol ids 0..seeds.len() name the seeds; nonlinear transfers mint
    // fresh ids above that for their linearization excursions.
    let mut fresh = seeds.len() as u32;
    let mut tightened: Vec<Interval> = Vec::with_capacity(tape.len());
    // Widened recorded magnitude per node: a hair of headroom over the
    // recorded bytes so re-execution noise (none, by the determinism
    // contract) can never flip soundness.
    let rec = |idx: usize| -> f64 {
        recorded_abs
            .and_then(|r| r.get(idx))
            .map_or(f64::INFINITY, |&m| {
                if m.is_finite() {
                    f64::from(m) * (1.0 + 1e-5) + 1e-9
                } else {
                    f64::INFINITY
                }
            })
    };
    // Base-run value range: interval-pass cell ∩ recorded magnitude.
    // Sound for base-run quantities only — the recorded forward IS the
    // base run of the two-run difference this pass certifies.
    let clip = |iv: Interval, idx: usize| -> Interval {
        let m = rec(idx);
        if iv.maybe_nan || !m.is_finite() {
            return iv;
        }
        let (mlo, mhi) = ((-m) as f32, m as f32);
        let lo = iv.lo.max(mlo);
        let hi = iv.hi.min(mhi);
        if lo > hi {
            // Disjoint means the interval seeds disagree with the
            // recording; trust the pass input.
            return iv;
        }
        Interval {
            lo,
            hi,
            maybe_nan: iv.maybe_nan,
        }
    };
    for (i, node) in tape.iter().enumerate() {
        // An unbounded or possibly-NaN signal admits no finite rounding
        // bound, and NaN−NaN is NaN, not zero: give up on such nodes.
        // (Inputs are exempt: their error is the seed alone.)
        let own = values.get(i).copied().unwrap_or(Interval::TOP);
        let is_input = node.op == TraceOp::Input;
        if !is_input && !own.is_finite() {
            forms.push(AffineNoise::top());
            tightened.push(Interval::TOP);
            continue;
        }
        let ops = Operands::new(tape, i);
        // Tightened error interval of a parent.
        let et = |slot: usize| ops.get(&tightened, slot, Interval::TOP);
        // Recorded-clipped base-run value range of a parent.
        let vc = |slot: usize| -> Interval {
            ops.index(slot).map_or(Interval::TOP, |p| {
                clip(values.get(p).copied().unwrap_or(Interval::TOP), p)
            })
        };
        // A parent's form, delinearized unless its lanes align with this
        // node's (same shape, element-wise correspondence).
        let aligned = |slot: usize| -> AffineNoise {
            ops.index(slot).map_or_else(AffineNoise::top, |p| {
                if tape[p].shape == node.shape {
                    forms[p].clone()
                } else {
                    forms[p].delinearized()
                }
            })
        };
        let ownc = clip(own, i);
        // Magnitude both runs' outputs stay under at this node.
        let magc = |ee: Interval| -> f64 { f64::from(ownc.abs_max()) + f64::from(ee.abs_max()) };
        // Element-wise rounding slack (both runs), mirroring `elem`.
        let with_elem_slack = |mut f: AffineNoise| -> AffineNoise {
            let ee = f.concretize();
            if ee.maybe_nan {
                return AffineNoise::top();
            }
            f.widen_sym(2.0 * (REL_MARGIN * magc(ee) + ABS_MARGIN));
            f.checked()
        };
        // Error of a mean-style reduction over `k` terms of parent 0.
        let mean_of = |k: usize| -> AffineNoise {
            let term = f64::from(vc(0).add(et(0)).abs_max());
            AffineNoise::from_interval(mean_err(et(0), k, term))
        };
        // Trace-centered zero preservation: a node whose parents all carry
        // exactly zero error is recomputed by the identical f32 instruction
        // sequence on bit-identical inputs in both runs, so its two-run
        // difference is exactly zero — no rounding or contraction slack
        // applies. This is what confines the certificate to the seed's
        // cone of influence instead of letting phantom error grow from
        // unseeded nodes.
        let parents_zero = !is_input
            && !node.parents.is_empty()
            && node
                .parents
                .iter()
                .all(|&p| p < i && exactly_zero(tightened[p]));
        if parents_zero {
            forms.push(AffineNoise::zero());
            tightened.push(Interval::point(0.0));
            continue;
        }
        let form = match node.op {
            TraceOp::Input => seeds
                .iter()
                .position(|s| s.node == i)
                .map_or_else(AffineNoise::zero, |si| {
                    AffineNoise::symbol(si as u32, f64::from(seeds[si].magnitude.abs()))
                }),
            TraceOp::Add => with_elem_slack(aligned(0).add_form(&aligned(1))),
            TraceOp::Sub => with_elem_slack(aligned(0).sub_form(&aligned(1))),
            TraceOp::Mul => {
                // a'b' − ab = a·e_b + e_a·b', a the base run (clipped).
                let f = aligned(1)
                    .mul_by_range(vc(0))
                    .add_form(&aligned(0).mul_by_range(vc(1).add(et(1))));
                with_elem_slack(f)
            }
            TraceOp::Scale { c } => with_elem_slack(aligned(0).scale_by(f64::from(c))),
            TraceOp::AddScalar { .. } => with_elem_slack(aligned(0)),
            TraceOp::Square => {
                // (x+δ)² − x² = 2xδ + δ².
                let mut f = aligned(0).mul_by_range(vc(0).mul(Interval::point(2.0)));
                f.add_rem(et(0).square());
                with_elem_slack(f)
            }
            TraceOp::Matmul | TraceOp::Conv2d { .. } | TraceOp::DepthwiseConv2d { .. } => {
                let eprod = vc(0).mul(et(1)).add(et(0).mul(vc(1).add(et(1))));
                let term = f64::from(vc(0).add(et(0)).mul(vc(1).add(et(1))).abs_max());
                AffineNoise::from_interval(contract_err(eprod, ops.contraction_len(), term))
            }
            // relu(x+δ) − relu(x) = s·δ for a per-lane chord slope
            // s ∈ [0, 1]; exact in f32, so no rounding slack — and the
            // symbols survive the clamp.
            TraceOp::Relu | TraceOp::Relu6 => {
                aligned(0).mul_by_range_fresh(Interval::of(0.0, 1.0), &mut fresh)
            }
            // Window max moves by at most the extreme per-element
            // perturbation, but lanes do not survive the reduction.
            TraceOp::MaxPool { .. } => AffineNoise::from_interval(hull_zero(et(0))),
            // Flat order is untouched: lanes survive by definition.
            TraceOp::Reshape { .. } => ops
                .index(0)
                .map_or_else(AffineNoise::top, |p| forms[p].clone()),
            TraceOp::Sum => {
                let term = f64::from(vc(0).add(et(0)).abs_max());
                AffineNoise::from_interval(contract_err(et(0), numel(ops.shape(0)), term))
            }
            TraceOp::Mean => mean_of(numel(ops.shape(0))),
            TraceOp::GlobalAvgPool => {
                let xs = ops.shape(0);
                if xs.len() != 4 {
                    AffineNoise::top()
                } else {
                    mean_of(xs[2] * xs[3])
                }
            }
            TraceOp::BatchNorm {
                inv_std_max,
                xhat_abs_max,
            } => {
                let xs = ops.shape(0);
                if xs.len() != 4 {
                    AffineNoise::top()
                } else {
                    let m = xs[0] * xs[2] * xs[3];
                    let xrec = if xhat_abs_max.is_finite() {
                        f64::from(xhat_abs_max) * (1.0 + 1e-5) + 1e-9
                    } else {
                        f64::INFINITY
                    };
                    let core = bn_err_rec(
                        et(0),
                        et(1),
                        et(2),
                        vc(1),
                        m,
                        inv_std_max,
                        xrec,
                        f64::from(ownc.abs_max()),
                    );
                    AffineNoise::from_interval(elem(core, magc(core)))
                }
            }
            TraceOp::CrossEntropy { .. } => {
                let ez = et(0);
                let z_pert = vc(0).add(ez);
                if ez.maybe_nan || !z_pert.is_finite() {
                    AffineNoise::top()
                } else {
                    let classes = ops.shape(0).get(1).copied().unwrap_or(1).max(1);
                    let batch = ops.shape(0).first().copied().unwrap_or(1).max(1);
                    let b = (2.0 * f64::from(ez.abs_max())).min(CE_CAP);
                    AffineNoise::from_interval(mean_err(span(-b, b), batch * classes, CE_CAP))
                }
            }
        };
        tightened.push(form.concretize());
        forms.push(form);
    }
    RelationalNoise { forms, tightened }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{interval_pass, RangeSeed};
    use hero_autodiff::Graph;
    use hero_tensor::Tensor;

    fn seeds_for(g: &Graph) -> Vec<RangeSeed> {
        g.input_ranges()
            .into_iter()
            .map(|(node, lo, hi)| RangeSeed { node, lo, hi })
            .collect()
    }

    fn run(g: &Graph, noise: &[NoiseSeed]) -> RelationalNoise {
        let tape = g.trace();
        let values = interval_pass(&tape, &seeds_for(g));
        let rec = g.value_abs_max();
        relational_noise_pass(&tape, &values, Some(&rec), noise)
    }

    #[test]
    fn shared_symbols_cancel_through_subtraction() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |_| 0.5));
        let d = g.sub(x, x).unwrap();
        let seed = NoiseSeed {
            node: x.index(),
            magnitude: 0.1,
        };
        let rn = run(&g, &[seed]);
        // Interval arithmetic would give e(x) − e(x) = [−0.2, 0.2].
        let zono = rn.tightened[d.index()].abs_max();
        assert!(zono < 1e-4, "cancellation failed: {zono}");
    }

    #[test]
    fn symbols_survive_relu_chains() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |_| 0.5));
        let r = g.relu(x);
        let d = g.sub(r, r).unwrap();
        let seed = NoiseSeed {
            node: x.index(),
            magnitude: 0.1,
        };
        let rn = run(&g, &[seed]);
        assert!(
            rn.tightened[d.index()].abs_max() < 1e-4,
            "relu should preserve lanes: {:?}",
            rn.tightened[d.index()]
        );
    }

    #[test]
    fn recorded_magnitudes_tighten_a_contraction() {
        // Interval seeds say |x| ≤ 10, but the recording says |x| ≤ 0.5:
        // the zonotope contraction uses the recorded base magnitudes.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4, 8], |_| 0.5));
        let w = g.input(Tensor::from_fn([8, 3], |_| 0.1));
        let h = g.matmul(x, w).unwrap();
        let _loss = g.sum(h);
        let tape = g.trace();
        let mut seeds = seeds_for(&g);
        for s in &mut seeds {
            if s.node == x.index() {
                s.lo = -10.0;
                s.hi = 10.0;
            }
        }
        let values = interval_pass(&tape, &seeds);
        let noise = [NoiseSeed {
            node: w.index(),
            magnitude: 0.01,
        }];
        let rec = g.value_abs_max();
        let with_rec = relational_noise_pass(&tape, &values, Some(&rec), &noise);
        let without = relational_noise_pass(&tape, &values, None, &noise);
        let hw = with_rec.tightened[h.index()].abs_max();
        let ho = without.tightened[h.index()].abs_max();
        assert!(
            hw < ho / 5.0,
            "recorded clip should tighten: with={hw} without={ho}"
        );
    }

    #[test]
    fn unseeded_pass_certifies_zero_noise() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let y = g.square(x);
        let loss = g.sum(y);
        let rn = run(&g, &[]);
        assert!(rn.tightened[loss.index()].abs_max() < 1e-3);
    }

    #[test]
    fn concretize_rounds_outward() {
        let f = AffineNoise {
            terms: vec![(0, 0.1)],
            rem_lo: -1e-3,
            rem_hi: 1e-3,
            top: false,
        };
        let c = f.concretize();
        assert!(f64::from(c.lo) <= -0.101 && f64::from(c.hi) >= 0.101);
        assert!(AffineNoise::top().concretize() == Interval::TOP);
    }

    #[test]
    fn concretize_is_exact_on_f32_bounds_and_one_ulp_outward_otherwise() {
        // A term-less form built from an f32 interval gives it back.
        let iv = Interval::of(-0.3, 1.7);
        assert_eq!(AffineNoise::from_interval(iv).concretize(), iv);
        assert_eq!(AffineNoise::zero().concretize(), Interval::point(0.0));
        // f64 bounds between two f32 values land on the outer neighbour.
        for &(lo, hi) in &[(-0.1f64, 0.1f64), (1.0 / 3.0, 2.0 / 3.0), (-1e-40, 7e30)] {
            let c = AffineNoise {
                terms: Vec::new(),
                rem_lo: lo,
                rem_hi: hi,
                top: false,
            }
            .concretize();
            assert!(
                f64::from(c.lo) < lo && f64::from(c.lo.next_up()) > lo,
                "{lo}"
            );
            assert!(
                f64::from(c.hi) > hi && f64::from(c.hi.next_down()) < hi,
                "{hi}"
            );
        }
    }
}
