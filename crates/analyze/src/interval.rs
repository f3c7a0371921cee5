//! Forward interval-domain abstract interpretation over the trace IR.
//!
//! Every tape node gets a sound enclosure `[lo, hi]` (plus a
//! NaN-possibility flag) of the values its tensor can hold, given declared
//! ranges for the input leaves ([`RangeSeed`]). Transfer functions run in
//! `f64` and widen outward before narrowing back to `f32`, so the computed
//! interval contains the `f32` values the forward pass actually produces
//! despite rounding — contraction ops (matmul, conv, sums) widen
//! proportionally to the number of accumulated terms, covering the
//! summation error bound `γ_K ≈ K·2⁻²⁴`.
//!
//! On top of the computed intervals this module emits the value-level
//! lints: [`DiagCode::NonFiniteRange`], [`DiagCode::SaturationDeadZone`]
//! and [`DiagCode::QuantClipRisk`].

use crate::diag::{DiagCode, Diagnostic};
use crate::verify::{numel, Operands};
use crate::ValueOptions;
use hero_autodiff::{NodeTrace, TraceOp};

/// Relative outward-widening margin applied per transfer (one op's worth
/// of `f32` rounding is ~6e-8 relative; 1e-6 leaves headroom).
pub(crate) const REL_MARGIN: f64 = 1e-6;
/// Absolute widening floor so intervals around zero still widen.
pub(crate) const ABS_MARGIN: f64 = 1e-33;
/// Per-term relative slack for K-term contractions (4x the `γ_K` bound
/// `K·2⁻²⁴` per term).
pub(crate) const CONTRACT_MARGIN: f64 = 2.4e-7;

/// Declared value range for an input leaf, seeding the interval pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeSeed {
    /// Tape index of the input node.
    pub node: usize,
    /// Smallest value the leaf can hold.
    pub lo: f32,
    /// Largest value the leaf can hold.
    pub hi: f32,
}

/// A closed value enclosure `[lo, hi]`, plus whether NaN is possible.
///
/// Invariant: `lo` and `hi` are never NaN (`lo <= hi`, both possibly
/// infinite); NaN-ness is tracked separately in `maybe_nan`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f32,
    /// Upper bound.
    pub hi: f32,
    /// True when a value in this node could be NaN.
    pub maybe_nan: bool,
}

impl Default for Interval {
    fn default() -> Self {
        Interval::TOP
    }
}

impl Interval {
    /// The unbounded interval: nothing is known about the node.
    pub const TOP: Interval = Interval {
        lo: f32::NEG_INFINITY,
        hi: f32::INFINITY,
        maybe_nan: true,
    };

    /// An interval from unordered endpoints; NaN endpoints yield
    /// [`Interval::TOP`].
    pub fn of(a: f32, b: f32) -> Self {
        if a.is_nan() || b.is_nan() {
            return Interval::TOP;
        }
        Interval {
            lo: a.min(b),
            hi: a.max(b),
            maybe_nan: false,
        }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f32) -> Self {
        Interval::of(v, v)
    }

    /// `hi - lo` (infinite for unbounded intervals).
    pub fn width(self) -> f32 {
        self.hi - self.lo
    }

    /// Largest magnitude the interval admits (infinite when NaN is
    /// possible).
    pub fn abs_max(self) -> f32 {
        if self.maybe_nan {
            return f32::INFINITY;
        }
        self.lo.abs().max(self.hi.abs())
    }

    /// True when both bounds are finite and NaN is excluded.
    pub fn is_finite(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite() && !self.maybe_nan
    }

    /// Membership test; NaN is a member iff `maybe_nan`.
    pub fn contains(self, v: f32) -> bool {
        if v.is_nan() {
            return self.maybe_nan;
        }
        self.lo <= v && v <= self.hi
    }

    pub(crate) fn add(self, o: Self) -> Self {
        from64(
            self.lo as f64 + o.lo as f64,
            self.hi as f64 + o.hi as f64,
            self.maybe_nan || o.maybe_nan,
        )
    }

    pub(crate) fn sub(self, o: Self) -> Self {
        from64(
            self.lo as f64 - o.hi as f64,
            self.hi as f64 - o.lo as f64,
            self.maybe_nan || o.maybe_nan,
        )
    }

    pub(crate) fn mul(self, o: Self) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &a in &[self.lo as f64, self.hi as f64] {
            for &b in &[o.lo as f64, o.hi as f64] {
                let p = a * b;
                if p.is_nan() {
                    // 0 * inf at an endpoint: the concrete products are
                    // unbounded in sign; give up on this node.
                    return Interval::TOP;
                }
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        from64(lo, hi, self.maybe_nan || o.maybe_nan)
    }

    pub(crate) fn square(self) -> Self {
        let (l, h) = (self.lo as f64, self.hi as f64);
        let hi = (l * l).max(h * h);
        let lo = if self.lo <= 0.0 && self.hi >= 0.0 {
            0.0
        } else {
            (l * l).min(h * h)
        };
        from64(lo, hi, self.maybe_nan)
    }

    /// Widens both bounds outward by `count` terms' worth of accumulation
    /// slack (used after mean/pool style reductions computed in `f32`).
    fn widen_by(self, count: usize) -> Self {
        let slack = count as f64 * CONTRACT_MARGIN * self.abs_max() as f64 + ABS_MARGIN;
        Interval {
            lo: (self.lo as f64 - slack) as f32,
            hi: (self.hi as f64 + slack) as f32,
            maybe_nan: self.maybe_nan,
        }
    }
}

/// Builds an interval from `f64` bounds, widening one op's rounding worth
/// outward. NaN bounds collapse to the unbounded side and set the flag.
fn from64(lo: f64, hi: f64, nan: bool) -> Interval {
    let nan = nan || lo.is_nan() || hi.is_nan();
    let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
    let hi = if hi.is_nan() { f64::INFINITY } else { hi };
    Interval {
        lo: (lo - lo.abs() * REL_MARGIN - ABS_MARGIN) as f32,
        hi: (hi + hi.abs() * REL_MARGIN + ABS_MARGIN) as f32,
        maybe_nan: nan,
    }
}

/// `K`-term contraction: the sum of `K` values drawn from `p`, widened by
/// the `f32` summation error bound.
fn contract(p: Interval, k: usize) -> Interval {
    let kf = (k as f64).max(1.0);
    let slack = kf * kf * CONTRACT_MARGIN * p.abs_max() as f64 + ABS_MARGIN;
    Interval {
        lo: (p.lo as f64 * kf - slack) as f32,
        hi: (p.hi as f64 * kf + slack) as f32,
        maybe_nan: p.maybe_nan,
    }
}

/// Runs the forward interval pass over a (structurally sound) tape,
/// returning one interval per node. Inputs without a seed, and ops the
/// pass cannot bound, get [`Interval::TOP`].
pub fn interval_pass(tape: &[NodeTrace], seeds: &[RangeSeed]) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::with_capacity(tape.len());
    for (i, node) in tape.iter().enumerate() {
        let ops = Operands::new(tape, i);
        let p = |slot: usize| ops.get(&out, slot, Interval::TOP);
        let iv = match node.op {
            TraceOp::Input => seeds
                .iter()
                .find(|s| s.node == i)
                .map_or(Interval::TOP, |s| Interval::of(s.lo, s.hi)),
            TraceOp::Add => p(0).add(p(1)),
            TraceOp::Sub => p(0).sub(p(1)),
            TraceOp::Mul => p(0).mul(p(1)),
            TraceOp::Scale { c } => p(0).mul(Interval::point(c)),
            TraceOp::AddScalar { c } => p(0).add(Interval::point(c)),
            TraceOp::Matmul | TraceOp::Conv2d { .. } | TraceOp::DepthwiseConv2d { .. } => {
                contract(p(0).mul(p(1)), ops.contraction_len())
            }
            TraceOp::Relu => {
                let x = p(0);
                Interval {
                    lo: x.lo.max(0.0),
                    hi: x.hi.max(0.0),
                    maybe_nan: x.maybe_nan,
                }
            }
            TraceOp::Relu6 => {
                let x = p(0);
                Interval {
                    lo: x.lo.clamp(0.0, 6.0),
                    hi: x.hi.clamp(0.0, 6.0),
                    maybe_nan: x.maybe_nan,
                }
            }
            TraceOp::Square => p(0).square(),
            TraceOp::Reshape { .. } | TraceOp::MaxPool { .. } => p(0),
            TraceOp::Sum => contract(p(0), numel(ops.shape(0))),
            TraceOp::Mean => p(0).widen_by(numel(ops.shape(0))),
            TraceOp::BatchNorm { .. } => {
                // Per channel, sum(xhat^2) <= M = n*h*w regardless of the
                // input values (var/(var+eps) <= 1), so |xhat| <= sqrt(M).
                // This is input-independent: it holds for any batch, not
                // just the recorded one.
                let xs = ops.shape(0);
                if xs.len() != 4 {
                    Interval::TOP
                } else {
                    let m = xs[0] * xs[2] * xs[3];
                    let a = (m as f64).sqrt() as f32;
                    let xhat = Interval::of(-a, a).widen_by(m);
                    xhat.mul(p(1)).add(p(2))
                }
            }
            TraceOp::GlobalAvgPool => {
                let xs = ops.shape(0);
                if xs.len() != 4 {
                    Interval::TOP
                } else {
                    p(0).widen_by(xs[2] * xs[3])
                }
            }
            TraceOp::CrossEntropy { .. } => {
                // -log p_y = logsumexp(z) - z_y <= ln(C) + (hi - lo); the
                // implementation also clamps p at 1e-12, capping each term
                // at -ln(1e-12) even for non-finite logits. The lower
                // bound allows softmax rows to round slightly above 1.
                let z = p(0);
                let classes = ops.shape(0).get(1).copied().unwrap_or(1).max(1);
                let batch = ops.shape(0).first().copied().unwrap_or(1).max(1);
                let clamp_cap = 27.64; // -ln(1e-12), rounded up
                let hi = if z.is_finite() {
                    ((classes as f64).ln() + (z.hi as f64 - z.lo as f64)).min(clamp_cap)
                } else {
                    clamp_cap
                };
                Interval::of(-1e-4, hi as f32).widen_by(batch * classes)
            }
        };
        out.push(iv);
    }
    out
}

/// True when a tensor bounded by `iv` would clip under symmetric uniform
/// quantization at `bits` with clip range `max_abs`: some admissible value
/// lies beyond the last representable level plus half a step.
pub fn quant_clip_risk(iv: Interval, bits: u8, max_abs: f32) -> bool {
    if bits < 2 || !max_abs.is_finite() || max_abs <= 0.0 {
        return false;
    }
    let half_levels = ((1u32 << (bits - 1)) - 1) as f32;
    let delta = max_abs / half_levels;
    iv.abs_max() > max_abs + 0.5 * delta
}

/// Dead-zone test for an activation op: true when every value the parent
/// interval admits has an exactly-zero local gradient under the backward
/// rules in `hero-autodiff` (ReLU passes only `x > 0`, ReLU6 only
/// `0 < x < 6`).
pub(crate) fn saturation_dead(op: &TraceOp, x: Interval) -> bool {
    if x.maybe_nan {
        return false;
    }
    match *op {
        TraceOp::Relu => x.hi <= 0.0,
        TraceOp::Relu6 => x.hi <= 0.0 || x.lo >= 6.0,
        // Not an activation: no dead zone to report.
        _ => false,
    }
}

/// Emits the interval-based lints over computed intervals.
pub(crate) fn interval_diags(
    tape: &[NodeTrace],
    intervals: &[Interval],
    opts: &ValueOptions,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Default clip range: the largest seed magnitude (the "input grid"
    // policy — interior activations that outgrow the seeded data range
    // are the ones a shared-range quantizer would clip).
    let clip_range = opts.quant_max_abs.unwrap_or_else(|| {
        opts.seeds
            .iter()
            .map(|s| s.lo.abs().max(s.hi.abs()))
            .fold(0.0, f32::max)
    });

    for (i, node) in tape.iter().enumerate() {
        let iv = intervals[i];

        if !iv.is_finite() {
            // Report at the origin: the first node whose interval goes
            // non-finite while its parents (if any) were still finite.
            let parents_ok = node
                .parents
                .iter()
                .all(|&p| p < i && intervals[p].is_finite());
            if parents_ok {
                out.push(Diagnostic::new(
                    tape,
                    i,
                    DiagCode::NonFiniteRange,
                    format!(
                        "derived interval [{:e}, {:e}]{} is not finite{}",
                        iv.lo,
                        iv.hi,
                        if iv.maybe_nan { " (NaN possible)" } else { "" },
                        if node.op == TraceOp::Input {
                            " — seed the input with a finite range"
                        } else {
                            ""
                        }
                    ),
                ));
            }
            continue;
        }

        let x = Operands::new(tape, i).get(intervals, 0, Interval::TOP);
        if saturation_dead(&node.op, x) {
            out.push(Diagnostic::new(
                tape,
                i,
                DiagCode::SaturationDeadZone,
                format!(
                    "input interval [{:e}, {:e}] lies entirely in the zero-gradient \
                     region of `{}`; no gradient can flow through this node",
                    x.lo, x.hi, node.op
                ),
            ));
        }

        if !opts.quant_bits.is_empty() && clip_range > 0.0 && clip_range.is_finite() {
            let offending: Vec<u8> = opts
                .quant_bits
                .iter()
                .copied()
                .filter(|&b| quant_clip_risk(iv, b, clip_range))
                .collect();
            if !offending.is_empty() {
                out.push(Diagnostic::new(
                    tape,
                    i,
                    DiagCode::QuantClipRisk,
                    format!(
                        "interval [{:e}, {:e}] exceeds the representable range of \
                         {clip_range:e}-clipped symmetric quantization at bit width(s) \
                         {offending:?}",
                        iv.lo, iv.hi
                    ),
                ));
            }
        }
    }
    out
}
