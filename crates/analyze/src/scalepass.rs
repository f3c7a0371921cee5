//! Backward scale-factor dataflow: per-node upper bounds on the gradient
//! magnitude `|∂loss/∂node|`, propagated from the loss roots through
//! per-op Jacobian-magnitude multipliers.
//!
//! The bound at a root is `1` (the seed adjoint `backward` injects); each
//! op contributes `bound(parent) += bound(node) · mult(op, slot)`, where
//! `mult` bounds the largest entry of `|∂node/∂parent|` times the fan-in
//! a single parent element can receive (broadcast reduction sums
//! `numel(node)/numel(parent)` adjoint terms into one slot). Element
//! ranges come from the forward interval pass, so e.g. `mul`'s multiplier
//! is the co-operand's `abs_max`.
//!
//! Bounds are computed in `f64` with a small multiplicative headroom for
//! `f32` rounding in the real backward pass. They are *upper* bounds:
//! [`DiagCode::ScaleVanishing`] (bound below threshold) is a sound claim
//! that gradients are small, while [`DiagCode::ScaleExplosion`] (bound
//! above threshold) is advisory — the bound may be loose. Both report at
//! the first node whose bound crosses the threshold walking backward from
//! the roots, not at every node past it.

use crate::diag::{DiagCode, Diagnostic};
use crate::interval::{saturation_dead, Interval};
use crate::verify::{numel, Operands};
use hero_autodiff::{NodeTrace, TraceOp};

/// Multiplicative headroom covering `f32` rounding of the concrete
/// backward products the bounds model.
const HEADROOM: f64 = 1.0 + 1e-6;

/// Upper bounds on the per-parent Jacobian-magnitude multipliers of node
/// `i`, aligned with its parent slots.
fn parent_multipliers(tape: &[NodeTrace], i: usize, intervals: &[Interval]) -> Vec<f64> {
    let node = &tape[i];
    let ops = Operands::new(tape, i);
    let iv = |slot: usize| ops.get(intervals, slot, Interval::TOP);
    // Broadcast fan-in: adjoint terms summed into one element of `slot`.
    let fan = |slot: usize| -> f64 {
        let np = numel(ops.shape(slot)).max(1);
        (numel(&node.shape).max(1) as f64 / np as f64).max(1.0)
    };
    // Output positions (n·oh·ow) a conv weight element contributes to.
    let positions = || -> f64 {
        let dim = |axis: usize| node.shape.get(axis).copied().unwrap_or(1) as f64;
        dim(0) * dim(2) * dim(3)
    };
    let raw: Vec<f64> = match node.op {
        TraceOp::Input => vec![],
        TraceOp::Add | TraceOp::Sub => vec![fan(0), fan(1)],
        TraceOp::Mul => vec![
            fan(0) * iv(1).abs_max() as f64,
            fan(1) * iv(0).abs_max() as f64,
        ],
        TraceOp::Scale { c } => vec![(c as f64).abs()],
        TraceOp::AddScalar { .. }
        | TraceOp::Reshape { .. }
        | TraceOp::Sum
        | TraceOp::MaxPool { .. } => vec![1.0],
        TraceOp::Matmul => {
            // dA = dC B^T sums over B's columns; dB = A^T dC over A's rows.
            let n = ops.shape(1).get(1).copied().unwrap_or(0).max(1) as f64;
            let m = ops.shape(0).first().copied().unwrap_or(0).max(1) as f64;
            vec![n * iv(1).abs_max() as f64, m * iv(0).abs_max() as f64]
        }
        TraceOp::Relu | TraceOp::Relu6 => {
            vec![if saturation_dead(&node.op, iv(0)) {
                0.0
            } else {
                1.0
            }]
        }
        TraceOp::Square => vec![2.0 * iv(0).abs_max() as f64],
        TraceOp::Mean => vec![1.0 / numel(ops.shape(0)).max(1) as f64],
        TraceOp::Conv2d { geom } => {
            let k = geom.kernel as f64;
            let out_c = node.shape.get(1).copied().unwrap_or(1) as f64;
            vec![
                out_c * k * k * iv(1).abs_max() as f64,
                positions() * iv(0).abs_max() as f64,
            ]
        }
        TraceOp::DepthwiseConv2d { geom } => {
            let k = geom.kernel as f64;
            vec![
                k * k * iv(1).abs_max() as f64,
                positions() * iv(0).abs_max() as f64,
            ]
        }
        TraceOp::BatchNorm { inv_std_max, .. } => {
            // dx = γ·inv_std·(dy − mean(dy) − xhat·mean(dy·xhat)); with
            // rms(xhat) <= 1 and |xhat| <= sqrt(M): |dx| <= γ·s·(2+√M)·g.
            // dγ = Σ dy·xhat <= M·g (Cauchy-Schwarz); dβ = Σ dy <= M·g.
            let xs = ops.shape(0);
            let m = if xs.len() == 4 {
                (xs[0] * xs[2] * xs[3]) as f64
            } else {
                1.0
            };
            let gmax = iv(1).abs_max() as f64;
            vec![gmax * inv_std_max as f64 * (2.0 + m.sqrt()), m, m]
        }
        TraceOp::GlobalAvgPool => {
            let xs = ops.shape(0);
            let hw = if xs.len() == 4 { xs[2] * xs[3] } else { 1 };
            vec![1.0 / hw.max(1) as f64]
        }
        TraceOp::CrossEntropy { .. } => {
            // dlogits = (softmax − target)/batch; |softmax − target| <= 1.
            let batch = ops.shape(0).first().copied().unwrap_or(1).max(1) as f64;
            vec![1.0 / batch]
        }
    };
    raw.into_iter().map(|m| m * HEADROOM).collect()
}

/// Runs the backward scale pass. Returns `(bounds, reachable)`: the
/// per-node gradient-magnitude upper bound (0 for unreached nodes) and
/// whether each node can reach a root.
pub(crate) fn scale_pass(
    tape: &[NodeTrace],
    intervals: &[Interval],
    roots: &[usize],
) -> (Vec<f64>, Vec<bool>) {
    let mut bounds = vec![0.0f64; tape.len()];
    let mut reachable = vec![false; tape.len()];
    for &r in roots {
        if r < tape.len() {
            bounds[r] += 1.0;
            reachable[r] = true;
        }
    }
    for i in (0..tape.len()).rev() {
        if !reachable[i] {
            continue;
        }
        let mults = parent_multipliers(tape, i, intervals);
        for (slot, &p) in tape[i].parents.iter().enumerate() {
            if p >= i {
                continue; // malformed edge; structural pass reports it
            }
            reachable[p] = true;
            let mult = mults.get(slot).copied().unwrap_or(f64::INFINITY);
            // 0·inf (no incoming gradient × unbounded Jacobian, or the
            // reverse) contributes nothing through this edge.
            let contrib = bounds[i] * mult;
            bounds[p] += if contrib.is_nan() { 0.0 } else { contrib };
        }
    }
    (bounds, reachable)
}

/// Emits threshold-crossing lints over computed bounds. A node is flagged
/// when its own bound crosses the threshold but the bounds of the
/// (reachable) consumers it received gradient from do not — the boundary
/// of the crossing, not the whole chain past it.
pub(crate) fn scale_diags(
    tape: &[NodeTrace],
    bounds: &[f64],
    reachable: &[bool],
    consumers: &[Vec<usize>],
    roots: &[usize],
    explode: f32,
    vanish: f32,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let exploded = |i: usize| reachable[i] && bounds[i] > explode as f64;
    let vanished = |i: usize| reachable[i] && bounds[i] < vanish as f64;
    for i in 0..tape.len() {
        if !reachable[i] || roots.contains(&i) {
            continue;
        }
        let feeders = || {
            consumers[i]
                .iter()
                .copied()
                .filter(|&c| reachable[c])
                .collect::<Vec<_>>()
        };
        if exploded(i) && !feeders().iter().any(|&c| exploded(c)) {
            out.push(Diagnostic::new(
                tape,
                i,
                DiagCode::ScaleExplosion,
                format!(
                    "gradient-magnitude bound {:e} crosses the explosion threshold {:e} here",
                    bounds[i], explode
                ),
            ));
        }
        if vanished(i) && !feeders().iter().any(|&c| vanished(c)) {
            out.push(Diagnostic::new(
                tape,
                i,
                DiagCode::ScaleVanishing,
                format!(
                    "gradient-magnitude bound {:e} falls below the vanishing threshold {:e} here",
                    bounds[i], vanish
                ),
            ));
        }
    }
    out
}
