//! Structural and shape verification of a lowered tape.
//!
//! Every check here is *static*: it re-derives what each op's output shape
//! must be from its operands' recorded shapes and compares against what the
//! tape actually recorded. A disagreement means the tape was built by code
//! whose shape arithmetic is wrong — exactly the class of defect that
//! corrupts λmax estimates without failing a loss-goes-down test.
//!
//! [`Operands`], the by-slot operand lookup, is shared with the value
//! passes.

use crate::diag::{DiagCode, Diagnostic};
use hero_autodiff::{NodeTrace, TraceOp};
use hero_tensor::ConvGeometry;

/// NumPy-style broadcast of two shapes (trailing axes aligned, size-1 axes
/// stretch); `None` when incompatible.
fn broadcast(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0; rank];
    for (i, slot) in out.iter_mut().enumerate() {
        let ad = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let bd = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        *slot = if ad == bd || bd == 1 {
            ad
        } else if ad == 1 {
            bd
        } else {
            return None;
        };
    }
    Some(out)
}

/// Element count of a shape.
pub(crate) fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// The operands of tape node `i`, by slot. A slot that is missing or is
/// not a backward edge reads as absent, so the value passes, which are
/// public and may run on unchecked tapes, stay panic-free.
pub(crate) struct Operands<'a> {
    tape: &'a [NodeTrace],
    i: usize,
}

impl<'a> Operands<'a> {
    pub(crate) fn new(tape: &'a [NodeTrace], i: usize) -> Self {
        Operands { tape, i }
    }

    /// Tape index of operand `slot`, if it is a backward edge.
    pub(crate) fn index(&self, slot: usize) -> Option<usize> {
        let p = *self.tape[self.i].parents.get(slot)?;
        (p < self.i).then_some(p)
    }

    /// Recorded shape of operand `slot` (empty when absent).
    pub(crate) fn shape(&self, slot: usize) -> &'a [usize] {
        self.index(slot).map_or(&[], |p| &self.tape[p].shape)
    }

    /// Operand `slot`'s entry in a per-node table, or `absent`.
    pub(crate) fn get<T: Copy>(&self, per_node: &[T], slot: usize, absent: T) -> T {
        self.index(slot).map_or(absent, |p| per_node[p])
    }

    /// Terms each output element of a contraction sums: matmul's inner
    /// dimension, conv's `in_c·k·k` patch, depthwise's `k·k` window; 0 for
    /// an op that contracts nothing.
    pub(crate) fn contraction_len(&self) -> usize {
        let inner = self.shape(0).get(1).copied().unwrap_or(0);
        match &self.tape[self.i].op {
            TraceOp::Matmul => inner,
            TraceOp::Conv2d { geom } => inner * geom.kernel * geom.kernel,
            TraceOp::DepthwiseConv2d { geom } => geom.kernel * geom.kernel,
            _ => 0,
        }
    }

    fn diag(&self, code: DiagCode, message: String) -> Diagnostic {
        Diagnostic::new(self.tape, self.i, code, message)
    }
}

/// Runs the structural checks (parent validity, topological order, index
/// agreement) and, for structurally sound nodes, the per-op shape checks.
pub(crate) fn structural_and_shape_pass(tape: &[NodeTrace]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, node) in tape.iter().enumerate() {
        let ops = Operands::new(tape, i);
        if node.index != i {
            out.push(ops.diag(
                DiagCode::IndexMismatch,
                format!(
                    "recorded index {} but sits at tape position {i}",
                    node.index
                ),
            ));
        }
        let mut structurally_sound = true;
        for (slot, &p) in node.parents.iter().enumerate() {
            if p >= tape.len() {
                structurally_sound = false;
                out.push(ops.diag(
                    DiagCode::ParentOutOfRange,
                    format!(
                        "operand {slot} refers to node #{p}, but the tape has {} nodes",
                        tape.len()
                    ),
                ));
            } else if p >= i {
                structurally_sound = false;
                out.push(ops.diag(
                    DiagCode::ForwardReference,
                    format!("operand {slot} refers to node #{p}, which does not precede #{i} in tape order"),
                ));
            }
        }
        let want = node.op.arity();
        if node.parents.len() != want {
            structurally_sound = false;
            out.push(ops.diag(
                DiagCode::ArityMismatch,
                format!(
                    "`{}` takes {want} operand(s), but {} are recorded",
                    node.op,
                    node.parents.len()
                ),
            ));
        }
        if structurally_sound {
            check_shapes(&ops, &mut out);
        }
    }
    out
}

fn check_shapes(ops: &Operands, out: &mut Vec<Diagnostic>) {
    let node = &ops.tape[ops.i];
    let recorded = &node.shape;
    // The shape the op must produce, derived from the operands; `None`
    // when an operand-level error was already reported.
    let expected: Option<Vec<usize>> = match &node.op {
        TraceOp::Input => None,
        TraceOp::Add | TraceOp::Sub | TraceOp::Mul => {
            let (a, b) = (ops.shape(0), ops.shape(1));
            let shape = broadcast(a, b);
            if shape.is_none() {
                out.push(ops.diag(
                    DiagCode::BroadcastIncompatible,
                    format!("operand shapes {a:?} and {b:?} cannot broadcast together"),
                ));
            }
            shape
        }
        TraceOp::Scale { .. }
        | TraceOp::AddScalar { .. }
        | TraceOp::Relu
        | TraceOp::Relu6
        | TraceOp::Square => Some(ops.shape(0).to_vec()),
        TraceOp::Matmul => check_matmul(ops, out),
        TraceOp::Reshape { from } => check_reshape(ops, from, out),
        TraceOp::Sum | TraceOp::Mean => Some(vec![]),
        TraceOp::CrossEntropy { labels } => check_loss(ops, *labels, out),
        TraceOp::Conv2d { geom } => check_conv2d(ops, geom, out),
        TraceOp::DepthwiseConv2d { geom } => check_depthwise(ops, geom, out),
        TraceOp::BatchNorm { .. } => check_batch_norm(ops, out),
        TraceOp::MaxPool {
            outputs,
            max_source,
        } => check_max_pool(ops, *outputs, *max_source, out),
        TraceOp::GlobalAvgPool => {
            let x = ops.shape(0);
            check_rank(ops, x, 4, "global-avg-pool input", out).then(|| vec![x[0], x[1]])
        }
    };
    if let Some(expected) = expected {
        // Scalar-producing ops record rank-0 values; accept any recorded
        // one-element shape so a `[1]` scalar is not a false positive.
        let scalar_ok = expected.is_empty() && numel(recorded) == 1;
        if *recorded != expected && !scalar_ok {
            out.push(ops.diag(
                DiagCode::ShapeMismatch,
                format!("recorded output shape {recorded:?}, but operands imply {expected:?}"),
            ));
        }
    }
}

fn check_rank(
    ops: &Operands,
    shape: &[usize],
    want: usize,
    what: &str,
    out: &mut Vec<Diagnostic>,
) -> bool {
    if shape.len() != want {
        out.push(ops.diag(
            DiagCode::RankMismatch,
            format!("{what} must have rank {want}, got shape {shape:?}"),
        ));
        return false;
    }
    true
}

fn check_matmul(ops: &Operands, out: &mut Vec<Diagnostic>) -> Option<Vec<usize>> {
    let (a, b) = (ops.shape(0), ops.shape(1));
    let rank_ok =
        check_rank(ops, a, 2, "matmul lhs", out) & check_rank(ops, b, 2, "matmul rhs", out);
    if !rank_ok {
        return None;
    }
    if a[1] != b[0] {
        out.push(ops.diag(
            DiagCode::MatmulDimMismatch,
            format!(
                "inner dimensions disagree: lhs {a:?} contracts over {}, rhs {b:?} over {}",
                a[1], b[0]
            ),
        ));
        return None;
    }
    Some(vec![a[0], b[1]])
}

fn check_reshape(ops: &Operands, from: &[usize], out: &mut Vec<Diagnostic>) -> Option<Vec<usize>> {
    let (parent, shape) = (ops.shape(0), &ops.tape[ops.i].shape);
    if from != parent {
        out.push(ops.diag(
            DiagCode::ShapeMismatch,
            format!("reshape recorded source shape {from:?}, but its operand has shape {parent:?}"),
        ));
    }
    if numel(shape) != numel(parent) {
        out.push(ops.diag(
            DiagCode::ReshapeCountMismatch,
            format!(
                "reshape changes the element count: {parent:?} has {} elements, output {shape:?} has {}",
                numel(parent),
                numel(shape)
            ),
        ));
    }
    None // both checks above are authoritative; no further comparison
}

fn check_loss(ops: &Operands, labels: usize, out: &mut Vec<Diagnostic>) -> Option<Vec<usize>> {
    let logits = ops.shape(0);
    if !check_rank(ops, logits, 2, "cross-entropy logits", out) {
        return None;
    }
    if labels != logits[0] {
        out.push(ops.diag(
            DiagCode::LabelCountMismatch,
            format!(
                "{labels} labels recorded for a logits batch of {}",
                logits[0]
            ),
        ));
    }
    Some(vec![])
}

/// Checks a 4-D conv input against the recorded window geometry.
fn check_conv_input(
    ops: &Operands,
    geom: &ConvGeometry,
    x: &[usize],
    out: &mut Vec<Diagnostic>,
) -> bool {
    let (h, wd) = (x[2], x[3]);
    if geom.in_h != h || geom.in_w != wd {
        out.push(ops.diag(
            DiagCode::ConvGeometryMismatch,
            format!(
                "geometry expects a {}x{} input, but the operand is {h}x{wd}",
                geom.in_h, geom.in_w
            ),
        ));
        return false;
    }
    true
}

fn check_conv2d(
    ops: &Operands,
    geom: &ConvGeometry,
    out: &mut Vec<Diagnostic>,
) -> Option<Vec<usize>> {
    let (x, w) = (ops.shape(0), ops.shape(1));
    let rank_ok =
        check_rank(ops, x, 4, "conv2d input", out) & check_rank(ops, w, 2, "conv2d weight", out);
    if !rank_ok || !check_conv_input(ops, geom, x, out) {
        return None;
    }
    let (n, c) = (x[0], x[1]);
    let patch = c * geom.kernel * geom.kernel;
    if w[1] != patch {
        out.push(ops.diag(
            DiagCode::ConvGeometryMismatch,
            format!(
                "weight {w:?} must have {patch} columns (in_c {c} x {k} x {k})",
                k = geom.kernel
            ),
        ));
        return None;
    }
    let (oh, ow) = geom.out_hw();
    Some(vec![n, w[0], oh, ow])
}

fn check_depthwise(
    ops: &Operands,
    geom: &ConvGeometry,
    out: &mut Vec<Diagnostic>,
) -> Option<Vec<usize>> {
    let (x, w) = (ops.shape(0), ops.shape(1));
    if !check_rank(ops, x, 4, "depthwise input", out) || !check_conv_input(ops, geom, x, out) {
        return None;
    }
    let (n, c) = (x[0], x[1]);
    if w != [c, geom.kernel, geom.kernel] {
        out.push(ops.diag(
            DiagCode::ConvGeometryMismatch,
            format!(
                "depthwise weight must be [{c}, {k}, {k}], got {w:?}",
                k = geom.kernel
            ),
        ));
        return None;
    }
    let (oh, ow) = geom.out_hw();
    Some(vec![n, c, oh, ow])
}

fn check_batch_norm(ops: &Operands, out: &mut Vec<Diagnostic>) -> Option<Vec<usize>> {
    let x = ops.shape(0);
    if !check_rank(ops, x, 4, "batch-norm input", out) {
        return None;
    }
    let c = x[1];
    for (slot, name) in [(1usize, "gamma"), (2, "beta")] {
        let s = ops.shape(slot);
        if s != [c] {
            out.push(ops.diag(
                DiagCode::ShapeMismatch,
                format!("batch-norm {name} must be [{c}], got {s:?}"),
            ));
        }
    }
    Some(x.to_vec())
}

fn check_max_pool(
    ops: &Operands,
    outputs: usize,
    max_source: Option<usize>,
    out: &mut Vec<Diagnostic>,
) -> Option<Vec<usize>> {
    let (x, rec) = (ops.shape(0), &ops.tape[ops.i].shape);
    if !check_rank(ops, x, 4, "max-pool input", out)
        || !check_rank(ops, rec, 4, "max-pool output", out)
    {
        return None;
    }
    // Window side is not stored on the tape; recover it from the recorded
    // output and cross-check divisibility and the argmax routing.
    if rec[0] != x[0] || rec[1] != x[1] || rec[2] == 0 || rec[3] == 0 {
        out.push(ops.diag(
            DiagCode::PoolGeometryMismatch,
            format!("max-pool output {rec:?} incompatible with input {x:?}"),
        ));
        return None;
    }
    let (kh, kw) = (x[2] / rec[2], x[3] / rec[3]);
    if kh == 0 || kh != kw || rec[2] * kh != x[2] || rec[3] * kw != x[3] {
        out.push(ops.diag(
            DiagCode::PoolGeometryMismatch,
            format!(
                "max-pool output {rec:?} does not evenly tile input {x:?} with a square window"
            ),
        ));
        return None;
    }
    if outputs != numel(rec) {
        out.push(ops.diag(
            DiagCode::PoolGeometryMismatch,
            format!(
                "max-pool saved {outputs} argmax entries for {} output elements",
                numel(rec)
            ),
        ));
    }
    if let Some(src) = max_source.filter(|&src| src >= numel(x)) {
        out.push(ops.diag(
            DiagCode::ArgIndexOutOfRange,
            format!(
                "max-pool argmax routes from flat index {src}, but the input has only {} elements",
                numel(x)
            ),
        ));
    }
    None // geometry checks above already compared the recorded shape
}
