//! Read-only introspection of a recorded tape.
//!
//! [`Graph::trace`] lowers the private [`Op`](crate::graph) tape into a
//! flat, owned intermediate representation — one [`NodeTrace`] per node,
//! its [`TraceOp`] naming the op and carrying the metadata static analysis
//! needs — that tooling (the `hero-analyze` verifier, its value passes and
//! its Graphviz renderer) can inspect without access to the graph
//! internals or the saved backward context tensors.
//!
//! The IR is deliberately plain data: a tape verifier must be able to
//! build *malformed* tapes for its own tests (dangling parents, lying
//! shapes), which the `Graph` builder API makes impossible by
//! construction.

use crate::graph::{Graph, Op};
use hero_tensor::ConvGeometry;
use std::fmt;

/// One tape node, lowered to plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// Position in the tape (parents must refer to smaller indices).
    pub index: usize,
    /// The op and its recorded metadata.
    pub op: TraceOp,
    /// Parent node indices, in operand order.
    pub parents: Vec<usize>,
    /// Dimensions of the recorded forward value.
    pub shape: Vec<usize>,
}

/// A recorded op with the metadata static analysis needs.
///
/// Deliberately exhaustive: every analyzer matches all variants, so a new
/// op does not compile until each pass has a transfer for it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Leaf node: an input or parameter.
    Input,
    /// Broadcast addition.
    Add,
    /// Broadcast subtraction.
    Sub,
    /// Broadcast (Hadamard) multiplication.
    Mul,
    /// Multiplication by a constant.
    Scale {
        /// The constant factor.
        c: f32,
    },
    /// Addition of a constant.
    AddScalar {
        /// The constant addend.
        c: f32,
    },
    /// Matrix product `(m,k) x (k,n)`.
    Matmul,
    /// Rectified linear unit.
    Relu,
    /// ReLU clipped at 6.
    Relu6,
    /// Element-wise square.
    Square,
    /// Reshape (metadata only).
    Reshape {
        /// Dimensions of the parent value when the op was recorded.
        from: Vec<usize>,
    },
    /// Sum of all elements to a scalar.
    Sum,
    /// Mean of all elements to a scalar.
    Mean,
    /// 2-D convolution with weight `(out_c, in_c*k*k)`.
    Conv2d {
        /// Window geometry recorded at build time.
        geom: ConvGeometry,
    },
    /// Depthwise 2-D convolution with weight `(c, k, k)`.
    DepthwiseConv2d {
        /// Window geometry recorded at build time.
        geom: ConvGeometry,
    },
    /// Train-mode batch normalization over `(N, H, W)` per channel.
    BatchNorm {
        /// Largest saved per-channel `1/sqrt(var+eps)`.
        inv_std_max: f32,
        /// Largest `|x̂|` the recorded forward actually produced
        /// (`f32::INFINITY` when the saved tensor holds NaN). Batch-specific:
        /// only valid for reasoning about the recorded run itself.
        xhat_abs_max: f32,
    },
    /// Non-overlapping max pooling: the saved argmax routing summarized.
    MaxPool {
        /// Number of saved argmax entries (one per output element).
        outputs: usize,
        /// Largest saved flat source index, if any entries exist.
        max_source: Option<usize>,
    },
    /// Global average pooling `(n,c,h,w) -> (n,c)`.
    GlobalAvgPool,
    /// Softmax cross-entropy against integer labels.
    CrossEntropy {
        /// Length of the recorded label vector.
        labels: usize,
    },
}

impl TraceOp {
    /// Stable, lowercase op name used in diagnostics and DOT output.
    pub fn name(&self) -> &'static str {
        match self {
            TraceOp::Input => "input",
            TraceOp::Add => "add",
            TraceOp::Sub => "sub",
            TraceOp::Mul => "mul",
            TraceOp::Scale { .. } => "scale",
            TraceOp::AddScalar { .. } => "add_scalar",
            TraceOp::Matmul => "matmul",
            TraceOp::Relu => "relu",
            TraceOp::Relu6 => "relu6",
            TraceOp::Square => "square",
            TraceOp::Reshape { .. } => "reshape",
            TraceOp::Sum => "sum",
            TraceOp::Mean => "mean",
            TraceOp::Conv2d { .. } => "conv2d",
            TraceOp::DepthwiseConv2d { .. } => "depthwise_conv2d",
            TraceOp::BatchNorm { .. } => "batch_norm",
            TraceOp::MaxPool { .. } => "max_pool2d",
            TraceOp::GlobalAvgPool => "global_avg_pool2d",
            TraceOp::CrossEntropy { .. } => "cross_entropy",
        }
    }

    /// Number of operands the op records.
    pub fn arity(&self) -> usize {
        match self {
            TraceOp::Input => 0,
            TraceOp::Add
            | TraceOp::Sub
            | TraceOp::Mul
            | TraceOp::Matmul
            | TraceOp::Conv2d { .. }
            | TraceOp::DepthwiseConv2d { .. } => 2,
            TraceOp::BatchNorm { .. } => 3,
            TraceOp::Scale { .. }
            | TraceOp::AddScalar { .. }
            | TraceOp::Relu
            | TraceOp::Relu6
            | TraceOp::Square
            | TraceOp::Reshape { .. }
            | TraceOp::Sum
            | TraceOp::Mean
            | TraceOp::MaxPool { .. }
            | TraceOp::GlobalAvgPool
            | TraceOp::CrossEntropy { .. } => 1,
        }
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest absolute value in `data`, or `f32::INFINITY` when any element
/// is NaN (an unusable magnitude must never read as a small finite one).
///
/// Eight running maxima side by side, so the scan vectorizes: the maximum
/// of non-negative, non-NaN values is one of them, in any order.
fn abs_max_or_inf(data: &[f32]) -> f32 {
    let (mut acc, mut nan) = ([0.0f32; 8], false);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            nan |= v.is_nan();
            *a = a.max(v.abs());
        }
    }
    for &v in chunks.remainder() {
        nan |= v.is_nan();
        acc[0] = acc[0].max(v.abs());
    }
    if nan {
        return f32::INFINITY;
    }
    acc.into_iter().fold(0.0, f32::max)
}

impl Op {
    /// The op with its static metadata, dropping the saved backward context.
    pub(crate) fn lower(&self) -> TraceOp {
        match self {
            Op::Input => TraceOp::Input,
            Op::Add(..) => TraceOp::Add,
            Op::Sub(..) => TraceOp::Sub,
            Op::Mul(..) => TraceOp::Mul,
            Op::Scale(_, c) => TraceOp::Scale { c: *c },
            Op::AddScalar(_, c) => TraceOp::AddScalar { c: *c },
            Op::Matmul(..) => TraceOp::Matmul,
            Op::Relu(..) => TraceOp::Relu,
            Op::Relu6(..) => TraceOp::Relu6,
            Op::Square(..) => TraceOp::Square,
            Op::Reshape(_, from) => TraceOp::Reshape {
                from: from.dims().to_vec(),
            },
            Op::Sum(..) => TraceOp::Sum,
            Op::Mean(..) => TraceOp::Mean,
            Op::Conv2d { geom, .. } => TraceOp::Conv2d { geom: *geom },
            Op::DepthwiseConv2d { geom, .. } => TraceOp::DepthwiseConv2d { geom: *geom },
            Op::BatchNorm { inv_std, xhat, .. } => TraceOp::BatchNorm {
                inv_std_max: inv_std.iter().copied().fold(0.0, f32::max),
                xhat_abs_max: abs_max_or_inf(xhat.data()),
            },
            Op::MaxPool { arg, .. } => TraceOp::MaxPool {
                outputs: arg.len(),
                max_source: arg.iter().copied().max(),
            },
            Op::GlobalAvgPool(..) => TraceOp::GlobalAvgPool,
            Op::CrossEntropy { labels, .. } => TraceOp::CrossEntropy {
                labels: labels.len(),
            },
        }
    }

    /// Parent node indices in operand order.
    pub(crate) fn parents(&self) -> Vec<usize> {
        match self {
            Op::Input => vec![],
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Matmul(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Relu(a)
            | Op::Relu6(a)
            | Op::Square(a)
            | Op::Reshape(a, _)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::GlobalAvgPool(a) => vec![*a],
            Op::Conv2d { x, w, .. } | Op::DepthwiseConv2d { x, w, .. } => vec![*x, *w],
            Op::BatchNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
            Op::MaxPool { x, .. } => vec![*x],
            Op::CrossEntropy { logits, .. } => vec![*logits],
        }
    }
}

impl Graph {
    /// Lowers the tape into the plain-data trace IR, one [`NodeTrace`] per
    /// recorded node in tape order.
    pub fn trace(&self) -> Vec<NodeTrace> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(index, node)| NodeTrace {
                index,
                op: node.op.lower(),
                parents: node.op.parents(),
                shape: node.value.dims().to_vec(),
            })
            .collect()
    }

    /// The recorded min/max of every `input` node's value, as
    /// `(node_index, lo, hi)` triples in tape order.
    ///
    /// This is the natural seeding for the `hero-analyze` interval pass:
    /// parameters and batch tensors enter the tape as inputs, so their
    /// real statistics bound the abstract ranges. A tensor containing NaN
    /// reports `(NaN, NaN)` so the analyzer can flag it rather than
    /// silently narrowing over it.
    pub fn input_ranges(&self) -> Vec<(usize, f32, f32)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| matches!(node.op, Op::Input))
            .map(|(i, node)| {
                let data = node.value.data();
                if data.iter().any(|v| v.is_nan()) {
                    return (i, f32::NAN, f32::NAN);
                }
                let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                (i, lo, hi)
            })
            .collect()
    }

    /// The largest absolute value every node's recorded forward actually
    /// produced, in tape order (`f32::INFINITY` for a tensor holding NaN).
    ///
    /// These magnitudes are batch-specific: they bound the recorded run
    /// only, not every run the tape shape admits. The relational noise
    /// domain in `hero-analyze` uses them to certify the *two-run*
    /// difference `f(x+δ) − f(x)` against this exact trace, which is what
    /// the quantization crosscheck measures.
    pub fn value_abs_max(&self) -> Vec<f32> {
        self.nodes
            .iter()
            .map(|node| abs_max_or_inf(node.value.data()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::Tensor;

    #[test]
    fn abs_max_matches_a_serial_scan() {
        let serial = |d: &[f32]| {
            let nan = d.iter().any(|v| v.is_nan());
            let max = d.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            if nan {
                f32::INFINITY
            } else {
                max
            }
        };
        let finite = [-0.0, 0.0, 1.5, -3.25, 7.0, -7.0, 1e-30, -2.5e3];
        // With NaN, with infinities only, and finite only.
        let extra = [
            [f32::NAN, f32::INFINITY, -0.0],
            [f32::INFINITY, f32::NEG_INFINITY, -0.0],
            [9.5, -0.0, 0.0],
        ];
        for len in 0..40 {
            for seed in 0..6 {
                let data: Vec<f32> = (0..len)
                    .map(|i| match (i * 7 + seed * 3) % 11 {
                        r @ 0..=7 => finite[r],
                        r => extra[seed % 3][r - 8],
                    })
                    .collect();
                let (got, want) = (abs_max_or_inf(&data), serial(&data));
                assert_eq!(got.to_bits(), want.to_bits(), "{data:?}");
            }
        }
    }

    #[test]
    fn trace_reflects_tape_order_and_parents() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_fn([6], |i| i[0] as f32));
        let m = g.reshape(a, [2, 3]).unwrap();
        let b = g.input(Tensor::from_fn([3, 2], |_| 0.5));
        let c = g.matmul(m, b).unwrap();
        let loss = g.sum(c);
        let tape = g.trace();
        assert_eq!(tape.len(), 5);
        assert_eq!(tape[0].op, TraceOp::Input);
        assert_eq!(tape[1].op, TraceOp::Reshape { from: vec![6] });
        assert_eq!(tape[1].parents, vec![a.index()]);
        assert_eq!(tape[3].op, TraceOp::Matmul);
        assert_eq!(tape[3].parents, vec![m.index(), b.index()]);
        assert_eq!(tape[3].shape, vec![2, 2]);
        assert_eq!(tape[loss.index()].shape, vec![] as Vec<usize>);
    }

    #[test]
    fn trace_captures_pool_and_loss_detail() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32));
        let p = g.max_pool2d(x, 2).unwrap();
        let flat = g.reshape(p, [1, 4]).unwrap();
        let loss = g.cross_entropy(flat, &[1]).unwrap();
        let tape = g.trace();
        assert_eq!(
            tape[p.index()].op,
            TraceOp::MaxPool {
                outputs: 4,
                max_source: Some(15)
            }
        );
        assert_eq!(tape[loss.index()].op, TraceOp::CrossEntropy { labels: 1 });
    }

    /// One tape records every `Graph` op: each lowered node's arity is the
    /// operand count `Graph` recorded, and each name is the pinned string
    /// that diagnostics, DOT output and the preflight report hash carry.
    #[test]
    fn every_graph_op_lowers_to_its_recorded_arity_and_pinned_name() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([2, 2, 4, 4], |i| {
            0.1 * (i[2] + i[3]) as f32
        }));
        let w = g.input(Tensor::from_fn([2, 18], |_| 0.1));
        let dw = g.input(Tensor::from_fn([2, 3, 3], |_| 0.1));
        let gamma = g.input(Tensor::from_fn([2], |_| 1.0));
        let beta = g.input(Tensor::zeros([2]));
        let head = g.input(Tensor::from_fn([2, 3], |i| 0.1 * i[1] as f32));
        let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
        let c = g.conv2d(x, w, geom).unwrap();
        let d = g.depthwise_conv2d(x, dw, geom).unwrap();
        let v = g.add(c, d).unwrap();
        let v = g.sub(v, x).unwrap();
        let v = g.mul(v, x).unwrap();
        let (v, _) = g.batch_norm(v, gamma, beta, 1e-5).unwrap();
        let v = g.relu(v);
        let v = g.relu6(v);
        let v = g.scale(v, 2.0);
        let v = g.add_scalar(v, 3.0);
        let v = g.square(v);
        let v = g.max_pool2d(v, 2).unwrap();
        let v = g.global_avg_pool2d(v).unwrap();
        let logits = g.matmul(v, head).unwrap();
        g.cross_entropy(logits, &[0, 2]).unwrap();
        let flat = g.reshape(logits, [6]).unwrap();
        g.sum(flat);
        g.mean(flat);

        let tape = g.trace();
        for node in &tape {
            assert_eq!(
                node.op.arity(),
                node.parents.len(),
                "#{} {}",
                node.index,
                node.op
            );
        }
        let names: Vec<&str> = tape.iter().map(|node| node.op.name()).collect();
        let pinned = [
            "input",
            "input",
            "input",
            "input",
            "input",
            "input",
            "conv2d",
            "depthwise_conv2d",
            "add",
            "sub",
            "mul",
            "batch_norm",
            "relu",
            "relu6",
            "scale",
            "add_scalar",
            "square",
            "max_pool2d",
            "global_avg_pool2d",
            "matmul",
            "cross_entropy",
            "reshape",
            "sum",
            "mean",
        ];
        assert_eq!(names, pinned);
    }
}
