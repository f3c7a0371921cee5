//! Structured diagnostics emitted by the tape verifier.

use crate::interval::Interval;
use hero_autodiff::NodeTrace;
use std::fmt;

/// Longest provenance chain attached to a diagnostic.
const MAX_PROVENANCE: usize = 8;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The tape is inefficient or suspicious but executable (dead nodes,
    /// unused parameters, constant-foldable subgraphs).
    Warning,
    /// The tape is malformed: executing or differentiating it would panic,
    /// corrupt gradients, or silently produce wrong values.
    Error,
}

/// Machine-readable defect category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// A parent index is `>=` the tape length.
    ParentOutOfRange,
    /// A parent index is `>=` the node's own index (topological-order
    /// violation; the tape must be append-ordered).
    ForwardReference,
    /// A node's recorded `index` disagrees with its tape position.
    IndexMismatch,
    /// An operand has the wrong rank.
    RankMismatch,
    /// Matmul inner dimensions disagree.
    MatmulDimMismatch,
    /// Binary-op operand shapes cannot broadcast together.
    BroadcastIncompatible,
    /// Reshape does not conserve the element count.
    ReshapeCountMismatch,
    /// The recorded output shape disagrees with the shape implied by the
    /// op and its operands.
    ShapeMismatch,
    /// Convolution geometry disagrees with the operand shapes.
    ConvGeometryMismatch,
    /// Pooling geometry disagrees with the operand shapes.
    PoolGeometryMismatch,
    /// A classification loss recorded a label count that differs from the
    /// logits batch.
    LabelCountMismatch,
    /// A saved routing index (max-pool argmax) points outside its source.
    ArgIndexOutOfRange,
    /// A node records the wrong number of operands for its op.
    ArityMismatch,
    /// The node cannot reach any root (its value is computed and thrown
    /// away).
    DeadNode,
    /// A leaf that nothing consumes.
    UnusedParameter,
    /// The subgraph rooted here depends on no variable input and could be
    /// computed once instead of every step.
    ConstantFoldable,
    /// The node's statically derived value interval exceeds the
    /// representable uniform-quantization range at one of the requested
    /// bit widths — post-training quantization would clip it.
    QuantClipRisk,
    /// The node's input interval lies entirely inside a zero-gradient
    /// region of its activation (ReLU/ReLU6), so the backward pass through
    /// it is statically dead.
    SaturationDeadZone,
    /// The accumulated gradient-magnitude bound crosses the configured
    /// explosion threshold at this node.
    ScaleExplosion,
    /// The accumulated gradient-magnitude bound falls below the configured
    /// vanishing threshold at this node.
    ScaleVanishing,
    /// The interval pass derived a range reaching ±inf or NaN for this
    /// node.
    NonFiniteRange,
    /// The propagated quantization-noise bound exceeds the node's value
    /// interval width: at this point of the network the quantization error
    /// is statically indistinguishable from the signal.
    QuantNoiseDominant,
    /// The certified end-to-end quantization-error bound at a root exceeds
    /// the declared error budget.
    QuantErrorBudgetExceeded,
}

impl DiagCode {
    /// Stable kebab-case name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::ParentOutOfRange => "parent-out-of-range",
            DiagCode::ForwardReference => "forward-reference",
            DiagCode::IndexMismatch => "index-mismatch",
            DiagCode::RankMismatch => "rank-mismatch",
            DiagCode::MatmulDimMismatch => "matmul-dim-mismatch",
            DiagCode::BroadcastIncompatible => "broadcast-incompatible",
            DiagCode::ReshapeCountMismatch => "reshape-count-mismatch",
            DiagCode::ShapeMismatch => "shape-mismatch",
            DiagCode::ConvGeometryMismatch => "conv-geometry-mismatch",
            DiagCode::PoolGeometryMismatch => "pool-geometry-mismatch",
            DiagCode::LabelCountMismatch => "label-count-mismatch",
            DiagCode::ArgIndexOutOfRange => "arg-index-out-of-range",
            DiagCode::ArityMismatch => "arity-mismatch",
            DiagCode::DeadNode => "dead-node",
            DiagCode::UnusedParameter => "unused-parameter",
            DiagCode::ConstantFoldable => "constant-foldable",
            DiagCode::QuantClipRisk => "quant-clip-risk",
            DiagCode::SaturationDeadZone => "saturation-dead-zone",
            DiagCode::ScaleExplosion => "scale-explosion",
            DiagCode::ScaleVanishing => "scale-vanishing",
            DiagCode::NonFiniteRange => "non-finite-range",
            DiagCode::QuantNoiseDominant => "quant-noise-dominant",
            DiagCode::QuantErrorBudgetExceeded => "quant-error-budget-exceeded",
        }
    }

    /// The severity class this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::DeadNode
            | DiagCode::UnusedParameter
            | DiagCode::ConstantFoldable
            | DiagCode::QuantClipRisk
            | DiagCode::QuantNoiseDominant
            | DiagCode::QuantErrorBudgetExceeded
            | DiagCode::ScaleExplosion
            | DiagCode::ScaleVanishing => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One verifier finding, pinned to a tape node.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Tape index of the offending node.
    pub node: usize,
    /// Op name of the offending node.
    pub op: String,
    /// Defect category.
    pub code: DiagCode,
    /// Human-readable explanation with the offending values.
    pub message: String,
    /// Chain of node indices from the offending node toward a leaf
    /// (first-parent walk, bounded length) — the op pipeline that produced
    /// the bad operand.
    pub provenance: Vec<usize>,
}

impl Diagnostic {
    /// A finding on `tape[node]`, carrying the node's op name and its
    /// provenance chain.
    pub(crate) fn new(tape: &[NodeTrace], node: usize, code: DiagCode, message: String) -> Self {
        Diagnostic {
            node,
            op: tape[node].op.to_string(),
            code,
            message,
            provenance: provenance(tape, node),
        }
    }

    /// The severity implied by the diagnostic's code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

/// Walks first parents from `node` toward a leaf, stopping at malformed
/// links, to give a diagnostic its op-pipeline context.
fn provenance(tape: &[NodeTrace], node: usize) -> Vec<usize> {
    let mut chain = vec![node];
    let mut cur = node;
    while chain.len() < MAX_PROVENANCE {
        let Some(&parent) = tape.get(cur).and_then(|n| n.parents.first()) else {
            break;
        };
        if parent >= cur {
            break; // malformed link; structural pass reports it
        }
        chain.push(parent);
        cur = parent;
    }
    chain
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{kind}[{}] node #{} ({}): {}",
            self.code.name(),
            self.node,
            self.op,
            self.message
        )?;
        if self.provenance.len() > 1 {
            let chain: Vec<String> = self.provenance.iter().map(|i| format!("#{i}")).collect();
            write!(f, " [provenance: {}]", chain.join(" <- "))?;
        }
        Ok(())
    }
}

/// Per-node results of the value-level passes, kept on the [`Report`] so
/// renderers (the colored DOT output, the CLI pre-flight) can show ranges
/// next to diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueAnalysis {
    /// Forward interval per tape node (index-aligned with the tape).
    pub intervals: Vec<Interval>,
    /// Backward gradient-magnitude upper bound per tape node; `0` for
    /// nodes the loss cannot reach.
    pub grad_bounds: Vec<f32>,
    /// Certified quantization-noise bound per tape node (index-aligned);
    /// empty when no noise seeds were supplied.
    pub noise: Vec<Interval>,
}

/// Everything the analyzer found on one tape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in tape order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of nodes inspected.
    pub nodes: usize,
    /// Results of the value-level passes, when they ran (value options
    /// supplied and no structural errors blocked them).
    pub value: Option<ValueAnalysis>,
}

impl Report {
    /// Findings that make the tape unexecutable or numerically wrong.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Efficiency/suspicion findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// True if at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tape report: {} nodes, {} errors, {} warnings",
            self.nodes,
            self.errors().count(),
            self.warnings().count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}
