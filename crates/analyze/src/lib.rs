//! # hero-analyze
//!
//! Static analysis for [`hero_autodiff`] tapes.
//!
//! HERO's training step is a long op pipeline — tape-recorded forward ops,
//! finite-difference Hessian-vector products, perturbed SAM steps — where a
//! silent shape mismatch corrupts curvature estimates without failing any
//! test. This crate walks the tape's lowered trace IR
//! ([`hero_autodiff::NodeTrace`]) *before* relying on a model and checks,
//! statically:
//!
//! * **Structure** — parent indices in range, tape topologically ordered.
//! * **Shapes** — matmul inner-dim agreement, broadcast compatibility,
//!   reshape element-count conservation, conv/pool geometry, batch-norm
//!   parameter shapes, loss label counts.
//! * **Dataflow** — dead nodes, unused parameters, constant-foldable
//!   subgraphs.
//! * **Values** (opt-in via [`ValueOptions`]) — a forward interval-domain
//!   pass propagating sound per-node value ranges from seeded input
//!   statistics, and a backward scale pass bounding gradient magnitudes
//!   from the loss roots. These feed the quantization-clip, dead-zone,
//!   gradient explosion/vanishing and non-finite-range lints.
//! * **Quantization noise** (opt-in via [`ValueOptions::noise_seeds`]) — a
//!   forward zonotope/affine-arithmetic error domain seeded with
//!   per-weight perturbation magnitudes (`Δ(bits)/2` for a quantized
//!   tensor). It threads shared noise symbols through the tape and
//!   centers value ranges on the recorded trace
//!   ([`ValueOptions::recorded_abs`]) to certify an end-to-end
//!   output-error bound per node ([`ValueAnalysis::noise`]), feeding the
//!   noise-dominance and error-budget lints and `hero-quant`'s static
//!   sensitivity matrix.
//!
//! Findings come back as structured [`Diagnostic`]s (node index, op name,
//! provenance chain) in a [`Report`] instead of a panic mid-step.
//!
//! # Examples
//!
//! ```
//! use hero_analyze::{verify_graph_with, VerifyOptions};
//! use hero_autodiff::Graph;
//! use hero_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
//! let y = g.square(x);
//! let loss = g.sum(y);
//! let report = verify_graph_with(&g, &[loss], &VerifyOptions::default());
//! assert!(report.diagnostics.is_empty(), "{report}");
//! ```

#![warn(missing_docs)]

mod diag;
mod dot;
mod interval;
mod liveness;
mod noisepass;
mod scalepass;
mod verify;
mod zonotope;

pub use diag::{DiagCode, Diagnostic, Report, Severity, ValueAnalysis};
pub use dot::to_dot_colored;
pub use interval::{interval_pass, quant_clip_risk, Interval, RangeSeed};
pub use noisepass::NoiseSeed;
pub use zonotope::{relational_noise_pass, AffineNoise, RelationalNoise};

use hero_autodiff::{Graph, NodeTrace, Var};

/// Configuration for the value-level passes (forward intervals + backward
/// gradient-scale bounds) and the lints built on them.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueOptions {
    /// Declared value ranges for input leaves. Inputs without a seed are
    /// unbounded and will be flagged [`DiagCode::NonFiniteRange`].
    pub seeds: Vec<RangeSeed>,
    /// Bit widths to check for [`DiagCode::QuantClipRisk`]; empty
    /// disables the lint.
    pub quant_bits: Vec<u8>,
    /// Symmetric clip range for the quantization lint. `None` derives it
    /// from the largest seed magnitude (the shared "input grid" policy).
    pub quant_max_abs: Option<f32>,
    /// Gradient-magnitude bound above which [`DiagCode::ScaleExplosion`]
    /// fires. The default (1e30) only trips on overflow-bound paths.
    pub explode_threshold: f32,
    /// Gradient-magnitude bound below which [`DiagCode::ScaleVanishing`]
    /// fires. The default (1e-30) only trips on statically dead paths.
    pub vanish_threshold: f32,
    /// Quantization-noise seeds for the forward noise pass; empty skips
    /// the pass (and [`ValueAnalysis::noise`] stays empty).
    pub noise_seeds: Vec<NoiseSeed>,
    /// Certified output-error budget: roots whose propagated noise bound
    /// exceeds it are flagged [`DiagCode::QuantErrorBudgetExceeded`].
    pub noise_budget: Option<f32>,
    /// Per-node recorded `max |value|` from the traced forward run
    /// ([`hero_autodiff::Graph::value_abs_max`]); empty means
    /// unavailable. When present, the relational noise pass centers its
    /// base-run value ranges on the recording, which is what makes its
    /// bounds trace-specific and tight.
    pub recorded_abs: Vec<f32>,
}

impl Default for ValueOptions {
    fn default() -> Self {
        ValueOptions {
            seeds: Vec::new(),
            quant_bits: Vec::new(),
            quant_max_abs: None,
            explode_threshold: 1e30,
            vanish_threshold: 1e-30,
            noise_seeds: Vec::new(),
            noise_budget: None,
            recorded_abs: Vec::new(),
        }
    }
}

/// What the analyzer should treat as outputs and as per-step-varying
/// inputs.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Output nodes (e.g. the loss). Empty means "every sink is an
    /// output", which disables dead-node detection for sinks.
    pub roots: Vec<usize>,
    /// Input nodes whose values change every step (batch data, trainable
    /// parameters). `None` treats every input as variable, disabling
    /// constant-folding detection; `Some(vec![])` treats every input as
    /// constant.
    pub variable_inputs: Option<Vec<usize>>,
    /// Enables the value-level passes when present. They are skipped (and
    /// [`Report::value`] stays `None`) if structural/shape errors exist,
    /// since value transfer functions assume a well-formed tape.
    pub value: Option<ValueOptions>,
}

/// Options for [`verify_graph_with`]: the value-lint knobs, with seeds
/// taken from the live graph's recorded input statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOptions {
    /// Bit widths for the quantization-clip lint; empty disables it.
    pub quant_bits: Vec<u8>,
    /// Clip range for the quantization lint (`None`: largest input
    /// magnitude).
    pub quant_max_abs: Option<f32>,
    /// Gradient explosion threshold.
    pub explode_threshold: f32,
    /// Gradient vanishing threshold.
    pub vanish_threshold: f32,
    /// Quantization-noise seeds for the forward noise pass.
    pub noise_seeds: Vec<NoiseSeed>,
    /// Certified output-error budget for the noise pass.
    pub noise_budget: Option<f32>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        let v = ValueOptions::default();
        VerifyOptions {
            quant_bits: v.quant_bits,
            quant_max_abs: v.quant_max_abs,
            explode_threshold: v.explode_threshold,
            vanish_threshold: v.vanish_threshold,
            noise_seeds: v.noise_seeds,
            noise_budget: v.noise_budget,
        }
    }
}

/// Runs every pass over a lowered tape and collects the findings.
pub fn analyze(tape: &[NodeTrace], opts: &AnalyzeOptions) -> Report {
    let mut diagnostics = verify::structural_and_shape_pass(tape);
    // The dataflow passes assume backward edges; they skip malformed ones
    // themselves, so they can run even when structure errors exist.
    diagnostics.extend(liveness::liveness_pass(tape, opts));
    let mut value = None;
    if let Some(vopts) = &opts.value {
        // Value transfer functions assume well-formed nodes; any
        // error-severity structural/shape finding blocks them.
        if !diagnostics.iter().any(|d| d.severity() == Severity::Error) {
            let intervals = interval::interval_pass(tape, &vopts.seeds);
            diagnostics.extend(interval::interval_diags(tape, &intervals, vopts));
            let consumers = liveness::consumer_lists(tape);
            let roots = liveness::roots(tape, &consumers, opts);
            let (bounds, reachable) = scalepass::scale_pass(tape, &intervals, &roots);
            diagnostics.extend(scalepass::scale_diags(
                tape,
                &bounds,
                &reachable,
                &consumers,
                &roots,
                vopts.explode_threshold,
                vopts.vanish_threshold,
            ));
            let noise = if vopts.noise_seeds.is_empty() {
                Vec::new()
            } else {
                let rec = (!vopts.recorded_abs.is_empty()).then_some(&vopts.recorded_abs[..]);
                let rn = zonotope::relational_noise_pass(tape, &intervals, rec, &vopts.noise_seeds);
                diagnostics.extend(noisepass::noise_diags(
                    tape,
                    &intervals,
                    &rn.tightened,
                    &roots,
                    vopts.noise_budget,
                ));
                rn.tightened
            };
            value = Some(ValueAnalysis {
                intervals,
                grad_bounds: bounds.iter().map(|&b| b as f32).collect(),
                noise,
            });
        }
    }
    diagnostics.sort_by_key(|d| d.node);
    Report {
        diagnostics,
        nodes: tape.len(),
        value,
    }
}

/// Verifies a live [`Graph`] with the given output variables as roots,
/// including the value-level passes seeded from the graph's recorded
/// input min/max statistics, with explicit value-lint options (e.g. the
/// bit widths an upcoming quantization sweep will use;
/// [`VerifyOptions::default`] keeps the default lint thresholds and turns
/// the quantization lint off).
pub fn verify_graph_with(g: &Graph, roots: &[Var], opts: &VerifyOptions) -> Report {
    verify_graph_lowered(g, roots, opts).0
}

/// [`verify_graph_with`], also returning the lowered tape it analyzed and
/// the recorded per-node magnitudes
/// ([`hero_autodiff::Graph::value_abs_max`]), for passes that run over the
/// same tape again, such as further [`relational_noise_pass`]es.
pub fn verify_graph_lowered(
    g: &Graph,
    roots: &[Var],
    opts: &VerifyOptions,
) -> (Report, Vec<NodeTrace>, Vec<f32>) {
    let recorded = g.value_abs_max();
    let seeds = g
        .input_ranges()
        .into_iter()
        .map(|(node, lo, hi)| RangeSeed { node, lo, hi })
        .collect();
    let aopts = AnalyzeOptions {
        roots: roots.iter().map(Var::index).collect(),
        variable_inputs: None,
        value: Some(ValueOptions {
            seeds,
            quant_bits: opts.quant_bits.clone(),
            quant_max_abs: opts.quant_max_abs,
            explode_threshold: opts.explode_threshold,
            vanish_threshold: opts.vanish_threshold,
            noise_seeds: opts.noise_seeds.clone(),
            noise_budget: opts.noise_budget,
            recorded_abs: recorded.clone(),
        }),
    };
    let tape = g.trace();
    (analyze(&tape, &aopts), tape, recorded)
}

impl Report {
    /// Publishes the report through `hero-obs`: bumps the
    /// `analyze_diags_{error,warn}` counters and, when a structured run
    /// is active, emits an `analyze_report` JSONL event tagged with
    /// `context`.
    pub fn emit_obs(&self, context: &str) {
        let errors = self.errors().count() as u64;
        let warnings = self.warnings().count() as u64;
        hero_obs::counters::ANALYZE_DIAGS_ERROR.add(errors);
        hero_obs::counters::ANALYZE_DIAGS_WARN.add(warnings);
        if hero_obs::run_active() {
            let mut codes: Vec<String> = self
                .diagnostics
                .iter()
                .map(|d| d.code.name().to_string())
                .collect();
            codes.sort();
            codes.dedup();
            hero_obs::Event::new("analyze_report")
                .str("context", context)
                .u64("nodes", self.nodes as u64)
                .u64("errors", errors)
                .u64("warnings", warnings)
                .str("codes", &codes.join(","))
                .human(format!(
                    "analyze[{context}]: {} nodes, {errors} errors, {warnings} warnings",
                    self.nodes
                ))
                .emit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_tensor::{ConvGeometry, Tensor};

    /// True if `report` holds a finding with `code` on node `node`.
    fn has(report: &Report, node: usize, code: DiagCode) -> bool {
        let mut found = report.diagnostics.iter();
        found.any(|d| d.node == node && d.code == code)
    }

    #[test]
    fn clean_mlp_tape_produces_no_findings() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4, 8], |i| 0.1 * (i[0] + i[1]) as f32));
        let w = g.input(Tensor::from_fn([8, 3], |i| 0.01 * (i[0] * 3 + i[1]) as f32));
        let b = g.input(Tensor::from_fn([3], |_| 0.1));
        let h = g.matmul(x, w).unwrap();
        let z = g.add(h, b).unwrap();
        let a = g.relu(z);
        let loss = g.cross_entropy(a, &[0, 1, 2, 0]).unwrap();
        let report = verify_graph_with(&g, &[loss], &VerifyOptions::default());
        assert!(report.diagnostics.is_empty(), "{report}");
        assert_eq!(report.nodes, 7);
    }

    #[test]
    fn clean_conv_tape_produces_no_findings() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([2, 3, 8, 8], |i| {
            0.01 * (i[2] + i[3]) as f32
        }));
        let w = g.input(Tensor::from_fn([4, 3 * 3 * 3], |_| 0.02));
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let y = g.conv2d(x, w, geom).unwrap();
        let r = g.relu6(y);
        let p = g.max_pool2d(r, 2).unwrap();
        let gap = g.global_avg_pool2d(p).unwrap();
        let loss = g.cross_entropy(gap, &[1, 3]).unwrap();
        let report = verify_graph_with(&g, &[loss], &VerifyOptions::default());
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn dead_branch_and_unused_input_are_flagged() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let unused = g.input(Tensor::from_fn([2], |i| i[0] as f32));
        let y = g.square(x);
        let dead = g.scale(y, 2.0); // computed, never used by the loss
        let loss = g.sum(y);
        let report = verify_graph_with(&g, &[loss], &VerifyOptions::default());
        assert!(!report.has_errors(), "{report}");
        assert!(has(&report, unused.index(), DiagCode::UnusedParameter));
        assert!(has(&report, dead.index(), DiagCode::DeadNode));
    }

    #[test]
    fn constant_subgraph_is_flagged_at_its_fold_boundary() {
        let mut g = Graph::new();
        let data = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let frozen = g.input(Tensor::from_fn([4], |_| 2.0));
        let fold_a = g.square(frozen); // constant
        let fold_b = g.scale(fold_a, 0.5); // constant — the boundary
        let mixed = g.mul(data, fold_b).unwrap();
        let loss = g.sum(mixed);
        let opts = AnalyzeOptions {
            roots: vec![loss.index()],
            variable_inputs: Some(vec![data.index()]),
            value: None,
        };
        let report = analyze(&g.trace(), &opts);
        assert!(!report.has_errors(), "{report}");
        assert!(has(&report, fold_b.index(), DiagCode::ConstantFoldable));
        // Interior constant nodes are not re-reported.
        assert!(!has(&report, fold_a.index(), DiagCode::ConstantFoldable));
    }

    #[test]
    fn all_variable_inputs_disable_constant_folding() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let y = g.square(x);
        let loss = g.sum(y);
        let report = verify_graph_with(&g, &[loss], &VerifyOptions::default());
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn report_renders_findings_with_provenance() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let y = g.square(x);
        let dead = g.scale(y, 3.0);
        let loss = g.sum(y);
        let report = verify_graph_with(&g, &[loss], &VerifyOptions::default());
        let text = report.to_string();
        assert!(text.contains("dead-node"), "{text}");
        assert!(text.contains(&format!("#{}", dead.index())), "{text}");
    }
}
