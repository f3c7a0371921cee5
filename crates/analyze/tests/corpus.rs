//! Seeded-defect corpus for the tape verifier.
//!
//! Each case hand-builds a malformed trace — the kind of tape a buggy op
//! builder would record — and asserts the verifier pins the *right*
//! diagnostic on the *right* node. The `Graph` API cannot produce these
//! tapes (it validates eagerly), which is exactly why the verifier works on
//! the plain-data trace IR.

use hero_analyze::{analyze, AnalyzeOptions, DiagCode, NoiseSeed, RangeSeed, Report, ValueOptions};
use hero_autodiff::{NodeTrace, TraceOp};
use hero_tensor::ConvGeometry;

fn node(index: usize, op: TraceOp, parents: &[usize], shape: &[usize]) -> NodeTrace {
    NodeTrace {
        index,
        op,
        parents: parents.to_vec(),
        shape: shape.to_vec(),
    }
}

fn input(index: usize, shape: &[usize]) -> NodeTrace {
    node(index, TraceOp::Input, &[], shape)
}

fn run(tape: &[NodeTrace]) -> Report {
    analyze(tape, &AnalyzeOptions::default())
}

/// True if `report` holds a finding with `code` on node `node`.
fn has(report: &Report, node: usize, code: DiagCode) -> bool {
    let mut found = report.diagnostics.iter();
    found.any(|d| d.node == node && d.code == code)
}

#[test]
fn matmul_inner_dim_mismatch() {
    let tape = vec![
        input(0, &[2, 3]),
        input(1, &[4, 5]),
        node(2, TraceOp::Matmul, &[0, 1], &[2, 5]),
    ];
    let report = run(&tape);
    assert!(has(&report, 2, DiagCode::MatmulDimMismatch), "{report}");
}

#[test]
fn matmul_operand_rank_mismatch() {
    let tape = vec![
        input(0, &[2, 3, 4]),
        input(1, &[3, 5]),
        node(2, TraceOp::Matmul, &[0, 1], &[2, 5]),
    ];
    let report = run(&tape);
    assert!(has(&report, 2, DiagCode::RankMismatch), "{report}");
}

#[test]
fn matmul_lying_output_shape() {
    // Inner dims agree, but the recorded output shape is transposed.
    let tape = vec![
        input(0, &[2, 3]),
        input(1, &[3, 4]),
        node(2, TraceOp::Matmul, &[0, 1], &[4, 2]),
    ];
    let report = run(&tape);
    assert!(has(&report, 2, DiagCode::ShapeMismatch), "{report}");
}

#[test]
fn reshape_element_count_mismatch() {
    let tape = vec![
        input(0, &[6]),
        node(1, TraceOp::Reshape { from: vec![6] }, &[0], &[2, 2]),
    ];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ReshapeCountMismatch), "{report}");
}

#[test]
fn reshape_with_stale_source_shape() {
    // The recorded "from" shape disagrees with the actual operand.
    let tape = vec![
        input(0, &[2, 3]),
        node(1, TraceOp::Reshape { from: vec![4] }, &[0], &[4]),
    ];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ShapeMismatch), "{report}");
}

#[test]
fn broadcast_incompatible_operands() {
    let tape = vec![
        input(0, &[2, 3]),
        input(1, &[4]),
        node(2, TraceOp::Add, &[0, 1], &[2, 3]),
    ];
    let report = run(&tape);
    assert!(has(&report, 2, DiagCode::BroadcastIncompatible), "{report}");
}

#[test]
fn dangling_parent_reference() {
    let tape = vec![input(0, &[3]), node(1, TraceOp::Square, &[7], &[3])];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ParentOutOfRange), "{report}");
}

#[test]
fn forward_reference_breaks_topological_order() {
    let tape = vec![
        input(0, &[3]),
        node(1, TraceOp::Add, &[0, 2], &[3]),
        node(2, TraceOp::Square, &[0], &[3]),
    ];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ForwardReference), "{report}");
}

#[test]
fn node_index_disagrees_with_position() {
    let tape = vec![input(0, &[3]), node(5, TraceOp::Square, &[0], &[3])];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::IndexMismatch), "{report}");
}

#[test]
fn conv_geometry_disagrees_with_input() {
    let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
    let tape = vec![
        input(0, &[1, 3, 6, 6]), // 6x6, geometry says 8x8
        input(1, &[4, 27]),
        node(2, TraceOp::Conv2d { geom }, &[0, 1], &[1, 4, 8, 8]),
    ];
    let report = run(&tape);
    assert!(has(&report, 2, DiagCode::ConvGeometryMismatch), "{report}");
}

#[test]
fn conv_weight_patch_width_mismatch() {
    let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
    let tape = vec![
        input(0, &[1, 3, 8, 8]),
        input(1, &[4, 25]), // must be 3*3*3 = 27 columns
        node(2, TraceOp::Conv2d { geom }, &[0, 1], &[1, 4, 8, 8]),
    ];
    let report = run(&tape);
    assert!(has(&report, 2, DiagCode::ConvGeometryMismatch), "{report}");
}

#[test]
fn max_pool_output_does_not_tile_input() {
    // 8 rows do not split into 3 windows of one whole side.
    let tape = vec![
        input(0, &[1, 2, 8, 8]),
        node(
            1,
            TraceOp::MaxPool {
                outputs: 18,
                max_source: Some(0),
            },
            &[0],
            &[1, 2, 3, 3],
        ),
    ];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::PoolGeometryMismatch), "{report}");
}

#[test]
fn max_pool_argmax_routes_outside_input() {
    let tape = vec![
        input(0, &[1, 1, 4, 4]),
        node(
            1,
            TraceOp::MaxPool {
                outputs: 4,
                max_source: Some(99), // input has 16 elements
            },
            &[0],
            &[1, 1, 2, 2],
        ),
    ];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ArgIndexOutOfRange), "{report}");
}

#[test]
fn loss_label_count_mismatch() {
    let tape = vec![
        input(0, &[4, 10]),
        node(1, TraceOp::CrossEntropy { labels: 3 }, &[0], &[]),
    ];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::LabelCountMismatch), "{report}");
}

#[test]
fn dead_subgraph_behind_explicit_root() {
    // Nodes 3 and 4 form a branch the loss never consumes.
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Square, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
        node(3, TraceOp::Scale { c: 2.0 }, &[1], &[4]),
        node(4, TraceOp::Add, &[3, 0], &[4]),
    ];
    let report = analyze(
        &tape,
        &AnalyzeOptions {
            roots: vec![2],
            ..AnalyzeOptions::default()
        },
    );
    assert!(!report.has_errors(), "{report}");
    assert!(has(&report, 3, DiagCode::DeadNode), "{report}");
    assert!(has(&report, 4, DiagCode::DeadNode), "{report}");
}

#[test]
fn elementwise_op_shape_drift() {
    // A unary op whose recorded output silently changed shape.
    let tape = vec![input(0, &[2, 3]), node(1, TraceOp::Relu, &[0], &[3, 2])];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ShapeMismatch), "{report}");
}

#[test]
fn diagnostics_carry_provenance_chains() {
    let tape = vec![
        input(0, &[2, 3]),
        node(1, TraceOp::Relu, &[0], &[2, 3]),
        node(2, TraceOp::Square, &[1], &[2, 3]),
        input(3, &[4, 5]),
        node(4, TraceOp::Matmul, &[2, 3], &[2, 5]),
    ];
    let report = run(&tape);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == DiagCode::MatmulDimMismatch)
        .expect("matmul defect not flagged");
    // Chain walks first parents: matmul <- square <- relu <- input.
    assert_eq!(d.provenance, vec![4, 2, 1, 0]);
    assert_eq!(d.op, "matmul");
}

#[test]
fn empty_tape_is_clean() {
    let report = run(&[]);
    assert!(report.diagnostics.is_empty());
    assert_eq!(report.nodes, 0);
}

// ---------------------------------------------------------------------------
// Value-level lints (interval + scale passes)
// ---------------------------------------------------------------------------

fn seeded(seeds: &[(usize, f32, f32)]) -> ValueOptions {
    ValueOptions {
        seeds: seeds
            .iter()
            .map(|&(node, lo, hi)| RangeSeed { node, lo, hi })
            .collect(),
        ..ValueOptions::default()
    }
}

fn run_value(tape: &[NodeTrace], vopts: ValueOptions) -> Report {
    analyze(
        tape,
        &AnalyzeOptions {
            roots: vec![],
            variable_inputs: None,
            value: Some(vopts),
        },
    )
}

#[test]
fn arity_mismatch_on_binary_op_with_one_parent() {
    let tape = vec![input(0, &[3]), node(1, TraceOp::Add, &[0], &[3])];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ArityMismatch), "{report}");
}

#[test]
fn arity_mismatch_on_unary_op_with_extra_parent() {
    let tape = vec![input(0, &[3]), node(1, TraceOp::Square, &[0, 0], &[3])];
    let report = run(&tape);
    assert!(has(&report, 1, DiagCode::ArityMismatch), "{report}");
}

#[test]
fn quant_clip_risk_on_outgrown_activation() {
    // The input grid spans [-1, 1]; the scaled activation spans [-100, 100]
    // and cannot be represented by a shared-range 4-bit quantizer.
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Scale { c: 100.0 }, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let mut vopts = seeded(&[(0, -1.0, 1.0)]);
    vopts.quant_bits = vec![4];
    let report = run_value(&tape, vopts);
    assert!(has(&report, 1, DiagCode::QuantClipRisk), "{report}");
}

#[test]
fn quant_clip_risk_stays_silent_inside_the_grid() {
    let tape = vec![
        input(0, &[1]),
        node(1, TraceOp::Scale { c: 1.0 }, &[0], &[1]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let mut vopts = seeded(&[(0, -1.0, 1.0)]);
    vopts.quant_bits = vec![4];
    let report = run_value(&tape, vopts);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code != DiagCode::QuantClipRisk),
        "{report}"
    );
}

#[test]
fn relu6_input_above_six_is_a_dead_zone() {
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Relu6, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let report = run_value(&tape, seeded(&[(0, 6.5, 30.0)]));
    assert!(has(&report, 1, DiagCode::SaturationDeadZone), "{report}");
}

#[test]
fn always_negative_relu_input_is_a_dead_zone() {
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Relu, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let report = run_value(&tape, seeded(&[(0, -5.0, -1.0)]));
    assert!(has(&report, 1, DiagCode::SaturationDeadZone), "{report}");
}

#[test]
fn relu6_input_straddling_its_linear_range_is_not_a_dead_zone() {
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Relu6, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let report = run_value(&tape, seeded(&[(0, -2.0, 8.0)]));
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code != DiagCode::SaturationDeadZone),
        "{report}"
    );
}

#[test]
fn amplifier_chain_crosses_the_explosion_threshold() {
    // Two 1e4x amplifiers: the gradient bound at the input is 1e8. With the
    // threshold at 1e6 the crossing happens at the input edge.
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Scale { c: 1e4 }, &[0], &[4]),
        node(2, TraceOp::Scale { c: 1e4 }, &[1], &[4]),
        node(3, TraceOp::Sum, &[2], &[]),
    ];
    let mut vopts = seeded(&[(0, -1.0, 1.0)]);
    vopts.explode_threshold = 1e6;
    let report = run_value(&tape, vopts);
    assert!(has(&report, 0, DiagCode::ScaleExplosion), "{report}");
    // Boundary-style: nodes on the safe side of the crossing stay silent.
    assert!(!has(&report, 2, DiagCode::ScaleExplosion), "{report}");
}

#[test]
fn amplifier_chain_is_fine_under_default_thresholds() {
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Scale { c: 1e4 }, &[0], &[4]),
        node(2, TraceOp::Scale { c: 1e4 }, &[1], &[4]),
        node(3, TraceOp::Sum, &[2], &[]),
    ];
    let report = run_value(&tape, seeded(&[(0, -1.0, 1.0)]));
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.code != DiagCode::ScaleExplosion),
        "{report}"
    );
}

#[test]
fn attenuator_crosses_the_vanishing_threshold() {
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Scale { c: 1e-12 }, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let mut vopts = seeded(&[(0, -1.0, 1.0)]);
    vopts.vanish_threshold = 1e-6;
    let report = run_value(&tape, vopts);
    assert!(has(&report, 0, DiagCode::ScaleVanishing), "{report}");
}

#[test]
fn unseeded_input_has_a_non_finite_range() {
    let tape = vec![
        input(0, &[3]),
        node(1, TraceOp::Square, &[0], &[3]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let report = run_value(&tape, ValueOptions::default());
    assert!(has(&report, 0, DiagCode::NonFiniteRange), "{report}");
}

#[test]
fn nan_seed_flags_the_input() {
    let tape = vec![input(0, &[3]), node(1, TraceOp::Sum, &[0], &[])];
    let report = run_value(&tape, seeded(&[(0, f32::NAN, f32::NAN)]));
    assert!(has(&report, 0, DiagCode::NonFiniteRange), "{report}");
}

#[test]
fn overflowing_scale_goes_non_finite_at_the_scale() {
    let tape = vec![
        input(0, &[3]),
        node(1, TraceOp::Scale { c: 1e30 }, &[0], &[3]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let report = run_value(&tape, seeded(&[(0, -1e10, 2e10)]));
    assert!(has(&report, 1, DiagCode::NonFiniteRange), "{report}");
    // Origin-only: downstream nodes inherit the flag silently.
    assert!(!has(&report, 2, DiagCode::NonFiniteRange), "{report}");
}

// ---------------------------------------------------------------------------
// Quantization-noise domain (relational pass through the analyze() front end)
// ---------------------------------------------------------------------------

#[test]
fn seeded_tape_over_budget_flags_the_root() {
    // A 0.25-magnitude perturbation scaled by 8 and summed over 4 lanes
    // induces up to 8 units of output noise — far over a 1e-3 budget.
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Scale { c: 8.0 }, &[0], &[4]),
        node(2, TraceOp::Sum, &[1], &[]),
    ];
    let vopts = ValueOptions {
        noise_seeds: vec![NoiseSeed {
            node: 0,
            magnitude: 0.25,
        }],
        noise_budget: Some(1e-3),
        ..seeded(&[(0, -1.0, 1.0)])
    };
    let report = run_value(&tape, vopts);
    assert!(
        has(&report, 2, DiagCode::QuantErrorBudgetExceeded),
        "{report}"
    );
}

#[test]
fn zero_magnitude_seed_certifies_exactly_zero_noise() {
    // The zero-seed zonotope proves δ ≡ 0 end to end: even a *zero*
    // error budget holds, which only an exact certificate can satisfy
    // (any margin-charging domain would exceed it).
    let tape = vec![
        input(0, &[4]),
        node(1, TraceOp::Scale { c: 8.0 }, &[0], &[4]),
        node(2, TraceOp::Square, &[1], &[4]),
        node(3, TraceOp::Sum, &[2], &[]),
    ];
    let vopts = ValueOptions {
        noise_seeds: vec![NoiseSeed {
            node: 0,
            magnitude: 0.0,
        }],
        noise_budget: Some(0.0),
        ..seeded(&[(0, -1.0, 1.0)])
    };
    let report = run_value(&tape, vopts);
    assert!(
        !has(&report, 3, DiagCode::QuantErrorBudgetExceeded),
        "zero-seed zonotope failed to certify zero noise: {report}"
    );
}
