//! Seeded fuzzing of the analyzer: random well-formed tapes must come
//! back without error-severity findings (and without panicking), and
//! tapes with one random structural corruption must always produce at
//! least one error-severity diagnostic.
//!
//! Uses the workspace's in-tree SplitMix64 generator, so every run is
//! deterministic and a failure reproduces from the case number alone.

use hero_analyze::{analyze, AnalyzeOptions, RangeSeed, Severity, ValueOptions};
use hero_autodiff::{NodeTrace, TraceOp};
use hero_tensor::rng::{Rng, StdRng};

const VALID_CASES: u64 = 250;
const CORRUPT_CASES: u64 = 250;

/// Ops producing a tensor of the same shape as their single operand.
const UNARY_ELEMENTWISE: &[TraceOp] = &[TraceOp::Relu, TraceOp::Relu6, TraceOp::Square];

fn push(tape: &mut Vec<NodeTrace>, op: TraceOp, parents: &[usize], shape: &[usize]) {
    let index = tape.len();
    tape.push(NodeTrace {
        index,
        op,
        parents: parents.to_vec(),
        shape: shape.to_vec(),
    });
}

/// Builds a random structurally and shape-wise valid tape: a pool of
/// `[r, c]` tensors grown by elementwise/scalar/binary ops, with
/// occasional matmuls, reshapes and scalar reductions hanging off it.
fn gen_valid_tape(rng: &mut StdRng) -> Vec<NodeTrace> {
    let r = rng.gen_range(1..5usize);
    let c = rng.gen_range(1..5usize);
    let shape = [r, c];
    let mut tape = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        pool.push(tape.len());
        push(&mut tape, TraceOp::Input, &[], &shape);
    }
    for _ in 0..rng.gen_range(2..12usize) {
        let a = pool[rng.gen_range(0..pool.len())];
        match rng.gen_range(0..10usize) {
            0..=2 => {
                let op = UNARY_ELEMENTWISE[rng.gen_range(0..UNARY_ELEMENTWISE.len())].clone();
                pool.push(tape.len());
                push(&mut tape, op, &[a], &shape);
            }
            3 | 4 => {
                let scale = rng.gen::<bool>();
                let c = rng.gen_range(-2.0f32..=2.0);
                let op = if scale {
                    TraceOp::Scale { c }
                } else {
                    TraceOp::AddScalar { c }
                };
                pool.push(tape.len());
                push(&mut tape, op, &[a], &shape);
            }
            5 | 6 => {
                let b = pool[rng.gen_range(0..pool.len())];
                let op =
                    [TraceOp::Add, TraceOp::Sub, TraceOp::Mul][rng.gen_range(0..3usize)].clone();
                pool.push(tape.len());
                push(&mut tape, op, &[a, b], &shape);
            }
            7 => {
                // Fresh right operand so the inner dimensions agree.
                let m = rng.gen_range(1..4usize);
                let b = tape.len();
                push(&mut tape, TraceOp::Input, &[], &[c, m]);
                push(&mut tape, TraceOp::Matmul, &[a, b], &[r, m]);
            }
            8 => {
                let from = vec![r, c];
                push(&mut tape, TraceOp::Reshape { from }, &[a], &[r * c]);
            }
            _ => {
                let op = if rng.gen::<bool>() {
                    TraceOp::Sum
                } else {
                    TraceOp::Mean
                };
                push(&mut tape, op, &[a], &[]);
            }
        }
    }
    tape
}

/// Random seeds (occasionally degenerate) for the value passes, one per
/// input leaf.
fn gen_seeds(rng: &mut StdRng, tape: &[NodeTrace]) -> Vec<RangeSeed> {
    tape.iter()
        .filter(|n| n.op == TraceOp::Input)
        .map(|n| {
            let a = rng.gen_range(-4.0f32..=4.0);
            let b = rng.gen_range(-4.0f32..=4.0);
            RangeSeed {
                node: n.index,
                lo: a.min(b),
                hi: a.max(b),
            }
        })
        .collect()
}

/// Applies one random structural corruption guaranteed to be an error.
fn corrupt(rng: &mut StdRng, tape: &mut [NodeTrace]) {
    let non_inputs: Vec<usize> = tape
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.parents.is_empty())
        .map(|(i, _)| i)
        .collect();
    let victim = non_inputs[rng.gen_range(0..non_inputs.len())];
    match rng.gen_range(0..5usize) {
        0 => tape[victim].parents[0] = tape.len() + 5, // ParentOutOfRange
        1 => tape[victim].parents[0] = victim,         // ForwardReference
        2 => tape[victim].index = victim + 7,          // IndexMismatch
        3 => tape[victim].shape.push(2),               // Shape/geometry mismatch
        4 => {
            let p = tape[victim].parents[0];
            tape[victim].parents.push(p); // ArityMismatch
        }
        _ => unreachable!(),
    }
}

fn value_opts(seeds: Vec<RangeSeed>) -> AnalyzeOptions {
    AnalyzeOptions {
        roots: vec![],
        variable_inputs: None,
        value: Some(ValueOptions {
            seeds,
            quant_bits: vec![3, 4, 8],
            ..ValueOptions::default()
        }),
    }
}

#[test]
fn random_valid_tapes_have_no_structural_errors() {
    for case in 0..VALID_CASES {
        let mut rng = StdRng::seed_from_u64(0xF00D + case);
        let tape = gen_valid_tape(&mut rng);
        let report = analyze(&tape, &AnalyzeOptions::default());
        assert!(
            !report.has_errors(),
            "case {case}: valid tape produced errors\n{report}\ntape: {tape:#?}"
        );
        // Value passes over the same tape must never panic; they may emit
        // value lints (e.g. a squared activation outgrowing the 3-bit
        // grid), but structural soundness keeps NonFiniteRange away from
        // the seeded leaves.
        let seeds = gen_seeds(&mut rng, &tape);
        let vreport = analyze(&tape, &value_opts(seeds));
        for d in &vreport.diagnostics {
            assert!(
                tape[d.node].op != TraceOp::Input || d.severity() != Severity::Error,
                "case {case}: seeded input flagged\n{vreport}"
            );
        }
    }
}

#[test]
fn corrupted_tapes_always_produce_an_error() {
    for case in 0..CORRUPT_CASES {
        let mut rng = StdRng::seed_from_u64(0xBAD_5EED + case);
        let mut tape = gen_valid_tape(&mut rng);
        corrupt(&mut rng, &mut tape);
        let seeds = gen_seeds(&mut rng, &tape);
        let report = analyze(&tape, &value_opts(seeds));
        assert!(
            report.has_errors(),
            "case {case}: corruption went undetected\n{report}\ntape: {tape:#?}"
        );
    }
}
