//! Dataflow passes over a structurally sound tape: dead-node detection,
//! unused parameters, and constant-foldable subgraphs.

use crate::diag::{DiagCode, Diagnostic};
use crate::AnalyzeOptions;
use hero_autodiff::{NodeTrace, TraceOp};

/// Consumers of each node, considering only well-formed (backward) edges.
pub(crate) fn consumer_lists(tape: &[NodeTrace]) -> Vec<Vec<usize>> {
    let mut consumers = vec![Vec::new(); tape.len()];
    for (i, node) in tape.iter().enumerate() {
        for &p in &node.parents {
            if p < i {
                consumers[p].push(i);
            }
        }
    }
    consumers
}

/// The root set: explicit roots when given (invalid indices ignored),
/// otherwise every sink (node nothing consumes).
pub(crate) fn roots(
    tape: &[NodeTrace],
    consumers: &[Vec<usize>],
    opts: &AnalyzeOptions,
) -> Vec<usize> {
    if opts.roots.is_empty() {
        (0..tape.len())
            .filter(|&i| consumers[i].is_empty())
            .collect()
    } else {
        opts.roots
            .iter()
            .copied()
            .filter(|&r| r < tape.len())
            .collect()
    }
}

pub(crate) fn liveness_pass(tape: &[NodeTrace], opts: &AnalyzeOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if tape.is_empty() {
        return out;
    }
    let consumers = consumer_lists(tape);
    let roots = roots(tape, &consumers, opts);

    // Reachability: ancestors of any root.
    let mut reachable = vec![false; tape.len()];
    let mut stack: Vec<usize> = roots.clone();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut reachable[i], true) {
            continue;
        }
        for &p in &tape[i].parents {
            if p < i && !reachable[p] {
                stack.push(p);
            }
        }
    }

    // Constancy: an input is constant unless listed as variable; an
    // interior node is constant when every parent is.
    let variable = opts.variable_inputs.as_deref();
    let mut constant = vec![false; tape.len()];
    for (i, node) in tape.iter().enumerate() {
        constant[i] = if node.op == TraceOp::Input {
            variable.is_some_and(|v| !v.contains(&i))
        } else {
            !node.parents.is_empty() && node.parents.iter().all(|&p| p < i && constant[p])
        };
    }

    for (i, node) in tape.iter().enumerate() {
        let is_root = roots.contains(&i);
        if node.op == TraceOp::Input {
            if consumers[i].is_empty() && !is_root {
                out.push(Diagnostic::new(
                    tape,
                    i,
                    DiagCode::UnusedParameter,
                    "leaf is consumed by no op and is not an output".to_string(),
                ));
            }
            continue;
        }
        if !reachable[i] {
            out.push(Diagnostic::new(
                tape,
                i,
                DiagCode::DeadNode,
                "node cannot reach any output; its value is computed and discarded".to_string(),
            ));
            continue;
        }
        // Report constant subgraphs at their fold boundary: a constant node
        // feeding a non-constant consumer (or serving as an output).
        if constant[i] && (is_root || consumers[i].iter().any(|&c| !constant[c])) {
            out.push(Diagnostic::new(
                tape,
                i,
                DiagCode::ConstantFoldable,
                "subgraph rooted here depends on no variable input and could be precomputed once"
                    .to_string(),
            ));
        }
    }
    out
}
