//! The traced run: per-layer attribution and per-layer measurements.
//!
//! A traced run is the untraced run with the program's own span tracer
//! switched on for every other op, so traced and untraced ops of the same
//! work alternate. Each traced op runs under a benchmark root span
//! (`bench.op`); the spans the program already emits (`epoch`,
//! `train_step`, `forward`, `backward`, `gemm`, `slq`, `quant_sweep`, …)
//! nest inside it, and their self times, bucketed by layer, give each
//! layer's share of the op. Nothing inside the program is instrumented for
//! the benchmark, and no program code is re-implemented here.

use crate::stats::median;
use crate::workloads::{
    c10_data, c10_resnet, measure, Calibration, Measured, Sizes, Tracing, Workload,
};
use crate::Metric;
use hero_core::experiment::MethodKind;
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_obs::counters;
use hero_obs::SummaryRow;
use hero_optim::{train_step, Method, Optimizer};
use hero_parallel::{train_step_parallel, ParallelCtx};
use hero_tensor::{Result, Tensor, TensorError};
use std::hint::black_box;
use std::path::Path;

/// The layer bucket a span's self time belongs to. Spans that name a
/// layer's work map to it; helper spans the program reuses across layers
/// (`sync`, `reduce`, `perturb`, `apply`, `hvp`, …) inherit their parent's
/// bucket; `None` is time no layer claims.
fn bucket(name: &str, parent: Option<&'static str>) -> Option<&'static str> {
    Some(match name {
        "gemm" | "gemm_simd" => "tensor.gemm",
        "im2col" | "col2im" => "tensor.im2col",
        "forward" => "nn.forward",
        "eval" => "nn.eval",
        "backward" => "autodiff.backward",
        "epoch" => "trainer",
        "augment" => "data.augment",
        "train_step" => "optim",
        "scatter" => "parallel.wait",
        "bn_refresh" => "parallel.bn_refresh",
        "slq" | "lanczos" => "hessian.slq",
        "layer_traces" => "hessian.layer_traces",
        "static_sensitivity" => "analyze.sensitivity",
        // `quant_sweep` runs its certified soundness gate (tape
        // verification, certified noise bounds, the base probe loss)
        // before opening its own span.
        "bench.quant_sweep" => "analyze.gate",
        "quant_sweep" => "quant.sweep",
        "quantize" => "quant.quantize",
        "bench.allocate" => "quant.allocate",
        "bench.artifact_load" => "artifact.load",
        "bench.op" => return None,
        _ => return parent,
    })
}

/// Buckets whose share of op time is reported, with the metric name.
const SHARES: [(&str, &str); 18] = [
    ("tensor.gemm", "tensor.gemm_share"),
    ("tensor.im2col", "tensor.im2col_share"),
    ("nn.forward", "nn.forward_share"),
    ("nn.eval", "nn.eval_share"),
    ("autodiff.backward", "autodiff.backward_share"),
    ("optim", "optim.self_share"),
    ("trainer", "trainer.self_share"),
    ("data.augment", "data.augment_share"),
    ("parallel.wait", "parallel.wait_share"),
    ("parallel.bn_refresh", "parallel.bn_refresh_share"),
    ("hessian.slq", "hessian.slq_share"),
    ("hessian.layer_traces", "hessian.layer_traces_share"),
    ("analyze.sensitivity", "analyze.sensitivity_share"),
    ("analyze.gate", "analyze.gate_share"),
    ("quant.sweep", "quant.sweep_share"),
    ("quant.quantize", "quant.quantize_share"),
    ("quant.allocate", "quant.allocate_share"),
    ("artifact.load", "artifact.load_share"),
];

/// Self time per bucket under the `bench.op` roots, and the roots' total.
fn attribute(rows: &[SummaryRow]) -> (Vec<(&'static str, u64)>, u64) {
    let mut per_bucket: Vec<(&'static str, u64)> = Vec::new();
    let mut op_total = 0;
    let mut stack: Vec<Option<&'static str>> = Vec::new();
    for r in rows {
        stack.truncate(r.depth);
        let b = bucket(&r.name, stack.last().copied().flatten());
        stack.push(b);
        if r.depth == 0 && r.name == "bench.op" {
            op_total += r.total_ns;
        }
        if !r.path.starts_with("bench.op") {
            continue;
        }
        if let Some(b) = b {
            match per_bucket.iter_mut().find(|(n, _)| *n == b) {
                Some((_, ns)) => *ns += r.self_ns,
                None => per_bucket.push((b, r.self_ns)),
            }
        }
    }
    (per_bucket, op_total)
}

/// Total time of every span named in `names`, on any thread.
fn total_ns(rows: &[SummaryRow], names: &[&str]) -> u64 {
    rows.iter()
        .filter(|r| names.contains(&r.name.as_str()))
        .map(|r| r.total_ns)
        .sum()
}

fn counter(snapshot: &[(&'static str, u64)], name: &str) -> f64 {
    snapshot
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// Metrics derived from the span tree and counters of `ops` traced ops.
fn attribution_metrics(
    rows: &[SummaryRow],
    snap: &[(&'static str, u64)],
    ops: usize,
) -> Vec<Metric> {
    let (per_bucket, op_total) = attribute(rows);
    let op_total = op_total.max(1) as f64;
    let per_op = |v: f64| v / ops.max(1) as f64;
    let share = |b: &str| {
        per_bucket
            .iter()
            .find(|(n, _)| *n == b)
            .map_or(0.0, |&(_, ns)| ns as f64 / op_total)
    };
    let mut out: Vec<Metric> = SHARES
        .iter()
        .map(|&(b, name)| Metric::new(name, share(b), "ratio"))
        .collect();
    let attributed: u64 = per_bucket.iter().map(|&(_, ns)| ns).sum();
    let gemm_ns = total_ns(rows, &["gemm", "gemm_simd"]) as f64;
    let flops = counter(snap, "gemm_flops");
    let hits = counter(snap, "pool_hits");
    let fresh = counter(snap, "pool_fresh_allocs");
    out.extend([
        Metric::new("bench.coverage", attributed as f64 / op_total, "ratio"),
        Metric::new("tensor.gemm_ms", per_op(gemm_ns / 1e6), "ms"),
        Metric::new(
            "tensor.effective_gflops",
            flops / gemm_ns.max(1.0),
            "GFLOP/s",
        ),
        Metric::new("tensor.gemm_mflop_per_op", per_op(flops / 1e6), "MFLOP"),
        Metric::new(
            "tensor.gemm_calls_per_op",
            per_op(counter(snap, "gemm_calls")),
            "count",
        ),
        Metric::new(
            "tensor.im2col_calls_per_op",
            per_op(counter(snap, "im2col_calls")),
            "count",
        ),
        Metric::new(
            "tensor.pool_hit_rate",
            hits / (hits + fresh).max(1.0),
            "ratio",
        ),
        Metric::new(
            "nn.forward_ms",
            per_op(total_ns(rows, &["forward"]) as f64 / 1e6),
            "ms",
        ),
        Metric::new(
            "autodiff.grad_evals_per_op",
            per_op(counter(snap, "grad_evals")),
            "count",
        ),
        Metric::new(
            "analyze.zonotope_passes_per_op",
            per_op(counter(snap, "analyze_zonotope_passes")),
            "count",
        ),
    ]);
    out
}

/// The real layer shapes `(name, m, n, k)` of the three model families
/// (the `gemm_shapes` bench's rows of the same names).
const GEMM_SHAPES: [(&str, usize, usize, usize); 5] = [
    ("resnet_stage_conv", 8, 1024, 72),
    ("resnet_stage_conv_grad_w", 8, 72, 1024),
    ("mobilenet_pointwise_conv", 16, 1024, 8),
    ("vgg_conv", 16, 1024, 144),
    ("fc_head", 16, 256, 256),
];

/// GFLOP/s of `Tensor::matmul` on each shape, from the median batch
/// time at reference speed.
fn gemm_metrics(cal: &mut Calibration) -> Result<Vec<Metric>> {
    GEMM_SHAPES
        .iter()
        .map(|&(name, m, n, k)| {
            let a = Tensor::from_fn([m, k], |i| ((i[0] * 7 + i[1] * 3) % 11) as f32 * 0.1 - 0.5);
            let b = Tensor::from_fn([k, n], |i| ((i[0] * 5 + i[1]) % 13) as f32 * 0.1 - 0.6);
            let flops = 2.0 * (m * n * k) as f64;
            // ~20 MFLOP per timed batch.
            let reps = (20e6 / flops).ceil() as usize;
            let batch = || -> Result<()> {
                for _ in 0..reps {
                    black_box(black_box(&a).matmul(black_box(&b))?);
                }
                Ok(())
            };
            batch()?;
            let (timed, results) = cal.time(6, |_| batch());
            results.into_iter().collect::<Result<Vec<()>>>()?;
            let batch_ms = median(&timed.at_reference_speed());
            Ok(Metric::new(
                format!("tensor.gemm_gflops.{name}"),
                flops * reps as f64 / (batch_ms * 1e-3) / 1e9,
                "GFLOP/s",
            ))
        })
        .collect()
}

/// Median step time at reference speed of `steps` steps after two
/// untimed ones; also returns the last step's result.
fn step_ms<T>(
    cal: &mut Calibration,
    steps: usize,
    mut step: impl FnMut() -> Result<T>,
) -> Result<(f64, T)> {
    step()?;
    step()?;
    let (timed, results) = cal.time(steps.max(1), |_| step());
    let last = results.into_iter().collect::<Result<Vec<T>>>()?.pop();
    Ok((
        median(&timed.at_reference_speed()),
        last.expect("at least one step"),
    ))
}

/// Step cost of each training method (`hero_optim::train_step`) on one
/// batch of the C10 ResNet.
fn optimizer_metrics(cal: &mut Calibration, seed: u64, steps: usize) -> Result<Vec<Metric>> {
    let (train, _) = c10_data(seed, 0.25);
    let x = train.images.narrow(0, 32)?;
    let y = &train.labels[..32];
    let tuned = |k: MethodKind| k.tuned_for(Preset::C10, ModelKind::Resnet);
    let methods = [
        ("sgd", Method::Sgd),
        ("grad_l1", tuned(MethodKind::GradL1)),
        ("first_order", tuned(MethodKind::FirstOrder)),
        ("hero", tuned(MethodKind::Hero)),
    ];
    let mut out = Vec::new();
    let mut medians = Vec::new();
    for (label, method) in methods {
        let (mut net, mut opt) = (c10_resnet(seed), Optimizer::new(method));
        let (ms, stats) = step_ms(cal, steps, || train_step(&mut net, &mut opt, &x, y, 0.05))?;
        medians.push(ms);
        out.push(Metric::new(format!("optim.step_ms.{label}"), ms, "ms"));
        out.push(Metric::new(
            format!("optim.grad_evals_per_step.{label}"),
            stats.grad_evals as f64,
            "count",
        ));
    }
    out.push(Metric::new(
        "optim.cost_ratio.hero_over_sgd",
        medians[3] / medians[0],
        "ratio",
    ));
    Ok(out)
}

/// Serial versus 2-worker sharded HERO steps on the same batch, then a
/// traced sharded pass for worker occupancy and reduce wait.
fn parallel_metrics(cal: &mut Calibration, seed: u64, steps: usize) -> Result<Vec<Metric>> {
    const WORKERS: usize = 2;
    let (train, _) = c10_data(seed, 0.25);
    let x = train.images.narrow(0, 32)?;
    let y = &train.labels[..32];
    let hero = MethodKind::Hero.tuned_for(Preset::C10, ModelKind::Resnet);
    let (mut net, mut opt) = (c10_resnet(seed), Optimizer::new(hero));
    let (serial_ms, _) = step_ms(cal, steps, || train_step(&mut net, &mut opt, &x, y, 0.05))?;
    let (mut net, mut opt) = (c10_resnet(seed), Optimizer::new(hero));
    let mut ctx = ParallelCtx::new(&net, WORKERS)?;
    let (sharded_ms, _) = step_ms(cal, steps, || {
        train_step_parallel(&mut ctx, &mut net, &mut opt, &x, y, 0.05)
    })?;
    hero_obs::enable();
    hero_obs::span::reset();
    counters::reset_all();
    for _ in 0..steps {
        train_step_parallel(&mut ctx, &mut net, &mut opt, &x, y, 0.05)?;
    }
    let rows = hero_obs::summary_rows();
    let wait_ns = counters::REDUCE_WAIT_NS.get() as f64;
    hero_obs::disable();
    let busy = total_ns(&rows, &["shard_grad"]) as f64;
    let step_ns = total_ns(&rows, &["train_step"]) as f64;
    Ok(vec![
        Metric::new("parallel.step_ms", sharded_ms, "ms"),
        Metric::new("parallel.speedup", serial_ms / sharded_ms, "ratio"),
        Metric::new(
            "parallel.workers_busy_frac",
            busy / (WORKERS as f64 * step_ns).max(1.0),
            "ratio",
        ),
        Metric::new(
            "parallel.reduce_wait_ms",
            wait_ns / steps as f64 / 1e6,
            "ms",
        ),
    ])
}

/// Runs `w` with every other op traced, writes the span summary and a
/// Chrome trace under `trace_dir`, and returns the per-layer metrics with
/// what the run measured (its checks cover every op, traced or not).
///
/// # Errors
///
/// Propagates set-up and workload errors.
pub fn trace(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    trace_dir: &Path,
) -> Result<(Vec<Metric>, Measured)> {
    let tracing = Tracing(true);
    let m = measure(w, seed, sizes, tracing)?;
    let rows = hero_obs::summary_rows();
    let snap = counters::snapshot();
    // The trace stream opens only now, so no untraced op wrote to it.
    hero_obs::init_run(trace_dir, w.name())
        .map_err(|e| TensorError::InvalidArgument(format!("trace dir: {e}")))?;
    hero_obs::finish();

    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    for (i, ms) in m.ops.at_reference_speed().into_iter().enumerate() {
        if tracing.traces(i) {
            traced_ms.push(ms);
        } else {
            plain_ms.push(ms);
        }
    }
    let mut metrics = attribution_metrics(&rows, &snap, traced_ms.len());
    metrics.push(Metric::new("bench.op_ms", median(&traced_ms), "ms"));
    metrics.push(Metric::new(
        "bench.trace_overhead_frac",
        median(&traced_ms) / median(&plain_ms) - 1.0,
        "ratio",
    ));
    let mut cal = Calibration::new();
    metrics.extend(gemm_metrics(&mut cal)?);
    metrics.extend(optimizer_metrics(&mut cal, seed, sizes.probe_steps)?);
    metrics.extend(parallel_metrics(&mut cal, seed, sizes.probe_steps)?);
    Ok((metrics, m))
}
