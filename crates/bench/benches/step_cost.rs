//! Per-step cost of each training method (the paper's implicit §5.1 cost
//! claim: SAM-style methods cost one extra backprop, HERO two) plus the
//! raw GEMM that dominates it. Writes `results/BENCH_step.json` (override
//! the destination with `HERO_BENCH_OUT`).
//!
//! Timing runs with tracing *disabled* — the steady-state configuration —
//! then each operation is replayed briefly with counters enabled to attach
//! pool-hit-rate, GEMM-flops and gradient-evaluation extras to its row.

use hero_bench::timing::{bench_out_path, default_budget, time_op, write_json, BenchRow};
use hero_core::experiment::{model_config, MethodKind};
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_obs::counters;
use hero_optim::{train_step, Optimizer};
use hero_parallel::{threads_from_env, train_step_parallel, ParallelCtx};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::Tensor;

/// Replays `f` a few times with counters enabled and attaches the mean
/// per-iteration counter readings to the row.
fn with_counter_extras(row: BenchRow, mut f: impl FnMut()) -> BenchRow {
    const SAMPLE_ITERS: u64 = 5;
    hero_obs::enable();
    counters::reset_all();
    for _ in 0..SAMPLE_ITERS {
        f();
    }
    let hits = counters::POOL_HITS.get() as f64;
    let fresh = counters::POOL_FRESH_ALLOCS.get() as f64;
    let flops = counters::GEMM_FLOPS.get() as f64 / SAMPLE_ITERS as f64;
    let evals = counters::GRAD_EVALS.get() as f64 / SAMPLE_ITERS as f64;
    hero_obs::disable();
    let mut row = row.with_extra("gemm_flops_per_iter", flops);
    if hits + fresh > 0.0 {
        row = row.with_extra("pool_hit_rate", hits / (hits + fresh));
    }
    if evals > 0.0 {
        row = row.with_extra("grad_evals_per_iter", evals);
    }
    row
}

fn main() {
    hero_obs::disable();
    let budget = default_budget();
    let mut rows = Vec::new();

    // Raw kernel: the 256x256x256 product named in the bench methodology
    // (DESIGN.md). `matmul` is the packed micro-kernel path; the
    // `_reference` row is the pre-packing blocked kernel kept as oracle.
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::from_fn([256, 256], |_| rng.gen::<f32>() - 0.5);
    let b = Tensor::from_fn([256, 256], |_| rng.gen::<f32>() - 0.5);
    let row = time_op("matmul_256x256x256", budget, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    });
    rows.push(with_counter_extras(row, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    }));
    rows.push(time_op("matmul_256x256x256_reference", budget, || {
        std::hint::black_box(hero_tensor::matmul_reference(&a, &b).unwrap());
    }));

    // Full training steps on the ResNet stand-in, batch 16 (matches the
    // EXPERIMENTS.md training configuration).
    let preset = Preset::C10;
    let (train_set, _) = preset.load(0.2);
    let images = train_set.images.narrow(0, 16).unwrap();
    let labels = train_set.labels[..16].to_vec();
    for method in [
        MethodKind::Sgd,
        MethodKind::GradL1,
        MethodKind::FirstOrder,
        MethodKind::Hero,
    ] {
        let mut net = ModelKind::Resnet.build(model_config(preset), &mut StdRng::seed_from_u64(0));
        let mut opt = Optimizer::new(method.tuned());
        let name = format!("step_{}", method.paper_name());
        let row = time_op(&name, budget, || {
            train_step(&mut net, &mut opt, &images, &labels, 0.01).unwrap();
        });
        rows.push(with_counter_extras(row, || {
            train_step(&mut net, &mut opt, &images, &labels, 0.01).unwrap();
        }));
    }

    // The same HERO step through the sharded data-parallel executor, with
    // the worker count taken from HERO_THREADS (1 when unset). verify.sh
    // runs this bench at 1 and 4 threads and diffs the two rows.
    let threads = threads_from_env().max(1);
    {
        let mut net = ModelKind::Resnet.build(model_config(preset), &mut StdRng::seed_from_u64(0));
        let mut ctx = ParallelCtx::new(&net, threads).unwrap();
        let mut opt = Optimizer::new(MethodKind::Hero.tuned());
        let row = time_op("step_HERO_parallel", budget, || {
            train_step_parallel(&mut ctx, &mut net, &mut opt, &images, &labels, 0.01).unwrap();
        });
        let row = with_counter_extras(row, || {
            train_step_parallel(&mut ctx, &mut net, &mut opt, &images, &labels, 0.01).unwrap();
        });
        rows.push(
            row.with_extra("threads", threads as f64)
                .with_extra("shards", ctx.shards() as f64),
        );
    }

    // Anchor at the workspace root so `cargo bench` (which runs with the
    // package dir as CWD) writes next to the `hero repro` outputs.
    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_step.json"
    ));
    write_json(out, &rows).expect("write results");
}
