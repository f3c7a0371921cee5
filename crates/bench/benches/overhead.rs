//! Cost of the observability layer itself. Writes
//! `results/BENCH_overhead.json` (override with `HERO_BENCH_OUT`).
//!
//! Three tiers:
//!
//! * micro rows — one span site and one counter site with tracing
//!   disabled (the steady-state cost every instrumented call pays), plus
//!   the enabled span cost for scale;
//! * a macro row — one full HERO training step with tracing disabled.
//!
//! `scripts/verify.sh` builds this bench twice, once by default and once
//! with `--features obs-off`, runs the two binaries alternately in pairs,
//! and requires the median of the pairs' macro-row ratios to stay within
//! 3%: proof that the disabled instrumentation is free. The `obs_off`
//! extra marks which configuration produced the file.

use hero_bench::timing::{bench_out_path, default_budget, time_op, write_json};
use hero_core::experiment::{model_config, MethodKind};
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_optim::{train_step, Optimizer};
use hero_tensor::rng::StdRng;

fn main() {
    hero_obs::disable();
    let budget = default_budget();
    let micro_budget = budget / 10;
    let mut rows = Vec::new();

    rows.push(time_op("span_site_disabled", micro_budget, || {
        let _ = std::hint::black_box(hero_obs::span("bench_probe"));
    }));
    rows.push(time_op("counter_site_disabled", micro_budget, || {
        hero_obs::counters::GEMM_CALLS.incr();
    }));
    if !cfg!(feature = "obs-off") {
        hero_obs::enable();
        rows.push(time_op("span_site_enabled", micro_budget, || {
            let _ = std::hint::black_box(hero_obs::span("bench_probe"));
        }));
        hero_obs::disable();
        hero_obs::span::reset();
    }

    // Macro: one full HERO training step, batch 16, tracing disabled —
    // the row the verify-script overhead gate compares across builds.
    let preset = Preset::C10;
    let (train_set, _) = preset.load(0.2);
    let images = train_set.images.narrow(0, 16).unwrap();
    let labels = train_set.labels[..16].to_vec();
    let mut net = ModelKind::Resnet.build(model_config(preset), &mut StdRng::seed_from_u64(0));
    let mut opt = Optimizer::new(MethodKind::Hero.tuned());
    let row = time_op("overhead_step_HERO", budget, || {
        train_step(&mut net, &mut opt, &images, &labels, 0.01).unwrap();
    })
    .with_extra("obs_off", if cfg!(feature = "obs-off") { 1.0 } else { 0.0 });
    rows.push(row);

    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_overhead.json"
    ));
    write_json(out, &rows).expect("write results");
}
