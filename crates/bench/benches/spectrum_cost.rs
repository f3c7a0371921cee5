//! Cost of one spectrum-observatory probe. Writes
//! `results/BENCH_spectrum.json` (override with `HERO_BENCH_OUT`).
//!
//! Three rows, from estimator to trainer-facing aggregate:
//!
//! * `slq_density_*` — the stochastic Lanczos quadrature density alone;
//! * `layer_traces_*` — the per-layer Hutchinson trace sweep alone;
//! * `probe_spectrum_*` — the full [`hero_core::probe_spectrum`] call the
//!   trainer takes every `spectrum_every` epochs, including parameter
//!   restore.
//!
//! Each row carries a `grad_evals` extra — the number of gradient
//! evaluations the operation spends, counting the base gradient each row
//! computes once — so the JSON documents the probe's cost model
//! (`slq_probes·steps + trace_probes·n_layers + 1`) next to its wall-clock
//! price.

use hero_bench::timing::{bench_out_path, default_budget, time_op, write_json};
use hero_core::experiment::model_config;
use hero_core::SpectrumOptions;
use hero_data::Preset;
use hero_hessian::{layer_traces, slq_density, GradOracle, SlqConfig};
use hero_nn::models::ModelKind;
use hero_optim::BatchOracle;
use hero_tensor::rng::StdRng;

const STEPS: usize = 6;
const PROBES: usize = 2;

fn main() {
    hero_obs::disable();
    let budget = default_budget();
    let mut rows = Vec::new();

    let preset = Preset::C10;
    let (train_set, _) = preset.load(0.2);
    let images = train_set.images.narrow(0, 16).unwrap();
    let labels = train_set.labels[..16].to_vec();
    let mut net = ModelKind::Resnet.build(model_config(preset), &mut StdRng::seed_from_u64(0));
    let params = net.params();
    let n_layers = params.len();

    let row = time_op("slq_density_resnet_b16", budget, || {
        let mut oracle = BatchOracle::new(&mut net, &images, &labels);
        let cfg = SlqConfig {
            steps: STEPS,
            probes: PROBES,
            seed: 7,
            ..SlqConfig::default()
        };
        let (_, base) = oracle.grad(&params).unwrap();
        std::hint::black_box(slq_density(&mut oracle, &params, &base, cfg).unwrap());
    })
    .with_extra("grad_evals", (1 + PROBES * STEPS) as f64);
    rows.push(row);

    let row = time_op("layer_traces_resnet_b16", budget, || {
        let mut oracle = BatchOracle::new(&mut net, &images, &labels);
        let (_, base) = oracle.grad(&params).unwrap();
        std::hint::black_box(layer_traces(&mut oracle, &params, &base, PROBES, 1e-3, 7).unwrap());
    })
    .with_extra("grad_evals", (1 + PROBES * n_layers) as f64);
    rows.push(row);

    net.set_params(&params).unwrap();
    let opts = SpectrumOptions {
        steps: STEPS,
        slq_probes: PROBES,
        trace_probes: PROBES,
        samples: 16,
        ..SpectrumOptions::default()
    };
    let row = time_op("probe_spectrum_resnet_b16", budget, || {
        std::hint::black_box(hero_core::probe_spectrum(&mut net, &train_set, 0, &opts).unwrap());
    })
    .with_extra(
        "grad_evals",
        (1 + PROBES * STEPS + PROBES * n_layers) as f64,
    );
    rows.push(row);

    let out = bench_out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_spectrum.json"
    ));
    write_json(out, &rows).expect("write results");
}
