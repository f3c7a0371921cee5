//! One bench per paper table/figure, each timing a scaled-down cell of the
//! corresponding experiment (the full-scale reproductions are the `hero
//! repro` targets; these benches keep the per-experiment machinery measured and
//! exercised under `cargo bench`).

use hero_bench::timing::{default_budget, time_op};
use hero_core::experiment::{landscape_scan, quant_sweep, train_cell, train_on, MethodKind, Scale};
use hero_data::{inject_symmetric_noise, Preset};
use hero_nn::models::ModelKind;

/// The miniature scale used by the per-table benches.
fn bench_scale() -> Scale {
    Scale {
        data: 0.12,
        epochs_small: 2,
        epochs_large: 1,
    }
}

fn main() {
    let budget = default_budget();

    time_op("table1/train_cell_resnet_c10_hero", budget, || {
        std::hint::black_box(
            train_cell(
                Preset::C10,
                ModelKind::Resnet,
                MethodKind::Hero,
                bench_scale(),
                0,
            )
            .unwrap(),
        );
    });

    let scale = bench_scale();
    let (clean, test) = Preset::C10.load(scale.data);
    let mut noisy = clean.clone();
    inject_symmetric_noise(&mut noisy, 0.4, 7);
    time_op("table2/noisy_label_cell_resnet_40pct", budget, || {
        std::hint::black_box(
            train_on(
                &noisy,
                &test,
                Preset::C10,
                ModelKind::Resnet,
                MethodKind::Hero,
                scale,
                0,
            )
            .unwrap(),
        );
    });

    let mut trained =
        train_cell(Preset::C10, ModelKind::Mobilenet, MethodKind::Sgd, scale, 0).unwrap();
    time_op("fig1_table3/quant_sweep_mobilenet_5bits", budget, || {
        std::hint::black_box(quant_sweep(&mut trained, &test, &[3, 4, 5, 6, 8]).unwrap());
    });

    let mut trained =
        train_cell(Preset::C10, ModelKind::Resnet, MethodKind::Sgd, scale, 0).unwrap();
    let (train_set, _) = Preset::C10.load(scale.data);
    let config = hero_core::TrainConfig::new(MethodKind::Sgd.tuned(), 1);
    time_op("fig2/hessian_norm_probe", budget, || {
        std::hint::black_box(
            hero_core::probe_hessian_norm(&mut trained.net, &train_set, &config).unwrap(),
        );
    });
    time_op("fig3/landscape_scan_7x7", budget, || {
        std::hint::black_box(landscape_scan(&mut trained, &train_set, 1.0, 7, 3).unwrap());
    });
}
