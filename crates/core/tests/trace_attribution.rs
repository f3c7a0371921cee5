//! End-to-end span-attribution check: with the tracer enabled, a short
//! training run must attribute at least 90% of `train_step` wall-clock to
//! named child phases, and the phase tree must contain every span the
//! training loop is instrumented with.
//!
//! Lives in its own integration-test binary because the tracer state is
//! process-global; unit tests elsewhere in the workspace must not see the
//! spans this run records.

use hero_core::experiment::{model_config, MethodKind};
use hero_core::{train, TrainConfig};
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_obs::SummaryRow;
use hero_tensor::rng::StdRng;

/// Fraction of wall-clock time inside spans named `name` that is covered
/// by *named child spans*, aggregated over every occurrence of `name` in
/// the tree (any path); `NaN` when the span never ran.
fn child_coverage(rows: &[SummaryRow], name: &str) -> f64 {
    let mut own = 0u64;
    let mut covered = 0u64;
    for r in rows.iter().filter(|r| r.name == name) {
        own += r.total_ns;
        let prefix = format!("{}/", r.path);
        covered += rows
            .iter()
            .filter(|c| c.depth == r.depth + 1 && c.path.starts_with(&prefix))
            .map(|c| c.total_ns)
            .sum::<u64>();
    }
    if own == 0 {
        f64::NAN
    } else {
        covered as f64 / own as f64
    }
}

fn row(path: &str, depth: usize, total_ns: u64, parent_total_ns: u64) -> SummaryRow {
    SummaryRow {
        path: path.to_string(),
        name: path.rsplit('/').next().unwrap_or(path).to_string(),
        depth,
        calls: 1,
        self_ns: total_ns / 2,
        total_ns,
        parent_total_ns,
    }
}

#[test]
fn coverage_sums_direct_children_only() {
    let rows = vec![
        row("train_step", 0, 100, 0),
        row("train_step/forward", 1, 40, 100),
        row("train_step/hvp", 1, 50, 100),
        row("train_step/hvp/forward", 2, 45, 50),
    ];
    let c = child_coverage(&rows, "train_step");
    assert!((c - 0.9).abs() < 1e-9, "coverage {c}");
    // The nested forward does not double count.
    assert!(child_coverage(&rows, "hvp") > 0.89);
    assert!(child_coverage(&rows, "absent").is_nan());
}

#[test]
fn named_phases_cover_ninety_percent_of_train_step() {
    hero_obs::enable();
    hero_obs::span::reset();
    let (train_set, test_set) = Preset::C10.load(0.1);
    let mut net = ModelKind::Resnet.build(model_config(Preset::C10), &mut StdRng::seed_from_u64(0));
    let config = TrainConfig::new(MethodKind::Hero.tuned(), 1).with_seed(0);
    train(&mut net, &train_set, &test_set, &config).expect("training");
    hero_obs::disable();

    let rows = hero_obs::summary_rows();
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    for expected in [
        "epoch",
        "train_step",
        "sync",
        "forward",
        "backward",
        "perturb",
        "hvp",
        "apply",
        "eval",
    ] {
        assert!(names.contains(&expected), "missing span `{expected}`");
    }

    let coverage = child_coverage(&rows, "train_step");
    assert!(
        coverage >= 0.9,
        "named child spans cover only {:.1}% of train_step wall-clock",
        100.0 * coverage
    );
}
