//! The divergence guard: a run whose loss goes non-finite stops with a
//! typed error at the offending step — on the serial and the sharded
//! executor alike — emits a `train_diverged` event, and never yields a
//! model artifact.

use hero_core::{train_to_artifact, ModelSpec, RunMeta, TrainConfig};
use hero_data::{SynthGenerator, SynthSpec};
use hero_nn::models::ModelConfig;
use hero_optim::Method;
use hero_tensor::TensorError;

/// Trains a tiny MLP under `config` through the artifact pipeline.
fn tiny_run(config: TrainConfig) -> Result<(), TensorError> {
    let spec = SynthSpec {
        classes: 4,
        hw: 4,
        noise_std: 0.2,
        ..SynthSpec::default()
    };
    let (train_set, test_set) = SynthGenerator::new(spec).train_test(48, 24);
    let model_cfg = ModelConfig {
        classes: 4,
        in_channels: 3,
        input_hw: 4,
        width: 4,
    };
    let meta = RunMeta {
        model: ModelSpec::Mlp(vec![20]),
        model_cfg,
        config,
        git_rev: "test".to_string(),
        preflight_hash: None,
    };
    let mut net = meta.model.build(model_cfg);
    train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).map(|_| ())
}

/// SGD at an absurd learning rate on the serial (`threads = 0`) or
/// sharded executor.
fn diverging_run(threads: usize) -> Result<(), TensorError> {
    let config = TrainConfig::new(Method::Sgd, 4)
        .with_batch_size(16)
        .with_lr(1e30)
        .with_seed(9)
        .with_threads(threads);
    tiny_run(config)
}

fn assert_diverged(result: Result<(), TensorError>, path: &str) {
    match result {
        Err(TensorError::Diverged { epoch, step, loss }) => {
            assert!(!loss.is_finite(), "{path}: reported loss {loss} is finite");
            // 48 samples / batch 16 = 3 steps per epoch; the first step
            // runs at the initial weights, so its loss is finite.
            assert!(step >= 1, "{path}: diverged at step {step}");
            assert_eq!(epoch, step / 3, "{path}: epoch {epoch} vs step {step}");
        }
        Err(other) => panic!("{path}: expected Diverged, got {other}"),
        Ok(()) => panic!("{path}: a diverging run returned an artifact"),
    }
}

#[test]
fn diverging_runs_fail_with_a_typed_error_and_an_event() {
    let dir = std::env::temp_dir().join(format!("hero_diverge_{}", std::process::id()));
    hero_obs::init_run(&dir, "diverge").expect("trace dir");
    let serial = diverging_run(0);
    let sharded = diverging_run(2);
    let artifacts = hero_obs::finish().expect("the trace run was active");
    let trace = std::fs::read_to_string(artifacts.trace).expect("trace file");
    std::fs::remove_dir_all(&dir).ok();

    assert_diverged(serial, "serial");
    assert_diverged(sharded, "sharded");
    let events = trace
        .lines()
        .filter(|l| l.contains("\"ev\": \"train_diverged\""))
        .count();
    assert_eq!(events, 2, "one train_diverged event per run");
}

#[test]
fn non_finite_weights_never_become_an_artifact() {
    // One full-batch step at an infinite learning rate: its loss is
    // computed at the finite initial weights, so only the artifact check
    // sees the update that left them non-finite.
    let config = TrainConfig::new(Method::Sgd, 1)
        .with_batch_size(48)
        .with_lr(f32::INFINITY);
    match tiny_run(config) {
        Err(e) => assert!(e.to_string().contains("non-finite"), "{e}"),
        Ok(()) => panic!("an artifact with non-finite weights was returned"),
    }
}
