//! Noisy-label training scenario (the paper's §5.2): train on a dataset
//! whose labels are partially corrupted by symmetric noise and measure
//! what survives on a clean test set.
//!
//! Uses the memorization regime (identifiable samples, small batches, long
//! schedule) where the flat-vs-sharp distinction matters — see
//! EXPERIMENTS.md.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p hero-core --example noisy_labels
//! ```

use hero_core::experiment::{MethodKind, Recipe};
use hero_core::TrainConfig;
use hero_data::{inject_symmetric_noise, label_disagreement, Preset, SynthGenerator, SynthSpec};
use hero_nn::models::ModelKind;
use hero_tensor::TensorError;

fn main() -> Result<(), TensorError> {
    let preset = Preset::C10;
    // Give every sample a private texture so wrong labels are memorizable,
    // as in real photographs.
    let spec = SynthSpec {
        sample_texture: 0.6,
        ..preset.spec()
    };
    let generator = SynthGenerator::new(spec);
    let (clean_train, test_set) = generator.train_test(200, 400);

    let ratio = 0.6;
    let mut noisy = clean_train.clone();
    let corrupted = inject_symmetric_noise(&mut noisy, ratio, 0xBAD);
    println!(
        "corrupted {} of {} labels (observed disagreement {:.1}%)\n",
        corrupted.len(),
        noisy.len(),
        100.0 * label_disagreement(&clean_train.labels, &noisy.labels)
    );

    for method in [MethodKind::Hero, MethodKind::Sgd] {
        let recipe = Recipe {
            preset,
            model: ModelKind::Resnet,
            init_seed: 3,
            config: TrainConfig::new(method.tuned(), 80).with_batch_size(8),
        };
        let (_, record, _) = recipe.train(&noisy, &test_set, "example", None)?;
        println!(
            "{:5}  fit of (noisy) train set {:5.1}%   clean test acc {:5.1}%",
            method.paper_name(),
            100.0 * record.final_train_acc,
            100.0 * record.final_test_acc,
        );
    }
    println!("\nexpect: SGD fits more of the corrupted labels (memorization) yet");
    println!("transfers less to the clean test set than HERO's flat solution.");
    Ok(())
}
