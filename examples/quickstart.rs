//! Quickstart: train the ResNet20 stand-in with HERO on the CIFAR-10
//! preset, compare against SGD, and post-training-quantize both to 4 bits.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p hero-core --example quickstart
//! ```

use hero_core::experiment::{quant_sweep, MethodKind, Recipe, TrainedModel};
use hero_core::TrainConfig;
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_tensor::TensorError;

fn main() -> Result<(), TensorError> {
    // A small-but-real run: a few minutes on one CPU core.
    let preset = Preset::C10;
    let (train_set, test_set) = preset.load(1.0);
    let epochs = 40;
    println!(
        "training on {} ({} train / {} test samples), {epochs} epochs\n",
        preset.paper_name(),
        train_set.len(),
        test_set.len()
    );

    for method in [MethodKind::Hero, MethodKind::Sgd] {
        // Identical initialization for a fair comparison.
        let recipe = Recipe {
            preset,
            model: ModelKind::Resnet,
            init_seed: 42,
            config: TrainConfig::new(method.tuned(), epochs),
        };
        let (net, record, _) = recipe.train(&train_set, &test_set, "example", None)?;
        println!(
            "{:16}  train acc {:5.1}%  test acc {:5.1}%  (gap {:4.1}%)",
            method.paper_name(),
            100.0 * record.final_train_acc,
            100.0 * record.final_test_acc,
            100.0 * record.final_gap(),
        );

        // Post-training quantization, no finetuning (the paper's setting).
        let mut trained = TrainedModel {
            net,
            record,
            method,
        };
        let curve = quant_sweep(&mut trained, &test_set, &[3, 4, 6, 8])?;
        for (bits, acc) in &curve.points {
            println!("    {bits}-bit weights -> test acc {:5.1}%", 100.0 * acc);
        }
        println!();
    }
    println!("expect: HERO at or above SGD at full precision with a visibly smaller");
    println!("train-test gap. For the full quantization-robustness comparison (more");
    println!("epochs, all models, all precisions) run `hero repro <target>` from hero-bench.");
    Ok(())
}
