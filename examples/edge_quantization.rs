//! Edge-deployment scenario: a model must survive *on-the-fly* precision
//! changes (the paper's §1 motivation — power/memory availability on edge
//! devices changes at run time, and retraining per precision is not an
//! option).
//!
//! This example trains the MobileNetV2 stand-in once per method and then
//! walks it through a simulated deployment schedule of precision switches,
//! reporting accuracy at every switch plus the Theorem 2 diagnostics
//! (worst ℓ∞ weight perturbation vs the bin width Δ).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p hero-core --example edge_quantization
//! ```

use hero_core::experiment::{eval_quantized, MethodKind, Recipe};
use hero_core::{NoiseBits, TrainConfig};
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_tensor::TensorError;

fn main() -> Result<(), TensorError> {
    let preset = Preset::C10;
    let (train_set, test_set) = preset.load(0.5);
    let epochs = 25;

    // A day in the life of an edge device: precision follows the power budget.
    let schedule = [
        ("battery full", 8u8),
        ("power saver", 4),
        ("thermal throttling", 3),
        ("recovered", 6),
    ];

    for method in [MethodKind::Hero, MethodKind::GradL1, MethodKind::Sgd] {
        let recipe = Recipe {
            preset,
            model: ModelKind::Mobilenet,
            init_seed: 7,
            config: TrainConfig::new(method.tuned(), epochs),
        };
        let (mut net, record, _) = recipe.train(&train_set, &test_set, "example", None)?;
        println!(
            "{} (full-precision test acc {:.1}%):",
            method.paper_name(),
            100.0 * record.final_test_acc
        );
        for (phase, bits) in schedule {
            // Switching precision re-quantizes the *stored* full-precision
            // weights rather than stacking quantizations.
            let (acc, report) = eval_quantized(&mut net, &NoiseBits::Uniform(bits), &test_set)?;
            println!(
                "  {phase:18} -> {bits}-bit: acc {:5.1}%  (‖δ‖∞ {:.4} ≤ Δ/2 {:.4})",
                100.0 * acc,
                report.worst_linf,
                report.max_bin_width / 2.0
            );
        }
        println!();
    }
    println!("expect: HERO holds accuracy through the 3-4 bit phases where SGD collapses.");
    Ok(())
}
