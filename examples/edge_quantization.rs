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

use hero_core::experiment::{eval_quantized, model_config, MethodKind};
use hero_core::{train, NoiseBits, TrainConfig};
use hero_data::Preset;
use hero_nn::models::ModelKind;
use hero_tensor::rng::StdRng;
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
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = ModelKind::Mobilenet.build(model_config(preset), &mut rng);
        let record = train(
            &mut net,
            &train_set,
            &test_set,
            &TrainConfig::new(method.tuned(), epochs),
        )?;
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
