//! Input-corruption robustness: does the flat minimum HERO finds also
//! tolerate harder *inputs* (the paper's "data gathered in the wild"
//! motivation), not just perturbed weights?
//!
//! Trains HERO and SGD models from the same initialization, then evaluates
//! both on progressively corrupted copies of the test set and reports the
//! scalar sharpness metrics alongside.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p hero-core --example corruption_robustness
//! ```

use hero_core::experiment::{MethodKind, Recipe};
use hero_core::TrainConfig;
use hero_data::{Corruption, Preset};
use hero_landscape::epsilon_sharpness;
use hero_nn::evaluate_accuracy;
use hero_nn::models::ModelKind;
use hero_tensor::rng::StdRng;
use hero_tensor::TensorError;

fn main() -> Result<(), TensorError> {
    let preset = Preset::C10;
    let (train_set, test_set) = preset.load(0.5);
    let epochs = 25;

    let severities = [0.0f32, 0.2, 0.4, 0.6];
    println!("test-set Gaussian-noise severity sweep: {severities:?}\n");

    for method in [MethodKind::Hero, MethodKind::Sgd] {
        let recipe = Recipe {
            preset,
            model: ModelKind::Resnet,
            init_seed: 123,
            config: TrainConfig::new(method.tuned(), epochs),
        };
        let (mut net, record, _) = recipe.train(&train_set, &test_set, "example", None)?;
        print!(
            "{:8} (clean test {:5.1}%):",
            method.paper_name(),
            100.0 * record.final_test_acc
        );
        for &std in &severities {
            let corrupted = Corruption::GaussianNoise(std).apply(&test_set, 9);
            let acc = evaluate_accuracy(&net, &corrupted.images, &corrupted.labels, 64)?;
            print!("  σ={std}: {:5.1}%", 100.0 * acc);
        }
        println!();

        // Scalar sharpness at the converged weights (Keskar ε-sharpness on
        // a training subsample).
        let (images, labels) = hero_core::probe_batch(&train_set, 128)?;
        let params = net.params();
        let netref = &mut net;
        let mut oracle = |ps: &[hero_tensor::Tensor]| -> hero_tensor::Result<f32> {
            netref.set_params(ps)?;
            hero_nn::eval_loss(netref, &images, labels)
        };
        let sharp = epsilon_sharpness(
            &mut oracle,
            &params,
            0.02,
            16,
            &mut StdRng::seed_from_u64(5),
        )?;
        println!("         ε-sharpness (Keskar, ε=0.02): {sharp:.3}\n");
        net.set_params(&params)?;
    }
    println!("expect: HERO's accuracy decays more slowly with severity, and its");
    println!("ε-sharpness is markedly smaller than SGD's.");
    Ok(())
}
