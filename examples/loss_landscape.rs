//! Loss-landscape inspection (the paper's Fig. 3 and Theorem 3): scan the
//! 2-D loss surface around converged weights, probe random ℓ2/ℓ∞
//! perturbation robustness, and evaluate the computable Theorem 3 bounds.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p hero-core --example loss_landscape
//! ```

use hero_core::experiment::{landscape_scan, MethodKind, Recipe, TrainedModel};
use hero_core::TrainConfig;
use hero_data::Preset;
use hero_hessian::{lanczos_spectrum, BoundInputs};
use hero_landscape::{probe_robustness, PerturbNorm};
use hero_nn::models::ModelKind;
use hero_optim::BatchOracle;
use hero_tensor::rng::StdRng;
use hero_tensor::{global_norm_l1, global_norm_l2, TensorError};

fn main() -> Result<(), TensorError> {
    let preset = Preset::C10;
    let (train_set, test_set) = preset.load(0.5);
    let epochs = 25;

    for method in [MethodKind::Hero, MethodKind::Sgd] {
        let recipe = Recipe {
            preset,
            model: ModelKind::Resnet,
            init_seed: 11,
            config: TrainConfig::new(method.tuned(), epochs),
        };
        let (net, record, _) = recipe.train(&train_set, &test_set, "example", None)?;
        println!(
            "== {} (test acc {:.1}%) ==",
            method.paper_name(),
            100.0 * record.final_test_acc
        );
        let mut trained = TrainedModel {
            net,
            record,
            method,
        };

        // (1) Fig. 3-style contour along shared filter-normalized directions.
        let scan = landscape_scan(&mut trained, &train_set, 1.0, 13, 99)?;
        println!(
            "contour: low-loss fraction {:.3}, flat radius {:.3}",
            scan.low_loss_fraction(0.1),
            scan.flat_radius(0.1)
        );
        println!("{}", scan.ascii_contour(0.1));

        // (2) Direct random-perturbation robustness (Theorems 1 and 2).
        let params = trained.net.params();
        let (images, labels) = hero_core::probe_batch(&train_set, 128)?;
        let net = &mut trained.net;
        let mut loss_oracle = |ps: &[hero_tensor::Tensor]| -> hero_tensor::Result<f32> {
            net.set_params(ps)?;
            hero_nn::eval_loss(net, &images, labels)
        };
        let mut probe_rng = StdRng::seed_from_u64(5);
        for (norm, radius) in [(PerturbNorm::L2, 0.5), (PerturbNorm::Linf, 0.02)] {
            let probe =
                probe_robustness(&mut loss_oracle, &params, norm, radius, 8, &mut probe_rng)?;
            println!(
                "random {norm:?} perturbation r={radius}: mean loss increase {:+.4}",
                probe.mean_increase()
            );
        }
        trained.net.set_params(&params)?;

        // (3) Theorem 3 bounds from measured gradient/curvature.
        let mut grad_oracle = BatchOracle::new(&mut trained.net, &images, labels);
        let (_, grads) = hero_hessian::GradOracle::grad(&mut grad_oracle, &params)?;
        let mut eig_rng = StdRng::seed_from_u64(17);
        let eig = lanczos_spectrum(&mut grad_oracle, &params, 10, 1e-3, &mut eig_rng)?;
        let nonzeros: usize = params.iter().map(|p| p.norm_l0()).sum();
        let bounds = BoundInputs {
            grad_l2: global_norm_l2(&grads),
            grad_l1: global_norm_l1(&grads),
            eigenvalue: eig.lambda_max(),
            nonzeros,
            tolerance: 0.1,
        };
        println!(
            "theorem 3: λ_max≈{:.2}; ‖δ*‖₂ ≥ {:.4}; ‖δ*‖∞ ≥ {:.6} (safe Δ ≤ {:.6})\n",
            eig.lambda_max(),
            bounds.l2_bound(),
            bounds.linf_bound(),
            bounds.max_safe_bin_width()
        );
    }
    println!("expect: HERO shows a wider low-loss region, smaller loss increases under");
    println!("random perturbation, a smaller λ_max and therefore larger Theorem 3 bounds.");
    Ok(())
}
