//! The exact work of one post-training quantization sweep.
//!
//! `quant_sweep` records one frozen-BN probe tape for its soundness gate
//! (verification, certified bounds and base loss all come from it), then
//! per swept width one probe tape for the quantized loss shift and one
//! eval pass over the test set. Its GEMM calls and flops must be exactly
//! that sum, and are pinned per model on seeded C10 ResNet, MobileNet and
//! VGG: integers that host noise cannot move.
//!
//! Lives in its own integration-test binary because the counters are
//! process-global; unit tests elsewhere in the workspace must not add to
//! them mid-measurement.

use hero_core::experiment::{fig1_bits, model_config, quant_sweep, MethodKind, TrainedModel};
use hero_core::{probe_batch, probe_loss, TrainRecord};
use hero_data::Preset;
use hero_nn::evaluate_accuracy;
use hero_nn::models::ModelKind;
use hero_obs::counters::{GEMM_CALLS, GEMM_FLOPS};
use hero_tensor::rng::StdRng;

/// GEMM calls and flops that `f` counts.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 2]) {
    let (calls, flops) = (GEMM_CALLS.get(), GEMM_FLOPS.get());
    let out = f();
    (out, [GEMM_CALLS.get() - calls, GEMM_FLOPS.get() - flops])
}

#[test]
fn a_quant_sweep_records_one_gate_tape_and_one_tape_and_eval_per_width() {
    hero_obs::enable();
    let (_, test_set) = Preset::C10.load(0.25);
    let (images, labels) = probe_batch(&test_set, 64).unwrap();
    let bits = fig1_bits();
    let widths = bits.len() as u64;
    // `[GEMM calls, GEMM flops]` of one sweep.
    let pins = [
        (ModelKind::Resnet, [160, 214_819_072]),
        (ModelKind::Mobilenet, [192, 214_479_616]),
        (ModelKind::Vgg, [96, 731_867_136]),
    ];
    for (kind, pin) in pins {
        let mut net = kind.build(
            model_config(Preset::C10),
            &mut StdRng::seed_from_u64(0x5EE9),
        );
        let (_, tape) = counted(|| probe_loss(&mut net, &images, labels).unwrap());
        let (_, eval) =
            counted(|| evaluate_accuracy(&net, &test_set.images, &test_set.labels, 64).unwrap());
        let mut trained = TrainedModel {
            net,
            record: TrainRecord {
                method: "SGD".into(),
                epochs: Vec::new(),
                final_test_acc: 0.0,
                final_train_acc: 0.0,
                grad_evals: 0,
                spectra: Vec::new(),
            },
            method: MethodKind::Sgd,
        };
        let (curve, sweep) = counted(|| quant_sweep(&mut trained, &test_set, &bits).unwrap());
        assert_eq!(curve.points.len(), bits.len());
        for (m, what) in ["GEMM calls", "GEMM flops"].into_iter().enumerate() {
            let want = (1 + widths) * tape[m] + widths * eval[m];
            assert_eq!(
                sweep[m], want,
                "{kind:?}: {what} (tape {tape:?}, eval {eval:?})"
            );
        }
        assert_eq!(sweep, pin, "{kind:?}: pinned [GEMM calls, GEMM flops]");
    }
}
