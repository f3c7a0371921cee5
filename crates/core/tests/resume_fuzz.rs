//! Seeded fuzzing of the RESUME section's decoder (`artifact_io`, which
//! owns the section's schema; the container's cases are in
//! `crates/artifact/tests/fuzz.rs`): truncation anywhere inside the
//! section and lying momentum, epoch-row, spectrum and layer-row counts
//! must come back as a typed error naming the section, never a panic and
//! never an allocation the section's bytes could not justify.
//!
//! The generator is SplitMix64, so every run is deterministic and a
//! failure reproduces from the case number alone.

use hero_artifact::Artifact;
use hero_core::{
    build_artifact, load_artifact, trainer_state_from_artifact, EpochMetrics, LayerTrace,
    ModelSpec, RunMeta, SpectrumProbe, TrainConfig, TrainRecord, TrainerState,
};
use hero_hessian::Estimate;
use hero_nn::models::ModelConfig;
use hero_optim::Method;
use hero_tensor::{Tensor, TensorError};

const TRUNCATION_CASES: u64 = 200;
const LENGTH_LIE_CASES: u64 = 100;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f32 {
        self.below(1 << 20) as f32 / (1 << 20) as f32
    }
}

fn est(mean: f32, samples: usize) -> Estimate {
    Estimate {
        mean,
        // Single-sample estimates carry a NaN standard error.
        std_error: if samples > 1 { 0.1 } else { f32::NAN },
        samples,
    }
}

/// A checkpoint artifact of a small MLP whose RESUME section holds
/// momentum for every parameter, one to four epoch rows (unevaluated and
/// unprobed ones NaN) and one spectrum probe with a row per parameter.
fn sample(rng: &mut Rng) -> Artifact {
    let model_cfg = ModelConfig {
        classes: 3,
        in_channels: 1,
        input_hw: 2,
        width: 4,
    };
    let meta = RunMeta {
        model: ModelSpec::Mlp(vec![2 + rng.below(6) as usize]),
        model_cfg,
        config: TrainConfig::new(Method::Sgd, 5).with_threads(0),
        git_rev: "fuzz".to_string(),
        preflight_hash: None,
    };
    let net = meta.model.build(model_cfg);
    let momentum: Vec<Tensor> = net.params();
    let epochs = (0..1 + rng.below(4) as usize)
        .map(|epoch| EpochMetrics {
            epoch,
            train_loss: rng.unit(),
            train_acc: rng.unit(),
            test_acc: if epoch % 2 == 0 { rng.unit() } else { f32::NAN },
            hessian_norm: if rng.below(2) == 0 {
                rng.unit()
            } else {
                f32::NAN
            },
            regularizer: rng.unit(),
        })
        .collect();
    let layers = (net.param_infos().into_iter())
        .map(|info| LayerTrace {
            quantizable: info.kind.is_quantizable(),
            name: info.name,
            trace: est(rng.unit(), 1 + rng.below(2) as usize),
        })
        .collect();
    let state = TrainerState {
        next_epoch: 1 + rng.below(4) as usize,
        step: rng.below(1000) as usize,
        loader_rng: rng.next(),
        aug_rng: rng.next(),
        momentum,
        record: TrainRecord {
            method: "SGD".to_string(),
            epochs,
            final_test_acc: rng.unit(),
            final_train_acc: rng.unit(),
            grad_evals: rng.below(1000) as usize,
            spectra: vec![SpectrumProbe {
                epoch: 0,
                lambda_max: est(2.0, 1),
                lambda_min: est(-0.1, 2),
                mean_eigenvalue: est(0.3, 2),
                second_moment: est(1.0, 2),
                layers,
            }],
        },
    };
    build_artifact(&net, &meta, Some(&state))
}

/// Byte offsets, inside `art`'s RESUME section, of its four counts:
/// momentum tensors, epoch rows, spectrum probes and the first probe's
/// layer rows. Each is checked against the count it should hold.
fn count_offsets(art: &Artifact) -> [usize; 4] {
    let state = trainer_state_from_artifact(art).unwrap().unwrap();
    let rec = &state.record;
    let momentum = 5 * 8;
    let tensors: usize = (art.tensors.iter())
        .map(|t| 4 + t.name.len() + 2 + 8 * t.dims.len() + 8 + 4 * t.data.len())
        .sum();
    let epochs = momentum + 4 + tensors;
    let spectra = epochs + 4 + 28 * rec.epochs.len() + 8;
    let layers = spectra + 4 + 8 + 4 * 16;
    let offsets = [momentum, epochs, spectra, layers];
    let counts = [
        state.momentum.len(),
        rec.epochs.len(),
        rec.spectra.len(),
        rec.spectra[0].layers.len(),
    ];
    let bytes = art.resume.as_ref().unwrap();
    for (at, count) in offsets.iter().zip(counts) {
        assert_eq!(
            bytes[*at..at + 4],
            (count as u32).to_le_bytes(),
            "count at {at}"
        );
    }
    offsets
}

/// Decodes `bytes` as `art`'s RESUME section through a container round
/// trip, as a load does.
fn decode(art: &Artifact, bytes: Vec<u8>) -> hero_tensor::Result<Option<TrainerState>> {
    let mut art = art.clone();
    art.resume = Some(bytes);
    let reloaded = Artifact::from_bytes(&art.to_bytes()).expect("the container is intact");
    trainer_state_from_artifact(&reloaded)
}

/// Asserts a typed decode error of the RESUME section.
fn assert_typed(res: hero_tensor::Result<Option<TrainerState>>, case: u64, what: &str) {
    match res {
        Err(TensorError::InvalidArgument(msg))
            if msg.starts_with("RESUME section: ")
                && (msg.contains("truncated") || msg.contains("malformed")) => {}
        other => panic!("case {case}: {what} gave {other:?}"),
    }
}

#[test]
fn truncation_inside_resume_is_typed() {
    for case in 0..TRUNCATION_CASES {
        let mut rng = Rng(0xF00D ^ case);
        let art = sample(&mut rng);
        let bytes = art.resume.clone().unwrap();
        let cut = rng.below(bytes.len() as u64) as usize;
        let what = format!("cut at {cut}/{}", bytes.len());
        assert_typed(decode(&art, bytes[..cut].to_vec()), case, &what);
    }
}

#[test]
fn length_lies_in_resume_counts_fail_without_huge_allocation() {
    // A lying count must be bounded by the bytes remaining before anything
    // is reserved: a claim of ~u32::MAX tensors or rows comes back as a
    // typed error at once instead of a multi-gigabyte Vec (an OOM would
    // abort the test process — surviving every case is the assertion).
    let fields = ["momentum", "epoch-row", "spectrum", "layer-row"];
    for case in 0..LENGTH_LIE_CASES {
        let mut rng = Rng(0x11E5 ^ case);
        let art = sample(&mut rng);
        let field = rng.below(4) as usize;
        let at = count_offsets(&art)[field];
        let lie: u64 = match rng.below(3) {
            0 => u64::MAX,
            1 => u64::MAX / 2,
            _ => 0x0001_0000_0000 + rng.below(1 << 30),
        };
        let mut bytes = art.resume.clone().unwrap();
        bytes[at..at + 4].copy_from_slice(&(lie as u32).to_le_bytes());
        let what = format!("{} count {}", fields[field], lie as u32);
        assert_typed(decode(&art, bytes), case, &what);
    }
}

#[test]
fn trailing_bytes_after_the_trainer_state_are_rejected() {
    let art = sample(&mut Rng(0x7A11));
    let mut bytes = art.resume.clone().unwrap();
    bytes.push(0);
    assert_typed(decode(&art, bytes), 0, "a trailing byte");
}

#[test]
fn a_malformed_resume_section_fails_the_load() {
    let mut art = sample(&mut Rng(0x10AD));
    let bytes = art.resume.as_mut().unwrap();
    bytes.truncate(bytes.len() - 1);
    let path = std::env::temp_dir().join(format!("hero_resume_fuzz_{}.ha", std::process::id()));
    art.save(&path).unwrap();
    let res = load_artifact(&path).map(|(_, state)| state);
    std::fs::remove_file(&path).ok();
    assert_typed(res, 0, "loading a truncated RESUME section");
}
