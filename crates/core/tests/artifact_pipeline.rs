//! The model-artifact regression suite (DESIGN.md §16): checkpoint/resume
//! bitwise equality, save→load→save byte identity, loaded-artifact
//! inference equivalence, HERO_THREADS invariance of saved bytes,
//! quantize-from-artifact exactness, and the committed golden artifact's
//! byte pin.

use hero_core::experiment::{quant_sweep, MethodKind, TrainedModel};
use hero_core::{
    describe_artifact, golden_recipe, load_artifact, network_from_artifact, record_from_artifact,
    resume_from_artifact, save_artifact, train_to_artifact, ModelSpec, RunMeta, TrainConfig,
    TrainRecord,
};
use hero_data::{Dataset, SynthGenerator, SynthSpec};
use hero_nn::models::ModelConfig;
use hero_nn::Network;
use hero_optim::Method;
use std::path::PathBuf;

fn setup() -> (Dataset, Dataset) {
    let spec = SynthSpec {
        classes: 4,
        hw: 4,
        noise_std: 0.2,
        ..SynthSpec::default()
    };
    SynthGenerator::new(spec).train_test(48, 24)
}

fn run_meta(method: Method, threads: usize, epochs: usize) -> RunMeta {
    let model_cfg = ModelConfig {
        classes: 4,
        in_channels: 3,
        input_hw: 4,
        width: 4,
    };
    RunMeta {
        model: ModelSpec::Mlp(vec![20]),
        model_cfg,
        config: TrainConfig::new(method, epochs)
            .with_batch_size(16)
            .with_lr(0.05)
            .with_seed(9)
            .with_threads(threads),
        git_rev: "test".to_string(),
        preflight_hash: None,
    }
}

fn param_bits(net: &Network) -> Vec<u32> {
    net.params()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Bit-exact fingerprint of a record: every float via `to_bits` so NaN
/// placeholders compare equal too.
fn record_bits(rec: &TrainRecord) -> Vec<u64> {
    let mut out = vec![rec.grad_evals as u64, rec.epochs.len() as u64];
    out.push(u64::from(rec.final_train_acc.to_bits()));
    out.push(u64::from(rec.final_test_acc.to_bits()));
    for e in &rec.epochs {
        out.push(e.epoch as u64);
        for v in [
            e.train_loss,
            e.train_acc,
            e.test_acc,
            e.hessian_norm,
            e.regularizer,
        ] {
            out.push(u64::from(v.to_bits()));
        }
    }
    for s in &rec.spectra {
        out.push(s.epoch as u64);
        for est in [
            &s.lambda_max,
            &s.lambda_min,
            &s.mean_eigenvalue,
            &s.second_moment,
        ] {
            out.push(u64::from(est.mean.to_bits()));
            out.push(u64::from(est.std_error.to_bits()));
            out.push(est.samples as u64);
        }
        for l in &s.layers {
            out.push(u64::from(l.quantizable));
            out.push(u64::from(l.trace.mean.to_bits()));
            out.push(u64::from(l.trace.std_error.to_bits()));
            out.push(l.trace.samples as u64);
        }
    }
    out
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hero_artifact_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

// --- checkpoint / resume (satellite: interrupt at epoch k, resume) --------

/// `probe_every` > 0 sets both the ‖Hz‖ and the spectrum cadence, so the
/// history carries spectrum rows and NaN ‖Hz‖ placeholders through the
/// checkpoint.
fn checkpoint_resume_case(method: Method, threads: usize, probe_every: usize, tag: &str) {
    let (train_set, test_set) = setup();
    let mut meta = run_meta(method, threads, 5);
    meta.config.probe_every = probe_every;
    meta.config.spectrum_every = probe_every;

    // Uninterrupted reference run.
    let mut ref_net = meta.model.build(meta.model_cfg);
    let (ref_record, ref_art) =
        train_to_artifact(&mut ref_net, &train_set, &test_set, &meta, 0, None).unwrap();

    // Interrupted run: checkpoint every 2 epochs, stop after the one at
    // epoch 2 (next_epoch = 2 means epochs 0..2 ran), resume to the end.
    let ckpt_path = temp_path(&format!("ckpt_{tag}.ha"));
    let mut net = meta.model.build(meta.model_cfg);
    let (_, _) =
        train_to_artifact(&mut net, &train_set, &test_set, &meta, 2, Some(&ckpt_path)).unwrap();
    let (ckpt, state) = load_artifact(&ckpt_path).unwrap();
    let state = state.expect("checkpoint has RESUME section");
    assert!(
        state.next_epoch < 5,
        "{tag}: checkpoint should be mid-run, next_epoch={}",
        state.next_epoch
    );
    if probe_every > 0 {
        let epochs = &state.record.epochs;
        assert!(
            !state.record.spectra.is_empty()
                && epochs.iter().any(|e| e.hessian_norm.is_nan())
                && epochs.iter().any(|e| e.hessian_norm.is_finite()),
            "{tag}: the checkpoint should carry spectra and probed and unprobed epochs"
        );
    }
    let (resumed_record, resumed_art, resumed_net) =
        resume_from_artifact(&ckpt, Some(state), &train_set, &test_set, 0, None).unwrap();

    assert_eq!(
        param_bits(&resumed_net),
        param_bits(&ref_net),
        "{tag}: resumed weights diverge from the uninterrupted run"
    );
    assert_eq!(
        record_bits(&resumed_record),
        record_bits(&ref_record),
        "{tag}: resumed TrainRecord diverges from the uninterrupted run"
    );
    assert_eq!(
        resumed_art.to_bytes(),
        ref_art.to_bytes(),
        "{tag}: resumed final artifact bytes diverge"
    );
    std::fs::remove_file(&ckpt_path).ok();
}

#[test]
fn checkpoint_resume_is_bitwise_exact_sgd_serial() {
    checkpoint_resume_case(Method::Sgd, 0, 0, "sgd_serial");
}

#[test]
fn checkpoint_resume_is_bitwise_exact_sgd_threads4() {
    checkpoint_resume_case(Method::Sgd, 4, 0, "sgd_t4");
}

#[test]
fn checkpoint_resume_is_bitwise_exact_hero_serial() {
    checkpoint_resume_case(
        Method::Hero {
            h: 0.05,
            gamma: 0.1,
        },
        0,
        0,
        "hero_serial",
    );
}

#[test]
fn checkpoint_resume_is_bitwise_exact_hero_threads4() {
    checkpoint_resume_case(
        Method::Hero {
            h: 0.05,
            gamma: 0.1,
        },
        4,
        0,
        "hero_t4",
    );
}

#[test]
fn checkpoint_resume_is_bitwise_exact_hero_probed() {
    checkpoint_resume_case(
        Method::Hero {
            h: 0.05,
            gamma: 0.1,
        },
        0,
        2,
        "hero_probed",
    );
}

#[test]
fn a_checkpoint_the_cadence_never_writes_is_refused() {
    use hero_tensor::TensorError;

    let (train_set, test_set) = setup();
    let ckpt_path = temp_path("never_written.ha");
    std::fs::remove_file(&ckpt_path).ok();
    let ckpt = Some(ckpt_path.as_path());
    // Checkpoints come after every `every`-th epoch but the last: one
    // epoch, or two at a cadence of two, never reach one.
    for (epochs, every) in [(1, 1), (2, 2), (3, 0)] {
        let meta = run_meta(Method::Sgd, 0, epochs);
        let mut net = meta.model.build(meta.model_cfg);
        let before = param_bits(&net);
        let err = train_to_artifact(&mut net, &train_set, &test_set, &meta, every, ckpt)
            .expect_err("a checkpoint file that is never written must be refused");
        assert_eq!(
            err,
            TensorError::NoCheckpoint {
                path: ckpt_path.display().to_string(),
                first_epoch: 0,
                epochs,
                every,
            },
            "{err}"
        );
        assert_eq!(param_bits(&net), before, "refused before training");
        assert!(!ckpt_path.exists());
    }

    // On resume the count starts at the checkpoint's next epoch: a 4-epoch
    // run checkpointed after epoch 3 has no checkpoint left to write.
    let meta = run_meta(Method::Sgd, 0, 4);
    let mut net = meta.model.build(meta.model_cfg);
    train_to_artifact(&mut net, &train_set, &test_set, &meta, 3, ckpt).unwrap();
    let (art, state) = load_artifact(&ckpt_path).unwrap();
    let again = temp_path("never_written_again.ha");
    let err = resume_from_artifact(&art, state, &train_set, &test_set, 1, Some(&again))
        .expect_err("no epoch of the resumed run precedes a checkpoint");
    let at = |first_epoch, epochs, every| TensorError::NoCheckpoint {
        path: again.display().to_string(),
        first_epoch,
        epochs,
        every,
    };
    assert_eq!(err, at(3, 4, 1), "{err}");
    assert!(!again.exists());
    std::fs::remove_file(&ckpt_path).ok();
}

// --- save → load → save byte identity + inference equivalence -------------

#[test]
fn save_load_save_is_byte_identical_and_inference_equivalent() {
    let (train_set, test_set) = setup();
    let meta = run_meta(
        Method::Hero {
            h: 0.05,
            gamma: 0.1,
        },
        0,
        3,
    );
    let mut net = meta.model.build(meta.model_cfg);
    let (record, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).unwrap();

    let path = temp_path("round_trip.ha");
    save_artifact(&art, &path).unwrap();
    let (loaded, _) = load_artifact(&path).unwrap();
    let path2 = temp_path("round_trip2.ha");
    save_artifact(&loaded, &path2).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap(),
        "save→load→save changed the bytes"
    );

    // The loaded network is the trained network, bit for bit: same
    // parameters, same BN statistics, same logits on a fixed batch.
    let loaded_net = network_from_artifact(&loaded).unwrap();
    assert_eq!(param_bits(&loaded_net), param_bits(&net));
    assert_eq!(loaded_net.state(), net.state());
    let reference = net.predict(&test_set.images).unwrap();
    let reloaded = loaded_net.predict(&test_set.images).unwrap();
    assert_eq!(
        reference.data(),
        reloaded.data(),
        "loaded-artifact logits differ from the in-memory model"
    );

    // The training history survives serialization exactly.
    let rec2 = record_from_artifact(&loaded).unwrap();
    assert_eq!(record_bits(&rec2), record_bits(&record));
    assert_eq!(rec2.method, record.method);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

// --- HERO_THREADS invariance of saved bytes -------------------------------

#[test]
fn artifact_bytes_are_identical_across_worker_counts() {
    let (train_set, test_set) = setup();
    let mut reference = None;
    for threads in 1..=4usize {
        let meta = run_meta(
            Method::Hero {
                h: 0.05,
                gamma: 0.1,
            },
            threads,
            3,
        );
        let mut net = meta.model.build(meta.model_cfg);
        let (_, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).unwrap();
        let bytes = art.to_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(
                &bytes, r,
                "artifact bytes diverge at {threads} worker threads"
            ),
        }
    }
}

// --- quantize from artifact == in-memory quant_sweep ----------------------

#[test]
fn quant_sweep_from_loaded_artifact_matches_in_memory() {
    let (train_set, test_set) = setup();
    let meta = run_meta(Method::Sgd, 0, 3);
    let mut net = meta.model.build(meta.model_cfg);
    let (record, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).unwrap();

    let bits = [3u8, 4, 8];
    let mut in_memory = TrainedModel {
        net,
        record,
        method: MethodKind::Sgd,
    };
    let curve_mem = quant_sweep(&mut in_memory, &test_set, &bits).unwrap();

    let loaded_net = network_from_artifact(&art).unwrap();
    let loaded_record = record_from_artifact(&art).unwrap();
    let mut from_artifact = TrainedModel {
        net: loaded_net,
        record: loaded_record,
        method: MethodKind::Sgd,
    };
    let curve_art = quant_sweep(&mut from_artifact, &test_set, &bits).unwrap();

    assert_eq!(
        curve_art.full_acc.to_bits(),
        curve_mem.full_acc.to_bits(),
        "full-precision accuracy differs"
    );
    for ((b1, a1), (b2, a2)) in curve_mem.points.iter().zip(&curve_art.points) {
        assert_eq!(b1, b2);
        assert_eq!(
            a1.to_bits(),
            a2.to_bits(),
            "quantized accuracy at {b1} bits differs between in-memory and artifact"
        );
    }
}

// --- checkpoints land in the same format ----------------------------------

#[test]
fn checkpoint_artifacts_reload_as_networks_too() {
    let (train_set, test_set) = setup();
    let meta = run_meta(Method::Sgd, 0, 4);
    let ckpt_path = temp_path("inspectable_ckpt.ha");
    let mut net = meta.model.build(meta.model_cfg);
    train_to_artifact(&mut net, &train_set, &test_set, &meta, 3, Some(&ckpt_path)).unwrap();
    let (ckpt, state) = load_artifact(&ckpt_path).unwrap();
    // A checkpoint is a full model artifact: same sections, plus RESUME.
    let mid_net = network_from_artifact(&ckpt).unwrap();
    assert_eq!(mid_net.params().len(), net.params().len());
    assert!(state.is_some());
    let described = describe_artifact(&ckpt, state.as_ref());
    assert!(described.contains("resume: next_epoch=3"), "{described}");
    std::fs::remove_file(&ckpt_path).ok();
}

#[test]
fn train_cell_cache_hit_is_bitwise_equal_to_the_fresh_run() {
    use hero_core::experiment::{train_cell_cached, Scale};
    use hero_data::Preset;
    use hero_nn::models::ModelKind;

    let scale = Scale {
        data: 0.05,
        epochs_small: 2,
        epochs_large: 1,
    };
    let dir = temp_path("cell_cache");
    std::fs::remove_dir_all(&dir).ok();
    let fresh = train_cell_cached(
        Preset::C10,
        ModelKind::Resnet,
        MethodKind::Sgd,
        scale,
        0,
        &dir,
    )
    .expect("cold cache trains and saves");
    let cached = train_cell_cached(
        Preset::C10,
        ModelKind::Resnet,
        MethodKind::Sgd,
        scale,
        0,
        &dir,
    )
    .expect("warm cache loads");
    assert_eq!(param_bits(&fresh.net), param_bits(&cached.net));
    assert_eq!(record_bits(&fresh.record), record_bits(&cached.record));
    assert_eq!(cached.method, MethodKind::Sgd);
    // Batch-norm running stats ride along too, so inference matches
    // bitwise, not just the learned parameters.
    let (_, test_set) = Preset::C10.load(scale.data);
    let a = fresh.net.predict(&test_set.images).unwrap();
    let b = cached.net.predict(&test_set.images).unwrap();
    let a_bits: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(a_bits, b_bits);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_cell_cache_refuses_a_model_of_another_recipe() {
    use hero_core::experiment::{train_cell_cached, Scale};
    use hero_data::Preset;
    use hero_nn::models::ModelKind;
    use hero_tensor::TensorError;

    let scale = |epochs| Scale {
        data: 0.05,
        epochs_small: epochs,
        epochs_large: 1,
    };
    let cell = |epochs, dir: &std::path::Path| {
        let (model, method) = (ModelKind::Resnet, MethodKind::Sgd);
        train_cell_cached(Preset::C10, model, method, scale(epochs), 0, dir)
    };
    let dir = temp_path("cell_cache_mismatch");
    std::fs::remove_dir_all(&dir).ok();
    cell(1, &dir).expect("cold cache trains and saves");
    let path = dir.join("cifar_10_resnet20_sgd.ha");
    let before = std::fs::read(&path).expect("the cell's artifact");
    let err = cell(2, &dir).expect_err("a 2-epoch request must not reuse the 1-epoch model");
    assert_eq!(
        err,
        TensorError::RecipeMismatch {
            path: path.display().to_string(),
            field: "train.epochs".to_string(),
            cached: "1".to_string(),
            requested: "2".to_string(),
        },
        "{err}"
    );
    assert!(
        err.to_string()
            .ends_with("train.epochs: cached 1, requested 2"),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "the cached file moved"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- the committed golden artifact ----------------------------------------

/// Byte-pin of the committed golden artifact. Both GEMM kernels round
/// alike and the recipe's bytes are the same for every `HERO_THREADS`, so
/// the pin holds in every environment; verify.sh runs the suite under
/// both kernels and at `HERO_THREADS=1` and `=4`.
#[test]
fn golden_artifact_bytes_are_pinned() {
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/c10_resnet_hero_smoke.ha");
    let committed = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("golden artifact missing at {}: {e}", golden_path.display()));

    let (train_set, test_set, mut net, meta) = golden_recipe();
    let (_, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None).unwrap();
    let fresh = art.to_bytes();
    assert_eq!(
        hero_artifact::fnv1a64(&fresh),
        hero_artifact::fnv1a64(&committed),
        "golden artifact hash changed — the training trajectory is no longer \
         byte-stable (or the recipe/format changed; regenerate tests/golden/ \
         deliberately if so)"
    );
    assert_eq!(fresh, committed, "golden artifact bytes changed");

    // And the committed file itself decodes into a working model.
    let decoded = hero_artifact::Artifact::from_bytes(&committed).unwrap();
    let golden_net = network_from_artifact(&decoded).unwrap();
    let logits = golden_net.predict(&test_set.images).unwrap();
    assert!(logits.data().iter().all(|v| v.is_finite()));
}

/// FNV-1a64 of a tensor's f32 bit patterns (little-endian).
fn logit_hash(t: &hero_tensor::Tensor) -> u64 {
    let bytes: Vec<u8> = t
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    hero_artifact::fnv1a64(&bytes)
}

/// The nets the eval pins read, with the test set they evaluate: the
/// decoded golden ResNet and seeded C10 MobileNet and VGG whose batch-norm
/// running statistics were moved off their defaults by one train-mode pass.
fn pinned_eval_nets() -> (Vec<(&'static str, Network)>, Dataset) {
    use hero_core::experiment::model_config;
    use hero_data::Preset;
    use hero_nn::models::ModelKind;
    use hero_tensor::rng::StdRng;

    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/c10_resnet_hero_smoke.ha");
    let committed = std::fs::read(&golden_path).unwrap();
    let decoded = hero_artifact::Artifact::from_bytes(&committed).unwrap();
    let resnet = network_from_artifact(&decoded).unwrap();
    let (train_set, test_set, _, _) = golden_recipe();
    let mut nets = vec![("golden resnet", resnet)];
    for (name, kind, seed) in [
        ("seeded mobilenet", ModelKind::Mobilenet, 0x3B11u64),
        ("seeded vgg", ModelKind::Vgg, 0x7667u64),
    ] {
        let mut net = kind.build(model_config(Preset::C10), &mut StdRng::seed_from_u64(seed));
        hero_nn::loss_and_grads(&mut net, &train_set.images, &train_set.labels).unwrap();
        nets.push((name, net));
    }
    (nets, test_set)
}

/// Bit pin of eval-mode logits. The golden byte-pin sees eval numerics
/// only through argmax accuracy; this pins `Network::predict` itself for
/// the nets of [`pinned_eval_nets`], so the eval-mode batch norm,
/// depthwise kernel and pooling paths are all covered.
#[test]
fn eval_logits_are_pinned() {
    let (nets, test_set) = pinned_eval_nets();
    let hashes: Vec<_> = nets
        .iter()
        .map(|(name, net)| (*name, logit_hash(&net.predict(&test_set.images).unwrap())))
        .collect();
    let expected = [
        ("golden resnet", 16_681_595_778_110_037_752u64),
        ("seeded mobilenet", 8_093_755_523_341_453_577u64),
        ("seeded vgg", 9_924_324_883_538_834_119u64),
    ];
    assert_eq!(hashes, expected, "eval-mode logits changed bitwise");
}

/// Bit pin of `hero_nn::eval_loss`, the loss the landscape probes (Fig. 3)
/// evaluate: the f32 bits of each pinned net's mean eval-mode
/// cross-entropy on the test set.
#[test]
fn eval_loss_is_pinned() {
    let (nets, test_set) = pinned_eval_nets();
    let bits: Vec<_> = nets
        .iter()
        .map(|(name, net)| {
            let loss = hero_nn::eval_loss(net, &test_set.images, &test_set.labels).unwrap();
            (*name, loss.to_bits())
        })
        .collect();
    let expected = [
        ("golden resnet", 1_078_066_848u32),
        ("seeded mobilenet", 1_080_531_718u32),
        ("seeded vgg", 1_081_241_190u32),
    ];
    assert_eq!(bits, expected, "eval-mode loss changed bitwise");
}

/// Bit pin of MobileNet's parameter gradients: one `loss_and_grads` of a
/// seeded C10 MobileNet on the golden recipe's training set, hashed over
/// every parameter gradient in canonical order. The eval-logit pin reaches
/// only the forward; this covers the depthwise backward (dX and dW) too.
#[test]
fn mobilenet_parameter_gradients_are_pinned() {
    use hero_core::experiment::model_config;
    use hero_data::Preset;
    use hero_nn::models::ModelKind;
    use hero_tensor::rng::StdRng;

    let (train_set, _, _, _) = golden_recipe();
    let mut net = ModelKind::Mobilenet.build(
        model_config(Preset::C10),
        &mut StdRng::seed_from_u64(0x3B11),
    );
    let grads = hero_nn::loss_and_grads(&mut net, &train_set.images, &train_set.labels)
        .unwrap()
        .grads;
    let bytes: Vec<u8> = grads
        .iter()
        .flat_map(|g| g.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    let hash = hero_artifact::fnv1a64(&bytes);
    assert_eq!(
        hash, 339_917_683_618_484_760u64,
        "MobileNet parameter gradients changed bitwise"
    );
}
