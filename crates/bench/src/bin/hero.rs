//! `hero` — command-line front end for the HERO reproduction.
//!
//! ```text
//! hero train     --preset c10 --model resnet --method hero --epochs 30 [--out net.ckpt]
//!                [--save model.ha] [--checkpoint ckpt.ha --checkpoint-every 5]
//!                [--resume ckpt.ha] [--git-rev REV] [--golden-recipe golden.ha]
//! hero quantize  --preset c10 --model resnet (--ckpt net.ckpt | --artifact model.ha)
//!                --bits 3,4,6,8 [--mixed 5.0 [--sens static|proxy]]
//!                [--save quantized.ha [--save-bits 4]]
//! hero analyze   --preset c10 --model resnet --ckpt net.ckpt
//! hero preflight --preset c10 --model resnet [--artifact model.ha [--stamp model.ha]]
//!                [--bits 3,4,8] [--noise-bits 4 | --mixed 4.0] [--budget 0.5]
//!                [--out-dir results/analyze]
//! hero noise-crosscheck --preset c10 --models resnet,mobilenet,vgg
//!                [--bits 2,4,8] [--trials 2] [--out results/analyze/noise_crosscheck.json]
//!                [--tightness results/analyze/tightness.json]
//! hero spectrum  --preset c10 --model resnet --methods sgd,hero [--epochs 3]
//!                [--artifact model.ha] [--steps 10] [--probes 4]
//!                [--out results/SPECTRUM_run.json]
//! hero artifact inspect --path model.ha
//! ```
//!
//! `train` trains and optionally checkpoints a model; `quantize` sweeps
//! post-training precision on a checkpoint (or a uniform/mixed allocation,
//! with the sensitivity source selectable between the certified static
//! noise matrix and the size/range proxy); `analyze` reports curvature
//! (λ_max via Lanczos, ‖Hz‖) and the Theorem 3 robustness bounds at the
//! checkpoint; `preflight` runs the static analyzer suite (structure,
//! shapes, liveness, value intervals, gradient-scale bounds, and — with
//! `--noise-bits`/`--mixed` — the quantization-noise domain) over the
//! model's tape without training and writes the report plus an
//! interval-colored Graphviz view; `noise-crosscheck` adversarially
//! validates the noise domain against measured fake-quant probe-loss
//! shifts, writes a JSON artifact (plus, with `--tightness`, the
//! interval-vs-zonotope domain-comparison table), and exits nonzero on
//! any soundness violation or domain-tightness regression; `spectrum` is
//! the Hessian observatory — it trains each
//! requested method with per-epoch spectrum telemetry, takes a deep SLQ
//! density + per-layer Hutchinson-trace probe of the final weights,
//! cross-checks the empirical trace ranking against the certified static
//! sensitivity matrix (Spearman), prints an ASCII density plot, and
//! writes one comparison artifact.
//!
//! The `--save`/`--artifact` family speaks the versioned deterministic
//! model-artifact format (`hero-artifact`): `train --save` captures the
//! trained weights, batch-norm state, full config and training history in
//! one byte-reproducible file, `--checkpoint`/`--resume` make runs
//! interruptible without perturbing a single bit of the final result, and
//! `preflight --artifact` / `quantize --artifact` / `spectrum --artifact`
//! re-analyze a saved model without retraining. `artifact inspect` prints
//! a human summary of any artifact file.

use hero_artifact::{Artifact, MetaValue, QuantEntry};
use hero_core::experiment::{model_config, MethodKind};
use hero_core::{
    attach_quant, golden_recipe, load_artifact, network_from_artifact, record_from_artifact,
    resume_from_artifact, save_artifact, train, train_to_artifact, ModelSpec, NoiseConfig, RunMeta,
    TrainConfig, TrainRecord,
};
use hero_data::Preset;
use hero_hessian::{
    hessian_norm_probe, lanczos_spectrum, layer_traces, slq_density, spearman_rank_checked,
    BoundInputs, GradOracle, SlqConfig,
};
use hero_nn::models::ModelKind;
use hero_nn::{evaluate_accuracy, load_params_from_file, save_params_to_file, Network};
use hero_optim::BatchOracle;
use hero_quant::{
    allocate_bits, network_sensitivities, quantize_params, quantize_params_mixed, quantize_tensor,
    QuantScheme,
};
use hero_tensor::rng::StdRng;
use hero_tensor::{global_norm_l1, global_norm_l2};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `artifact` takes a subcommand word before its flags; fold it into
    // the command name so the flag parser only ever sees `--key value`.
    let (cmd, rest): (&str, &[String]) = if cmd == "artifact" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "inspect" => ("artifact-inspect", tail),
            _ => {
                eprintln!("error: `hero artifact` supports `inspect --path FILE`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        (cmd.as_str(), rest)
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    hero_obs::init_from_env(&format!("hero_{cmd}"));
    let result = match cmd {
        "train" => cmd_train(&opts),
        "quantize" => cmd_quantize(&opts),
        "analyze" => cmd_analyze(&opts),
        "preflight" => cmd_preflight(&opts),
        "noise-crosscheck" => cmd_noise_crosscheck(&opts),
        "spectrum" => cmd_spectrum(&opts),
        "artifact-inspect" => cmd_artifact_inspect(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    hero_obs::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hero — HERO (DAC 2022) reproduction CLI

USAGE:
  hero train    --preset <c10|c100|in50> --model <resnet|mobilenet|vgg>
                --method <hero|sam|gradl1|sgd> [--epochs N] [--scale F]
                [--seed N] [--out FILE] [--save FILE.ha] [--git-rev REV]
                [--checkpoint FILE.ha [--checkpoint-every N]]
                [--resume FILE.ha] [--golden-recipe FILE.ha]
  hero quantize --preset ... --model ...
                (--ckpt FILE | --artifact FILE.ha | --method ... [--epochs N])
                [--bits 3,4,6,8] [--mixed AVG_BITS [--sens static|proxy]]
                [--save FILE.ha [--save-bits N]]
  hero analyze  --preset ... --model ... (--ckpt FILE | --method ... [--epochs N])
  hero preflight --preset ... --model ... [--ckpt FILE] [--scale F] [--seed N]
                 [--artifact FILE.ha [--stamp FILE.ha]]
                 [--bits 3,4,8] [--noise-bits N | --mixed AVG_BITS]
                 [--budget F] [--out-dir DIR]
  hero noise-crosscheck --preset ... [--models resnet,mobilenet,vgg]
                 [--bits 2,4,8] [--trials N] [--epochs N] [--scale F]
                 [--avg AVG_BITS] [--min-overlap F] [--out FILE]
                 [--tightness FILE]
  hero spectrum  --preset ... --model ... [--methods sgd,hero] [--epochs N]
                 [--artifact FILE.ha] [--scale F] [--seed N] [--steps N]
                 [--probes N] [--bits N] [--spectrum-every N] [--out FILE]
  hero artifact inspect --path FILE.ha

Artifact-format notes: `--save`/`--checkpoint` write the versioned
deterministic model-artifact format (see DESIGN.md §16); `--resume`
continues a checkpoint bit-exactly (pass the original --preset/--scale so
the datasets match); `--golden-recipe` trains the fixed smoke recipe
behind the committed golden artifact and writes it to FILE.ha.";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn preset_of(opts: &HashMap<String, String>) -> Result<Preset, String> {
    match opts.get("preset").map(String::as_str) {
        Some("c10") | None => Ok(Preset::C10),
        Some("c100") => Ok(Preset::C100),
        Some("in50") => Ok(Preset::In50),
        Some(other) => Err(format!("unknown preset `{other}`")),
    }
}

fn model_of(opts: &HashMap<String, String>) -> Result<ModelKind, String> {
    match opts.get("model").map(String::as_str) {
        Some("resnet") | None => Ok(ModelKind::Resnet),
        Some("mobilenet") => Ok(ModelKind::Mobilenet),
        Some("vgg") => Ok(ModelKind::Vgg),
        Some(other) => Err(format!("unknown model `{other}`")),
    }
}

fn method_of(opts: &HashMap<String, String>) -> Result<MethodKind, String> {
    match opts.get("method").map(String::as_str) {
        Some("hero") | None => Ok(MethodKind::Hero),
        Some("sam") | Some("first-order") => Ok(MethodKind::FirstOrder),
        Some("gradl1") => Ok(MethodKind::GradL1),
        Some("sgd") => Ok(MethodKind::Sgd),
        Some(other) => Err(format!("unknown method `{other}`")),
    }
}

fn parse_bits(arg: &str, flag: &str) -> Result<Vec<u8>, String> {
    arg.split(',')
        .map(|token| {
            token
                .trim()
                .parse()
                .map_err(|_| format!("--{flag}: cannot parse `{token}`"))
        })
        .collect()
}

fn num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

/// Obtains a trained network: from a checkpoint if `--ckpt` is given,
/// otherwise by training with `--method` for `--epochs`.
fn obtain_model(
    opts: &HashMap<String, String>,
) -> Result<(Network, Preset, hero_data::Dataset, hero_data::Dataset), String> {
    let preset = preset_of(opts)?;
    let model = model_of(opts)?;
    let scale: f32 = num(opts, "scale", 0.5)?;
    let seed: u64 = num(opts, "seed", 42)?;
    let (train_set, test_set) = preset.load(scale);
    let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
    if let Some(ckpt) = opts.get("ckpt") {
        load_params_from_file(&mut net, &PathBuf::from(ckpt)).map_err(|e| e.to_string())?;
        hero_obs::Event::new("checkpoint_loaded")
            .str("path", ckpt)
            .human(format!("loaded checkpoint {ckpt}"))
            .emit();
    } else {
        let method = method_of(opts)?;
        let epochs: usize = num(opts, "epochs", 20)?;
        hero_obs::Event::new("train_start")
            .str("model", model.paper_name())
            .str("method", method.paper_name())
            .str("preset", preset.paper_name())
            .u64("epochs", epochs as u64)
            .human(format!(
                "training {} with {} for {epochs} epochs on {} ...",
                model.paper_name(),
                method.paper_name(),
                preset.paper_name()
            ))
            .emit();
        let config = TrainConfig::new(method.tuned(), epochs).with_seed(seed);
        let rec = train(&mut net, &train_set, &test_set, &config).map_err(|e| e.to_string())?;
        hero_obs::Event::new("train_result")
            .f64("train_acc", f64::from(rec.final_train_acc))
            .f64("test_acc", f64::from(rec.final_test_acc))
            .human(format!(
                "trained: train acc {:.2}%, test acc {:.2}%",
                100.0 * rec.final_train_acc,
                100.0 * rec.final_test_acc
            ))
            .emit();
    }
    Ok((net, preset, train_set, test_set))
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), String> {
    // The fixed golden-recipe run: shared with the byte-pin regression
    // test and verify.sh, so the three can never disagree on the recipe.
    if let Some(out) = opts.get("golden-recipe") {
        let (train_set, test_set, mut net, meta) = golden_recipe();
        let (rec, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None)
            .map_err(|e| e.to_string())?;
        save_artifact(&art, PathBuf::from(out)).map_err(|e| e.to_string())?;
        println!(
            "golden artifact ({} scalars, train acc {:.2}%, test acc {:.2}%) written to {out}",
            art.num_scalars(),
            100.0 * rec.final_train_acc,
            100.0 * rec.final_test_acc
        );
        return Ok(());
    }

    let save = opts.get("save").map(PathBuf::from);
    let ckpt_path = opts.get("checkpoint").map(PathBuf::from);
    let ckpt_every: usize = num(opts, "checkpoint-every", 1)?;

    // Resume a checkpoint artifact: the model, config and trainer state
    // all come from the file; only the datasets are reloaded, so the
    // caller must pass the original --preset/--scale.
    if let Some(resume) = opts.get("resume") {
        let preset = preset_of(opts)?;
        let scale: f32 = num(opts, "scale", 0.5)?;
        let (train_set, test_set) = preset.load(scale);
        let art = load_artifact(PathBuf::from(resume)).map_err(|e| e.to_string())?;
        let (rec, final_art, _net) = resume_from_artifact(
            &art,
            &train_set,
            &test_set,
            ckpt_every,
            ckpt_path.as_deref(),
        )
        .map_err(|e| e.to_string())?;
        hero_obs::Event::new("train_result")
            .f64("train_acc", f64::from(rec.final_train_acc))
            .f64("test_acc", f64::from(rec.final_test_acc))
            .human(format!(
                "resumed {resume}: train acc {:.2}%, test acc {:.2}%",
                100.0 * rec.final_train_acc,
                100.0 * rec.final_test_acc
            ))
            .emit();
        if let Some(out) = &save {
            save_artifact(&final_art, out).map_err(|e| e.to_string())?;
            println!("artifact written to {}", out.display());
        }
        return Ok(());
    }

    // Fresh training through the artifact pipeline when any artifact
    // output is requested.
    if save.is_some() || ckpt_path.is_some() {
        let preset = preset_of(opts)?;
        let model = model_of(opts)?;
        let method = method_of(opts)?;
        let scale: f32 = num(opts, "scale", 0.5)?;
        let seed: u64 = num(opts, "seed", 42)?;
        let epochs: usize = num(opts, "epochs", 20)?;
        let (train_set, test_set) = preset.load(scale);
        let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
        let meta = RunMeta {
            model: ModelSpec::Kind(model),
            model_cfg: model_config(preset),
            config: TrainConfig::new(method.tuned(), epochs).with_seed(seed),
            git_rev: opts
                .get("git-rev")
                .cloned()
                .unwrap_or_else(|| "unknown".into()),
            preflight_hash: None,
        };
        let (rec, art) = train_to_artifact(
            &mut net,
            &train_set,
            &test_set,
            &meta,
            ckpt_every,
            ckpt_path.as_deref(),
        )
        .map_err(|e| e.to_string())?;
        hero_obs::Event::new("train_result")
            .f64("train_acc", f64::from(rec.final_train_acc))
            .f64("test_acc", f64::from(rec.final_test_acc))
            .human(format!(
                "trained: train acc {:.2}%, test acc {:.2}%",
                100.0 * rec.final_train_acc,
                100.0 * rec.final_test_acc
            ))
            .emit();
        if let Some(out) = &save {
            save_artifact(&art, out).map_err(|e| e.to_string())?;
            println!("artifact written to {}", out.display());
        }
        if let Some(out) = opts.get("out") {
            save_params_to_file(&net, &PathBuf::from(out)).map_err(|e| e.to_string())?;
        }
        return Ok(());
    }

    let (net, _, _, _) = obtain_model(opts)?;
    if let Some(out) = opts.get("out") {
        save_params_to_file(&net, &PathBuf::from(out)).map_err(|e| e.to_string())?;
        hero_obs::Event::new("checkpoint_written")
            .str("path", out)
            .human(format!("checkpoint written to {out}"))
            .emit();
    }
    Ok(())
}

fn cmd_quantize(opts: &HashMap<String, String>) -> Result<(), String> {
    let (mut net, mut loaded, train_set, test_set) = if let Some(path) = opts.get("artifact") {
        let preset = preset_of(opts)?;
        let scale: f32 = num(opts, "scale", 0.5)?;
        let (train_set, test_set) = preset.load(scale);
        let art = load_artifact(PathBuf::from(path)).map_err(|e| e.to_string())?;
        let net = network_from_artifact(&art).map_err(|e| e.to_string())?;
        hero_obs::Event::new("artifact_loaded")
            .str("path", path)
            .human(format!("loaded artifact {path}"))
            .emit();
        (net, Some(art), train_set, test_set)
    } else {
        let (net, _, train_set, test_set) = obtain_model(opts)?;
        (net, None, train_set, test_set)
    };
    let full_params = net.params();
    let full_acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)
        .map_err(|e| e.to_string())?;
    hero_obs::Event::new("quant_eval")
        .str("scheme", "full_precision")
        .f64("accuracy", f64::from(full_acc))
        .human(format!("full precision: test acc {:.2}%", 100.0 * full_acc))
        .emit();

    if let Some(avg) = opts.get("mixed") {
        let avg: f32 = avg
            .parse()
            .map_err(|_| "--mixed: cannot parse".to_string())?;
        let sens_source = opts.get("sens").map_or("static", String::as_str);
        let (bits, sens) = match sens_source {
            // Certified static sensitivity: the analyzer's noise domain
            // bounds each layer's loss impact; the allocator spends the
            // budget against those certificates.
            "static" => {
                let probe = train_set.len().min(64);
                if probe == 0 {
                    return Err("--sens static needs at least one training sample".into());
                }
                let images = train_set
                    .images
                    .narrow(0, probe)
                    .map_err(|e| e.to_string())?;
                let matrix = hero_core::static_sensitivity_matrix(
                    &mut net,
                    &images,
                    &train_set.labels[..probe],
                    &[2, 4, 8],
                )
                .map_err(|e| e.to_string())?;
                let bits = matrix.allocate(avg, 2, 8).map_err(|e| e.to_string())?;
                (bits, matrix.to_layer_sensitivities())
            }
            // Gradient-free proxy: curvature 1, range/size allocation only.
            "proxy" => {
                let sens = network_sensitivities(&net);
                let bits = allocate_bits(&sens, avg, 2, 8).map_err(|e| e.to_string())?;
                (bits, sens)
            }
            other => return Err(format!("--sens: `{other}` is not static|proxy")),
        };
        println!("mixed-precision allocation (avg {avg} bits, {sens_source} sensitivity):");
        for (s, b) in sens.iter().zip(&bits) {
            hero_obs::Event::new("bit_allocation")
                .str("tensor", &s.name)
                .str("sens", sens_source)
                .u64("bits", u64::from(*b))
                .u64("weights", s.numel as u64)
                .human(format!("  {:40} {} bits ({} weights)", s.name, b, s.numel))
                .emit();
        }
        let (qp, report) = quantize_params_mixed(&net, &bits).map_err(|e| e.to_string())?;
        net.set_params(&qp).map_err(|e| e.to_string())?;
        let acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)
            .map_err(|e| e.to_string())?;
        hero_obs::Event::new("quant_eval")
            .str("scheme", "mixed")
            .f64("avg_bits", f64::from(avg))
            .f64("accuracy", f64::from(acc))
            .f64("worst_linf", f64::from(report.worst_linf))
            .human(format!(
                "mixed {avg}-bit: test acc {:.2}%  (‖δ‖∞ {:.4})",
                100.0 * acc,
                report.worst_linf
            ))
            .emit();
        net.set_params(&full_params).map_err(|e| e.to_string())?;
    }

    let bits_arg = opts
        .get("bits")
        .cloned()
        .unwrap_or_else(|| "3,4,6,8".into());
    for token in bits_arg.split(',') {
        let b: u8 = token
            .trim()
            .parse()
            .map_err(|_| format!("--bits: cannot parse `{token}`"))?;
        let scheme = QuantScheme::symmetric(b).map_err(|e| e.to_string())?;
        let (qp, report) = quantize_params(&net, &scheme).map_err(|e| e.to_string())?;
        net.set_params(&qp).map_err(|e| e.to_string())?;
        let acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)
            .map_err(|e| e.to_string())?;
        hero_obs::Event::new("quant_eval")
            .str("scheme", "uniform")
            .u64("bits", u64::from(b))
            .f64("accuracy", f64::from(acc))
            .f64("worst_linf", f64::from(report.worst_linf))
            .f64("max_bin_width", f64::from(report.max_bin_width))
            .human(format!(
                "{b}-bit uniform: test acc {:.2}%  (‖δ‖∞ {:.4} ≤ Δ/2 {:.4})",
                100.0 * acc,
                report.worst_linf,
                report.max_bin_width / 2.0
            ))
            .emit();
        net.set_params(&full_params).map_err(|e| e.to_string())?;
    }

    // Persist one quantization decision back into the artifact: the
    // quantized values replace the TENSORS section and the QUANT section
    // records the per-tensor bit width and grid. The RESUME section is
    // dropped — a quantized snapshot is a deployment artifact, not a
    // training state.
    if let Some(out) = opts.get("save") {
        let Some(art) = loaded.as_mut() else {
            return Err("--save needs --artifact (a model artifact to quantize)".into());
        };
        let first_bits = parse_bits(&bits_arg, "bits")?[0];
        let b: u8 = num(opts, "save-bits", first_bits)?;
        let scheme = QuantScheme::symmetric(b).map_err(|e| e.to_string())?;
        let infos = net.param_infos();
        let mut quantized = Vec::with_capacity(full_params.len());
        let mut entries = Vec::new();
        for (p, info) in full_params.iter().zip(&infos) {
            if info.kind.is_quantizable() {
                let q = quantize_tensor(p, &scheme).map_err(|e| e.to_string())?;
                entries.push(QuantEntry {
                    name: info.name.clone(),
                    bits: b,
                    per_channel: false,
                    bin_widths: q.bin_widths.clone(),
                });
                quantized.push(q.values);
            } else {
                quantized.push(p.clone());
            }
        }
        attach_quant(art, &quantized, entries);
        art.resume = None;
        save_artifact(art, PathBuf::from(out)).map_err(|e| e.to_string())?;
        println!("quantized artifact ({b}-bit weights) written to {out}");
    }
    Ok(())
}

fn cmd_preflight(opts: &HashMap<String, String>) -> Result<(), String> {
    let preset = preset_of(opts)?;
    let model = model_of(opts)?;
    let scale: f32 = num(opts, "scale", 0.5)?;
    let seed: u64 = num(opts, "seed", 42)?;
    let (train_set, _) = preset.load(scale);
    let mut loaded: Option<Artifact> = None;
    let mut net = if let Some(path) = opts.get("artifact") {
        let art = load_artifact(PathBuf::from(path)).map_err(|e| e.to_string())?;
        let net = network_from_artifact(&art).map_err(|e| e.to_string())?;
        loaded = Some(art);
        net
    } else {
        let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
        if let Some(ckpt) = opts.get("ckpt") {
            load_params_from_file(&mut net, &PathBuf::from(ckpt)).map_err(|e| e.to_string())?;
        }
        net
    };
    let bits_arg = opts.get("bits").cloned().unwrap_or_else(|| "3,4,8".into());
    let bits = parse_bits(&bits_arg, "bits")?;
    let probe = train_set.len().min(64);
    if probe == 0 {
        return Err("preflight needs at least one sample".into());
    }
    let images = train_set
        .images
        .narrow(0, probe)
        .map_err(|e| e.to_string())?;
    let labels = &train_set.labels[..probe];

    // Quantization-noise configuration: `--noise-bits N` seeds every
    // weight uniformly; `--mixed AVG` first computes the certified static
    // sensitivity matrix, allocates per-layer widths against it, and
    // seeds the allocation. Either way the report (and dot overlay)
    // carries certified per-node error bounds.
    let budget: Option<f32> = match opts.get("budget") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| "--budget: cannot parse".to_string())?,
        ),
    };
    let mut noise_cfg: Option<NoiseConfig> = None;
    if let Some(avg) = opts.get("mixed") {
        let avg: f32 = avg
            .parse()
            .map_err(|_| "--mixed: cannot parse".to_string())?;
        let mut grid = bits.clone();
        grid.sort_unstable();
        grid.dedup();
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &grid)
            .map_err(|e| e.to_string())?;
        let max_b = grid.last().copied().unwrap_or(8);
        let alloc = matrix
            .allocate(avg, grid[0].min(2), max_b)
            .map_err(|e| e.to_string())?;
        println!("certified static sensitivity (err[layer][bits], avg {avg}-bit allocation):");
        for (l, layer) in matrix.layers.iter().enumerate() {
            let cells: Vec<String> = grid
                .iter()
                .zip(&layer.err)
                .map(|(b, e)| format!("{b}b:{e:.2e}"))
                .collect();
            println!(
                "  {:40} {:>2} bits  {}",
                layer.name,
                alloc[l],
                cells.join("  ")
            );
        }
        noise_cfg = Some(NoiseConfig::per_layer(alloc));
    } else if let Some(nb) = opts.get("noise-bits") {
        let nb: u8 = nb
            .parse()
            .map_err(|_| "--noise-bits: cannot parse".to_string())?;
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[nb])
            .map_err(|e| e.to_string())?;
        println!("certified per-layer loss-error bounds at {nb} bits:");
        for layer in &matrix.layers {
            println!("  {:40} err ≤ {:.3e}", layer.name, layer.err[0]);
        }
        noise_cfg = Some(NoiseConfig::uniform(nb));
    }
    if let (Some(cfg), Some(b)) = (noise_cfg.as_mut(), budget) {
        cfg.budget = Some(b);
    }

    let vopts = hero_analyze::VerifyOptions {
        quant_bits: bits,
        ..hero_analyze::VerifyOptions::default()
    };
    let (report, dot) = hero_core::preflight_report_with_noise(
        &mut net,
        &images,
        labels,
        &vopts,
        noise_cfg.as_ref(),
        true,
    )
    .map_err(|e| e.to_string())?;

    let out_dir = PathBuf::from(
        opts.get("out-dir")
            .cloned()
            .unwrap_or_else(|| "results/analyze".into()),
    );
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let stem = format!("{}_{}", model.paper_name(), preset.paper_name())
        .to_lowercase()
        .replace(['/', ' ', '-'], "_");
    let txt_path = out_dir.join(format!("{stem}.txt"));
    std::fs::write(&txt_path, format!("{report}\n")).map_err(|e| e.to_string())?;
    if let Some(dot) = dot {
        let dot_path = out_dir.join(format!("{stem}.dot"));
        std::fs::write(&dot_path, dot).map_err(|e| e.to_string())?;
    }

    let errors = report.errors().count();
    let warnings = report.warnings().count();
    // The report hash is the provenance fingerprint an artifact can carry
    // (`provenance.preflight_hash`); `--stamp FILE` writes it into the
    // loaded artifact so downstream consumers can tell which static
    // analysis the model passed.
    let hash = hero_core::preflight_hash(&report);
    println!(
        "preflight {}: {} nodes, {errors} errors, {warnings} warnings, report hash {hash:#018x} -> {}",
        net.name(),
        report.nodes,
        txt_path.display()
    );
    if let Some(stamp) = opts.get("stamp") {
        let Some(art) = loaded.as_mut() else {
            return Err("--stamp needs --artifact (an artifact to annotate)".into());
        };
        art.set_meta("provenance.preflight_hash", MetaValue::U64(hash));
        save_artifact(art, PathBuf::from(stamp)).map_err(|e| e.to_string())?;
        println!("preflight hash stamped into {stamp}");
    }
    if errors > 0 || warnings > 0 {
        print!("{report}");
    }
    if errors > 0 {
        return Err(format!(
            "preflight found {errors} error-severity diagnostics for `{}`",
            net.name()
        ));
    }
    Ok(())
}

/// Adversarial validation of the static quantization-noise domain: for
/// each requested model, trains a quick SGD baseline, measures per-layer
/// fake-quant probe-loss shifts against the certified bounds
/// ([`hero_core::noise_crosscheck`]), compares a static-matrix mixed
/// allocation against uniform quantization at equal average bits, and
/// writes everything to one JSON artifact. Exits nonzero if any measured
/// error escapes its certified bound, if any zonotope-tightened cell is
/// wider than its interval-domain cell, or if the ranking overlap falls
/// under `--min-overlap` — a NaN overlap (degenerate ranking) counts as
/// a failure there, never as a silent pass. With `--tightness FILE` it
/// additionally writes the per-layer×bits domain-comparison artifact
/// (interval width, zonotope width, ratio) and fails if the raw
/// un-clamped sensitivity matrix is rank-constant on a multi-layer model.
fn cmd_noise_crosscheck(opts: &HashMap<String, String>) -> Result<(), String> {
    let preset = preset_of(opts)?;
    let scale: f32 = num(opts, "scale", 0.25)?;
    let seed: u64 = num(opts, "seed", 42)?;
    let epochs: usize = num(opts, "epochs", 3)?;
    let trials: usize = num(opts, "trials", 2)?;
    let avg: f32 = num(opts, "avg", 4.0)?;
    let min_overlap: f32 = num(opts, "min-overlap", 0.0)?;
    let bits_arg = opts.get("bits").cloned().unwrap_or_else(|| "2,4,8".into());
    let grid = parse_bits(&bits_arg, "bits")?;
    let models_arg = opts
        .get("models")
        .cloned()
        .unwrap_or_else(|| "resnet,mobilenet,vgg".into());
    let out_path = PathBuf::from(
        opts.get("out")
            .cloned()
            .unwrap_or_else(|| "results/analyze/noise_crosscheck.json".into()),
    );
    let tightness_path = opts.get("tightness").map(PathBuf::from);

    let (train_set, test_set) = preset.load(scale);
    let probe = train_set.len().min(64);
    if probe == 0 {
        return Err("noise-crosscheck needs at least one training sample".into());
    }
    let images = train_set
        .images
        .narrow(0, probe)
        .map_err(|e| e.to_string())?;
    let labels = &train_set.labels[..probe];

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"preset\": \"{}\",\n  \"bits\": {:?},\n  \"avg_bits\": {},\n  \"models\": [\n",
        preset.paper_name(),
        grid,
        jnum(avg)
    );
    let mut total_violations = 0usize;
    let mut worst_overlap = f32::INFINITY;
    // NaN never survives an `f32::min`, so a degenerate (constant or
    // single-layer) ranking would otherwise sail through the
    // `--min-overlap` gate unexamined. Track it explicitly instead.
    let mut saw_degenerate_ranking = false;
    let mut widened_cells = 0usize;
    let mut rank_constant_models: Vec<String> = Vec::new();
    let mut tightness_json = String::from("{\n  \"models\": [\n");
    let mut first_model = true;
    for token in models_arg.split(',') {
        let model = match token.trim() {
            "resnet" => ModelKind::Resnet,
            "mobilenet" => ModelKind::Mobilenet,
            "vgg" => ModelKind::Vgg,
            other => return Err(format!("--models: unknown model `{other}`")),
        };
        let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
        let config = TrainConfig::new(MethodKind::Sgd.tuned(), epochs).with_seed(seed);
        let rec = train(&mut net, &train_set, &test_set, &config).map_err(|e| e.to_string())?;
        let report = hero_core::noise_crosscheck(&mut net, &images, labels, &grid, trials, seed)
            .map_err(|e| e.to_string())?;
        total_violations += report.violations;

        // Static-matrix mixed allocation vs uniform at equal average bits.
        // The crosscheck already certified the matrix; reuse it rather
        // than paying for a second relational pass per layer×bits.
        let matrix = &report.matrix;
        // A single-layer ranking is trivially perfect, not degenerate; on
        // multi-layer models an undefined rho means a constant side.
        if report.overlap.is_nan() || (report.rank_rho.is_none() && matrix.layers.len() >= 2) {
            saw_degenerate_ranking = true;
        }
        if !report.overlap.is_nan() {
            worst_overlap = worst_overlap.min(report.overlap);
        }
        let max_b = grid.last().copied().unwrap_or(8);
        let alloc = matrix
            .allocate(avg, grid[0].min(2), max_b)
            .map_err(|e| e.to_string())?;
        let full = net.params();
        let (qp, _) = quantize_params_mixed(&net, &alloc).map_err(|e| e.to_string())?;
        net.set_params(&qp).map_err(|e| e.to_string())?;
        let mixed_acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)
            .map_err(|e| e.to_string())?;
        net.set_params(&full).map_err(|e| e.to_string())?;
        let uniform_scheme =
            QuantScheme::symmetric(avg.round() as u8).map_err(|e| e.to_string())?;
        let (qp, _) = quantize_params(&net, &uniform_scheme).map_err(|e| e.to_string())?;
        net.set_params(&qp).map_err(|e| e.to_string())?;
        let uniform_acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)
            .map_err(|e| e.to_string())?;
        net.set_params(&full).map_err(|e| e.to_string())?;

        // Domain-tightness audit: every zonotope-tightened cell must sit
        // inside its interval-domain cell, and the raw (un-clamped)
        // matrix must distinguish at least two layer ranks somewhere on
        // the grid for the ranking to mean anything.
        let mut model_widened = 0usize;
        let mut distinct_ranks = 0usize;
        for (k, _) in matrix.bits.iter().enumerate() {
            let mut col: Vec<f32> = Vec::new();
            for l in &matrix.layers {
                let zono = l.err[k];
                let interval = l.err_interval.get(k).copied().unwrap_or(zono);
                if zono > interval {
                    model_widened += 1;
                }
                col.push(zono);
            }
            col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            col.dedup();
            distinct_ranks = distinct_ranks.max(col.len());
        }
        widened_cells += model_widened;
        if matrix.layers.len() >= 2 && distinct_ranks < 2 {
            rank_constant_models.push(model.paper_name().to_string());
        }
        if !first_model {
            tightness_json.push_str(",\n");
        }
        let _ = write!(
            tightness_json,
            "    {{\n      \"model\": \"{}\",\n      \"distinct_ranks\": {},\n      \
             \"widened_cells\": {},\n      \"cells\": [\n",
            model.paper_name(),
            distinct_ranks,
            model_widened
        );
        let total_cells: usize = matrix.layers.len() * matrix.bits.len();
        let mut cell_idx = 0usize;
        for l in &matrix.layers {
            for (k, &b) in matrix.bits.iter().enumerate() {
                let zono = l.err[k];
                let interval = l.err_interval.get(k).copied().unwrap_or(zono);
                let ratio = if interval > 0.0 { zono / interval } else { 1.0 };
                cell_idx += 1;
                let _ = write!(
                    tightness_json,
                    "        {{\"layer\": \"{}\", \"bits\": {}, \"interval\": {}, \
                     \"zonotope\": {}, \"ratio\": {}}}{}",
                    l.name.replace(['"', '\\'], "_"),
                    b,
                    jnum(interval),
                    jnum(zono),
                    jnum(ratio),
                    if cell_idx < total_cells { ",\n" } else { "\n" }
                );
            }
        }
        tightness_json.push_str("      ]\n    }");

        let rho_str = report
            .rank_rho
            .map_or_else(|| "undefined".to_string(), |r| format!("{r:.3}"));
        println!(
            "{}: {} cells, {} violations, overlap {:.2}, rank rho {}, \
             {} distinct ranks, mixed {:.2}% vs uniform {:.2}% \
             at avg {avg} bits (full {:.2}%)",
            model.paper_name(),
            report.cells.len(),
            report.violations,
            report.overlap,
            rho_str,
            distinct_ranks,
            100.0 * mixed_acc,
            100.0 * uniform_acc,
            100.0 * rec.final_test_acc
        );
        hero_obs::Event::new("noise_crosscheck")
            .str("model", model.paper_name())
            .u64("violations", report.violations as u64)
            .u64("distinct_ranks", distinct_ranks as u64)
            .u64("widened_cells", model_widened as u64)
            .f64("overlap", f64::from(report.overlap))
            .f64("rank_rho", f64::from(report.rank_rho.unwrap_or(f32::NAN)))
            .f64("mixed_acc", f64::from(mixed_acc))
            .f64("uniform_acc", f64::from(uniform_acc))
            .emit();

        if !first_model {
            json.push_str(",\n");
        }
        first_model = false;
        // Every float goes through `jnum`: a NaN overlap (degenerate
        // ranking) or a non-finite measured shift must land in the sink
        // as `null`, not as a bare `NaN` token no JSON parser accepts.
        let _ = write!(
            json,
            "    {{\n      \"model\": \"{}\",\n      \"violations\": {},\n      \
             \"overlap\": {},\n      \"rank_rho\": {},\n      \"ref_bits\": {},\n      \
             \"full_acc\": {},\n      \"mixed_acc\": {},\n      \
             \"uniform_acc\": {},\n      \"allocation\": {:?},\n      \"cells\": [\n",
            model.paper_name(),
            report.violations,
            jnum(report.overlap),
            report.rank_rho.map_or_else(|| "null".into(), jnum),
            report.ref_bits,
            jnum(rec.final_test_acc),
            jnum(mixed_acc),
            jnum(uniform_acc),
            alloc
        );
        for (i, c) in report.cells.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"layer\": \"{}\", \"bits\": {}, \"certified\": {}, \
                 \"empirical\": {}, \"violated\": {}}}{}",
                c.layer.replace(['"', '\\'], "_"),
                c.bits,
                jnum(c.certified),
                jnum(c.empirical),
                c.violated,
                if i + 1 < report.cells.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        json.push_str("      ]\n    }");
    }
    let _ = write!(
        json,
        "\n  ],\n  \"total_violations\": {total_violations},\n  \
         \"worst_overlap\": {}\n}}\n",
        jnum(if worst_overlap == f32::INFINITY {
            // No models ran; report a vacuous perfect overlap.
            1.0
        } else {
            worst_overlap
        })
    );
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, &json).map_err(|e| e.to_string())?;
    println!("noise crosscheck written to {}", out_path.display());
    if let Some(path) = &tightness_path {
        let _ = write!(
            tightness_json,
            "\n  ],\n  \"widened_cells\": {widened_cells},\n  \
             \"rank_constant_models\": {rank_constant_models:?}\n}}\n"
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, &tightness_json).map_err(|e| e.to_string())?;
        println!("domain-tightness artifact written to {}", path.display());
    }

    if total_violations > 0 {
        return Err(format!(
            "noise-domain soundness violated: {total_violations} measured errors \
             escaped their certified bounds (see {})",
            out_path.display()
        ));
    }
    if widened_cells > 0 {
        return Err(format!(
            "domain tightening regressed: {widened_cells} zonotope cells are wider \
             than their interval-domain cells"
        ));
    }
    if tightness_path.is_some() && !rank_constant_models.is_empty() {
        return Err(format!(
            "raw sensitivity matrix is rank-constant (every layer×bits cell ties) \
             on: {}",
            rank_constant_models.join(", ")
        ));
    }
    if min_overlap > 0.0 {
        if saw_degenerate_ranking {
            return Err(format!(
                "static-vs-empirical ranking is degenerate (NaN overlap or \
                 undefined Spearman rho) on at least one model; cannot certify \
                 the required {min_overlap:.2} overlap"
            ));
        }
        if worst_overlap < min_overlap {
            return Err(format!(
                "static-vs-empirical ranking overlap {worst_overlap:.2} below the \
                 required {min_overlap:.2}"
            ));
        }
    }
    Ok(())
}

/// Formats a float as a JSON number through the obs sink's canonical
/// encoder: non-finite values become `null` (NaN/inf literals are not
/// valid JSON and silently poison every downstream parser).
fn jnum(v: f32) -> String {
    hero_obs::json::num(f64::from(v))
}

/// The spectrum observatory (`hero spectrum`): for each requested method,
/// trains with per-epoch spectrum telemetry enabled, probes the final
/// weights deeply (SLQ density + per-layer Hutchinson traces), computes
/// the Spearman rank correlation between the empirical quantizable-layer
/// trace ranking and the certified static sensitivity ranking, prints an
/// ASCII density plot, and rolls everything into one JSON artifact.
fn cmd_spectrum(opts: &HashMap<String, String>) -> Result<(), String> {
    let preset = preset_of(opts)?;
    let model = model_of(opts)?;
    let scale: f32 = num(opts, "scale", 0.25)?;
    let seed: u64 = num(opts, "seed", 42)?;
    let epochs: usize = num(opts, "epochs", 3)?;
    let steps: usize = num(opts, "steps", 10)?;
    let probes: usize = num(opts, "probes", 4)?;
    let bits: u8 = num(opts, "bits", 4)?;
    let every: usize = num(opts, "spectrum-every", 1)?;
    let methods_arg = opts
        .get("methods")
        .cloned()
        .unwrap_or_else(|| "sgd,hero".into());
    let stem = format!("{}_{}", model.paper_name(), preset.paper_name())
        .to_lowercase()
        .replace(['/', ' ', '-'], "_");
    let out_path = PathBuf::from(
        opts.get("out")
            .cloned()
            .unwrap_or_else(|| format!("results/SPECTRUM_{stem}.json")),
    );

    let (train_set, test_set) = preset.load(scale);
    let probe_n = train_set.len().min(64);
    if probe_n == 0 {
        return Err("spectrum needs at least one training sample".into());
    }
    let images = train_set
        .images
        .narrow(0, probe_n)
        .map_err(|e| e.to_string())?;
    let labels = &train_set.labels[..probe_n];

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"preset\": \"{}\",\n  \"model\": \"{}\",\n  \"epochs\": {epochs},\n  \
         \"steps\": {steps},\n  \"probes\": {probes},\n  \"sens_bits\": {bits},\n  \
         \"methods\": [\n",
        preset.paper_name(),
        model.paper_name()
    );
    // Either probe one saved model artifact (no retraining — the weights
    // and per-epoch spectrum trajectory both come from the file) or train
    // each requested method fresh.
    let mut runs: Vec<(String, Network, TrainRecord)> = Vec::new();
    if let Some(path) = opts.get("artifact") {
        let art = load_artifact(PathBuf::from(path)).map_err(|e| e.to_string())?;
        let name = art
            .meta_str("train.method.kind")
            .unwrap_or("artifact")
            .to_string();
        let net = network_from_artifact(&art).map_err(|e| e.to_string())?;
        let rec = record_from_artifact(&art).map_err(|e| e.to_string())?;
        runs.push((name, net, rec));
    } else {
        for token in methods_arg.split(',') {
            let method = match token.trim() {
                "hero" => MethodKind::Hero,
                "sam" | "first-order" => MethodKind::FirstOrder,
                "gradl1" => MethodKind::GradL1,
                "sgd" => MethodKind::Sgd,
                other => return Err(format!("--methods: unknown method `{other}`")),
            };
            let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
            let config = TrainConfig::new(method.tuned(), epochs)
                .with_seed(seed)
                .with_spectrum_every(every);
            let rec = train(&mut net, &train_set, &test_set, &config).map_err(|e| e.to_string())?;
            runs.push((method.paper_name().to_string(), net, rec));
        }
    }
    let mut first_method = true;
    for (name, mut net, rec) in runs {
        // Deep final probe. Unlike the trainer's epoch probe this keeps the
        // full broadened density for plotting, so it calls the estimators
        // directly rather than going through `probe_spectrum`.
        let params = net.params();
        let state = net.state();
        let infos = net.param_infos();
        let (density, traces) = {
            let mut oracle = BatchOracle::new(&mut net, &images, labels);
            let cfg = SlqConfig {
                steps,
                probes,
                seed,
                grid_points: 32,
                ..SlqConfig::default()
            };
            // One base gradient serves every SLQ probe and every trace.
            let (_, base) = oracle.grad(&params).map_err(|e| e.to_string())?;
            let density =
                slq_density(&mut oracle, &params, &base, cfg).map_err(|e| e.to_string())?;
            let traces = layer_traces(&mut oracle, &params, &base, probes, 1e-3, seed ^ 0x7ACE)
                .map_err(|e| e.to_string())?;
            (density, traces)
        };
        // The oracle leaves its last-evaluated (perturbed) parameters
        // installed and its first evaluation updated the batch-norm running
        // statistics; restore both before anything else touches the network.
        net.set_params(&params).map_err(|e| e.to_string())?;
        net.set_state(&state).map_err(|e| e.to_string())?;

        // Empirical-vs-static sensitivity ranking over quantizable layers.
        // Both sides are per-weight curvature magnitudes: the measured
        // `|tr(H_ii)| / nᵢ` against the matrix's quadratic-model
        // projection (raw `err` cells can all clamp at the analyzer's
        // loss-interval ceiling, which would make the ranking constant).
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[bits])
            .map_err(|e| e.to_string())?;
        let sens = matrix.to_layer_sensitivities();
        let mut empirical = Vec::new();
        let mut certified = Vec::new();
        for (info, trace) in infos.iter().zip(&traces) {
            if !info.kind.is_quantizable() {
                continue;
            }
            if let Some(s) = sens.iter().find(|s| s.name == info.name) {
                empirical.push((trace.mean / s.numel.max(1) as f32).abs());
                certified.push(s.curvature);
            }
        }
        // Checked Spearman: a constant or sub-2-layer ranking reports as
        // explicitly undefined instead of a NaN that comparisons ignore.
        let rho = spearman_rank_checked(&empirical, &certified);
        let rho_str = rho.map_or_else(|| "undefined".to_string(), |r| format!("{r:.3}"));
        let global_trace: f32 = traces.iter().map(|t| t.mean).sum();

        println!(
            "{} after {} epochs: λ_max {:.4} ± {:.4}, λ_min {:.4}, tr(H) {:.2}, \
             E[λ²] {:.4}, trace-vs-static Spearman ρ {} over {} layers",
            name,
            rec.epochs.len(),
            density.lambda_max.mean,
            density.lambda_max.ci95(),
            density.lambda_min.mean,
            global_trace,
            density.second_moment.mean,
            rho_str,
            empirical.len()
        );
        println!(
            "{} spectral density (SLQ, {} probes × {} steps, σ {:.3}):",
            name, probes, steps, density.sigma
        );
        let rows: Vec<(String, f64)> = density
            .grid
            .iter()
            .zip(&density.density)
            .map(|(&x, &d)| (format!("{x:>10.3}"), f64::from(d)))
            .collect();
        print!("{}", hero_obs::ascii_bars(&rows, 48));

        hero_obs::Event::new("spectrum_summary")
            .str("method", &name)
            .f64("lambda_max", f64::from(density.lambda_max.mean))
            .f64("lambda_min", f64::from(density.lambda_min.mean))
            .f64("trace", f64::from(global_trace))
            .f64("second_moment", f64::from(density.second_moment.mean))
            .f64("spearman", f64::from(rho.unwrap_or(f32::NAN)))
            .emit();

        if !first_method {
            json.push_str(",\n");
        }
        first_method = false;
        let _ = write!(
            json,
            "    {{\n      \"method\": \"{}\",\n      \"test_acc\": {},\n      \
             \"lambda_max\": {},\n      \"lambda_max_se\": {},\n      \
             \"lambda_min\": {},\n      \"mean_eigenvalue\": {},\n      \
             \"second_moment\": {},\n      \"trace\": {},\n      \
             \"spearman_trace_vs_static\": {},\n      \"sigma\": {},\n",
            name,
            jnum(rec.final_test_acc),
            jnum(density.lambda_max.mean),
            jnum(density.lambda_max.std_error),
            jnum(density.lambda_min.mean),
            jnum(density.mean_eigenvalue.mean),
            jnum(density.second_moment.mean),
            jnum(global_trace),
            rho.map_or_else(|| "null".into(), jnum),
            jnum(density.sigma)
        );
        let grid: Vec<String> = density.grid.iter().map(|&v| jnum(v)).collect();
        let dens: Vec<String> = density.density.iter().map(|&v| jnum(v)).collect();
        let _ = write!(
            json,
            "      \"grid\": [{}],\n      \"density\": [{}],\n      \"layers\": [\n",
            grid.join(", "),
            dens.join(", ")
        );
        for (i, (info, trace)) in infos.iter().zip(&traces).enumerate() {
            let _ = write!(
                json,
                "        {{\"layer\": \"{}\", \"quantizable\": {}, \"trace\": {}, \
                 \"trace_se\": {}}}{}",
                info.name.replace(['"', '\\'], "_"),
                info.kind.is_quantizable(),
                jnum(trace.mean),
                jnum(trace.std_error),
                if i + 1 < traces.len() { ",\n" } else { "\n" }
            );
        }
        json.push_str("      ],\n      \"trajectory\": [\n");
        for (i, p) in rec.spectra.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"epoch\": {}, \"lambda_max\": {}, \"trace\": {}, \
                 \"second_moment\": {}}}{}",
                p.epoch,
                jnum(p.lambda_max.mean),
                jnum(p.global_trace()),
                jnum(p.second_moment.mean),
                if i + 1 < rec.spectra.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        json.push_str("      ]\n    }");
    }
    json.push_str("\n  ]\n}\n");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, &json).map_err(|e| e.to_string())?;
    println!("spectrum artifact written to {}", out_path.display());
    Ok(())
}

fn cmd_analyze(opts: &HashMap<String, String>) -> Result<(), String> {
    let (mut net, _, train_set, _) = obtain_model(opts)?;
    let n = train_set.len().min(128);
    let images = train_set.images.narrow(0, n).map_err(|e| e.to_string())?;
    let labels = train_set.labels[..n].to_vec();
    let params = net.params();
    let nonzeros: usize = params.iter().map(|p| p.norm_l0()).sum();
    let mut oracle = BatchOracle::new(&mut net, &images, &labels);
    let (loss, grads) = oracle.grad(&params).map_err(|e| e.to_string())?;
    let (hz, _) = hessian_norm_probe(&mut oracle, &params, 1e-3).map_err(|e| e.to_string())?;
    let spectrum = lanczos_spectrum(
        &mut oracle,
        &params,
        10,
        1e-3,
        &mut StdRng::seed_from_u64(0),
    )
    .map_err(|e| e.to_string())?;
    let bounds = BoundInputs {
        grad_l2: global_norm_l2(&grads),
        grad_l1: global_norm_l1(&grads),
        eigenvalue: spectrum.lambda_max(),
        nonzeros,
        tolerance: 0.1,
    };
    let report = format!(
        "curvature analysis on {n} training samples:\n\
         \x20 loss                      {loss:.4}\n\
         \x20 ‖g‖₂ / ‖g‖₁               {:.4} / {:.4}\n\
         \x20 ‖Hz‖ (Fig. 2 probe)       {hz:.4}\n\
         \x20 λ_max / λ_min (Lanczos)   {:.4} / {:.4}\n\
         \x20 theorem 3 ‖δ*‖₂ bound     {:.5}\n\
         \x20 theorem 3 ‖δ*‖∞ bound     {:.6}\n\
         \x20 max safe bin width Δ      {:.6}",
        bounds.grad_l2,
        bounds.grad_l1,
        spectrum.lambda_max(),
        spectrum.lambda_min(),
        bounds.l2_bound(),
        bounds.linf_bound(),
        bounds.max_safe_bin_width()
    );
    hero_obs::Event::new("analysis")
        .u64("samples", n as u64)
        .f64("loss", f64::from(loss))
        .f64("grad_l2", f64::from(bounds.grad_l2))
        .f64("grad_l1", f64::from(bounds.grad_l1))
        .f64("hz_norm", f64::from(hz))
        .f64("lambda_max", f64::from(spectrum.lambda_max()))
        .f64("lambda_min", f64::from(spectrum.lambda_min()))
        .f64("l2_bound", f64::from(bounds.l2_bound()))
        .f64("linf_bound", f64::from(bounds.linf_bound()))
        .f64("max_safe_bin_width", f64::from(bounds.max_safe_bin_width()))
        .human(report)
        .emit();
    Ok(())
}

/// `hero artifact inspect --path FILE`: decodes an artifact (verifying
/// magic, version and checksum on the way in) and prints its meta,
/// tensor inventory, quantization decision and resume state.
fn cmd_artifact_inspect(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = opts
        .get("path")
        .ok_or_else(|| "artifact inspect needs --path FILE".to_string())?;
    let art = load_artifact(PathBuf::from(path)).map_err(|e| e.to_string())?;
    print!("{}", art.describe());
    Ok(())
}
