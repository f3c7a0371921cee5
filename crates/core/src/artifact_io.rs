//! Conversions between live training state and the on-disk model
//! artifact format (`hero-artifact`, DESIGN.md §16).
//!
//! `hero-artifact` defines the container and its plain-data sections;
//! this module owns the semantics: how a [`Network`], a [`TrainConfig`]
//! and provenance map onto META, TENSORS and STATE, and how a loaded
//! artifact is turned back into an identical model. It also owns the
//! RESUME section's schema: the [`TrainerState`] (resume cursor and
//! [`TrainRecord`]) is encoded and decoded here, field by field, with the
//! container's bounded primitives, and [`load_artifact`] decodes it once
//! as it loads. Everything is deterministic: meta keys are written in one
//! fixed order and tensors in the network's canonical parameter order, so
//! the same run always produces byte-identical files.
//!
//! The pipeline built on top:
//!
//! ```text
//! hero train --save model.ha          # train_to_artifact
//!   └─ --checkpoint-every N           # resumable epoch checkpoints
//! hero preflight --artifact model.ha  # network_from_artifact
//! hero quantize --artifact model.ha   # network_from_artifact + attach_quant
//! ```

use crate::config::TrainConfig;
use crate::metrics::{EpochMetrics, TrainRecord};
use crate::spectrum::{LayerTrace, SpectrumProbe};
use crate::trainer::{train_resumable, TrainerState};
use hero_artifact::{
    put_f32, put_str, put_tensor, put_u32, put_u64, Artifact, ArtifactError, MetaValue, QuantEntry,
    Reader, StateEntry, TensorEntry,
};
use hero_data::{Augment, Dataset};
use hero_hessian::Estimate;
use hero_nn::models::{mlp, ModelConfig, ModelKind};
use hero_nn::{Network, ParamInfo, ParamKind};
use hero_optim::Method;
use hero_quant::{quantize_tensor, QuantScheme};
use hero_tensor::rng::StdRng;
use hero_tensor::{Result, Tensor, TensorError};
use std::path::Path;

/// Value of the `format` meta key every artifact written here carries.
pub const FORMAT_NAME: &str = "hero-artifact";

/// Which architecture an artifact's weights belong to — everything needed
/// to rebuild the module tree before overwriting its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// A flatten + hidden-layers MLP ([`mlp`]), by hidden widths.
    Mlp(Vec<usize>),
    /// One of the paper's convolutional stand-ins.
    Kind(ModelKind),
}

impl ModelSpec {
    fn kind_name(&self) -> String {
        match self {
            ModelSpec::Mlp(_) => "mlp".to_string(),
            ModelSpec::Kind(ModelKind::Resnet) => "resnet".to_string(),
            ModelSpec::Kind(ModelKind::Mobilenet) => "mobilenet".to_string(),
            ModelSpec::Kind(ModelKind::Vgg) => "vgg".to_string(),
        }
    }

    /// The model's display name: the paper name of a convolutional
    /// stand-in, `mlp` otherwise.
    pub fn paper_name(&self) -> &'static str {
        match self {
            ModelSpec::Mlp(_) => "mlp",
            ModelSpec::Kind(kind) => kind.paper_name(),
        }
    }

    /// Builds a fresh network of this architecture. The initialization
    /// draws are irrelevant to artifact loading — every parameter and
    /// state buffer is overwritten — so a fixed RNG is used.
    pub fn build(&self, cfg: ModelConfig) -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        match self {
            ModelSpec::Mlp(hidden) => mlp(cfg, hidden, &mut rng),
            ModelSpec::Kind(kind) => kind.build(cfg, &mut rng),
        }
    }
}

/// Run identity and provenance written into (and read back from) an
/// artifact's META section.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Architecture of the serialized weights.
    pub model: ModelSpec,
    /// Model shape configuration.
    pub model_cfg: ModelConfig,
    /// The full training configuration (provenance *and* the recipe a
    /// checkpoint resume continues under).
    pub config: TrainConfig,
    /// Git revision of the code that produced the artifact (or a fixed
    /// label like `"golden"` for committed fixtures).
    pub git_rev: String,
    /// FNV-1a64 hash of the rendered preflight report, when one gated the
    /// run (see [`preflight_hash`]).
    pub preflight_hash: Option<u64>,
}

/// Hash of a rendered preflight report, stored as provenance so an
/// artifact records which static-analysis verdict its training run passed.
pub fn preflight_hash(report: &hero_analyze::Report) -> u64 {
    hero_artifact::fnv1a64(report.to_string().as_bytes())
}

fn art_err(e: ArtifactError) -> TensorError {
    TensorError::InvalidArgument(e.to_string())
}

fn missing(key: &str) -> TensorError {
    TensorError::InvalidArgument(format!("artifact meta is missing `{key}`"))
}

fn meta_u64(art: &Artifact, key: &str) -> Result<u64> {
    art.meta_u64(key).ok_or_else(|| missing(key))
}

fn meta_f64(art: &Artifact, key: &str) -> Result<f64> {
    art.meta_f64(key).ok_or_else(|| missing(key))
}

fn meta_bool(art: &Artifact, key: &str) -> Result<bool> {
    art.meta_bool(key).ok_or_else(|| missing(key))
}

fn meta_str<'a>(art: &'a Artifact, key: &str) -> Result<&'a str> {
    art.meta_str(key).ok_or_else(|| missing(key))
}

// --- meta section ---------------------------------------------------------

fn write_meta(art: &mut Artifact, meta: &RunMeta) {
    art.set_meta("format", MetaValue::Str(FORMAT_NAME.to_string()));
    art.set_meta("model.kind", MetaValue::Str(meta.model.kind_name()));
    if let ModelSpec::Mlp(hidden) = &meta.model {
        let widths: Vec<String> = hidden.iter().map(usize::to_string).collect();
        art.set_meta("model.hidden", MetaValue::Str(widths.join(",")));
    }
    art.set_meta(
        "model.classes",
        MetaValue::U64(meta.model_cfg.classes as u64),
    );
    art.set_meta(
        "model.in_channels",
        MetaValue::U64(meta.model_cfg.in_channels as u64),
    );
    art.set_meta(
        "model.input_hw",
        MetaValue::U64(meta.model_cfg.input_hw as u64),
    );
    art.set_meta("model.width", MetaValue::U64(meta.model_cfg.width as u64));

    let c = &meta.config;
    let (method_kind, h, gamma, lambda) = match c.method {
        Method::Sgd => ("sgd", 0.0, 0.0, 0.0),
        Method::FirstOrderOnly { h } => ("first_order", h, 0.0, 0.0),
        Method::GradL1 { lambda } => ("grad_l1", 0.0, 0.0, lambda),
        Method::Hero { h, gamma } => ("hero", h, gamma, 0.0),
    };
    art.set_meta("train.method.kind", MetaValue::Str(method_kind.to_string()));
    art.set_meta("train.method.h", MetaValue::F64(f64::from(h)));
    art.set_meta("train.method.gamma", MetaValue::F64(f64::from(gamma)));
    art.set_meta("train.method.lambda", MetaValue::F64(f64::from(lambda)));
    art.set_meta("train.epochs", MetaValue::U64(c.epochs as u64));
    art.set_meta("train.batch_size", MetaValue::U64(c.batch_size as u64));
    art.set_meta("train.lr", MetaValue::F64(f64::from(c.lr)));
    art.set_meta(
        "train.weight_decay",
        MetaValue::F64(f64::from(c.weight_decay)),
    );
    art.set_meta("train.momentum", MetaValue::F64(f64::from(c.momentum)));
    art.set_meta("train.augment.pad", MetaValue::U64(c.augment.pad as u64));
    art.set_meta("train.augment.hflip", MetaValue::Bool(c.augment.hflip));
    art.set_meta("train.eval_every", MetaValue::U64(c.eval_every as u64));
    art.set_meta("train.probe_every", MetaValue::U64(c.probe_every as u64));
    art.set_meta(
        "train.spectrum_every",
        MetaValue::U64(c.spectrum_every as u64),
    );
    art.set_meta("train.seed", MetaValue::U64(c.seed));
    // The exact worker count is wall-clock only (every count ≥ 1 is
    // bitwise identical), but serial (0) vs sharded (≥ 1) are distinct
    // trajectories — record which one the artifact came from.
    art.set_meta("train.sharded", MetaValue::Bool(c.threads > 0));

    art.set_meta("provenance.git_rev", MetaValue::Str(meta.git_rev.clone()));
    if let Some(h) = meta.preflight_hash {
        art.set_meta("provenance.preflight_hash", MetaValue::U64(h));
    }
}

/// Reads the run identity back out of an artifact's META section.
///
/// The returned config's `threads` field is `1` when the artifact came
/// from a sharded run and `0` for a serial one — any worker count ≥ 1
/// reproduces the sharded trajectory bitwise, so the distinction (not
/// the original count) is what round-trips.
///
/// # Errors
///
/// Returns an error on missing or malformed meta entries.
pub fn run_meta_from_artifact(art: &Artifact) -> Result<RunMeta> {
    match art.meta_str("format") {
        Some(FORMAT_NAME) => {}
        other => {
            return Err(TensorError::InvalidArgument(format!(
                "artifact format is {other:?}, expected `{FORMAT_NAME}`"
            )))
        }
    }
    let model = match meta_str(art, "model.kind")? {
        "mlp" => {
            let hidden = meta_str(art, "model.hidden")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<usize>().map_err(|_| {
                        TensorError::InvalidArgument(format!(
                            "artifact `model.hidden` entry `{s}` is not a width"
                        ))
                    })
                })
                .collect::<Result<Vec<usize>>>()?;
            ModelSpec::Mlp(hidden)
        }
        "resnet" => ModelSpec::Kind(ModelKind::Resnet),
        "mobilenet" => ModelSpec::Kind(ModelKind::Mobilenet),
        "vgg" => ModelSpec::Kind(ModelKind::Vgg),
        other => {
            return Err(TensorError::InvalidArgument(format!(
                "artifact names unknown model kind `{other}`"
            )))
        }
    };
    let model_cfg = ModelConfig {
        classes: meta_u64(art, "model.classes")? as usize,
        in_channels: meta_u64(art, "model.in_channels")? as usize,
        input_hw: meta_u64(art, "model.input_hw")? as usize,
        width: meta_u64(art, "model.width")? as usize,
    };
    let method = match meta_str(art, "train.method.kind")? {
        "sgd" => Method::Sgd,
        "first_order" => Method::FirstOrderOnly {
            h: meta_f64(art, "train.method.h")? as f32,
        },
        "grad_l1" => Method::GradL1 {
            lambda: meta_f64(art, "train.method.lambda")? as f32,
        },
        "hero" => Method::Hero {
            h: meta_f64(art, "train.method.h")? as f32,
            gamma: meta_f64(art, "train.method.gamma")? as f32,
        },
        other => {
            return Err(TensorError::InvalidArgument(format!(
                "artifact names unknown training method `{other}`"
            )))
        }
    };
    let config = TrainConfig {
        method,
        epochs: meta_u64(art, "train.epochs")? as usize,
        batch_size: meta_u64(art, "train.batch_size")? as usize,
        lr: meta_f64(art, "train.lr")? as f32,
        weight_decay: meta_f64(art, "train.weight_decay")? as f32,
        momentum: meta_f64(art, "train.momentum")? as f32,
        augment: Augment {
            pad: meta_u64(art, "train.augment.pad")? as usize,
            hflip: meta_bool(art, "train.augment.hflip")?,
        },
        eval_every: meta_u64(art, "train.eval_every")? as usize,
        probe_every: meta_u64(art, "train.probe_every")? as usize,
        spectrum_every: meta_u64(art, "train.spectrum_every")? as usize,
        seed: meta_u64(art, "train.seed")?,
        threads: usize::from(meta_bool(art, "train.sharded")?),
    };
    Ok(RunMeta {
        model,
        model_cfg,
        config,
        git_rev: meta_str(art, "provenance.git_rev")?.to_string(),
        preflight_hash: art.meta_u64("provenance.preflight_hash"),
    })
}

/// Refuses the model stored at `path` unless its run identity matches the
/// `requested` one, naming the first differing meta key. Provenance keys
/// (`git_rev`, preflight hash) are skipped, and the worker count compares
/// only as serial vs sharded (`train.sharded`), which is all an artifact
/// records.
///
/// # Errors
///
/// [`TensorError::RecipeMismatch`] on the first difference.
pub(crate) fn check_run_meta(path: &Path, cached: &RunMeta, requested: &RunMeta) -> Result<()> {
    let (mut have, mut want) = (Artifact::new(), Artifact::new());
    write_meta(&mut have, cached);
    write_meta(&mut want, requested);
    // Both lists are in the one writer order, so they pair up key by key
    // until the model kinds differ, which the pairing reports first.
    let differs = (have.meta.iter().zip(&want.meta))
        .filter(|(_, (key, _))| !key.starts_with("provenance."))
        .find(|(h, w)| h != w);
    match differs {
        None => Ok(()),
        Some(((_, cached), (field, requested))) => Err(TensorError::RecipeMismatch {
            path: path.display().to_string(),
            field: field.clone(),
            cached: cached.to_string(),
            requested: requested.to_string(),
        }),
    }
}

// --- tensor/state sections ------------------------------------------------

fn param_kind_tag(kind: ParamKind) -> u8 {
    match kind {
        ParamKind::Weight => 0,
        ParamKind::Bias => 1,
        ParamKind::BnGamma => 2,
        ParamKind::BnBeta => 3,
    }
}

fn tensor_entry(t: &Tensor, info: &ParamInfo) -> TensorEntry {
    TensorEntry {
        name: info.name.clone(),
        kind: param_kind_tag(info.kind),
        dims: t.dims().iter().map(|&d| d as u64).collect(),
        data: t.data().to_vec(),
    }
}

fn tensor_from_entry(e: TensorEntry) -> Result<Tensor> {
    let dims: Vec<usize> = e.dims.iter().map(|&d| d as usize).collect();
    Tensor::from_vec(e.data, dims.as_slice())
}

fn write_model_sections(art: &mut Artifact, net: &Network) {
    let params = net.params();
    art.tensors = params
        .iter()
        .zip(&net.param_infos())
        .map(|(t, info)| tensor_entry(t, info))
        .collect();
    art.state = net
        .state()
        .into_iter()
        .map(|(name, data)| StateEntry { name, data })
        .collect();
}

/// Rebuilds the serialized network: constructs the architecture named in
/// meta, then overwrites every parameter and batch-norm statistic with
/// the artifact's values. Tensor names are checked against the rebuilt
/// module tree so a renamed or reordered layer fails loudly instead of
/// silently wearing the wrong weights.
///
/// # Errors
///
/// Returns an error on meta/shape/name mismatches.
pub fn network_from_artifact(art: &Artifact) -> Result<Network> {
    let meta = run_meta_from_artifact(art)?;
    let mut net = meta.model.build(meta.model_cfg);
    let infos = net.param_infos();
    if infos.len() != art.tensors.len() {
        return Err(TensorError::InvalidArgument(format!(
            "artifact carries {} tensors, model `{}` has {} parameters",
            art.tensors.len(),
            meta.model.kind_name(),
            infos.len()
        )));
    }
    for (info, entry) in infos.iter().zip(&art.tensors) {
        if info.name != entry.name {
            return Err(TensorError::InvalidArgument(format!(
                "artifact tensor `{}` does not match model parameter `{}`",
                entry.name, info.name
            )));
        }
    }
    let params = (art.tensors.iter().cloned())
        .map(tensor_from_entry)
        .collect::<Result<Vec<_>>>()?;
    net.set_params(&params)?;
    let state: Vec<(String, Vec<f32>)> = art
        .state
        .iter()
        .map(|s| (s.name.clone(), s.data.clone()))
        .collect();
    let expected: Vec<String> = net.state().into_iter().map(|(n, _)| n).collect();
    for (have, want) in state.iter().map(|(n, _)| n).zip(&expected) {
        if have != want {
            return Err(TensorError::InvalidArgument(format!(
                "artifact state buffer `{have}` does not match model buffer `{want}`"
            )));
        }
    }
    net.set_state(&state)?;
    hero_obs::counters::ARTIFACT_LOADS.incr();
    Ok(net)
}

// --- resume section -------------------------------------------------------
//
// The RESUME section holds a `TrainerState`: next epoch, step, gradient
// evaluations and the loader and augmentation RNG states (u64 each); the
// momentum tensors (u32 count); the epoch rows (u32 count, each a u64
// epoch and five f32); the final train and test accuracies (f32); the
// spectrum probes (u32 count, each a u64 epoch, four estimates and a u32
// count of layer rows: name, quantizable byte, trace estimate). An
// estimate is its mean and standard error (f32) and sample count (u64).

fn put_estimate(buf: &mut Vec<u8>, e: &Estimate) {
    put_f32(buf, e.mean);
    put_f32(buf, e.std_error);
    put_u64(buf, e.samples as u64);
}

fn read_estimate(r: &mut Reader) -> hero_artifact::Result<Estimate> {
    Ok(Estimate {
        mean: r.f32()?,
        std_error: r.f32()?,
        samples: r.u64()? as usize,
    })
}

fn encode_resume(net: &Network, state: &TrainerState) -> Vec<u8> {
    let rec = &state.record;
    let mut b = Vec::new();
    for v in [state.next_epoch, state.step, rec.grad_evals] {
        put_u64(&mut b, v as u64);
    }
    put_u64(&mut b, state.loader_rng);
    put_u64(&mut b, state.aug_rng);
    let momentum: Vec<TensorEntry> = (state.momentum.iter().zip(&net.param_infos()))
        .map(|(t, info)| tensor_entry(t, info))
        .collect();
    put_u32(&mut b, momentum.len() as u32);
    for t in &momentum {
        put_tensor(&mut b, t);
    }
    put_u32(&mut b, rec.epochs.len() as u32);
    for m in &rec.epochs {
        put_u64(&mut b, m.epoch as u64);
        for v in [
            m.train_loss,
            m.train_acc,
            m.test_acc,
            m.hessian_norm,
            m.regularizer,
        ] {
            put_f32(&mut b, v);
        }
    }
    put_f32(&mut b, rec.final_train_acc);
    put_f32(&mut b, rec.final_test_acc);
    put_u32(&mut b, rec.spectra.len() as u32);
    for s in &rec.spectra {
        put_u64(&mut b, s.epoch as u64);
        for e in [
            &s.lambda_max,
            &s.lambda_min,
            &s.mean_eigenvalue,
            &s.second_moment,
        ] {
            put_estimate(&mut b, e);
        }
        put_u32(&mut b, s.layers.len() as u32);
        for l in &s.layers {
            put_str(&mut b, &l.name);
            b.push(u8::from(l.quantizable));
            put_estimate(&mut b, &l.trace);
        }
    }
    b
}

/// Decodes [`encode_resume`]'s bytes; the record is labelled `method`.
fn decode_resume(bytes: &[u8], method: &str) -> hero_artifact::Result<TrainerState> {
    let mut r = Reader::new(bytes);
    let (next_epoch, step, grad_evals) = (r.u64()?, r.u64()?, r.u64()?);
    let (loader_rng, aug_rng) = (r.u64()?, r.u64()?);
    let n = r.counted(6)?;
    let mut momentum = Vec::with_capacity(n);
    for _ in 0..n {
        let t = tensor_from_entry(r.tensor()?).map_err(|e| r.malformed(e.to_string()))?;
        momentum.push(t);
    }
    let n = r.counted(28)?;
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        epochs.push(EpochMetrics {
            epoch: r.u64()? as usize,
            train_loss: r.f32()?,
            train_acc: r.f32()?,
            test_acc: r.f32()?,
            hessian_norm: r.f32()?,
            regularizer: r.f32()?,
        });
    }
    let (final_train_acc, final_test_acc) = (r.f32()?, r.f32()?);
    let n = r.counted(76)?;
    let mut spectra = Vec::with_capacity(n);
    for _ in 0..n {
        let epoch = r.u64()? as usize;
        let lambda_max = read_estimate(&mut r)?;
        let lambda_min = read_estimate(&mut r)?;
        let mean_eigenvalue = read_estimate(&mut r)?;
        let second_moment = read_estimate(&mut r)?;
        let n_layers = r.counted(21)?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            layers.push(LayerTrace {
                name: r.string()?,
                quantizable: r.bool()?,
                trace: read_estimate(&mut r)?,
            });
        }
        spectra.push(SpectrumProbe {
            epoch,
            lambda_max,
            lambda_min,
            mean_eigenvalue,
            second_moment,
            layers,
        });
    }
    if r.remaining() > 0 {
        return Err(r.malformed(format!(
            "{} trailing bytes after the trainer state",
            r.remaining()
        )));
    }
    Ok(TrainerState {
        next_epoch: next_epoch as usize,
        step: step as usize,
        loader_rng,
        aug_rng,
        momentum,
        record: TrainRecord {
            method: method.to_string(),
            epochs,
            final_test_acc,
            final_train_acc,
            grad_evals: grad_evals as usize,
            spectra,
        },
    })
}

/// Decodes the trainer state of an artifact's RESUME section, if it has
/// one; its record is labelled with the method named in META.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] naming the RESUME section when
/// its bytes are malformed or truncated (offsets count from the section's
/// first byte), or when META is.
pub fn trainer_state_from_artifact(art: &Artifact) -> Result<Option<TrainerState>> {
    let Some(bytes) = &art.resume else {
        return Ok(None);
    };
    let meta = run_meta_from_artifact(art)?;
    decode_resume(bytes, meta.config.method.name())
        .map(Some)
        .map_err(|e| TensorError::InvalidArgument(format!("RESUME section: {e}")))
}

/// The [`TrainRecord`] of the run that produced an artifact (final saves
/// carry the full history in their RESUME section).
///
/// # Errors
///
/// Returns an error when the artifact has no RESUME section or its meta
/// or RESUME section is malformed.
pub fn record_from_artifact(art: &Artifact) -> Result<TrainRecord> {
    history(trainer_state_from_artifact(art)?)
}

/// The record of an artifact's decoded RESUME section.
pub(crate) fn history(state: Option<TrainerState>) -> Result<TrainRecord> {
    state.map(|s| s.record).ok_or_else(|| {
        TensorError::InvalidArgument(
            "artifact carries no training history (RESUME section missing)".to_string(),
        )
    })
}

/// The `hero artifact inspect` text: [`Artifact::describe`] followed by a
/// `resume:` line summarizing `state`, the artifact's decoded RESUME
/// section (as [`load_artifact`] returns it).
pub fn describe_artifact(art: &Artifact, state: Option<&TrainerState>) -> String {
    let resume = match state {
        Some(s) => format!(
            "next_epoch={} step={} grad_evals={} momentum_buffers={} metrics_rows={} spectra={}",
            s.next_epoch,
            s.step,
            s.record.grad_evals,
            s.momentum.len(),
            s.record.epochs.len(),
            s.record.spectra.len()
        ),
        // Final saves and checkpoints carry RESUME; `attach_quant` drops it.
        None if !art.quant.is_empty() => "none (quantized snapshot)".to_string(),
        None => "none".to_string(),
    };
    format!("{}  resume: {resume}\n", art.describe())
}

// --- artifact assembly ----------------------------------------------------

/// Builds a model artifact: META provenance, parameter tensors and
/// batch-norm state, plus (when `state` is given) the RESUME section that
/// makes it a checkpoint — or, on final saves, preserves the training
/// history.
pub fn build_artifact(net: &Network, meta: &RunMeta, state: Option<&TrainerState>) -> Artifact {
    let mut art = Artifact::new();
    write_meta(&mut art, meta);
    write_model_sections(&mut art, net);
    art.resume = state.map(|s| encode_resume(net, s));
    art
}

/// Saves an artifact, bumping the `artifact_saves` counter.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_artifact(art: &Artifact, path: impl AsRef<Path>) -> Result<()> {
    art.save(path).map_err(art_err)?;
    hero_obs::counters::ARTIFACT_SAVES.incr();
    Ok(())
}

/// Loads an artifact from disk together with the trainer state of its
/// RESUME section, which is decoded here, once, so a malformed section
/// fails the load.
///
/// # Errors
///
/// Propagates decode and I/O errors as [`TensorError::InvalidArgument`].
pub fn load_artifact(path: impl AsRef<Path>) -> Result<(Artifact, Option<TrainerState>)> {
    let art = Artifact::load(path).map_err(art_err)?;
    let state = trainer_state_from_artifact(&art)?;
    Ok((art, state))
}

/// Attaches a post-training quantization decision to an artifact: every
/// quantizable tensor of `net` is quantized at `bits` (symmetric,
/// per-tensor) and replaces its TENSORS entry (non-quantizable tensors
/// keep full precision), the QUANT section records each tensor's width and
/// grid, and the RESUME section is dropped: a quantized snapshot is a
/// deployment artifact, not a training state.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for an unsupported width.
pub fn attach_quant(art: &mut Artifact, net: &Network, bits: u8) -> Result<()> {
    let scheme = QuantScheme::symmetric(bits)?;
    art.quant.clear();
    for ((slot, p), info) in art
        .tensors
        .iter_mut()
        .zip(net.params())
        .zip(net.param_infos())
    {
        let values = if info.kind.is_quantizable() {
            let q = quantize_tensor(&p, &scheme);
            art.quant.push(QuantEntry {
                name: info.name,
                bits,
                bin_width: q.bin_width,
            });
            q.values
        } else {
            p
        };
        slot.data = values.data().to_vec();
    }
    art.resume = None;
    Ok(())
}

// --- high-level pipeline --------------------------------------------------

/// Trains per `meta.config` and returns the record together with the
/// final model artifact (which embeds the full training history). With a
/// `checkpoint_path`, a resumable checkpoint artifact is written there
/// after every `checkpoint_every`-th epoch but the last.
///
/// # Errors
///
/// Refuses, before training, a `checkpoint_path` the cadence would never
/// write ([`TensorError::NoCheckpoint`]). Propagates training and
/// checkpoint-write errors (including [`TensorError::Diverged`]), and
/// refuses to return an artifact whose weights or batch-norm state hold
/// NaN or infinity.
pub fn train_to_artifact(
    net: &mut Network,
    train_set: &Dataset,
    test_set: &Dataset,
    meta: &RunMeta,
    checkpoint_every: usize,
    checkpoint_path: Option<&Path>,
) -> Result<(TrainRecord, Artifact)> {
    train_or_resume(
        net,
        train_set,
        test_set,
        meta,
        None,
        checkpoint_every,
        checkpoint_path,
    )
}

/// Resumes training from a checkpoint artifact and its decoded trainer
/// `state` (as [`load_artifact`] returns them): rebuilds the network,
/// restores the trainer snapshot and continues to the configured epoch
/// count, producing a record and final artifact bitwise equal to the
/// uninterrupted run's.
///
/// # Errors
///
/// Returns an error if the artifact is not a checkpoint (no RESUME
/// section) or is malformed; otherwise as [`train_to_artifact`].
pub fn resume_from_artifact(
    art: &Artifact,
    state: Option<TrainerState>,
    train_set: &Dataset,
    test_set: &Dataset,
    checkpoint_every: usize,
    checkpoint_path: Option<&Path>,
) -> Result<(TrainRecord, Artifact, Network)> {
    let meta = run_meta_from_artifact(art)?;
    let state = state.ok_or_else(|| {
        TensorError::InvalidArgument(
            "artifact is not a resumable checkpoint (RESUME section missing)".to_string(),
        )
    })?;
    let mut net = network_from_artifact(art)?;
    let (record, final_art) = train_or_resume(
        &mut net,
        train_set,
        test_set,
        &meta,
        Some(state),
        checkpoint_every,
        checkpoint_path,
    )?;
    Ok((record, final_art, net))
}

fn train_or_resume(
    net: &mut Network,
    train_set: &Dataset,
    test_set: &Dataset,
    meta: &RunMeta,
    resume: Option<TrainerState>,
    checkpoint_every: usize,
    checkpoint_path: Option<&Path>,
) -> Result<(TrainRecord, Artifact)> {
    let meta_for_hook = meta.clone();
    let mut on_checkpoint = |net: &mut Network, state: &TrainerState| -> Result<()> {
        if let Some(path) = checkpoint_path {
            let ckpt = build_artifact(net, &meta_for_hook, Some(state));
            save_artifact(&ckpt, path)?;
        }
        Ok(())
    };
    let every = match checkpoint_path {
        // `train_resumable` checkpoints after epoch e when e + 1 is a
        // multiple of `every` below the epoch count.
        Some(path) => {
            let first_epoch = resume.as_ref().map_or(0, |s| s.next_epoch);
            let epochs = meta.config.epochs;
            if !(first_epoch + 1..epochs).any(|n| checkpoint_every > 0 && n % checkpoint_every == 0)
            {
                return Err(TensorError::NoCheckpoint {
                    path: path.display().to_string(),
                    first_epoch,
                    epochs,
                    every: checkpoint_every,
                });
            }
            checkpoint_every
        }
        None => 0,
    };
    let (record, final_state) = train_resumable(
        net,
        train_set,
        test_set,
        &meta.config,
        resume,
        every,
        &mut on_checkpoint,
    )?;
    let final_art = build_artifact(net, meta, Some(&final_state));
    // The format preserves NaN bits by design, so a diverged model would
    // save without complaint; refuse it here instead.
    let entries = final_art.tensors.iter().map(|t| (&t.name, &t.data));
    let state = final_art.state.iter().map(|t| (&t.name, &t.data));
    if let Some((name, _)) = entries
        .chain(state)
        .find(|(_, data)| !data.iter().all(|v| v.is_finite()))
    {
        return Err(TensorError::InvalidArgument(format!(
            "refusing to build a model artifact: `{name}` holds non-finite values"
        )));
    }
    Ok((record, final_art))
}

// --- golden recipe --------------------------------------------------------

/// The fixed smoke recipe behind the committed golden artifact: a tiny
/// HERO run on the synthetic C10 preset, sharded executor (so the bytes
/// are identical for every `HERO_THREADS ≥ 1`, under either GEMM kernel).
/// Shared by `hero train --golden-recipe`, the byte-pin regression test
/// and verify.sh so the recipe cannot drift between them.
pub fn golden_recipe() -> (Dataset, Dataset, Network, RunMeta) {
    let preset = hero_data::Preset::C10;
    let (train_set, test_set) = preset.load(0.05);
    // Honor `HERO_THREADS` but never drop to the serial path: every
    // worker count ≥ 1 runs the same sharded math, so the recipe's bytes
    // are invariant under the env var — which is exactly what the
    // golden-pin check in verify.sh exercises.
    let config = TrainConfig::new(
        Method::Hero {
            h: 0.2,
            gamma: 0.01,
        },
        2,
    )
    .with_batch_size(8)
    .with_lr(0.05)
    .with_seed(0x601D)
    .with_threads(hero_parallel::threads_from_env().max(1));
    let recipe = crate::experiment::Recipe {
        preset,
        model: ModelKind::Resnet,
        init_seed: 0x601D,
        config,
    };
    (train_set, test_set, recipe.network(), recipe.meta("golden"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_data::{SynthGenerator, SynthSpec};

    fn tiny_setup() -> (Network, RunMeta) {
        let model_cfg = ModelConfig {
            classes: 4,
            in_channels: 3,
            input_hw: 4,
            width: 4,
        };
        let model = ModelSpec::Mlp(vec![16]);
        let net = model.build(model_cfg);
        let config = TrainConfig::new(
            Method::Hero {
                h: 0.1,
                gamma: 0.01,
            },
            2,
        )
        .with_batch_size(16)
        .with_seed(11)
        .with_threads(0);
        (
            net,
            RunMeta {
                model,
                model_cfg,
                config,
                git_rev: "test".to_string(),
                preflight_hash: Some(42),
            },
        )
    }

    #[test]
    fn meta_round_trips_exactly() {
        let (net, meta) = tiny_setup();
        let art = build_artifact(&net, &meta, None);
        let back = run_meta_from_artifact(&art).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn network_round_trips_bitwise() {
        let (mut net, meta) = tiny_setup();
        // Move the weights off their init so the round trip is non-trivial.
        let mut params = net.params();
        for p in &mut params {
            let v: Vec<f32> = p.data().iter().map(|x| x * 1.5 + 0.01).collect();
            *p = Tensor::from_vec(v, p.dims()).unwrap();
        }
        net.set_params(&params).unwrap();
        let art = build_artifact(&net, &meta, None);
        let loaded = network_from_artifact(&art).unwrap();
        assert_eq!(loaded.params(), net.params());
        assert_eq!(loaded.state(), net.state());
        // Logits bitwise equal on a fixed batch.
        let spec = SynthSpec {
            classes: 4,
            hw: 4,
            noise_std: 0.2,
            ..SynthSpec::default()
        };
        let (data, _) = SynthGenerator::new(spec).train_test(8, 4);
        let a = net.predict(&data.images).unwrap();
        let b = loaded.predict(&data.images).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn tensor_name_mismatch_is_rejected() {
        let (net, meta) = tiny_setup();
        let mut art = build_artifact(&net, &meta, None);
        art.tensors[0].name = "wrong.name".to_string();
        assert!(network_from_artifact(&art).is_err());
    }

    #[test]
    fn mlp_hidden_widths_round_trip() {
        let (_, mut meta) = tiny_setup();
        meta.model = ModelSpec::Mlp(vec![24, 12]);
        let net = meta.model.build(meta.model_cfg);
        let art = build_artifact(&net, &meta, None);
        let back = run_meta_from_artifact(&art).unwrap();
        assert_eq!(back.model, ModelSpec::Mlp(vec![24, 12]));
        assert!(network_from_artifact(&art).is_ok());
    }

    #[test]
    fn trainer_state_round_trips_with_nan_placeholders() {
        let (net, meta) = tiny_setup();
        let single = Estimate {
            mean: 2.0,
            std_error: f32::NAN,
            samples: 1,
        };
        let state = TrainerState {
            next_epoch: 1,
            step: 3,
            loader_rng: 0xDEAD_BEEF,
            aug_rng: 0xFEED_FACE,
            momentum: net.params(),
            record: TrainRecord {
                method: "unused".into(),
                epochs: vec![EpochMetrics {
                    epoch: 0,
                    train_loss: 1.5,
                    train_acc: 0.4,
                    test_acc: f32::NAN,
                    hessian_norm: f32::NAN,
                    regularizer: 0.0,
                }],
                final_test_acc: f32::NAN,
                final_train_acc: 0.4,
                grad_evals: 9,
                spectra: vec![SpectrumProbe {
                    epoch: 0,
                    lambda_max: single,
                    lambda_min: single,
                    mean_eigenvalue: single,
                    second_moment: single,
                    layers: vec![LayerTrace {
                        name: "fc.weight".into(),
                        quantizable: true,
                        trace: single,
                    }],
                }],
            },
        };
        let art = build_artifact(&net, &meta, Some(&state));
        let back = trainer_state_from_artifact(&art).unwrap().unwrap();
        assert_eq!(back.record.method, "HERO", "named by META");
        let row = &back.record.epochs[0];
        assert!(row.test_acc.is_nan() && row.hessian_norm.is_nan());
        assert!(back.record.spectra[0].layers[0].trace.std_error.is_nan());
        assert_eq!(back.momentum, state.momentum);
        let again = build_artifact(&net, &meta, Some(&back));
        assert_eq!(again.resume, art.resume, "re-encoding is byte-identical");
        let text = describe_artifact(&art, Some(&back));
        let line = format!(
            "  resume: next_epoch=1 step=3 grad_evals=9 momentum_buffers={} metrics_rows=1 \
             spectra=1\n",
            state.momentum.len()
        );
        assert!(text.ends_with(&line), "{text}");
    }

    #[test]
    fn sharded_flag_round_trips_as_threads() {
        let (net, mut meta) = tiny_setup();
        meta.config.threads = 3;
        let art = build_artifact(&net, &meta, None);
        let back = run_meta_from_artifact(&art).unwrap();
        // Any count ≥ 1 is trajectory-equivalent; 1 is the canonical form.
        assert_eq!(back.config.threads, 1);
    }
}
