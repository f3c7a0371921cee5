//! `hero` — command-line front end for the HERO reproduction.
//!
//! ```text
//! hero train     --preset c10 --model resnet --method hero --epochs 30
//!                [--save model.ha] [--checkpoint ckpt.ha --checkpoint-every 5]
//!                [--resume ckpt.ha] [--git-rev REV] [--golden-recipe golden.ha]
//! hero quantize  --preset c10 (--artifact model.ha | --model resnet --method hero)
//!                --bits 3,4,6,8 [--mixed 5.0 [--sens static|proxy]]
//!                [--save quantized.ha [--save-bits 4]]
//! hero analyze   --preset c10 (--artifact model.ha | --model resnet --method hero)
//! hero preflight --preset c10 (--artifact model.ha [--stamp model.ha] | --model resnet)
//!                [--bits 3,4,8] [--noise-bits 4 | --mixed 4.0] [--budget 0.5]
//!                [--out-dir results/analyze]
//! hero noise-crosscheck --preset c10 --models resnet,mobilenet,vgg
//!                [--bits 2,4,8] [--trials 2] [--out results/analyze/noise_crosscheck.json]
//! hero spectrum  --preset c10 (--artifact model.ha | --model resnet
//!                --methods sgd,hero [--epochs 3]) [--steps 10] [--probes 4]
//!                [--out results/SPECTRUM_run.json]
//! hero artifact inspect --path model.ha
//! hero repro     <table1|table2|table3|fig1|fig2|fig3|c10-row> [--fast]
//!                [--artifact-dir DIR]
//! ```
//!
//! `train` trains a model and optionally saves it; `quantize` sweeps
//! post-training precision on a model (or a uniform/mixed allocation,
//! with the sensitivity source selectable between the certified static
//! noise matrix and the size/range proxy); `analyze` reports curvature
//! (λ_max via Lanczos, ‖Hz‖) and the Theorem 3 robustness bounds at the
//! model's weights; `preflight` runs the static analyzer suite (structure,
//! shapes, liveness, value intervals, gradient-scale bounds, and — with
//! `--noise-bits`/`--mixed` — the quantization-noise domain) over the
//! model's tape without training and writes the report plus an
//! interval-colored Graphviz view; `noise-crosscheck` adversarially
//! validates the noise domain against measured fake-quant probe-loss
//! shifts, writes a JSON artifact, and exits nonzero on any soundness
//! violation or a rank-constant sensitivity matrix; `spectrum` is the
//! Hessian observatory — it trains each
//! requested method with per-epoch spectrum telemetry, takes a deep SLQ
//! density + per-layer Hutchinson-trace probe of the final weights,
//! cross-checks the empirical trace ranking against the certified static
//! sensitivity matrix (Spearman), prints an ASCII density plot, and
//! writes one comparison artifact; `repro` regenerates one table or
//! figure of the paper's evaluation (`--fast` selects the smoke scale).
//!
//! The only model file is the versioned deterministic model artifact
//! (`hero-artifact`, `.ha`): `train --save` captures the trained weights,
//! batch-norm state, full config and training history in one
//! byte-reproducible file, `--checkpoint`/`--resume` make runs
//! interruptible without perturbing a single bit of the final result, and
//! `quantize`/`analyze`/`preflight`/`spectrum --artifact` re-analyze a
//! saved model without retraining. `artifact inspect` prints a human
//! summary of any artifact file.
//!
//! Every subcommand declares its flags in one table (name, whether the
//! flag takes a value, default). Parsing rejects unknown, duplicate and
//! valueless flags and stray arguments, so a typo fails loudly instead of
//! running with a default.

use hero_artifact::{Artifact, MetaValue, QuantEntry};
use hero_core::experiment::{
    fig1_bits, model_config, quant_sweep, run_fig2, run_fig3, run_table1, run_table2, run_table3,
    table1_matrix, MethodKind, Scale,
};
use hero_core::report::{
    render_fig1_panel, render_fig2, render_fig3, render_table1, render_table2, render_table3,
};
use hero_core::{
    attach_quant, golden_recipe, load_artifact, network_from_artifact, record_from_artifact,
    resume_from_artifact, save_artifact, train, train_to_artifact, ModelSpec, NoiseConfig, RunMeta,
    TrainConfig, TrainRecord,
};
use hero_data::{Dataset, Preset};
use hero_hessian::{
    hessian_norm_probe, lanczos_spectrum, layer_traces, slq_density, spearman_rank_checked,
    BoundInputs, GradOracle, SlqConfig,
};
use hero_nn::models::ModelKind;
use hero_nn::{evaluate_accuracy, Network};
use hero_obs::json::{array_lines, num, JsonObj};
use hero_optim::BatchOracle;
use hero_quant::{
    allocate_bits, network_sensitivities, quantize_params, quantize_params_mixed, quantize_tensor,
    QuantScheme,
};
use hero_tensor::rng::StdRng;
use hero_tensor::{global_norm_l1, global_norm_l2, Tensor};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Every subcommand's failure type: flag errors, tensor and artifact
/// errors and I/O errors all surface as one `error: ...` line.
type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Resolves the subcommand, parses its flags against its table, and runs
/// it inside an obs run named after it.
fn run(args: &[String]) -> CliResult {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| format!("no command given\n\n{USAGE}"))?;
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n\n{USAGE}"))?;
    // `artifact` and `repro` name one word (a subcommand or a target)
    // before their flags.
    let (word, flags) = if cmd.words.is_empty() {
        (None, rest)
    } else {
        let first = rest.first().map_or("", String::as_str);
        let word = cmd.words.iter().find(|w| **w == first).ok_or_else(|| {
            let expected = cmd.words.join("|");
            match first {
                "" => format!("hero {name}: expected one of {expected}"),
                _ => format!("hero {name}: unknown `{first}` (expected one of {expected})"),
            }
        })?;
        (Some(*word), &rest[1..])
    };
    let opts = Opts::parse(cmd.name, word, cmd.flags, flags)?;
    // Repro runs keep their `repro_<target>` trace file names.
    let run_name = match word {
        Some(t) if cmd.name == "repro" => format!("repro_{}", t.replace('-', "_")),
        Some(w) => format!("hero_{name}-{w}"),
        None => format!("hero_{name}"),
    };
    hero_obs::init_from_env(&run_name);
    let result = (cmd.run)(&opts);
    hero_obs::finish();
    result
}

const USAGE: &str = "\
hero — HERO (DAC 2022) reproduction CLI

USAGE:
  hero train    --preset <c10|c100|in50> --model <resnet|mobilenet|vgg>
                --method <hero|sam|gradl1|sgd> [--epochs N] [--scale F]
                [--seed N] [--save FILE.ha] [--git-rev REV]
                [--checkpoint FILE.ha [--checkpoint-every N]]
                [--resume FILE.ha] [--golden-recipe FILE.ha]
  hero quantize --preset ... [--scale F]
                (--artifact FILE.ha | --model ... --method ... [--epochs N] [--seed N])
                [--bits 3,4,6,8] [--mixed AVG_BITS [--sens static|proxy]]
                [--save FILE.ha [--save-bits N]]
  hero analyze  --preset ... [--scale F]
                (--artifact FILE.ha | --model ... --method ... [--epochs N] [--seed N])
  hero preflight --preset ... [--scale F]
                 (--artifact FILE.ha [--stamp FILE.ha] | --model ... [--seed N])
                 [--bits 3,4,8] [--noise-bits N | --mixed AVG_BITS]
                 [--budget F] [--out-dir DIR]
  hero noise-crosscheck --preset ... [--models resnet,mobilenet,vgg]
                 [--bits 2,4,8] [--trials N] [--epochs N] [--scale F] [--seed N]
                 [--avg AVG_BITS] [--min-overlap F] [--out FILE]
  hero spectrum  --preset ... [--scale F] [--seed N]
                 (--artifact FILE.ha | --model ... [--methods sgd,hero]
                  [--epochs N] [--spectrum-every N])
                 [--steps N] [--probes N] [--bits N] [--out FILE]
  hero artifact inspect --path FILE.ha
  hero repro    <table1|table2|table3|fig1|fig2|fig3|c10-row> [--fast]
                [--artifact-dir DIR]   (c10-row only)

Model files are versioned deterministic artifacts (see DESIGN.md §16):
`--save`/`--checkpoint` write them, `--artifact` reads one in place of
training; `--resume` continues a checkpoint bit-exactly (pass the original
--preset/--scale so the datasets match); `--golden-recipe` trains the fixed
smoke recipe behind the committed golden artifact and writes it to FILE.ha.
Unknown, repeated or valueless flags are errors.";

// --- declared flags -------------------------------------------------------

/// One subcommand: its name, the leading words it accepts (`artifact
/// inspect`, `repro <target>`; empty when the flags follow the name), its
/// flag table and its body.
///
/// `flags` declares every accepted flag, space-separated: `name=default`
/// takes a value with that default, `name=` takes a value and has no
/// default, and a bare `name` is a switch.
struct Command {
    name: &'static str,
    words: &'static [&'static str],
    flags: &'static str,
    run: fn(&Opts) -> CliResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "train",
        words: &[],
        flags: "preset=c10 model=resnet method=hero epochs=20 scale=0.5 seed=42 save= \
                git-rev= checkpoint= checkpoint-every=1 resume= golden-recipe=",
        run: cmd_train,
    },
    Command {
        name: "quantize",
        words: &[],
        flags: "preset=c10 model=resnet method=hero epochs=20 scale=0.5 seed=42 artifact= \
                bits=3,4,6,8 mixed= sens=static save= save-bits=",
        run: cmd_quantize,
    },
    Command {
        name: "analyze",
        words: &[],
        flags: "preset=c10 model=resnet method=hero epochs=20 scale=0.5 seed=42 artifact=",
        run: cmd_analyze,
    },
    Command {
        name: "preflight",
        words: &[],
        flags: "preset=c10 model=resnet scale=0.5 seed=42 artifact= stamp= bits=3,4,8 \
                noise-bits= mixed= budget= out-dir=results/analyze",
        run: cmd_preflight,
    },
    Command {
        name: "noise-crosscheck",
        words: &[],
        flags: "preset=c10 models=resnet,mobilenet,vgg scale=0.25 seed=42 epochs=3 trials=2 \
                bits=2,4,8 avg=4.0 min-overlap=0.0 \
                out=results/analyze/noise_crosscheck.json",
        run: cmd_noise_crosscheck,
    },
    Command {
        name: "spectrum",
        words: &[],
        flags: "preset=c10 model=resnet methods=sgd,hero artifact= scale=0.25 seed=42 \
                epochs=3 steps=10 probes=4 bits=4 spectrum-every=1 out=",
        run: cmd_spectrum,
    },
    Command {
        name: "artifact",
        words: &["inspect"],
        flags: "path=",
        run: cmd_artifact_inspect,
    },
    Command {
        name: "repro",
        words: &[
            "table1", "table2", "table3", "fig1", "fig2", "fig3", "c10-row",
        ],
        flags: "fast artifact-dir=",
        run: cmd_repro,
    },
];

/// Name → value tables for the enum-valued flags.
const PRESETS: &[(&str, Preset)] = &[
    ("c10", Preset::C10),
    ("c100", Preset::C100),
    ("in50", Preset::In50),
];
const MODELS: &[(&str, ModelKind)] = &[
    ("resnet", ModelKind::Resnet),
    ("mobilenet", ModelKind::Mobilenet),
    ("vgg", ModelKind::Vgg),
];
const METHODS: &[(&str, MethodKind)] = &[
    ("hero", MethodKind::Hero),
    ("sam", MethodKind::FirstOrder),
    ("first-order", MethodKind::FirstOrder),
    ("gradl1", MethodKind::GradL1),
    ("sgd", MethodKind::Sgd),
];

/// One subcommand's parsed command line, checked against its table.
struct Opts {
    cmd: &'static str,
    /// The leading word, for commands that take one.
    word: Option<&'static str>,
    flags: &'static str,
    /// Flags given on the command line, in order (switches map to "").
    given: Vec<(&'static str, String)>,
}

impl Opts {
    fn parse(
        cmd: &'static str,
        word: Option<&'static str>,
        flags: &'static str,
        args: &[String],
    ) -> Result<Self, String> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("hero {cmd}: unexpected argument `{arg}`"));
            };
            let decl = flags
                .split_whitespace()
                .find(|d| d.split('=').next() == Some(key))
                .ok_or_else(|| format!("hero {cmd}: unknown flag `--{key}`"))?;
            let name = decl.split('=').next().unwrap_or(decl);
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("hero {cmd}: `--{name}` given more than once"));
            }
            let value = if decl.contains('=') {
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("hero {cmd}: `--{name}` needs a value"))?
                    .clone()
            } else {
                String::new()
            };
            given.push((name, value));
        }
        Ok(Opts {
            cmd,
            word,
            flags,
            given,
        })
    }

    /// True when `--name` was given on the command line.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's given value, else its declared default.
    fn get(&self, name: &str) -> Option<&str> {
        match self.given.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => Some(v),
            None => self
                .flags
                .split_whitespace()
                .find_map(|d| d.split_once('=').filter(|(n, _)| *n == name))
                .map(|(_, default)| default)
                .filter(|default| !default.is_empty()),
        }
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// Parses the flag's value, if it has one.
    fn opt_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("hero {}: --{name}: cannot parse `{v}`", self.cmd))
            })
            .transpose()
    }

    /// Parses the flag's value, which must have one (given or default).
    fn num<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt_num(name)?
            .ok_or_else(|| format!("hero {}: --{name} is required", self.cmd))
    }

    /// Parses each comma-separated item of the flag's value.
    fn list<T>(&self, name: &str, item: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
        let list = self.get(name).unwrap_or_default();
        list.split(',')
            .map(|t| {
                item(t.trim())
                    .ok_or_else(|| format!("hero {}: --{name}: invalid value `{t}`", self.cmd))
            })
            .collect()
    }

    /// Parses a comma-separated list of bit widths.
    fn bits(&self, name: &str) -> Result<Vec<u8>, String> {
        self.list(name, |t| t.parse().ok())
    }

    /// Maps each comma-separated name of the flag's value through `table`.
    fn names<T: Copy>(&self, name: &str, table: &[(&str, T)]) -> Result<Vec<T>, String> {
        self.list(name, |t| {
            table.iter().find(|(n, _)| *n == t).map(|&(_, v)| v)
        })
    }

    /// Maps the flag's single value through `table`.
    fn one<T: Copy>(&self, name: &str, table: &[(&str, T)]) -> Result<T, String> {
        match self.names(name, table)?[..] {
            [v] => Ok(v),
            _ => Err(format!("hero {}: --{name} takes one value", self.cmd)),
        }
    }
}

// --- model sources --------------------------------------------------------

/// What `quantize`, `analyze` and `preflight` work on: the `--preset`
/// datasets at `--scale`, and a model.
struct Source {
    net: Network,
    /// The artifact the model was loaded from, if any.
    artifact: Option<Artifact>,
    preset: Preset,
    train_set: Dataset,
    test_set: Dataset,
}

/// Loads the datasets and the model: the saved `--artifact`, or else a
/// fresh `--model` initialised from `--seed` and, when `trained`, trained
/// with `--method` for `--epochs`.
fn model_source(o: &Opts, trained: bool) -> CliResult<Source> {
    reject_with_artifact(o, &["model", "method", "epochs", "seed"])?;
    let preset = o.one("preset", PRESETS)?;
    let (train_set, test_set) = preset.load(o.num("scale")?);
    let (net, artifact) = match o.get("artifact") {
        Some(path) => {
            let art = load_artifact(path)?;
            let net = network_from_artifact(&art)?;
            hero_obs::Event::new("artifact_loaded")
                .str("path", path)
                .human(format!("loaded artifact {path}"))
                .emit();
            (net, Some(art))
        }
        None if trained => (
            train_fresh(o, preset, &train_set, &test_set, 0, None)?.0,
            None,
        ),
        None => {
            let model = o.one("model", MODELS)?;
            let mut rng = StdRng::seed_from_u64(o.num("seed")?);
            (model.build(model_config(preset), &mut rng), None)
        }
    };
    Ok(Source {
        net,
        artifact,
        preset,
        train_set,
        test_set,
    })
}

/// Fails when `--artifact` is given together with any of `flags`: the
/// artifact fixes the architecture, weights and training history, so the
/// flags that would pick them cannot apply.
fn reject_with_artifact(o: &Opts, flags: &[&str]) -> CliResult {
    match flags.iter().find(|f| o.has("artifact") && o.has(f)) {
        Some(flag) => Err(format!(
            "hero {}: --{flag} cannot be combined with --artifact (the model comes from the file)",
            o.cmd
        )
        .into()),
        None => Ok(()),
    }
}

/// The paper name of the model an artifact holds, from its `model.kind`
/// (the raw kind when it names no known model).
fn artifact_model_name(art: &Artifact) -> &str {
    let kind = art.meta_str("model.kind").unwrap_or("unknown");
    MODELS
        .iter()
        .find(|(n, _)| *n == kind)
        .map_or(kind, |(_, m)| m.paper_name())
}

/// Trains a fresh `--model` with `--method` for `--epochs` from `--seed`
/// through the artifact pipeline, writing a checkpoint to `ckpt_path`
/// every `ckpt_every` epochs when a path is given.
fn train_fresh(
    o: &Opts,
    preset: Preset,
    train_set: &Dataset,
    test_set: &Dataset,
    ckpt_every: usize,
    ckpt_path: Option<&Path>,
) -> CliResult<(Network, Artifact)> {
    let model = o.one("model", MODELS)?;
    let method = o.one("method", METHODS)?;
    let epochs: usize = o.num("epochs")?;
    let seed: u64 = o.num("seed")?;
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
    let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
    let meta = RunMeta {
        model: ModelSpec::Kind(model),
        model_cfg: model_config(preset),
        config: TrainConfig::new(method.tuned(), epochs).with_seed(seed),
        git_rev: o.get("git-rev").unwrap_or("unknown").to_string(),
        preflight_hash: None,
    };
    let (rec, art) =
        train_to_artifact(&mut net, train_set, test_set, &meta, ckpt_every, ckpt_path)?;
    report_trained("trained", &rec);
    Ok((net, art))
}

fn report_trained(what: &str, rec: &TrainRecord) {
    hero_obs::Event::new("train_result")
        .f64("train_acc", f64::from(rec.final_train_acc))
        .f64("test_acc", f64::from(rec.final_test_acc))
        .human(format!(
            "{what}: train acc {:.2}%, test acc {:.2}%",
            100.0 * rec.final_train_acc,
            100.0 * rec.final_test_acc
        ))
        .emit();
}

/// The file stem of a per-model report: `<model>_<preset>`, lowercased.
fn report_stem(model: &str, preset: Preset) -> String {
    format!("{model}_{}", preset.paper_name())
        .to_lowercase()
        .replace(['/', ' ', '-'], "_")
}

/// Writes `text` to `path`, creating its parent directory.
fn write_file(path: &Path, text: &str) -> CliResult {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)?;
    Ok(())
}

/// The first `n` training samples (all of them if fewer): the probe batch
/// the analysis subcommands evaluate on.
fn probe_batch(train_set: &Dataset, n: usize) -> CliResult<(Tensor, &[usize])> {
    let n = train_set.len().min(n);
    if n == 0 {
        return Err("needs at least one training sample".into());
    }
    Ok((train_set.images.narrow(0, n)?, &train_set.labels[..n]))
}

// --- subcommands ----------------------------------------------------------

fn cmd_train(o: &Opts) -> CliResult {
    // The fixed golden-recipe run: shared with the byte-pin regression
    // test and verify.sh, so the three can never disagree on the recipe.
    if let Some(out) = o.get("golden-recipe") {
        let (train_set, test_set, mut net, meta) = golden_recipe();
        let (rec, art) = train_to_artifact(&mut net, &train_set, &test_set, &meta, 0, None)?;
        save_artifact(&art, out)?;
        println!(
            "golden artifact ({} scalars, train acc {:.2}%, test acc {:.2}%) written to {out}",
            art.num_scalars(),
            100.0 * rec.final_train_acc,
            100.0 * rec.final_test_acc
        );
        return Ok(());
    }

    let ckpt_path = o.path("checkpoint");
    let ckpt_every: usize = o.num("checkpoint-every")?;
    let preset = o.one("preset", PRESETS)?;
    let (train_set, test_set) = preset.load(o.num("scale")?);
    // Resume a checkpoint artifact: the model, config and trainer state
    // all come from the file; only the datasets are reloaded, so the
    // caller must pass the original --preset/--scale.
    let art = if let Some(resume) = o.get("resume") {
        let (rec, art, _) = resume_from_artifact(
            &load_artifact(resume)?,
            &train_set,
            &test_set,
            ckpt_every,
            ckpt_path.as_deref(),
        )?;
        report_trained(&format!("resumed {resume}"), &rec);
        art
    } else {
        train_fresh(
            o,
            preset,
            &train_set,
            &test_set,
            ckpt_every,
            ckpt_path.as_deref(),
        )?
        .1
    };
    if let Some(out) = o.get("save") {
        save_artifact(&art, out)?;
        println!("artifact written to {out}");
    }
    Ok(())
}

fn cmd_quantize(o: &Opts) -> CliResult {
    if o.has("save") && !o.has("artifact") {
        return Err("hero quantize: --save needs --artifact (a model artifact to quantize)".into());
    }
    let bits = o.bits("bits")?;
    let save_bits: u8 = o.opt_num("save-bits")?.unwrap_or(bits[0]);
    let mixed: Option<f32> = o.opt_num("mixed")?;
    let Source {
        mut net,
        artifact: mut loaded,
        train_set,
        test_set,
        ..
    } = model_source(o, true)?;
    let full_params = net.params();
    let full_acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)?;
    hero_obs::Event::new("quant_eval")
        .str("scheme", "full_precision")
        .f64("accuracy", f64::from(full_acc))
        .human(format!("full precision: test acc {:.2}%", 100.0 * full_acc))
        .emit();

    if let Some(avg) = mixed {
        let sens_source = o.get("sens").unwrap_or_default();
        let (bits, sens) = match sens_source {
            // Certified static sensitivity: the analyzer's noise domain
            // bounds each layer's loss impact; the allocator spends the
            // budget against those certificates.
            "static" => {
                let (images, labels) = probe_batch(&train_set, 64)?;
                let matrix =
                    hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[2, 4, 8])?;
                let bits = matrix.allocate(avg, 2, 8)?;
                (bits, matrix.to_layer_sensitivities())
            }
            // Gradient-free proxy: curvature 1, range/size allocation only.
            "proxy" => {
                let sens = network_sensitivities(&net);
                let bits = allocate_bits(&sens, avg, 2, 8)?;
                (bits, sens)
            }
            other => {
                return Err(format!("hero quantize: --sens: `{other}` is not static|proxy").into())
            }
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
        let (qp, report) = quantize_params_mixed(&net, &bits)?;
        net.set_params(&qp)?;
        let acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)?;
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
        net.set_params(&full_params)?;
    }

    for &b in &bits {
        let scheme = QuantScheme::symmetric(b)?;
        let (qp, report) = quantize_params(&net, &scheme)?;
        net.set_params(&qp)?;
        let acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)?;
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
        net.set_params(&full_params)?;
    }

    // Persist one quantization decision back into the artifact: the
    // quantized values replace the TENSORS section and the QUANT section
    // records the per-tensor bit width and grid. The RESUME section is
    // dropped — a quantized snapshot is a deployment artifact, not a
    // training state.
    if let (Some(out), Some(art)) = (o.get("save"), loaded.as_mut()) {
        let scheme = QuantScheme::symmetric(save_bits)?;
        let infos = net.param_infos();
        let mut quantized = Vec::with_capacity(full_params.len());
        let mut entries = Vec::new();
        for (p, info) in full_params.iter().zip(&infos) {
            if info.kind.is_quantizable() {
                let q = quantize_tensor(p, &scheme)?;
                entries.push(QuantEntry {
                    name: info.name.clone(),
                    bits: save_bits,
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
        save_artifact(art, out)?;
        println!("quantized artifact ({save_bits}-bit weights) written to {out}");
    }
    Ok(())
}

fn cmd_preflight(o: &Opts) -> CliResult {
    if o.has("stamp") && !o.has("artifact") {
        return Err("hero preflight: --stamp needs --artifact (an artifact to annotate)".into());
    }
    let bits = o.bits("bits")?;
    let mixed: Option<f32> = o.opt_num("mixed")?;
    let noise_bits: Option<u8> = o.opt_num("noise-bits")?;
    let budget: Option<f32> = o.opt_num("budget")?;
    let Source {
        mut net,
        artifact: mut loaded,
        preset,
        train_set,
        ..
    } = model_source(o, false)?;
    // Name the report after the model actually analyzed: an artifact's
    // own `model.kind`, not the `--model` default.
    let model_name = match &loaded {
        Some(art) => artifact_model_name(art),
        None => o.one("model", MODELS)?.paper_name(),
    };
    let (images, labels) = probe_batch(&train_set, 64)?;

    // Quantization-noise configuration: `--noise-bits N` seeds every
    // weight uniformly; `--mixed AVG` first computes the certified static
    // sensitivity matrix, allocates per-layer widths against it, and
    // seeds the allocation. Either way the report (and dot overlay)
    // carries certified per-node error bounds.
    let mut noise_cfg: Option<NoiseConfig> = None;
    if let Some(avg) = mixed {
        let mut grid = bits.clone();
        grid.sort_unstable();
        grid.dedup();
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &grid)?;
        let max_b = grid.last().copied().unwrap_or(8);
        let alloc = matrix.allocate(avg, grid[0].min(2), max_b)?;
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
    } else if let Some(nb) = noise_bits {
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[nb])?;
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
    )?;

    let out_dir = o.path("out-dir").unwrap_or_default();
    let stem = report_stem(model_name, preset);
    let txt_path = out_dir.join(format!("{stem}.txt"));
    write_file(&txt_path, &format!("{report}\n"))?;
    if let Some(dot) = dot {
        write_file(&out_dir.join(format!("{stem}.dot")), &dot)?;
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
    if let (Some(stamp), Some(art)) = (o.get("stamp"), loaded.as_mut()) {
        art.set_meta("provenance.preflight_hash", MetaValue::U64(hash));
        save_artifact(art, stamp)?;
        println!("preflight hash stamped into {stamp}");
    }
    if errors > 0 || warnings > 0 {
        print!("{report}");
    }
    if errors > 0 {
        return Err(format!(
            "preflight found {errors} error-severity diagnostics for `{}`",
            net.name()
        )
        .into());
    }
    Ok(())
}

/// Adversarial validation of the static quantization-noise domain: for
/// each requested model, trains a quick SGD baseline, measures per-layer
/// fake-quant probe-loss shifts against the certified bounds
/// ([`hero_core::noise_crosscheck`]), compares a static-matrix mixed
/// allocation against uniform quantization at equal average bits, and
/// writes everything to one JSON artifact. Exits nonzero if any measured
/// error escapes its certified bound, if the raw un-clamped sensitivity
/// matrix is rank-constant on a multi-layer model, or if the ranking
/// overlap falls under `--min-overlap` — a NaN overlap (degenerate
/// ranking) counts as a failure there, never as a silent pass.
fn cmd_noise_crosscheck(o: &Opts) -> CliResult {
    let preset = o.one("preset", PRESETS)?;
    let models = o.names("models", MODELS)?;
    let scale: f32 = o.num("scale")?;
    let seed: u64 = o.num("seed")?;
    let epochs: usize = o.num("epochs")?;
    let trials: usize = o.num("trials")?;
    let avg: f32 = o.num("avg")?;
    let min_overlap: f32 = o.num("min-overlap")?;
    let grid = o.bits("bits")?;
    let out_path = o.path("out").unwrap_or_default();

    let (train_set, test_set) = preset.load(scale);
    let (images, labels) = probe_batch(&train_set, 64)?;

    let mut total_violations = 0usize;
    let mut worst_overlap = f32::INFINITY;
    // NaN never survives an `f32::min`, so a degenerate (constant or
    // single-layer) ranking would otherwise sail through the
    // `--min-overlap` gate unexamined. Track it explicitly instead.
    let mut saw_degenerate_ranking = false;
    let mut rank_constant_models: Vec<String> = Vec::new();
    let mut model_docs = Vec::new();
    for model in models {
        let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
        let config = TrainConfig::new(MethodKind::Sgd.tuned(), epochs).with_seed(seed);
        let rec = train(&mut net, &train_set, &test_set, &config)?;
        let report = hero_core::noise_crosscheck(&mut net, &images, labels, &grid, trials, seed)?;
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
        let alloc = matrix.allocate(avg, grid[0].min(2), max_b)?;
        let full = net.params();
        let (qp, _) = quantize_params_mixed(&net, &alloc)?;
        net.set_params(&qp)?;
        let mixed_acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)?;
        net.set_params(&full)?;
        let uniform_scheme = QuantScheme::symmetric(avg.round() as u8)?;
        let (qp, _) = quantize_params(&net, &uniform_scheme)?;
        net.set_params(&qp)?;
        let uniform_acc = evaluate_accuracy(&mut net, &test_set.images, &test_set.labels, 64)?;
        net.set_params(&full)?;

        // The raw (un-clamped) matrix must distinguish at least two layer
        // ranks somewhere on the grid for the ranking to mean anything.
        let distinct_ranks = (0..matrix.bits.len())
            .map(|k| {
                let mut col: Vec<f32> = matrix.layers.iter().map(|l| l.err[k]).collect();
                col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                col.dedup();
                col.len()
            })
            .max()
            .unwrap_or(0);
        if matrix.layers.len() >= 2 && distinct_ranks < 2 {
            rank_constant_models.push(model.paper_name().to_string());
        }

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
            .f64("overlap", f64::from(report.overlap))
            .f64("rank_rho", f64::from(report.rank_rho.unwrap_or(f32::NAN)))
            .f64("mixed_acc", f64::from(mixed_acc))
            .f64("uniform_acc", f64::from(uniform_acc))
            .emit();

        // A NaN overlap (degenerate ranking) or a non-finite measured
        // shift lands in the sink as `null`, never as a bare `NaN`.
        let cells = report.cells.iter().map(|c| {
            let mut cell = JsonObj::new();
            cell.str("layer", &c.layer)
                .u64("bits", u64::from(c.bits))
                .f64("certified", f64::from(c.certified))
                .f64("empirical", f64::from(c.empirical))
                .bool("violated", c.violated);
            cell.finish()
        });
        let mut doc = JsonObj::new();
        doc.str("model", model.paper_name())
            .u64("violations", report.violations as u64)
            .f64("overlap", f64::from(report.overlap))
            .f64("rank_rho", f64::from(report.rank_rho.unwrap_or(f32::NAN)))
            .u64("distinct_ranks", distinct_ranks as u64)
            .u64("ref_bits", u64::from(report.ref_bits))
            .f64("full_acc", f64::from(rec.final_test_acc))
            .f64("mixed_acc", f64::from(mixed_acc))
            .f64("uniform_acc", f64::from(uniform_acc))
            .raw("allocation", &json_list(&alloc))
            .raw("cells", &array_lines(cells));
        model_docs.push(doc.finish());
    }
    let mut doc = JsonObj::new();
    doc.str("preset", preset.paper_name())
        .raw("bits", &json_list(&grid))
        .f64("avg_bits", f64::from(avg))
        .raw("models", &array_lines(model_docs))
        .u64("total_violations", total_violations as u64)
        // No models ran: report a vacuous perfect overlap.
        .f64(
            "worst_overlap",
            f64::from(if worst_overlap == f32::INFINITY {
                1.0
            } else {
                worst_overlap
            }),
        );
    write_file(&out_path, &(doc.finish() + "\n"))?;
    println!("noise crosscheck written to {}", out_path.display());
    if total_violations > 0 {
        return Err(format!(
            "noise-domain soundness violated: {total_violations} measured errors \
             escaped their certified bounds (see {})",
            out_path.display()
        )
        .into());
    }
    if !rank_constant_models.is_empty() {
        return Err(format!(
            "raw sensitivity matrix is rank-constant (every layer×bits cell ties) \
             on: {}",
            rank_constant_models.join(", ")
        )
        .into());
    }
    if min_overlap > 0.0 {
        if saw_degenerate_ranking {
            return Err(format!(
                "static-vs-empirical ranking is degenerate (NaN overlap or \
                 undefined Spearman rho) on at least one model; cannot certify \
                 the required {min_overlap:.2} overlap"
            )
            .into());
        }
        if worst_overlap < min_overlap {
            return Err(format!(
                "static-vs-empirical ranking overlap {worst_overlap:.2} below the \
                 required {min_overlap:.2}"
            )
            .into());
        }
    }
    Ok(())
}

/// Serializes already-formatted JSON values (or numbers) as a one-line
/// array.
fn json_list<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// The spectrum observatory (`hero spectrum`): for each requested method,
/// trains with per-epoch spectrum telemetry enabled, probes the final
/// weights deeply (SLQ density + per-layer Hutchinson traces), computes
/// the Spearman rank correlation between the empirical quantizable-layer
/// trace ranking and the certified static sensitivity ranking, prints an
/// ASCII density plot, and rolls everything into one JSON artifact.
/// With `--artifact` it probes the saved model instead, labelled by the
/// artifact's own `model.kind`; the flags that pick or train a model are
/// rejected there (`--seed` still seeds the probes).
fn cmd_spectrum(o: &Opts) -> CliResult {
    reject_with_artifact(o, &["model", "methods", "epochs", "spectrum-every"])?;
    let preset = o.one("preset", PRESETS)?;
    let scale: f32 = o.num("scale")?;
    let seed: u64 = o.num("seed")?;
    let steps: usize = o.num("steps")?;
    let probes: usize = o.num("probes")?;
    let bits: u8 = o.num("bits")?;

    let (train_set, test_set) = preset.load(scale);
    let (images, labels) = probe_batch(&train_set, 64)?;

    // Either probe one saved model artifact (no retraining — the weights
    // and per-epoch spectrum trajectory both come from the file) or train
    // each requested method fresh.
    let mut runs: Vec<(String, Network, TrainRecord)> = Vec::new();
    let (model_name, epochs) = if let Some(path) = o.get("artifact") {
        let art = load_artifact(path)?;
        let name = art
            .meta_str("train.method.kind")
            .unwrap_or("artifact")
            .to_string();
        let net = network_from_artifact(&art)?;
        let rec = record_from_artifact(&art)?;
        let label = (artifact_model_name(&art).to_string(), rec.epochs.len());
        runs.push((name, net, rec));
        label
    } else {
        let model = o.one("model", MODELS)?;
        let epochs: usize = o.num("epochs")?;
        let every: usize = o.num("spectrum-every")?;
        for method in o.names("methods", METHODS)? {
            let mut net = model.build(model_config(preset), &mut StdRng::seed_from_u64(seed));
            let config = TrainConfig::new(method.tuned(), epochs)
                .with_seed(seed)
                .with_spectrum_every(every);
            let rec = train(&mut net, &train_set, &test_set, &config)?;
            runs.push((method.paper_name().to_string(), net, rec));
        }
        (model.paper_name().to_string(), epochs)
    };
    let out_path = o.path("out").unwrap_or_else(|| {
        PathBuf::from(format!(
            "results/SPECTRUM_{}.json",
            report_stem(&model_name, preset)
        ))
    });
    let mut method_docs = Vec::new();
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
            let (_, base) = oracle.grad(&params)?;
            let density = slq_density(&mut oracle, &params, &base, cfg)?;
            let traces = layer_traces(&mut oracle, &params, &base, probes, 1e-3, seed ^ 0x7ACE)?;
            (density, traces)
        };
        // The oracle leaves its last-evaluated (perturbed) parameters
        // installed and its first evaluation updated the batch-norm running
        // statistics; restore both before anything else touches the network.
        net.set_params(&params)?;
        net.set_state(&state)?;

        // Empirical-vs-static sensitivity ranking over quantizable layers.
        // Both sides are per-weight curvature magnitudes: the measured
        // `|tr(H_ii)| / nᵢ` against the matrix's quadratic-model
        // projection (raw `err` cells can all clamp at the analyzer's
        // loss-interval ceiling, which would make the ranking constant).
        let matrix = hero_core::static_sensitivity_matrix(&mut net, &images, labels, &[bits])?;
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

        let layers = infos.iter().zip(&traces).map(|(info, trace)| {
            let mut layer = JsonObj::new();
            layer
                .str("layer", &info.name)
                .bool("quantizable", info.kind.is_quantizable())
                .f64("trace", f64::from(trace.mean))
                .f64("trace_se", f64::from(trace.std_error));
            layer.finish()
        });
        let trajectory = rec.spectra.iter().map(|p| {
            let mut point = JsonObj::new();
            point
                .u64("epoch", p.epoch as u64)
                .f64("lambda_max", f64::from(p.lambda_max.mean))
                .f64("trace", f64::from(p.global_trace()))
                .f64("second_moment", f64::from(p.second_moment.mean));
            point.finish()
        });
        let mut doc = JsonObj::new();
        doc.str("method", &name)
            .f64("test_acc", f64::from(rec.final_test_acc))
            .f64("lambda_max", f64::from(density.lambda_max.mean))
            .f64("lambda_max_se", f64::from(density.lambda_max.std_error))
            .f64("lambda_min", f64::from(density.lambda_min.mean))
            .f64("mean_eigenvalue", f64::from(density.mean_eigenvalue.mean))
            .f64("second_moment", f64::from(density.second_moment.mean))
            .f64("trace", f64::from(global_trace))
            .f64(
                "spearman_trace_vs_static",
                f64::from(rho.unwrap_or(f32::NAN)),
            )
            .f64("sigma", f64::from(density.sigma))
            .raw(
                "grid",
                &json_list(density.grid.iter().map(|&v| num(f64::from(v)))),
            )
            .raw(
                "density",
                &json_list(density.density.iter().map(|&v| num(f64::from(v)))),
            )
            .raw("layers", &array_lines(layers))
            .raw("trajectory", &array_lines(trajectory));
        method_docs.push(doc.finish());
    }
    let mut doc = JsonObj::new();
    doc.str("preset", preset.paper_name())
        .str("model", &model_name)
        .u64("epochs", epochs as u64)
        .u64("steps", steps as u64)
        .u64("probes", probes as u64)
        .u64("sens_bits", u64::from(bits))
        .raw("methods", &array_lines(method_docs));
    write_file(&out_path, &(doc.finish() + "\n"))?;
    println!("spectrum artifact written to {}", out_path.display());
    Ok(())
}

fn cmd_analyze(o: &Opts) -> CliResult {
    let Source {
        mut net, train_set, ..
    } = model_source(o, true)?;
    let (images, labels) = probe_batch(&train_set, 128)?;
    let n = labels.len();
    let params = net.params();
    let nonzeros: usize = params.iter().map(|p| p.norm_l0()).sum();
    let mut oracle = BatchOracle::new(&mut net, &images, labels);
    let (loss, grads) = oracle.grad(&params)?;
    let (hz, _) = hessian_norm_probe(&mut oracle, &params, 1e-3)?;
    let spectrum = lanczos_spectrum(
        &mut oracle,
        &params,
        10,
        1e-3,
        &mut StdRng::seed_from_u64(0),
    )?;
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
fn cmd_artifact_inspect(o: &Opts) -> CliResult {
    let path = o
        .get("path")
        .ok_or("hero artifact inspect: --path FILE is required")?;
    print!("{}", load_artifact(path)?.describe());
    Ok(())
}

/// `hero repro <target>`: regenerates one table or figure of the paper's
/// evaluation section (DESIGN.md §3) at the full reproduction scale
/// recorded in EXPERIMENTS.md, or at the smoke scale with `--fast`.
fn cmd_repro(o: &Opts) -> CliResult {
    let target = o.word.unwrap_or_default();
    let fast = o.has("fast");
    let scale = if fast { Scale::fast() } else { Scale::full() };
    let artifact_dir = o.path("artifact-dir");
    if artifact_dir.is_some() && target != "c10-row" {
        return Err(format!(
            "hero repro: --artifact-dir applies to `c10-row` only, not `{target}`"
        )
        .into());
    }
    match target {
        "table1" => {
            banner("Table 1 (test accuracy)", scale);
            let (table, _) = run_table1(&table1_matrix(), scale, None)?;
            emit_artifact("table1", render_table1(&table));
        }
        "table2" => {
            banner("Table 2 (noisy-label training)", scale);
            let ratios = [0.2, 0.4, 0.6, 0.8];
            for model in [ModelKind::Resnet, ModelKind::Mobilenet] {
                let table = run_table2(model, &ratios, scale)?;
                emit_artifact(
                    &format!("table2_{}", model.paper_name()),
                    render_table2(&table),
                );
            }
        }
        "table3" => {
            banner("Table 3 (Hessian-term ablation)", scale);
            emit_artifact("table3", render_table3(&run_table3(scale)?));
        }
        // The Fig. 1 checkpoints are the Table 1 models (as in the paper):
        // train the matrix, then print both the Table 1 rows and one
        // Fig. 1 panel per cell.
        "fig1" => {
            banner("Fig. 1 (post-training quantization sweeps)", scale);
            table1_and_fig1(&table1_matrix(), scale, None, "table1")?;
        }
        "fig2" => {
            banner("Fig. 2 (Hessian norm and generalization gap)", scale);
            emit_artifact("fig2", render_fig2(&run_fig2(scale)?));
        }
        "fig3" => {
            banner("Fig. 3 (loss contours)", scale);
            let steps = if fast { 11 } else { 17 };
            emit_artifact("fig3", render_fig3(&run_fig3(scale, 1.0, steps)?));
        }
        // The CIFAR-10 row of Table 1 / Fig. 1 (all three model families).
        // `--artifact-dir DIR` backs every training cell with the model
        // artifact cache: a warm cache reproduces the row without
        // retraining, and a cold one trains once and fills it.
        "c10-row" => {
            banner("Table 1 / Fig. 1, CIFAR-10 row", scale);
            let matrix =
                [ModelKind::Resnet, ModelKind::Mobilenet, ModelKind::Vgg].map(|m| (Preset::C10, m));
            table1_and_fig1(&matrix, scale, artifact_dir.as_deref(), "table1_c10_row")?;
        }
        other => return Err(format!("hero repro: unknown target `{other}`").into()),
    }
    Ok(())
}

/// Trains the Table 1 `matrix` (through the artifact cache under `cache`
/// when given), emits the table as `table_name`, then sweeps every
/// trained model over the Fig. 1 bit widths and emits one panel per cell.
fn table1_and_fig1(
    matrix: &[(Preset, ModelKind)],
    scale: Scale,
    cache: Option<&Path>,
    table_name: &str,
) -> CliResult {
    let (table, mut models) = run_table1(matrix, scale, cache)?;
    emit_artifact(table_name, render_table1(&table));
    let bits = fig1_bits();
    for ((preset, model), cell) in matrix.iter().zip(models.iter_mut()) {
        let (_, test_set) = preset.load(scale.data);
        let curves = cell
            .iter_mut()
            .map(|t| quant_sweep(t, &test_set, &bits))
            .collect::<Result<Vec<_>, _>>()?;
        emit_artifact(
            &format!("fig1_{}_{}", preset.paper_name(), model.paper_name()),
            render_fig1_panel(preset.paper_name(), model.paper_name(), &curves),
        );
    }
    Ok(())
}

/// Emits the standard header for a reproduction run: a `banner` event
/// whose human rendering is the console header.
fn banner(what: &str, scale: Scale) {
    hero_obs::Event::new("banner")
        .str("what", what)
        .f64("data_scale", f64::from(scale.data))
        .u64("epochs_small", scale.epochs_small as u64)
        .u64("epochs_large", scale.epochs_large as u64)
        .human(format!(
            "== HERO reproduction: {what} ==\n\
             scale: data x{:.2}, {} epochs (8x8 presets) / {} epochs (16x16)\n",
            scale.data, scale.epochs_small, scale.epochs_large
        ))
        .emit();
}

/// Emits a rendered table / figure as a structured `artifact` event; the
/// console sees the rendering unchanged, and a `HERO_TRACE=1` run also
/// records which artifact was produced.
fn emit_artifact(name: &str, rendered: impl Into<String>) {
    hero_obs::Event::new("artifact")
        .str("name", name)
        .human(rendered)
        .emit();
}
