//! `hero` — command-line front end for the HERO reproduction; `hero help`
//! prints the usage synopsis (`USAGE`).
//!
//! Every subcommand is three steps: parse its flags, make one `hero_core`
//! call that returns a typed report, and render that report. `train` and
//! `artifact inspect` drive the model-artifact pipeline (`hero-artifact`,
//! `.ha`: `train --save` captures the weights, batch-norm state, config
//! and training history in one byte-reproducible file, and
//! `--checkpoint`/`--resume` interrupt a run without perturbing a bit of
//! its result). `quantize`, `preflight`, `noise-crosscheck` and `spectrum`
//! run `hero_core`'s experiment reports, on a saved `--artifact` or a
//! fresh model. `analyze` reports curvature (λ_max via Lanczos, ‖Hz‖) and
//! the Theorem 3 bounds, and `repro` regenerates one table or figure of
//! the paper's evaluation (`--fast` selects the smoke scale).
//!
//! Each subcommand's flags and the rules between them are declared in
//! `COMMANDS` and enforced by the strict flag layer, [`hero_bench::cli`].

use hero_bench::cli::{self, write_file, CliResult, Command, Opts};
use hero_core::experiment::{
    curvature_report, fig1_bits, quant_sweep, quantize_report, report_trained, run_fig2, run_fig3,
    run_table1, run_table2, run_table3, slug, table1_matrix, MethodKind, ModelSource, Recipe,
    Scale, Sensitivity,
};
use hero_core::report::{
    render_fig1_panel, render_fig2, render_fig3, render_table1, render_table2, render_table3,
};
use hero_core::{
    describe_artifact, golden_recipe, load_artifact, resume_from_artifact, run_crosscheck,
    run_preflight, save_artifact, spectrum_report, train_to_artifact, CrosscheckGrid, NoisePlan,
    SpectrumOptions,
};
use hero_data::Preset;
use hero_nn::models::ModelKind;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(COMMANDS, USAGE, &args) {
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

/// The flags an artifact replaces: it fixes the architecture, weights and
/// training history.
const PICKS_MODEL: &str = "model method epochs seed";

const COMMANDS: &[Command] = &[
    Command {
        name: "train",
        words: &[],
        flags: "preset=c10 model=resnet method=hero epochs=20 scale=0.5 seed=42 save= \
                git-rev= checkpoint= checkpoint-every=1 resume= golden-recipe=",
        needs: &[("checkpoint-every", "checkpoint")],
        excludes: &[(
            "golden-recipe",
            "preset model method epochs scale seed save git-rev checkpoint checkpoint-every \
             resume",
        )],
        run: cmd_train,
    },
    Command {
        name: "quantize",
        words: &[],
        flags: "preset=c10 model=resnet method=hero epochs=20 scale=0.5 seed=42 artifact= \
                bits=3,4,6,8 mixed= sens=static save= save-bits=",
        needs: &[
            ("save", "artifact"),
            ("save-bits", "save"),
            ("sens", "mixed"),
        ],
        excludes: &[("artifact", PICKS_MODEL)],
        run: cmd_quantize,
    },
    Command {
        name: "analyze",
        words: &[],
        flags: "preset=c10 model=resnet method=hero epochs=20 scale=0.5 seed=42 artifact=",
        needs: &[],
        excludes: &[("artifact", PICKS_MODEL)],
        run: cmd_analyze,
    },
    Command {
        name: "preflight",
        words: &[],
        flags: "preset=c10 model=resnet scale=0.5 seed=42 artifact= stamp= bits=3,4,8 \
                noise-bits= mixed= budget= out-dir=results/analyze",
        needs: &[("stamp", "artifact"), ("budget", "noise-bits mixed")],
        excludes: &[("artifact", PICKS_MODEL), ("mixed", "noise-bits")],
        run: cmd_preflight,
    },
    Command {
        name: "noise-crosscheck",
        words: &[],
        flags: "preset=c10 models=resnet,mobilenet,vgg scale=0.25 seed=42 epochs=3 trials=2 \
                bits=2,4,8 avg=4.0 min-overlap=0.0 \
                out=results/analyze/noise_crosscheck.json",
        needs: &[],
        excludes: &[],
        run: cmd_noise_crosscheck,
    },
    Command {
        name: "spectrum",
        words: &[],
        flags: "preset=c10 model=resnet methods=sgd,hero artifact= scale=0.25 seed=42 \
                epochs=3 steps=10 probes=4 bits=4 spectrum-every=1 out=",
        needs: &[],
        excludes: &[("artifact", "model methods epochs spectrum-every")],
        run: cmd_spectrum,
    },
    Command {
        name: "artifact",
        words: &["inspect"],
        flags: "path=",
        needs: &[],
        excludes: &[],
        run: cmd_artifact_inspect,
    },
    Command {
        name: "repro",
        words: &[
            "table1", "table2", "table3", "fig1", "fig2", "fig3", "c10-row",
        ],
        flags: "fast artifact-dir=",
        needs: &[],
        excludes: &[],
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
const SENS: &[(&str, Sensitivity)] = &[
    ("static", Sensitivity::Static),
    ("proxy", Sensitivity::Proxy),
];

// --- model sources --------------------------------------------------------

/// The fresh run of `--model` that `method` names, for `--epochs` from
/// `--seed`.
fn recipe(o: &Opts, method: MethodKind) -> CliResult<Recipe> {
    let (preset, model) = (o.one("preset", PRESETS)?, o.one("model", MODELS)?);
    let (epochs, seed) = (o.num("epochs")?, o.num("seed")?);
    Ok(Recipe::seeded(preset, model, method, epochs, seed))
}

/// The model `quantize`, `analyze` and `preflight` work on: the saved
/// `--artifact`, or else a fresh `--model` from `--seed`, trained per
/// [`recipe`] when `trained`.
fn model_source(o: &Opts, trained: bool) -> CliResult<ModelSource> {
    Ok(match o.path("artifact") {
        Some(path) => ModelSource::Artifact(path),
        None if trained => ModelSource::Train(recipe(o, o.one("method", METHODS)?)?),
        None => ModelSource::Init(o.one("model", MODELS)?, o.num("seed")?),
    })
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
        let (art, state) = load_artifact(resume)?;
        let (rec, art, _) = resume_from_artifact(
            &art,
            state,
            &train_set,
            &test_set,
            ckpt_every,
            ckpt_path.as_deref(),
        )?;
        report_trained(&format!("resumed {resume}"), &rec);
        art
    } else {
        let recipe = recipe(o, o.one("method", METHODS)?)?;
        let git_rev = o.get("git-rev").unwrap_or("unknown");
        let ckpt = ckpt_path.as_deref().map(|p| (p, ckpt_every));
        recipe.announce();
        let (_, rec, art) = recipe.train(&train_set, &test_set, git_rev, ckpt)?;
        report_trained("trained", &rec);
        art
    };
    if let Some(out) = o.get("save") {
        save_artifact(&art, out)?;
        println!("artifact written to {out}");
    }
    Ok(())
}

fn cmd_quantize(o: &Opts) -> CliResult {
    let source = model_source(o, true)?;
    let bits = o.bits("bits")?;
    let mixed = match o.opt_num("mixed")? {
        Some(avg) => Some((avg, o.one("sens", SENS)?)),
        None => None,
    };
    let save_bits = o.opt_num("save-bits")?.unwrap_or(bits[0]);
    let snapshot = o.has("save").then_some(save_bits);
    let preset = o.one("preset", PRESETS)?;
    let report = quantize_report(preset, o.num("scale")?, &source, &bits, mixed, snapshot)?;
    report.emit();
    if let (Some(out), Some(art)) = (o.get("save"), &report.snapshot) {
        save_artifact(art, out)?;
        println!("quantized artifact ({save_bits}-bit weights) written to {out}");
    }
    Ok(())
}

fn cmd_preflight(o: &Opts) -> CliResult {
    let source = model_source(o, false)?;
    let noise = match (o.opt_num("mixed")?, o.opt_num("noise-bits")?) {
        (Some(avg), _) => Some(NoisePlan::Mixed(avg)),
        (None, bits) => bits.map(NoisePlan::Uniform),
    };
    let (preset, bits) = (o.one("preset", PRESETS)?, o.bits("bits")?);
    let budget = o.opt_num("budget")?;
    let run = run_preflight(preset, o.num("scale")?, &source, &bits, noise, budget)?;
    print!("{}", run.sensitivity_table());

    let (report, dot) = &run.report;
    let out_dir = o.path("out-dir").unwrap_or_default();
    let stem = slug(&[run.model, preset.paper_name()]);
    let txt_path = out_dir.join(format!("{stem}.txt"));
    write_file(&txt_path, &format!("{report}\n"))?;
    if let Some(dot) = dot {
        write_file(&out_dir.join(format!("{stem}.dot")), dot)?;
    }
    let (errors, warnings) = (report.errors().count(), report.warnings().count());
    println!(
        "preflight {}: {} nodes, {errors} errors, {warnings} warnings, report hash {:#018x} -> {}",
        run.network,
        report.nodes,
        run.hash,
        txt_path.display()
    );
    // The report hash is the provenance fingerprint an artifact can carry,
    // so downstream consumers can tell which static analysis it passed.
    if let (Some(stamp), Some(art)) = (o.get("stamp"), &run.stamped) {
        save_artifact(art, stamp)?;
        println!("preflight hash stamped into {stamp}");
    }
    if errors > 0 || warnings > 0 {
        print!("{report}");
    }
    if errors > 0 {
        let net = &run.network;
        return Err(
            format!("preflight found {errors} error-severity diagnostics for `{net}`").into(),
        );
    }
    Ok(())
}

/// Writes the crosscheck document, then exits nonzero on any soundness
/// violation, on a rank-constant raw sensitivity matrix, or when the
/// ranking overlap falls under `--min-overlap` (where a degenerate
/// ranking counts as a failure, never as a silent pass).
fn cmd_noise_crosscheck(o: &Opts) -> CliResult {
    let grid = CrosscheckGrid {
        bits: o.bits("bits")?,
        trials: o.num("trials")?,
        seed: o.num("seed")?,
        avg: o.num("avg")?,
    };
    let (preset, models) = (o.one("preset", PRESETS)?, o.names("models", MODELS)?);
    let min_overlap: f32 = o.num("min-overlap")?;
    let out = o.path("out").unwrap_or_default();
    let run = run_crosscheck(preset, o.num("scale")?, &models, o.num("epochs")?, grid)?;
    run.emit();
    write_file(&out, &run.to_json())?;
    println!("noise crosscheck written to {}", out.display());
    match run.failure(min_overlap, &out) {
        Some(why) => Err(why.into()),
        None => Ok(()),
    }
}

/// The spectrum observatory. With `--artifact` it probes the saved model,
/// labelled by the artifact's own `model.kind`; the flags that pick or
/// train a model are rejected there (`--seed` still seeds the probes).
fn cmd_spectrum(o: &Opts) -> CliResult {
    let models = match o.path("artifact") {
        Some(path) => vec![ModelSource::Artifact(path)],
        None => (o.names("methods", METHODS)?.into_iter())
            .map(|method| {
                let mut recipe = recipe(o, method)?;
                recipe.config.spectrum_every = o.num("spectrum-every")?;
                Ok(ModelSource::Train(recipe))
            })
            .collect::<CliResult<_>>()?,
    };
    let probes = o.num("probes")?;
    let opts = SpectrumOptions {
        steps: o.num("steps")?,
        slq_probes: probes,
        trace_probes: probes,
        ..SpectrumOptions::default()
    };
    let (preset, scale, seed) = (o.one("preset", PRESETS)?, o.num("scale")?, o.num("seed")?);
    let report = spectrum_report(preset, scale, &models, opts.with_seed(seed), o.num("bits")?)?;
    report.emit();
    let out = o.path("out").unwrap_or_else(|| report.default_path());
    write_file(&out, &report.to_json())?;
    println!("spectrum artifact written to {}", out.display());
    Ok(())
}

fn cmd_analyze(o: &Opts) -> CliResult {
    let source = model_source(o, true)?;
    let preset = o.one("preset", PRESETS)?;
    let (train_set, test_set) = preset.load(o.num("scale")?);
    let (mut net, ..) = source.load(preset, &train_set, &test_set, true)?;
    curvature_report(&mut net, &train_set)?.emit();
    Ok(())
}

/// `hero artifact inspect --path FILE`: decodes an artifact (verifying
/// magic, version and checksum on the way in) and prints its meta,
/// tensor inventory, quantization decision and resume state.
fn cmd_artifact_inspect(o: &Opts) -> CliResult {
    let path = o
        .get("path")
        .ok_or("hero artifact inspect: --path FILE is required")?;
    let (art, state) = load_artifact(path)?;
    print!("{}", describe_artifact(&art, state.as_ref()));
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
