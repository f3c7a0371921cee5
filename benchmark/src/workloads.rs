//! The four workloads: their seeded inputs, set-up, the op each one
//! repeats, and the correctness checks every op must pass.
//!
//! Every workload is a closed loop: one process runs a fixed number of
//! ops back to back. The op count comes from `--seconds` through a fixed
//! nominal rate per workload, never from a clock, so the parent and the
//! change of a comparison run identical work.

use hero_core::experiment::{
    fig1_bits, model_config, quant_sweep, train_cell_cached, MethodKind, Scale,
};
use hero_core::{
    probe_spectrum, static_sensitivity_matrix, train, train_resumable, verify_network_tape,
    SpectrumOptions, SpectrumProbe, TrainConfig,
};
use hero_data::{Dataset, Preset, SynthGenerator, SynthSpec};
use hero_nn::models::ModelKind;
use hero_nn::{evaluate_accuracy, Network};
use hero_optim::Method;
use hero_parallel::ParallelCtx;
use hero_tensor::rng::StdRng;
use hero_tensor::{Result, Tensor, TensorError};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial HERO training of the C10 ResNet; one op is one epoch.
    TrainHeroResnet,
    /// SGD training of the same model on the 2-worker sharded executor;
    /// one op is one epoch.
    TrainSgdResnetSharded,
    /// The warm-cache Table 1 row; one op is one trained cell loaded,
    /// analyzed, allocated and quantization-swept.
    Table1RowWarm,
    /// Hessian spectrum probes of a trained C10 ResNet; one op is one
    /// `probe_spectrum`.
    SpectrumProbeResnet,
}

impl Workload {
    /// All workloads in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainHeroResnet,
        Workload::TrainSgdResnetSharded,
        Workload::Table1RowWarm,
        Workload::SpectrumProbeResnet,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainHeroResnet => "train_hero_resnet",
            Workload::TrainSgdResnetSharded => "train_sgd_resnet_sharded",
            Workload::Table1RowWarm => "table1_row_warm",
            Workload::SpectrumProbeResnet => "spectrum_probe_resnet",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Mean seconds per op on the reference machine (2-core x86-64,
    /// AVX2); turns `--seconds` into a fixed op count. For Table 1 this is
    /// the mean over the nine cells, whose times differ fourfold.
    fn nominal_op_s(self) -> f64 {
        match self {
            Workload::TrainHeroResnet => 0.140,
            Workload::TrainSgdResnetSharded => 0.083,
            Workload::Table1RowWarm => 0.410,
            Workload::SpectrumProbeResnet => 0.700,
        }
    }

    /// Training method and data-parallel worker count (training
    /// workloads only).
    fn training(self) -> Option<(Method, usize)> {
        match self {
            Workload::TrainHeroResnet => Some((
                MethodKind::Hero.tuned_for(Preset::C10, ModelKind::Resnet),
                0,
            )),
            Workload::TrainSgdResnetSharded => Some((Method::Sgd, 2)),
            _ => None,
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Timed ops (in a traced run, every other one traced).
    pub ops: usize,
    /// Untimed ops run first, so caches fill and lazy set-up finishes.
    pub warmup: usize,
    /// Set-up repetitions (the reported set-up time is their median).
    pub setups: usize,
    /// Timed steps of each per-layer step measurement of a traced run.
    pub probe_steps: usize,
    /// Dataset multiplier of `Preset::C10.sizes` for training data.
    pub data_scale: f32,
    /// Samples in the seeded Table 1 test set.
    pub table1_test: usize,
    /// Lowest final test accuracy a training run must reach.
    pub min_test_acc: f32,
}

/// Epochs the spectrum workload trains its model for during set-up.
const SPECTRUM_TRAIN_EPOCHS: usize = 3;
/// Bit grid of the Table 1 sensitivity matrix.
const SENS_GRID: [u8; 6] = [2, 3, 4, 5, 6, 8];
/// Samples in the sensitivity probe batch.
const SENS_PROBE: usize = 64;
/// Average weight bits the Table 1 allocation must fit in.
const ALLOC_BITS: f32 = 4.0;
/// The nine Table 1 cells: three models × HERO / GRAD-L1 / SGD.
const CELLS: [(ModelKind, MethodKind); 9] = [
    (ModelKind::Resnet, MethodKind::Hero),
    (ModelKind::Resnet, MethodKind::GradL1),
    (ModelKind::Resnet, MethodKind::Sgd),
    (ModelKind::Mobilenet, MethodKind::Hero),
    (ModelKind::Mobilenet, MethodKind::GradL1),
    (ModelKind::Mobilenet, MethodKind::Sgd),
    (ModelKind::Vgg, MethodKind::Hero),
    (ModelKind::Vgg, MethodKind::GradL1),
    (ModelKind::Vgg, MethodKind::Sgd),
];

impl Sizes {
    /// Sizes for a run of `seconds` (or the seconds-independent smoke
    /// sizes); a traced run does the same work as an untraced one.
    pub fn new(w: Workload, seconds: u64, smoke: bool) -> Sizes {
        if smoke {
            return Sizes {
                ops: 2,
                warmup: 1,
                setups: 1,
                probe_steps: 2,
                data_scale: 0.25,
                table1_test: 64,
                min_test_acc: 0.0,
            };
        }
        let ops = ((seconds as f64 / w.nominal_op_s()).round() as usize).max(10);
        Sizes {
            ops,
            warmup: match w {
                Workload::Table1RowWarm => CELLS.len(),
                _ => 1,
            },
            setups: match w {
                Workload::TrainHeroResnet | Workload::TrainSgdResnetSharded => 5,
                _ => 3,
            },
            probe_steps: 12,
            data_scale: 1.0,
            table1_test: 400,
            min_test_acc: 0.8,
        }
    }

    /// The Table 1 training scale of the artifact cache.
    pub fn cache_scale(&self) -> Scale {
        Scale {
            data: self.data_scale / 4.0,
            epochs_small: 2,
            epochs_large: 1,
        }
    }
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Measured values behind the verdict.
    pub detail: String,
}

impl Check {
    /// Records a check.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Wall times of repeated work and the calibration time around each.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Wall time of each repetition.
    pub wall: Vec<f64>,
    /// Calibration time before each repetition and after the last one
    /// (`wall.len() + 1` entries, in ms).
    pub cal_ms: Vec<f64>,
}

impl Timed {
    /// Times rescaled to the reference machine's speed: each wall time
    /// times [`CAL_REF_MS`] over the mean calibration time around it.
    pub fn at_reference_speed(&self) -> Vec<f64> {
        self.wall
            .iter()
            .zip(self.cal_ms.windows(2))
            .map(|(t, cal)| t * CAL_REF_MS / ((cal[0] + cal[1]) / 2.0))
            .collect()
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Set-up repetitions, in seconds.
    pub setup: Timed,
    /// Timed ops, in milliseconds.
    pub ops: Timed,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that errored or failed a check.
    pub failed: usize,
    /// Run-level checks.
    pub checks: Vec<Check>,
}

/// The calibration kernel's time on the reference machine (2-core
/// x86-64 VM, AVX2) when nothing else loads it.
const CAL_REF_MS: f64 = 0.30;

/// A fixed kernel owned by the benchmark, timed between ops: a 2 MiB
/// matrix-vector product, so it shares the ops' sensitivity to CPU
/// frequency and to cache and memory contention from other tenants,
/// but none of the program's code. It runs while the program is idle
/// (every workload joins its work before an op ends).
pub struct Calibration {
    a: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Calibration {
    const COLS: usize = 1024;

    /// Allocates and fills the kernel's operands.
    pub fn new() -> Calibration {
        Calibration {
            a: (0..512 * Self::COLS)
                .map(|i| (i % 97) as f32 * 0.01)
                .collect(),
            x: (0..Self::COLS).map(|i| (i % 13) as f32 * 0.1).collect(),
            y: vec![0.0; 512],
        }
    }

    /// Milliseconds of the fastest of three passes of four products.
    pub fn measure(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..4 {
                    let rows = black_box(&self.a).chunks_exact(Self::COLS);
                    for (yi, row) in self.y.iter_mut().zip(rows) {
                        let mut acc = [0f32; 8];
                        for (r, xs) in row.chunks_exact(8).zip(self.x.chunks_exact(8)) {
                            for k in 0..8 {
                                acc[k] += r[k] * xs[k];
                            }
                        }
                        *yi += acc.iter().sum::<f32>();
                    }
                }
                black_box(&self.y);
                ms_since(t)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs `f(0..n)` with the kernel timed before each run and after the
    /// last, returning the wall times (ms) and the results.
    pub fn time<T>(&mut self, n: usize, mut f: impl FnMut(usize) -> T) -> (Timed, Vec<T>) {
        let mut timed = Timed::default();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            timed.cal_ms.push(self.measure());
            let t = Instant::now();
            out.push(f(i));
            timed.wall.push(ms_since(t));
        }
        timed.cal_ms.push(self.measure());
        (timed, out)
    }
}

/// Chrome-trace events kept per traced run (the start of the run); the
/// span summary covers every traced op regardless.
const EVENT_CAP: usize = 2_000;

/// Which timed ops run under the program's own span tracer: none in an
/// untraced run; every even op in a traced run, so traced and untraced
/// ops of the same work alternate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tracing(pub bool);

impl Tracing {
    /// True when timed op `i` is traced.
    pub fn traces(self, i: usize) -> bool {
        self.0 && i.is_multiple_of(2)
    }

    /// Starts timed op `i`: for a traced op, turns the tracer on and opens
    /// the op's root span `bench.op`.
    fn begin(self, i: usize) -> Option<hero_obs::SpanGuard> {
        self.traces(i).then(|| {
            hero_obs::enable_events(EVENT_CAP);
            hero_obs::span("bench.op")
        })
    }
}

/// Ends an op begun by [`Tracing::begin`]: closes its root span (and any
/// program span still open inside it) and turns the tracer off.
fn end_op(root: Option<hero_obs::SpanGuard>) {
    if let Some(root) = root {
        drop(root);
        hero_obs::disable();
    }
}

fn other(msg: String) -> TensorError {
    TensorError::InvalidArgument(msg)
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The seeded C10 draw: the preset's generator with its seed XOR-ed by
/// the run seed.
pub fn c10_data(seed: u64, scale: f32) -> (Dataset, Dataset) {
    let base = Preset::C10.spec();
    let spec = SynthSpec {
        seed: base.seed ^ seed,
        ..base
    };
    let (n_train, n_test) = Preset::C10.sizes(scale);
    SynthGenerator::new(spec).train_test(n_train, n_test)
}

/// The C10 ResNet, initialised from the run seed.
pub fn c10_resnet(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D0D_E15E);
    ModelKind::Resnet.build(model_config(Preset::C10), &mut rng)
}

/// The training recipe with threads pinned through the API (never from
/// `HERO_THREADS`) and the run seed as `TrainConfig::seed`.
fn train_config(method: Method, epochs: usize, threads: usize, seed: u64) -> TrainConfig {
    TrainConfig::new(method, epochs)
        .with_threads(threads)
        .with_seed(seed ^ 0x7EA7)
}

/// Inputs of a training workload, prepared the way the trainer prepares
/// them before its first epoch.
struct TrainInputs {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Freshly initialised network.
    pub net: Network,
}

/// Generates data and model, verifies the model's tape, and (sharded)
/// spawns and joins the worker pool once.
///
/// # Errors
///
/// Propagates verification and executor errors.
fn prepare_train(seed: u64, sizes: &Sizes, threads: usize) -> Result<TrainInputs> {
    let (train, test) = c10_data(seed, sizes.data_scale);
    let mut net = c10_resnet(seed);
    let probe = train.len().min(32);
    verify_network_tape(
        &mut net,
        &train.images.narrow(0, probe)?,
        &train.labels[..probe],
    )?;
    if threads > 0 {
        drop(ParallelCtx::new(&net, threads)?);
    }
    Ok(TrainInputs { train, test, net })
}

/// Runs `prepare` `sizes.setups` times, timing each (in seconds), and
/// keeps the last result.
fn timed_setups<T>(
    cal: &mut Calibration,
    sizes: &Sizes,
    prepare: impl FnMut(usize) -> Result<T>,
) -> Result<(T, Timed)> {
    let (mut setup, results) = cal.time(sizes.setups.max(1), prepare);
    for t in &mut setup.wall {
        *t /= 1e3;
    }
    let last = results.into_iter().collect::<Result<Vec<T>>>()?.pop();
    Ok((last.expect("at least one set-up"), setup))
}

/// Checks a training record: finite epoch losses, a falling loss and the
/// final test accuracy. Returns the checks and the number of timed
/// epochs (the last `timed` of the record) that failed.
fn train_checks(
    losses: &[f32],
    final_test_acc: f32,
    timed: usize,
    min_acc: f32,
) -> (Vec<Check>, usize) {
    let nonfinite = losses
        .iter()
        .rev()
        .take(timed)
        .filter(|l| !l.is_finite())
        .count();
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    let falling = last < first;
    let accurate = final_test_acc >= min_acc;
    let checks = vec![
        Check::new(
            "epoch_losses_finite",
            nonfinite == 0,
            format!("{nonfinite} non-finite of {}", losses.len()),
        ),
        Check::new(
            "loss_falls",
            falling,
            format!("first {first:.4}, last {last:.4}"),
        ),
        Check::new(
            "final_test_acc",
            accurate,
            format!("{final_test_acc:.4} (need >= {min_acc})"),
        ),
    ];
    // A run-level failure is charged to the last op.
    let failed = nonfinite + usize::from(nonfinite == 0 && !(falling && accurate));
    (checks, failed.min(timed))
}

/// Runs `ops` timed ops with the calibration kernel between them. Op
/// `i` returns `Ok(None)` when it passes its check and a description of
/// the failure otherwise; an error counts as a failed op too.
fn timed_ops(
    cal: &mut Calibration,
    ops: usize,
    tracing: Tracing,
    mut op: impl FnMut(usize) -> Result<Option<String>>,
) -> (Timed, usize, String) {
    let (timed, outcomes) = cal.time(ops, |i| {
        let root = tracing.begin(i);
        let out = op(i);
        end_op(root);
        out
    });
    let failures: Vec<String> = outcomes
        .into_iter()
        .enumerate()
        .filter_map(|(i, out)| {
            out.unwrap_or_else(|e| Some(e.to_string()))
                .map(|why| format!("op {i}: {why}"))
        })
        .collect();
    let detail = failures
        .last()
        .cloned()
        .unwrap_or_else(|| format!("{ops} ops checked"));
    (timed, failures.len(), detail)
}

fn measure_train(w: Workload, seed: u64, sizes: &Sizes, tracing: Tracing) -> Result<Measured> {
    let (method, threads) = w.training().expect("training workload");
    let mut cal = Calibration::new();
    let (inputs, setup) = timed_setups(&mut cal, sizes, |_| prepare_train(seed, sizes, threads))?;
    let TrainInputs {
        train,
        test,
        mut net,
    } = inputs;
    let config = train_config(method, sizes.warmup + sizes.ops, threads, seed);
    // Timed op `i` is epoch `warmup + i`.
    let begin = |epoch: usize| {
        epoch
            .checked_sub(sizes.warmup)
            .and_then(|i| tracing.begin(i))
    };
    // `on_checkpoint` fires at the end of every epoch but the last, which
    // ends when `train_resumable` returns; the calibration runs between
    // epochs. A traced epoch's root span is closed (together with the
    // trainer's `epoch` span still open around the callback) before the
    // calibration runs.
    let mut cal_ms = vec![cal.measure()];
    let mut starts = vec![Instant::now()];
    let mut root = begin(0);
    let mut ends = Vec::with_capacity(config.epochs);
    let (record, _) = train_resumable(&mut net, &train, &test, &config, None, 1, &mut |_, _| {
        ends.push(Instant::now());
        end_op(root.take());
        cal_ms.push(cal.measure());
        starts.push(Instant::now());
        root = begin(ends.len());
        Ok(())
    })?;
    ends.push(Instant::now());
    end_op(root);
    cal_ms.push(cal.measure());
    let ops = Timed {
        wall: starts
            .iter()
            .zip(&ends)
            .skip(sizes.warmup)
            .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
            .collect(),
        cal_ms: cal_ms[sizes.warmup..].to_vec(),
    };
    let losses: Vec<f32> = record.epochs.iter().map(|e| e.train_loss).collect();
    let (checks, failed) = train_checks(
        &losses,
        record.final_test_acc,
        sizes.ops,
        sizes.min_test_acc,
    );
    Ok(Measured {
        setup,
        ops,
        attempted: sizes.ops,
        failed,
        checks,
    })
}

/// A scratch directory under the package's `runs/` that is removed when
/// dropped.
struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// A fresh, empty directory named after this process and `tag`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors as tensor errors.
    pub fn new(tag: &str) -> Result<ScratchDir> {
        let dir = crate::runs_dir().join(format!("scratch_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| other(format!("create {}: {e}", dir.display())))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seeded inputs of the Table 1 workload.
struct Table1Inputs {
    /// The artifact cache, filled during set-up.
    pub cache: ScratchDir,
    /// Training scale the cache was filled at.
    pub scale: Scale,
    /// Seeded test set the quantization sweep evaluates.
    pub test: Dataset,
    /// Sensitivity probe images (the first samples of `test`).
    pub probe_x: Tensor,
    /// Sensitivity probe labels.
    pub probe_y: Vec<usize>,
    /// Full-precision accuracy of each cell on `test`.
    pub full_acc: Vec<f32>,
}

/// Loads cell `cell` from the (warm) cache.
///
/// # Errors
///
/// Propagates artifact errors; a cache miss would retrain, so callers
/// only use this after set-up filled the cache.
fn load_cell(inputs: &Table1Inputs, cell: usize) -> Result<hero_core::experiment::TrainedModel> {
    let (model, method) = CELLS[cell];
    train_cell_cached(Preset::C10, model, method, inputs.scale, 0, &inputs.cache.0)
}

/// Fills a fresh artifact cache with the nine cells, then draws the
/// seeded test set and measures each cell's full-precision accuracy.
///
/// # Errors
///
/// Propagates training, artifact and evaluation errors.
fn prepare_table1(seed: u64, sizes: &Sizes, tag: usize) -> Result<Table1Inputs> {
    let cache = ScratchDir::new(&format!("cache{tag}"))?;
    let scale = sizes.cache_scale();
    for (model, method) in CELLS {
        train_cell_cached(Preset::C10, model, method, scale, 0, &cache.0)?;
    }
    let base = Preset::C10.spec();
    let test = SynthGenerator::new(SynthSpec {
        seed: base.seed ^ seed,
        ..base
    })
    .generate(sizes.table1_test, 2);
    let probe = test.len().min(SENS_PROBE);
    let mut inputs = Table1Inputs {
        cache,
        scale,
        probe_x: test.images.narrow(0, probe)?,
        probe_y: test.labels[..probe].to_vec(),
        test,
        full_acc: Vec::new(),
    };
    for cell in 0..CELLS.len() {
        let mut trained = load_cell(&inputs, cell)?;
        let acc = evaluate_accuracy(
            &mut trained.net,
            &inputs.test.images,
            &inputs.test.labels,
            64,
        )?;
        inputs.full_acc.push(acc);
    }
    Ok(inputs)
}

/// What one Table 1 op produced.
#[derive(Debug, Clone, PartialEq)]
struct CellOut {
    /// `(bits, accuracy)` of the quantization sweep.
    pub points: Vec<(u8, f32)>,
    /// Numel-weighted average bits of the mixed-precision allocation.
    pub avg_bits: f32,
}

/// Numel-weighted average of a per-layer bit allocation.
fn average_bits(numels: &[usize], bits: &[u8]) -> f32 {
    let total: usize = numels.iter().sum();
    let weighted: usize = numels.iter().zip(bits).map(|(&n, &b)| n * b as usize).sum();
    weighted as f32 / total.max(1) as f32
}

/// One Table 1 op: cache-hit load, certified sensitivity matrix, bit
/// allocation and the Fig. 1 quantization sweep. The stages the program
/// does not name itself run in `bench.*` spans, so a traced op
/// attributes them (the spans cost one atomic load when untraced).
///
/// # Errors
///
/// Propagates errors of every stage, including the sweep's soundness gate.
fn table1_cell(inputs: &Table1Inputs, cell: usize) -> Result<CellOut> {
    let mut trained = {
        let _span = hero_obs::span("bench.artifact_load");
        load_cell(inputs, cell)?
    };
    let matrix = static_sensitivity_matrix(
        &mut trained.net,
        &inputs.probe_x,
        &inputs.probe_y,
        &SENS_GRID,
    )?;
    let alloc = {
        let _span = hero_obs::span("bench.allocate");
        matrix.allocate(ALLOC_BITS, 2, 8)?
    };
    let numels: Vec<usize> = matrix.layers.iter().map(|l| l.numel).collect();
    let curve = {
        let _span = hero_obs::span("bench.quant_sweep");
        quant_sweep(&mut trained, &inputs.test, &fig1_bits())?
    };
    Ok(CellOut {
        points: curve.points,
        avg_bits: average_bits(&numels, &alloc),
    })
}

/// The per-op check of Table 1: 8-bit accuracy within 0.05 of full
/// precision and an allocation within the bit budget.
fn cell_ok(out: &CellOut, full_acc: f32) -> bool {
    let acc8 = out.points.iter().find(|(b, _)| *b == 8).map(|&(_, a)| a);
    acc8.is_some_and(|a| (a - full_acc).abs() <= 0.05) && out.avg_bits <= ALLOC_BITS + 1e-6
}

fn measure_table1(seed: u64, sizes: &Sizes, tracing: Tracing) -> Result<Measured> {
    let mut cal = Calibration::new();
    let (inputs, setup) = timed_setups(&mut cal, sizes, |k| prepare_table1(seed, sizes, k))?;
    for i in 0..sizes.warmup {
        table1_cell(&inputs, i % CELLS.len())?;
    }
    let (ops, failed, detail) = timed_ops(&mut cal, sizes.ops, tracing, |i| {
        let cell = i % CELLS.len();
        let out = table1_cell(&inputs, cell)?;
        Ok((!cell_ok(&out, inputs.full_acc[cell]))
            .then(|| format!("cell {cell}: {:?}, avg bits {}", out.points, out.avg_bits)))
    });
    Ok(Measured {
        setup,
        ops,
        attempted: sizes.ops,
        failed,
        checks: vec![Check::new(
            "cells_within_8bit_and_budget",
            failed == 0,
            detail,
        )],
    })
}

/// The trained model and data the spectrum workload probes.
struct SpectrumInputs {
    /// Training split (the probe batch is its first samples).
    pub train: Dataset,
    /// The trained network.
    pub net: Network,
}

/// Generates seeded data and trains the C10 ResNet for a few epochs.
///
/// # Errors
///
/// Propagates training errors.
fn prepare_spectrum(seed: u64, sizes: &Sizes) -> Result<SpectrumInputs> {
    let (train_set, test_set) = c10_data(seed, sizes.data_scale);
    let mut net = c10_resnet(seed);
    let config = train_config(Method::Sgd, SPECTRUM_TRAIN_EPOCHS, 0, seed);
    train(&mut net, &train_set, &test_set, &config)?;
    Ok(SpectrumInputs {
        train: train_set,
        net,
    })
}

/// Options of probe `k`: the defaults the trainer and `hero spectrum` use,
/// with the probe seed split from the run seed.
fn spectrum_options(seed: u64, k: usize) -> SpectrumOptions {
    SpectrumOptions::default().with_seed(hero_hessian::probe_seed(seed, k))
}

/// The spectrum check: finite extremes and trace, ordered extremes.
fn probe_ok(p: &SpectrumProbe) -> bool {
    let (hi, lo) = (p.lambda_max.mean, p.lambda_min.mean);
    hi.is_finite() && lo.is_finite() && p.global_trace().is_finite() && hi >= lo
}

fn measure_spectrum(seed: u64, sizes: &Sizes, tracing: Tracing) -> Result<Measured> {
    let mut cal = Calibration::new();
    let (mut inputs, setup) = timed_setups(&mut cal, sizes, |_| prepare_spectrum(seed, sizes))?;
    for k in 0..sizes.warmup {
        probe_spectrum(
            &mut inputs.net,
            &inputs.train,
            0,
            &spectrum_options(seed, k),
        )?;
    }
    let (ops, failed, detail) = timed_ops(&mut cal, sizes.ops, tracing, |i| {
        let opts = spectrum_options(seed, sizes.warmup + i);
        let p = probe_spectrum(&mut inputs.net, &inputs.train, 0, &opts)?;
        Ok((!probe_ok(&p)).then(|| {
            format!(
                "lambda_max {}, lambda_min {}, trace {}",
                p.lambda_max.mean,
                p.lambda_min.mean,
                p.global_trace()
            )
        }))
    });
    Ok(Measured {
        setup,
        ops,
        attempted: sizes.ops,
        failed,
        checks: vec![Check::new(
            "spectrum_finite_and_ordered",
            failed == 0,
            detail,
        )],
    })
}

/// Runs one workload, tracing the ops `tracing` selects.
///
/// # Errors
///
/// Returns the first error that stops the workload as a whole (set-up or
/// training failures); per-op failures are counted instead.
pub fn measure(w: Workload, seed: u64, sizes: &Sizes, tracing: Tracing) -> Result<Measured> {
    match w {
        Workload::TrainHeroResnet | Workload::TrainSgdResnetSharded => {
            measure_train(w, seed, sizes, tracing)
        }
        Workload::Table1RowWarm => measure_table1(seed, sizes, tracing),
        Workload::SpectrumProbeResnet => measure_spectrum(seed, sizes, tracing),
    }
}
