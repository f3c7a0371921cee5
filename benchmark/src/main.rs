//! `hero-benchmark`: the repository benchmark of the HERO reproduction.
//!
//! ```text
//! hero-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! hero-benchmark compare <parent run files…> -- <change run files…>
//! hero-benchmark spread <run files…>
//! ```
//!
//! `run` with a workload measures it in this process and prints every
//! metric with its unit; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Without a
//! workload it runs each workload in its own child process, so worker
//! pools, once-initialised globals and the allocator never carry over
//! between workloads. Each run also writes `runs/run_<rev>_<seed>_<workload>.json`
//! under this package. See README.md for the workloads and metrics.

mod layers;
mod spec;
mod stats;
mod workloads;

use hero_obs::json::{parse, JsonObj, Value};
use spec::Spec;
use stats::{compare, compare_failures, median, percentile, quartiles, tail_percentile, Verdict};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Check, Sizes, Tracing, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A named measurement.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Where runs write their result files, traces and scratch caches.
pub fn runs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("runs")
}

const USAGE: &str = "usage:
  hero-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
  hero-benchmark compare <parent run files...> -- <change run files...>
  hero-benchmark spread <run files...>";

/// Options of `run`.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String], default_seconds: u64) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 0,
        seconds: default_seconds,
        traced: false,
        smoke: false,
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if seen.contains(&flag) {
            return Err(format!("flag `{flag}` given twice"));
        }
        seen.push(flag);
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                out.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

/// Output of a short command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from; `nogit` outside a git
/// checkout (git is never asked to search parent directories).
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "nogit".into();
    }
    let root = root.to_string_lossy().into_owned();
    command_line("git", &["-C", &root, "rev-parse", "--short=12", "HEAD"])
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn env_or_empty(key: &str) -> String {
    std::env::var(key).unwrap_or_default()
}

/// Provenance recorded with every run.
fn header(args: &RunArgs, w: Workload, sizes: &Sizes, rev: &str, hero_threads: &str) -> String {
    let mut s = JsonObj::new();
    s.u64("ops", sizes.ops as u64)
        .u64("warmup", sizes.warmup as u64)
        .u64("setups", sizes.setups as u64)
        .u64("probe_steps", sizes.probe_steps as u64)
        .f64("data_scale", f64::from(sizes.data_scale))
        .u64("table1_test", sizes.table1_test as u64);
    let mut h = JsonObj::new();
    h.str("workload", w.name())
        .u64("seed", args.seed)
        .u64("seconds", args.seconds)
        .bool("traced", args.traced)
        .bool("smoke", args.smoke)
        .str("git_rev", rev)
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("gemm_kernel", hero_tensor::active_gemm_kernel().name())
        .str("rustc", &command_line("rustc", &["--version"]))
        .str("hero_no_simd", &env_or_empty("HERO_NO_SIMD"))
        .str("hero_threads_ignored", hero_threads)
        .raw("sizes", &s.finish());
    h.finish()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut o = JsonObj::new();
    for m in metrics {
        let mut v = JsonObj::new();
        v.f64("value", m.value).str("unit", m.unit);
        o.raw(&m.name, &v.finish());
    }
    o.finish()
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    let mut o = JsonObj::new();
    o.bool("correct", correct)
        .u64("attempted", attempted as u64)
        .u64("failed", failed as u64)
        .raw("metrics", metrics);
    o.finish()
}

fn f64_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| hero_obs::json::num(x)).collect();
    format!("[{}]", items.join(", "))
}

fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            let mut o = JsonObj::new();
            o.str("name", &c.name)
                .bool("ok", c.ok)
                .str("detail", &c.detail);
            o.finish()
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Checks the emitted metrics against the declaration: the same names,
/// in any order, each with its declared unit and a finite value.
fn check_against_spec(spec: &Spec, traced: bool, metrics: &[Metric]) -> Result<(), String> {
    let declared = spec.metrics(traced);
    for d in declared {
        match metrics.iter().find(|m| m.name == d.name) {
            None => return Err(format!("declared metric `{}` was not measured", d.name)),
            Some(m) if m.unit != d.unit => {
                return Err(format!(
                    "metric `{}` has unit {} but declares {}",
                    d.name, m.unit, d.unit
                ))
            }
            Some(m) if !m.value.is_finite() => {
                return Err(format!("metric `{}` is not finite: {}", d.name, m.value))
            }
            Some(_) => {}
        }
    }
    match metrics
        .iter()
        .find(|m| !declared.iter().any(|d| d.name == m.name))
    {
        Some(m) => Err(format!(
            "metric `{}` is not declared in BENCHMARK.json",
            m.name
        )),
        None => Ok(()),
    }
}

/// End-to-end metrics of an untraced run (times at the reference
/// machine's speed), and the same statistics of the raw wall times.
fn end_to_end(m: &workloads::Measured) -> Result<(Vec<Metric>, Vec<Metric>, f64), String> {
    let tail_p = tail_percentile(m.ops.wall.len());
    let stats = |setup: &[f64], ops: &[f64], prefix: &str| {
        vec![
            Metric::new(format!("{prefix}setup_s"), median(setup), "s"),
            Metric::new(format!("{prefix}op_ms_p50"), median(ops), "ms"),
            Metric::new(format!("{prefix}op_ms_tail"), percentile(ops, tail_p), "ms"),
        ]
    };
    let mut metrics = stats(
        &m.setup.at_reference_speed(),
        &m.ops.at_reference_speed(),
        "",
    );
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"));
    let mut wall = stats(&m.setup.wall, &m.ops.wall, "wall_");
    wall.push(Metric::new(
        "calibration_ms_p50",
        median(&m.ops.cal_ms),
        "ms",
    ));
    Ok((metrics, wall, tail_p))
}

/// Runs one workload in this process; returns whether every op and check
/// passed.
fn run_one(args: &RunArgs, w: Workload, spec: &Spec) -> Result<bool, String> {
    let trace_flag = env_or_empty("HERO_TRACE");
    if !args.traced && !trace_flag.is_empty() && trace_flag != "0" {
        return Err("HERO_TRACE is set: an untraced run would time the tracer; unset it".into());
    }
    // Workloads pin threads through the API; the variable must not leak
    // into code paths that read it as a default.
    let hero_threads = env_or_empty("HERO_THREADS");
    std::env::remove_var("HERO_THREADS");
    hero_tensor::set_gemm_threads(Some(1));

    let sizes = Sizes::new(w, args.seconds, args.smoke);
    let rev = git_rev();
    let header = header(args, w, &sizes, &rev, &hero_threads);
    println!("hero-benchmark {header}");
    std::fs::create_dir_all(runs_dir()).map_err(|e| format!("create runs dir: {e}"))?;
    let (metrics, m, samples) = if args.traced {
        let dir = runs_dir().join(format!("trace_{}", w.name()));
        let (metrics, m) = layers::trace(w, args.seed, &sizes, &dir).map_err(|e| e.to_string())?;
        (metrics, m, String::from("{}"))
    } else {
        let m =
            workloads::measure(w, args.seed, &sizes, Tracing(false)).map_err(|e| e.to_string())?;
        let (metrics, wall, tail_p) = end_to_end(&m)?;
        let mut s = JsonObj::new();
        s.raw("op_ms", &f64_array(&m.ops.wall))
            .raw("op_cal_ms", &f64_array(&m.ops.cal_ms))
            .raw("setup_s", &f64_array(&m.setup.wall))
            .raw("setup_cal_ms", &f64_array(&m.setup.cal_ms))
            .f64("tail_percentile", tail_p)
            .raw("wall", &metrics_json(&wall));
        println!(
            "ops: {} timed, tail percentile p{tail_p}; wall clock: {}",
            m.ops.wall.len(),
            wall.iter()
                .map(|w| format!("{} = {} {}", w.name, w.value, w.unit))
                .collect::<Vec<_>>()
                .join(", ")
        );
        (metrics, m, s.finish())
    };
    let workloads::Measured {
        checks,
        attempted,
        failed,
        ..
    } = m;
    check_against_spec(spec, args.traced, &metrics)?;
    for c in &checks {
        println!(
            "check {}: {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && checks.iter().all(|c| c.ok);
    let result = result_json(correct, attempted, failed, &metrics_json(&metrics));
    let mut file = JsonObj::new();
    file.str("workload", w.name())
        .raw("header", &header)
        .raw("checks", &checks_json(&checks))
        .raw("samples", &samples)
        .raw("result", &result);
    let path = runs_dir().join(format!(
        "run_{}_{}_{}{}.json",
        rev,
        args.seed,
        w.name(),
        if args.traced { "_traced" } else { "" }
    ));
    std::fs::write(&path, file.finish() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!("{result}");
    Ok(correct)
}

/// Runs every workload in its own child process.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = JsonObj::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(result) = parse(last) else {
            eprintln!("workload {} failed: {}", w.name(), out.status);
            correct = false;
            continue;
        };
        correct &= out.status.success() && result.get("correct") == Some(&Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(Value::Obj(fields)) = result.get("metrics") {
            for (name, v) in fields {
                let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                let mut m = JsonObj::new();
                m.f64("value", value).str("unit", unit);
                metrics.raw(&format!("{}/{name}", w.name()), &m.finish());
            }
        }
    }
    let mut o = JsonObj::new();
    o.bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics.finish());
    println!("{}", o.finish());
    Ok(correct)
}

/// One untraced run file, as `compare` reads it.
struct RunFile {
    workload: String,
    kernel: String,
    no_simd: String,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn read_run_file(path: &str) -> Result<Option<RunFile>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let header = v
        .get("header")
        .ok_or_else(|| format!("{path}: no header"))?;
    if header.get("traced") == Some(&Value::Bool(true)) {
        return Ok(None);
    }
    let s = |h: &Value, k: &str| h.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let result = v
        .get("result")
        .ok_or_else(|| format!("{path}: no result"))?;
    let n = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = match result.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{path}: no metrics")),
    };
    Ok(Some(RunFile {
        workload: s(&v, "workload"),
        kernel: s(header, "gemm_kernel"),
        no_simd: s(header, "hero_no_simd"),
        attempted: n("attempted"),
        failed: n("failed"),
        metrics,
    }))
}

/// Loads run files, skipping traced runs; all must share one GEMM
/// kernel and `HERO_NO_SIMD` setting.
fn load_runs(files: &[String]) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    for f in files {
        runs.extend(read_run_file(f)?);
    }
    let kernels: Vec<(&str, &str)> = runs
        .iter()
        .map(|r| (r.kernel.as_str(), r.no_simd.as_str()))
        .collect();
    if kernels.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "runs used different GEMM kernels or HERO_NO_SIMD settings: {kernels:?}"
        ));
    }
    Ok(runs)
}

fn of_workload<'a>(runs: &'a [RunFile], w: &str) -> Vec<&'a RunFile> {
    runs.iter().filter(|r| r.workload == w).collect()
}

fn metric_values(runs: &[&RunFile], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
        .collect()
}

/// `spread`: each end-to-end metric's median and run-to-run spread (the
/// inter-quartile distance over the median) against its bound. The last
/// line is the same table as JSON.
fn spread_cmd(files: &[String], spec: &Spec) -> Result<bool, String> {
    let runs = load_runs(files)?;
    let mut all_within = true;
    let mut out = JsonObj::new();
    for w in &spec.workloads {
        let rs = of_workload(&runs, w);
        if rs.is_empty() {
            continue;
        }
        let mut per_metric = JsonObj::new();
        for m in &spec.end_to_end {
            let v = metric_values(&rs, &m.name);
            let [q1, q2, q3] = quartiles(&v);
            let spread = (q3 - q1) / q2.abs();
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let within = spread <= bound;
            all_within &= within;
            println!(
                "{w:<26} {:<14} runs {:>2}  median {q2:>12.4}  spread {:>6.2}%  bound {:>4.0}%  {}",
                m.name,
                v.len(),
                spread * 100.0,
                bound * 100.0,
                if !within {
                    "OUTSIDE BOUND"
                } else if spread * 3.0 <= bound {
                    "within a third of the bound"
                } else {
                    "within bound"
                }
            );
            let mut o = JsonObj::new();
            o.u64("runs", v.len() as u64)
                .f64("median", q2)
                .f64("q1", q1)
                .f64("q3", q3)
                .f64("spread", spread)
                .f64("bound", bound);
            per_metric.raw(&m.name, &o.finish());
        }
        out.raw(w, &per_metric.finish());
    }
    println!("{}", out.finish());
    Ok(all_within)
}

fn fmt_q(xs: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(xs);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

/// `compare`: applies each metric's bound and the pairwise gain rule.
fn compare_cmd(args: &[String], spec: &Spec) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between parent and change run files")?;
    let (parent, change) = (load_runs(&args[..split])?, load_runs(&args[split + 1..])?);
    if parent.is_empty() || change.is_empty() {
        return Err("both sides need at least one untraced run file".into());
    }
    if parent[0].kernel != change[0].kernel || parent[0].no_simd != change[0].no_simd {
        return Err(
            "parent and change used different GEMM kernels or HERO_NO_SIMD settings".into(),
        );
    }
    let mut regression = false;
    println!(
        "{:<26} {:<16} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins"
    );
    for w in &spec.workloads {
        let (p, c) = (of_workload(&parent, w), of_workload(&change, w));
        if p.is_empty() || c.is_empty() {
            continue;
        }
        for m in &spec.end_to_end {
            let (pv, cv) = (metric_values(&p, &m.name), metric_values(&c, &m.name));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let cmp = compare(&pv, &cv, m.better, bound);
            regression |= cmp.verdict == Verdict::Regression;
            println!(
                "{w:<26} {:<16} {:>32} {:>32} {:>7.2}% {:>3}/{:<2}  {} (bound {:.0}%, parent spread {:.1}%)",
                m.name,
                fmt_q(&pv),
                fmt_q(&cv),
                cmp.worse_by * 100.0,
                cmp.wins,
                cmp.pairs,
                cmp.verdict.label(),
                bound * 100.0,
                cmp.parent_spread * 100.0
            );
        }
        let fails = |runs: &[&RunFile]| -> Vec<(u64, u64)> {
            runs.iter().map(|r| (r.failed, r.attempted)).collect()
        };
        let (pf, cf) = (fails(&p), fails(&c));
        let verdict = compare_failures(&pf, &cf);
        regression |= verdict == Verdict::Regression;
        println!(
            "{w:<26} {:<16} {:>32} {:>32} {:>8} {:>6}  {}",
            "failed_frac",
            stats::failed_frac(&pf),
            stats::failed_frac(&cf),
            "",
            "",
            verdict.label()
        );
    }
    Ok(!regression)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match spec::load(&spec::default_path()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.first().map(String::as_str) {
        Some("run") => {
            parse_run_args(&args[1..], spec.run_seconds).and_then(|a| match a.workload {
                Some(w) => run_one(&a, w, &spec),
                None => run_all(&a),
            })
        }
        Some("compare") => compare_cmd(&args[1..], &spec),
        Some("spread") => spread_cmd(&args[1..], &spec),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_args_take_the_documented_flags() {
        let a = parse_run_args(
            &strings(&[
                "--workload",
                "table1_row_warm",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]),
            12,
        )
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Table1RowWarm));
        assert_eq!((a.seed, a.seconds, a.traced, a.smoke), (7, 3, true, false));
        assert_eq!(parse_run_args(&[], 12).unwrap().seconds, 12);
    }

    #[test]
    fn run_args_reject_unknown_duplicate_and_malformed_flags() {
        for bad in [
            &["--epochs", "5"][..],
            &["--seed", "1", "--seed", "2"],
            &["--trace", "2"],
            &["--workload", "nope"],
            &["--seconds", "0"],
            &["--seed"],
        ] {
            assert!(parse_run_args(&strings(bad), 12).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spec_check_catches_missing_extra_and_mis_united_metrics() {
        let spec = spec::load(&spec::default_path()).unwrap();
        let full: Vec<Metric> = spec
            .end_to_end
            .iter()
            .map(|m| {
                let unit: &'static str = Box::leak(m.unit.clone().into_boxed_str());
                Metric::new(m.name.clone(), 1.0, unit)
            })
            .collect();
        assert!(check_against_spec(&spec, false, &full).is_ok());
        assert!(check_against_spec(&spec, false, &full[1..]).is_err());
        let mut extra = full.clone();
        extra.push(Metric::new("bogus", 1.0, "ms"));
        assert!(check_against_spec(&spec, false, &extra).is_err());
        let mut wrong = full;
        wrong[0].unit = "furlong";
        assert!(check_against_spec(&spec, false, &wrong).is_err());
    }
}
