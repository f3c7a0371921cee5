//! Minimal wall-clock benchmarking: a fixed number of batched samples per
//! operation, summarized by their median and quartiles, and JSON output.
//!
//! In-tree replacement for the Criterion dependency so the bench targets
//! build with no network access. One untimed call sizes the batch: each of
//! the [`SAMPLES`] samples runs the closure often enough to fill its share
//! of the budget and reads the clock once around the whole batch, so a
//! nanosecond-scale call site is not swamped by the clock reads around it.
//! A row reports the median of the samples' per-call times as
//! `ns_per_iter`, with the first and third quartiles beside it.
//! End-to-end costs (a training step per method, an epoch, a Table 1 row,
//! a spectrum probe) are measured by the repository benchmark under
//! `benchmark/`, not here.
//!
//! Rows are serialized with the shared `hero_obs::json` writer — the same
//! one behind the trace stream and run-summary artifacts — so every JSON
//! file under `results/` speaks one dialect, and each measured row is also
//! emitted as a structured `bench_row` event (the console line is its
//! human rendering).

use hero_obs::json::JsonObj;
use hero_obs::Event;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timed samples per operation.
pub const SAMPLES: usize = 15;

/// One measured operation: the schema of a `results/BENCH_*.json` row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRow {
    /// Identifier for the operation (stable across PRs so trajectories can
    /// be compared).
    pub name: String,
    /// Number of timed calls, over all samples.
    pub iters: u64,
    /// Median over the samples of wall-clock nanoseconds per call.
    pub ns_per_iter: f64,
    /// First quartile of the samples' nanoseconds per call.
    pub ns_q1: f64,
    /// Third quartile of the samples' nanoseconds per call.
    pub ns_q3: f64,
    /// Optional named extras (e.g. per-iteration counter readings such as
    /// `pool_hit_rate` or `gemm_flops`), serialized as additional fields.
    pub extras: Vec<(String, f64)>,
}

impl BenchRow {
    /// Attaches a named extra value to the row.
    #[must_use]
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }

    /// Serializes the row as one JSON object via the shared writer.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("name", &self.name)
            .u64("iters", self.iters)
            .f64("ns_per_iter", self.ns_per_iter)
            .f64("ns_q1", self.ns_q1)
            .f64("ns_q3", self.ns_q3);
        for (k, v) in &self.extras {
            o.f64(k, *v);
        }
        o.finish()
    }

    /// Emits the row as a structured `bench_row` event whose human
    /// rendering is the usual console line.
    pub fn emit(&self) {
        let mut ev = Event::new("bench_row")
            .str("name", &self.name)
            .u64("iters", self.iters)
            .f64("ns_per_iter", self.ns_per_iter)
            .f64("ns_q1", self.ns_q1)
            .f64("ns_q3", self.ns_q3);
        for (k, v) in &self.extras {
            ev = ev.f64(k, *v);
        }
        ev.human(self.to_string()).emit();
    }
}

/// `ns` nanoseconds in the largest unit that keeps the value above one.
fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

impl fmt::Display for BenchRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<40} {:>12}/iter  [{} – {}]  ({} iters)",
            self.name,
            human_ns(self.ns_per_iter),
            human_ns(self.ns_q1),
            human_ns(self.ns_q3),
            self.iters
        )
    }
}

/// True when the process was invoked with `--quick` (used by
/// `scripts/verify.sh` to keep bench smoke runs under a few minutes).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The per-operation measurement budget: 2 s normally, 200 ms under
/// `--quick`.
pub fn default_budget() -> Duration {
    if quick_requested() {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    }
}

/// `[q1, median, q3]` of at least two values by the exclusive method of
/// Python's `statistics.quantiles(n=4)`, the definition the repository
/// benchmark uses.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Times `f` over [`SAMPLES`] batches that together take about `budget`.
///
/// One untimed call warms the operation up and sizes the batch: each
/// sample makes as many calls as that first call's time fits into
/// `budget / SAMPLES` (at least one), and reads the clock only before and
/// after the batch.
///
/// The row is emitted as a `bench_row` event as a side effect (printing
/// to stdout, and into the trace stream when one is active) so every
/// bench shows progress as it runs.
pub fn time_op(name: &str, budget: Duration, mut f: impl FnMut()) -> BenchRow {
    let first = Instant::now();
    f();
    let first_ns = first.elapsed().as_nanos().max(1);
    // At most the budget's share in nanoseconds, so it fits in a u64.
    let batch = ((budget / SAMPLES as u32).as_nanos() / first_ns).max(1) as u64;
    let per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    let [ns_q1, ns_per_iter, ns_q3] = quartiles(&per_call);
    let row = BenchRow {
        name: name.to_string(),
        iters: batch * SAMPLES as u64,
        ns_per_iter,
        ns_q1,
        ns_q3,
        extras: Vec::new(),
    };
    row.emit();
    row
}

/// Serializes rows as a JSON array of `{name, iters, ns_per_iter, ns_q1,
/// ns_q3, ...}` objects through the shared `hero_obs::json` writer.
pub fn to_json(rows: &[BenchRow]) -> String {
    hero_obs::json::array_lines(rows.iter().map(BenchRow::to_json))
}

/// Resolves the output path for a bench results file: `HERO_BENCH_OUT`
/// when set (so CI and the verify script can redirect runs without
/// touching the committed baselines), else `default`.
pub fn bench_out_path(default: &str) -> std::path::PathBuf {
    std::env::var("HERO_BENCH_OUT").map_or_else(|_| default.into(), Into::into)
}

/// Writes rows to `path` as JSON, creating parent directories as needed.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn write_json(path: impl AsRef<Path>, rows: &[BenchRow]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(rows).as_bytes())?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_obs::json::{parse, Value};

    fn row(name: &str, ns_per_iter: f64) -> BenchRow {
        BenchRow {
            name: name.into(),
            iters: 1,
            ns_per_iter,
            ..BenchRow::default()
        }
    }

    #[test]
    fn quartiles_of_odd_length_samples() {
        // statistics.quantiles([9, 1, 7, 3, 5, 11, 13], n=4) == [3, 7, 11]
        assert_eq!(
            quartiles(&[9.0, 1.0, 7.0, 3.0, 5.0, 11.0, 13.0]),
            [3.0, 7.0, 11.0]
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1, 2, 3]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn quartiles_of_even_length_samples() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([40, 10, 30, 20], n=4) == [12.5, 25, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), [12.5, 25.0, 37.5]);
    }

    #[test]
    fn time_op_counts_iterations() {
        let mut calls = 0u64;
        let row = time_op("noop", Duration::from_millis(5), || calls += 1);
        // Everything but the one untimed sizing call is timed and counted.
        assert_eq!(row.iters, calls - 1);
        assert_eq!(row.iters % SAMPLES as u64, 0);
        assert!(row.ns_q1 <= row.ns_per_iter && row.ns_per_iter <= row.ns_q3);
        assert!(row.ns_per_iter > 0.0);
    }

    #[test]
    fn json_is_well_formed() {
        let rows = vec![row("a", 123.4), row("b", 5e6)];
        let json = to_json(&rows);
        let v = parse(&json).expect("parses");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").and_then(Value::as_str), Some("a"));
        let ns = arr[1]
            .get("ns_per_iter")
            .and_then(Value::as_f64)
            .expect("ns");
        assert!((ns - 5e6).abs() < 1.0);
        assert!(arr[1].get("ns_q1").and_then(Value::as_f64).is_some());
        assert!(arr[1].get("ns_q3").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn extras_round_trip_through_json() {
        let row = row("step", 10.0)
            .with_extra("pool_hit_rate", 0.75)
            .with_extra("gemm_flops", 1024.0);
        let v = parse(&row.to_json()).expect("parses");
        assert_eq!(v.get("pool_hit_rate").and_then(Value::as_f64), Some(0.75));
        assert_eq!(v.get("gemm_flops").and_then(Value::as_f64), Some(1024.0));
    }

    #[test]
    fn display_scales_units() {
        assert!(format!("{}", row("x", 12.0)).contains("ns"));
        assert!(format!("{}", row("x", 3.2e6)).contains("ms"));
    }

    #[test]
    fn bench_out_path_honors_override() {
        // Serialized by the single-threaded nature of this assertion: the
        // variable is restored before returning.
        std::env::set_var("HERO_BENCH_OUT", "/tmp/override.json");
        let p = bench_out_path("default.json");
        std::env::remove_var("HERO_BENCH_OUT");
        assert_eq!(p, std::path::PathBuf::from("/tmp/override.json"));
        assert_eq!(
            bench_out_path("default.json"),
            std::path::PathBuf::from("default.json")
        );
    }
}
