//! Structured sinks: the per-run JSONL event stream, the console renderer
//! and the end-of-run artifact writer (summary table + Chrome trace).
//!
//! An [`Event`] is one structured record — an epoch's metrics, one
//! quantization-sweep point, a bench row. Emitting it renders the optional
//! human-readable line to stdout (the console sink, which is how the repro
//! binaries keep their familiar output) and, when a run is active, appends
//! one JSON line to `results/TRACE_<run>.jsonl`.
//!
//! A run is activated either explicitly ([`init_run`]) or from the
//! environment ([`init_from_env`], the `HERO_TRACE=1` switch). [`finish`]
//! closes the run: it prints the span-summary table, writes
//! `SUMMARY_<run>.json` and `TRACE_<run>.chrome.json`, and appends the
//! summary rows and final counter values to the JSONL stream.

use crate::json::JsonObj;
use crate::{chrome, counters, span, summary};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

#[derive(Debug)]
struct Run {
    name: String,
    dir: PathBuf,
    file: std::fs::File,
}

static RUN: Mutex<Option<Run>> = Mutex::new(None);

fn with_run<R>(f: impl FnOnce(&mut Option<Run>) -> R) -> R {
    f(&mut RUN.lock().unwrap_or_else(PoisonError::into_inner))
}

/// One field value of a structured event.
#[derive(Debug, Clone)]
enum Field {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

/// Builder for one structured telemetry event.
///
/// # Examples
///
/// ```
/// use hero_obs::Event;
///
/// Event::new("epoch")
///     .u64("epoch", 3)
///     .f64("train_loss", 0.41)
///     .human(format!("epoch {:>3}: loss {:.3}", 3, 0.41))
///     .emit();
/// ```
#[derive(Debug, Clone)]
#[must_use = "an event does nothing until `.emit()` is called"]
pub struct Event {
    kind: &'static str,
    fields: Vec<(String, Field)>,
    human: Option<String>,
}

impl Event {
    /// Starts an event of the given kind (the `ev` field of the JSON
    /// line).
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            fields: Vec::new(),
            human: None,
        }
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.to_string(), Field::U64(v)));
        self
    }

    /// Adds a float field (NaN/Inf serialize as `null`).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.to_string(), Field::F64(v)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push((key.to_string(), Field::Str(v.to_string())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.fields.push((key.to_string(), Field::Bool(v)));
        self
    }

    /// Sets the human-readable console rendering (printed to stdout on
    /// emit, whether or not a run is active).
    pub fn human(mut self, line: impl Into<String>) -> Self {
        self.human = Some(line.into());
        self
    }

    /// Serializes the structured part as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("ev", self.kind).u64("t_us", span::now_us());
        for (k, v) in &self.fields {
            match v {
                Field::U64(n) => o.u64(k, *n),
                Field::F64(n) => o.f64(k, *n),
                Field::Str(s) => o.str(k, s),
                Field::Bool(b) => o.bool(k, *b),
            };
        }
        o.finish()
    }

    /// Renders the console line (if any) and appends the JSON line to the
    /// active run's trace stream (if one is installed).
    pub fn emit(self) {
        if let Some(h) = &self.human {
            println!("{h}");
        }
        #[cfg(not(feature = "obs-off"))]
        emit_line(&self.to_json());
    }
}

/// Appends one already-serialized JSON line to the active trace stream
/// (best effort — telemetry never fails the computation it observes).
#[cfg(not(feature = "obs-off"))]
fn emit_line(json: &str) {
    with_run(|run| {
        if let Some(run) = run.as_mut() {
            let _ = run.file.write_all(json.as_bytes());
            let _ = run.file.write_all(b"\n");
        }
    });
}

/// True when a JSONL trace stream is currently installed.
pub fn run_active() -> bool {
    with_run(|run| run.is_some())
}

/// Path of the JSONL stream for run `name` under `dir`.
pub fn trace_path(dir: &std::path::Path, name: &str) -> PathBuf {
    dir.join(format!("TRACE_{name}.jsonl"))
}

/// Installs the JSONL trace stream `dir/TRACE_<name>.jsonl`, replacing any
/// active run. Does not by itself enable span tracing — pair with
/// [`crate::enable`] / [`crate::enable_events`] (or use
/// [`init_from_env`]).
///
/// Under `obs-off` this is a no-op returning `Ok(())` without touching the
/// filesystem.
///
/// # Errors
///
/// Returns any I/O error from directory creation or file creation.
pub fn init_run(dir: impl Into<PathBuf>, name: &str) -> std::io::Result<()> {
    let dir = dir.into();
    #[cfg(feature = "obs-off")]
    {
        let _ = (dir, name);
        Ok(())
    }
    #[cfg(not(feature = "obs-off"))]
    {
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(trace_path(&dir, name))?;
        with_run(|run| {
            *run = Some(Run {
                name: name.to_string(),
                dir,
                file,
            });
        });
        Ok(())
    }
}

/// Activates tracing from the environment: when `HERO_TRACE` is set to
/// anything but `0`/empty, enables the span tracer with event capture and
/// installs the JSONL stream for run `default_run` (overridable via
/// `HERO_TRACE_RUN`; directory via `HERO_TRACE_DIR`, default `results`;
/// event-buffer cap via `HERO_TRACE_EVENTS`, default 200 000).
///
/// Returns whether tracing was activated. Call once at binary start; pair
/// with [`finish`] at exit.
pub fn init_from_env(default_run: &str) -> bool {
    let flag = std::env::var("HERO_TRACE").unwrap_or_default();
    if flag.is_empty() || flag == "0" {
        return false;
    }
    if cfg!(feature = "obs-off") {
        eprintln!("hero-obs: HERO_TRACE set but this binary was built with `obs-off`");
        return false;
    }
    let cap = std::env::var("HERO_TRACE_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    span::enable_events(cap);
    let dir = std::env::var("HERO_TRACE_DIR").unwrap_or_else(|_| "results".to_string());
    let name = std::env::var("HERO_TRACE_RUN").unwrap_or_else(|_| default_run.to_string());
    match init_run(&dir, &name) {
        Ok(()) => {
            Event::new("run_start").str("run", &name).emit();
            true
        }
        Err(e) => {
            eprintln!("hero-obs: cannot open trace stream in `{dir}`: {e}");
            false
        }
    }
}

/// Paths written by [`finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArtifacts {
    /// The JSONL event stream.
    pub trace: PathBuf,
    /// The run-summary table (`SUMMARY_<run>.json`).
    pub summary: PathBuf,
    /// The Chrome-trace export (`TRACE_<run>.chrome.json`).
    pub chrome: PathBuf,
}

/// Closes the active run: prints the span-summary table and counter values
/// to stdout, appends them to the JSONL stream, and writes the summary and
/// Chrome-trace artifacts next to it. Returns the artifact paths, or
/// `None` when no run was active (in which case the summary table is still
/// printed if any spans were recorded).
pub fn finish() -> Option<RunArtifacts> {
    let rows = span::summary_rows();
    let counters = counters::snapshot();
    let series = crate::series::take_series();
    if !rows.is_empty() {
        println!("\n-- span summary --");
        print!("{}", summary::render(&rows));
        let active: Vec<String> = counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if !active.is_empty() {
            println!("counters: {}", active.join("  "));
        }
    }
    let run = with_run(Option::take)?;
    let Run {
        name,
        dir,
        mut file,
    } = run;
    for r in &rows {
        let line = {
            let mut o = JsonObj::new();
            o.str("ev", "span_summary")
                .u64("t_us", span::now_us())
                .raw("row", &r.to_json());
            o.finish()
        };
        let _ = file.write_all(line.as_bytes());
        let _ = file.write_all(b"\n");
    }
    for s in &series {
        let line = {
            let mut o = JsonObj::new();
            o.str("ev", "series_summary")
                .u64("t_us", span::now_us())
                .raw("row", &s.to_json());
            o.finish()
        };
        let _ = file.write_all(line.as_bytes());
        let _ = file.write_all(b"\n");
    }
    let counters_line = {
        let mut o = JsonObj::new();
        o.str("ev", "counters").u64("t_us", span::now_us());
        for (k, v) in &counters {
            o.u64(k, *v);
        }
        o.finish()
    };
    let _ = file.write_all(counters_line.as_bytes());
    let _ = file.write_all(b"\n");
    let _ = file.flush();
    drop(file);

    // One array holds both shapes: span rows (keyed `phase`) and series
    // roll-ups (keyed `series`) — readers select by key.
    let summary_path = dir.join(format!("SUMMARY_{name}.json"));
    let _ = std::fs::write(
        &summary_path,
        crate::json::array_lines(
            rows.iter()
                .map(summary::SummaryRow::to_json)
                .chain(series.iter().map(crate::series::SeriesSnapshot::to_json)),
        ),
    );
    let chrome_path = dir.join(format!("TRACE_{name}.chrome.json"));
    let events = span::events_snapshot();
    let _ = std::fs::write(&chrome_path, chrome::to_chrome_json(&events));
    let artifacts = RunArtifacts {
        trace: trace_path(&dir, &name),
        summary: summary_path,
        chrome: chrome_path,
    };
    println!(
        "trace artifacts: {} ({} events), {}, {}",
        artifacts.trace.display(),
        events.len(),
        artifacts.summary.display(),
        artifacts.chrome.display()
    );
    Some(artifacts)
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "hero-obs-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn emitted_events_round_trip_through_the_jsonl_stream() {
        let _l = crate::testutil::locked();
        let dir = temp_dir();
        span::enable();
        span::reset();
        init_run(&dir, "test").expect("init run");
        Event::new("epoch")
            .u64("epoch", 7)
            .f64("train_loss", 0.5)
            .f64("test_acc", f64::NAN)
            .emit();
        {
            let _s = span("unit_work");
        }
        let artifacts = finish().expect("artifacts");
        span::disable();
        let text = std::fs::read_to_string(&artifacts.trace).expect("read trace");
        let epoch_line = text
            .lines()
            .find(|l| l.contains("\"ev\": \"epoch\""))
            .expect("epoch event present");
        let v = parse(epoch_line).expect("valid json line");
        assert_eq!(v.get("epoch").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("train_loss").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("test_acc"), Some(&Value::Null));
        // Summary + counters land in the stream too.
        assert!(text.contains("\"ev\": \"span_summary\""));
        assert!(text.contains("\"ev\": \"counters\""));
        // The side artifacts parse as JSON.
        let summary = std::fs::read_to_string(&artifacts.summary).expect("summary");
        assert!(parse(&summary).expect("summary json").as_arr().is_some());
        let chrome = std::fs::read_to_string(&artifacts.chrome).expect("chrome");
        assert!(parse(&chrome).expect("chrome json").as_arr().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_roll_into_summary_artifact() {
        let _l = crate::testutil::locked();
        let dir = temp_dir();
        span::enable();
        span::reset();
        let _ = crate::series::take_series();
        init_run(&dir, "series").expect("init run");
        crate::series::record("lambda_max", 1, 5.0);
        crate::series::record("lambda_max", 2, 4.0);
        {
            let _s = span("unit_work");
        }
        let artifacts = finish().expect("artifacts");
        span::disable();
        let text = std::fs::read_to_string(&artifacts.trace).expect("trace");
        assert!(text.contains("\"ev\": \"series_summary\""));
        let summary = std::fs::read_to_string(&artifacts.summary).expect("summary");
        let v = parse(&summary).expect("summary json");
        let arr = v.as_arr().expect("array");
        let row = arr
            .iter()
            .find(|r| r.get("series").is_some())
            .expect("series row in summary");
        assert_eq!(
            row.get("series").and_then(Value::as_str),
            Some("lambda_max")
        );
        assert_eq!(row.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(row.get("last").and_then(Value::as_f64), Some(4.0));
        // finish() drained the registry for the next run.
        assert!(crate::series::take_series().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_without_a_run_returns_none() {
        let _l = crate::testutil::locked();
        with_run(|r| *r = None);
        assert!(finish().is_none());
        assert!(!run_active());
    }

    #[test]
    fn emit_without_a_run_is_silent() {
        let _l = crate::testutil::locked();
        with_run(|r| *r = None);
        Event::new("orphan").u64("x", 1).emit(); // must not panic
    }
}
