//! `hero-obs` — zero-dependency observability for the HERO workspace:
//! span tracing, hot-path counters and structured run telemetry.
//!
//! Four layers, all hand-rolled on `std` (the workspace builds offline):
//!
//! 1. **Span tracer** ([`span`], [`obs_span!`]): RAII scope guards over
//!    thread-local span stacks with a global self/total-time aggregation
//!    tree and an optional bounded raw-event buffer.
//! 2. **Counters** ([`counters`]): a fixed set of named relaxed
//!    `AtomicU64` statics — gradient evaluations, scratch-pool hit/miss,
//!    packed-GEMM flops, NaN-taint trips.
//! 3. **Series** ([`series`]): named `(step, value)` time-series samples
//!    — the spectrum observatory's training telemetry, rolled into the run
//!    summary.
//! 4. **Sinks** ([`sink`]): a per-run JSONL event stream
//!    (`results/TRACE_<run>.jsonl`), a run-summary table and a
//!    Chrome-trace export, all sharing the one JSON writer in [`json`].
//!
//! Tracing is **off by default**: every span site costs one relaxed
//! atomic load until [`enable`] (or `HERO_TRACE=1` via [`init_from_env`])
//! flips it on. Building with the `obs-off` cargo feature replaces the
//! tracer and counters with inline no-ops so instrumentation compiles
//! away entirely — the bench suite's `overhead` rows verify both claims.
//!
//! ```no_run
//! hero_obs::init_from_env("myrun"); // activates when HERO_TRACE=1
//! {
//!     let _step = hero_obs::span("train_step");
//!     hero_obs::obs_span!("forward");
//!     // ... work ...
//! }
//! hero_obs::Event::new("epoch").u64("epoch", 1).f64("loss", 0.3).emit();
//! hero_obs::finish(); // summary table + TRACE/SUMMARY/chrome artifacts
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod counters;
pub mod json;
pub mod series;
pub mod sink;
pub mod span;
pub mod summary;

pub use series::{ascii_bars, record, take_series, SeriesSnapshot};
pub use sink::{finish, init_from_env, init_run, run_active, Event, RunArtifacts};
pub use span::{
    disable, enable, enable_events, is_enabled, span, summary_rows, SpanEvent, SpanGuard,
};
pub use summary::SummaryRow;

/// Opens a span scoped to the enclosing block: expands to a `let` binding
/// of a [`SpanGuard`] that closes when the block ends. Use the function
/// form [`span`] when the guard needs explicit scoping or early drops.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        let _obs_span = $crate::span($name);
    };
}

#[cfg(test)]
#[allow(dead_code)] // unused in `obs-off` test builds, where the serialized tests vanish
pub(crate) mod testutil {
    //! Shared serialization lock: tests that toggle the global enable flag
    //! or the active run must not interleave.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
