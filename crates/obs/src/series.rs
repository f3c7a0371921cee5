//! Time-series metrics and ASCII bar plots — the data model behind the
//! spectrum observatory's training telemetry.
//!
//! A *series* is a named stream of `(step, value)` samples recorded with
//! [`record`] — per-epoch λ_max, per-layer Hessian traces, density
//! moments. Samples accumulate in a global registry (like the counters:
//! always available, no handles to thread through call sites)
//! and are rolled up into `SUMMARY_<run>.json` when [`crate::finish`]
//! closes the run, each series contributing one summary row alongside the
//! span rows. [`ascii_bars`] renders the spectral-density plot.
//!
//! Under the `obs-off` feature [`record`] compiles to an inline no-op and
//! snapshots are empty, matching the tracer's zero-cost contract.

use crate::json::JsonObj;

/// Per-series sample cap: recording is epoch-cadenced, so this is far
/// above any real run; it bounds memory if a hot loop misuses the sink.
const SERIES_CAP: usize = 100_000;

#[cfg(not(feature = "obs-off"))]
mod store {
    use std::sync::{Mutex, PoisonError};

    pub(super) struct SeriesData {
        pub name: String,
        pub samples: Vec<(u64, f64)>,
        pub dropped: u64,
    }

    pub(super) static SERIES: Mutex<Vec<SeriesData>> = Mutex::new(Vec::new());

    pub(super) fn with<R>(f: impl FnOnce(&mut Vec<SeriesData>) -> R) -> R {
        f(&mut SERIES.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Records one `(step, value)` sample into the named series.
///
/// Cheap (one mutex lock + push) but not free: call it at probe cadence,
/// not per-element. Series persist until [`take_series`] drains them
/// (which [`crate::finish`] does when closing a run).
pub fn record(name: &str, step: u64, value: f64) {
    #[cfg(feature = "obs-off")]
    {
        let _ = (name, step, value);
    }
    #[cfg(not(feature = "obs-off"))]
    store::with(|all| {
        let entry = match all.iter_mut().find(|s| s.name == name) {
            Some(s) => s,
            None => {
                all.push(store::SeriesData {
                    name: name.to_string(),
                    samples: Vec::new(),
                    dropped: 0,
                });
                all.last_mut().expect("just pushed")
            }
        };
        if entry.samples.len() < SERIES_CAP {
            entry.samples.push((step, value));
        } else {
            entry.dropped += 1;
        }
    });
}

/// An immutable snapshot of one recorded series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Series name as passed to [`record`].
    pub name: String,
    /// `(step, value)` samples in recording order.
    pub samples: Vec<(u64, f64)>,
    /// Samples discarded after the per-series cap was hit (0 in any sane
    /// run; nonzero values are surfaced in the summary row).
    pub dropped: u64,
}

impl SeriesSnapshot {
    /// Latest recorded value (`NaN` when empty).
    pub fn last(&self) -> f64 {
        self.samples.last().map_or(f64::NAN, |&(_, v)| v)
    }

    /// Smallest finite recorded value (`NaN` when none).
    pub fn min(&self) -> f64 {
        self.finite().fold(f64::NAN, f64::min)
    }

    /// Largest finite recorded value (`NaN` when none).
    pub fn max(&self) -> f64 {
        self.finite().fold(f64::NAN, f64::max)
    }

    /// Mean of the finite recorded values (`NaN` when none).
    pub fn mean(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for v in self.finite() {
            sum += v;
            n += 1;
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    fn finite(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
    }

    /// One summary row for `SUMMARY_<run>.json`: series rows carry a
    /// `series` key where span rows carry `phase`, so readers distinguish
    /// the two shapes inside the one array.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("series", &self.name)
            .u64("count", self.samples.len() as u64)
            .u64("first_step", self.samples.first().map_or(0, |&(s, _)| s))
            .u64("last_step", self.samples.last().map_or(0, |&(s, _)| s))
            .f64("last", self.last())
            .f64("min", self.min())
            .f64("max", self.max())
            .f64("mean", self.mean());
        if self.dropped > 0 {
            o.u64("dropped", self.dropped);
        }
        o.finish()
    }
}

/// Drains every recorded series, leaving the registry empty (what
/// [`crate::finish`] calls so the next run starts clean).
pub fn take_series() -> Vec<SeriesSnapshot> {
    #[cfg(feature = "obs-off")]
    {
        Vec::new()
    }
    #[cfg(not(feature = "obs-off"))]
    store::with(|all| {
        std::mem::take(all)
            .into_iter()
            .map(|s| SeriesSnapshot {
                name: s.name,
                samples: s.samples,
                dropped: s.dropped,
            })
            .collect()
    })
}

/// Renders `values` as horizontal ASCII bars of at most `width` cells,
/// one line per value, each prefixed by its label. Negative and
/// non-finite values render as empty bars; all bars share one scale
/// (the largest value spans the full width). This is the plot the
/// `hero spectrum` CLI prints for the eigenvalue density.
pub fn ascii_bars(labeled: &[(String, f64)], width: usize) -> String {
    let width = width.max(1);
    let peak = labeled
        .iter()
        .map(|&(_, v)| if v.is_finite() { v } else { 0.0 })
        .fold(0.0f64, f64::max);
    let label_w = labeled.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in labeled {
        let cells = if peak > 0.0 && v.is_finite() && *v > 0.0 {
            ((v / peak) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} |{}\n",
            "#".repeat(cells.min(width))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn series_record_snapshot_and_drain() {
        let _l = crate::testutil::locked();
        let _ = take_series();
        record("trace/layer0", 1, 2.0);
        record("trace/layer0", 2, 4.0);
        record("lambda_max", 1, 9.0);
        record("lambda_max", 2, f64::NAN);
        let snap = take_series();
        assert_eq!(snap.len(), 2);
        let s0 = snap.iter().find(|s| s.name == "trace/layer0").unwrap();
        assert_eq!(s0.samples, vec![(1, 2.0), (2, 4.0)]);
        assert_eq!(s0.last(), 4.0);
        assert_eq!(s0.min(), 2.0);
        assert_eq!(s0.mean(), 3.0);
        // NaN samples are kept in the stream but excluded from stats.
        let lm = snap.iter().find(|s| s.name == "lambda_max").unwrap();
        assert_eq!(lm.samples.len(), 2);
        assert_eq!(lm.min(), 9.0);
        assert_eq!(lm.mean(), 9.0);
        assert!(lm.last().is_nan());
        // Draining empties the registry.
        assert!(take_series().is_empty());
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn series_summary_row_round_trips() {
        let _l = crate::testutil::locked();
        let _ = take_series();
        record("second_moment", 3, 1.5);
        record("second_moment", 5, 2.5);
        let snap = take_series();
        let v = crate::json::parse(&snap[0].to_json()).expect("json");
        use crate::json::Value;
        assert_eq!(
            v.get("series").and_then(Value::as_str),
            Some("second_moment")
        );
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("first_step").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("last_step").and_then(Value::as_f64), Some(5.0));
        assert_eq!(v.get("mean").and_then(Value::as_f64), Some(2.0));
        assert!(v.get("dropped").is_none());
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_series_is_a_no_op() {
        record("x", 1, 1.0);
        assert!(take_series().is_empty());
    }

    #[test]
    fn ascii_bars_scale_to_peak() {
        let rows = vec![
            ("a".to_string(), 1.0),
            ("bb".to_string(), 2.0),
            ("c".to_string(), 0.0),
            ("d".to_string(), f64::NAN),
        ];
        let plot = ascii_bars(&rows, 10);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with(&format!("|{}", "#".repeat(5))));
        assert!(lines[1].ends_with(&format!("|{}", "#".repeat(10))));
        assert!(lines[2].ends_with('|'));
        assert!(lines[3].ends_with('|'));
    }
}
