//! The run-summary table: aggregated span rows, console rendering and the
//! phase-attribution metric.

use crate::json::JsonObj;

/// One aggregated span in the summary table (one node of the merged
/// self/total-time tree, identified by its slash-separated path).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Slash-separated span path, e.g. `train_step/hvp/forward`.
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Nesting depth (0 = top-level span).
    pub depth: usize,
    /// Times the span closed.
    pub calls: u64,
    /// Nanoseconds spent in the span excluding named children.
    pub self_ns: u64,
    /// Nanoseconds spent in the span including children.
    pub total_ns: u64,
    /// Total nanoseconds of the parent span (0 for top-level spans).
    pub parent_total_ns: u64,
}

impl SummaryRow {
    /// The span's share of its parent's total time, in percent (`NaN` for
    /// top-level spans).
    pub fn pct_of_parent(&self) -> f64 {
        if self.parent_total_ns == 0 {
            f64::NAN
        } else {
            100.0 * self.total_ns as f64 / self.parent_total_ns as f64
        }
    }

    /// Serializes the row with the shared JSON writer (the same schema
    /// `results/SUMMARY_<run>.json` stores).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("phase", &self.path)
            .u64("calls", self.calls)
            .f64("self_ms", self.self_ns as f64 / 1e6)
            .f64("total_ms", self.total_ns as f64 / 1e6)
            .f64("pct_of_parent", self.pct_of_parent());
        o.finish()
    }
}

/// Renders rows as an aligned console table (phase, calls, self ms, total
/// ms, % of parent), indented by depth.
pub fn render(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>9} {:>12} {:>12} {:>7}\n",
        "phase", "calls", "self ms", "total ms", "%parent"
    ));
    for r in rows {
        let label = format!("{}{}", "  ".repeat(r.depth), r.name);
        let pct = r.pct_of_parent();
        let pct = if pct.is_nan() {
            "-".to_string()
        } else {
            format!("{pct:.1}")
        };
        out.push_str(&format!(
            "{:<44} {:>9} {:>12.3} {:>12.3} {:>7}\n",
            label,
            r.calls,
            r.self_ns as f64 / 1e6,
            r.total_ns as f64 / 1e6,
            pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, depth: usize, total_ns: u64, parent_total_ns: u64) -> SummaryRow {
        SummaryRow {
            path: path.to_string(),
            name: path.rsplit('/').next().unwrap_or(path).to_string(),
            depth,
            calls: 1,
            self_ns: total_ns / 2,
            total_ns,
            parent_total_ns,
        }
    }

    #[test]
    fn render_contains_all_phases() {
        let rows = vec![
            row("a", 0, 2_000_000, 0),
            row("a/b", 1, 1_000_000, 2_000_000),
        ];
        let table = render(&rows);
        assert!(table.contains("phase"));
        assert!(table.contains("a"));
        assert!(table.contains("  b"));
        assert!(table.contains("50.0"));
    }

    #[test]
    fn row_json_uses_shared_writer() {
        let r = row("train_step/apply", 1, 3_000_000, 6_000_000);
        let v = crate::json::parse(&r.to_json()).expect("parse");
        assert_eq!(
            v.get("phase").and_then(crate::json::Value::as_str),
            Some("train_step/apply")
        );
        assert_eq!(
            v.get("total_ms").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            v.get("pct_of_parent").and_then(crate::json::Value::as_f64),
            Some(50.0)
        );
    }
}
