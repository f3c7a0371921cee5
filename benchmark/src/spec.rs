//! `BENCHMARK.json`: the declared workloads, metrics and regression
//! bounds. The run checks what it emits against this file, and `compare`
//! takes its bounds from it.

use crate::stats::Better;
use hero_obs::json::{parse, Value};
use std::path::{Path, PathBuf};

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed by the run.
    pub name: String,
    /// Unit as printed by the run.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

/// `BENCHMARK.json` at the repository root (the parent of this package).
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map_or_else(
        || PathBuf::from("BENCHMARK.json"),
        |root| root.join("BENCHMARK.json"),
    )
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn string(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    field(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let list = field(root, key, "BENCHMARK.json")?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    list.iter()
        .map(|m| {
            let name = string(m, "name", key)?;
            let ctx = format!("{key}.{name}");
            let unit = string(m, "unit", &ctx)?;
            let better = Better::parse(&string(m, "better", &ctx)?)
                .ok_or_else(|| format!("{ctx}: `better` must be lower or higher"))?;
            let bound = if bounded {
                let b = field(m, "bound", &ctx)?
                    .as_f64()
                    .ok_or_else(|| format!("{ctx}: `bound` is not a number"))?;
                if !(b > 0.0 && b <= 0.25) {
                    return Err(format!("{ctx}: bound {b} outside (0, 0.25]"));
                }
                Some(b)
            } else {
                None
            };
            if !valid_name(&name) || !valid_unit(&unit) {
                return Err(format!("{ctx}: malformed name or unit `{unit}`"));
            }
            Ok(MetricSpec {
                name,
                unit,
                better,
                bound,
            })
        })
        .collect()
}

/// Parses and validates the text of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message naming the first malformed or out-of-range entry.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let root = parse(text)?;
    let workloads = field(&root, "workloads", "BENCHMARK.json")?
        .as_arr()
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(|w| string(w, "name", "workloads"))
        .collect::<Result<Vec<_>, _>>()?;
    let end_to_end = metrics(&root, "end_to_end", true)?;
    let per_layer = metrics(&root, "per_layer", false)?;
    let run_seconds = field(&root, "run_seconds", "BENCHMARK.json")?
        .as_f64()
        .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
        .ok_or("`run_seconds` must be a whole number from 1 to 60")? as u64;
    if !(2..=8).contains(&workloads.len())
        || !(1..=16).contains(&end_to_end.len())
        || !(1..=128).contains(&per_layer.len())
    {
        return Err("wrong number of workloads or metrics".into());
    }
    let mut names: Vec<&str> = workloads
        .iter()
        .chain(end_to_end.iter().map(|m| &m.name))
        .chain(per_layer.iter().map(|m| &m.name))
        .map(String::as_str)
        .collect();
    if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
        return Err(format!("malformed name `{bad}`"));
    }
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name `{}` used twice", w[0]));
    }
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        return Err("`setup_s` (s, lower) must be an end-to-end metric".into());
    }
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
        run_seconds,
    })
}

/// Reads and validates a `BENCHMARK.json` file.
///
/// # Errors
///
/// Returns I/O and validation errors as messages.
pub fn load(path: &Path) -> Result<Spec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Spec {
    /// The declared metrics for a traced or untraced run.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_spec_is_valid() {
        let spec = load(&default_path()).expect("BENCHMARK.json parses");
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(spec.workloads, names);
    }

    #[test]
    fn rejects_bad_names_and_bounds() {
        let ok = r#"{"run_seconds": 5,
            "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "l.x", "unit": "ms", "better": "lower"}]}"#;
        assert!(parse_spec(ok).is_ok());
        assert!(parse_spec(&ok.replace("\"l.x\"", "\"l x\"")).is_err());
        assert!(parse_spec(&ok.replace("0.2}", "0.3}")).is_err());
        assert!(parse_spec(&ok.replace("\"b\"", "\"a\"")).is_err());
        assert!(parse_spec(&ok.replace("setup_s", "boot_s")).is_err());
    }
}
