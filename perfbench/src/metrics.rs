//! The benchmark's definition — run length, workloads, metric names, units,
//! directions and bounds — read from `BENCHMARK.json` at the repository
//! root, which is compiled in: the driver and this package read one file.

use std::sync::OnceLock;

use crate::json::{self, Value};
use crate::stats::Better;

/// A metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which it may worsen before that is a
    /// regression (end-to-end metrics only; 0 on a per-layer metric).
    pub bound: f64,
}

/// What `BENCHMARK.json` fixes.
#[derive(Debug)]
pub struct Benchmark {
    /// How long the timed rounds of one workload run.
    pub run_seconds: f64,
    /// `(name, why)` in reporting order.
    pub workloads: Vec<(String, String)>,
    /// What a user of the middleware sees. Every workload reports every
    /// one, so none may ever be zero.
    pub end_to_end: Vec<Def>,
    /// One layer each, measured by replaying the workload's inputs into
    /// the layer alone or read off the benchmark's spans. No bounds: they
    /// say where to look, not whether to worry.
    pub per_layer: Vec<Def>,
}

/// The compiled-in `BENCHMARK.json`, parsed on first use.
///
/// # Panics
///
/// Panics when the file does not have the driver's shape.
pub fn benchmark() -> &'static Benchmark {
    static PARSED: OnceLock<Benchmark> = OnceLock::new();
    PARSED.get_or_init(|| {
        read(include_str!("../../BENCHMARK.json")).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn read(text: &str) -> Result<Benchmark, String> {
    let doc = json::parse(text)?;
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{key} is not a list"))
    };
    let text_of = |row: &Value, key: &str| {
        row.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("a row lacks {key}"))
    };
    let defs = |key: &str, bounded: bool| -> Result<Vec<Def>, String> {
        rows(key)?
            .iter()
            .map(|row| {
                let name = text_of(row, "name")?;
                let better = match text_of(row, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("{name}: better is {other}")),
                };
                let bound = match row.get("bound").and_then(Value::as_f64) {
                    Some(b) if bounded => b,
                    None if !bounded => 0.0,
                    _ => return Err(format!("{name}: only end-to-end metrics have a bound")),
                };
                Ok(Def {
                    unit: text_of(row, "unit")?,
                    name,
                    better,
                    bound,
                })
            })
            .collect()
    };
    Ok(Benchmark {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("run_seconds is not a number")?,
        workloads: rows("workloads")?
            .iter()
            .map(|row| Ok((text_of(row, "name")?, text_of(row, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: defs("end_to_end", true)?,
        per_layer: defs("per_layer", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let b = benchmark();
        let metrics = || b.end_to_end.iter().chain(&b.per_layer);
        let mut seen = std::collections::HashSet::new();
        let workloads = b.workloads.iter().map(|(name, _)| name);
        for name in metrics().map(|d| &d.name).chain(workloads) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for d in metrics() {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(b
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = b.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!((1..=16).contains(&b.end_to_end.len()));
        assert!((1..=128).contains(&b.per_layer.len()));
        assert!((2..=8).contains(&b.workloads.len()));
        assert!(b
            .workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!((1.0..=60.0).contains(&b.run_seconds) && b.run_seconds.fract() == 0.0);
    }

    #[test]
    fn a_bound_belongs_to_end_to_end_metrics_only() {
        let doc = |e2e: &str, layer: &str| {
            let row = r#"{"name": "x", "unit": "s", "better": "lower""#;
            format!(
                r#"{{"run_seconds": 1, "workloads": [], "end_to_end": [{row}{e2e}}}], "per_layer": [{row}{layer}}}]}}"#
            )
        };
        let ok = read(&doc(r#", "bound": 0.1"#, "")).unwrap();
        assert_eq!((ok.end_to_end[0].bound, ok.per_layer[0].bound), (0.1, 0.0));
        assert!(read(&doc("", "")).is_err());
        assert!(read(&doc(r#", "bound": 0.1"#, r#", "bound": 0.1"#)).is_err());
    }
}
