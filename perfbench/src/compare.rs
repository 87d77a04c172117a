//! `--compare DIR`: the report half of `ab.sh`. `DIR/<workload>.A.jsonl`
//! and `DIR/<workload>.B.jsonl` hold one result line per pair, line `i` of
//! each from pair `i`.

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{benchmark, Def};
use crate::stats::quartiles;
use crate::workloads;

/// A gain is claimed only when the change wins at least this share of the
/// pairs (ties count for neither side).
const WIN_SHARE: f64 = 0.9;
/// Fewer pairs than this support no claim, whatever they show.
const MIN_PAIRS: usize = 10;

/// One side's values of one metric, in pair order.
fn column(results: &[Value], metric: &str) -> Result<Vec<f64>, String> {
    results
        .iter()
        .map(|r| {
            r.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("a result line lacks {metric}"))
        })
        .collect()
}

fn read_side(dir: &Path, workload: &str, side: char) -> Result<Vec<Value>, String> {
    let path = dir.join(format!("{workload}.{side}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| json::parse(line).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub a: [f64; 3],
    pub b: [f64; 3],
    pub a_wins: usize,
    pub b_wins: usize,
    /// At least ten pairs, B wins nine tenths of them, and its median is
    /// better than A's by more than A's interquartile range.
    pub gain: bool,
    /// B's median is worse than A's by more than the metric's bound.
    pub regression: bool,
}

/// Compares paired values of `def`; `a[i]` and `b[i]` come from pair `i`.
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let mut a_wins = 0;
    let mut b_wins = 0;
    for (x, y) in a.iter().zip(b) {
        let worse = def.better.worsening(*x, *y);
        a_wins += usize::from(worse > 0.0);
        b_wins += usize::from(worse < 0.0);
    }
    let improvement = -def.better.worsening(qa[1], qb[1]) * qa[1];
    Verdict {
        a: qa,
        b: qb,
        a_wins,
        b_wins,
        gain: a.len() >= MIN_PAIRS
            && b_wins as f64 >= WIN_SHARE * a.len() as f64
            && improvement > qa[2] - qa[0],
        regression: def.better.worsening(qa[1], qb[1]) > def.bound,
    }
}

/// Prints the A/B table for every workload with results in `dir`.
///
/// # Errors
///
/// A message naming the file that is missing, unreadable or unpaired.
pub fn report(dir: &Path) -> Result<(), String> {
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>14} {:>14} {:>7} verdict",
        "workload", "metric", "A median", "A q3-q1", "B median", "B q3-q1", "A:B"
    );
    for w in workloads::all() {
        let (a, b) = (read_side(dir, w.name, 'A')?, read_side(dir, w.name, 'B')?);
        if a.len() != b.len() || a.len() < 2 {
            return Err(format!(
                "{}: {} A lines, {} B lines; need pairs",
                w.name,
                a.len(),
                b.len()
            ));
        }
        for def in &benchmark().end_to_end {
            let v = judge(def, &column(&a, &def.name)?, &column(&b, &def.name)?);
            let verdict = match (v.gain, v.regression) {
                (true, _) => "GAIN",
                (_, true) => "REGRESSION",
                _ => "-",
            };
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3}:{:<3} {}",
                w.name,
                def.name,
                v.a[1],
                v.a[2] - v.a[0],
                v.b[1],
                v.b[2] - v.b[0],
                v.a_wins,
                v.b_wins,
                verdict
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    fn time() -> Def {
        Def {
            name: "t_ms".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: 0.10,
        }
    }

    #[test]
    fn a_gain_needs_the_pairs_and_the_margin() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Faster in every pair, by far more than A's own spread.
        let fast: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        let v = judge(&time(), &a, &fast);
        assert_eq!((v.a_wins, v.b_wins), (0, 10));
        assert!(v.gain && !v.regression);
        // Faster in every pair, but by less than A's interquartile range.
        let barely: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert!(!judge(&time(), &a, &barely).gain);
        // Much faster in eight pairs only.
        let mut mostly = fast.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert!(!judge(&time(), &a, &mostly).gain);
        // Five pairs are too few for any claim.
        assert!(!judge(&time(), &a[..5], &fast[..5]).gain);
        // Ties count for neither side.
        let v = judge(&time(), &a, &a);
        assert_eq!(
            (v.a_wins, v.b_wins, v.gain, v.regression),
            (0, 0, false, false)
        );
    }

    #[test]
    fn a_regression_is_a_median_beyond_the_bound() {
        let a = vec![100.0; 10];
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let v = judge(&time(), &a, &slow);
        assert!(v.regression && !v.gain);
        assert_eq!(v.a_wins, 10);
        let within: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert!(!judge(&time(), &a, &within).regression);
    }

    #[test]
    fn columns_come_out_of_result_lines() {
        let line = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"t_ms": {"value": 2.5, "unit": "ms"}}}"#;
        let results = vec![json::parse(line).unwrap(), json::parse(line).unwrap()];
        assert_eq!(column(&results, "t_ms"), Ok(vec![2.5, 2.5]));
        assert!(column(&results, "absent").is_err());
    }
}
