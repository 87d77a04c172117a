//! The one harness under `simbench`, `churnbench`, `mcbench` and `ablate`:
//! command line ([`Args`]), timing loop ([`measure`]), schema-1 writer
//! ([`Row`], [`Doc`]), stopwatch ([`timed`]) and decision fingerprint
//! ([`fnv1a`]). A bin stays a list of points and a `main`; what a row
//! *contains* is the bin's business, how it is timed and written is here.
//!
//! Nothing in this module gates an absolute rate. A rate recorded on
//! another day says nothing about today's host phase (the deleted
//! baseline gates failed the *parent* binary in half the runs); rate
//! regressions are caught by interleaved parent/change pairs, and the
//! bins' `--check` flags gate only what a host cannot fake — determinism,
//! fingerprints and ratios taken inside one process.

use std::fmt::{self, Debug, Display, Write as _};
use std::str::FromStr;
use std::time::Instant;

/// The command line of one bench binary: take the known flags off it,
/// then [`finish`](Args::finish) reports whatever is left over.
#[derive(Debug)]
pub struct Args {
    bench: &'static str,
    rest: Vec<String>,
    error: Option<String>,
}

impl Args {
    /// The process's arguments; `bench` prefixes every error message.
    pub fn from_env(bench: &'static str) -> Args {
        Args::new(bench, std::env::args().skip(1))
    }

    fn new(bench: &'static str, args: impl IntoIterator<Item = String>) -> Args {
        Args {
            bench,
            rest: args.into_iter().collect(),
            error: None,
        }
    }

    /// Takes the boolean `name` off the line; `true` when it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        if let Some(at) = at {
            self.rest.remove(at);
        }
        at.is_some()
    }

    /// Takes `name VALUE` off the line. A missing or unparsable value
    /// reads as absent here and is reported by [`finish`](Args::finish).
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let at = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(at);
        let parsed = (at < self.rest.len())
            .then(|| self.rest.remove(at))
            .and_then(|v| v.parse().ok());
        if parsed.is_none() {
            self.error
                .get_or_insert(format!("{}: {name} needs a value", self.bench));
        }
        parsed
    }

    /// Ends parsing, before any work is done: the first bad value, or the
    /// first argument no `flag`/`value` call claimed, is an error the bin
    /// prints and exits non-zero on.
    pub fn finish(self) -> Result<(), String> {
        if let Some(error) = self.error {
            return Err(error);
        }
        match self.rest.first() {
            Some(other) => Err(format!("{}: unknown argument {other}", self.bench)),
            None => Ok(()),
        }
    }
}

/// Wall-clock of one measured point over its timed repeats, in
/// milliseconds. `wall_ms` is the median; `wall_ms_min` the fastest
/// repeat, the robust statistic on a contended host (interference only
/// ever *adds* wall time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Timed repeats (the warmup is not one of them).
    pub repeats: usize,
    /// Median repeat.
    pub wall_ms: f64,
    /// Fastest repeat.
    pub wall_ms_min: f64,
}

impl Timing {
    /// `n` operations per second at the median repeat.
    pub fn rate(&self, n: u64) -> f64 {
        n as f64 / (self.wall_ms / 1e3)
    }

    /// `n` operations per second at the fastest repeat.
    pub fn rate_best(&self, n: u64) -> f64 {
        n as f64 / (self.wall_ms_min / 1e3)
    }
}

/// Measures the point `name`. `run` executes it once and returns its
/// deterministic result with the wall milliseconds of its timed region.
/// One untimed warmup populates caches and pins the result; each of the
/// `repeats` timed runs must reproduce it exactly.
///
/// # Panics
///
/// When a repeat's result differs from the warmup's (the point is not
/// deterministic), or `repeats` is zero.
pub fn measure<K: PartialEq + Debug>(
    name: &str,
    repeats: usize,
    mut run: impl FnMut() -> (K, f64),
) -> (K, Timing) {
    assert!(repeats > 0, "{name}: needs at least one timed repeat");
    let (pinned, _) = run();
    let mut walls: Vec<f64> = (0..repeats)
        .map(|_| {
            let (result, wall_ms) = run();
            assert_eq!(result, pinned, "non-deterministic result in {name}");
            wall_ms
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let timing = Timing {
        repeats,
        wall_ms: walls[walls.len() / 2],
        wall_ms_min: walls[0],
    };
    (pinned, timing)
}

/// Runs `f` and returns its result with the wall milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// FNV-1a 64-bit offset basis: the start value of a fingerprint.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a fingerprint.
pub fn fnv1a(fp: &mut u64, v: u64) {
    *fp ^= v;
    *fp = fp.wrapping_mul(0x100_0000_01b3);
}

/// One JSON object on one line, keys in call order. Keys and strings are
/// the benches' own identifiers and are written unescaped. Two rows are
/// equal when they render the same bytes, so a row can itself be the
/// pinned result of [`measure`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(String);

impl Row {
    /// The empty object.
    pub fn new() -> Row {
        Row::default()
    }

    /// A value already in JSON form: a nested [`Row`], a rendered list.
    pub fn raw(mut self, key: &str, value: impl Display) -> Row {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}\"{key}\": {value}");
        self
    }

    /// An integer of any width.
    pub fn int(self, key: &str, value: impl Display) -> Row {
        self.raw(key, value)
    }

    /// A quoted string.
    pub fn str(self, key: &str, value: impl Display) -> Row {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// A float with `places` decimals.
    pub fn float(self, key: &str, value: f64, places: usize) -> Row {
        self.raw(key, format_args!("{value:.places$}"))
    }

    /// The timing block every measured row ends with: `repeats`,
    /// `wall_ms`, `wall_ms_min` and — for `Some((rate, n))` — the rate of
    /// `n` operations at the median (`<rate>`) and the fastest repeat
    /// (`<rate>_best`), each after its wall time.
    pub fn timing(self, t: &Timing, rate: Option<(&str, u64)>) -> Row {
        let row = self.int("repeats", t.repeats).float("wall_ms", t.wall_ms, 3);
        match rate {
            Some((name, n)) => row
                .float(name, t.rate(n), 1)
                .float("wall_ms_min", t.wall_ms_min, 3)
                .float(&format!("{name}_best"), t.rate_best(n), 1),
            None => row.float("wall_ms_min", t.wall_ms_min, 3),
        }
    }
}

impl Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// A schema-1 document: `schema`, `bench`, `mode`, then fields and row
/// arrays in call order, one row per line so committed trajectories diff
/// row by row.
#[derive(Debug)]
pub struct Doc(String);

impl Doc {
    /// Opens the document of `bench` run in `mode`.
    pub fn new(bench: &str, mode: &str) -> Doc {
        Doc(format!(
            "{{\n  \"schema\": 1,\n  \"bench\": \"{bench}\",\n  \"mode\": \"{mode}\""
        ))
    }

    /// A top-level value on its own line.
    pub fn field(mut self, key: &str, value: impl Display) -> Doc {
        let _ = write!(self.0, ",\n  \"{key}\": {value}");
        self
    }

    /// A top-level array, one row per line.
    pub fn array(mut self, key: &str, rows: &[Row]) -> Doc {
        let _ = write!(self.0, ",\n  \"{key}\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(self.0, "    {row}{sep}");
        }
        self.0.push_str("  ]");
        self
    }

    /// Closes the document.
    pub fn finish(mut self) -> String {
        self.0.push_str("\n}\n");
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Args {
        Args::new("demo", line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn doc_and_rows_render_byte_exact() {
        let t = Timing {
            repeats: 3,
            wall_ms: 2.0,
            wall_ms_min: 1.0,
        };
        let config = Row::new().int("cores", 4u32).int("smt", 2u32);
        let points = [
            Row::new()
                .str("bench", "first")
                .raw("config", config.clone().str("mode", "sharded"))
                .int("events", 5000u64)
                .raw("fingerprint", format_args!("\"{:016x}\"", 0xabcu64))
                .timing(&t, Some(("events_per_sec", 5000))),
            Row::new()
                .str("bench", "second")
                .raw("config", config)
                .float("util", 0.5, 2)
                .timing(&t, None),
        ];
        let doc = Doc::new("demo", "quick")
            .field("master_seed", 42)
            .field("grid", Row::new().raw("np", format_args!("{:?}", [2, 8])))
            .array("points", &points)
            .array("storm", &[])
            .field("perf", Row::new().int("workers", 2usize))
            .finish();
        let expected = r#"{
  "schema": 1,
  "bench": "demo",
  "mode": "quick",
  "master_seed": 42,
  "grid": {"np": [2, 8]},
  "points": [
    {"bench": "first", "config": {"cores": 4, "smt": 2, "mode": "sharded"}, "events": 5000, "fingerprint": "0000000000000abc", "repeats": 3, "wall_ms": 2.000, "events_per_sec": 2500000.0, "wall_ms_min": 1.000, "events_per_sec_best": 5000000.0},
    {"bench": "second", "config": {"cores": 4, "smt": 2}, "util": 0.50, "repeats": 3, "wall_ms": 2.000, "wall_ms_min": 1.000}
  ],
  "storm": [
  ],
  "perf": {"workers": 2}
}
"#;
        assert_eq!(doc, expected);
    }

    #[test]
    fn measure_warms_up_once_and_reports_median_and_min() {
        let walls = [99.0, 5.0, 1.0, 9.0, 3.0];
        let mut calls = 0;
        let (pinned, t) = measure("demo", 4, || {
            calls += 1;
            ("result", walls[calls - 1])
        });
        assert_eq!(calls, 5, "one warmup + four timed repeats");
        assert_eq!(pinned, "result");
        // Sorted timed walls: 1, 3, 5, 9 — the warmup's 99 is not among them.
        assert_eq!(
            t,
            Timing {
                repeats: 4,
                wall_ms: 5.0,
                wall_ms_min: 1.0
            }
        );
        assert_eq!(t.rate(10), 2000.0);
        assert_eq!(t.rate_best(10), 10000.0);
    }

    #[test]
    #[should_panic(expected = "non-deterministic result in drifting")]
    fn measure_rejects_a_repeat_that_differs_from_the_warmup() {
        let mut calls = 0;
        measure("drifting", 3, || {
            calls += 1;
            (calls > 2, 1.0)
        });
    }

    #[test]
    fn args_take_flags_and_values_in_any_order() {
        let mut a = args(&["--repeats", "7", "--quick", "--out", "x.json"]);
        assert!(a.flag("--quick"));
        assert!(!a.flag("--check"));
        assert_eq!(a.value::<usize>("--repeats"), Some(7));
        assert_eq!(a.value::<String>("--out").as_deref(), Some("x.json"));
        assert_eq!(a.value::<u64>("--seed"), None);
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn args_reject_unknown_arguments_and_missing_values() {
        let mut a = args(&["--quick", "--chekc"]);
        assert!(a.flag("--quick"));
        assert_eq!(a.finish(), Err("demo: unknown argument --chekc".into()));

        // `--check` is a boolean everywhere: a path after it is left over.
        let mut a = args(&["--check", "baseline.json"]);
        assert!(a.flag("--check"));
        assert_eq!(a.finish(), Err("demo: unknown argument baseline.json".into()));

        let mut a = args(&["--quick", "--repeats"]);
        assert_eq!(a.value::<usize>("--repeats"), None);
        assert!(a.flag("--quick"));
        assert_eq!(a.finish(), Err("demo: --repeats needs a value".into()));

        let mut a = args(&["--repeats", "many"]);
        assert_eq!(a.value::<usize>("--repeats"), None);
        assert_eq!(a.finish(), Err("demo: --repeats needs a value".into()));
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        // FNV-1a over the single byte 'a' (0x61), a published test vector.
        let mut fp = FNV_OFFSET;
        fnv1a(&mut fp, 0x61);
        assert_eq!(fp, 0xaf63_dc4c_8601_ec8c);
    }
}
