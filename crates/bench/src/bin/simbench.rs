//! `simbench` — dispatcher-throughput benchmark for the discrete-event
//! simulator, with a machine-readable output contract.
//!
//! Middleware-level scheduling results are only credible when dispatcher
//! overhead is measured and bounded (YASMIN, arXiv:2108.00730), so this
//! harness sweeps the simulator across topology size (1×1 → 57×4 → 128×4)
//! and task-set size, measures wall-clock time and events/sec with
//! warmup + repeat medians, and writes `BENCH_simbench.json` in a stable
//! schema that future PRs diff against to track the perf trajectory:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "simbench",
//!   "mode": "full",
//!   "points": [
//!     {"bench": "phi_57x4_np228", "config": {"cores": 57, "smt": 4,
//!      "tasks": 1, "np": 228, "jobs": 100, "seed": 0},
//!      "events": 123456, "repeats": 5, "wall_ms": 12.345,
//!      "events_per_sec": 10000000.0, "wall_ms_min": 11.9,
//!      "events_per_sec_best": 10400000.0}
//!   ]
//! }
//! ```
//!
//! Usage:
//!
//! ```text
//! simbench [--quick] [--out PATH] [--repeats N]
//! ```
//!
//! * `--quick`     reduced sweep (fewer jobs/repeats) for CI smoke runs;
//! * `--out PATH`  where to write the JSON (default `BENCH_simbench.json`);
//! * `--repeats N` timed repeats per point (default 3 quick / 5 full).
//!
//! There is no `--check`: the only thing a repeat must reproduce is the
//! point's event count, and [`measure`] asserts that on every run. An
//! events/sec floor recorded on another day fails or passes with the
//! host's phase, not with the code (EXPERIMENTS.md has the counts); a
//! dispatcher regression is read off interleaved parent/change pairs.

use std::process::ExitCode;

use rtseed::config::SystemConfig;
use rtseed::exec_sim::SimExecutor;
use rtseed::executor::RunConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed_analysis::taskgen::{generate, TaskGenConfig};
use rtseed_bench::harness::{measure, timed, Args, Doc, Row};
use rtseed_bench::paper_task_set;
use rtseed_model::{Span, TaskSet, Topology};

/// One sweep point: a named simulator configuration.
struct Point {
    name: &'static str,
    cores: u32,
    smt: u32,
    tasks: usize,
    /// Parallel optional parts of the paper task, or 0 when the task set
    /// comes from the generator (`tasks > 1`).
    np: usize,
    jobs: u64,
    seed: u64,
}

fn task_set(p: &Point) -> TaskSet {
    if p.tasks == 1 {
        paper_task_set(p.np)
    } else {
        generate(
            &TaskGenConfig {
                tasks: p.tasks,
                total_utilization: 0.5,
                period_min: Span::from_millis(10),
                period_max: Span::from_millis(500),
                optional_parts: (0, 4),
                ..TaskGenConfig::default()
            },
            p.seed,
        )
    }
}

/// The sweep: topology size (1×1 → 57×4 → 128×4) at paper-style load,
/// plus task-set size on the paper's Xeon Phi 3120A.
fn sweep(quick: bool) -> Vec<Point> {
    let j = |full: u64, q: u64| if quick { q } else { full };
    vec![
        Point { name: "uni_1x1_np1", cores: 1, smt: 1, tasks: 1, np: 1, jobs: j(100, 20), seed: 0 },
        Point { name: "quad_4x2_np8", cores: 4, smt: 2, tasks: 1, np: 8, jobs: j(100, 20), seed: 0 },
        Point { name: "phi_57x4_np57", cores: 57, smt: 4, tasks: 1, np: 57, jobs: j(100, 10), seed: 0 },
        Point { name: "phi_57x4_np228", cores: 57, smt: 4, tasks: 1, np: 228, jobs: j(100, 10), seed: 0 },
        Point { name: "big_128x4_np512", cores: 128, smt: 4, tasks: 1, np: 512, jobs: j(100, 5), seed: 0 },
        Point { name: "phi_57x4_tasks8", cores: 57, smt: 4, tasks: 8, np: 0, jobs: j(200, 20), seed: 11 },
        Point { name: "phi_57x4_tasks32", cores: 57, smt: 4, tasks: 32, np: 0, jobs: j(200, 20), seed: 11 },
    ]
}

fn main() -> ExitCode {
    let mut args = Args::from_env("simbench");
    let quick = args.flag("--quick");
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| String::from("BENCH_simbench.json"));
    let repeats = args.value("--repeats").unwrap_or(if quick { 3 } else { 5 });
    if let Err(usage) = args.finish() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }

    let mut rows = Vec::new();
    for p in sweep(quick) {
        let topo = Topology::new(p.cores, p.smt).expect("non-degenerate");
        let cfg = SystemConfig::build(task_set(&p), topo, AssignmentPolicy::OneByOne)
            .expect("sweep point is schedulable");
        // The pinned result is the event count: the simulator is
        // deterministic in the seed.
        let (events, t) = measure(p.name, repeats, || {
            let run = RunConfig {
                jobs: p.jobs,
                seed: p.seed,
                ..RunConfig::default()
            };
            let (out, wall_ms) = timed(|| SimExecutor::new(cfg.clone(), run).run());
            (out.events_processed, wall_ms)
        });
        println!(
            "{:>18}: {events:>9} events, median {:>9.3} ms = {:>12.0} ev/s, \
             best {:>9.3} ms = {:>12.0} ev/s (n={repeats})",
            p.name,
            t.wall_ms,
            t.rate(events),
            t.wall_ms_min,
            t.rate_best(events)
        );
        let config = Row::new()
            .int("cores", p.cores)
            .int("smt", p.smt)
            .int("tasks", p.tasks)
            .int("np", p.np)
            .int("jobs", p.jobs)
            .int("seed", p.seed);
        rows.push(
            Row::new()
                .str("bench", p.name)
                .raw("config", config)
                .int("events", events)
                .timing(&t, Some(("events_per_sec", events))),
        );
    }

    let mode = if quick { "quick" } else { "full" };
    let json = Doc::new("simbench", mode).array("points", &rows).finish();
    std::fs::write(&out_path, json).expect("write benchmark output");
    println!("simbench: wrote {out_path}");
    ExitCode::SUCCESS
}
