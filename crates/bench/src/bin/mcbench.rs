//! `mcbench` — parallel Monte-Carlo schedulability experiment harness.
//!
//! Runs the [`rtseed_bench::mc`] grid (utilization × np × policy ×
//! placement × topology, ≥ 1000 seeded simulations in full mode) on a
//! worker pool and writes
//! `BENCH_mcbench.json`: the deterministic per-cell aggregates (schema 1,
//! byte-identical for any worker count) plus a `perf` section recording
//! aggregate events/sec.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "mcbench",
//!   "mode": "quick",
//!   "master_seed": 42,
//!   "grid": {"utilizations": [0.35, ...], "np": [2, 8], ...},
//!   "total_events": 123456,
//!   "cells": [
//!     {"util": 0.35, "np": 2, "policy": "one-by-one",
//!      "placement": "partitioned", "topo": "4x2", "runs": 2,
//!      "admitted": 2, "schedulable_ppm": 1000000, "qos_ppm_p10": 991234,
//!      "qos_ppm_p50": 995678, "qos_ppm_p90": 999012, "misses": 0,
//!      "jobs": 60, "events": 4567}
//!   ],
//!   "perf": {"workers": 8, "wall_ms": 12.3, "events_per_sec": 1.0e8, ...}
//! }
//! ```
//!
//! Usage:
//!
//! ```text
//! mcbench [--quick] [--workers N] [--seed S] [--out PATH] [--check]
//! ```
//!
//! * `--quick`     CI grid (216 runs) instead of the full 1944-run grid;
//! * `--workers N` pool size (default: available parallelism);
//! * `--seed S`    master seed (default 42; the golden fixture pins 42);
//! * `--out PATH`  output path (default `BENCH_mcbench.json`);
//! * `--check`     self-check regression gate: re-runs the grid with one
//!   worker, fails unless (a) the aggregate JSON is byte-identical to the
//!   pooled run (worker-fan-out invariance) and (b) pooled throughput
//!   reaches the speedup floor. The floor is **relative to the host's own
//!   single-worker rate** — never an absolute events/sec — and is clamped
//!   by `available_parallelism`, so the gate is meaningful on a 64-core
//!   box and trivially satisfied on a 1-core runner: `min(2.0, 0.45 ×
//!   slots)` with `slots = min(workers, available_parallelism)`.

use std::process::ExitCode;

use rtseed_bench::harness::{timed, Args, Row};
use rtseed_bench::mc::{
    aggregate, aggregates_doc, render_aggregates_json, run_pool, CellAggregate, McConfig,
};

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed execution of the grid on `workers` threads: the cells, the
/// wall milliseconds of the pool alone and the aggregate events/sec.
fn timed_pool(cfg: &McConfig, workers: usize) -> (Vec<CellAggregate>, f64, f64) {
    let (runs, wall_ms) = timed(|| run_pool(cfg, workers));
    let events: u64 = runs.iter().map(|r| r.events).sum();
    (aggregate(cfg, &runs), wall_ms, events as f64 / (wall_ms / 1e3))
}

/// A terminal heatmap: schedulable fraction per (utilization × np), one
/// block per (policy × placement × topology) layer.
fn print_heatmap(cfg: &McConfig, cells: &[CellAggregate]) {
    for policy in &cfg.policies {
        for placement in &cfg.placements {
            for &(cores, smt) in &cfg.topologies {
                println!(
                    "\nschedulable fraction — policy {policy}, \
                     placement {placement}, topology {cores}x{smt}"
                );
                print!("{:>6}", "util");
                for np in &cfg.np_values {
                    print!(" np={np:<5}");
                }
                println!();
                for &util in &cfg.utilizations {
                    print!("{util:>6.2}");
                    for &np in &cfg.np_values {
                        let cell = cells
                            .iter()
                            .find(|c| {
                                c.utilization == util
                                    && c.np == np
                                    && &c.policy == policy
                                    && &c.placement == placement
                                    && (c.cores, c.smt) == (cores, smt)
                            })
                            .expect("full grid");
                        print!(" {:>7.2}", cell.schedulable_ppm as f64 / 1e6);
                    }
                    println!();
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env("mcbench");
    let quick = args.flag("--quick");
    let check = args.flag("--check");
    let workers = args
        .value("--workers")
        .unwrap_or_else(available_parallelism)
        .max(1);
    let seed = args.value("--seed").unwrap_or(42u64);
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| String::from("BENCH_mcbench.json"));
    if let Err(usage) = args.finish() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    let mode = if quick { "quick" } else { "full" };
    let cfg = if quick {
        McConfig::quick(seed)
    } else {
        McConfig::full(seed)
    };

    println!(
        "mcbench: {} runs ({} cells × {} reps), {} workers, master seed {}",
        cfg.total_runs(),
        cfg.cells(),
        cfg.reps,
        workers,
        cfg.master_seed
    );
    let (cells, wall_ms, events_per_sec) = timed_pool(&cfg, workers);
    println!(
        "mcbench: {} events in {wall_ms:.1} ms = {events_per_sec:.0} events/sec aggregate",
        cells.iter().map(|c| c.events).sum::<u64>()
    );
    print_heatmap(&cfg, &cells);

    let mut perf = Row::new()
        .int("workers", workers)
        .int("available_parallelism", available_parallelism())
        .float("wall_ms", wall_ms, 3)
        .float("events_per_sec", events_per_sec, 1);

    let mut failed = false;
    if check {
        // (a) Worker-fan-out invariance: the deterministic JSON from one
        // worker must be byte-identical to the pooled run's.
        let (single_cells, _, single_rate) = timed_pool(&cfg, 1);
        let single_json = render_aggregates_json(mode, &cfg, &single_cells);
        let pooled_json = render_aggregates_json(mode, &cfg, &cells);
        if single_json != pooled_json {
            let at = single_json
                .bytes()
                .zip(pooled_json.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| single_json.len().min(pooled_json.len()));
            eprintln!(
                "mcbench: FAIL — aggregates depend on worker count \
                 (first divergence at byte {at})"
            );
            failed = true;
        }
        // (b) Speedup floor, relative to this host's own single-worker
        // rate and clamped by its parallelism — never an absolute rate.
        let speedup = events_per_sec / single_rate;
        let slots = workers.min(available_parallelism()) as f64;
        let floor = 2.0_f64.min(0.45 * slots);
        println!(
            "mcbench: single-worker {single_rate:.0} events/sec, speedup {speedup:.2}× \
             (floor {floor:.2}×)"
        );
        if speedup < floor {
            eprintln!(
                "mcbench: FAIL — pool speedup {speedup:.2}× below floor {floor:.2}×"
            );
            failed = true;
        }
        perf = perf
            .float("single_worker_events_per_sec", single_rate, 1)
            .float("speedup", speedup, 3)
            .float("speedup_floor", floor, 3);
    }

    let json = aggregates_doc(mode, &cfg, &cells)
        .field("perf", perf)
        .finish();
    std::fs::write(&out_path, json).expect("write benchmark output");
    println!("mcbench: wrote {out_path}");
    if failed {
        return ExitCode::FAILURE;
    }
    if check {
        println!("mcbench: self-check passed (worker invariance + speedup floor)");
    }
    ExitCode::SUCCESS
}
