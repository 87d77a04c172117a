//! `ablate` — placement-policy ablation over the admission engine.
//!
//! Measures the **admissible utilization** of each [`PlacementPolicy`]
//! against plain P-RMWP partitioning across a task-generator sweep: for
//! every `(sweep × utilization)` point, seeded task sets are submitted
//! task-by-task to a fresh [`AdmissionEngine`] per policy, and the sum of
//! admitted utilization is compared. Two sweeps isolate the two new
//! family members:
//!
//! * **sequential** — heavy mostly-mandatory tasks, the regime where
//!   semi-partitioned splitting rescues tasks that fit on no single CPU
//!   whole;
//! * **parallel** — tasks whose optional parts sum past one core
//!   (`Σoₖ/T ≥ 1`), the regime where a semi-federated core grant admits
//!   sets plain partitioning rejects.
//!
//! The output JSON (`BENCH_ablate.json`, schema 1) is a pure function of
//! the master seed — no wall-clock anywhere — so two runs byte-diff
//! equal, which CI enforces.
//!
//! Usage:
//!
//! ```text
//! ablate [--quick] [--seed S] [--out PATH] [--check]
//! ```
//!
//! * `--quick`  CI sweep (3 utilization levels × 4 reps) instead of the
//!   full one (7 levels × 20 reps);
//! * `--seed S` master seed (default 42);
//! * `--out P`  output path (default `BENCH_ablate.json`);
//! * `--check`  self-check gate: fails unless (a) semi-partitioned
//!   admits strictly more utilization than plain partitioning on at
//!   least one sequential sweep point, (b) semi-federated admits at
//!   least one parallel-optional task plain partitioning rejects, and
//!   (c) a full re-run renders byte-identical JSON (determinism).

use std::process::ExitCode;

use rtseed_analysis::taskgen::{generate, TaskGenConfig};
use rtseed_analysis::{AdmissionEngine, PartitionHeuristic, PlacementPolicy};
use rtseed_bench::harness::{Args, Doc, Row};
use rtseed_model::{Span, Topology};
use rtseed_sim::splitmix64;

/// One taskgen regime of the ablation. Each rep generates two
/// populations: long-period **residents** whose total utilization is the
/// sweep axis, then short-period **probes** submitted after them. The
/// probes outrank every resident under RM, so their interference on the
/// residents — not their own response time — is what admission rejects;
/// that is exactly the term semi-partitioned splitting (arrival `2T` per
/// CPU) and semi-federated grants (wind-up band on its own core) shrink.
struct Sweep {
    name: &'static str,
    /// Probe count per rep.
    probes: usize,
    /// Total probe utilization per rep.
    probe_utilization: f64,
    /// Probe mandatory fraction of WCET.
    probe_mandatory: (f64, f64),
    /// Probe optional parts.
    probe_parts: (usize, usize),
    /// Probe optional-part execution as a multiple of the period.
    probe_scale: (f64, f64),
}

/// The two regimes: split bait (heavy sequential probes) and federation
/// bait (parallel probes with `Σoₖ/T ≥ 1`).
const SWEEPS: [Sweep; 2] = [
    Sweep {
        name: "sequential",
        probes: 2,
        probe_utilization: 1.2,
        probe_mandatory: (0.9, 1.0),
        probe_parts: (0, 0),
        probe_scale: (0.0, 0.0),
    },
    Sweep {
        name: "parallel",
        probes: 2,
        probe_utilization: 1.0,
        probe_mandatory: (0.5, 0.7),
        probe_parts: (2, 2),
        probe_scale: (0.6, 1.0),
    },
];

struct AblateConfig {
    master_seed: u64,
    /// Per-hardware-thread utilization levels.
    utilizations: Vec<f64>,
    /// Seeded task sets per `(sweep × utilization)` point.
    reps: usize,
    tasks: usize,
    cores: u32,
    smt: u32,
}

impl AblateConfig {
    fn full(master_seed: u64) -> AblateConfig {
        AblateConfig {
            master_seed,
            utilizations: vec![0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            reps: 20,
            tasks: 6,
            cores: 2,
            smt: 2,
        }
    }

    fn quick(master_seed: u64) -> AblateConfig {
        AblateConfig {
            utilizations: vec![0.5, 0.7, 0.9],
            reps: 4,
            ..AblateConfig::full(master_seed)
        }
    }
}

/// Aggregated outcome of one `(sweep × utilization × policy)` point
/// across all its reps. Integer fields only: byte-stable to render.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PointResult {
    sweep: &'static str,
    util_idx: usize,
    policy: PlacementPolicy,
    submitted: u64,
    admitted: u64,
    /// Σ utilization of admitted tasks, in parts-per-million.
    admitted_util_ppm: u64,
}

/// Runs every rep of one point under one policy: each generated task is
/// offered as its own single-task tenant, in id order, to one engine per
/// task set — exactly the serving layer's greedy churn order.
fn run_point(
    cfg: &AblateConfig,
    sweep_idx: usize,
    util_idx: usize,
    policy: PlacementPolicy,
) -> PointResult {
    let sweep = &SWEEPS[sweep_idx];
    let topo = Topology::new(cfg.cores, cfg.smt).expect("non-degenerate");
    let hw = topo.hw_threads() as usize;
    let (mut submitted, mut admitted, mut admitted_util_ppm) = (0u64, 0u64, 0u64);
    for rep in 0..cfg.reps {
        // Pure in (master_seed, sweep, util, rep) — shared by all three
        // policies, so every policy scores the identical task sets.
        let index = (sweep_idx * cfg.utilizations.len() + util_idx) * cfg.reps + rep;
        let seed = splitmix64(cfg.master_seed, index as u64);
        let residents = generate(
            &TaskGenConfig {
                tasks: cfg.tasks,
                total_utilization: cfg.utilizations[util_idx] * hw as f64,
                period_min: Span::from_millis(100),
                period_max: Span::from_millis(200),
                mandatory_fraction: (0.9, 1.0),
                optional_parts: (0, 0),
                optional_scale: (0.0, 0.0),
            },
            splitmix64(seed, 0),
        );
        let probes = generate(
            &TaskGenConfig {
                tasks: sweep.probes,
                total_utilization: sweep.probe_utilization,
                period_min: Span::from_millis(10),
                period_max: Span::from_millis(20),
                mandatory_fraction: sweep.probe_mandatory,
                optional_parts: sweep.probe_parts,
                optional_scale: sweep.probe_scale,
            },
            splitmix64(seed, 1),
        );
        let mut eng =
            AdmissionEngine::new(hw, PartitionHeuristic::FirstFitDecreasing).with_placement(policy);
        for (_, spec) in residents.iter().chain(probes.iter()) {
            submitted += 1;
            if eng.try_admit(std::slice::from_ref(spec)).is_admitted() {
                admitted += 1;
                admitted_util_ppm += (spec.utilization() * 1e6).round() as u64;
            }
        }
    }
    PointResult {
        sweep: sweep.name,
        util_idx,
        policy,
        submitted,
        admitted,
        admitted_util_ppm,
    }
}

fn run_grid(cfg: &AblateConfig) -> Vec<PointResult> {
    let mut points = Vec::new();
    for sweep_idx in 0..SWEEPS.len() {
        for util_idx in 0..cfg.utilizations.len() {
            for policy in PlacementPolicy::ALL {
                points.push(run_point(cfg, sweep_idx, util_idx, policy));
            }
        }
    }
    points
}

fn render(mode: &str, cfg: &AblateConfig, points: &[PointResult]) -> String {
    let utils: Vec<String> = cfg.utilizations.iter().map(|u| format!("{u:.2}")).collect();
    let grid = Row::new()
        .raw("utilizations", format_args!("[{}]", utils.join(", ")))
        .raw("sweeps", format_args!("{:?}", SWEEPS.map(|s| s.name)))
        .int("reps", cfg.reps)
        .int("tasks", cfg.tasks)
        .str("topology", format_args!("{}x{}", cfg.cores, cfg.smt));
    let rows: Vec<Row> = points
        .iter()
        .map(|p| {
            Row::new()
                .str("sweep", p.sweep)
                .float("util", cfg.utilizations[p.util_idx], 2)
                .str("placement", p.policy)
                .int("submitted", p.submitted)
                .int("admitted", p.admitted)
                .int("admitted_util_ppm", p.admitted_util_ppm)
        })
        .collect();
    Doc::new("ablate", mode)
        .field("master_seed", cfg.master_seed)
        .field("grid", grid)
        .array("points", &rows)
        .finish()
}

/// Finds the point for `(sweep, util_idx, policy)` — the grid is full, so
/// this always succeeds.
fn point<'a>(
    points: &'a [PointResult],
    sweep: &str,
    util_idx: usize,
    policy: PlacementPolicy,
) -> &'a PointResult {
    points
        .iter()
        .find(|p| p.sweep == sweep && p.util_idx == util_idx && p.policy == policy)
        .expect("full ablation grid")
}

/// The acceptance gate (module docs): both new policies must demonstrate
/// their win over plain partitioning somewhere in the sweep.
fn gate(cfg: &AblateConfig, points: &[PointResult]) -> Result<(), String> {
    let split_win = (0..cfg.utilizations.len()).any(|ui| {
        point(points, "sequential", ui, PlacementPolicy::SemiPartitioned).admitted_util_ppm
            > point(points, "sequential", ui, PlacementPolicy::Partitioned).admitted_util_ppm
    });
    if !split_win {
        return Err("semi-partitioned never admitted more utilization than plain \
                    partitioning on the sequential sweep"
            .into());
    }
    let fed_win = (0..cfg.utilizations.len()).any(|ui| {
        point(points, "parallel", ui, PlacementPolicy::SemiFederated).admitted
            > point(points, "parallel", ui, PlacementPolicy::Partitioned).admitted
    });
    if !fed_win {
        return Err("semi-federated never admitted a parallel-optional task plain \
                    partitioning rejects"
            .into());
    }
    Ok(())
}

fn print_table(cfg: &AblateConfig, points: &[PointResult]) {
    for sweep in ["sequential", "parallel"] {
        println!("\nadmitted utilization (sum over reps) — {sweep} sweep");
        print!("{:>6}", "util");
        for policy in PlacementPolicy::ALL {
            print!(" {policy:>18}");
        }
        println!();
        for (ui, util) in cfg.utilizations.iter().enumerate() {
            print!("{util:>6.2}");
            for policy in PlacementPolicy::ALL {
                let p = point(points, sweep, ui, policy);
                print!(
                    " {:>11.2} ({:>3})",
                    p.admitted_util_ppm as f64 / 1e6,
                    p.admitted
                );
            }
            println!();
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env("ablate");
    let quick = args.flag("--quick");
    let check = args.flag("--check");
    let seed = args.value("--seed").unwrap_or(42u64);
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| String::from("BENCH_ablate.json"));
    if let Err(usage) = args.finish() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    let mode = if quick { "quick" } else { "full" };
    let cfg = if quick {
        AblateConfig::quick(seed)
    } else {
        AblateConfig::full(seed)
    };
    println!(
        "ablate: {} sweeps × {} utilization levels × {} policies, {} reps × {} tasks each, \
         {}x{} topology, master seed {}",
        SWEEPS.len(),
        cfg.utilizations.len(),
        PlacementPolicy::ALL.len(),
        cfg.reps,
        cfg.tasks,
        cfg.cores,
        cfg.smt,
        cfg.master_seed
    );
    let points = run_grid(&cfg);
    let json = render(mode, &cfg, &points);
    print_table(&cfg, &points);

    let mut failed = false;
    if check {
        if let Err(msg) = gate(&cfg, &points) {
            eprintln!("ablate: FAIL — {msg}");
            failed = true;
        }
        // Determinism: a full re-run must render byte-identical JSON.
        let again = render(mode, &cfg, &run_grid(&cfg));
        if again != json {
            eprintln!("ablate: FAIL — re-run JSON differs (non-deterministic sweep)");
            failed = true;
        }
    }

    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("\nablate: wrote {out_path}");
    if failed {
        return ExitCode::FAILURE;
    }
    if check {
        println!("ablate: self-check passed (split win + federation win + determinism)");
    }
    ExitCode::SUCCESS
}
