//! Parallel Monte-Carlo experiment engine.
//!
//! Executes thousands of seeded `(task set × policy × fault plan)`
//! simulations across a worker pool and aggregates them into
//! schedulability-heatmap cells (utilization × np × policy × placement
//! × topology), the statistical backbone behind the `mcbench` binary.
//!
//! # Determinism contract
//!
//! Every run is a pure function of `(master_seed, run_index)`: the run's
//! seed is `splitmix64(master_seed, index)`, the task set is generated
//! from that seed, and the simulator is deterministic in its `RunConfig`.
//! Workers claim run indices from a shared counter and write each
//! [`RunSummary`] into the slot for its index, so the collected vector —
//! and everything aggregated from it — is **byte-identical for any worker
//! count**. The differential tests in `tests/mcbench.rs` pin this down:
//! `--workers 1` and `--workers 8` must render the same aggregate JSON,
//! and any run re-executed standalone must reproduce the summary the pool
//! recorded (no state bleeds through the reused [`SimArena`]s).
//!
//! # Arena reuse
//!
//! Each worker owns one [`SimArena`] recycled across all its runs: the
//! event-queue slab, per-CPU ready queues and engine buffers are
//! allocated once per worker rather than once per run, which is what lets
//! the pool sustain aggregate event rates far beyond a spawn-per-run
//! design.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rtseed::config::SystemConfig;
use rtseed::exec_sim::{SimArena, SimExecutor};
use rtseed::executor::RunConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed_analysis::taskgen::{generate, TaskGenConfig};
use rtseed_analysis::{PartitionHeuristic, PlacementPolicy};
use rtseed_model::{Span, Topology};
use rtseed_sim::{splitmix64, FaultPlan, FaultTarget, RandomOverruns};

use crate::harness::{Doc, Row};

/// The Monte-Carlo grid: every `(utilization × np × policy × placement
/// × topology)` cell is sampled `reps` times with independent seeded
/// task sets and fault plans.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Master seed; every run seed derives from it via [`splitmix64`].
    pub master_seed: u64,
    /// Per-hardware-thread normalized utilization levels (the heatmap's
    /// x-axis). Total generated utilization is `u × hw_threads`.
    pub utilizations: Vec<f64>,
    /// Parallel-optional-part counts (the heatmap's y-axis).
    pub np_values: Vec<usize>,
    /// Assignment policies (one heatmap layer per policy).
    pub policies: Vec<AssignmentPolicy>,
    /// Placement policies (one heatmap layer per member of the family).
    pub placements: Vec<PlacementPolicy>,
    /// Simulated topologies as `(cores, SMT threads per core)` points.
    pub topologies: Vec<(u32, u32)>,
    /// Sampled task sets per cell.
    pub reps: usize,
    /// Baseline tasks per generated set; wider topologies scale this up
    /// (see [`McConfig::tasks_for`]) so the partition stays contended.
    pub tasks: usize,
    /// Jobs simulated per run.
    pub jobs: u64,
    /// Per-job probability of a mandatory WCET overrun fault.
    pub fault_probability: f64,
}

impl McConfig {
    /// The full grid: 6 × 4 × 3 × 3 × 3 cells × 3 reps = 1944 runs.
    pub fn full(master_seed: u64) -> McConfig {
        McConfig {
            master_seed,
            utilizations: vec![0.35, 0.50, 0.65, 0.80, 0.95, 1.10],
            np_values: vec![2, 4, 8, 16],
            policies: AssignmentPolicy::PAPER_POLICIES.to_vec(),
            placements: PlacementPolicy::ALL.to_vec(),
            topologies: vec![(4, 2), (2, 2), (8, 4)],
            reps: 3,
            // More tasks than hardware threads (≥ 1.5× after scaling), so
            // the first-fit RMWP partition genuinely rejects at the
            // overload end of the utilization axis.
            tasks: 12,
            jobs: 50,
            fault_probability: 0.005,
        }
    }

    /// The CI grid: 3 × 2 × 2 × 3 × 3 cells × 2 reps = 216 runs.
    pub fn quick(master_seed: u64) -> McConfig {
        McConfig {
            // Top level exceeds 1.0/thread so the admission axis is
            // exercised (guaranteed rejections) even in the small grid.
            utilizations: vec![0.35, 0.65, 1.10],
            np_values: vec![2, 8],
            policies: vec![AssignmentPolicy::OneByOne, AssignmentPolicy::AllByAll],
            reps: 2,
            tasks: 10,
            jobs: 12,
            ..McConfig::full(master_seed)
        }
    }

    /// Number of heatmap cells.
    pub fn cells(&self) -> usize {
        self.utilizations.len()
            * self.np_values.len()
            * self.policies.len()
            * self.placements.len()
            * self.topologies.len()
    }

    /// Total simulations in the grid.
    pub fn total_runs(&self) -> usize {
        self.cells() * self.reps
    }

    /// Tasks generated for a run on a topology with `hw` hardware
    /// threads: the configured baseline, scaled up on wider machines so
    /// the set stays bigger than the machine (≥ 1.5 tasks per thread) and
    /// the admission axis keeps rejecting at the overload end.
    pub fn tasks_for(&self, hw: u32) -> usize {
        self.tasks.max(hw as usize * 3 / 2)
    }

    /// Decomposes a flat run index into its grid coordinates.
    ///
    /// Runs are laid out cell-major (`reps` consecutive runs per cell)
    /// with cells ordered utilization-major, then np, then policy, then
    /// placement, then topology — the same order [`aggregate`] emits
    /// them.
    pub fn coords(&self, index: usize) -> RunCoords {
        assert!(index < self.total_runs(), "run index out of range");
        let cell = index / self.reps;
        let rep = index % self.reps;
        let (nt, nl, np) = (
            self.topologies.len(),
            self.placements.len(),
            self.policies.len(),
        );
        RunCoords {
            util_idx: cell / (self.np_values.len() * np * nl * nt),
            np_idx: (cell / (np * nl * nt)) % self.np_values.len(),
            policy_idx: (cell / (nl * nt)) % np,
            placement_idx: (cell / nt) % nl,
            topo_idx: cell % nt,
            cell,
            rep,
        }
    }
}

/// Grid coordinates of one run (see [`McConfig::coords`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCoords {
    /// Index into [`McConfig::utilizations`].
    pub util_idx: usize,
    /// Index into [`McConfig::np_values`].
    pub np_idx: usize,
    /// Index into [`McConfig::policies`].
    pub policy_idx: usize,
    /// Index into [`McConfig::placements`].
    pub placement_idx: usize,
    /// Index into [`McConfig::topologies`].
    pub topo_idx: usize,
    /// Flat cell index.
    pub cell: usize,
    /// Repetition within the cell.
    pub rep: usize,
}

/// The outcome of one simulation run, reduced to the integers the
/// aggregator consumes. All fields are exact (no floats), so summaries
/// compare and hash byte-stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// The partition/priority admission accepted the generated set.
    pub admitted: bool,
    /// Admitted **and** zero deadline misses in simulation.
    pub schedulable: bool,
    /// Jobs simulated (0 when not admitted).
    pub jobs: u64,
    /// Wind-up deadline misses.
    pub misses: u64,
    /// Aggregate QoS ratio in parts-per-million (achieved / requested
    /// optional execution; 1 000 000 when nothing was requested).
    pub qos_ppm: u64,
    /// Discrete events the simulator processed.
    pub events: u64,
}

impl RunSummary {
    fn rejected() -> RunSummary {
        RunSummary {
            admitted: false,
            schedulable: false,
            jobs: 0,
            misses: 0,
            qos_ppm: 0,
            events: 0,
        }
    }
}

/// Executes run `index` of the grid into `arena` and summarizes it.
///
/// Pure in `(cfg.master_seed, index)`; the arena only recycles
/// allocations. This is the exact function pool workers call, exported so
/// differential tests can re-run any run standalone and compare against
/// the pool's recorded summary.
pub fn execute_run(cfg: &McConfig, index: usize, arena: &mut SimArena) -> RunSummary {
    let c = cfg.coords(index);
    let seed = splitmix64(cfg.master_seed, index as u64);
    let (cores, smt) = cfg.topologies[c.topo_idx];
    let topo = Topology::new(cores, smt).expect("non-degenerate topology");
    let set = generate(
        &TaskGenConfig {
            tasks: cfg.tasks_for(topo.hw_threads()),
            total_utilization: cfg.utilizations[c.util_idx] * topo.hw_threads() as f64,
            period_min: Span::from_millis(10),
            period_max: Span::from_millis(200),
            mandatory_fraction: (0.3, 0.6),
            optional_parts: {
                let np = cfg.np_values[c.np_idx];
                (np, np)
            },
            optional_scale: (0.2, 0.8),
        },
        seed,
    );
    let policy = cfg.policies[c.policy_idx];
    let Ok(system) = SystemConfig::build_with_placement(
        set,
        topo,
        policy,
        PartitionHeuristic::FirstFitDecreasing,
        cfg.placements[c.placement_idx],
    ) else {
        // The partition admits no placement (or the set exhausts the RTQ
        // levels): the cell's schedulable fraction absorbs the rejection.
        return RunSummary::rejected();
    };
    let mut fault_plan = FaultPlan::new(splitmix64(seed, 1));
    if cfg.fault_probability > 0.0 {
        fault_plan = fault_plan.with_random_overruns(RandomOverruns {
            probability: cfg.fault_probability,
            min_factor: 1.5,
            max_factor: 3.0,
            target: FaultTarget::Mandatory,
        });
    }
    let out = SimExecutor::new(
        system,
        RunConfig {
            jobs: cfg.jobs,
            seed,
            fault_plan,
            ..RunConfig::default()
        },
    )
    .run_in(arena);
    let misses = out.qos.deadline_misses();
    RunSummary {
        admitted: true,
        schedulable: misses == 0,
        jobs: out.qos.jobs(),
        misses,
        qos_ppm: (out.qos.aggregate_ratio() * 1e6).round() as u64,
        events: out.events_processed,
    }
}

/// Executes the whole grid on `workers` threads and returns the per-run
/// summaries in run-index order.
///
/// Work is claimed from a shared atomic counter; each worker recycles one
/// [`SimArena`] across all its runs and writes every summary into the
/// slot for its run index, so the returned vector is identical for any
/// `workers ≥ 1`.
pub fn run_pool(cfg: &McConfig, workers: usize) -> Vec<RunSummary> {
    let total = cfg.total_runs();
    let workers = workers.max(1).min(total.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunSummary>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut arena = SimArena::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let summary = execute_run(cfg, index, &mut arena);
                    *slots[index].lock().expect("slot lock") = Some(summary);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("every run executed"))
        .collect()
}

/// One heatmap cell: aggregates over the cell's `reps` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAggregate {
    /// Per-hardware-thread utilization level.
    pub utilization: f64,
    /// Parallel optional parts per task.
    pub np: usize,
    /// Assignment policy.
    pub policy: AssignmentPolicy,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Topology cores.
    pub cores: u32,
    /// Topology SMT threads per core.
    pub smt: u32,
    /// Runs sampled.
    pub runs: usize,
    /// Runs the partition/priority admission accepted.
    pub admitted: usize,
    /// Schedulable runs (admitted, zero misses) in parts-per-million of
    /// `runs`.
    pub schedulable_ppm: u64,
    /// QoS ppm percentiles over the admitted runs (0 when none).
    pub qos_ppm_p10: u64,
    /// Median QoS ppm over admitted runs.
    pub qos_ppm_p50: u64,
    /// 90th-percentile QoS ppm over admitted runs.
    pub qos_ppm_p90: u64,
    /// Total deadline misses across the cell.
    pub misses: u64,
    /// Total jobs simulated across the cell.
    pub jobs: u64,
    /// Total simulator events across the cell.
    pub events: u64,
}

/// Nearest-rank percentile over a sorted slice (integer arithmetic:
/// deterministic on every host).
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Folds per-run summaries into heatmap cells, in cell order
/// (utilization-major, then np, then policy, then placement, then
/// topology).
pub fn aggregate(cfg: &McConfig, runs: &[RunSummary]) -> Vec<CellAggregate> {
    assert_eq!(runs.len(), cfg.total_runs(), "summary count mismatch");
    let mut cells = Vec::with_capacity(cfg.cells());
    for (cell_idx, cell_runs) in runs.chunks(cfg.reps).enumerate() {
        let c = cfg.coords(cell_idx * cfg.reps);
        let (cores, smt) = cfg.topologies[c.topo_idx];
        let admitted = cell_runs.iter().filter(|r| r.admitted).count();
        let schedulable = cell_runs.iter().filter(|r| r.schedulable).count();
        let mut qos: Vec<u64> = cell_runs
            .iter()
            .filter(|r| r.admitted)
            .map(|r| r.qos_ppm)
            .collect();
        qos.sort_unstable();
        cells.push(CellAggregate {
            utilization: cfg.utilizations[c.util_idx],
            np: cfg.np_values[c.np_idx],
            policy: cfg.policies[c.policy_idx],
            placement: cfg.placements[c.placement_idx],
            cores,
            smt,
            runs: cell_runs.len(),
            admitted,
            schedulable_ppm: (schedulable as u64 * 1_000_000)
                / cell_runs.len().max(1) as u64,
            qos_ppm_p10: percentile(&qos, 10),
            qos_ppm_p50: percentile(&qos, 50),
            qos_ppm_p90: percentile(&qos, 90),
            misses: cell_runs.iter().map(|r| r.misses).sum(),
            jobs: cell_runs.iter().map(|r| r.jobs).sum(),
            events: cell_runs.iter().map(|r| r.events).sum(),
        });
    }
    cells
}

/// A JSON list of the items' display forms, each quoted.
fn quoted<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let names: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("{names:?}")
}

/// The deterministic half of the schema-1 document: the grid definition
/// and the per-cell aggregates, **excluding** anything
/// wall-clock-dependent. `mcbench` adds its `perf` field to this and
/// writes the result; [`render_aggregates_json`] closes it as is.
pub fn aggregates_doc(mode: &str, cfg: &McConfig, cells: &[CellAggregate]) -> Doc {
    let utilizations: Vec<String> = cfg.utilizations.iter().map(|u| format!("{u:.2}")).collect();
    let topologies = cfg.topologies.iter().map(|(c, s)| format!("{c}x{s}"));
    let grid = Row::new()
        .raw("utilizations", format_args!("[{}]", utilizations.join(", ")))
        .raw("np", format_args!("{:?}", cfg.np_values))
        .raw("policies", quoted(&cfg.policies))
        .raw("placements", quoted(&cfg.placements))
        .raw("topologies", quoted(topologies))
        .int("reps", cfg.reps)
        .int("tasks", cfg.tasks)
        .int("jobs", cfg.jobs)
        .int("runs", cfg.total_runs());
    let rows: Vec<Row> = cells
        .iter()
        .map(|c| {
            Row::new()
                .float("util", c.utilization, 2)
                .int("np", c.np)
                .str("policy", c.policy)
                .str("placement", c.placement)
                .str("topo", format_args!("{}x{}", c.cores, c.smt))
                .int("runs", c.runs)
                .int("admitted", c.admitted)
                .int("schedulable_ppm", c.schedulable_ppm)
                .int("qos_ppm_p10", c.qos_ppm_p10)
                .int("qos_ppm_p50", c.qos_ppm_p50)
                .int("qos_ppm_p90", c.qos_ppm_p90)
                .int("misses", c.misses)
                .int("jobs", c.jobs)
                .int("events", c.events)
        })
        .collect();
    Doc::new("mcbench", mode)
        .field("master_seed", cfg.master_seed)
        .field("grid", grid)
        .field("total_events", cells.iter().map(|c| c.events).sum::<u64>())
        .array("cells", &rows)
}

/// Renders [`aggregates_doc`]: the byte string the worker-invariance
/// test and the golden fixture compare.
pub fn render_aggregates_json(mode: &str, cfg: &McConfig, cells: &[CellAggregate]) -> String {
    aggregates_doc(mode, cfg, cells).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip_covers_grid() {
        let cfg = McConfig::quick(0);
        let mut seen = vec![0usize; cfg.cells()];
        for i in 0..cfg.total_runs() {
            let c = cfg.coords(i);
            assert!(c.util_idx < cfg.utilizations.len());
            assert!(c.np_idx < cfg.np_values.len());
            assert!(c.policy_idx < cfg.policies.len());
            assert!(c.placement_idx < cfg.placements.len());
            assert!(c.topo_idx < cfg.topologies.len());
            assert_eq!(
                c.cell,
                (((c.util_idx * cfg.np_values.len() + c.np_idx) * cfg.policies.len()
                    + c.policy_idx)
                    * cfg.placements.len()
                    + c.placement_idx)
                    * cfg.topologies.len()
                    + c.topo_idx
            );
            assert_eq!(c.rep, i % cfg.reps);
            seen[c.cell] += 1;
        }
        assert!(seen.iter().all(|&n| n == cfg.reps), "every cell gets reps runs");
    }

    #[test]
    fn grid_sizes_match_issue_floor() {
        assert!(McConfig::full(0).total_runs() >= 1000, "full grid ≥ 1000 sims");
        assert_eq!(McConfig::quick(0).total_runs(), 216);
        // Both grids carry the new topology points and the whole
        // placement-policy family.
        for cfg in [McConfig::full(0), McConfig::quick(0)] {
            assert!(cfg.topologies.contains(&(2, 2)));
            assert!(cfg.topologies.contains(&(8, 4)));
            assert_eq!(cfg.placements, PlacementPolicy::ALL.to_vec());
        }
    }

    #[test]
    fn execute_run_is_pure_in_master_seed_and_index() {
        let cfg = McConfig::quick(42);
        let mut a1 = SimArena::new();
        let mut a2 = SimArena::new();
        for index in [0, 7, 101, 215] {
            let x = execute_run(&cfg, index, &mut a1);
            let y = execute_run(&cfg, index, &mut a2);
            assert_eq!(x, y, "index {index}");
        }
        // Hot arena from previous indices must not perturb a repeat.
        let again = execute_run(&cfg, 0, &mut a1);
        assert_eq!(again, execute_run(&cfg, 0, &mut SimArena::new()));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 90), 7);
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 100), 10);
    }

    #[test]
    fn aggregate_orders_cells_like_coords() {
        let cfg = McConfig::quick(1);
        let runs = run_pool(&cfg, 2);
        let cells = aggregate(&cfg, &runs);
        assert_eq!(cells.len(), cfg.cells());
        for (cell_idx, cell) in cells.iter().enumerate() {
            let c = cfg.coords(cell_idx * cfg.reps);
            assert_eq!(cell.utilization, cfg.utilizations[c.util_idx]);
            assert_eq!(cell.np, cfg.np_values[c.np_idx]);
            assert_eq!(cell.policy, cfg.policies[c.policy_idx]);
            assert_eq!(cell.placement, cfg.placements[c.placement_idx]);
            assert_eq!((cell.cores, cell.smt), cfg.topologies[c.topo_idx]);
            assert_eq!(cell.runs, cfg.reps);
        }
        // The grid must exercise both regimes: some admitted work and
        // some rejections at the overload end.
        assert!(cells.iter().any(|c| c.admitted > 0), "low-util cells admit");
        assert!(
            cells.iter().any(|c| c.admitted < c.runs),
            "overloaded cells reject"
        );
    }
}
