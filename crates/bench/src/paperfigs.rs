//! The paper's simulated evaluation (§V) as one schema-1 document:
//! Figs. 10–13 from one sweep of the np × policy × load grid, Table I,
//! Figs. 3 and 8, the three ablations, and one [`Shape`] per claim with
//! the paper's value, the measured one and whether the claim holds.
//!
//! Everything here is a pure function of constants (100 jobs, seed 0): no
//! argument, no environment, no wall-clock. `BENCH_paperfigs.json` at the
//! repository root is [`document`]'s output, byte for byte.

use rtseed::config::SystemConfig;
use rtseed::exec_global::GlobalExecutor;
use rtseed::exec_sim::SimExecutor;
use rtseed::executor::RunConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed::profile::{RemainingProfile, SchedulingMode};
use rtseed::termination::TerminationMode;
use rtseed_analysis::partition::{Partition, PartitionHeuristic};
use rtseed_analysis::taskgen::{generate, TaskGenConfig};
use rtseed_model::{Span, TaskId, Topology};
use rtseed_sim::{BackgroundLoad, OverheadKind};

use crate::harness::{Doc, Row};
use crate::{evaluation_task_set, paper_config, paper_task_set, run_paper_workload};
use crate::{NP_SET, PAPER_JOBS};

use AssignmentPolicy::{AllByAll, OneByOne};
use BackgroundLoad::{CpuLoad, CpuMemoryLoad, NoLoad};
use OverheadKind::{BeginMandatory, BeginOptional, EndOptional, SwitchToOptional};

/// One run of the grid: the four mean overheads (one cell each of
/// Figs. 10–13) and the deadline misses.
#[derive(Debug, Clone, Copy)]
pub struct Overheads {
    /// Background load.
    pub load: BackgroundLoad,
    /// Assignment policy.
    pub policy: AssignmentPolicy,
    /// Number of parallel optional parts.
    pub np: usize,
    /// Mean over the jobs, in [`OverheadKind::ALL`] order (Δm, Δb, Δs, Δe).
    pub mean: [Span; 4],
    /// Jobs run.
    pub jobs: u64,
    /// Jobs whose wind-up part missed its deadline.
    pub misses: u64,
}

/// One claim of the paper against this reproduction.
#[derive(Debug, Clone)]
pub struct Shape {
    /// What is claimed, of which quantity in which unit.
    pub name: &'static str,
    /// The paper's value where EXPERIMENTS.md records one, else its words.
    pub paper: &'static str,
    /// The measured values the claim is about.
    pub measured: Vec<f64>,
    /// Whether the claim holds on the measured values.
    pub holds: bool,
}

/// The whole simulated evaluation: what [`PaperFigs::document`] writes.
#[derive(Debug, Clone)]
pub struct PaperFigs {
    /// Figs. 10–13: the 72-run grid in load, policy, np order.
    pub overheads: Vec<Overheads>,
    /// `table1`, `fig3`, `fig8` and the three ablations, as written.
    pub arrays: Vec<(&'static str, Vec<Row>)>,
    /// The paper's claims.
    pub shapes: Vec<Shape>,
}

impl Shape {
    fn new(name: &'static str, paper: &'static str, measured: &[f64], holds: bool) -> Shape {
        let measured = measured.to_vec();
        Shape { name, paper, measured, holds }
    }
}

impl Overheads {
    /// The mean of one overhead.
    pub fn mean(&self, kind: OverheadKind) -> Span {
        let at = OverheadKind::ALL.iter().position(|&k| k == kind);
        self.mean[at.expect("ALL lists every kind")]
    }
}

/// The one sweep behind Figs. 10–13: 3 loads × 3 policies × [`NP_SET`],
/// [`PAPER_JOBS`] jobs, seed 0, `SigjmpTimer`.
pub fn sweep() -> Vec<Overheads> {
    let mut grid = Vec::new();
    for load in BackgroundLoad::ALL {
        for policy in AssignmentPolicy::PAPER_POLICIES {
            for np in NP_SET {
                let out = run_paper_workload(np, policy, load, PAPER_JOBS, 0);
                grid.push(Overheads {
                    load,
                    policy,
                    np,
                    mean: OverheadKind::ALL.map(|kind| out.overheads.mean(kind)),
                    jobs: out.qos.jobs(),
                    misses: out.qos.deadline_misses(),
                });
            }
        }
    }
    grid
}

/// What §V says of the workload and of Figs. 10–13, on `figs`'s grid.
fn overhead_shapes(figs: &PaperFigs) -> Vec<Shape> {
    let us = |load, policy, np, kind| figs.cell(load, policy, np).mean(kind).as_micros_f64();
    let one = |load, np, kind| us(load, OneByOne, np, kind);
    let loaded = [CpuLoad, CpuMemoryLoad];

    let flat = |load, kind| one(load, 228, kind) / one(load, 4, kind);
    let dm_flat = BackgroundLoad::ALL.map(|l| flat(l, BeginMandatory));
    let dm = BackgroundLoad::ALL.map(|l| one(l, 57, BeginMandatory));
    let ds = NP_SET.map(|np| one(NoLoad, np, SwitchToOptional));
    let ds_flat = loaded.map(|l| flat(l, SwitchToOptional));
    let db = BackgroundLoad::ALL.map(|l| [57, 114, 228].map(|np| one(l, np, BeginOptional) / 1e3));
    let db_doubling: Vec<f64> = db.iter().flat_map(|[a, b, c]| [b / a, c / b]).collect();
    let [db_none, db_cpu, db_mem] = db.map(|by_np| by_np[2]);
    let all_228 = OverheadKind::ALL.map(|kind| one(NoLoad, 228, kind));
    let [de_cpu, de_mem] = loaded.map(|l| one(l, 228, EndOptional) / 1e3);
    let de_loaded: Vec<[f64; 3]> = loaded
        .iter()
        .flat_map(|&l| [57, 114, 171, 228].map(|np| (l, np)))
        .map(|(l, np)| AssignmentPolicy::PAPER_POLICIES.map(|p| us(l, p, np, EndOptional) / 1e3))
        .collect();
    let de_unloaded = one(NoLoad, 171, EndOptional) / us(NoLoad, AllByAll, 171, EndOptional);
    let de_growth = one(NoLoad, 228, EndOptional) / one(NoLoad, 57, EndOptional);
    let grid = [
        figs.overheads.len() as f64,
        figs.overheads.iter().map(|r| r.jobs).min().expect("full grid") as f64,
        figs.overheads.iter().map(|r| r.misses).sum::<u64>() as f64,
    ];
    let od = paper_config(57, OneByOne).optional_deadline(TaskId(0)).as_millis_f64();

    vec![
        Shape::new(
            "fig10_dm_np228_over_np4_by_load",
            "approximately constant",
            &dm_flat,
            dm_flat.iter().all(|r| (0.8..1.25).contains(r)),
        ),
        Shape::new(
            "fig10_dm_us_rises_with_load_at_np57",
            "50 < 150 < 250",
            &dm,
            dm[0] < dm[1] && dm[1] < dm[2] && (100.0..300.0).contains(&dm[2]),
        ),
        Shape::new(
            "fig11_ds_us_unloaded_grows_with_np_and_surges_at_228",
            "80-90 at np 228, a dramatic increase",
            &ds,
            ds[7] > ds[0] * 3.0 && ds[7] - ds[6] > (ds[1] - ds[0]) * 5.0,
        ),
        Shape::new(
            "fig11_ds_np228_over_np4_under_cpu_and_cpu_memory_load",
            "approximately constant, 40-60 us",
            &ds_flat,
            ds_flat.iter().all(|&r| r < 1.25),
        ),
        Shape::new(
            "fig12_db_doubles_np57_to_114_to_228_by_load",
            "linear in np",
            &db_doubling,
            db_doubling.iter().all(|r| (r - 2.0).abs() < 0.25),
        ),
        Shape::new(
            "fig12_db_ms_cpu_above_cpu_memory_above_no_load_at_np228",
            "10-12 > 8 > 6",
            &[db_cpu, db_mem, db_none],
            db_cpu > db_mem && db_mem > db_none && (7.0..13.0).contains(&db_cpu),
        ),
        Shape::new(
            "fig13_de_us_largest_of_dm_db_ds_de_at_np228",
            "the largest of all types of overhead",
            &all_228,
            all_228[..3].iter().all(|&other| all_228[3] > other),
        ),
        Shape::new(
            "fig13_de_ms_cpu_memory_above_cpu_at_np228",
            "cpu-memory 50",
            &[de_mem, de_cpu],
            de_mem > de_cpu && (40.0..62.0).contains(&de_mem),
        ),
        Shape::new(
            "fig13_de_ms_one_above_two_above_all_under_load_np57_to_228",
            "one by one the highest, all by all the lowest",
            de_loaded.as_flattened(),
            de_loaded.iter().all(|[one, two, all]| one > two && two >= all),
        ),
        Shape::new(
            "fig13_de_one_by_one_over_all_by_all_unloaded_at_np171",
            "approximately the same",
            &[de_unloaded],
            de_unloaded < 1.15,
        ),
        Shape::new(
            "fig13_de_np228_over_np57_unloaded",
            "O(np): 4",
            &[de_growth],
            (de_growth - 4.0).abs() < 0.8,
        ),
        Shape::new(
            "grid_runs_jobs_misses",
            "100 jobs",
            &grid,
            grid == [72.0, PAPER_JOBS as f64, 0.0],
        ),
        Shape::new("od_ms_equals_d_minus_w", "750", &[od], od == 750.0),
    ]
}

/// The default run of `jobs` jobs: no load, seed 0, `SigjmpTimer`.
fn jobs(jobs: u64) -> RunConfig {
    RunConfig { jobs, ..Default::default() }
}

/// Table I, and what each mechanism does to the paper workload (np = 57,
/// 20 jobs, no load).
fn table1() -> (Vec<Row>, Vec<Shape>) {
    let interval = Span::from_millis(10);
    let modes = [
        TerminationMode::SigjmpTimer,
        TerminationMode::PeriodicCheck { interval },
        TerminationMode::UnwindCatch,
    ];
    let mut rows = Vec::new();
    let mut misses = Vec::new();
    for termination in modes {
        let run = RunConfig { termination, ..jobs(20) };
        let qos = SimExecutor::new(paper_config(57, OneByOne), run).run().qos;
        let mask = match termination.restores_signal_mask() {
            Some(true) => "yes",
            Some(false) => "no",
            None => "unnecessary",
        };
        misses.push(qos.deadline_misses() as f64);
        rows.push(
            Row::new()
                .str("mechanism", termination)
                .raw("any_time_termination", termination.any_time_termination())
                .str("signal_mask_restoration", mask)
                .int("jobs", qos.jobs())
                .int("misses", qos.deadline_misses())
                .int("terminated", qos.outcome_totals().1)
                .float("qos", qos.aggregate_ratio(), 4),
        );
    }
    // Table I's last column, behaviourally: the mechanism that leaves the
    // signal mask unrestored loses its timer after the first job.
    let unrestored = modes.map(TerminationMode::models_signal_mask_defect);
    let shape = Shape::new(
        "table1_misses_in_20_jobs_by_mechanism",
        "only try-catch leaves the mask unrestored",
        &misses,
        misses == [0.0, 0.0, 19.0] && unrestored == [false, false, true],
    );
    (rows, vec![shape])
}

/// Fig. 3: the general and the semi-fixed-priority profile of the
/// evaluation task alone.
fn fig3() -> Vec<Row> {
    let set = paper_task_set(4);
    let ms = |span: Span| span.as_nanos() / 1_000_000;
    let profiles = [SchedulingMode::General, SchedulingMode::SemiFixed].map(|mode| {
        let profile = RemainingProfile::compute(set.task(TaskId(0)), Span::from_millis(750), mode);
        let points: Vec<[u64; 2]> = profile.points().iter().map(|&(t, r)| [ms(t), ms(r)]).collect();
        Row::new()
            .str("scheduling", format_args!("{mode:?}"))
            .raw("breakpoints_ms", format_args!("{points:?}"))
            .int("optional_window_ms", ms(profile.optional_window()))
    });
    profiles.to_vec()
}

/// Fig. 8: parts per core for 171 parts.
fn fig8() -> Vec<Row> {
    let phi = Topology::xeon_phi_3120a();
    let maps = AssignmentPolicy::PAPER_POLICIES.map(|policy| {
        let counts = policy.per_core_counts(&phi, 171);
        let row = Row::new().str("policy", policy).int("np", 171);
        row.raw("parts_per_core", format_args!("{counts:?}"))
    });
    maps.to_vec()
}

/// Achieved QoS per policy with optional parts short enough to complete
/// (400 ms), up to twice the 228 hardware threads, where parts share
/// threads and serialize.
fn ablation_qos() -> Vec<Row> {
    let phi = Topology::xeon_phi_3120a();
    let mut rows = Vec::new();
    for np in NP_SET.into_iter().chain([456]) {
        for policy in AssignmentPolicy::PAPER_POLICIES {
            let set = evaluation_task_set(np, Span::from_millis(400));
            let cfg = SystemConfig::build(set, phi, policy).expect("schedulable");
            let qos = SimExecutor::new(cfg, jobs(10)).run().qos.aggregate_ratio();
            rows.push(Row::new().int("np", np).str("policy", policy).float("qos", qos, 4));
        }
    }
    rows
}

/// Partitioning heuristics under the exact RMWP test: 16-task sets from 50
/// seeds on 8 hardware threads, by total utilization.
fn ablation_partition() -> Vec<Row> {
    let topo = Topology::quad_core_smt2();
    let mut rows = Vec::new();
    for utilization in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
        let cfg = TaskGenConfig {
            tasks: 16,
            total_utilization: utilization,
            period_min: Span::from_millis(10),
            period_max: Span::from_millis(1000),
            ..TaskGenConfig::default()
        };
        for heuristic in [
            PartitionHeuristic::FirstFitDecreasing,
            PartitionHeuristic::BestFitDecreasing,
            PartitionHeuristic::WorstFitDecreasing,
        ] {
            let placed: Vec<usize> = (0..50)
                .filter_map(|seed| Partition::compute(&generate(&cfg, seed), &topo, heuristic).ok())
                .map(|partition| partition.used_threads())
                .collect();
            rows.push(
                Row::new()
                    .float("utilization", utilization, 1)
                    .str("heuristic", heuristic)
                    .int("seeds", 50)
                    .int("ok", placed.len())
                    .int("threads_total", placed.iter().sum::<usize>()),
            );
        }
    }
    rows
}

/// §IV-B claim (i): the same task sets under the global and the
/// partitioned executor on 4 processors, 30 jobs a task, 100 µs a migration.
fn ablation_grmwp() -> (Vec<Row>, Vec<Shape>) {
    let topo = Topology::new(4, 1).expect("valid topology");
    let mut rows = Vec::new();
    let (mut p_migrations, mut per_dispatch) = (Vec::new(), Vec::new());
    for (tasks, utilization) in [(6, 1.5), (8, 2.0), (12, 2.5), (16, 3.0)] {
        let gen = TaskGenConfig {
            tasks,
            total_utilization: utilization,
            period_min: Span::from_millis(20),
            period_max: Span::from_millis(200),
            optional_parts: (0, 2),
            ..TaskGenConfig::default()
        };
        // Admission alone picks the set: neither executor is asked whether
        // it runs the set without a miss.
        let (seed, cfg) = (0..50u64)
            .find_map(|seed| {
                let cfg = SystemConfig::build(generate(&gen, seed), topo, OneByOne).ok()?;
                Some((seed, cfg))
            })
            .expect("a seed below 50 is admitted");
        let g = GlobalExecutor::from_config(&cfg, jobs(30)).run();
        let p = SimExecutor::new(cfg, jobs(30)).run();
        p_migrations.push(p.migrations as f64);
        per_dispatch.push(g.migrations as f64 / g.dispatches as f64);
        rows.push(
            Row::new()
                .int("tasks", tasks)
                .float("utilization", utilization, 1)
                .int("seed", seed)
                .int("migrations", g.migrations)
                .int("dispatches", g.dispatches)
                .int("added_ns", g.migration_overhead.as_nanos())
                .int("g_misses", g.qos.deadline_misses())
                .int("p_migrations", p.migrations)
                .int("p_misses", p.qos.deadline_misses()),
        );
    }
    let shapes = vec![
        Shape::new(
            "grmwp_p_rmwp_migrations_by_utilization",
            "0",
            &p_migrations,
            p_migrations.iter().all(|&m| m == 0.0),
        ),
        Shape::new(
            "grmwp_g_rmwp_migrations_per_dispatch_grow_with_utilization",
            "high overheads",
            &per_dispatch,
            per_dispatch[0] > 0.0 && per_dispatch.windows(2).all(|w| w[1] > w[0]),
        ),
    ];
    (rows, shapes)
}

impl PaperFigs {
    /// Runs the whole simulated evaluation.
    pub fn run() -> PaperFigs {
        let (table1, table1_shapes) = table1();
        let (grmwp, grmwp_shapes) = ablation_grmwp();
        let mut figs = PaperFigs {
            overheads: sweep(),
            arrays: vec![
                ("table1", table1),
                ("fig3", fig3()),
                ("fig8", fig8()),
                ("ablation_qos", ablation_qos()),
                ("ablation_partition", ablation_partition()),
                ("ablation_grmwp", grmwp),
            ],
            shapes: Vec::new(),
        };
        figs.shapes = overhead_shapes(&figs);
        figs.shapes.extend(table1_shapes);
        figs.shapes.extend(grmwp_shapes);
        figs
    }

    /// The grid's run at one load, policy and np.
    pub fn cell(&self, load: BackgroundLoad, policy: AssignmentPolicy, np: usize) -> &Overheads {
        let found = self.overheads.iter().find(|r| (r.load, r.policy, r.np) == (load, policy, np));
        found.expect("full grid")
    }

    /// The bin's exit path: `Err` names every shape that does not hold.
    pub fn verdict(&self) -> Result<(), String> {
        let failed: Vec<&str> = self.shapes.iter().filter(|s| !s.holds).map(|s| s.name).collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("paperfigs: FAIL — does not hold: {}", failed.join(", ")))
        }
    }

    /// The schema-1 document.
    pub fn document(&self) -> String {
        let workload = Row::new()
            .int("jobs", PAPER_JOBS)
            .int("seed", 0)
            .str("termination", TerminationMode::SigjmpTimer)
            .raw("np", format_args!("{NP_SET:?}"));
        let overheads: Vec<Row> = self
            .overheads
            .iter()
            .map(|r| {
                let [dm, db, ds, de] = r.mean.map(Span::as_nanos);
                Row::new()
                    .str("load", r.load)
                    .str("policy", r.policy)
                    .int("np", r.np)
                    .int("dm_ns", dm)
                    .int("ds_ns", ds)
                    .int("db_ns", db)
                    .int("de_ns", de)
                    .int("misses", r.misses)
            })
            .collect();
        let shapes: Vec<Row> = self
            .shapes
            .iter()
            .map(|s| {
                let row = Row::new().str("name", s.name).str("paper", s.paper);
                row.raw("measured", format_args!("{:.3?}", s.measured)).raw("holds", s.holds)
            })
            .collect();
        let mut doc = Doc::new("paperfigs", "full")
            .field("workload", workload)
            .array("overheads", &overheads);
        for (name, rows) in &self.arrays {
            doc = doc.array(name, rows);
        }
        doc.array("shapes", &shapes).finish()
    }
}

/// `BENCH_paperfigs.json`: [`PaperFigs::run`] rendered.
pub fn document() -> String {
    PaperFigs::run().document()
}
