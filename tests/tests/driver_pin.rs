//! Pins what each discrete-event front-end produces, so a change to the
//! driver loop that is meant to keep behaviour can be checked against
//! three constants.
//!
//! A seeded grid of (task set × assignment policy × placement policy ×
//! fault scenario × seed) runs through [`SimExecutor`], [`GlobalExecutor`]
//! and [`SessionManager::run_with_churn`]; per run the QoS summary, the
//! metrics histograms (the four overheads among them), the fault report,
//! the event count, the migration and dispatch counts and the JSONL trace
//! export are folded into one FNV-1a fingerprint per front-end. The grid
//! reaches every path of the loop that is easy to get wrong when handlers
//! move: a CPU stall at `t = 0`, a WCET overrun that runs into the next
//! release (retry, then abort), a lost and a delayed optional-deadline
//! timer, an armed supervisor, a split task, a federated grant, and a
//! departure while a job is in flight.

use rtseed::obs::{export, TraceConfig, TraceEvent};
use rtseed::serve::{GuardConfig, SessionManager};
use rtseed::{AssignmentPolicy, GlobalExecutor, Outcome, RunConfig, SimExecutor, SystemConfig};
use rtseed_analysis::{PartitionHeuristic, PlacementPolicy};
use rtseed_model::{Span, TaskSet, TaskSpec, TenantState, Time, Topology};
use rtseed_sim::{
    ChurnPlan, CpuStall, FaultPlan, FaultTarget, JobWindow, TimerFault, TimerFaultSpec, WcetFault,
};

const ASSIGNMENTS: [AssignmentPolicy; 3] = [
    AssignmentPolicy::OneByOne,
    AssignmentPolicy::TwoByTwo,
    AssignmentPolicy::AllByAll,
];
const SEEDS: [u64; 2] = [1, 2014];
const JOBS: u64 = 5;

fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64, np: usize, o_ms: u64) -> TaskSpec {
    let mut b = TaskSpec::builder(name);
    b.period(Span::from_millis(period_ms))
        .mandatory(Span::from_millis(m_ms))
        .windup(Span::from_millis(w_ms));
    if np > 0 {
        b.optional_parts(np, Span::from_millis(o_ms));
    }
    b.build().unwrap()
}

/// One task set of the grid: where it runs, the unit its fault and churn
/// instants scale with (its shortest period), and the tenant that leaves
/// mid-job in the serving run.
struct Shape {
    tasks: Vec<TaskSpec>,
    topology: Topology,
    unit: Span,
    leaver: &'static str,
}

fn shapes() -> Vec<Shape> {
    let two_threads = Topology::new(1, 2).unwrap();
    vec![
        // The paper's task, scaled down to 8 always-overrunning parts.
        Shape {
            tasks: vec![task("paper", 1000, 250, 250, 8, 1000)],
            topology: Topology::quad_core_smt2(),
            unit: Span::from_millis(1000),
            leaver: "paper",
        },
        // Two 0.7-utilization residents: `big` fits only as a split.
        Shape {
            tasks: vec![
                task("r0", 400, 280, 0, 0, 0),
                task("r1", 400, 280, 0, 0, 0),
                task("big", 100, 60, 0, 0, 0),
            ],
            topology: two_threads,
            unit: Span::from_millis(100),
            leaver: "big",
        },
        // `par`'s parallel phase is worth a whole core: federated grant.
        Shape {
            tasks: vec![
                task("t0", 100, 27, 28, 0, 0),
                task("t1", 100, 27, 28, 0, 0),
                task("par", 100, 30, 10, 2, 100),
            ],
            topology: two_threads,
            unit: Span::from_millis(100),
            leaver: "par",
        },
        // Co-located tasks of different rates: preemption, parts that
        // complete, parts that are terminated, parts that queue.
        Shape {
            tasks: vec![
                task("a", 40, 4, 4, 2, 6),
                task("b", 50, 5, 3, 3, 50),
                task("c", 60, 6, 6, 1, 10),
                task("d", 100, 8, 8, 3, 100),
                task("e", 200, 10, 10, 2, 30),
            ],
            topology: Topology::new(2, 2).unwrap(),
            unit: Span::from_millis(40),
            leaver: "d",
        },
    ]
}

/// Fault scenario `index` (0 is a healthy machine) for a set whose
/// shortest period is `unit`.
fn scenario(index: usize, unit: Span, seed: u64) -> (FaultPlan, bool) {
    let stalls = |plan: FaultPlan| {
        plan.with_cpu_stall(CpuStall {
            hw: 0,
            at: Time::ZERO,
            duration: unit * 9 / 10,
        })
        .with_cpu_stall(CpuStall {
            hw: 1,
            at: Time::ZERO + unit * 13 / 10,
            duration: unit / 5,
        })
    };
    // 40× the mandatory demand outlasts the period for every set: the
    // job is still in flight at its next release.
    let overruns = |plan: FaultPlan| {
        plan.with_wcet_fault(WcetFault {
            task: None,
            jobs: JobWindow::new(1, 2),
            target: FaultTarget::Mandatory,
            factor: 40.0,
        })
        .with_wcet_fault(WcetFault {
            task: None,
            jobs: JobWindow::new(3, 4),
            target: FaultTarget::Windup,
            factor: 3.0,
        })
    };
    let timers = |plan: FaultPlan| {
        plan.with_timer_fault(TimerFaultSpec {
            task: None,
            jobs: JobWindow::new(0, 1),
            fault: TimerFault::Lost,
        })
        .with_timer_fault(TimerFaultSpec {
            task: None,
            jobs: JobWindow::new(2, 3),
            fault: TimerFault::Delay(unit / 20),
        })
    };
    let plan = FaultPlan::new(seed);
    match index {
        0 => (FaultPlan::none(), false),
        1 => (stalls(plan), false),
        2 => (overruns(plan), false),
        3 => (timers(plan), false),
        _ => (timers(overruns(stalls(plan))), true),
    }
}
const SCENARIOS: usize = 5;

fn run_config(fault: usize, unit: Span, seed: u64) -> RunConfig {
    let (fault_plan, supervisor) = scenario(fault, unit, seed);
    RunConfig {
        jobs: JOBS,
        seed,
        fault_plan,
        supervisor,
        trace: TraceConfig::enabled(),
        ..RunConfig::default()
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a value through its `Debug` form, length first.
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        let s = format!("{v:?}");
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn outcome(&mut self, out: &Outcome) {
        self.debug(&out.qos);
        self.debug(&out.metrics);
        self.debug(&out.faults);
        self.word(out.events_processed);
        self.word(out.migrations);
        self.word(out.dispatches);
        self.word(out.migration_overhead.as_nanos());
        let jsonl = export::jsonl(&out.trace);
        self.word(jsonl.len() as u64);
        self.bytes(jsonl.as_bytes());
    }
}

/// What the grid must reach for the fingerprint to mean anything.
#[derive(Debug, Default)]
struct Reached {
    runs: u32,
    refused: u32,
    stalls: u64,
    misses: u64,
    timer_faults: u64,
    budget_cuts: u64,
    split_jobs: usize,
    grants: u32,
    removes: usize,
    migrations: u64,
}

impl Reached {
    fn note(&mut self, out: &Outcome) {
        self.runs += 1;
        self.stalls += out.faults.cpu_stalls;
        self.misses += out.qos.deadline_misses();
        self.timer_faults += out.faults.timer_faults;
        self.budget_cuts += out.faults.budget_cuts;
        self.split_jobs += out.trace.count(|e| matches!(e, TraceEvent::JobBound { .. }));
        self.removes += out.trace.count(|e| {
            matches!(e, TraceEvent::Queue { op: rtseed::obs::QueueOp::Remove, .. })
        });
        self.migrations += out.migrations;
    }

    fn assert_all(&self, who: &str) {
        assert!(self.runs > 0 && self.refused > 0, "{who}: {self:?}");
        assert!(self.stalls > 0 && self.misses > 0, "{who}: {self:?}");
        assert!(self.timer_faults > 0 && self.budget_cuts > 0, "{who}: {self:?}");
        assert!(self.split_jobs > 0 && self.grants > 0, "{who}: {self:?}");
        assert!(self.removes > 0, "{who}: {self:?}");
    }
}

/// Runs the offline grid through `execute` and returns its fingerprint.
fn offline_fingerprint(
    who: &str,
    execute: impl Fn(&SystemConfig, RunConfig) -> Outcome,
) -> (u64, Reached) {
    let mut fp = Fnv::new();
    let mut reached = Reached::default();
    for shape in shapes() {
        for assignment in ASSIGNMENTS {
            for placement in PlacementPolicy::ALL {
                let built = SystemConfig::build_with_placement(
                    TaskSet::new(shape.tasks.clone()).unwrap(),
                    shape.topology,
                    assignment,
                    PartitionHeuristic::FirstFitDecreasing,
                    placement,
                );
                let config = match built {
                    Ok(config) => config,
                    Err(e) => {
                        fp.debug(&e.to_string());
                        reached.refused += 1;
                        continue;
                    }
                };
                reached.grants += config
                    .set()
                    .ids()
                    .filter(|&id| config.granted_hw(id).is_some())
                    .count() as u32;
                for fault in 0..SCENARIOS {
                    for seed in SEEDS {
                        let out = execute(&config, run_config(fault, shape.unit, seed));
                        fp.outcome(&out);
                        reached.note(&out);
                    }
                }
            }
        }
    }
    reached.assert_all(who);
    (fp.0, reached)
}

/// First recorded at the commit before the three event loops became one
/// driver; recorded again when the fold read the metrics histograms in
/// place of the overhead samples, from the commit before that change.
const PINNED_SIM: u64 = 0xf9b0_8e8f_8c25_9252;
const PINNED_GLOBAL: u64 = 0x0b08_da79_0d1d_cceb;
const PINNED_SERVE: u64 = 0x0235_968d_9654_db5d;

#[test]
fn sim_executor_fingerprint_is_pinned() {
    let (fp, _) = offline_fingerprint("sim", |config, run| {
        SimExecutor::new(config.clone(), run).run()
    });
    assert_eq!(fp, PINNED_SIM, "SimExecutor output changed: {fp:#018x}");
}

#[test]
fn global_executor_fingerprint_is_pinned() {
    let (fp, reached) = offline_fingerprint("global", |config, run| {
        GlobalExecutor::from_config(config, run).run()
    });
    assert!(reached.migrations > 0, "{reached:?}");
    assert_eq!(fp, PINNED_GLOBAL, "GlobalExecutor output changed: {fp:#018x}");
}

#[test]
fn session_manager_fingerprint_is_pinned() {
    let mut fp = Fnv::new();
    let mut reached = Reached::default();
    let (mut left_mid_job, mut unknown_leavers, mut ladder_moves) = (0u32, 0u32, 0u64);
    for shape in shapes() {
        let at = |tenths: u64| Time::ZERO + shape.unit * tenths / 10;
        let late = |name: &str| {
            let mut b = TaskSpec::builder(name);
            b.period(shape.unit)
                .mandatory(shape.unit / 20)
                .windup(shape.unit / 20)
                .optional_parts(1, shape.unit / 10);
            vec![b.build().unwrap()]
        };
        // `late2` arrives on a release instant (churn goes first), the
        // leaver departs 0.3 periods into its third job, and comes back.
        let plan = ChurnPlan::new()
            .arrive(at(15), "late", late("late"))
            .depart(at(23), shape.leaver)
            .arrive(at(30), "late2", late("late2"))
            .arrive(
                at(31),
                shape.leaver,
                shape
                    .tasks
                    .iter()
                    .filter(|t| t.name() == shape.leaver)
                    .cloned()
                    .collect(),
            )
            .depart(at(38), "nobody");
        for assignment in ASSIGNMENTS {
            for placement in PlacementPolicy::ALL {
                for fault in 0..SCENARIOS {
                    for seed in SEEDS {
                        let mut mgr = SessionManager::new(
                            shape.topology,
                            PartitionHeuristic::FirstFitDecreasing,
                            assignment,
                            run_config(fault, shape.unit, seed),
                        )
                        .with_placement_policy(placement)
                        .expect("the placement policy is set before any submission");
                        if fault == SCENARIOS - 1 {
                            mgr = mgr.with_guard(GuardConfig::armed());
                        }
                        for spec in &shape.tasks {
                            let verdict = mgr.submit(spec.name(), std::slice::from_ref(spec));
                            fp.word(u64::from(verdict.is_ok()));
                            reached.refused += u32::from(verdict.is_err());
                            reached.grants += u32::from(
                                verdict.is_ok()
                                    && spec.name() == "par"
                                    && placement == PlacementPolicy::SemiFederated,
                            );
                        }
                        let out = mgr.run_with_churn(&plan);
                        fp.outcome(&out.outcome);
                        fp.debug(&out.counters);
                        for t in &out.tenants {
                            fp.debug(&(&t.name, t.state, &t.tasks, &t.qos, &t.guard));
                        }
                        reached.note(&out.outcome);
                        let leaver = out
                            .tenants
                            .iter()
                            .find(|t| t.name == shape.leaver && t.state == TenantState::Departed);
                        match leaver {
                            Some(t) if fault == 0 && t.qos.deadline_misses() > 0 => {
                                left_mid_job += 1
                            }
                            None => unknown_leavers += 1,
                            _ => {}
                        }
                        let c = out.counters;
                        ladder_moves += c.sheds + c.quarantines + c.evictions;
                    }
                }
            }
        }
    }
    reached.assert_all("serve");
    assert!(left_mid_job > 0, "no healthy run aborted the leaver's job in flight");
    assert!(unknown_leavers > 0, "every leaver was admitted");
    assert!(ladder_moves > 0, "the armed guard never moved a tenant");
    assert_eq!(fp.0, PINNED_SERVE, "SessionManager output changed: {:#018x}", fp.0);
}
