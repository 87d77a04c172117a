//! Acceptance tests for the fault-injection + overload-resilience layer:
//! seeded overload scenarios with and without the supervisor, replay
//! determinism of a full chaos plan, and a table-driven Table I
//! comparison of the termination mechanisms under a fault plan.

use rtseed::config::SystemConfig;
use rtseed::exec_sim::SimExecutor;
use rtseed::executor::{Outcome, RunConfig};
use rtseed::obs::TraceConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed::termination::TerminationMode;
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};
use rtseed_sim::{
    CpuStall, FaultPlan, FaultTarget, JobWindow, RandomOverruns, TimerFault,
    TimerFaultSpec, WcetFault,
};

/// The paper's evaluation task: T = 1 s, m = w = 250 ms, `np` optional
/// parts of 1 s each (they always overrun and are terminated at OD).
fn paper_config(np: usize) -> SystemConfig {
    let t = TaskSpec::builder("trader")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(np, Span::from_secs(1))
        .build()
        .unwrap();
    SystemConfig::build(
        TaskSet::new(vec![t]).unwrap(),
        Topology::xeon_phi_3120a(),
        AssignmentPolicy::OneByOne,
    )
    .unwrap()
}

fn run(np: usize, run_cfg: RunConfig) -> Outcome {
    SimExecutor::new(paper_config(np), run_cfg).run()
}

/// A two-job overload episode: 5× the declared mandatory WCET on jobs 1
/// and 2 of 8 (0.75 × 250 ms × 5 = 937.5 ms of demand — past the optional
/// deadline, leaving no room for the wind-up part).
fn overload_plan() -> FaultPlan {
    FaultPlan::new(7).with_wcet_fault(WcetFault {
        task: None,
        jobs: JobWindow { from: 1, until: 3 },
        target: FaultTarget::Mandatory,
        factor: 5.0,
    })
}

#[test]
fn acceptance_overload_without_supervisor_misses_deadlines() {
    let out = run(
        4,
        RunConfig {
            jobs: 8,
            fault_plan: overload_plan(),
            ..Default::default()
        },
    );
    assert!(
        out.qos.deadline_misses() > 0,
        "unsupervised overload must miss mandatory/wind-up deadlines, got {}",
        out.qos
    );
    // The injection is recorded, but nothing was supervised away.
    assert_eq!(out.faults.wcet_faults, 2, "{}", out.faults);
    assert_eq!(out.faults.budget_cuts, 0);
    assert_eq!(out.faults.degraded_entries, 0);
}

#[test]
fn acceptance_degraded_mode_saves_deadlines_and_recovers() {
    let out = run(
        4,
        RunConfig {
            jobs: 8,
            fault_plan: overload_plan(),
            supervisor: true,
            ..Default::default()
        },
    );
    // Degraded mode (mandatory + wind-up only) keeps every deadline.
    assert_eq!(
        out.qos.deadline_misses(),
        0,
        "supervised overload must not miss: {}",
        out.qos
    );
    // The report records the degradation episode and the recovery.
    let f = &out.faults;
    assert_eq!(f.wcet_faults, 2, "{f}");
    assert!(f.budget_cuts >= 2, "{f}");
    assert!(f.degraded_entries >= 1, "{f}");
    assert!(f.jobs_degraded >= 1, "{f}");
    assert!(f.degraded_dwell > Span::ZERO, "{f}");
    assert!(f.recovery_latency > Span::ZERO, "{f}");
    // Recovery happened: the run did not end degraded (dwell is bounded
    // by the episode, well under the full horizon).
    assert!(f.degraded_dwell < Span::from_secs(8), "{f}");
    // QoS knows which jobs ran without their optional parts.
    assert_eq!(out.qos.degraded_jobs(), f.jobs_degraded, "{}", out.qos);
}

/// The full chaos plan: random mandatory overruns, a delayed and a lost
/// timer, and a CPU stall — under an armed supervisor.
fn chaos_cfg(seed: u64) -> RunConfig {
    RunConfig {
        jobs: 10,
        trace: TraceConfig::enabled(),
        fault_plan: FaultPlan::new(seed)
            .with_random_overruns(RandomOverruns {
                probability: 0.3,
                min_factor: 1.5,
                max_factor: 6.0,
                target: FaultTarget::Mandatory,
            })
            .with_timer_fault(TimerFaultSpec {
                task: None,
                jobs: JobWindow { from: 2, until: 3 },
                fault: TimerFault::Delay(Span::from_millis(20)),
            })
            .with_timer_fault(TimerFaultSpec {
                task: None,
                jobs: JobWindow { from: 5, until: 6 },
                fault: TimerFault::Lost,
            })
            .with_cpu_stall(CpuStall {
                hw: 1,
                at: rtseed_model::Time::ZERO + Span::from_millis(7300),
                duration: Span::from_millis(400),
            }),
        supervisor: true,
        ..Default::default()
    }
}

#[test]
fn acceptance_same_fault_seed_replays_identical_trace() {
    let a = run(8, chaos_cfg(42));
    let b = run(8, chaos_cfg(42));
    assert_eq!(a.trace, b.trace, "same seed must replay bit-identically");
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.overheads, b.overheads);
    // The plan actually did something (this is not a vacuous replay).
    assert!(a.faults.wcet_faults > 0, "{}", a.faults);
    assert_eq!(a.faults.timer_faults, 2, "{}", a.faults);
    assert_eq!(a.faults.cpu_stalls, 1, "{}", a.faults);

    // A different seed perturbs the run (the random overruns move).
    let c = run(8, chaos_cfg(43));
    assert_ne!(a.trace, c.trace, "different seed must diverge");
}

/// Regression: the global executor used to silently drop FaultPlan CPU
/// stalls (its event loop never scheduled them), so "faulted" global runs
/// were actually clean. Stalls now flow through the shared protocol
/// engine on every backend: the same plan must register on both, and on a
/// uniprocessor — where global dispatch cannot migrate around the stall —
/// it must starve the task into a deadline miss.
#[test]
fn acceptance_global_backend_models_cpu_stalls() {
    use rtseed::exec_global::GlobalExecutor;
    use rtseed::obs::TraceEvent;

    let t = TaskSpec::builder("t")
        .period(Span::from_millis(100))
        .mandatory(Span::from_millis(10))
        .windup(Span::from_millis(10))
        .build()
        .unwrap();
    let cfg = SystemConfig::build(
        TaskSet::new(vec![t]).unwrap(),
        Topology::new(1, 1).unwrap(),
        AssignmentPolicy::OneByOne,
    )
    .unwrap();
    let run_cfg = || RunConfig {
        jobs: 3,
        trace: TraceConfig::enabled(),
        fault_plan: FaultPlan::new(0).with_cpu_stall(CpuStall {
            hw: 0,
            at: rtseed_model::Time::ZERO,
            duration: Span::from_millis(95),
        }),
        ..Default::default()
    };
    let global = GlobalExecutor::from_config(&cfg, run_cfg()).run();
    let sim = SimExecutor::new(cfg.clone(), run_cfg()).run();
    for (name, out) in [("global", &global), ("sim", &sim)] {
        assert_eq!(out.faults.cpu_stalls, 1, "{name}: {}", out.faults);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::CpuStallStarted { .. })),
            1,
            "{name}"
        );
        assert_eq!(
            out.qos.deadline_misses(),
            1,
            "{name}: job 0 starves through the 95 ms stall: {}",
            out.qos
        );
    }
}

#[test]
fn table1_termination_modes_miss_counts_under_fault_plan() {
    // Every job's optional-deadline timer fires 30 ms late — within the
    // wind-up slack for an any-time mechanism. Table I's consequences,
    // measured as mandatory/wind-up deadline misses over 4 jobs:
    //
    // * sigsetjmp/siglongjmp terminates at the (late) timer and re-arms
    //   it every job: no misses;
    // * periodic check adds checkpoint lag on top of the delay — with a
    //   250 ms interval the next checkpoint after the (late) OD lands past
    //   the wind-up slack, so every job misses;
    // * try-catch terminates job 0 but never restores the signal mask, so
    //   jobs 1.. run their optional parts unchecked and miss.
    let plan = || {
        FaultPlan::new(3).with_timer_fault(TimerFaultSpec {
            task: None,
            jobs: JobWindow::ALL,
            fault: TimerFault::Delay(Span::from_millis(30)),
        })
    };
    let cases: [(TerminationMode, u64); 3] = [
        (TerminationMode::SigjmpTimer, 0),
        (
            TerminationMode::PeriodicCheck {
                interval: Span::from_millis(250),
            },
            4,
        ),
        (TerminationMode::UnwindCatch, 3),
    ];
    for (mode, expected_misses) in cases {
        let out = run(
            4,
            RunConfig {
                jobs: 4,
                termination: mode,
                fault_plan: plan(),
                ..Default::default()
            },
        );
        assert_eq!(
            out.qos.deadline_misses(),
            expected_misses,
            "{mode}: expected {expected_misses} misses, got {}",
            out.qos
        );
        // The injection itself is mode-independent.
        assert_eq!(out.faults.timer_faults, 4, "{mode}: {}", out.faults);
    }
}
