//! Simulation executor: runs the complete RT-Seed protocol of paper Fig. 6
//! on the `rtseed-sim` discrete-event many-core substrate.
//!
//! Per job of every task the executor simulates, in order:
//!
//! 1. periodic release (`clock_nanosleep` wake-up) — costs **Δm** before
//!    the mandatory part can begin;
//! 2. preemptive SCHED_FIFO execution of the **mandatory part** on the
//!    task's pinned hardware thread;
//! 3. the `pthread_cond_signal` loop waking every parallel optional thread
//!    — **Δb**, O(npᵢ) — plus the mandatory→optional context switch
//!    **Δs**; optional parts whose signal arrives run on their
//!    policy-assigned hardware threads at NRTQ priority;
//! 4. the one-shot optional-deadline timer: at `ODᵢ`, still-active parts
//!    are terminated (per the configured
//!    [`TerminationMode`](crate::termination::TerminationMode)) and the
//!    handling — timer interrupt, `siglongjmp` restore, completion
//!    signalling — costs **Δe** before the wind-up part is released;
//! 5. preemptive execution of the **wind-up part**; the job's deadline is
//!    checked and its QoS (completed / terminated / discarded parts,
//!    achieved optional execution) recorded.
//!
//! Mandatory/wind-up parts of co-located tasks preempt lower-priority work
//! exactly per SCHED_FIFO (preempted threads resume at the head of their
//! level); equal-priority optional parts sharing a hardware thread are
//! serialized FIFO. Everything is deterministic in the run seed.
//!
//! All protocol decisions live in the shared [`Engine`](crate::engine) and
//! the event loop in the crate's one discrete-event driver, here over its
//! partitioned substrate (per-CPU ready queues, preemption, and the
//! calibrated [`OverheadModel`](rtseed_sim::OverheadModel)). This module is
//! the front-end for a closed task set: release every task at `t = 0`,
//! queue the fault plan's stall windows, step until no task is live.

use crate::config::SystemConfig;
use crate::des::Driver;
use crate::engine::Engine;
use crate::executor::{Outcome, RunConfig};

pub use crate::des::SimArena;

/// The simulation executor.
#[derive(Debug)]
pub struct SimExecutor {
    config: SystemConfig,
    run_cfg: RunConfig,
}

impl SimExecutor {
    /// Creates an executor for `config` with run parameters `run_cfg`.
    pub fn new(config: SystemConfig, run_cfg: RunConfig) -> SimExecutor {
        SimExecutor { config, run_cfg }
    }

    /// Runs the simulation to completion and returns the measurements.
    pub fn run(&self) -> Outcome {
        self.run_in(&mut SimArena::new())
    }

    /// Runs the simulation to completion reusing `arena`'s buffers.
    ///
    /// Identical in every observable to [`SimExecutor::run`]; the arena
    /// only recycles allocations across runs. The executor borrows the
    /// buffers for the duration of the run and returns them (grown, never
    /// carrying state) before producing the [`Outcome`].
    pub fn run_in(&self, arena: &mut SimArena) -> Outcome {
        let (cfg, run) = (&self.config, &self.run_cfg);
        // An engine parked in the arena is reset in place, not reallocated.
        let eng = match arena.engine.take() {
            Some(mut eng) => {
                eng.reset(cfg, run);
                eng
            }
            None => Engine::new(cfg, run),
        };
        let mut sim = Driver::partitioned_in(arena, *cfg.topology(), run, eng);
        sim.run_closed(cfg, run);
        let (out, events_processed) = sim.finish(Some(arena));
        out.into_outcome(events_processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceEvent;
    use crate::policy::AssignmentPolicy;
    use crate::termination::TerminationMode;
    use rtseed_model::{Span, TaskId, TaskSet, TaskSpec, Time, Topology};
    use rtseed_sim::{FaultPlan, FaultTarget, OverheadKind, TimerFault};

    fn paper_set(np: usize) -> TaskSet {
        let t = TaskSpec::builder("τ1")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(np, Span::from_secs(1))
            .build()
            .unwrap();
        TaskSet::new(vec![t]).unwrap()
    }

    fn executor(np: usize, policy: AssignmentPolicy, run: RunConfig) -> SimExecutor {
        let cfg =
            SystemConfig::build(paper_set(np), Topology::xeon_phi_3120a(), policy).unwrap();
        SimExecutor::new(cfg, run)
    }

    fn quick_run(np: usize, jobs: u64) -> Outcome {
        executor(
            np,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run()
    }

    #[test]
    fn paper_workload_no_misses() {
        let out = quick_run(57, 10);
        assert_eq!(out.qos.jobs(), 10);
        assert_eq!(out.qos.deadline_misses(), 0);
    }

    #[test]
    fn overrunning_parts_are_terminated_not_completed() {
        // o = 1 s but only 500 ms fit between OD and the earliest start:
        // every part is terminated.
        let out = quick_run(57, 5);
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(completed, 0);
        assert_eq!(terminated, 57 * 5);
        assert_eq!(discarded, 0);
    }

    #[test]
    fn overhead_sample_counts() {
        let jobs = 8;
        let out = quick_run(16, jobs);
        for kind in OverheadKind::ALL {
            assert_eq!(out.overheads.count(kind), jobs as usize, "{kind:?}");
        }
    }

    #[test]
    fn qos_achieved_matches_window() {
        // Parts start right after the mandatory part (~250 ms) and are
        // terminated at OD (750 ms): achieved ≈ 500 ms each (minus
        // signalling overheads).
        let out = quick_run(8, 3);
        let per_part = out.qos.achieved_total() / (8 * 3) as u64;
        assert!(
            per_part > Span::from_millis(520) && per_part < Span::from_millis(575),
            "{per_part}"
        );
    }

    #[test]
    fn short_parts_complete_early() {
        // 50 ms optional parts easily finish inside the 500 ms window.
        let t = TaskSpec::builder("τ1")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(250))
            .windup(Span::from_millis(250))
            .optional_parts(4, Span::from_millis(50))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 5,
                ..Default::default()
            },
        )
        .run();
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(completed, 20);
        assert_eq!(terminated, 0);
        assert_eq!(discarded, 0);
        assert_eq!(out.qos.deadline_misses(), 0);
        assert!((out.qos.aggregate_ratio() - 1.0).abs() < 1e-9);
        // No termination happened, so no Δe samples.
        assert_eq!(out.overheads.count(OverheadKind::EndOptional), 0);
    }

    #[test]
    fn trace_contains_full_job_lifecycle() {
        let out = quick_run(4, 1);
        let events = &out.trace;
        assert_eq!(events.count(|e| matches!(e, TraceEvent::JobReleased { .. })), 1);
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::MandatoryStarted { .. })),
            1
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::MandatoryCompleted { .. })),
            1
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::OptionalStarted { .. })),
            4
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::OptionalEnded { .. })),
            4
        );
        assert_eq!(
            events.count(|e| matches!(e, TraceEvent::WindupCompleted { .. })),
            1
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_run(32, 5);
        let b = quick_run(32, 5);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.overheads, b.overheads);
        assert_eq!(a.trace, b.trace);
        assert!(a.faults.is_clean());
    }

    #[test]
    fn arena_repeats_same_run_identically() {
        let exec = executor(
            16,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        );
        let mut arena = SimArena::new();
        let a = exec.run_in(&mut arena);
        let b = exec.run_in(&mut arena);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.events_processed, b.events_processed);
    }

    fn mandatory_fault_plan(factor: f64, jobs: rtseed_sim::JobWindow) -> FaultPlan {
        FaultPlan::new(1).with_wcet_fault(rtseed_sim::WcetFault {
            task: None,
            jobs,
            target: FaultTarget::Mandatory,
            factor,
        })
    }

    #[test]
    fn wcet_fault_without_supervisor_misses_deadlines() {
        // 5× the mandatory demand (0.75 × 250 ms × 5 = 937.5 ms) blows past
        // the optional deadline and leaves no room for the wind-up part.
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                fault_plan: mandatory_fault_plan(5.0, rtseed_sim::JobWindow::ALL),
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.deadline_misses(), 4);
        assert_eq!(out.faults.wcet_faults, 4);
        // Unsupervised: faults observed, nothing cut, nothing degraded.
        assert_eq!(out.faults.budget_cuts, 0);
        assert_eq!(out.faults.degraded_entries, 0);
    }

    #[test]
    fn supervisor_budget_cut_preserves_deadlines_under_same_fault() {
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                fault_plan: mandatory_fault_plan(5.0, rtseed_sim::JobWindow::ALL),
                supervisor: true,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        // Every mandatory part is cut at its declared budget, so the
        // analysed schedule holds: zero misses.
        assert_eq!(out.qos.deadline_misses(), 0);
        assert_eq!(out.faults.budget_cuts, 4);
        assert_eq!(out.faults.overruns_detected, 4);
        // Sustained overrun ⇒ degraded mode (entered at the 2nd cut) and
        // eventually quarantine (3rd consecutive overrun).
        assert_eq!(out.faults.degraded_entries, 1);
        assert_eq!(out.faults.quarantines, 1);
        assert_eq!(out.faults.jobs_degraded, 3, "jobs 1..=3 shed optional");
        assert_eq!(out.qos.degraded_jobs(), 3);
        assert!(out.faults.degraded_dwell > Span::ZERO);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::BudgetCut { .. })),
            4
        );
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::DegradedModeEntered)),
            1
        );
    }

    #[test]
    fn supervisor_recovers_when_the_fault_clears() {
        // Fault the first two jobs only; the remaining clean jobs must
        // bring the system back to normal mode with full QoS.
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 8,
                fault_plan: mandatory_fault_plan(5.0, rtseed_sim::JobWindow::new(0, 2)),
                supervisor: true,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.deadline_misses(), 0);
        assert_eq!(out.faults.degraded_entries, 1);
        assert!(out.faults.recovery_latency > Span::ZERO);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::DegradedModeExited)),
            1
        );
        // Post-recovery jobs deliver optional QoS again.
        let (_, terminated, discarded) = out.qos.outcome_totals();
        assert!(terminated > 0, "recovered jobs run optional parts");
        assert!(discarded > 0, "degraded jobs shed optional parts");
    }

    #[test]
    fn lost_timer_fault_breaks_one_job() {
        let plan = FaultPlan::new(0).with_timer_fault(rtseed_sim::TimerFaultSpec {
            task: None,
            jobs: rtseed_sim::JobWindow::new(0, 1),
            fault: TimerFault::Lost,
        });
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 3,
                fault_plan: plan,
                ..Default::default()
            },
        )
        .run();
        // Job 0's parts (o = 1 s) run unchecked until the next release
        // aborts the job; jobs 1–2 are healthy.
        assert_eq!(out.qos.deadline_misses(), 1);
        assert_eq!(out.faults.timer_faults, 1);
    }

    #[test]
    fn delayed_timer_extends_optional_window() {
        let delayed = |d_ms| {
            executor(
                2,
                AssignmentPolicy::OneByOne,
                RunConfig {
                    jobs: 2,
                    fault_plan: FaultPlan::new(0).with_timer_fault(
                        rtseed_sim::TimerFaultSpec {
                            task: None,
                            jobs: rtseed_sim::JobWindow::ALL,
                            fault: TimerFault::Delay(Span::from_millis(d_ms)),
                        },
                    ),
                    ..Default::default()
                },
            )
            .run()
        };
        let on_time = quick_run(2, 2);
        let late = delayed(30);
        // Parts keep executing during the latency spike...
        assert!(late.qos.achieved_total() > on_time.qos.achieved_total());
        // ...and a 30 ms spike fits inside the wind-up slack
        // (1000 − 750 − 187.5 ≈ 62 ms), so deadlines still hold.
        assert_eq!(late.qos.deadline_misses(), 0);
        assert_eq!(late.faults.timer_faults, 2);
        // A spike larger than the slack pushes the wind-up past the
        // deadline.
        assert_eq!(delayed(100).qos.deadline_misses(), 2);
    }

    #[test]
    fn cpu_stall_starves_the_pinned_mandatory_thread() {
        let plan = FaultPlan::new(0).with_cpu_stall(rtseed_sim::CpuStall {
            hw: 0,
            at: Time::ZERO,
            duration: Span::from_millis(900),
        });
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 3,
                fault_plan: plan,
                trace: crate::obs::TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run();
        // Job 0 cannot start its mandatory part until 900 ms and is aborted
        // by the next release; later jobs are healthy.
        assert_eq!(out.qos.deadline_misses(), 1);
        assert_eq!(out.faults.cpu_stalls, 1);
        assert_eq!(
            out.trace
                .count(|e| matches!(e, TraceEvent::CpuStallStarted { .. })),
            1
        );
    }

    #[test]
    fn faulted_run_replays_bit_identically() {
        let run = || {
            executor(
                8,
                AssignmentPolicy::OneByOne,
                RunConfig {
                    jobs: 6,
                    fault_plan: FaultPlan::new(99)
                        .with_random_overruns(rtseed_sim::RandomOverruns {
                            probability: 0.4,
                            min_factor: 2.0,
                            max_factor: 6.0,
                            target: FaultTarget::Mandatory,
                        })
                        .with_cpu_stall(rtseed_sim::CpuStall {
                            hw: 1,
                            at: Time::from_nanos(2_300_000_000),
                            duration: Span::from_millis(40),
                        }),
                    supervisor: true,
                    trace: crate::obs::TraceConfig::enabled(),
                    ..Default::default()
                },
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.is_clean());
    }

    #[test]
    fn zero_jobs_is_empty_run() {
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 0,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 0);
    }

    #[test]
    fn plain_liu_layland_task_runs() {
        let t = TaskSpec::builder("plain")
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(30))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 10,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 10);
        assert_eq!(out.qos.deadline_misses(), 0);
        assert!((out.qos.aggregate_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_colocated_tasks_interfere_but_meet_deadlines() {
        let mk = |name: &str, period_ms: u64| {
            TaskSpec::builder(name)
                .period(Span::from_millis(period_ms))
                .mandatory(Span::from_millis(10))
                .windup(Span::from_millis(10))
                .optional_parts(2, Span::from_millis(period_ms))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![mk("fast", 100), mk("slow", 400)]).unwrap();
        let cfg =
            SystemConfig::build(set, Topology::uniprocessor(), AssignmentPolicy::OneByOne)
                .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 8,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.jobs(), 16);
        assert_eq!(out.qos.deadline_misses(), 0);
    }

    #[test]
    fn periodic_check_delays_windup_but_gains_qos() {
        let sig = executor(
            8,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 5,
                ..Default::default()
            },
        )
        .run();
        let pc = executor(
            8,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 5,
                termination: TerminationMode::PeriodicCheck {
                    interval: Span::from_millis(40),
                },
                ..Default::default()
            },
        )
        .run();
        // The cooperative mode keeps running until the next checkpoint:
        // more achieved optional execution, larger Δe (lag included).
        assert!(pc.qos.achieved_total() > sig.qos.achieved_total());
        assert!(
            pc.overheads.mean(OverheadKind::EndOptional)
                > sig.overheads.mean(OverheadKind::EndOptional)
        );
        // With a 40 ms interval and 250 ms of wind-up slack, deadlines
        // still hold.
        assert_eq!(pc.qos.deadline_misses(), 0);
    }

    #[test]
    fn unwind_defect_breaks_later_jobs() {
        // Table I: try-catch does not restore the signal mask; after the
        // first job, optional-deadline timers never fire, parts run to
        // completion (1 s each!) and wind-up parts miss deadlines.
        let out = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                termination: TerminationMode::UnwindCatch,
                ..Default::default()
            },
        )
        .run();
        assert!(
            out.qos.deadline_misses() >= 2,
            "expected later jobs to miss deadlines, got {}",
            out.qos.deadline_misses()
        );
        // The healthy mechanism has zero misses on the same workload.
        let healthy = executor(
            4,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 4,
                termination: TerminationMode::SigjmpTimer,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(healthy.qos.deadline_misses(), 0);
    }

    #[test]
    fn mandatory_overrunning_od_discards_all_parts() {
        // m = 950 ms WCET with rt_exec_fraction = 1.0 completes exactly at
        // OD = D − w = 950 ms: no time remains, every part is discarded
        // and the wind-up part runs right after the mandatory part (§II-B).
        let t = TaskSpec::builder("late")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(950))
            .windup(Span::from_millis(50))
            .optional_parts(4, Span::from_millis(100))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::xeon_phi_3120a(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let zero_dm = rtseed_sim::Calibration {
            begin_mandatory_ns: 0,
            jitter: 0.0,
            ..rtseed_sim::Calibration::default()
        };
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 3,
                rt_exec_fraction: 1.0,
                calibration: zero_dm,
                ..Default::default()
            },
        )
        .run();
        let (completed, terminated, discarded) = out.qos.outcome_totals();
        assert_eq!(discarded, 12, "c/t = {completed}/{terminated}");
        assert_eq!(completed + terminated, 0);
        // The wind-up still fits: 950 + 50 = 1000 = D.
        assert_eq!(out.qos.deadline_misses(), 0);
        // No signalling happened, so no Δb/Δs/Δe samples.
        assert_eq!(out.overheads.count(OverheadKind::BeginOptional), 0);
        assert_eq!(out.overheads.count(OverheadKind::EndOptional), 0);
    }

    #[test]
    fn rt_parts_preempt_optional_parts_on_shared_thread() {
        // Task A (higher RM rank by insertion-order tie) shares the single
        // hw thread with task B: B's optional window is squeezed by A's
        // mandatory part and bounded by B's interference-shrunk OD.
        let a = TaskSpec::builder("a")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(200))
            .windup(Span::from_millis(200))
            .optional_parts(1, Span::from_millis(1))
            .build()
            .unwrap();
        let b = TaskSpec::builder("b")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(50))
            .windup(Span::from_millis(50))
            .optional_parts(1, Span::from_secs(1))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![a, b]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        // B's wind-up response under A's interference: R = 50 + 400 = 450,
        // so OD_B = 550 ms.
        assert_eq!(cfg.optional_deadline(TaskId(1)), Span::from_millis(550));
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 2,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.qos.deadline_misses(), 0);
        // Per job: A's mandatory runs 0–150 ms (0.75 × 200), B's mandatory
        // 150–187.5, B's optional then runs until OD_B = 550, minus A's
        // tiny optional part: ≈ 360 ms. Two jobs ⇒ ≈ 720 ms total.
        let achieved = out.qos.achieved_total();
        assert!(
            achieved > Span::from_millis(2 * 320) && achieved < Span::from_millis(2 * 380),
            "preempted optional window should be ≈ 360 ms/job: {achieved}"
        );
    }

    #[test]
    fn shared_hw_thread_serializes_optional_parts() {
        // 8 optional parts on a uniprocessor: all run (serialized) on the
        // single hardware thread; total achieved is bounded by the OD
        // window, far below 8 × window.
        let t = TaskSpec::builder("uni")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(100))
            .windup(Span::from_millis(100))
            .optional_parts(8, Span::from_secs(1))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![t]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let out = SimExecutor::new(
            cfg,
            RunConfig {
                jobs: 2,
                ..Default::default()
            },
        )
        .run();
        // OD = 900 ms, mandatory done ~75 ms (0.75 × 100 ms WCET):
        // ~825 ms of serialized optional execution per job.
        let per_job = out.qos.achieved_total() / 2;
        assert!(
            per_job > Span::from_millis(780) && per_job < Span::from_millis(830),
            "{per_job}"
        );
        assert_eq!(out.qos.deadline_misses(), 0);
    }
}
