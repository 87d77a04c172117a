//! Property tests for the shared P-RMWP engine: cross-backend
//! differential equivalence (the refactor's acceptance property — sim and
//! global are thin drivers over one state machine, so on a substrate
//! where their mechanisms coincide they must agree), and stale-event
//! robustness of the engine's guard conditions.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rtseed::engine::{AfterMandatory, Cursor, Engine, OdAction, WindupCommand};
use rtseed::prelude::*;
use rtseed_model::{TaskId, Time};
use rtseed_sim::{Calibration, FaultTarget, JobWindow, WcetFault};

/// A calibration whose every sampled overhead is exactly zero (all bases
/// zero, no jitter) — the substrate difference between sim (overhead
/// model) and global (costless) vanishes.
fn zero_overheads() -> Calibration {
    Calibration {
        begin_mandatory_ns: 0,
        signal_ns: 0,
        switch_ns: 0,
        switch_per_part_ns: 0,
        switch_surge_ns: 0,
        switch_loaded_cpu_ns: 0,
        switch_loaded_mem_ns: 0,
        end_part_ns: 0,
        end_cross_core_ns: 0,
        jitter: 0.0,
        ..Calibration::default()
    }
}

/// (period, mandatory, windup, np, optional span), all in milliseconds.
type TaskTuple = (u64, u64, u64, usize, u64);

fn build_config(tasks: &[TaskTuple], topo: Topology) -> Option<SystemConfig> {
    let specs = tasks
        .iter()
        .enumerate()
        .map(|(i, &(t, m, w, np, o))| {
            let mut b = TaskSpec::builder(format!("t{i}"));
            b.period(Span::from_millis(t))
                .mandatory(Span::from_millis(m))
                .windup(Span::from_millis(w));
            if np > 0 {
                b.optional_parts(np, Span::from_millis(o));
            }
            b.build().ok()
        })
        .collect::<Option<Vec<_>>>()?;
    SystemConfig::build(TaskSet::new(specs).ok()?, topo, AssignmentPolicy::OneByOne).ok()
}

fn task_strategy() -> impl Strategy<Value = TaskTuple> {
    (40u64..200, 1u64..12, 1u64..12, 0usize..4, 1u64..250)
}

/// Deterministic anchor for the differential property below: a known-good
/// two-task workload (one with overrunning parts, one with completing
/// parts) must build, run on both backends, and agree — guarding against
/// the property passing vacuously because every drawn config is rejected.
#[test]
fn differential_fixed_workload_agrees() {
    let cfg = build_config(
        &[(100, 10, 10, 2, 100), (150, 5, 5, 1, 2)],
        Topology::uniprocessor(),
    )
    .expect("fixed workload must build");
    let run = RunConfig {
        jobs: 5,
        calibration: zero_overheads(),
        ..RunConfig::default()
    };
    let sim = SimExecutor::new(cfg.clone(), run.clone()).run();
    let global = GlobalExecutor::from_config(&cfg, run).run();
    assert_eq!(sim.qos, global.qos, "sim {} vs global {}", sim.qos, global.qos);
    let (c, t, d) = sim.qos.outcome_totals();
    assert!(c > 0 && t > 0, "exercise both outcomes: c/t/d = {c}/{t}/{d}");
    assert_eq!(sim.qos.jobs(), 10);
}

/// An optional part ends at its job's OD at the latest, also when the OD
/// timer fires before the part's Δb-signalled `Ready` lands: 100 parts
/// signalled one by one on 4×2 take longer than the 0.1 ms between the
/// mandatory part's end (4 ms) and the OD (4.1 ms). A part the timer
/// ended must not be queued when its signal arrives, on either driver.
#[test]
fn no_optional_part_starts_after_it_ended() {
    let task = TaskSpec::builder("t0")
        .period(Span::from_millis(10))
        .mandatory(Span::from_millis(4))
        .windup(Span::from_micros(5_900))
        .optional_parts(100, Span::from_millis(10))
        .build()
        .unwrap();
    let cfg = SystemConfig::build(
        TaskSet::new(vec![task]).unwrap(),
        Topology::new(4, 2).unwrap(),
        AssignmentPolicy::OneByOne,
    )
    .expect("the task fits 4×2");
    let run = RunConfig {
        jobs: 4,
        trace: TraceConfig::enabled(),
        ..RunConfig::default()
    };
    let sim = SimExecutor::new(cfg.clone(), run.clone()).run();
    let global = GlobalExecutor::from_config(&cfg, run).run();
    for (driver, out) in [("sim", sim), ("global", global)] {
        assert_eq!(out.trace.dropped(), 0, "{driver}: the whole run is traced");
        let mut started = BTreeSet::new();
        let mut ended = BTreeSet::new();
        for (at, event) in out.trace.events() {
            match event {
                TraceEvent::OptionalStarted { job, part, .. } => {
                    assert!(
                        !ended.contains(&(job.seq, part.0)),
                        "{driver}: {job} part {} started at {at}, after it ended",
                        part.0
                    );
                    started.insert((job.seq, part.0));
                }
                TraceEvent::OptionalEnded { job, part, .. } => {
                    assert!(
                        ended.insert((job.seq, part.0)),
                        "{driver}: {job} part {} ended twice",
                        part.0
                    );
                }
                _ => {}
            }
        }
        assert_eq!(ended.len(), 400, "{driver}: every part of every job ends");
        assert!(
            ended.difference(&started).next().is_some(),
            "{driver}: some part ends before its signal lands (the case under test)"
        );
    }
}

/// A task with no job to run is never live, whichever constructor put it
/// into the engine: a closed set is N additions to an empty engine, and
/// the addition decides liveness.
#[test]
fn zero_job_quota_leaves_no_task_live() {
    let cfg = build_config(
        &[(100, 10, 10, 2, 100), (150, 5, 5, 1, 2)],
        Topology::uniprocessor(),
    )
    .expect("fixed workload must build");
    let idle = RunConfig { jobs: 0, ..RunConfig::default() };
    let busy = RunConfig { jobs: 2, ..RunConfig::default() };

    let mut eng = Engine::new(&cfg, &idle);
    assert_eq!(eng.task_count(), 2);
    assert!(!eng.has_live_tasks(), "fresh closed set, no quota");
    eng.reset(&cfg, &busy);
    assert!(eng.has_live_tasks());
    eng.reset(&cfg, &idle);
    assert!(!eng.has_live_tasks(), "recycled closed set, no quota");
    assert!(!Engine::single_task(&cfg, TaskId(1), &idle).has_live_tasks());
}

/// The native runtime's per-thread engine leaves fault injection and the
/// supervisor to the simulator, whatever the run carries: under a ×10
/// mandatory overrun on every job and an armed supervisor it injects
/// nothing and cuts nothing.
#[test]
fn single_task_engine_ignores_the_runs_fault_plan_and_supervisor() {
    let cfg = build_config(&[(100, 10, 10, 0, 0)], Topology::uniprocessor())
        .expect("fixed workload must build");
    let run = RunConfig {
        jobs: 1,
        rt_exec_fraction: 1.0,
        trace: TraceConfig::enabled(),
        fault_plan: FaultPlan::new(1).with_wcet_fault(WcetFault {
            task: None,
            jobs: JobWindow::ALL,
            target: FaultTarget::Mandatory,
            factor: 10.0,
        }),
        supervisor: true,
        ..RunConfig::default()
    };
    let ms = Span::from_millis;
    let at = |v: u64| Time::ZERO + ms(v);

    // The closed-set engine under the same run does both: 100 ms of
    // demand, clipped to the 10 ms budget (the declared WCET) and cut when
    // that is spent.
    let mut sim = Engine::new(&cfg, &run);
    sim.release(0, Time::ZERO);
    assert_eq!(sim.on_dispatch(0, Cursor::Mandatory, 0, Time::ZERO), ms(10));
    sim.bank(0, Cursor::Mandatory, ms(10));
    sim.cut_if_over_budget(0, Cursor::Mandatory, at(10));
    let faults = sim.finish(at(10)).faults;
    assert_eq!((faults.wcet_faults, faults.budget_cuts), (1, 1));

    let mut eng = Engine::single_task(&cfg, TaskId(0), &run);
    eng.release(0, Time::ZERO);
    assert_eq!(eng.on_dispatch(0, Cursor::Mandatory, 0, Time::ZERO), ms(10));
    eng.bank(0, Cursor::Mandatory, ms(5));
    eng.cut_if_over_budget(0, Cursor::Mandatory, at(5));
    assert_eq!(eng.on_dispatch(0, Cursor::Mandatory, 0, at(5)), ms(5));
    let out = eng.finish(at(5));
    assert!(out.faults.is_clean(), "{:?}", out.faults);
    assert_eq!(
        out.trace.count(|e| matches!(
            e,
            TraceEvent::WcetFaultInjected { .. } | TraceEvent::BudgetCut { .. }
        )),
        0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a uniprocessor with zero modelled overheads and no faults, the
    /// partitioned simulator and the global ablation run the *same*
    /// schedule: one CPU leaves global dispatch nothing to decide, and a
    /// zeroed overhead model erases the substrate difference. Everything
    /// protocol-level — QoS ratios, per-part outcomes, deadline misses —
    /// comes from the one shared engine and must agree exactly.
    #[test]
    fn differential_sim_equals_global_on_uniprocessor(
        tasks in proptest::collection::vec(task_strategy(), 1..3),
        jobs in 1u64..5,
        seed in 0u64..1000,
    ) {
        let Some(cfg) = build_config(&tasks, Topology::uniprocessor()) else {
            // Unschedulable or invalid parameter draw: nothing to compare.
            return Ok(());
        };
        let run = RunConfig {
            jobs,
            seed,
            calibration: zero_overheads(),
            ..RunConfig::default()
        };
        let sim = SimExecutor::new(cfg.clone(), run.clone()).run();
        let global = GlobalExecutor::from_config(&cfg, run).run();
        prop_assert_eq!(&sim.qos, &global.qos, "sim {} vs global {}", sim.qos, global.qos);
        prop_assert_eq!(sim.qos.deadline_misses(), global.qos.deadline_misses());
        prop_assert_eq!(sim.qos.outcome_totals(), global.qos.outcome_totals());
        prop_assert_eq!(global.migrations, 0, "one CPU cannot migrate");
    }

    /// QoS is counted exactly once per job and banking never exceeds
    /// demand, whatever seq-plausible order the driver feeds the engine.
    /// Drives one task through its whole job quota with a chaos stream
    /// deciding, per stage: stale/duplicate pokes, wildly inflated banked
    /// slices (far beyond any declared WCET), parts that complete early,
    /// parts preempted with banked time, and parts left to OD
    /// termination. Invariants at the end:
    ///
    /// * `qos.jobs()` equals the quota — no job is recorded twice, none
    ///   is lost;
    /// * every job accounts for exactly `np` part outcomes;
    /// * total achieved optional execution never exceeds total requested,
    ///   even though the banked slices did.
    #[test]
    fn engine_counts_qos_once_and_caps_banking_at_demand(
        (period, m, w, np, o) in task_strategy(),
        jobs in 1u64..4,
        chaos in proptest::collection::vec(any::<u8>(), 1..32),
        overbank_ms in 1u64..1_000,
    ) {
        let Some(cfg) = build_config(&[(period, m, w, np, o)], Topology::uniprocessor())
        else {
            return Ok(());
        };
        let run = RunConfig { jobs, ..RunConfig::default() };
        let mut eng = Engine::new(&cfg, &run);
        let overbank = Span::from_millis(overbank_ms);
        let mut chaos = chaos.into_iter().cycle();
        let mut release_at = Time::ZERO;
        let mut last = Time::ZERO;

        for done_jobs in 0..jobs {
            let rel = eng.release(0, release_at);
            let stale = rel.seq + 5;
            prop_assert!(matches!(eng.od_expired(0, stale, release_at), OdAction::Stale));
            prop_assert!(!eng.windup_ready(0, stale, release_at));

            eng.on_dispatch(0, Cursor::Mandatory, eng.mandatory_hw(0), release_at);
            if chaos.next().unwrap_or(0) & 1 == 1 {
                // Preempt with an absurd banked slice, then resume: the
                // supervisor may cut the budget, never corrupt the count.
                eng.bank(0, Cursor::Mandatory, overbank);
                eng.cut_if_over_budget(0, Cursor::Mandatory, release_at);
                eng.on_dispatch(0, Cursor::Mandatory, eng.mandatory_hw(0), release_at);
            }
            let done = (release_at + Span::from_millis(1)).min(eng.od_time(0));

            let wind = match eng.mandatory_completed(0, done) {
                AfterMandatory::Signal { np: signalled } => {
                    let mut wind = None;
                    for k in 0..signalled {
                        eng.on_dispatch(0, Cursor::Optional(k as u32), eng.placement(0, k), done);
                        match chaos.next().unwrap_or(0) % 3 {
                            0 => {
                                // Runs to completion before the OD.
                                if let Some(cmd) = eng.optional_completed(0, k as u32, done) {
                                    wind = Some(cmd);
                                }
                            }
                            1 => {
                                // Preempted; the banked slice dwarfs o_k.
                                eng.bank(0, Cursor::Optional(k as u32), overbank);
                            }
                            _ => {} // left running until the OD fires
                        }
                    }
                    if wind.is_none() {
                        let od = eng.od_time(0);
                        match eng.od_expired(0, rel.seq, od) {
                            OdAction::Terminate { np: to_stop } => {
                                for k in 0..to_stop {
                                    if eng.plan_terminate(0, k).is_some() {
                                        eng.commit_terminate(0, k, od);
                                    }
                                }
                                wind = Some(eng.finish_termination(0, od));
                            }
                            OdAction::Stale | OdAction::Handled => {}
                        }
                    }
                    wind
                }
                AfterMandatory::Windup(cmd) => Some(cmd),
            };

            match wind {
                Some(WindupCommand::At { at, seq }) => {
                    prop_assert_eq!(seq, rel.seq);
                    prop_assert!(!eng.windup_ready(0, stale, at));
                    prop_assert!(eng.windup_ready(0, seq, at));
                    prop_assert!(!eng.windup_ready(0, seq, at), "duplicate wake-up absorbed");
                    eng.on_dispatch(0, Cursor::Windup, eng.mandatory_hw(0), at);
                    if chaos.next().unwrap_or(0) & 1 == 1 {
                        eng.bank(0, Cursor::Windup, overbank);
                        eng.cut_if_over_budget(0, Cursor::Windup, at);
                    }
                    last = at + Span::from_millis(w);
                    eng.windup_completed(0, last);
                }
                Some(WindupCommand::Finished { .. }) | None => last = done,
                Some(WindupCommand::AlreadyScheduled) => {
                    prop_assert!(false, "manual driving never leaves a wind-up scheduled");
                }
            }

            prop_assert!(!eng.job_in_flight(0));
            prop_assert_eq!(eng.jobs_done(0), done_jobs + 1);
            // Everything after the job closes bounces off the guards.
            prop_assert!(matches!(eng.od_expired(0, rel.seq, last), OdAction::Stale));
            prop_assert!(!eng.windup_ready(0, rel.seq, last));

            let Some(next) = rel.next_release else { break };
            release_at = next;
        }

        prop_assert!(!eng.has_live_tasks());
        let out = eng.finish(last.max(release_at));
        prop_assert_eq!(out.qos.jobs(), jobs, "each job recorded exactly once");
        let (c, t, d) = out.qos.outcome_totals();
        prop_assert_eq!(c + t + d, jobs * np as u64, "every part has exactly one outcome");
        prop_assert!(
            out.qos.achieved_total() <= out.qos.requested_total(),
            "achieved {:?} must not exceed requested {:?}",
            out.qos.achieved_total(),
            out.qos.requested_total()
        );
    }

    /// The engine's guard conditions reject everything stale: OD expiries
    /// and wind-up wake-ups carrying an old job's sequence number, and
    /// duplicates of events already handled. Drives the engine directly
    /// through one full job, poking stale inputs at every stage.
    #[test]
    fn engine_rejects_stale_and_duplicate_events(
        (period, m, w, np, o) in task_strategy(),
        stale_seq_offset in 1u64..10,
    ) {
        let Some(cfg) = build_config(&[(period, m, w, np, o)], Topology::uniprocessor())
        else {
            return Ok(());
        };
        let run = RunConfig { jobs: 2, ..RunConfig::default() };
        let mut eng = Engine::new(&cfg, &run);
        let ms = |v: u64| Time::ZERO + Span::from_millis(v);

        let rel = eng.release(0, Time::ZERO);
        let stale = rel.seq + stale_seq_offset;
        // Before the mandatory part even starts, nothing stale lands.
        prop_assert!(matches!(eng.od_expired(0, stale, Time::ZERO), OdAction::Stale));
        prop_assert!(!eng.windup_ready(0, stale, Time::ZERO));

        eng.on_dispatch(0, Cursor::Mandatory, eng.mandatory_hw(0), Time::ZERO);
        let done = ms(1).min(eng.od_time(0));
        match eng.mandatory_completed(0, done) {
            AfterMandatory::Signal { np: signalled } => {
                prop_assert_eq!(signalled, np);
                // A stale OD expiry between signal and the real OD is a
                // no-op; the real one terminates every part.
                prop_assert!(matches!(eng.od_expired(0, stale, done), OdAction::Stale));
                let od = eng.od_time(0);
                match eng.od_expired(0, rel.seq, od) {
                    OdAction::Terminate { np: to_stop } => {
                        prop_assert_eq!(to_stop, np);
                        for k in 0..to_stop {
                            if eng.plan_terminate(0, k).is_some() {
                                eng.commit_terminate(0, k, od);
                            }
                        }
                        match eng.finish_termination(0, od) {
                            WindupCommand::At { at, seq } => {
                                prop_assert_eq!(seq, rel.seq);
                                // Wrong sequence first, the real one, then
                                // a duplicate of the real one.
                                prop_assert!(!eng.windup_ready(0, stale, at));
                                prop_assert!(eng.windup_ready(0, rel.seq, at));
                                prop_assert!(!eng.windup_ready(0, rel.seq, at));
                                prop_assert!(eng.windup_completed(0, at + Span::from_millis(w)));
                            }
                            WindupCommand::Finished { .. } => {}
                            WindupCommand::AlreadyScheduled => {
                                prop_assert!(false, "termination cannot find a scheduled wind-up");
                            }
                        }
                    }
                    // The OD timer raced a completed job: allowed only if
                    // every part already ended, which manual driving never
                    // does here.
                    other => prop_assert!(false, "expected Terminate, got {other:?}"),
                }
            }
            AfterMandatory::Windup(WindupCommand::At { at, seq }) => {
                prop_assert_eq!(seq, rel.seq);
                prop_assert!(!eng.windup_ready(0, stale, at));
                prop_assert!(eng.windup_ready(0, rel.seq, at));
                prop_assert!(!eng.windup_ready(0, rel.seq, at));
                prop_assert!(eng.windup_completed(0, at + Span::from_millis(w)));
            }
            AfterMandatory::Windup(WindupCommand::Finished { met }) => {
                prop_assert!(met, "a 1 ms mandatory part cannot miss");
            }
            AfterMandatory::Windup(WindupCommand::AlreadyScheduled) => {
                prop_assert!(false, "first job cannot already have a wind-up");
            }
        }

        // The job is closed: every late event bounces off the guards.
        prop_assert!(!eng.job_in_flight(0));
        prop_assert_eq!(eng.jobs_done(0), 1);
        prop_assert!(matches!(
            eng.od_expired(0, rel.seq, ms(period)),
            OdAction::Stale
        ));
        prop_assert!(!eng.windup_ready(0, rel.seq, ms(period)));
    }
}
