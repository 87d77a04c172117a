//! Multi-tenant serving layer: admission-controlled sessions over the
//! shared P-RMWP [`Engine`](crate::engine::Engine).
//!
//! The one-shot executors answer "run this fixed task set to completion".
//! A serving middleware instead stays up while **tenants** come and go:
//! each tenant submits a task set at runtime, the [`SessionManager`] runs
//! the online RMWP admission test
//! ([`AdmissionEngine`](rtseed_analysis::AdmissionEngine) — the same
//! response-time analysis and bin-packing heuristics as the offline
//! partitioner, with per-CPU fixpoints memoised in an
//! [`RtaCache`](rtseed_analysis::RtaCache) so each decision re-analyzes
//! only the CPUs it touches), and either
//!
//! * **admits** the tenant — binding its mandatory/wind-up threads to the
//!   hardware threads the admission chose, granting the optional deadlines
//!   the per-thread analysis computed, and shrinking co-located residents'
//!   ODs per the returned [`OdUpdate`](rtseed_analysis::OdUpdate)s — or
//! * **rejects** it outright, leaving the running system untouched: an
//!   overload submission is turned away by analysis, not discovered as a
//!   deadline miss.
//!
//! Departures evict the tenant's tasks (aborting any job in flight exactly
//! as a hard deadline miss would), free its utilization, and *grow* the
//! survivors' optional deadlines. The run-scoped overload supervisor
//! keeps working across tenants, so a misbehaving tenant degrades into
//! optional-part shedding rather than taking down its neighbours.
//!
//! The scheduling substrate is the same discrete-event driver that runs
//! under [`SimExecutor`](crate::exec_sim::SimExecutor) — one event loop,
//! per-CPU SCHED_FIFO ready queues, the deterministic event queue, and
//! the calibrated [`OverheadModel`](rtseed_sim::OverheadModel) sampled in
//! protocol order — driving the shared sans-IO engine with dynamic task
//! arrival and departure.
//!
//! ## Priorities across tenants
//!
//! The offline [`PriorityMap`](crate::PriorityMap) ranks a *closed* task
//! set. Tenants arrive one at a time, so the serving layer instead maps
//! each task's period onto a stable RTQ level by period magnitude
//! ([`mandatory_priority_for_period`]): shorter periods get strictly
//! higher levels, which agrees with the Rate Monotonic order the
//! admission test analyzes. Tasks whose periods fall into the same
//! power-of-two bucket share a level and serialize FIFO there — bounded
//! level inversion the test does not model, mirroring RT-Seed's own
//! finite RTQ band.
//!
//! ## Fault isolation
//!
//! With [`SessionManager::with_guard`] the session arms the
//! [`guard`] subsystem: the engine attributes overruns, lost OD timers,
//! and deadline misses to the offending tenant, and the guard walks
//! repeat offenders down the shed → quarantine → evict ladder while
//! well-behaved neighbours keep their analyzed bounds. The guard also
//! makes the submission path storm-safe: submissions that fail only on
//! *capacity* are parked on a bounded deferred queue
//! ([`SessionManager::submit_or_defer`]) and retried with exponential
//! backoff — and immediately whenever a departure or eviction frees
//! capacity — until a per-submission deadline expires.
//!
//! ## Admission at tenant scale
//!
//! Every admission test runs on the caller's thread through one
//! [`AdmissionEngine`](rtseed_analysis::AdmissionEngine), which re-analyzes
//! only the CPUs a decision touches. A deferred-queue admission round
//! gates, tests and settles one entry at a time, in queue order, exactly
//! as if each had just been submitted: an earlier entry's admission takes
//! capacity before a later entry is tested.
//!
//! ## Determinism
//!
//! A run is a pure function of the submissions (or the
//! [`ChurnPlan`](rtseed_sim::ChurnPlan)) and the
//! [`RunConfig`](crate::executor::RunConfig): same seed, same plan, same
//! trace — byte for byte. When events fall on the same instant they
//! apply in the order *churn, then deferred-admission retry, then
//! scheduling*.
//!
//! # Examples
//!
//! ```
//! use rtseed::serve::SessionManager;
//! use rtseed::{AssignmentPolicy, RunConfig};
//! use rtseed_analysis::PartitionHeuristic;
//! use rtseed_model::{Span, TaskSpec, Topology};
//!
//! let tenant_set = |name: &str| {
//!     vec![TaskSpec::builder(name)
//!         .period(Span::from_millis(100))
//!         .mandatory(Span::from_millis(10))
//!         .windup(Span::from_millis(10))
//!         .optional_parts(2, Span::from_millis(20))
//!         .build()
//!         .unwrap()]
//! };
//! let run = RunConfig::builder().jobs(3).build()?;
//! let mut mgr = SessionManager::new(
//!     Topology::quad_core_smt2(),
//!     PartitionHeuristic::WorstFitDecreasing,
//!     AssignmentPolicy::OneByOne,
//!     run,
//! );
//! mgr.submit("alpha", &tenant_set("α"))?;
//! mgr.submit("beta", &tenant_set("β"))?;
//! let out = mgr.run();
//! assert_eq!(out.tenants.len(), 2);
//! assert_eq!(out.outcome.qos.jobs(), 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod guard;
mod outcome;
mod session;
mod submission;

pub use guard::{GuardConfig, GuardStats, LadderRung, RejectReason, ServeError, Submission};
pub use outcome::{ServeCounters, ServeOutcome, TenantOutcome};
pub use session::{mandatory_priority_for_period, ServeArena, SessionManager};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RunConfig;
    use crate::obs::{TraceConfig, TraceEvent};
    use crate::policy::AssignmentPolicy;
    use rtseed_analysis::PartitionHeuristic;
    use rtseed_model::{Priority, Span, TaskSpec, TenantState, Time, Topology};
    use rtseed_sim::ChurnPlan;

    fn light(name: &str) -> Vec<TaskSpec> {
        vec![TaskSpec::builder(name)
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(10))
            .windup(Span::from_millis(10))
            .optional_parts(2, Span::from_millis(20))
            .build()
            .unwrap()]
    }

    /// Utilization 0.6 — at most one per hardware thread.
    fn heavy(name: &str) -> Vec<TaskSpec> {
        vec![TaskSpec::builder(name)
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(30))
            .windup(Span::from_millis(30))
            .optional_parts(1, Span::from_millis(10))
            .build()
            .unwrap()]
    }

    fn manager(jobs: u64) -> SessionManager {
        SessionManager::new(
            Topology::quad_core_smt2(),
            PartitionHeuristic::WorstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs,
                trace: TraceConfig::enabled(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn priority_mapping_is_monotone_and_in_band() {
        let mut last = Priority::RTQ_MAX.level();
        for exp in 0..12 {
            let p = mandatory_priority_for_period(Span::from_micros(100 << exp));
            assert!(p.is_mandatory_band() && !p.is_hpq(), "{p:?}");
            assert!(p.level() <= last, "longer period may not gain priority");
            last = p.level();
        }
        assert_eq!(
            mandatory_priority_for_period(Span::from_nanos(1)),
            Priority::RTQ_MAX
        );
        // Even an absurdly long period stays inside the RTQ band.
        let floor = mandatory_priority_for_period(Span::from_nanos(u64::MAX));
        assert!(floor.is_mandatory_band() && !floor.is_hpq(), "{floor:?}");
    }

    #[test]
    fn eight_tenants_served_concurrently_with_per_tenant_qos() {
        let mut mgr = manager(4);
        for i in 0..8 {
            mgr.submit(format!("tenant{i}"), &light(&format!("τ{i}")))
                .unwrap();
        }
        assert_eq!(mgr.admitted_tenants(), 8);
        let out = mgr.run();
        assert_eq!(out.counters.admissions, 8);
        assert_eq!(out.outcome.qos.jobs(), 8 * 4);
        assert_eq!(out.outcome.qos.deadline_misses(), 0);
        for i in 0..8 {
            let t = out.tenant(&format!("tenant{i}")).unwrap();
            assert_eq!(t.state, TenantState::Admitted);
            assert_eq!(t.qos.jobs(), 4, "tenant{i}");
            assert_eq!(t.qos.deadline_misses(), 0);
            // The scoped trace sees this tenant's lifecycle and jobs only.
            let tr = out.tenant_trace(t.tenant);
            assert_eq!(
                tr.count(|e| matches!(e, TraceEvent::TenantAdmitted { .. })),
                1
            );
            assert_eq!(
                tr.count(|e| matches!(e, TraceEvent::JobReleased { .. })),
                4
            );
        }
    }

    #[test]
    fn overload_is_rejected_by_admission_not_by_misses() {
        let mut mgr = manager(3);
        for i in 0..8 {
            mgr.submit(format!("t{i}"), &heavy(&format!("h{i}"))).unwrap();
        }
        // The 9th heavy tenant fits on no thread: rejected up front.
        let err = mgr.submit("straw", &heavy("h8")).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected(RejectReason::Unschedulable { .. })
        ));
        assert_eq!(mgr.state_of("straw"), Some(TenantState::Rejected));
        assert_eq!(mgr.admitted_tenants(), 8);
        let out = mgr.run();
        assert_eq!(out.counters.rejections, 1);
        assert_eq!(out.counters.rejected_capacity, 1);
        // The admitted population still runs clean: the overload never
        // reached the schedule.
        assert_eq!(out.outcome.qos.deadline_misses(), 0);
        let straw = out.tenant("straw").unwrap();
        assert_eq!(straw.state, TenantState::Rejected);
        assert_eq!(straw.qos.jobs(), 0);
        assert_eq!(
            out.tenant_trace(straw.tenant)
                .count(|e| matches!(e, TraceEvent::TenantRejected { .. })),
            1
        );
    }

    #[test]
    fn departure_frees_capacity_for_the_next_tenant() {
        let mut mgr = manager(2);
        for i in 0..8 {
            mgr.submit(format!("t{i}"), &heavy(&format!("h{i}"))).unwrap();
        }
        assert!(mgr.submit("late", &heavy("h8")).is_err());
        assert!(mgr.depart("t3"));
        assert_eq!(mgr.state_of("t3"), Some(TenantState::Departed));
        assert!(mgr.submit("late", &heavy("h8")).is_ok());
        assert_eq!(mgr.admitted_tenants(), 8);
        let out = mgr.run();
        assert_eq!(out.counters.departures, 1);
        // "late" appears twice: first rejected, then admitted — the name
        // lookup returns the latest.
        assert_eq!(out.tenant("late").unwrap().state, TenantState::Admitted);
        assert_eq!(out.tenant("late").unwrap().qos.jobs(), 2);
        // The departed tenant ran no jobs (departed before the run).
        assert_eq!(out.tenant("t3").unwrap().qos.jobs(), 0);
    }

    #[test]
    fn admission_od_deltas_reach_the_running_engine() {
        // Uniprocessor: "lo" alone gets OD 900 ms; admitting "hi" shrinks
        // it to 860 ms, and hi's departure restores it (same numbers as
        // the rtseed-analysis admission tests).
        let lo = vec![TaskSpec::builder("lo")
            .period(Span::from_secs(1))
            .mandatory(Span::from_millis(100))
            .windup(Span::from_millis(100))
            .optional_parts(1, Span::from_millis(50))
            .build()
            .unwrap()];
        let hi = vec![TaskSpec::builder("hi")
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(10))
            .windup(Span::from_millis(10))
            .build()
            .unwrap()];
        let mut mgr = SessionManager::new(
            Topology::uniprocessor(),
            PartitionHeuristic::FirstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 2,
                ..Default::default()
            },
        );
        mgr.submit("lo", &lo).unwrap();
        assert_eq!(mgr.counters().od_updates_applied, 0);
        mgr.submit("hi", &hi).unwrap();
        assert_eq!(mgr.counters().od_updates_applied, 1, "lo's OD shrank");
        assert!(mgr.depart("hi"));
        assert_eq!(mgr.counters().od_updates_applied, 2, "lo's OD grew back");
        let out = mgr.run();
        assert_eq!(out.outcome.qos.deadline_misses(), 0);
    }

    #[test]
    fn churn_replay_is_deterministic() {
        let plan = || {
            ChurnPlan::new()
                .arrive(Time::ZERO, "a", light("a"))
                .arrive(Time::from_nanos(50_000_000), "b", heavy("b"))
                .depart(Time::from_nanos(250_000_000), "a")
                .arrive(Time::from_nanos(300_000_000), "c", light("c"))
        };
        let run = || manager(4).run_with_churn(&plan());
        let x = run();
        let y = run();
        assert_eq!(x.outcome.trace, y.outcome.trace);
        assert_eq!(x.outcome.qos, y.outcome.qos);
        assert_eq!(x.counters, y.counters);
        assert_eq!(x.counters.churn_events, 4);
        assert_eq!(x.counters.admissions, 3);
        assert_eq!(x.counters.departures, 1);
        // "a" departed mid-run: it ran fewer jobs than its quota.
        let a = x.tenant("a").unwrap();
        assert_eq!(a.state, TenantState::Departed);
        assert!(a.qos.jobs() < 4, "departed early: {}", a.qos.jobs());
    }

    #[test]
    fn empty_session_with_no_churn_finishes_immediately() {
        let out = manager(5).run();
        assert_eq!(out.outcome.qos.jobs(), 0);
        assert!(out.tenants.is_empty());
        assert_eq!(out.counters, ServeCounters::default());
    }

    #[test]
    fn mid_run_arrival_starts_fresh_job_stream() {
        // "b" arrives at 150 ms into "a"'s run; both finish their quotas.
        let plan = ChurnPlan::new()
            .arrive(Time::ZERO, "a", light("a"))
            .arrive(Time::from_nanos(150_000_000), "b", light("b"));
        let out = manager(3).run_with_churn(&plan);
        assert_eq!(out.tenant("a").unwrap().qos.jobs(), 3);
        assert_eq!(out.tenant("b").unwrap().qos.jobs(), 3);
        assert_eq!(out.outcome.qos.deadline_misses(), 0);
        // b's first release is at its arrival instant.
        let b = out.tenant("b").unwrap();
        let tr = out.tenant_trace(b.tenant);
        let first = tr
            .first_time(|e| matches!(e, TraceEvent::JobReleased { .. }))
            .unwrap();
        assert_eq!(first, Time::from_nanos(150_000_000));
    }

    #[test]
    fn placement_policy_after_a_submission_is_a_typed_error() {
        let mut mgr = manager(1);
        mgr.submit("t", &light("τ")).unwrap();
        let err = mgr
            .with_placement_policy(rtseed_analysis::PlacementPolicy::SemiPartitioned)
            .unwrap_err();
        assert_eq!(err, ServeError::PlacementAfterAdmission);
        assert!(
            err.to_string().contains("before the first admission"),
            "{err}"
        );
    }

    // ----- tenant guard ---------------------------------------------------

    use rtseed_sim::{FaultPlan, FaultTarget, JobWindow, WcetFault};

    fn guarded_manager(jobs: u64, faults: FaultPlan) -> SessionManager {
        SessionManager::new(
            Topology::quad_core_smt2(),
            PartitionHeuristic::WorstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs,
                trace: TraceConfig::enabled(),
                fault_plan: faults,
                ..Default::default()
            },
        )
        .with_guard(GuardConfig::armed())
    }

    /// Every job of engine task 0 overruns its mandatory part `factor`×.
    fn overrun_task0(seed: u64, factor: f64) -> FaultPlan {
        FaultPlan::new(seed).with_wcet_fault(WcetFault {
            task: Some(0),
            jobs: JobWindow::ALL,
            target: FaultTarget::Mandatory,
            factor,
        })
    }

    #[test]
    fn hostile_tenant_walks_the_ladder_while_neighbours_stay_clean() {
        let mut mgr = guarded_manager(30, overrun_task0(7, 10.0));
        mgr.submit("hostile", &light("adv")).unwrap();
        for i in 0..4 {
            mgr.submit(format!("good{i}"), &light(&format!("g{i}")))
                .unwrap();
        }
        let out = mgr.run();
        assert_eq!(out.counters.sheds, 1);
        assert_eq!(out.counters.quarantines, 1);
        assert_eq!(out.counters.evictions, 1);
        let adv = out.tenant("hostile").unwrap();
        assert_eq!(adv.state, TenantState::Evicted);
        assert_eq!(adv.guard.rung, LadderRung::Evicted);
        assert_eq!(adv.guard.transitions, 3);
        // The isolation guarantee: every neighbour runs its full quota
        // with zero mandatory deadline misses and full QoS.
        for i in 0..4 {
            let t = out.tenant(&format!("good{i}")).unwrap();
            assert_eq!(t.qos.jobs(), 30, "good{i}");
            assert_eq!(t.qos.deadline_misses(), 0, "good{i}");
            assert_eq!(t.guard, GuardStats::default(), "good{i} never faulted");
        }
        // The whole escalation is visible in the adversary's scoped trace.
        let tr = out.tenant_trace(adv.tenant);
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::TenantShed { .. })), 1);
        assert_eq!(
            tr.count(|e| matches!(e, TraceEvent::TenantQuarantined { .. })),
            1
        );
        assert_eq!(
            tr.count(|e| matches!(e, TraceEvent::TenantEvicted { .. })),
            1
        );
    }

    #[test]
    fn without_a_guard_the_hostile_tenant_is_merely_budget_cut() {
        // Same fault, no guard: the supervisor still clips the overrun to
        // its budget (so neighbours are safe) but nobody escalates.
        let mut mgr = SessionManager::new(
            Topology::quad_core_smt2(),
            PartitionHeuristic::WorstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 10,
                trace: TraceConfig::enabled(),
                fault_plan: overrun_task0(7, 10.0),
                ..Default::default()
            },
        );
        mgr.submit("hostile", &light("adv")).unwrap();
        mgr.submit("good", &light("g")).unwrap();
        let out = mgr.run();
        assert_eq!(out.counters.evictions, 0);
        assert_eq!(out.tenant("hostile").unwrap().state, TenantState::Admitted);
        assert_eq!(out.tenant("good").unwrap().qos.deadline_misses(), 0);
    }

    #[test]
    fn evicted_capacity_is_reoffered_to_deferred_submissions() {
        // Eight heavy tenants fill every thread; a ninth defers instead of
        // being turned away, and is admitted the instant a resident
        // departs.
        let mut mgr = guarded_manager(4, FaultPlan::none());
        for i in 0..8 {
            mgr.submit(format!("t{i}"), &heavy(&format!("h{i}"))).unwrap();
        }
        assert_eq!(
            mgr.submit_or_defer("late", &heavy("h8")),
            Submission::Deferred
        );
        assert_eq!(mgr.deferred_len(), 1);
        let plan = ChurnPlan::new().depart(Time::from_nanos(150_000_000), "t2");
        let out = mgr.run_with_churn(&plan);
        assert_eq!(out.counters.deferred_submissions, 1);
        assert_eq!(out.counters.deferred_admissions, 1);
        assert!(out.counters.admission_rounds > 0);
        let late = out.tenant("late").unwrap();
        assert_eq!(late.state, TenantState::Admitted);
        assert_eq!(late.qos.jobs(), 4);
        assert_eq!(out.deferred_latency.count(), 1);
        // Deferred at t=0, admitted exactly when the departure freed
        // capacity.
        assert_eq!(out.deferred_latency.max(), 150_000_000);
        let tr = out.tenant_trace(late.tenant);
        assert_eq!(
            tr.count(|e| matches!(e, TraceEvent::DeferredAdmitted { .. })),
            1
        );
    }

    #[test]
    fn a_round_admits_in_queue_order_and_the_later_entry_defers_again() {
        // Eight heavies fill every thread and two more defer. One departure
        // frees one thread: the forced round admits the earlier entry, which
        // takes that thread before the later entry is tested, so the later
        // entry backs off and stays parked until a second departure.
        let mut mgr = guarded_manager(4, FaultPlan::none());
        for i in 0..8 {
            mgr.submit(format!("t{i}"), &heavy(&format!("h{i}")))
                .unwrap();
        }
        for name in ["first", "second"] {
            assert_eq!(
                mgr.submit_or_defer(name, &heavy(name)),
                Submission::Deferred
            );
        }
        assert!(mgr.depart("t2"));
        assert_eq!(mgr.state_of("first"), Some(TenantState::Admitted));
        assert_eq!(mgr.state_of("second"), None);
        assert_eq!(mgr.deferred_len(), 1);
        assert_eq!(mgr.counters().deferred_admissions, 1);
        assert_eq!(mgr.counters().admission_rounds, 1);
        assert!(mgr.depart("t5"));
        assert_eq!(mgr.state_of("second"), Some(TenantState::Admitted));
        assert_eq!(mgr.deferred_len(), 0);
        assert_eq!(mgr.counters().deferred_admissions, 2);
    }

    #[test]
    fn deferred_submission_expires_at_its_retry_deadline() {
        let mut mgr = guarded_manager(12, FaultPlan::none());
        for i in 0..8 {
            mgr.submit(format!("t{i}"), &heavy(&format!("h{i}"))).unwrap();
        }
        // Nobody departs: the deferral backs off until its deadline.
        assert_eq!(
            mgr.submit_or_defer("late", &heavy("h8")),
            Submission::Deferred
        );
        let out = mgr.run();
        assert_eq!(out.counters.deferred_admissions, 0);
        assert_eq!(out.counters.rejected_deadline, 1);
        assert_eq!(out.tenant("late").unwrap().state, TenantState::Rejected);
        assert!(out.deferred_latency.is_empty());
    }

    #[test]
    fn an_evicted_name_stays_barred() {
        let mut mgr = guarded_manager(20, overrun_task0(3, 10.0));
        mgr.submit("hostile", &light("adv")).unwrap();
        // Re-arrival long after the eviction is rejected outright.
        let plan = ChurnPlan::new().arrive(
            Time::from_nanos(1_800_000_000),
            "hostile",
            light("again"),
        );
        let out = mgr.run_with_churn(&plan);
        assert_eq!(out.counters.evictions, 1);
        assert_eq!(out.counters.rejected_evicted, 1);
        // Latest entry under the name is the rejected re-arrival.
        assert_eq!(out.tenant("hostile").unwrap().state, TenantState::Rejected);
    }

    #[test]
    fn queue_depth_backpressures_with_a_typed_reason() {
        let mut mgr = guarded_manager(2, FaultPlan::none());
        for i in 0..8 {
            mgr.submit(format!("t{i}"), &heavy(&format!("h{i}"))).unwrap();
        }
        // The queue holds 64 deferred submissions; the 65th backpressures.
        for i in 0..64 {
            assert_eq!(
                mgr.submit_or_defer(format!("d{i}"), &heavy(&format!("x{i}"))),
                Submission::Deferred,
                "d{i}"
            );
        }
        assert_eq!(mgr.deferred_len(), 64);
        assert_eq!(
            mgr.submit_or_defer("d64", &heavy("x64")),
            Submission::Rejected(RejectReason::QueueFull)
        );
        assert_eq!(mgr.counters().rejected_queue_full, 1);
    }

    #[test]
    fn every_front_door_returns_the_documented_verdict() {
        use crate::engine::TenantSignal;
        use RejectReason::{EmptySubmission, Evicted, Quarantined, Unschedulable};
        use Submission::{Admitted, Deferred, Rejected};

        // Eight heavies fill the machine: another heavy fits nowhere, a
        // small task that outranks them still does. An empty submission
        // under the name gives it its name id, and `strikes` overruns are
        // on the guard's record against that id (6 quarantine it, 10
        // evict it; an unarmed guard keeps no record).
        let resident = |armed: bool, strikes: u32| {
            let mut mgr = manager(1);
            if armed {
                mgr = mgr.with_guard(GuardConfig::armed());
            }
            for i in 0..8 {
                mgr.submit(format!("t{i}"), &heavy(&format!("h{i}"))).unwrap();
            }
            assert_eq!(
                mgr.submit("x", &[]),
                Err(ServeError::Rejected(EmptySubmission))
            );
            let x = mgr.find_name("x").id.expect("a rejection records the name");
            for _ in 0..strikes {
                mgr.guard.observe(x, TenantSignal::Overrun);
            }
            mgr
        };
        let small = || {
            vec![TaskSpec::builder("x")
                .period(Span::from_millis(20))
                .mandatory(Span::from_millis(1))
                .windup(Span::from_millis(1))
                .build()
                .unwrap()]
        };
        let next = rtseed_model::TenantId(9);
        let no_room = Unschedulable { index: 0 };
        // (guard armed, strikes, submitted set) → what `submit` returns,
        // what `submit_or_defer` returns.
        let table = [
            (false, 0, small(), Ok(next), Admitted(next)),
            (false, 0, heavy("x"), Err(no_room), Rejected(no_room)),
            (false, 0, vec![], Err(EmptySubmission), Rejected(EmptySubmission)),
            (false, 10, small(), Ok(next), Admitted(next)),
            (true, 0, small(), Ok(next), Admitted(next)),
            (true, 0, heavy("x"), Err(no_room), Deferred),
            (true, 0, vec![], Err(EmptySubmission), Rejected(EmptySubmission)),
            (true, 6, small(), Err(Quarantined), Deferred),
            (true, 6, heavy("x"), Err(Quarantined), Deferred),
            (true, 6, vec![], Err(Quarantined), Deferred),
            (true, 10, small(), Err(Evicted), Rejected(Evicted)),
            (true, 10, heavy("x"), Err(Evicted), Rejected(Evicted)),
            (true, 10, vec![], Err(Evicted), Rejected(Evicted)),
        ];
        for (armed, strikes, tasks, strict, storm_safe) in table {
            let case = format!("armed {armed}, {strikes} strikes, {} tasks", tasks.len());
            let mut a = resident(armed, strikes);
            assert_eq!(a.submit("x", &tasks), strict.map_err(ServeError::Rejected), "{case}");
            let mut b = resident(armed, strikes);
            assert_eq!(b.submit_or_defer("x", &tasks), storm_safe, "{case}");
            assert_eq!(b.deferred_len(), usize::from(storm_safe == Deferred), "{case}");
            assert_eq!(a.deferred_len(), 0, "{case}: a strict submission never parks");
            if storm_safe != Deferred {
                // Same verdict, same books.
                assert_eq!(a.counters(), b.counters(), "{case}");
            }
        }
    }

    #[test]
    fn only_an_armed_guard_is_handed_tenant_signals() {
        // Without a consumer the engine queues nothing: before, an
        // unguarded session's queue gained an entry per tenant job.
        for armed in [false, true] {
            let mut mgr = manager(3);
            if armed {
                mgr = mgr.with_guard(GuardConfig::armed());
            }
            mgr.submit("a", &light("a")).unwrap();
            mgr.submit("b", &light("b")).unwrap();
            let mut signalled = false;
            while mgr.des.step() {
                signalled |= mgr.des.eng.tenant_signals_pending();
                mgr.pump_guard();
                assert!(!mgr.des.eng.tenant_signals_pending(), "armed {armed}");
            }
            assert_eq!(signalled, armed);
        }
    }

    #[test]
    fn the_guard_evicts_the_older_of_two_admitted_tenants_of_a_name() {
        // Engine task 0 is the older "x"'s: its overruns walk the name's
        // ladder to eviction while the newer "x" stays admitted.
        let mut mgr = guarded_manager(30, overrun_task0(7, 10.0));
        let old = mgr.submit("x", &light("old")).unwrap();
        let new = mgr.submit("x", &light("new")).unwrap();
        mgr.submit("y", &light("y")).unwrap();
        assert_eq!(mgr.admitted_tenants(), 3);
        while mgr.counters().evictions == 0 {
            assert!(mgr.des.step(), "the guard evicts the older x");
            mgr.pump_guard();
        }
        assert_eq!(mgr.admitted_tenants(), 2);
        assert_eq!(mgr.try_depart("x"), Ok(new));
        assert_eq!(mgr.admitted_tenants(), 1);
        assert_eq!(mgr.try_depart("x"), Err(ServeError::UnknownTenant));
        assert_eq!(mgr.try_depart("y").map(|t| t.index()), Ok(2));
        assert_eq!(mgr.admitted_tenants(), 0);
        let out = mgr.run();
        assert_eq!(out.tenants[old.index()].state, TenantState::Evicted);
        assert_eq!(out.tenants[new.index()].state, TenantState::Departed);
        assert_eq!(out.counters.departures, 2);
    }

    #[test]
    fn an_od_delta_for_a_key_no_longer_bound_is_ignored() {
        use rtseed_analysis::{OdUpdate, TaskKey};
        // Keys are handed out from 0: "a" holds key 0, "b" key 1.
        let mut mgr = manager(1);
        mgr.submit("a", &light("a")).unwrap();
        mgr.submit("b", &light("b")).unwrap();
        assert!(mgr.depart("a"));
        let before = mgr.counters().od_updates_applied;
        let od = Span::from_millis(50);
        let delta = |key| OdUpdate {
            key: TaskKey(key),
            optional_deadline: od,
        };
        // Departed, never issued, bound.
        mgr.apply_od_updates(&[delta(0), delta(99)]);
        assert_eq!(mgr.counters().od_updates_applied, before);
        mgr.apply_od_updates(&[delta(1)]);
        assert_eq!(mgr.counters().od_updates_applied, before + 1);
    }

    #[test]
    fn guarded_noisy_neighbour_replay_is_deterministic() {
        let run = || {
            let mut mgr = guarded_manager(20, overrun_task0(11, 10.0));
            mgr.submit("hostile", &light("adv")).unwrap();
            for i in 0..3 {
                mgr.submit(format!("good{i}"), &light(&format!("g{i}")))
                    .unwrap();
            }
            mgr.run()
        };
        let x = run();
        let y = run();
        assert_eq!(x.outcome.trace, y.outcome.trace);
        assert_eq!(x.counters, y.counters);
        assert_eq!(x.deferred_latency, y.deferred_latency);
    }
}
