//! Integration tests for the multi-tenant serving layer: admission
//! decisions cross-checked against the offline RMWP analysis, eviction
//! freeing capacity, concurrent tenants with per-tenant accounting, and
//! deterministic churn replay.

use rtseed::obs::{export, TraceConfig};
use rtseed::serve::{RejectReason, ServeError, SessionManager};
use rtseed::{AssignmentPolicy, RunConfig};
use rtseed_analysis::rmwp::RmwpAnalysis;
use rtseed_analysis::PartitionHeuristic;
use rtseed_model::{Span, TaskSet, TaskSpec, TenantState, Time, Topology};
use rtseed_sim::ChurnPlan;
use rtseed_trading::imprecise::desk_task_set;

fn brick(name: &str) -> TaskSpec {
    TaskSpec::builder(name)
        .period(Span::from_millis(100))
        .mandatory(Span::from_millis(15))
        .windup(Span::from_millis(15))
        .optional_parts(1, Span::from_millis(10))
        .build()
        .unwrap()
}

fn uni_manager(jobs: u64) -> SessionManager {
    SessionManager::new(
        Topology::uniprocessor(),
        PartitionHeuristic::FirstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs,
            ..RunConfig::default()
        },
    )
}

/// The online admission decision agrees with the offline RMWP analysis
/// *exactly*: on a uniprocessor, tenant k+1 is admitted iff the offline
/// analysis finds the (k+1)-task set schedulable — the serving layer
/// rejects at precisely the k where `RmwpAnalysis` first fails, not one
/// tenant earlier (too conservative) or later (unsafe).
#[test]
fn rejection_happens_exactly_where_offline_rmwp_fails() {
    let mut mgr = uni_manager(1);
    let mut resident: Vec<TaskSpec> = Vec::new();
    let mut first_rejected = None;
    for k in 0..16 {
        let spec = brick(&format!("t{k}"));
        let offline = {
            let mut candidate = resident.clone();
            candidate.push(spec.clone());
            RmwpAnalysis::analyze(&TaskSet::new(candidate).unwrap())
        };
        let online = mgr.submit(format!("tenant{k}"), std::slice::from_ref(&spec));
        assert_eq!(
            online.is_ok(),
            offline.is_ok(),
            "tenant {k}: online admission and offline RMWP analysis disagree"
        );
        if online.is_ok() {
            resident.push(spec);
        } else if first_rejected.is_none() {
            first_rejected = Some(k);
        }
    }
    // 30 ms of mandatory+wind-up per 100 ms period: the RMWP test (which
    // charges wind-up interference on the optional deadline) fits exactly
    // two bricks on one CPU.
    assert_eq!(first_rejected, Some(2));
    assert_eq!(mgr.admitted_tenants(), 2);
    let out = mgr.run();
    assert_eq!(out.outcome.qos.deadline_misses(), 0);
}

/// Departure frees exactly the evicted utilization: a tenant rejected at
/// full occupancy is admitted after one resident leaves, and the freed
/// residents' optional deadlines grow back.
#[test]
fn eviction_frees_utilization_for_readmission() {
    let mut mgr = uni_manager(2);
    for k in 0..2 {
        mgr.submit(format!("tenant{k}"), &[brick(&format!("t{k}"))])
            .unwrap();
    }
    let full = mgr.total_utilization();
    let err = mgr.submit("third", &[brick("t2")]).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Rejected(RejectReason::Unschedulable { .. })
    ));
    assert_eq!(mgr.state_of("third"), Some(TenantState::Rejected));

    assert!(mgr.depart("tenant1"));
    assert!(mgr.total_utilization() < full);
    mgr.submit("third", &[brick("t2")])
        .expect("eviction freed exactly one brick of utilization");
    assert_eq!(mgr.state_of("third"), Some(TenantState::Admitted));
    assert_eq!(mgr.admitted_tenants(), 2);

    let out = mgr.run();
    assert_eq!(out.counters.rejections, 1);
    assert_eq!(out.counters.departures, 1);
    assert_eq!(out.outcome.qos.deadline_misses(), 0);
    assert_eq!(out.tenant("third").unwrap().qos.jobs(), 2);
}

/// One process serves eight concurrently admitted trading-desk tenants,
/// each with its own QoS outcome and a trace slice containing only its
/// jobs; an over-subscribed ninth desk is rejected by admission, never
/// reaching the schedule (zero deadline misses across the run).
#[test]
fn eight_trading_desks_one_process() {
    let mut mgr = SessionManager::new(
        Topology::quad_core_smt2(),
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs: 5,
            trace: TraceConfig::enabled(),
            ..RunConfig::default()
        },
    );
    for i in 0..8 {
        let desk = desk_task_set(
            &format!("desk{i}"),
            &["EURUSD", "USDJPY"],
            2,
            Span::from_millis(50),
        )
        .unwrap();
        mgr.submit(format!("desk{i}"), &desk).unwrap();
    }
    assert_eq!(mgr.admitted_tenants(), 8);

    // A desk that over-subscribes any single CPU is turned away up front.
    let greedy = vec![TaskSpec::builder("greedy")
        .period(Span::from_millis(100))
        .mandatory(Span::from_millis(60))
        .windup(Span::from_millis(35))
        .build()
        .unwrap()];
    assert!(mgr.submit("greedy", &greedy).is_err());

    let out = mgr.run();
    assert_eq!(out.counters.admissions, 8);
    assert_eq!(out.counters.rejections, 1);
    assert_eq!(out.outcome.qos.deadline_misses(), 0);
    assert_eq!(out.outcome.qos.jobs(), 8 * 2 * 5);
    for i in 0..8 {
        let t = out.tenant(&format!("desk{i}")).unwrap();
        assert_eq!(t.state, TenantState::Admitted);
        assert_eq!(t.qos.jobs(), 2 * 5, "desk{i} runs both symbols to quota");
        assert_eq!(t.qos.deadline_misses(), 0);
        assert_eq!(t.tasks.len(), 2);
        // The tenant-scoped trace covers this desk's jobs and nothing else.
        let tr = out.tenant_trace(t.tenant);
        assert!(!tr.is_empty());
        for (_, ev) in tr.events() {
            if let Some(job) = ev.job() {
                assert!(t.tasks.contains(&job.task), "foreign job in desk{i}'s trace");
            }
        }
    }
}

/// Replaying the same churn plan twice produces byte-identical JSONL
/// traces — admissions, rejections, evictions and the full schedule are a
/// pure function of (plan, seed).
#[test]
fn churn_replay_is_byte_deterministic() {
    let plan = || {
        ChurnPlan::new()
            .arrive(
                Time::ZERO,
                "a",
                desk_task_set("a", &["EURUSD"], 2, Span::from_millis(50)).unwrap(),
            )
            .arrive(
                Time::from_nanos(70_000_000),
                "b",
                desk_task_set("b", &["USDJPY"], 3, Span::from_millis(50)).unwrap(),
            )
            .depart(Time::from_nanos(200_000_000), "a")
            .arrive(
                Time::from_nanos(260_000_000),
                "c",
                desk_task_set("c", &["GBPUSD"], 2, Span::from_millis(50)).unwrap(),
            )
    };
    let run = || {
        SessionManager::new(
            Topology::quad_core_smt2(),
            PartitionHeuristic::WorstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 6,
                trace: TraceConfig::enabled(),
                ..RunConfig::default()
            },
        )
        .run_with_churn(&plan())
    };
    let x = run();
    let y = run();
    assert_eq!(export::jsonl(&x.outcome.trace), export::jsonl(&y.outcome.trace));
    assert_eq!(x.outcome.qos, y.outcome.qos);
    assert_eq!(x.counters, y.counters);
    assert_eq!(x.counters.churn_events, 4);
    // The mid-run departure really cut tenant a's job stream short.
    assert!(x.tenant("a").unwrap().qos.jobs() < 6);
    assert_eq!(x.tenant("b").unwrap().qos.jobs(), 6);
    assert_eq!(x.tenant("c").unwrap().qos.jobs(), 6);
}

// ----- tenant names ---------------------------------------------------------

use rtseed::serve::{GuardConfig, GuardStats, LadderRung};
use rtseed_model::TenantId;
use rtseed_sim::{FaultPlan, FaultTarget, JobWindow, WcetFault};

/// A departure names a tenant, and a name is not an identity: it finds the
/// most recent tenant *admitted* under the name — never a rejected one,
/// however recent — and a resubmission is a new tenant.
#[test]
fn depart_takes_the_latest_admitted_tenant_of_a_name() {
    let mut mgr = uni_manager(1);
    // Two bricks fill the CPU; names around "dup" in the sort order check
    // that a prefix or an extension of the name is another name.
    let first = mgr.submit("dup", &[brick("a")]).unwrap();
    let second = mgr.submit("dup", &[brick("b")]).unwrap();
    assert_eq!((first, second), (TenantId(0), TenantId(1)));
    for other in ["du", "dup", "dupe"] {
        assert!(matches!(
            mgr.submit(other, &[brick("c")]),
            Err(ServeError::Rejected(RejectReason::Unschedulable { .. }))
        ));
    }
    assert_eq!(mgr.state_of("dup"), Some(TenantState::Rejected));
    assert_eq!(mgr.try_depart("du"), Err(ServeError::UnknownTenant));
    assert_eq!(mgr.try_depart("dupe"), Err(ServeError::UnknownTenant));
    assert_eq!(mgr.try_depart("dup"), Ok(second));
    assert_eq!(mgr.admitted_tenants(), 1);
    assert_eq!(mgr.try_depart("dup"), Ok(first));
    assert_eq!(mgr.try_depart("dup"), Err(ServeError::UnknownTenant));
    assert_eq!(mgr.admitted_tenants(), 0);
    // Five tenants so far, three of them rejected: the next id is 5.
    let again = mgr.submit("dup", &[brick("d")]).unwrap();
    assert_eq!(again, TenantId(5));
    let neighbour = mgr.submit("du", &[brick("e")]).unwrap();
    assert_eq!(mgr.try_depart("dup"), Ok(again));
    assert_eq!(mgr.try_depart("dup"), Err(ServeError::UnknownTenant));
    assert_eq!(mgr.try_depart("du"), Ok(neighbour));
}

/// A guarded 4×2 session in which jobs `window` of engine task 0 overrun
/// their mandatory part tenfold.
fn guarded_manager(jobs: u64, window: JobWindow) -> SessionManager {
    SessionManager::new(
        Topology::quad_core_smt2(),
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs,
            fault_plan: FaultPlan::new(7).with_wcet_fault(WcetFault {
                task: Some(0),
                jobs: window,
                target: FaultTarget::Mandatory,
                factor: 10.0,
            }),
            ..RunConfig::default()
        },
    )
    .with_guard(GuardConfig::armed())
}

/// A tenant the guard evicted is gone: a later departure under its name
/// finds nobody.
#[test]
fn depart_never_finds_a_guard_evicted_tenant() {
    let mut mgr = guarded_manager(20, JobWindow::ALL);
    mgr.submit("hostile", &[brick("adv")]).unwrap();
    mgr.submit("good", &[brick("g")]).unwrap();
    let plan = ChurnPlan::new().depart(Time::from_nanos(1_900_000_000), "hostile");
    let out = mgr.run_with_churn(&plan);
    assert_eq!(out.counters.evictions, 1);
    assert_eq!(out.counters.churn_events, 1);
    assert_eq!(out.counters.departures, 0);
    assert_eq!(out.tenant("hostile").unwrap().state, TenantState::Evicted);
    assert_eq!(out.tenant("good").unwrap().state, TenantState::Admitted);
}

/// The guard's record is the name's, not the tenant's: a tenant that
/// departs with strikes and comes back under the same name is a new
/// tenant with the old strikes.
#[test]
fn a_resubmitted_name_is_a_fresh_tenant_with_its_old_strikes() {
    // Only the first job of engine task 0 — the first "flaky" — overruns;
    // its successor is engine task 1 and runs clean.
    let mut mgr = guarded_manager(4, JobWindow::new(0, 1));
    mgr.submit("flaky", &[brick("f0")]).unwrap();
    let plan = ChurnPlan::new()
        .depart(Time::from_nanos(150_000_000), "flaky")
        .arrive(Time::from_nanos(200_000_000), "flaky", vec![brick("f1")]);
    let out = mgr.run_with_churn(&plan);
    let entries: Vec<_> = out.tenants.iter().filter(|t| t.name == "flaky").collect();
    assert_eq!(entries.len(), 2);
    assert_eq!((entries[0].tenant, entries[0].state), (TenantId(0), TenantState::Departed));
    assert_eq!((entries[1].tenant, entries[1].state), (TenantId(1), TenantState::Admitted));
    assert_eq!(entries[1].qos.jobs(), 4);
    assert_eq!(entries[1].qos.deadline_misses(), 0);
    let strikes = entries[1].guard.strikes;
    assert!(strikes > 0, "the first tenant's strikes stay on the name's record");
    assert_eq!(entries[0].guard.strikes, strikes);
}

/// A name keys one ladder, whichever of its tenants raised the signals:
/// two admitted tenants of one name share it, a departure takes the most
/// recent admitted tenant of the name, a submission while the name is
/// quarantined is deferred, one after the name was evicted is rejected, and
/// every tenant of the name, fresh `TenantId`s included, reports the name's
/// record.
#[test]
fn a_name_keys_one_ladder_across_all_its_tenants() {
    // Every job of engine task 0 — the first "dup" — overruns tenfold; the
    // other "dup"s run clean.
    let mut mgr = guarded_manager(20, JobWindow::ALL);
    let hostile = mgr.submit("dup", &[brick("d0")]).unwrap();
    let clean = mgr.submit("dup", &[brick("d1")]).unwrap();
    let latest = mgr.submit("dup", &[brick("d2")]).unwrap();
    let good = mgr.submit("good", &[brick("g")]).unwrap();
    assert_eq!(mgr.try_depart("dup"), Ok(latest));
    assert_eq!(mgr.state_of("dup"), Some(TenantState::Departed));
    // The hostile tenant is shed at 300 ms, quarantined at 600 ms and
    // evicted at 1 s (one strike per 100 ms period).
    let plan = ChurnPlan::new()
        .arrive(Time::from_nanos(700_000_000), "dup", vec![brick("d3")])
        .arrive(Time::from_nanos(1_500_000_000), "dup", vec![brick("d4")]);
    let out = mgr.run_with_churn(&plan);
    let c = out.counters;
    assert_eq!((c.sheds, c.quarantines, c.evictions), (1, 1, 1));
    // The 700 ms arrival found the name quarantined and was deferred, not
    // rejected; its retries then found it evicted, as the 1.5 s arrival did.
    assert_eq!(c.deferred_submissions, 1);
    assert_eq!(c.rejected_quarantined, 0);
    assert_eq!(c.rejected_evicted, 2);
    let states: Vec<_> = out
        .tenants
        .iter()
        .map(|t| (t.tenant, t.name.as_str(), t.state))
        .collect();
    assert_eq!(
        states,
        [
            (hostile, "dup", TenantState::Evicted),
            (clean, "dup", TenantState::Admitted),
            (latest, "dup", TenantState::Departed),
            (good, "good", TenantState::Admitted),
            (TenantId(4), "dup", TenantState::Rejected),
            (TenantId(5), "dup", TenantState::Rejected),
        ]
    );
    // The eviction departed the tenant that faulted; its clean namesake
    // kept running, under the name's (evicted) ladder.
    assert_eq!(out.tenants[1].qos.jobs(), 20);
    assert_eq!(out.tenants[1].qos.deadline_misses(), 0);
    let record = GuardStats {
        rung: LadderRung::Evicted,
        strikes: 10,
        transitions: 3,
    };
    for t in &out.tenants {
        let expected = if t.name == "dup" {
            record
        } else {
            GuardStats::default()
        };
        assert_eq!(t.guard, expected, "{:?}", t.tenant);
    }
}

// ----- the name index against a reverse scan -------------------------------

use proptest::prelude::*;

/// Names a script draws from: some are prefixes or extensions of others,
/// and their first submissions come in no particular order.
const NAMES: [&str; 4] = ["b", "ab", "a", "ba"];

/// A guarded, traced 4×2 session in which every job of each engine task in
/// `hostile` overruns its mandatory part tenfold.
fn scripted_manager(hostile: &[u32]) -> SessionManager {
    let mut faults = FaultPlan::new(3);
    for &task in hostile {
        faults = faults.with_wcet_fault(WcetFault {
            task: Some(task),
            jobs: JobWindow::ALL,
            target: FaultTarget::Mandatory,
            factor: 10.0,
        });
    }
    SessionManager::new(
        Topology::quad_core_smt2(),
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs: 12,
            trace: TraceConfig::enabled(),
            fault_plan: faults,
            ..RunConfig::default()
        },
    )
    .with_guard(GuardConfig::armed())
}

/// The most recent entry of `name` in a tenant list, found by scanning it
/// from the end.
fn latest_of<'a, T>(list: &'a [T], name: &str, name_of: impl Fn(&T) -> &str) -> Option<&'a T> {
    list.iter().rev().find(|t| name_of(t) == name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `state_of`, `try_depart` and every `TenantOutcome::guard` agree with
    /// a model that keeps one flat list of tenants and scans it from the
    /// end. A script op submits one brick (admitted or rejected for
    /// capacity; half the ops), submits nothing (always rejected), or
    /// departs. The
    /// model's ladder is folded from the trace's transition events, each
    /// credited to the name of the tenant it names.
    #[test]
    fn name_lookups_agree_with_a_reverse_scan(
        script in prop::collection::vec((0u8..4, 0usize..NAMES.len()), 1..40),
        hostile in prop::collection::vec(0u32..10, 1..4),
    ) {
        let mut mgr = scripted_manager(&hostile);
        // Tenant id = position: (name, state).
        let mut model: Vec<(&str, TenantState)> = Vec::new();
        for (op, name) in script {
            let name = NAMES[name];
            match op {
                0 | 1 => {
                    let state = match mgr.submit(name, &[brick(name)]) {
                        Ok(id) => {
                            prop_assert_eq!(id, TenantId(model.len() as u32));
                            TenantState::Admitted
                        }
                        Err(_) => TenantState::Rejected,
                    };
                    model.push((name, state));
                }
                2 => {
                    let got = mgr.submit(name, &[]);
                    prop_assert_eq!(got, Err(ServeError::Rejected(RejectReason::EmptySubmission)));
                    model.push((name, TenantState::Rejected));
                }
                _ => {
                    let at = model
                        .iter()
                        .rposition(|&(n, s)| n == name && s == TenantState::Admitted);
                    let expected = at.map(|at| TenantId(at as u32));
                    prop_assert_eq!(mgr.try_depart(name), expected.ok_or(ServeError::UnknownTenant));
                    if let Some(at) = at {
                        model[at].1 = TenantState::Departed;
                    }
                }
            }
            for name in NAMES {
                let expected = latest_of(&model, name, |t| t.0).map(|t| t.1);
                prop_assert_eq!(mgr.state_of(name), expected, "{}", name);
            }
            let admitted = model.iter().filter(|t| t.1 == TenantState::Admitted).count();
            prop_assert_eq!(mgr.admitted_tenants(), admitted);
        }
        let out = mgr.run();
        prop_assert_eq!(out.outcome.trace.dropped(), 0);
        prop_assert_eq!(out.tenants.len(), model.len());
        // Per name: the rung and the transition count its tenants' ladder
        // events add up to.
        let mut ladder = [(LadderRung::Normal, 0u32); NAMES.len()];
        for (_, ev) in out.outcome.trace.events() {
            let (tenant, to) = match *ev {
                TraceEvent::TenantShed { tenant } => (tenant, Some(LadderRung::Shed)),
                TraceEvent::TenantQuarantined { tenant } => (tenant, Some(LadderRung::Quarantined)),
                TraceEvent::TenantEvicted { tenant } => (tenant, Some(LadderRung::Evicted)),
                TraceEvent::TenantRecovered { tenant } => (tenant, None),
                _ => continue,
            };
            let name = model[tenant.index()].0;
            let (rung, transitions) = &mut ladder[NAMES.iter().position(|&n| n == name).unwrap()];
            *rung = to.unwrap_or(match *rung {
                LadderRung::Quarantined => LadderRung::Shed,
                _ => LadderRung::Normal,
            });
            *transitions += 1;
        }
        for (t, &(name, state)) in out.tenants.iter().zip(&model) {
            prop_assert_eq!(t.name.as_str(), name);
            // The guard may have evicted an admitted tenant during the run.
            let evicted = state == TenantState::Admitted && t.state == TenantState::Evicted;
            prop_assert!(t.state == state || evicted, "{:?} ended {:?}", t.tenant, t.state);
            let (rung, transitions) = ladder[NAMES.iter().position(|&n| n == name).unwrap()];
            let got = (t.guard.rung, t.guard.transitions);
            prop_assert_eq!(got, (rung, transitions), "{:?}", t.tenant);
            let latest = latest_of(&out.tenants, name, |t| t.name.as_str()).unwrap();
            prop_assert_eq!(t.guard, latest.guard, "{:?}", t.tenant);
        }
    }
}

// ----- placement-policy family (split + federated tasks) ------------------

use rtseed::obs::TraceEvent;
use rtseed_analysis::PlacementPolicy;

/// A 1×2 manager under `placement` with tracing on.
fn two_cpu_manager(jobs: u64, placement: PlacementPolicy) -> SessionManager {
    SessionManager::new(
        Topology::new(1, 2).unwrap(),
        PartitionHeuristic::FirstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs,
            trace: TraceConfig::enabled(),
            ..RunConfig::default()
        },
    )
    .with_placement_policy(placement)
    .expect("the placement policy is set before any submission")
}

fn seq_task(name: &str, period_ms: u64, mandatory_ms: u64) -> TaskSpec {
    TaskSpec::builder(name)
        .period(Span::from_millis(period_ms))
        .mandatory(Span::from_millis(mandatory_ms))
        .build()
        .unwrap()
}

/// Semi-partitioned splitting admits a task plain placement rejects, and
/// the executed schedule honours the per-job CPU binding: every job of the
/// split task runs *wholly* on one CPU (the one announced by its
/// `job_bound` event), and consecutive jobs alternate hosts — migration
/// only ever happens at job boundaries.
#[test]
fn split_task_jobs_never_straddle_cpus_within_a_job() {
    // Two residents at 0.7 utilization leave 0.3 slack on each CPU; the
    // 0.6-utilization task fits nowhere whole but splits as 0.3 + 0.3.
    let mut plain = two_cpu_manager(4, PlacementPolicy::Partitioned);
    assert!(plain.submit("r0", &[seq_task("r0", 400, 280)]).is_ok());
    assert!(plain.submit("r1", &[seq_task("r1", 400, 280)]).is_ok());
    assert!(
        plain.submit("big", &[seq_task("big", 100, 60)]).is_err(),
        "plain placement should reject the 0.6U task"
    );

    let mut mgr = two_cpu_manager(4, PlacementPolicy::SemiPartitioned);
    assert!(mgr.submit("r0", &[seq_task("r0", 400, 280)]).is_ok());
    assert!(mgr.submit("r1", &[seq_task("r1", 400, 280)]).is_ok());
    let big = mgr
        .submit("big", &[seq_task("big", 100, 60)])
        .expect("semi-partitioned placement splits the 0.6U task");
    let out = mgr.run();

    // The split task is the sole task of tenant `big`.
    let split_task = out
        .tenants
        .iter()
        .find(|t| t.tenant == big)
        .expect("admitted tenant")
        .tasks[0];

    // Collect each job's binding announcement and every CPU its real-time
    // parts actually touched (queue ops carry the host hardware thread).
    let mut bound: Vec<(u64, u32)> = Vec::new();
    let mut touched: Vec<(u64, Vec<u32>)> = Vec::new();
    for (_, ev) in out.outcome.trace.events() {
        match ev {
            TraceEvent::JobBound { job, hw } if job.task == split_task => {
                bound.push((job.seq, hw.0));
            }
            TraceEvent::Queue { job, hw: Some(hw), .. }
            | TraceEvent::MandatoryStarted { job, hw } if job.task == split_task => {
                match touched.iter_mut().find(|(s, _)| *s == job.seq) {
                    Some((_, cpus)) => {
                        if !cpus.contains(&hw.0) {
                            cpus.push(hw.0);
                        }
                    }
                    None => touched.push((job.seq, vec![hw.0])),
                }
            }
            _ => {}
        }
    }
    assert_eq!(bound.len(), 4, "every released job announces its binding");
    // Jobs alternate between exactly two distinct CPUs.
    let evens: Vec<u32> = bound.iter().filter(|(s, _)| s % 2 == 0).map(|&(_, h)| h).collect();
    let odds: Vec<u32> = bound.iter().filter(|(s, _)| s % 2 == 1).map(|&(_, h)| h).collect();
    assert!(evens.windows(2).all(|w| w[0] == w[1]), "even jobs share one host");
    assert!(odds.windows(2).all(|w| w[0] == w[1]), "odd jobs share one host");
    assert_ne!(evens[0], odds[0], "the two job classes use different CPUs");
    // No job's real-time work ever touched a CPU other than its bound one.
    for (seq, cpus) in &touched {
        let (_, bound_hw) = bound.iter().find(|(s, _)| s == seq).expect("bound");
        assert_eq!(
            cpus.as_slice(),
            &[*bound_hw],
            "job {seq} of the split task straddled CPUs within the job"
        );
    }
}

/// Semi-federated placement admits a heavy-parallel task plain placement
/// rejects, granting its wind-up and optional parts a dedicated core.
#[test]
fn federated_windup_and_optionals_run_on_the_granted_core() {
    let resident = |name: &str| {
        TaskSpec::builder(name)
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(27))
            .windup(Span::from_millis(28))
            .build()
            .unwrap()
    };
    let par = TaskSpec::builder("par")
        .period(Span::from_millis(100))
        .mandatory(Span::from_millis(30))
        .windup(Span::from_millis(10))
        .optional_parts(2, Span::from_millis(100))
        .build()
        .unwrap();

    let mut plain = two_cpu_manager(2, PlacementPolicy::Partitioned);
    assert!(plain.submit("t0", &[resident("t0")]).is_ok());
    assert!(plain.submit("t1", &[resident("t1")]).is_ok());
    assert!(
        plain.submit("par", std::slice::from_ref(&par)).is_err(),
        "plain placement should reject the parallel-heavy task"
    );

    let mut mgr = two_cpu_manager(2, PlacementPolicy::SemiFederated);
    assert!(mgr.submit("t0", &[resident("t0")]).is_ok());
    assert!(mgr.submit("t1", &[resident("t1")]).is_ok());
    let tenant = mgr
        .submit("par", std::slice::from_ref(&par))
        .expect("semi-federated placement grants the parallel phase a core");
    let out = mgr.run();
    let par_task = out
        .tenants
        .iter()
        .find(|t| t.tenant == tenant)
        .expect("admitted tenant")
        .tasks[0];

    // Its optional parts all start on one CPU (the granted core), and the
    // residents' mandatory parts run on the other.
    let mut opt_cpus: Vec<u32> = Vec::new();
    let mut mand_cpus: Vec<u32> = Vec::new();
    for (_, ev) in out.outcome.trace.events() {
        match ev {
            TraceEvent::OptionalStarted { job, hw, .. } if job.task == par_task
                && !opt_cpus.contains(&hw.0) => {
                    opt_cpus.push(hw.0);
                }
            TraceEvent::MandatoryStarted { job, hw } if job.task == par_task
                && !mand_cpus.contains(&hw.0) => {
                    mand_cpus.push(hw.0);
                }
            _ => {}
        }
    }
    assert_eq!(opt_cpus.len(), 1, "optional parts own the granted core");
    assert_eq!(mand_cpus.len(), 1, "the mandatory residual stays put");
    assert_ne!(opt_cpus[0], mand_cpus[0], "grant and residual are disjoint");
}

/// A churn replay under each placement policy is byte-deterministic: two
/// identical runs export identical traces.
#[test]
fn placement_policies_replay_byte_deterministically() {
    for policy in PlacementPolicy::ALL {
        let run = || {
            let mut mgr = two_cpu_manager(3, policy);
            let _ = mgr.submit("r0", &[seq_task("r0", 400, 280)]);
            let _ = mgr.submit("r1", &[seq_task("r1", 400, 280)]);
            let _ = mgr.submit("big", &[seq_task("big", 100, 60)]);
            let _ = mgr.submit("light", &[seq_task("light", 1000, 5)]);
            mgr.run()
        };
        let x = run();
        let y = run();
        assert_eq!(
            export::jsonl(&x.outcome.trace),
            export::jsonl(&y.outcome.trace),
            "{policy}: non-deterministic replay"
        );
    }
}

/// A session built over a hot [`ServeArena`] (buffers and engine recycled
/// from a previous session, or from a [`SimExecutor`] run — it is the one
/// arena type) replays byte-identically to a cold construction, and so
/// does the executor run in between — nothing leaks through the arena.
#[test]
fn hot_arena_session_is_byte_identical_to_cold() {
    use rtseed::serve::ServeArena;
    use rtseed::{SimExecutor, SystemConfig};

    let session = || {
        let mut mgr = two_cpu_manager(3, PlacementPolicy::SemiPartitioned);
        let _ = mgr.submit("r0", &[seq_task("r0", 400, 280)]);
        let _ = mgr.submit("r1", &[seq_task("r1", 400, 280)]);
        let _ = mgr.submit("big", &[seq_task("big", 100, 60)]);
        mgr
    };
    let session_in = |arena: &mut ServeArena| {
        let mut mgr = SessionManager::new_in(
            Topology::new(1, 2).unwrap(),
            PartitionHeuristic::FirstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 3,
                trace: TraceConfig::enabled(),
                ..RunConfig::default()
            },
            arena,
        )
        .with_placement_policy(PlacementPolicy::SemiPartitioned)
        .expect("the placement policy is set before any submission");
        let _ = mgr.submit("r0", &[seq_task("r0", 400, 280)]);
        let _ = mgr.submit("r1", &[seq_task("r1", 400, 280)]);
        let _ = mgr.submit("big", &[seq_task("big", 100, 60)]);
        mgr
    };

    let cold = session().run();
    let cold_trace = export::jsonl(&cold.outcome.trace);
    // A closed set on another topology, run between the sessions.
    let desk = desk_task_set("desk", &["A", "B"], 3, Span::from_millis(50)).unwrap();
    let executor = SimExecutor::new(
        SystemConfig::build(
            TaskSet::new(desk).unwrap(),
            Topology::quad_core_smt2(),
            AssignmentPolicy::TwoByTwo,
        )
        .unwrap(),
        RunConfig {
            jobs: 4,
            seed: 11,
            trace: TraceConfig::enabled(),
            ..RunConfig::default()
        },
    );
    let cold_sim = executor.run();

    // Three consecutive sessions through one arena, an executor run after
    // each: the first session warms the arena, everything after replays
    // over recycled buffers and an engine the other front-end parked.
    let mut arena = ServeArena::new();
    for round in 0..3 {
        let out = session_in(&mut arena).run_in(&mut arena);
        assert_eq!(
            export::jsonl(&out.outcome.trace),
            cold_trace,
            "hot arena session diverged from cold construction (round {round})"
        );
        assert_eq!(out.counters, cold.counters, "round {round}");
        let sim = executor.run_in(&mut arena);
        assert_eq!(
            export::jsonl(&sim.trace),
            export::jsonl(&cold_sim.trace),
            "hot arena executor run diverged from a cold run (round {round})"
        );
        assert_eq!(sim.qos, cold_sim.qos, "round {round}");
        assert_eq!(sim.events_processed, cold_sim.events_processed, "round {round}");
    }
}
