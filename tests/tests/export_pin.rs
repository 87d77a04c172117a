//! Pins every byte the trace exporters write, so the formatter under
//! `rtseed::obs::export` and the slicing under `ServeOutcome::tenant_trace`
//! can be rewritten against constants.
//!
//! Three sources of traces are folded into FNV-1a fingerprints of
//! [`export::jsonl`], [`export::chrome_trace`] and the event lines of every
//! tenant slice's JSONL (the meta line is left out: it carries the ring's
//! drop count, which is pinned through the shared trace's own export):
//!
//! * engine-produced traces from [`SimExecutor`], [`GlobalExecutor`] and a
//!   guarded, churned, faulted [`SessionManager`], each also under a
//!   257-event ring so the export begins mid-job and part ends arrive
//!   without their starts;
//! * 1 000 generated traces of *arbitrary* event sequences over every
//!   [`TraceEvent`] variant — sequences no engine produces (a part started
//!   twice, ended without a start, wound up before its mandatory part, job
//!   numbers out of order) with extreme field values and strings that need
//!   escaping;
//! * one hand-built trace holding every variant once, checked in under
//!   `tests/golden/export_every_event.*` so the two formats can be read.

use std::collections::{BTreeSet, HashSet};

use rtseed::obs::{
    export, MetricsRegistry, PipelineStage, QueueBand, QueueOp, Trace, TraceConfig, TraceEvent,
};
use rtseed::serve::{GuardConfig, RejectReason, ServeOutcome, SessionManager};
use rtseed::{AssignmentPolicy, GlobalExecutor, Outcome, RunConfig, SimExecutor, SystemConfig};
use rtseed_analysis::{PartitionHeuristic, PlacementPolicy};
use rtseed_bench::harness::{fnv1a, FNV_OFFSET};
use rtseed_model::{
    HwThreadId, JobId, OptionalOutcome, PartId, Span, TaskId, TaskSet, TaskSpec, TenantId, Time,
    Topology,
};
use rtseed_sim::{
    splitmix64, ChurnPlan, CpuStall, FaultPlan, FaultTarget, JobWindow, OverheadKind, TimerFault,
    TimerFaultSpec, WcetFault,
};

/// Number of [`TraceEvent`] variants; every source below must reach all
/// the variants it can produce, the generator all of them.
const VARIANTS: usize = 31;

/// One fingerprint per document kind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    jsonl: u64,
    chrome: u64,
    slices: u64,
}

fn fold(fp: &mut u64, text: &str) {
    fnv1a(fp, text.len() as u64);
    for &byte in text.as_bytes() {
        fnv1a(fp, u64::from(byte));
    }
}

impl Pin {
    fn new() -> Pin {
        Pin {
            jsonl: FNV_OFFSET,
            chrome: FNV_OFFSET,
            slices: FNV_OFFSET,
        }
    }

    fn trace(&mut self, trace: &Trace, metrics: &MetricsRegistry) {
        fold(&mut self.jsonl, &export::jsonl(trace));
        fold(&mut self.chrome, &export::chrome_trace(trace, metrics));
    }

    /// Folds the event lines of every tenant's slice, in table order.
    fn slices(&mut self, out: &ServeOutcome) {
        for t in &out.tenants {
            let text = export::jsonl(&out.tenant_trace(t.tenant));
            let (_meta, events) = text.split_once('\n').expect("meta line");
            fold(&mut self.slices, events);
        }
    }
}

fn names(seen: &mut BTreeSet<&'static str>, trace: &Trace) {
    seen.extend(trace.events().iter().map(|(_, e)| e.name()));
}

// ── engine-produced traces ──────────────────────────────────────────────

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

/// A task set, where it runs, and its shortest period (the unit fault and
/// churn instants scale with). The same three shapes as `driver_pin.rs`:
/// `big` fits only as a split, `par` earns a federated grant, and the
/// third mixes rates so parts complete, are terminated, and queue.
fn shapes() -> Vec<(Vec<TaskSpec>, Topology, Span)> {
    let two_threads = Topology::new(1, 2).unwrap();
    vec![
        (
            vec![
                task("r0", 400, 280, 0, 0, 0),
                task("r1", 400, 280, 0, 0, 0),
                task("big", 100, 60, 0, 0, 0),
            ],
            two_threads,
            Span::from_millis(100),
        ),
        (
            vec![
                task("t0", 100, 27, 28, 0, 0),
                task("t1", 100, 27, 28, 0, 0),
                task("par", 100, 30, 10, 2, 100),
            ],
            two_threads,
            Span::from_millis(100),
        ),
        (
            vec![
                task("a", 40, 4, 4, 2, 6),
                task("b", 50, 5, 3, 3, 50),
                task("c", 60, 6, 6, 1, 10),
                task("d", 100, 8, 8, 3, 100),
                task("e", 200, 10, 10, 2, 30),
            ],
            Topology::new(2, 2).unwrap(),
            Span::from_millis(40),
        ),
    ]
}

/// Two stalls, a mandatory overrun that outlasts the period, a wind-up
/// overrun, a lost and a delayed optional-deadline timer.
fn faults(unit: Span, seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_cpu_stall(CpuStall {
            hw: 0,
            at: Time::ZERO,
            duration: unit * 9 / 10,
        })
        .with_cpu_stall(CpuStall {
            hw: 1,
            at: Time::ZERO + unit * 13 / 10,
            duration: unit / 5,
        })
        .with_wcet_fault(WcetFault {
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
        .with_timer_fault(TimerFaultSpec {
            task: None,
            jobs: JobWindow::new(0, 1),
            fault: TimerFault::Lost,
        })
        .with_timer_fault(TimerFaultSpec {
            task: None,
            jobs: JobWindow::new(2, 3),
            fault: TimerFault::Delay(unit / 20),
        })
}

/// The default ring, and one small enough that every run overflows it.
const RINGS: [TraceConfig; 2] = [TraceConfig::enabled(), TraceConfig::bounded(257)];

fn run_config(jobs: u64, fault_plan: FaultPlan, armed: bool, trace: TraceConfig) -> RunConfig {
    RunConfig {
        jobs,
        seed: 2014,
        fault_plan,
        supervisor: armed,
        trace,
        ..RunConfig::default()
    }
}

/// Runs the offline grid (shape × placement × healthy/faulted × ring)
/// through `execute`; returns the fingerprint and the event names seen.
fn offline_pin(
    execute: impl Fn(&SystemConfig, RunConfig) -> Outcome,
) -> (Pin, BTreeSet<&'static str>) {
    let mut pin = Pin::new();
    let mut seen = BTreeSet::new();
    let mut truncated = 0;
    for (tasks, topology, unit) in shapes() {
        for placement in PlacementPolicy::ALL {
            let Ok(config) = SystemConfig::build_with_placement(
                TaskSet::new(tasks.clone()).unwrap(),
                topology,
                AssignmentPolicy::OneByOne,
                PartitionHeuristic::FirstFitDecreasing,
                placement,
            ) else {
                continue;
            };
            for faulted in [false, true] {
                for ring in RINGS {
                    let plan = if faulted {
                        faults(unit, 2014)
                    } else {
                        FaultPlan::none()
                    };
                    let out = execute(&config, run_config(5, plan, faulted, ring));
                    truncated += u32::from(out.trace.dropped() > 0);
                    pin.trace(&out.trace, &out.metrics);
                    names(&mut seen, &out.trace);
                }
            }
        }
    }
    assert!(truncated > 0, "no run overflowed the 257-event ring");
    (pin, seen)
}

fn assert_seen(seen: &BTreeSet<&'static str>, wanted: &[&str]) {
    for name in wanted {
        assert!(seen.contains(name), "no {name} event in {seen:?}");
    }
}

/// What every offline front-end's grid must have exported.
const OFFLINE_EVENTS: [&str; 17] = [
    "job_released",
    "job_bound",
    "mandatory_started",
    "mandatory_completed",
    "optional_started",
    "optional_ended",
    "windup_started",
    "windup_completed",
    "queue",
    "timer_armed",
    "timer_fired",
    "timer_cancelled",
    "policy_decision",
    "wcet_fault",
    "timer_fault",
    "cpu_stall",
    "budget_cut",
];

#[test]
fn sim_executor_exports_are_pinned() {
    let (pin, seen) = offline_pin(|config, run| SimExecutor::new(config.clone(), run).run());
    assert_seen(&seen, &OFFLINE_EVENTS);
    assert_eq!(pin, PINNED_SIM, "SimExecutor exports changed: {pin:#018x?}");
}

#[test]
fn global_executor_exports_are_pinned() {
    let (pin, seen) = offline_pin(|config, run| GlobalExecutor::from_config(config, run).run());
    assert_seen(&seen, &OFFLINE_EVENTS);
    assert_seen(&seen, &["migrated"]);
    assert_eq!(
        pin, PINNED_GLOBAL,
        "GlobalExecutor exports changed: {pin:#018x?}"
    );
}

/// One guarded serving run: engine task 0 overruns every mandatory part
/// tenfold on top of [`faults`] (its tenant walks the ladder to eviction),
/// the set is submitted through the deferring door, and the churn plan
/// adds two late tenants, removes one resident mid-job, re-submits it and
/// names a tenant that does not exist.
fn serve_run(
    tasks: &[TaskSpec],
    topology: Topology,
    unit: Span,
    placement: PlacementPolicy,
    ring: TraceConfig,
) -> ServeOutcome {
    let plan = faults(unit, 2014).with_wcet_fault(WcetFault {
        task: Some(0),
        jobs: JobWindow::ALL,
        target: FaultTarget::Mandatory,
        factor: 10.0,
    });
    let mut mgr = SessionManager::new(
        topology,
        PartitionHeuristic::FirstFitDecreasing,
        AssignmentPolicy::OneByOne,
        run_config(12, plan, true, ring),
    )
    .with_placement_policy(placement)
    .expect("the placement policy is set before any submission")
    .with_guard(GuardConfig::armed());
    for spec in tasks {
        let _ = mgr.submit_or_defer(spec.name(), std::slice::from_ref(spec));
    }
    let at = |tenths: u64| Time::ZERO + unit * tenths / 10;
    let late = |name: &str| vec![task(name, unit.as_nanos() / 1_000_000, 2, 2, 1, 4)];
    let leaver = tasks.last().expect("non-empty shape");
    let churn = ChurnPlan::new()
        .arrive(at(15), "late", late("late"))
        .depart(at(23), leaver.name())
        .arrive(at(30), "late2", late("late2"))
        .arrive(at(31), leaver.name(), vec![leaver.clone()])
        .arrive(at(33), "nothing", Vec::new())
        .depart(at(38), "nobody");
    mgr.run_with_churn(&churn)
}

#[test]
fn session_manager_exports_are_pinned() {
    let mut pin = Pin::new();
    let mut seen = BTreeSet::new();
    let (mut truncated, mut headless) = (0u32, 0u32);
    for (tasks, topology, unit) in shapes() {
        for placement in PlacementPolicy::ALL {
            for ring in RINGS {
                let out = serve_run(&tasks, topology, unit, placement, ring);
                pin.trace(&out.outcome.trace, &out.outcome.metrics);
                pin.slices(&out);
                names(&mut seen, &out.outcome.trace);
                truncated += u32::from(out.outcome.trace.dropped() > 0);
                // A slice of a truncated ring opens with a part's end.
                headless += out
                    .tenants
                    .iter()
                    .filter(|t| {
                        matches!(
                            out.tenant_trace(t.tenant).events().first(),
                            Some((
                                _,
                                TraceEvent::MandatoryCompleted { .. }
                                    | TraceEvent::OptionalEnded { .. }
                                    | TraceEvent::WindupCompleted { .. }
                            ))
                        )
                    })
                    .count() as u32;
            }
        }
    }
    assert!(
        truncated > 0 && headless > 0,
        "{truncated} truncated, {headless} headless"
    );
    assert_seen(&seen, &OFFLINE_EVENTS);
    assert_seen(
        &seen,
        &[
            "tenant_admitted",
            "tenant_rejected",
            "tenant_departed",
            "tenant_shed",
            "tenant_quarantined",
            "tenant_evicted",
            "tenant_recovered",
            "task_quarantined",
            "degraded_entered",
            "degraded_exited",
            "submission_deferred",
            "deferred_admitted",
        ],
    );
    assert_eq!(
        pin, PINNED_SERVE,
        "SessionManager exports changed: {pin:#018x?}"
    );
}

/// `ServeOutcome::tenant_trace` as it was before the slices came from one
/// grouping of the shared trace: a filter over every event, per call.
fn filtered_slice(out: &ServeOutcome, tenant: TenantId) -> Vec<(Time, TraceEvent)> {
    let tasks: &[TaskId] = out
        .tenants
        .iter()
        .find(|t| t.tenant == tenant)
        .map(|t| t.tasks.as_slice())
        .unwrap_or(&[]);
    let ours = |ev: &TraceEvent| match ev {
        TraceEvent::TenantAdmitted { tenant: t, .. }
        | TraceEvent::TenantRejected { tenant: t, .. }
        | TraceEvent::TenantDeparted { tenant: t }
        | TraceEvent::TenantShed { tenant: t }
        | TraceEvent::TenantQuarantined { tenant: t }
        | TraceEvent::TenantEvicted { tenant: t }
        | TraceEvent::TenantRecovered { tenant: t }
        | TraceEvent::DeferredAdmitted { tenant: t, .. } => *t == tenant,
        TraceEvent::PolicyDecision { task, .. } => tasks.contains(task),
        _ => ev.job().is_some_and(|j| tasks.contains(&j.task)),
    };
    let shared = out.outcome.trace.events();
    shared.iter().filter(|(_, ev)| ours(ev)).cloned().collect()
}

#[test]
fn tenant_slices_match_the_filter_they_replaced() {
    let (mut rejected, mut truncated) = (0, 0);
    for (tasks, topology, unit) in shapes() {
        for placement in PlacementPolicy::ALL {
            for ring in RINGS {
                let out = serve_run(&tasks, topology, unit, placement, ring);
                truncated += u32::from(out.outcome.trace.dropped() > 0);
                // Every tenant, in a shuffled order, twice: the first call
                // builds the grouping, the others read it.
                let mut order: Vec<TenantId> = out.tenants.iter().map(|t| t.tenant).collect();
                order.sort_by_key(|t| splitmix64(2014, u64::from(t.0)));
                let mut sliced = 0;
                for &tenant in order.iter().chain(&order) {
                    let slice = out.tenant_trace(tenant);
                    assert_eq!(slice.events(), filtered_slice(&out, tenant), "{tenant}");
                    // A slice of a ring that overflowed says so.
                    assert_eq!(slice.dropped(), out.outcome.trace.dropped(), "{tenant}");
                    sliced += slice.len();
                }
                // An event with a tenant or a job is in exactly one slice.
                let owned = out.outcome.trace.count(|e| {
                    !matches!(
                        e,
                        TraceEvent::SubmissionDeferred { .. }
                            | TraceEvent::CpuStallStarted { .. }
                            | TraceEvent::DegradedModeEntered
                            | TraceEvent::DegradedModeExited
                    )
                });
                assert_eq!(sliced, 2 * owned);
                assert!(out
                    .tenant_trace(TenantId(out.tenants.len() as u32))
                    .is_empty());
                assert!(out.tenant_trace(TenantId(u32::MAX)).is_empty());
                for t in out.tenants.iter().filter(|t| t.tasks.is_empty()) {
                    let slice = out.tenant_trace(t.tenant);
                    let only_rejection = matches!(
                        slice.events(),
                        [(_, TraceEvent::TenantRejected { tenant, .. })] if *tenant == t.tenant
                    );
                    // The rejection itself may have left a truncated ring.
                    assert!(
                        only_rejection || (slice.is_empty() && ring != RINGS[0]),
                        "{slice}"
                    );
                    rejected += u32::from(only_rejection);
                }
            }
        }
    }
    assert!(rejected > 0, "no rejected tenant kept its rejection");
    assert!(truncated > 0, "no run overflowed the 257-event ring");
}

// ── generated traces ────────────────────────────────────────────────────

/// Counter-mode SplitMix64.
struct Rng {
    seed: u64,
    slot: u64,
}

impl Rng {
    fn next(&mut self) -> u64 {
        self.slot += 1;
        splitmix64(self.seed, self.slot)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// Mostly small, sometimes the largest value, sometimes anything.
    fn extreme(&mut self, small: u64, max: u64) -> u64 {
        match self.below(8) {
            0 => max,
            1 => self.next() % max,
            _ => self.below(small),
        }
    }
}

/// Strings for `policy` and `name`: every escape class of the exporter.
const STRINGS: [&str; 8] = [
    "",
    "one-by-one",
    "say \"hi\"",
    "back\\slash",
    "line\nbreak\r\ttab",
    "ctl\u{1}\u{1f}",
    "τ₁ 日本 ✓",
    "\"\\\n\u{1}é",
];

const FACTORS: [f64; 3] = [0.1, 3.0, 1e300];

/// One arbitrary event. Jobs come from the trace's small pools of task ids
/// and job numbers, so starts repeat, ends miss their starts and job
/// numbers arrive in any order.
fn arbitrary_event(rng: &mut Rng, tasks: &[u32], seqs: &[u64]) -> TraceEvent {
    let job = JobId {
        task: TaskId(rng.pick(tasks)),
        seq: rng.pick(seqs),
    };
    let hw = HwThreadId(rng.extreme(4, u64::from(u32::MAX)) as u32);
    let part = PartId(rng.extreme(3, u64::from(u32::MAX)) as u32);
    let tenant = TenantId(rng.extreme(5, u64::from(u32::MAX)) as u32);
    let span = Span::from_nanos(rng.extreme(5_000, u64::MAX));
    let target = rng.pick(&[FaultTarget::Mandatory, FaultTarget::Windup]);
    // Part transitions get half the draws: they drive the slice pairing.
    let variant = if rng.below(2) == 0 {
        rng.below(8)
    } else {
        rng.below(VARIANTS as u64)
    };
    match variant {
        0 => TraceEvent::MandatoryStarted { job, hw },
        1 => TraceEvent::MandatoryCompleted { job },
        2 => TraceEvent::OptionalStarted { job, part, hw },
        3 => TraceEvent::OptionalEnded {
            job,
            part,
            outcome: rng.pick(&[
                OptionalOutcome::Completed,
                OptionalOutcome::Terminated,
                OptionalOutcome::Discarded,
            ]),
            achieved: span,
        },
        4 => TraceEvent::WindupStarted { job },
        5 => TraceEvent::WindupCompleted {
            job,
            deadline_met: rng.below(2) == 0,
        },
        6 => TraceEvent::JobReleased { job },
        7 => TraceEvent::JobBound { job, hw },
        8 => TraceEvent::Queue {
            band: rng.pick(&[
                QueueBand::Hpq,
                QueueBand::Rtq,
                QueueBand::Nrtq,
                QueueBand::Sq,
            ]),
            op: rng.pick(&[QueueOp::Enqueue, QueueOp::Dispatch, QueueOp::Remove]),
            job,
            hw: (rng.below(2) == 0).then_some(hw),
        },
        9 => TraceEvent::TimerArmed {
            job,
            at: Time::from_nanos(rng.extreme(1 << 40, u64::MAX)),
        },
        10 => TraceEvent::OptionalDeadlineExpired { job },
        11 => TraceEvent::TimerCancelled { job },
        12 => TraceEvent::PolicyDecision {
            task: job.task,
            policy: rng.pick(&STRINGS).to_string(),
            parts: part.0,
            distinct_cores: rng.extreme(64, u64::MAX) as usize,
        },
        13 => TraceEvent::Migrated {
            job,
            from: hw,
            to: HwThreadId(part.0),
        },
        14 => TraceEvent::WcetFaultInjected {
            job,
            target,
            factor: rng.pick(&FACTORS),
        },
        15 => TraceEvent::TimerFaultInjected {
            job,
            fault: if rng.below(2) == 0 {
                TimerFault::Delay(span)
            } else {
                TimerFault::Lost
            },
        },
        16 => TraceEvent::CpuStallStarted { hw, duration: span },
        17 => TraceEvent::BudgetCut { job, target },
        18 => TraceEvent::TaskQuarantined { job },
        19 => TraceEvent::DegradedModeEntered,
        20 => TraceEvent::DegradedModeExited,
        21 => TraceEvent::PipelineStage {
            cycle: rng.extreme(1_000, u64::MAX),
            stage: rng.pick(&[
                PipelineStage::Ingest,
                PipelineStage::Analysis,
                PipelineStage::Decide,
            ]),
            part: (rng.below(2) == 0).then_some(part),
        },
        22 => TraceEvent::TenantAdmitted {
            tenant,
            tasks: part.0,
        },
        23 => TraceEvent::TenantRejected {
            tenant,
            reason: rng.pick(&[
                RejectReason::Unschedulable { index: 3 },
                RejectReason::EmptySubmission,
                RejectReason::Quarantined,
                RejectReason::Evicted,
                RejectReason::QueueFull,
                RejectReason::RetryDeadline,
            ]),
        },
        24 => TraceEvent::TenantDeparted { tenant },
        25 => TraceEvent::TenantShed { tenant },
        26 => TraceEvent::TenantQuarantined { tenant },
        27 => TraceEvent::TenantEvicted { tenant },
        28 => TraceEvent::TenantRecovered { tenant },
        29 => TraceEvent::SubmissionDeferred {
            name: rng.pick(&STRINGS).to_string(),
        },
        _ => TraceEvent::DeferredAdmitted {
            tenant,
            waited: span,
        },
    }
}

/// Trace number `index` of the generated family: up to 160 events on
/// non-decreasing timestamps that end at `u64::MAX` in one trace of four.
fn arbitrary_trace(index: u64) -> Trace {
    let mut rng = Rng {
        seed: 0x5eed_0019,
        slot: index << 32,
    };
    // Task ids stop at `u32::MAX - 1`: `TaskId`'s `Display` adds one.
    let tasks: Vec<u32> = (0..1 + rng.below(5))
        .map(|_| rng.extreme(6, u64::from(u32::MAX - 1)) as u32)
        .collect();
    let seqs: Vec<u64> = (0..1 + rng.below(4))
        .map(|_| rng.extreme(4, u64::MAX))
        .collect();
    let len = rng.below(161);
    let saturate = rng.below(4) == 0;
    let mut trace = Trace::new();
    let mut now = 0u64;
    for i in 0..len {
        now = now.saturating_add(match rng.below(4) {
            0 => 0,
            1 => rng.below(1_000),
            2 => rng.below(10_000_000),
            _ => rng.next() >> rng.below(64),
        });
        if saturate && i >= len * 3 / 4 {
            now = u64::MAX;
        }
        trace.record(
            Time::from_nanos(now),
            arbitrary_event(&mut rng, &tasks, &seqs),
        );
    }
    trace
}

/// A registry with a few samples in every histogram the Chrome document
/// summarises (`n == 0` leaves it empty).
fn arbitrary_metrics(n: u64) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for i in 0..n % 4 {
        let span = Span::from_nanos(splitmix64(n, i) >> 30);
        for kind in OverheadKind::ALL {
            m.record_overhead(kind, span);
        }
        m.record_response_time(span * 3);
        m.record_release_jitter(span / 7);
        m.record_qos_level((i as f64 + 1.0) / 4.0);
    }
    m
}

/// Which of the sequences no engine produces a family of traces reached,
/// tracked the way the Chrome exporter's slice pairing is specified: one
/// open start per (job, lane), the mandatory parts seen per job.
#[derive(Debug, Default)]
struct Corners {
    repeated_starts: u32,
    ends_without_start: u32,
    windup_before_mandatory: u32,
    seq_out_of_order: u32,
    slices: u32,
    escaped_strings: u32,
    max_timestamp: u32,
    max_seq: u32,
    max_task: u32,
    factors: [u32; 3],
    bare_events: u32,
}

impl Corners {
    fn note(&mut self, trace: &Trace) {
        // Lane 0 is the mandatory part, 1 the wind-up, 2 + k optional part k.
        let mut open: HashSet<(JobId, u64)> = HashSet::new();
        let mut mandatory: HashSet<JobId> = HashSet::new();
        let mut last_seq: Vec<(TaskId, u64)> = Vec::new();
        let mut start = |open: &mut HashSet<(JobId, u64)>, key| {
            self.repeated_starts += u32::from(!open.insert(key));
        };
        for (t, e) in trace.events() {
            self.max_timestamp += u32::from(t.as_nanos() == u64::MAX);
            if let Some(job) = e.job() {
                self.max_seq += u32::from(job.seq == u64::MAX);
                self.max_task += u32::from(job.task.0 == u32::MAX - 1);
            }
            match e {
                TraceEvent::MandatoryStarted { job, .. } => {
                    start(&mut open, (*job, 0));
                    mandatory.insert(*job);
                    match last_seq.iter_mut().find(|(task, _)| *task == job.task) {
                        Some((_, last)) => {
                            self.seq_out_of_order += u32::from(job.seq < *last);
                            *last = job.seq;
                        }
                        None => last_seq.push((job.task, job.seq)),
                    }
                }
                TraceEvent::OptionalStarted { job, part, .. } => {
                    start(&mut open, (*job, 2 + u64::from(part.0)));
                }
                TraceEvent::WindupStarted { job } => {
                    start(&mut open, (*job, 1));
                    self.windup_before_mandatory += u32::from(!mandatory.contains(job));
                }
                TraceEvent::MandatoryCompleted { job }
                | TraceEvent::WindupCompleted { job, .. }
                | TraceEvent::OptionalEnded { job, .. } => {
                    let lane = match e {
                        TraceEvent::MandatoryCompleted { .. } => 0,
                        TraceEvent::OptionalEnded { part, .. } => 2 + u64::from(part.0),
                        _ => 1,
                    };
                    if open.remove(&(*job, lane)) {
                        self.slices += 1;
                    } else {
                        self.ends_without_start += 1;
                    }
                }
                TraceEvent::PolicyDecision { policy: s, .. }
                | TraceEvent::SubmissionDeferred { name: s } => {
                    self.escaped_strings +=
                        u32::from(s.chars().any(|c| c == '"' || c == '\\' || c < ' '));
                }
                TraceEvent::WcetFaultInjected { factor, .. } => {
                    if let Some(i) = FACTORS.iter().position(|f| f == factor) {
                        self.factors[i] += 1;
                    }
                }
                TraceEvent::DegradedModeEntered | TraceEvent::DegradedModeExited => {
                    self.bare_events += 1;
                }
                _ => {}
            }
        }
    }

    fn assert_all(&self) {
        let counts = [
            self.repeated_starts,
            self.ends_without_start,
            self.windup_before_mandatory,
            self.seq_out_of_order,
            self.slices,
            self.escaped_strings,
            self.max_timestamp,
            self.max_seq,
            self.max_task,
            self.factors[0],
            self.factors[1],
            self.factors[2],
            self.bare_events,
        ];
        assert!(
            counts.iter().all(|&n| n > 0),
            "a corner was not reached: {self:?}"
        );
    }
}

#[test]
fn arbitrary_event_sequences_are_pinned() {
    let mut pin = Pin::new();
    let mut seen = BTreeSet::new();
    let mut corners = Corners::default();
    let mut empty = 0;
    for index in 0..1_000 {
        let trace = arbitrary_trace(index);
        pin.trace(&trace, &arbitrary_metrics(index));
        names(&mut seen, &trace);
        corners.note(&trace);
        empty += u32::from(trace.is_empty());
    }
    assert_eq!(seen.len(), VARIANTS, "{seen:?}");
    assert!(empty > 0, "no empty trace");
    corners.assert_all();
    assert_eq!(
        pin, PINNED_ARBITRARY,
        "exports of generated traces changed: {pin:#018x?}"
    );
}

// ── every variant once, readable ────────────────────────────────────────

/// One job of τ3 from release to wind-up with every event kind that can
/// surround it, then the supervisor, pipeline and serving-layer events.
fn every_event() -> Trace {
    let job = JobId {
        task: TaskId(2),
        seq: 7,
    };
    let tenant = TenantId(3);
    let events = [
        TraceEvent::TenantAdmitted { tenant, tasks: 1 },
        TraceEvent::PolicyDecision {
            task: job.task,
            policy: "one-by-one \"τ\"".into(),
            parts: 2,
            distinct_cores: 2,
        },
        TraceEvent::JobReleased { job },
        TraceEvent::JobBound {
            job,
            hw: HwThreadId(1),
        },
        TraceEvent::Queue {
            band: QueueBand::Rtq,
            op: QueueOp::Enqueue,
            job,
            hw: Some(HwThreadId(1)),
        },
        TraceEvent::CpuStallStarted {
            hw: HwThreadId(1),
            duration: Span::from_nanos(1_500),
        },
        TraceEvent::WcetFaultInjected {
            job,
            target: FaultTarget::Mandatory,
            factor: 2.5,
        },
        TraceEvent::MandatoryStarted {
            job,
            hw: HwThreadId(1),
        },
        TraceEvent::BudgetCut {
            job,
            target: FaultTarget::Mandatory,
        },
        TraceEvent::MandatoryCompleted { job },
        TraceEvent::TimerFaultInjected {
            job,
            fault: TimerFault::Delay(Span::from_nanos(250)),
        },
        TraceEvent::TimerArmed {
            job,
            at: Time::from_nanos(9_000),
        },
        TraceEvent::OptionalStarted {
            job,
            part: PartId(0),
            hw: HwThreadId(2),
        },
        TraceEvent::Migrated {
            job,
            from: HwThreadId(2),
            to: HwThreadId(3),
        },
        TraceEvent::PipelineStage {
            cycle: 7,
            stage: PipelineStage::Analysis,
            part: Some(PartId(0)),
        },
        TraceEvent::OptionalDeadlineExpired { job },
        TraceEvent::OptionalEnded {
            job,
            part: PartId(0),
            outcome: OptionalOutcome::Terminated,
            achieved: Span::from_nanos(4_321),
        },
        TraceEvent::TimerCancelled { job },
        TraceEvent::WindupStarted { job },
        TraceEvent::WindupCompleted {
            job,
            deadline_met: true,
        },
        TraceEvent::TaskQuarantined { job },
        TraceEvent::DegradedModeEntered,
        TraceEvent::DegradedModeExited,
        TraceEvent::TenantShed { tenant },
        TraceEvent::TenantQuarantined { tenant },
        TraceEvent::TenantRecovered { tenant },
        TraceEvent::TenantEvicted { tenant },
        TraceEvent::TenantDeparted { tenant },
        TraceEvent::SubmissionDeferred {
            name: "desk\\9\n".into(),
        },
        TraceEvent::DeferredAdmitted {
            tenant: TenantId(4),
            waited: Span::from_nanos(150_000_000),
        },
        TraceEvent::TenantRejected {
            tenant: TenantId(5),
            reason: RejectReason::QueueFull,
        },
    ];
    let mut trace = Trace::new();
    for (i, event) in events.into_iter().enumerate() {
        trace.record(Time::from_nanos(1_000 + 617 * i as u64), event);
    }
    trace
}

fn assert_golden(file: &str, got: &str) {
    let path = format!("{}/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("RTSEED_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden export");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with RTSEED_REGEN_GOLDEN=1");
    assert_eq!(got, golden, "{file} changed (see tests/golden/README.md)");
}

#[test]
fn every_event_matches_the_checked_in_exports() {
    let trace = every_event();
    let mut seen = BTreeSet::new();
    names(&mut seen, &trace);
    assert_eq!(seen.len(), VARIANTS, "{seen:?}");
    assert_eq!(trace.len(), VARIANTS, "a variant appears twice");
    assert_golden("export_every_event.jsonl", &export::jsonl(&trace));
    assert_golden(
        "export_every_event.chrome.json",
        &export::chrome_trace(&trace, &arbitrary_metrics(3)),
    );
}

/// Recorded at the commit before the exporters were rewritten.
const PINNED_SIM: Pin = Pin {
    jsonl: 0x00f7_0c25_f83b_a358,
    chrome: 0x41a8_38ce_c900_2c7b,
    slices: FNV_OFFSET,
};
const PINNED_GLOBAL: Pin = Pin {
    jsonl: 0x6c01_11d2_7bb9_4b16,
    chrome: 0x8333_7f3a_f410_4007,
    slices: FNV_OFFSET,
};
const PINNED_SERVE: Pin = Pin {
    jsonl: 0xe28d_0a7d_670c_0eac,
    chrome: 0x52e6_efd8_c375_05d8,
    slices: 0xbbfe_c644_f2ca_83b5,
};
const PINNED_ARBITRARY: Pin = Pin {
    jsonl: 0xfc0e_20a0_3a30_c030,
    chrome: 0x2403_9952_da7f_7476,
    slices: FNV_OFFSET,
};
