//! Chaos tests: tenant churn composed with fault injection against the
//! guarded serving layer.
//!
//! The properties under test are the serving layer's isolation
//! guarantees: (a) an adversarial tenant overrunning 10× its declared
//! WCET causes zero mandatory deadline misses for well-behaved tenants
//! while itself walking the shed → quarantine → evict ladder, (b) the
//! whole chaos scenario replays byte-identically, and (c) capacity freed
//! by an eviction is re-offered to deferred submissions.

use proptest::prelude::*;
use rtseed::obs::{export, TraceConfig};
use rtseed::serve::{GuardConfig, LadderRung, ServeOutcome, SessionManager};
use rtseed::{AssignmentPolicy, RunConfig};
use rtseed_analysis::PartitionHeuristic;
use rtseed_model::{Span, TaskSpec, TenantState, Topology};
use rtseed_sim::ChaosPlan;

fn light(name: &str) -> TaskSpec {
    TaskSpec::builder(name)
        .period(Span::from_millis(100))
        .mandatory(Span::from_millis(10))
        .windup(Span::from_millis(10))
        .optional_parts(2, Span::from_millis(20))
        .build()
        .unwrap()
}

/// Utilization 0.6: at most one per hardware thread.
fn heavy(name: &str) -> TaskSpec {
    TaskSpec::builder(name)
        .period(Span::from_millis(100))
        .mandatory(Span::from_millis(30))
        .windup(Span::from_millis(30))
        .optional_parts(1, Span::from_millis(10))
        .build()
        .unwrap()
}

/// The canonical scenario: an adversary whose every job overruns its
/// mandatory part 10×, plus `n` well-behaved single-task tenants
/// arriving in a seeded storm over the first 300 ms.
fn adversarial_run(seed: u64, n: usize, jobs: u64, guard: GuardConfig) -> ServeOutcome {
    let plan = ChaosPlan::adversarial_storm(
        seed,
        vec![light("adv")],
        10.0,
        n,
        Span::from_millis(300),
        |i| vec![light(&format!("g{i}"))],
    );
    SessionManager::new(
        Topology::quad_core_smt2(),
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs,
            trace: TraceConfig::enabled(),
            fault_plan: plan.faults.clone(),
            ..RunConfig::default()
        },
    )
    .with_guard(guard)
    .run_with_churn(&plan.churn)
}

/// Deterministic fixed-seed walk of the full ladder, with every
/// escalation visible in both the counters and the adversary's scoped
/// trace.
#[test]
fn adversary_walks_shed_quarantine_evict() {
    let out = adversarial_run(17, 6, 20, GuardConfig::armed());
    assert_eq!(out.counters.sheds, 1);
    assert_eq!(out.counters.quarantines, 1);
    assert_eq!(out.counters.evictions, 1);
    let adv = out.tenant("adversary").unwrap();
    assert_eq!(adv.state, TenantState::Evicted);
    assert_eq!(adv.guard.rung, LadderRung::Evicted);
    assert_eq!(adv.guard.transitions, 3);
    use rtseed::obs::TraceEvent;
    let tr = out.tenant_trace(adv.tenant);
    for (count, pred) in [
        (1, TraceEvent::TenantShed { tenant: adv.tenant }),
        (1, TraceEvent::TenantQuarantined { tenant: adv.tenant }),
        (1, TraceEvent::TenantEvicted { tenant: adv.tenant }),
    ] {
        assert_eq!(tr.count(|e| *e == pred), count, "{pred:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Isolation: whatever the storm looks like, no well-behaved
    /// admitted tenant misses a single deadline while the adversary
    /// overruns 10×, and the adversary is the only tenant the ladder
    /// touches.
    #[test]
    fn adversary_never_starves_well_behaved_tenants(seed in 0u64..200) {
        let out = adversarial_run(seed, 8, 12, GuardConfig::armed());
        let adv = out.tenant("adversary").unwrap();
        prop_assert_eq!(adv.state, TenantState::Evicted);
        for t in &out.tenants {
            if t.name == "adversary" {
                continue;
            }
            // Well-behaved tenants never climb the ladder...
            prop_assert_eq!(t.guard.rung, LadderRung::Normal, "{}", t.name);
            prop_assert_eq!(t.guard.strikes, 0, "{}", t.name);
            // ...and every admitted one runs its full quota clean.
            if t.state == TenantState::Admitted {
                prop_assert_eq!(t.qos.deadline_misses(), 0, "{}", t.name);
                prop_assert_eq!(t.qos.jobs(), 12, "{}", t.name);
            }
        }
    }

    /// (b) Replay: the composed chaos scenario is a pure function of its
    /// seed — two runs agree byte-for-byte on the exported trace, and on
    /// every counter and histogram.
    #[test]
    fn chaos_replay_is_byte_identical(seed in 0u64..100) {
        let x = adversarial_run(seed, 6, 8, GuardConfig::armed());
        let y = adversarial_run(seed, 6, 8, GuardConfig::armed());
        prop_assert_eq!(export::jsonl(&x.outcome.trace), export::jsonl(&y.outcome.trace));
        prop_assert_eq!(x.counters, y.counters);
        prop_assert_eq!(x.deferred_latency, y.deferred_latency);
        prop_assert_eq!(x.outcome.qos, y.outcome.qos);
        for (a, b) in x.tenants.iter().zip(&y.tenants) {
            prop_assert_eq!(a.state, b.state);
            prop_assert_eq!(a.guard, b.guard);
        }
    }

    /// (c) Re-offer: a heavy tenant deferred for capacity is admitted
    /// once the adversary hogging that capacity is evicted.
    #[test]
    fn evicted_capacity_reaches_deferred_submissions(seed in 0u64..100) {
        // Uniprocessor: the adversary's heavy task owns the only thread,
        // so the deferred heavy tenant can only enter through eviction.
        let plan = ChaosPlan::adversarial_storm(
            seed,
            vec![heavy("adv")],
            10.0,
            1,
            Span::from_millis(50),
            |i| vec![heavy(&format!("g{i}"))],
        );
        // One overrun strike a job: the adversary's tenth job brings the
        // tenth strike and eviction in its tenth period (≈ 0.92 s in),
        // inside the deferral's 1 s retry deadline, so it needs at least
        // 10 jobs.
        let out = SessionManager::new(
            Topology::uniprocessor(),
            PartitionHeuristic::FirstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 12,
                fault_plan: plan.faults.clone(),
                ..RunConfig::default()
            },
        )
        .with_guard(GuardConfig::armed())
        .run_with_churn(&plan.churn);
        prop_assert_eq!(out.counters.evictions, 1);
        prop_assert_eq!(out.counters.deferred_submissions, 1);
        prop_assert_eq!(out.counters.deferred_admissions, 1);
        prop_assert!(!out.deferred_latency.is_empty());
        let late = out.tenant("s0").unwrap();
        prop_assert_eq!(late.state, TenantState::Admitted);
        prop_assert_eq!(late.qos.jobs(), 12);
        prop_assert_eq!(late.qos.deadline_misses(), 0);
    }
}
