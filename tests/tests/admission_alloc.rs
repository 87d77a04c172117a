//! An admission decision allocates only its answer. On a warmed
//! `AdmissionEngine` — one whose bins, columns and engine-owned scratch have
//! already grown to the size a call needs — a rejected `try_admit`
//! allocates nothing, an admitted one only the two vectors of its
//! `Admission`, and an eviction only the vector of OD deltas it returns.
//! The serving layer adds at most three vectors a bind (the binding list,
//! the optional parts' placements and their demands) and nothing of its own
//! a departure. Below the serving layer, a simulated run over a warmed
//! `SimArena` allocates the same whatever its number of jobs: what it
//! measures is kept in fixed-size histograms, not a sample a job.
//!
//! An integration test is its own binary, so it can install its own
//! counting allocator; calls are counted per thread, and each test counts
//! on the thread that runs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtseed::serve::SessionManager;
use rtseed::{AssignmentPolicy, RunConfig, SimArena, SimExecutor, SystemConfig};
use rtseed_analysis::{
    AdmissionDecision, AdmissionEngine, PartitionHeuristic, PlacementKind, PlacementPolicy,
};
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};
use rtseed_sim::OverheadKind;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor sees a torn-down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
    TaskSpec::builder(name)
        .period(Span::from_millis(period_ms))
        .mandatory(Span::from_millis(m_ms))
        .windup(Span::from_millis(w_ms))
        .build()
        .unwrap()
}

/// Four hardware threads, each holding four tasks of mixed periods at
/// utilization 0.55, so a newcomer of a short period lands above residents
/// whose optional deadlines it shrinks, and a heavy one fits nowhere.
fn loaded(policy: PlacementPolicy) -> AdmissionEngine {
    let mut eng =
        AdmissionEngine::new(4, PartitionHeuristic::WorstFitDecreasing).with_placement(policy);
    for i in 0..4 {
        for (t, m, w) in [(50, 5, 5), (100, 5, 5), (200, 10, 10), (400, 10, 10)] {
            let spec = task(&format!("r{i}_{t}"), t, m, w);
            assert!(eng.try_admit(std::slice::from_ref(&spec)).is_admitted());
        }
    }
    eng
}

#[test]
fn a_rejected_decision_allocates_nothing() {
    for policy in PlacementPolicy::ALL {
        let mut eng = loaded(policy);
        // One task that fits nowhere, and a batch whose first task places
        // before its second fails: the rollback path.
        let hopeless = [task("big", 100, 40, 40)];
        let partial = [task("fits", 1000, 10, 10), task("big", 100, 40, 40)];
        for batch in [&hopeless[..], &partial[..]] {
            assert!(!eng.try_admit(batch).is_admitted(), "{policy}");
            let before = eng.cache().fixpoints(0).cloned();
            let (decision, allocs) = allocations_of(|| eng.try_admit(batch));
            assert!(
                matches!(decision, AdmissionDecision::Rejected(_)),
                "{policy}: {decision:?}"
            );
            assert_eq!(allocs, 0, "{policy}: a rejection of {} tasks", batch.len());
            assert_eq!(eng.cache().fixpoints(0).cloned(), before);
        }
        // Some probes were refused without a walk, some walked and failed.
        assert!(eng.cache().total_hits() > 0, "{policy}");
    }
}

#[test]
fn an_admission_allocates_only_its_answer() {
    let mut eng = loaded(PlacementPolicy::Partitioned);
    let spec = [task("fast", 20, 1, 1)];
    // The first round grows what a second one reuses.
    let first = eng.try_admit(&spec).admitted().unwrap();
    eng.evict(&[first.tasks[0].key]);
    let (decision, allocs) = allocations_of(|| eng.try_admit(&spec));
    let admission = decision.admitted().unwrap();
    assert!(
        !admission.od_updates.is_empty(),
        "the newcomer sorts above residents and shrinks their ODs"
    );
    assert_eq!(allocs, 2, "the placements and the OD deltas");
    let (grown, allocs) = allocations_of(|| eng.evict(&[admission.tasks[0].key]));
    assert_eq!(grown.len(), admission.od_updates.len());
    assert_eq!(allocs, 1, "the OD deltas");
    // Nothing to report allocates nothing.
    let (grown, allocs) = allocations_of(|| eng.evict(&[admission.tasks[0].key]));
    assert!(grown.is_empty());
    assert_eq!(allocs, 0);
}

#[test]
fn a_split_admission_allocates_only_its_answer() {
    // Two 0.7-utilization residents own both CPUs; a 0.6 task fits
    // neither whole and splits across them.
    let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
        .with_placement(PlacementPolicy::SemiPartitioned);
    for name in ["r0", "r1"] {
        assert!(eng.try_admit(&[task(name, 400, 280, 0)]).is_admitted());
    }
    let big = [task("big", 100, 60, 0)];
    let first = eng.try_admit(&big).admitted().unwrap();
    eng.evict(&[first.tasks[0].key]);
    let (decision, allocs) = allocations_of(|| eng.try_admit(&big));
    let admission = decision.admitted().unwrap();
    assert!(matches!(
        admission.tasks[0].kind,
        PlacementKind::Split { .. }
    ));
    assert!(allocs <= 2, "{allocs} allocations");
}

/// One small task a tenant: 512 of them fit on eight hardware threads.
fn tenant_task(i: usize) -> TaskSpec {
    TaskSpec::builder(format!("t{i}"))
        .period(Span::from_millis(1000 + i as u64))
        .mandatory(Span::from_micros(500))
        .windup(Span::from_micros(500))
        .optional_parts(2, Span::from_millis(1))
        .build()
        .unwrap()
}

#[test]
fn a_bind_and_a_departure_allocate_a_bounded_few() {
    const TENANTS: usize = 512;
    let mut mgr = SessionManager::new(
        Topology::quad_core_smt2(),
        PartitionHeuristic::WorstFitDecreasing,
        AssignmentPolicy::OneByOne,
        RunConfig {
            jobs: 1,
            ..RunConfig::default()
        },
    );
    let tasks: Vec<[TaskSpec; 1]> = (0..TENANTS).map(|i| [tenant_task(i)]).collect();
    let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant{i}")).collect();
    let mut submit_allocs = 0;
    for (name, tasks) in names.iter().zip(&tasks) {
        let name = name.clone();
        let (admitted, allocs) = allocations_of(|| mgr.submit(name, tasks));
        admitted.expect("every tenant fits");
        submit_allocs += allocs;
    }
    let (_, depart_allocs) = allocations_of(|| {
        for name in &names {
            mgr.try_depart(name).expect("admitted");
        }
    });
    // A submission: the admission's one or two vectors, then a bind's
    // three. The session's tables grow by doubling, which adds a few
    // allocations over the whole run, not per tenant (≈ 4.7 here).
    let per_submission = submit_allocs as f64 / TENANTS as f64;
    assert!(
        per_submission <= 5.0,
        "{per_submission} allocations a submission"
    );
    // A departure: the eviction's OD deltas, plus the engine's scratch
    // growing to the largest re-solve seen so far (≈ 1.02 here).
    let per_departure = depart_allocs as f64 / TENANTS as f64;
    assert!(
        per_departure <= 1.5,
        "{per_departure} allocations a departure"
    );
}

#[test]
fn a_sim_run_allocates_the_same_for_any_number_of_jobs() {
    // The paper's always-overrunning task: every job samples all four
    // overheads.
    let task = TaskSpec::builder("τ1")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(8, Span::from_secs(1))
        .build()
        .unwrap();
    let config = SystemConfig::build(
        TaskSet::new(vec![task]).unwrap(),
        Topology::quad_core_smt2(),
        AssignmentPolicy::OneByOne,
    )
    .unwrap();
    let executor = |jobs| {
        SimExecutor::new(
            config.clone(),
            RunConfig {
                jobs,
                ..RunConfig::default()
            },
        )
    };
    let (short, long) = (executor(1_000), executor(4_000));
    let mut arena = SimArena::new();
    // Warm the arena on the longer run, so neither counted run grows it.
    long.run_in(&mut arena);
    let (short_out, short_allocs) = allocations_of(|| short.run_in(&mut arena));
    let (long_out, long_allocs) = allocations_of(|| long.run_in(&mut arena));
    assert_eq!(short_out.overheads.count(OverheadKind::EndOptional), 1_000);
    assert_eq!(long_out.overheads.count(OverheadKind::EndOptional), 4_000);
    assert_eq!(
        short_allocs, long_allocs,
        "1 000 jobs allocate {short_allocs}, 4 000 jobs {long_allocs}"
    );
}
