//! Differential tests for incremental admission control: an
//! [`AdmissionEngine`] with its per-CPU [`RtaCache`] must be
//! *observationally identical* to full recomputation — same decisions,
//! same OD updates, same state — across arbitrary interleavings of
//! admissions, evictions, and OD updates, and its memoised fixpoints must
//! always equal what a fresh [`RmwpAnalysis`] of each CPU's residents
//! would produce.
//!
//! [`RtaCache`]: rtseed_analysis::RtaCache

use std::collections::BTreeMap;

use proptest::prelude::*;
use rtseed_analysis::rmwp::RmwpAnalysis;
use rtseed_analysis::{AdmissionDecision, AdmissionEngine, PartitionHeuristic, TaskKey};
use rtseed_model::{Span, TaskId, TaskSet, TaskSpec};

/// A small palette of schedulable shapes; (period, mandatory, windup) in
/// milliseconds. Mixed periods exercise the RM ordering, mixed weights
/// exercise rejection and OD shrink/growth.
const PALETTE: [(u64, u64, u64); 6] = [
    (50, 2, 2),
    (100, 5, 5),
    (100, 15, 15),
    (200, 10, 10),
    (400, 40, 40),
    (100, 30, 30), // 0.6 utilization: at most one per CPU
];

fn spec_from_palette(name: &str, shape: usize) -> TaskSpec {
    let (t, m, w) = PALETTE[shape % PALETTE.len()];
    TaskSpec::builder(name)
        .period(Span::from_millis(t))
        .mandatory(Span::from_millis(m))
        .windup(Span::from_millis(w))
        .build()
        .unwrap()
}

/// One step of an interleaving, driven by proptest-chosen indices.
#[derive(Debug, Clone)]
enum Op {
    /// Admit a batch of 1–3 tasks with the given palette shapes.
    Admit(Vec<usize>),
    /// Evict the (i mod live)-th live tenant's keys.
    Evict(usize),
    /// Re-shape the (i mod live)-th live task to the given palette entry.
    OdUpdate(usize, usize),
}

/// Decodes a raw proptest tuple into an op. `kind` is weighted 3:1:1
/// toward admissions so interleavings build up real populations.
fn decode_op((kind, a, b): (usize, usize, usize)) -> Op {
    match kind {
        0 => Op::Admit(vec![b]),
        1 => Op::Admit(vec![b, a % PALETTE.len()]),
        2 => Op::Admit(vec![a % PALETTE.len(), b, (a + b) % PALETTE.len()]),
        3 => Op::Evict(a),
        _ => Op::OdUpdate(a, b),
    }
}

/// The raw strategy behind [`decode_op`].
fn raw_ops(
    max: usize,
) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0usize..5, 0usize..16, 0usize..PALETTE.len()), 1..max)
}

/// Asserts the two decisions are equal in every observable field.
fn assert_same_decision(a: &AdmissionDecision, b: &AdmissionDecision) {
    match (a, b) {
        (AdmissionDecision::Admitted(x), AdmissionDecision::Admitted(y)) => {
            assert_eq!(x.tasks, y.tasks, "admitted placements/ODs diverged");
            assert_eq!(x.od_updates, y.od_updates, "OD deltas diverged");
        }
        (AdmissionDecision::Rejected(x), AdmissionDecision::Rejected(y)) => {
            assert_eq!(format!("{x}"), format!("{y}"), "rejection reasons diverged");
        }
        (AdmissionDecision::NeedsFullRecompute { key: x }, AdmissionDecision::NeedsFullRecompute { key: y }) => {
            assert_eq!(x, y);
        }
        (a, b) => panic!("decision kinds diverged: {a:?} vs {b:?}"),
    }
}

/// Each resident's spec by key, as the test admitted or updated it: the
/// engine keeps only the numbers its analysis reads.
type Specs = BTreeMap<TaskKey, TaskSpec>;

/// The core cache invariant: for every CPU, the memoised fixpoints — the
/// optional deadlines the engine hands out *and* the mandatory and wind-up
/// response times its next probe starts from — equal what a fresh
/// `RmwpAnalysis` of exactly that CPU's residents produces (priorities
/// induced by the same (period, key) order the engine commits).
fn assert_cache_matches_fresh_analysis(eng: &AdmissionEngine, specs: &Specs) {
    for cpu in 0..eng.hw_threads() {
        let residents: Vec<(TaskKey, TaskSpec)> = eng
            .residents_on(cpu)
            .map(|k| (k, specs[&k].clone()))
            .collect();
        let cached = eng
            .cache()
            .fixpoints(cpu)
            .expect("a caching engine keeps every CPU primed");
        for column in [
            &cached.optional_deadlines,
            &cached.mandatory_responses,
            &cached.windup_responses,
        ] {
            assert_eq!(column.len(), residents.len(), "cpu {cpu}: stale entry count");
        }
        assert_eq!(eng.cache().optional_deadlines(cpu), Some(&cached.optional_deadlines[..]));
        if residents.is_empty() {
            continue;
        }
        // Reproduce the committed priority order through the public
        // analysis API: sort by (period, admission key), analyze, and map
        // each OD back to the resident's bin position.
        let mut order: Vec<usize> = (0..residents.len()).collect();
        order.sort_by(|&a, &b| {
            residents[a]
                .1
                .period()
                .cmp(&residents[b].1.period())
                .then(residents[a].0.cmp(&residents[b].0))
        });
        let set = TaskSet::new(order.iter().map(|&i| residents[i].1.clone()).collect())
            .expect("non-empty resident set");
        let induced: Vec<TaskId> = (0..residents.len() as u32).map(TaskId).collect();
        let fresh = RmwpAnalysis::analyze_with_order(&set, induced)
            .expect("resident bins are schedulable by construction");
        for (rank, &bin_pos) in order.iter().enumerate() {
            let id = TaskId(rank as u32);
            assert_eq!(
                cached.optional_deadlines[bin_pos],
                fresh.optional_deadline(id),
                "cpu {cpu}, resident {bin_pos}: cached OD diverged from fresh RTA"
            );
            assert_eq!(
                cached.mandatory_responses[bin_pos],
                fresh.mandatory_response(id),
                "cpu {cpu}, resident {bin_pos}: cached R^m diverged from fresh RTA"
            );
            assert_eq!(
                cached.windup_responses[bin_pos],
                fresh.windup_response(id),
                "cpu {cpu}, resident {bin_pos}: cached R^w diverged from fresh RTA"
            );
        }
    }
}

/// Replays one op stream on a caching engine and a full-recompute
/// baseline in lockstep, checking equivalence after every step.
fn run_differential(ops: &[Op], cpus: usize, heuristic: PartitionHeuristic) {
    let mut cached = AdmissionEngine::new(cpus, heuristic);
    let mut full = AdmissionEngine::new(cpus, heuristic).without_cache();
    // Tenants admitted and not yet evicted, as (keys) batches.
    let mut live: Vec<Vec<TaskKey>> = Vec::new();
    let mut specs = Specs::new();
    let mut serial = 0u64;
    for op in ops {
        match op {
            Op::Admit(shapes) => {
                let tasks: Vec<TaskSpec> = shapes
                    .iter()
                    .map(|&s| {
                        serial += 1;
                        spec_from_palette(&format!("t{serial}"), s)
                    })
                    .collect();
                let a = cached.try_admit(&tasks);
                let b = full.try_admit(&tasks);
                assert_same_decision(&a, &b);
                if let AdmissionDecision::Admitted(adm) = a {
                    live.push(adm.tasks.iter().map(|t| t.key).collect());
                    specs.extend(adm.tasks.iter().map(|t| t.key).zip(tasks));
                }
            }
            Op::Evict(i) => {
                if live.is_empty() {
                    continue;
                }
                let keys = live.remove(i % live.len());
                let a = cached.evict(&keys);
                let b = full.evict(&keys);
                assert_eq!(a, b, "eviction OD growth diverged");
                for key in &keys {
                    specs.remove(key);
                }
            }
            Op::OdUpdate(i, shape) => {
                if live.is_empty() {
                    continue;
                }
                let batch = &live[i % live.len()];
                let key = batch[0];
                serial += 1;
                let spec = spec_from_palette(&format!("u{serial}"), *shape);
                let a = cached.od_update(key, &spec);
                let b = full.od_update(key, &spec);
                assert_same_decision(&a, &b);
                if a.is_admitted() {
                    specs.insert(key, spec);
                }
            }
        }
        assert_eq!(cached.resident_tasks(), full.resident_tasks());
        assert!(
            (cached.total_utilization() - full.total_utilization()).abs() < 1e-12,
            "utilization bookkeeping diverged"
        );
        assert_cache_matches_fresh_analysis(&cached, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: across arbitrary admit/evict/OD-update
    /// interleavings, the incremental engine and a full-recompute
    /// baseline return identical decisions and identical OD deltas, and
    /// after every operation the per-CPU cache equals a fresh RMWP
    /// analysis of exactly that CPU's residents.
    #[test]
    fn incremental_admission_equals_full_recompute(
        raw in raw_ops(24),
        cpus in 1usize..6,
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        run_differential(&ops, cpus, PartitionHeuristic::WorstFitDecreasing);
    }

    /// Same property under first-fit packing (different touch patterns:
    /// first-fit concentrates churn on low-index CPUs).
    #[test]
    fn incremental_admission_equals_full_recompute_ffd(raw in raw_ops(24)) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        run_differential(&ops, 4, PartitionHeuristic::FirstFitDecreasing);
    }
}

/// Deterministic spot-check kept outside proptest so a regression names
/// itself without shrinking: a heavy resident forces rejections, an
/// eviction re-opens the CPU, and both engines agree at every step.
#[test]
fn reject_evict_readmit_cycle_stays_equivalent() {
    let ops = vec![
        Op::Admit(vec![5, 5]), // two 0.6-util heavies
        Op::Admit(vec![5]),    // third heavy: rejected on a 2-CPU box
        Op::Evict(0),
        Op::Admit(vec![5]),    // now it fits again
        Op::OdUpdate(0, 1),    // reshape a survivor in place
    ];
    run_differential(&ops, 2, PartitionHeuristic::WorstFitDecreasing);
}

/// Eviction may not warm-start. With `hi` on the CPU, `lo`'s wind-up
/// response is the fixpoint of 3 + 2·⌈R/6⌉ + ⌈R/2⌉, 18 ms. Without it the
/// function is 3 + 2·⌈R/6⌉, whose least fixpoint is 5 — but 7 is a fixpoint
/// too, and the iteration started from the cached 18 walks *down*, 9 → 7,
/// and stops there. Re-admission then warm-starts from what eviction left.
#[test]
fn eviction_resolves_survivors_from_their_costs() {
    let ms = |name: &str, t, m, w| {
        TaskSpec::builder(name)
            .period(Span::from_millis(t))
            .mandatory(Span::from_millis(m))
            .windup(Span::from_millis(w))
            .build()
            .unwrap()
    };
    let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
    let mut specs = Specs::new();
    let admit = |eng: &mut AdmissionEngine, specs: &mut Specs, spec: TaskSpec| {
        let a = eng
            .try_admit(std::slice::from_ref(&spec))
            .admitted()
            .unwrap();
        specs.insert(a.tasks[0].key, spec);
        a.tasks[0].clone()
    };
    let hi = admit(&mut eng, &mut specs, ms("hi", 2, 1, 0));
    admit(&mut eng, &mut specs, ms("mid", 6, 1, 1));
    let lo = admit(&mut eng, &mut specs, ms("lo", 24, 1, 3));
    assert_eq!(lo.optional_deadline, Span::from_millis(24 - 18));
    assert_cache_matches_fresh_analysis(&eng, &specs);
    let grown = eng.evict(&[hi.key]);
    assert_eq!(grown.len(), 2, "both survivors' optional deadlines grow");
    assert_eq!(grown[1].optional_deadline, Span::from_millis(24 - 5));
    assert_cache_matches_fresh_analysis(&eng, &specs);
    admit(&mut eng, &mut specs, ms("hi", 2, 1, 0));
    assert_cache_matches_fresh_analysis(&eng, &specs);
}
