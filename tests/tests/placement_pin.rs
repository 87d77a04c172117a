//! Pins what offline placement decides, so a change to the placer that
//! is meant to keep behaviour can be checked against one constant.
//!
//! [`SystemConfig::build_with_placement`] runs over 1000 seeded task sets
//! × 3 heuristics × 3 placement policies × 2 topologies, and everything
//! the build decides — hardware thread, split secondary, granted core and
//! optional deadline per task, resident list per hardware thread, or the
//! task that did not fit — is folded into one FNV-1a fingerprint. The
//! sets mix split bait, federation bait and tasks just above the RM-US
//! threshold, so that the deployed priority order (HPQ tasks first)
//! differs from Rate Monotonic and decides outcomes.
//!
//! A second, independent check re-analyses every accepted partitioned
//! configuration with the public [`RmwpAnalysis::analyze_with_order`]
//! under the [`PriorityMap`](rtseed::priority::PriorityMap) order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtseed::config::{ConfigError, SystemConfig};
use rtseed::policy::AssignmentPolicy;
use rtseed_analysis::rmwp::RmwpAnalysis;
use rtseed_analysis::{Partition, PartitionError, PartitionHeuristic, PlacementPolicy};
use rtseed_model::{Span, TaskId, TaskSet, TaskSpec, Topology};

const HEURISTICS: [PartitionHeuristic; 3] = [
    PartitionHeuristic::FirstFitDecreasing,
    PartitionHeuristic::BestFitDecreasing,
    PartitionHeuristic::WorstFitDecreasing,
];

fn topologies() -> [Topology; 2] {
    [Topology::new(1, 2).unwrap(), Topology::new(2, 2).unwrap()]
}

/// The split-bait / federation-bait mix of the analysis crate's
/// `churn_spec`, plus slow heavy residents and tasks of utilization
/// 0.36–0.52 that the RM-US rule sends to the HPQ on 2 and 4 hardware
/// threads (thresholds 0.5 and 0.4).
fn pin_spec(rng: &mut StdRng, i: usize) -> TaskSpec {
    let period_ms: u64 = [10, 20, 50, 100][rng.random_range(0..4usize)];
    let roll: f64 = rng.random_range(0.0..1.0);
    let period = Span::from_millis(period_ms);
    let pct = |p: u64| Span::from_micros(period_ms * 10 * p);
    let mut b = TaskSpec::builder(format!("p{i}"));
    b.period(period);
    if roll < 0.08 {
        // Slow heavy resident: takes a hardware thread early and leaves
        // slack only a half-rate subtask can use.
        b.period(Span::from_millis(400))
            .mandatory(Span::from_millis(rng.random_range(240..290u64)));
    } else if roll < 0.2 {
        // Heavy sequential: only a split places it beside other load.
        b.mandatory(pct(rng.random_range(50..70u64)));
    } else if roll < 0.32 {
        // Heavy parallel phase: eligible for a core grant.
        b.mandatory(pct(rng.random_range(20..40u64)))
            .windup(pct(rng.random_range(5..15u64)))
            .optional_parts(2, period);
    } else if roll < 0.5 {
        // Just above the RM-US threshold: outranks shorter periods.
        b.mandatory(pct(rng.random_range(32..44u64)))
            .windup(pct(rng.random_range(4..9u64)));
    } else {
        b.mandatory(pct(rng.random_range(3..20u64)))
            .windup(pct(rng.random_range(0..8u64)));
    }
    b.build().unwrap()
}

fn pin_set(seed: u64) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 3 + (seed % 6) as usize;
    TaskSet::new((0..n).map(|i| pin_spec(&mut rng, i)).collect()).unwrap()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// `None` folds as a value no hardware thread can have.
    fn hw(&mut self, hw: Option<rtseed_model::HwThreadId>) {
        self.word(hw.map_or(u64::MAX, |h| h.index() as u64));
    }
}

fn fold_partition(fp: &mut Fnv, set: &TaskSet, topology: &Topology, p: &Partition) {
    for id in set.ids() {
        fp.hw(Some(p.hw_thread_of(id)));
        fp.hw(p.secondary_of(id));
        fp.hw(p.granted_core_of(id));
        fp.word(p.optional_deadline(id).as_nanos());
    }
    for hw in topology.hw_thread_ids() {
        let tasks = p.tasks_on(hw);
        fp.word(tasks.len() as u64);
        for id in tasks {
            fp.word(u64::from(id.0));
        }
    }
}

/// Recorded at the commit before `Partition::compute_with_policy` became
/// a batch admission into an empty `AdmissionEngine`.
const PINNED: u64 = 0x5585_7297_3674_86d5;

#[test]
fn offline_placement_fingerprint_is_pinned() {
    let mut fp = Fnv::new();
    let (mut accepted, mut rejected) = (0u32, 0u32);
    let (mut splits, mut grants, mut hpq_first, mut order_decides) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..1000u64 {
        let set = pin_set(seed);
        for topology in topologies() {
            for heuristic in HEURISTICS {
                for placement in PlacementPolicy::ALL {
                    let built = SystemConfig::build_with_placement(
                        set.clone(),
                        topology,
                        AssignmentPolicy::OneByOne,
                        heuristic,
                        placement,
                    );
                    // What plain Rate Monotonic order would have decided.
                    let rm = Partition::compute_with_policy(
                        &set,
                        &topology,
                        heuristic,
                        set.rm_order(),
                        placement,
                    );
                    let mut rm_fp = Fnv::new();
                    let mut own_fp = Fnv::new();
                    match &rm {
                        Ok(p) => fold_partition(&mut rm_fp, &set, &topology, p),
                        Err(PartitionError::TaskDoesNotFit { task }) => {
                            rm_fp.word(u64::from(task.0))
                        }
                        Err(e) => panic!("unexpected partition error {e}"),
                    }
                    match built {
                        Ok(cfg) => {
                            accepted += 1;
                            fp.word(1);
                            let p = cfg.partition();
                            fold_partition(&mut fp, &set, &topology, p);
                            fold_partition(&mut own_fp, &set, &topology, p);
                            splits += set.ids().filter(|&id| p.secondary_of(id).is_some()).count()
                                as u32;
                            grants += set
                                .ids()
                                .filter(|&id| p.granted_core_of(id).is_some())
                                .count() as u32;
                            // An HPQ task outranking a shorter period on
                            // its own hardware thread.
                            let hpq = cfg.priorities().hpq_tasks();
                            hpq_first += hpq
                                .iter()
                                .filter(|&&h| {
                                    p.tasks_on(p.hw_thread_of(h)).iter().any(|&o| {
                                        !hpq.contains(&o)
                                            && set.task(o).period() < set.task(h).period()
                                    })
                                })
                                .count() as u32;
                        }
                        Err(ConfigError::Partition(PartitionError::TaskDoesNotFit { task })) => {
                            rejected += 1;
                            fp.word(0);
                            fp.word(u64::from(task.0));
                            own_fp.word(u64::from(task.0));
                        }
                        Err(e) => panic!("unexpected build error {e}"),
                    }
                    order_decides += u32::from(own_fp.0 != rm_fp.0);
                }
            }
        }
    }
    assert_eq!(accepted + rejected, 1000 * 2 * 3 * 3);
    // The pin must not go vacuous.
    assert!(accepted > 1000 && rejected > 1000, "{accepted} / {rejected}");
    assert!(splits > 0, "no configuration split a task");
    assert!(grants > 0, "no configuration granted a core");
    assert!(hpq_first > 0, "no HPQ task outranks a shorter period beside it");
    assert!(order_decides > 0, "the deployed order never changed an outcome");
    assert_eq!(
        fp.0, PINNED,
        "offline placement decisions changed: {:#018x} ({accepted} accepted, {rejected} rejected, \
         {splits} splits, {grants} grants)",
        fp.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every partitioned configuration the builder accepts is schedulable
    /// on each hardware thread under the deployed priority order, with the
    /// optional deadlines the configuration reports — checked with the
    /// set-level analysis, which shares no code with the placer's bins.
    #[test]
    fn accepted_configuration_holds_under_deployed_order(
        seed in 0u64..100_000,
        heuristic in 0usize..3,
        wide in any::<bool>(),
    ) {
        let set = pin_set(seed);
        let topology = topologies()[usize::from(wide)];
        let Ok(cfg) = SystemConfig::build_with_heuristic(
            set,
            topology,
            AssignmentPolicy::OneByOne,
            HEURISTICS[heuristic],
        ) else {
            return Ok(());
        };
        let level = |id: TaskId| cfg.priorities().mandatory(id).level();
        for hw in topology.hw_thread_ids() {
            let residents = cfg.partition().tasks_on(hw);
            if residents.is_empty() {
                continue;
            }
            let local = TaskSet::new(
                residents.iter().map(|&id| cfg.set().task(id).clone()).collect(),
            )
            .unwrap();
            // Highest level first; distinct RTQ levels, HPQ ties by RM.
            let mut order: Vec<TaskId> = local.ids().collect();
            order.sort_by_key(|l| {
                let id = residents[l.index()];
                (std::cmp::Reverse(level(id)), cfg.set().task(id).period(), id.0)
            });
            let analysis = RmwpAnalysis::analyze_with_order(&local, order);
            prop_assert!(analysis.is_ok(), "{hw:?} unschedulable: {:?}", analysis.err());
            let analysis = analysis.unwrap();
            for (l, &id) in residents.iter().enumerate() {
                prop_assert_eq!(
                    analysis.optional_deadline(TaskId(l as u32)),
                    cfg.optional_deadline(id),
                    "task {} on {:?}", id, hw
                );
            }
        }
    }
}
