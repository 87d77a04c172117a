//! Property-based integration tests: invariants that must hold for *any*
//! task set, topology, and policy — the analysis, the configuration layer,
//! and the simulator agree with each other.

use proptest::prelude::*;
use rtseed::config::SystemConfig;
use rtseed::exec_sim::SimExecutor;
use rtseed::executor::RunConfig;
use rtseed::obs::TraceConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed_analysis::rmwp::RmwpAnalysis;
use rtseed_analysis::taskgen::{generate, TaskGenConfig};
use rtseed_model::{Span, TaskSet, Topology};
use rtseed_sim::Calibration;

fn small_set(seed: u64, tasks: usize, util: f64) -> TaskSet {
    generate(
        &TaskGenConfig {
            tasks,
            total_utilization: util,
            period_min: Span::from_millis(10),
            period_max: Span::from_millis(500),
            optional_parts: (0, 4),
            ..TaskGenConfig::default()
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RMWP analysis invariants: OD within (0, D]; the guaranteed window
    /// never exceeds OD; R^m ≤ OD.
    #[test]
    fn rmwp_analysis_invariants(seed in 0u64..500, tasks in 1usize..6) {
        let set = small_set(seed, tasks, 0.5);
        if let Ok(a) = RmwpAnalysis::analyze(&set) {
            for (id, spec) in set.iter() {
                let od = a.optional_deadline(id);
                prop_assert!(od <= spec.deadline());
                prop_assert!(od >= spec.mandatory(), "OD ≥ R^m ≥ m");
                prop_assert!(a.mandatory_response(id) <= od);
                prop_assert!(a.windup_response(id) >= spec.windup());
                prop_assert!(a.guaranteed_optional_window(id) <= od);
            }
        }
    }

    /// Optional parts never change the analysis (paper Theorems 1–2).
    #[test]
    fn optional_parts_never_change_analysis(seed in 0u64..200) {
        let set = small_set(seed, 3, 0.4);
        let stripped = TaskSet::new(
            set.iter()
                .map(|(_, t)| t.with_optional_parts(0, Span::ZERO))
                .collect(),
        ).unwrap();
        let a = RmwpAnalysis::analyze(&set);
        let b = RmwpAnalysis::analyze(&stripped);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                for id in set.ids() {
                    prop_assert_eq!(a.optional_deadline(id), b.optional_deadline(id));
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "schedulability diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// Policy placements stay within the topology and wrap deterministically.
    #[test]
    fn placements_within_topology(
        cores in 1u32..64,
        smt in 1u32..5,
        np in 0usize..600,
        k in 1u32..6,
    ) {
        let topo = Topology::new(cores, smt).unwrap();
        for policy in [
            AssignmentPolicy::OneByOne,
            AssignmentPolicy::TwoByTwo,
            AssignmentPolicy::AllByAll,
            AssignmentPolicy::KByK(k),
        ] {
            let placed = policy.placements(&topo, np);
            prop_assert_eq!(placed.len(), np);
            for hw in &placed {
                prop_assert!(hw.index() < topo.hw_threads() as usize);
            }
            // Until capacity, placements are distinct.
            let cap = topo.hw_threads() as usize;
            let distinct: std::collections::HashSet<_> =
                placed.iter().take(cap).collect();
            prop_assert_eq!(distinct.len(), np.min(cap));
        }
    }

    /// Any admitted configuration runs without deadline misses when the
    /// overhead model is zeroed (pure schedulability, no calibration).
    #[test]
    fn admitted_sets_meet_deadlines_in_sim(seed in 0u64..200) {
        let set = small_set(seed, 3, 0.5);
        let topo = Topology::quad_core_smt2();
        if let Ok(cfg) = SystemConfig::build(set, topo, AssignmentPolicy::OneByOne) {
            let zero = Calibration {
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
            };
            let out = SimExecutor::new(
                cfg,
                RunConfig {
                    jobs: 4,
                    calibration: zero,
                    rt_exec_fraction: 1.0,
                    ..Default::default()
                },
            )
            .run();
            prop_assert_eq!(out.qos.deadline_misses(), 0);
        }
    }

    /// The simulator's QoS accounting is conserved: achieved ≤ requested,
    /// outcome counts equal np × jobs.
    #[test]
    fn qos_accounting_conserved(seed in 0u64..60, np in 1usize..6) {
        let set = small_set(seed, 1, 0.3);
        let spec = set.task(rtseed_model::TaskId(0));
        if spec.windup().is_zero() {
            return Ok(()); // generated a pure LL task: nothing to check
        }
        let with_parts = TaskSet::new(vec![
            spec.with_optional_parts(np, spec.period())
        ]).unwrap();
        let topo = Topology::quad_core_smt2();
        if let Ok(cfg) = SystemConfig::build(with_parts, topo, AssignmentPolicy::AllByAll) {
            let jobs = 3u64;
            let out = SimExecutor::new(
                cfg,
                RunConfig { jobs, ..Default::default() },
            ).run();
            let (c, t, d) = out.qos.outcome_totals();
            prop_assert_eq!(c + t + d, np as u64 * jobs);
            prop_assert!(out.qos.achieved_total() <= out.qos.requested_total());
        }
    }
}

#[test]
fn determinism_across_identical_runs() {
    let set = small_set(7, 3, 0.5);
    let cfg = || {
        SystemConfig::build(
            set.clone(),
            Topology::quad_core_smt2(),
            AssignmentPolicy::TwoByTwo,
        )
        .unwrap()
    };
    let run = || {
        SimExecutor::new(
            cfg(),
            RunConfig {
                jobs: 5,
                seed: 99,
                trace: TraceConfig::enabled(),
                ..Default::default()
            },
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.overheads, b.overheads);
}
