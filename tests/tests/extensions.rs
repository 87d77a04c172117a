//! Integration tests for the extension modules: the G-RMWP global executor
//! (§IV-B ablation) and the Fig. 3 profiles.

use rtseed::config::SystemConfig;
use rtseed::exec_global::GlobalExecutor;
use rtseed::executor::RunConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed::profile::{RemainingProfile, SchedulingMode};
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};

#[test]
fn grmwp_migrations_vanish_with_one_task_and_grow_with_contention() {
    let topo = Topology::new(2, 1).unwrap();
    let mk = |n: usize| {
        let tasks = (0..n)
            .map(|i| {
                TaskSpec::builder(format!("t{i}"))
                    .period(Span::from_millis(40 + 10 * i as u64))
                    .mandatory(Span::from_millis(6))
                    .windup(Span::from_millis(6))
                    .build()
                    .unwrap()
            })
            .collect();
        SystemConfig::build(TaskSet::new(tasks).unwrap(), topo, AssignmentPolicy::OneByOne)
            .unwrap()
    };
    let run = |cfg: &SystemConfig| {
        GlobalExecutor::from_config(
            cfg,
            RunConfig {
                jobs: 20,
                ..Default::default()
            },
        )
        .run()
    };
    let single = run(&mk(1));
    assert_eq!(single.migrations, 0);
    let contended = run(&mk(4));
    assert!(
        contended.migrations > 0,
        "four tasks on two processors must migrate under global dispatch"
    );
}

#[test]
fn fig3_semi_fixed_creates_the_pre_decision_window() {
    let task = TaskSpec::builder("τ")
        .period(Span::from_secs(1))
        .mandatory(Span::from_millis(250))
        .windup(Span::from_millis(250))
        .optional_parts(2, Span::from_secs(1))
        .build()
        .unwrap();
    let od = Span::from_millis(750);
    let general = RemainingProfile::compute(&task, od, SchedulingMode::General);
    let semi = RemainingProfile::compute(&task, od, SchedulingMode::SemiFixed);
    assert_eq!(general.optional_window(), Span::ZERO);
    assert_eq!(semi.optional_window(), Span::from_millis(500));
    // Both complete all real-time work by the deadline.
    for p in [&general, &semi] {
        assert_eq!(p.points().last(), Some(&(Span::from_secs(1), Span::ZERO)));
    }
}
