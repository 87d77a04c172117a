//! Integration tests for the extension modules: the G-RMWP global executor
//! (§IV-B ablation), the Fig. 3 profiles, and the risk-managed trading
//! pipeline.

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
    assert_eq!(general.remaining_at(Span::from_secs(1)), Span::ZERO);
    assert_eq!(semi.remaining_at(Span::from_secs(1)), Span::ZERO);
}

#[test]
fn risk_manager_guards_the_trading_pipeline() {
    use rtseed_trading::execution::{ExecutionConfig, Order, PaperVenue, Side};
    use rtseed_trading::market::{SyntheticFeed, TickSource};
    use rtseed_trading::risk::{RiskLimits, RiskManager, RiskVerdict};
    use rtseed_trading::strategy::Signal;

    let mut venue = PaperVenue::new(ExecutionConfig::default());
    let mut risk = RiskManager::new(RiskLimits {
        max_position: 2.0,
        max_drawdown: 10.0,
        base_order: 1.0,
        vol_target: 0.0,
    });
    let mut feed = SyntheticFeed::eur_usd(5);
    let mut vetoed = 0;
    let mut approved = 0;
    for _ in 0..50 {
        let tick = feed.next_tick().unwrap();
        venue.on_tick(tick);
        risk.on_equity(venue.equity());
        let (verdict, qty) = risk.vet(Signal::Bid, venue.position(), None);
        match verdict {
            RiskVerdict::Approved => {
                approved += 1;
                venue
                    .submit(Order {
                        at: tick.at,
                        side: Side::Buy,
                        quantity: qty,
                    })
                    .unwrap();
            }
            RiskVerdict::PositionLimit => vetoed += 1,
            other => panic!("unexpected verdict {other}"),
        }
    }
    // Only two buys fit under the 2.0 cap; everything else is vetoed.
    assert_eq!(approved, 2);
    assert_eq!(vetoed, 48);
    assert!(venue.position().quantity <= 2.0);
}
