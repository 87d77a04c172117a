//! End-to-end integration of the trading substrate with the middleware:
//! the paper's motivating application (§II-A) running on both backends.

use std::sync::Arc;

use rtseed::config::SystemConfig;
use rtseed::policy::AssignmentPolicy;
use rtseed::executor::RunConfig;
use rtseed::runtime::NativeExecutor;
use rtseed::termination::TerminationMode;
use rtseed_model::{Span, TaskSet, TaskSpec, Topology};
use rtseed_trading::execution::{ExecutionConfig, PaperVenue};
use rtseed_trading::imprecise::ImpreciseTrader;
use rtseed_trading::market::{PriceProcess, SyntheticFeed};
use rtseed_trading::strategy::{
    BollingerReversion, FundamentalBias, MacdMomentum, RsiContrarian, Signal, SignalAggregator,
};

fn trader(seed: u64, quorum: usize) -> ImpreciseTrader {
    ImpreciseTrader::new(
        Box::new(SyntheticFeed::eur_usd(seed)),
        vec![
            Box::new(BollingerReversion::standard()),
            Box::new(MacdMomentum::new(0.00002)),
            Box::new(RsiContrarian::standard()),
        ],
        SignalAggregator::new(quorum),
        PaperVenue::new(ExecutionConfig::default()),
        1.0,
    )
}

#[test]
fn synchronous_baseline_decides_every_cycle() {
    let t = trader(1, 1);
    let mut decisions = 0;
    for _ in 0..300 {
        assert!(t.run_cycle_synchronous().is_some());
        decisions += 1;
    }
    assert_eq!(t.decisions().len(), decisions);
    // After warm-up, some non-wait decisions occur on a mean-reverting
    // market with contrarian strategies.
    let trades = t
        .decisions()
        .iter()
        .filter(|s| !matches!(s, Signal::Wait))
        .count();
    assert!(trades > 0, "no trades in 300 cycles");
    // Every trade produced exactly one fill.
    assert_eq!(t.venue_snapshot().fills().len(), trades);
}

#[test]
fn native_pipeline_full_qos_with_fast_analyses() {
    let t = Arc::new(trader(2, 1).into_native());
    let spec = TaskSpec::builder("bot")
        .period(Span::from_millis(30))
        .mandatory(Span::from_millis(1))
        .windup(Span::from_millis(1))
        .optional_parts(t.analyses(), Span::from_millis(10))
        .build()
        .unwrap();
    let cfg = SystemConfig::build(
        TaskSet::new(vec![spec]).unwrap(),
        Topology::uniprocessor(),
        AssignmentPolicy::OneByOne,
    )
    .unwrap();
    let out = NativeExecutor::new(
        cfg,
        RunConfig {
            jobs: 8,
            termination: TerminationMode::PeriodicCheck {
                interval: Span::from_millis(1),
            },
            attempt_rt: false,
            ..RunConfig::default()
        },
    )
    .run(vec![t.task_body()])
    .expect("native run");
    assert_eq!(out.qos.jobs(), 8);
    assert_eq!(t.decisions().len(), 8);
    let (completed, terminated, discarded) = out.qos.outcome_totals();
    assert_eq!(completed + terminated + discarded, 3 * 8);
    assert_eq!(completed, 3 * 8, "fast analyses must all complete");
}

#[test]
fn native_pipeline_terminations_degrade_to_waits_not_errors() {
    // A deliberately slow fundamental analysis that never finishes in its
    // window: it must be terminated, abstain, and the aggregate decision
    // must still be produced every cycle.
    let slow_trader = ImpreciseTrader::new(
        Box::new(SyntheticFeed::eur_usd(3)),
        vec![
            Box::new(BollingerReversion::standard()),
            Box::new(FundamentalBias::new(0.5)), // never gets releases → None
        ],
        SignalAggregator::new(2),
        PaperVenue::new(ExecutionConfig::default()),
        1.0,
    );
    let slow_trader = Arc::new(slow_trader.into_native());
    let spec = TaskSpec::builder("slow-bot")
        .period(Span::from_millis(30))
        .mandatory(Span::from_millis(1))
        .windup(Span::from_millis(1))
        .optional_parts(2, Span::from_millis(10))
        .build()
        .unwrap();
    let cfg = SystemConfig::build(
        TaskSet::new(vec![spec]).unwrap(),
        Topology::uniprocessor(),
        AssignmentPolicy::OneByOne,
    )
    .unwrap();
    let out = NativeExecutor::new(
        cfg,
        RunConfig {
            jobs: 5,
            termination: TerminationMode::PeriodicCheck {
                interval: Span::from_millis(1),
            },
            attempt_rt: false,
            ..RunConfig::default()
        },
    )
    .run(vec![slow_trader.task_body()])
    .expect("native run");
    assert_eq!(out.qos.jobs(), 5);
    // Quorum 2 with one abstaining analysis ⇒ every decision is Wait.
    assert!(slow_trader
        .decisions()
        .iter()
        .all(|s| matches!(s, Signal::Wait)));
}

#[test]
fn deterministic_feeds_make_deterministic_decisions() {
    let a = trader(9, 1);
    let b = trader(9, 1);
    for _ in 0..200 {
        a.run_cycle_synchronous();
        b.run_cycle_synchronous();
    }
    assert_eq!(a.decisions(), b.decisions());
    assert_eq!(
        a.venue_snapshot().position().realized_pnl,
        b.venue_snapshot().position().realized_pnl
    );
}

#[test]
fn trending_market_trades_in_trend_direction_with_macd() {
    // A strongly trending market: MACD momentum alone should go long.
    let trending = SyntheticFeed::new(
        4,
        PriceProcess::GeometricBrownian {
            mu: 0.002,
            sigma: 0.0001,
        },
        1.0,
        0.00005,
        Span::from_secs(1),
        None,
    );
    let t = ImpreciseTrader::new(
        Box::new(trending),
        vec![Box::new(MacdMomentum::new(0.0))],
        SignalAggregator::new(1),
        PaperVenue::new(ExecutionConfig::default()),
        1.0,
    );
    for _ in 0..120 {
        t.run_cycle_synchronous();
    }
    let bids = t.decisions().iter().filter(|s| **s == Signal::Bid).count();
    let asks = t.decisions().iter().filter(|s| **s == Signal::Ask).count();
    assert!(bids > asks * 3, "uptrend: {bids} bids vs {asks} asks");
    // Long position in an uptrend: positive equity.
    assert!(t.venue_snapshot().equity() > 0.0);
}
