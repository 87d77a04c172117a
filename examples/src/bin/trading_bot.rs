//! A complete real-time trading bot on the *native* backend: real threads,
//! cooperative optional-part termination, synthetic EUR/USD feed at an
//! accelerated cadence.
//!
//!     cargo run -p rtseed-examples --bin trading_bot

use std::sync::Arc;

use rtseed::prelude::*;
use rtseed_trading::execution::{ExecutionConfig, PaperVenue};
use rtseed_trading::imprecise::{ImpreciseTrader, PipelineTracer};
use rtseed_trading::market::SyntheticFeed;
use rtseed_trading::strategy::{
    BollingerReversion, MacdMomentum, RsiContrarian, Signal, SignalAggregator,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three parallel analyses — the paper's technical-analysis example.
    let trader = ImpreciseTrader::new(
        Box::new(SyntheticFeed::eur_usd(2026)),
        vec![
            Box::new(BollingerReversion::standard()),
            Box::new(MacdMomentum::new(0.00002)),
            Box::new(RsiContrarian::standard()),
        ],
        SignalAggregator::new(1),
        PaperVenue::new(ExecutionConfig::default()),
        10_000.0, // 10k units per order
    );

    // A 50 ms period (accelerated from the paper's 1 s so the demo runs in
    // seconds): mandatory 2 ms, wind-up 2 ms, 3 optional parts.
    let spec = TaskSpec::builder("eurusd-bot")
        .period(Span::from_millis(50))
        .mandatory(Span::from_millis(2))
        .windup(Span::from_millis(2))
        .optional_parts(trader.analyses(), Span::from_millis(20))
        .build()?;
    let config = SystemConfig::build(
        TaskSet::new(vec![spec])?,
        Topology::uniprocessor(),
        AssignmentPolicy::OneByOne,
    )?;

    // Trace both the middleware protocol and the pipeline's own stages.
    let tracer = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
    trader.attach_tracer(Arc::clone(&tracer));
    // The native runtime runs the parts on their own threads.
    let trader = Arc::new(trader.into_native());

    let jobs = 100;
    println!("Running {jobs} trading cycles on the native backend…");
    let run = RunConfig::builder()
        .jobs(jobs)
        .termination(TerminationMode::PeriodicCheck {
            interval: Span::from_millis(1),
        })
        .trace(TraceConfig::enabled())
        .build()?;
    let outcome = NativeExecutor::new(config, run).run(vec![trader.task_body()])?;

    let decisions = trader.decisions();
    let bids = decisions.iter().filter(|s| **s == Signal::Bid).count();
    let asks = decisions.iter().filter(|s| **s == Signal::Ask).count();
    let waits = decisions.iter().filter(|s| **s == Signal::Wait).count();
    let venue = trader.venue_snapshot();

    println!("\nDecisions : {bids} bids, {asks} asks, {waits} waits");
    println!("Fills     : {}", venue.fills().len());
    println!("Equity    : {:+.5} (quote ccy)", venue.equity());
    println!("QoS       : {}", outcome.qos);
    println!("\nRuntime report: {:#?}", outcome.runtime);
    println!("\nOverheads (native, mean):\n{}", outcome.overheads);

    let pipeline = Trace::merged(vec![outcome.trace, tracer.snapshot()]);
    println!(
        "Trace     : {} events ({} pipeline-stage, {} dropped)",
        pipeline.len(),
        pipeline.count(|e| matches!(e, TraceEvent::PipelineStage { .. })),
        pipeline.dropped(),
    );
    println!("Metrics   : {}", outcome.metrics);
    Ok(())
}
