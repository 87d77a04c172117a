//! The adapter from a trading pipeline to a parallel-extended imprecise
//! task (paper §II-A's worked example):
//!
//! * **mandatory part** — obtain the latest exchange rate from the feed;
//! * **parallel optional parts** — run one analysis (technical or
//!   fundamental) each, in parallel, refining QoS;
//! * **wind-up part** — collect whatever opinions exist, decide
//!   bid / ask / wait, and send the trade request to the venue.
//!
//! [`ImpreciseTrader`] is the shared state those three parts operate on;
//! [`ImpreciseTrader::task_body`] packages them as a [`rtseed::runtime::TaskBody`]
//! for the native executor. Attach a [`PipelineTracer`] to emit
//! [`TraceEvent::PipelineStage`] events on the unified observability
//! stream (`rtseed::obs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtseed::obs::{PipelineStage, Trace, TraceConfig, TraceEvent, TraceRecorder};
use rtseed::runtime::{OptionalControl, TaskBody};
use rtseed_model::{JobId, PartId, Span, TaskSetError, TaskSpec, Time};

use crate::execution::{Order, PaperVenue, Side};
use crate::market::{Tick, TickSource};
use crate::strategy::{Signal, SignalAggregator, Strategy};

/// Records the trading pipeline's stage transitions as
/// [`TraceEvent::PipelineStage`] events, shared by the mandatory, optional
/// and wind-up threads of a native run (hence the internal lock — the
/// pipeline stages themselves serialize on the trader's own state anyway).
///
/// Cycles are numbered from 0: each [`ImpreciseTrader::ingest`] that
/// obtains a tick starts a new cycle; analyses and the decision record
/// against the current one.
#[derive(Debug)]
pub struct PipelineTracer {
    epoch: Instant,
    cycle: AtomicU64,
    rec: Mutex<TraceRecorder>,
}

impl PipelineTracer {
    /// Creates a tracer; timestamps are nanoseconds since this call.
    ///
    /// When the pipeline trace will be merged with other traces (the
    /// native executor's scheduling trace, or other tracers of the same
    /// run), use [`PipelineTracer::with_epoch`] instead so all timestamps
    /// share one time base.
    pub fn new(config: TraceConfig) -> PipelineTracer {
        PipelineTracer::with_epoch(config, Instant::now())
    }

    /// Creates a tracer whose timestamps are nanoseconds since `epoch`.
    ///
    /// This mirrors the native executor's per-thread recorder idiom: one
    /// `Instant` captured before the run is shared by every recorder, so
    /// merged traces line up on a single time axis instead of each tracer
    /// starting its own clock at construction.
    pub fn with_epoch(config: TraceConfig, epoch: Instant) -> PipelineTracer {
        PipelineTracer {
            epoch,
            cycle: AtomicU64::new(0),
            rec: Mutex::new(TraceRecorder::new(config)),
        }
    }

    fn now(&self) -> Time {
        Time::from_nanos(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn begin_cycle(&self) -> u64 {
        self.cycle.fetch_add(1, Ordering::Relaxed)
    }

    fn current_cycle(&self) -> u64 {
        self.cycle.load(Ordering::Relaxed).saturating_sub(1)
    }

    fn record(&self, cycle: u64, stage: PipelineStage, part: Option<PartId>) {
        let mut rec = self.rec.lock().expect("tracer lock");
        if rec.enabled() {
            let at = self.now();
            rec.record(at, TraceEvent::PipelineStage { cycle, stage, part });
        }
    }

    /// The trace recorded so far (recording continues). Event order follows
    /// the pipeline's own serialization; export with [`rtseed::obs::export`].
    pub fn snapshot(&self) -> Trace {
        self.rec.lock().expect("tracer lock").clone().finish()
    }
}

/// Builds the task set a trading-desk tenant submits to the serving layer
/// ([`rtseed::serve`]): one imprecise pipeline task per symbol, named
/// `"<desk>/<symbol>"`, each with `analyses` parallel optional parts.
///
/// The per-task budget derives from the pipeline cadence `period`:
/// mandatory (ingest) and wind-up (decide) each get 4 % of the period —
/// generous against the real stages, which are microseconds — and every
/// analysis part requests 20 %, so a desk with several analyses *relies*
/// on the imprecise model: under contention the admission test grants a
/// shorter optional deadline and late analyses are terminated, they do not
/// delay the decision.
///
/// # Errors
///
/// Propagates [`TaskSetError`] from the spec builder (zero period and the
/// like).
pub fn desk_task_set(
    desk: &str,
    symbols: &[&str],
    analyses: usize,
    period: Span,
) -> Result<Vec<TaskSpec>, TaskSetError> {
    symbols
        .iter()
        .map(|sym| {
            TaskSpec::builder(format!("{desk}/{sym}"))
                .period(period)
                .mandatory(period.mul_f64(0.04))
                .windup(period.mul_f64(0.04))
                .optional_parts(analyses, period.mul_f64(0.2))
                .build()
        })
        .collect()
}

/// Shared state of one imprecise trading task.
pub struct ImpreciseTrader {
    feed: Mutex<Box<dyn TickSource + Send>>,
    strategies: Vec<Mutex<Box<dyn Strategy>>>,
    aggregator: SignalAggregator,
    venue: Mutex<PaperVenue>,
    current_tick: Mutex<Option<Tick>>,
    opinions: Mutex<Vec<Option<Signal>>>,
    decisions: Mutex<Vec<Signal>>,
    order_quantity: f64,
    tracer: Mutex<Option<Arc<PipelineTracer>>>,
}

impl std::fmt::Debug for ImpreciseTrader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImpreciseTrader")
            .field("strategies", &self.strategies.len())
            .finish_non_exhaustive()
    }
}

impl ImpreciseTrader {
    /// Creates a trader over `feed` running one strategy per parallel
    /// optional part.
    ///
    /// # Panics
    ///
    /// Panics if `strategies` is empty or `order_quantity` is not positive.
    pub fn new(
        feed: Box<dyn TickSource + Send>,
        strategies: Vec<Box<dyn Strategy>>,
        aggregator: SignalAggregator,
        venue: PaperVenue,
        order_quantity: f64,
    ) -> ImpreciseTrader {
        assert!(!strategies.is_empty(), "at least one analysis is required");
        assert!(
            order_quantity > 0.0 && order_quantity.is_finite(),
            "order quantity must be positive"
        );
        let n = strategies.len();
        ImpreciseTrader {
            feed: Mutex::new(feed),
            strategies: strategies.into_iter().map(Mutex::new).collect(),
            aggregator,
            venue: Mutex::new(venue),
            current_tick: Mutex::new(None),
            opinions: Mutex::new(vec![None; n]),
            decisions: Mutex::new(Vec::new()),
            order_quantity,
            tracer: Mutex::new(None),
        }
    }

    /// Attaches a [`PipelineTracer`]: from now on every ingest / analysis /
    /// decision records a [`TraceEvent::PipelineStage`] event.
    pub fn attach_tracer(&self, tracer: Arc<PipelineTracer>) {
        *self.tracer.lock().expect("tracer lock") = Some(tracer);
    }

    fn trace_stage(&self, stage: PipelineStage, part: Option<PartId>) {
        if let Some(tr) = self.tracer.lock().expect("tracer lock").as_ref() {
            let cycle = if matches!(stage, PipelineStage::Ingest) {
                tr.begin_cycle()
            } else {
                tr.current_cycle()
            };
            tr.record(cycle, stage, part);
        }
    }

    /// Number of parallel analyses (the task's `npᵢ`).
    pub fn analyses(&self) -> usize {
        self.strategies.len()
    }

    /// **Mandatory part**: pulls the next tick, resets this cycle's
    /// opinions and publishes the tick to the venue. Returns `false` when
    /// the feed has no tick (exhausted, dropout, kill switch): the cycle
    /// then has no tick and no opinions, so its analyses abstain and its
    /// wind-up waits, whether or not the caller reads the return value.
    pub fn ingest(&self) -> bool {
        let tick = self.feed.lock().expect("feed lock").next_tick();
        *self.current_tick.lock().expect("tick lock") = tick;
        self.opinions
            .lock()
            .expect("opinions lock")
            .iter_mut()
            .for_each(|o| *o = None);
        let Some(tick) = tick else {
            return false;
        };
        self.trace_stage(PipelineStage::Ingest, None);
        self.venue.lock().expect("venue lock").on_tick(tick);
        true
    }

    /// **Parallel optional part** `part`: feeds the current tick to that
    /// part's strategy and records its opinion. `should_stop` is polled
    /// between work units for cooperative termination; an analysis cut
    /// before recording simply abstains this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn analyze(&self, part: usize, should_stop: &dyn Fn() -> bool) {
        let tick = *self.current_tick.lock().expect("tick lock");
        let Some(tick) = tick else {
            return;
        };
        self.trace_stage(PipelineStage::Analysis, Some(PartId(part as u32)));
        if should_stop() {
            return; // terminated before doing anything: abstain
        }
        let mut strategy = self.strategies[part].lock().expect("strategy lock");
        strategy.on_tick(&tick);
        if should_stop() {
            return; // terminated mid-analysis: abstain (partial work kept)
        }
        let opinion = strategy.signal();
        self.opinions.lock().expect("opinions lock")[part] = opinion;
    }

    /// **Wind-up part**: aggregates the surviving opinions, records the
    /// decision, and sends a trade request when it is not `Wait`.
    pub fn decide(&self) -> Signal {
        self.trace_stage(PipelineStage::Decide, None);
        let opinions = self.opinions.lock().expect("opinions lock").clone();
        let signal = self.aggregator.decide(&opinions);
        self.decisions.lock().expect("decisions lock").push(signal);
        if let Some(side) = Side::from_signal(signal) {
            let mut venue = self.venue.lock().expect("venue lock");
            let at = self
                .current_tick
                .lock()
                .expect("tick lock")
                .map(|t| t.at)
                .unwrap_or_default();
            // A failed submission (no market yet) is impossible after
            // ingest(); quantity is validated at construction.
            let _ = venue.submit(Order {
                at,
                side,
                quantity: self.order_quantity,
            });
        }
        signal
    }

    /// Runs one full synchronous cycle (ingest → all analyses → decide) —
    /// the precise-computation baseline, used by tests and examples.
    pub fn run_cycle_synchronous(&self) -> Option<Signal> {
        if !self.ingest() {
            return None;
        }
        for part in 0..self.analyses() {
            self.analyze(part, &|| false);
        }
        Some(self.decide())
    }

    /// All decisions made so far, in cycle order.
    pub fn decisions(&self) -> Vec<Signal> {
        self.decisions.lock().expect("decisions lock").clone()
    }

    /// Venue snapshot (position, fills, P&L).
    pub fn venue_snapshot(&self) -> PaperVenue {
        self.venue.lock().expect("venue lock").clone()
    }

    /// Packages this trader as a [`TaskBody`] for
    /// [`rtseed::runtime::NativeExecutor`]: mandatory = [`ImpreciseTrader::ingest`],
    /// optional part k = [`ImpreciseTrader::analyze`]`(k)`, wind-up =
    /// [`ImpreciseTrader::decide`].
    pub fn task_body(self: &Arc<Self>) -> TaskBody {
        let m = Arc::clone(self);
        let o = Arc::clone(self);
        let w = Arc::clone(self);
        TaskBody::new(
            move |_job: JobId| {
                m.ingest();
            },
            move |_job, part, ctl: &OptionalControl| {
                o.analyze(part.index(), &|| ctl.should_stop());
            },
            move |_job| {
                w.decide();
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::ExecutionConfig;
    use crate::market::SyntheticFeed;
    use crate::strategy::{BollingerReversion, MacdMomentum, RsiContrarian};

    fn trader(quorum: usize) -> ImpreciseTrader {
        ImpreciseTrader::new(
            Box::new(SyntheticFeed::eur_usd(42)),
            vec![
                Box::new(BollingerReversion::standard()),
                Box::new(MacdMomentum::new(0.00005)),
                Box::new(RsiContrarian::standard()),
            ],
            SignalAggregator::new(quorum),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        )
    }

    #[test]
    fn synchronous_cycles_produce_decisions() {
        let t = trader(1);
        for _ in 0..100 {
            assert!(t.run_cycle_synchronous().is_some());
        }
        assert_eq!(t.decisions().len(), 100);
    }

    #[test]
    fn warmup_cycles_wait() {
        let t = trader(1);
        // Before any indicator window fills, every analysis abstains.
        assert_eq!(t.run_cycle_synchronous(), Some(Signal::Wait));
    }

    #[test]
    fn discarded_analyses_abstain() {
        let t = trader(1);
        // Warm up the strategies fully.
        for _ in 0..60 {
            t.run_cycle_synchronous();
        }
        // Next cycle: ingest but terminate every analysis immediately —
        // all abstain, the decision must be Wait regardless of market.
        assert!(t.ingest());
        for part in 0..t.analyses() {
            t.analyze(part, &|| true);
        }
        assert_eq!(t.decide(), Signal::Wait);
    }

    #[test]
    fn trades_are_sent_to_the_venue() {
        let t = trader(1);
        for _ in 0..500 {
            t.run_cycle_synchronous();
        }
        let traded: usize = t
            .decisions()
            .iter()
            .filter(|s| !matches!(s, Signal::Wait))
            .count();
        let venue = t.venue_snapshot();
        assert_eq!(venue.fills().len(), traded);
    }

    #[test]
    fn higher_quorum_trades_less() {
        let loose = trader(1);
        let strict = trader(3);
        for _ in 0..500 {
            loose.run_cycle_synchronous();
            strict.run_cycle_synchronous();
        }
        let trades = |t: &ImpreciseTrader| {
            t.decisions()
                .iter()
                .filter(|s| !matches!(s, Signal::Wait))
                .count()
        };
        assert!(trades(&strict) <= trades(&loose));
    }

    #[test]
    fn exhausted_feed_stops() {
        let t = ImpreciseTrader::new(
            Box::new(SyntheticFeed::new(
                1,
                crate::market::PriceProcess::GeometricBrownian { mu: 0.0, sigma: 0.001 },
                1.0,
                0.0001,
                rtseed_model::Span::from_secs(1),
                Some(3),
            )),
            vec![Box::new(BollingerReversion::new(2, 2.0))],
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
        assert!(t.run_cycle_synchronous().is_some());
        assert!(t.run_cycle_synchronous().is_some());
        assert!(t.run_cycle_synchronous().is_some());
        assert!(t.run_cycle_synchronous().is_none());
    }

    #[test]
    fn a_cycle_with_no_tick_places_no_order() {
        /// Buys on every tick it sees.
        struct AlwaysBid(bool);
        impl Strategy for AlwaysBid {
            fn on_tick(&mut self, _: &Tick) {
                self.0 = true;
            }
            fn signal(&self) -> Option<Signal> {
                self.0.then_some(Signal::Bid)
            }
            fn name(&self) -> &str {
                "always-bid"
            }
        }
        let two_ticks = crate::market::collect_ticks(&mut SyntheticFeed::eur_usd(1), 2);
        let t = ImpreciseTrader::new(
            Box::new(crate::market::ReplayFeed::new(two_ticks)),
            vec![Box::new(AlwaysBid(false))],
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
        // The three stages as `task_body` runs them: the mandatory part's
        // return value is dropped.
        let job = || {
            let _ = t.ingest();
            t.analyze(0, &|| false);
            t.decide()
        };
        assert_eq!((job(), job()), (Signal::Bid, Signal::Bid));
        // Two jobs past the end of the feed.
        assert_eq!((job(), job()), (Signal::Wait, Signal::Wait));
        assert_eq!(t.venue_snapshot().fills().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one analysis")]
    fn rejects_empty_strategies() {
        let _ = ImpreciseTrader::new(
            Box::new(SyntheticFeed::eur_usd(0)),
            vec![],
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
    }

    #[test]
    fn trader_over_guarded_faulty_feed_keeps_trading() {
        use crate::fault::{
            FaultyFeed, FeedFault, FeedFaultPlan, FeedWatchdog,
            WatchdogConfig,
        };

        // A feed with every fault class injected, guarded by the
        // watchdog, under the full trading pipeline.
        let plan = FeedFaultPlan::new(21)
            .with_fault(10, FeedFault::NanTick)
            .with_fault(20, FeedFault::OutOfOrder)
            .with_fault(30, FeedFault::Gap { ticks: 2 })
            .with_fault(40, FeedFault::Stall { polls: 2 });
        let dog = FeedWatchdog::new(
            FaultyFeed::new(SyntheticFeed::eur_usd(42), plan),
            WatchdogConfig::default(),
        );
        let t = ImpreciseTrader::new(
            Box::new(dog),
            vec![
                Box::new(BollingerReversion::standard()),
                Box::new(MacdMomentum::new(0.00005)),
                Box::new(RsiContrarian::standard()),
            ],
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
        // Every cycle still gets a validated tick: the faults are
        // absorbed below the strategies.
        for _ in 0..100 {
            assert!(t.run_cycle_synchronous().is_some());
        }
        assert_eq!(t.decisions().len(), 100);
    }

    #[test]
    fn watchdog_is_a_send_tick_source() {
        use crate::fault::{FeedFaultPlan, FaultyFeed, FeedWatchdog, WatchdogConfig};
        use crate::market::TickSource;

        // Boxed feeds compose under the watchdog too (blanket impl).
        let boxed: Box<dyn TickSource + Send> =
            Box::new(SyntheticFeed::eur_usd(1));
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(boxed, FeedFaultPlan::none()),
            WatchdogConfig::default(),
        );
        assert!(dog.next_tick().is_some());
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&dog);
    }

    #[test]
    fn native_task_body_runs_the_pipeline() {
        use rtseed::config::SystemConfig;
        use rtseed::executor::RunConfig;
        use rtseed::policy::AssignmentPolicy;
        use rtseed::runtime::NativeExecutor;
        use rtseed::termination::TerminationMode;
        use rtseed_model::{Span, TaskSet, TaskSpec, Topology};

        let trader = Arc::new(trader(1));
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
        trader.attach_tracer(Arc::clone(&tracer));
        let spec = TaskSpec::builder("trader")
            .period(Span::from_millis(40))
            .mandatory(Span::from_millis(2))
            .windup(Span::from_millis(2))
            .optional_parts(trader.analyses(), Span::from_millis(20))
            .build()
            .unwrap();
        let cfg = SystemConfig::build(
            TaskSet::new(vec![spec]).unwrap(),
            Topology::uniprocessor(),
            AssignmentPolicy::OneByOne,
        )
        .unwrap();
        let exec = NativeExecutor::new(
            cfg,
            RunConfig {
                jobs: 5,
                termination: TerminationMode::PeriodicCheck {
                    interval: Span::from_millis(1),
                },
                attempt_rt: false,
                ..RunConfig::default()
            },
        );
        let out = exec.run(vec![trader.task_body()]).expect("native run");
        assert_eq!(out.qos.jobs(), 5);
        assert_eq!(trader.decisions().len(), 5);
        // Analyses are fast: they complete, full QoS.
        let (completed, _, _) = out.qos.outcome_totals();
        assert_eq!(completed, 15);
        // Every cycle traced ingest, three analyses, one decision.
        let trace = tracer.snapshot();
        let stage_count = |s: PipelineStage| {
            trace.count(
                |e| matches!(e, TraceEvent::PipelineStage { stage, .. } if *stage == s),
            )
        };
        assert_eq!(stage_count(PipelineStage::Ingest), 5);
        assert_eq!(stage_count(PipelineStage::Analysis), 15);
        assert_eq!(stage_count(PipelineStage::Decide), 5);
    }

    #[test]
    fn desk_task_set_names_and_sizes_tasks_per_symbol() {
        let set = desk_task_set(
            "alpha",
            &["EURUSD", "GBPUSD", "USDJPY"],
            3,
            Span::from_millis(50),
        )
        .unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set[0].name(), "alpha/EURUSD");
        assert_eq!(set[2].name(), "alpha/USDJPY");
        for spec in &set {
            assert_eq!(spec.optional_count(), 3);
            assert_eq!(spec.mandatory(), Span::from_millis(2));
            assert_eq!(spec.windup(), Span::from_millis(2));
            // Mandatory + wind-up utilization stays well under one CPU.
            assert!(spec.utilization() < 0.1, "{}", spec.utilization());
        }
    }

    #[test]
    fn desk_task_set_is_admissible_by_the_serving_layer() {
        use rtseed::serve::SessionManager;
        use rtseed::{AssignmentPolicy, RunConfig};
        use rtseed_analysis::PartitionHeuristic;
        use rtseed_model::Topology;

        let mut mgr = SessionManager::new(
            Topology::quad_core_smt2(),
            PartitionHeuristic::WorstFitDecreasing,
            AssignmentPolicy::OneByOne,
            RunConfig {
                jobs: 2,
                ..Default::default()
            },
        );
        let desk = desk_task_set("desk", &["EURUSD", "GBPUSD"], 2, Span::from_millis(50))
            .unwrap();
        mgr.submit("desk", &desk).expect("a light desk is admissible");
        let out = mgr.run();
        assert_eq!(out.tenant("desk").unwrap().qos.jobs(), 4);
    }

    #[test]
    fn shared_epoch_puts_tracers_on_one_time_axis() {
        let epoch = Instant::now();
        let a = Arc::new(PipelineTracer::with_epoch(TraceConfig::enabled(), epoch));
        let b = Arc::new(PipelineTracer::with_epoch(TraceConfig::enabled(), epoch));
        let ta = trader(1);
        let tb = trader(1);
        ta.attach_tracer(Arc::clone(&a));
        tb.attach_tracer(Arc::clone(&b));
        ta.run_cycle_synchronous();
        tb.run_cycle_synchronous();
        // b's cycle ran strictly after a's; with a shared epoch its
        // timestamps are comparable and never earlier.
        let last_a = a.snapshot().events().last().map(|(t, _)| *t).unwrap();
        let first_b = b.snapshot().events().first().map(|(t, _)| *t).unwrap();
        assert!(first_b >= last_a, "{first_b:?} < {last_a:?}");
    }

    #[test]
    fn pipeline_tracer_numbers_cycles() {
        let t = trader(1);
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
        t.attach_tracer(Arc::clone(&tracer));
        for _ in 0..3 {
            t.run_cycle_synchronous();
        }
        let trace = tracer.snapshot();
        // ingest + 3 analyses + decide, per cycle.
        assert_eq!(trace.len(), 3 * 5);
        let max_cycle = trace
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::PipelineStage { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .max();
        assert_eq!(max_cycle, Some(2));
        // Detached by default: a fresh trader records nothing.
        let silent = trader(1);
        silent.run_cycle_synchronous();
        assert_eq!(PipelineTracer::new(TraceConfig::enabled()).snapshot().len(), 0);
    }
}
