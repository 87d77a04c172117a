//! The tick→order path does not allocate: a cycle of `ingest` → analyses →
//! `decide` touches the heap only when `decisions` or the venue's fills
//! outgrow their vector (amortised), traced or not, on the single-owner
//! trader and on its native form alike. A trader is two blocks whatever
//! its parts. What tracing it costs the heap is one block when the tracer
//! is attached and a fixed number when it is read; a scheduling recorder's
//! ring costs nothing once built.
//!
//! An integration test is its own binary, so it can install its own
//! counting allocator; calls are counted per thread, and each test counts
//! on the thread that runs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rtseed::obs::{TraceConfig, TraceEvent, TraceRecorder};
use rtseed_model::{JobId, Span, TaskId, Time};
use rtseed_trading::execution::{ExecutionConfig, PaperVenue};
use rtseed_trading::fault::{
    FaultyFeed, FeedFaultPlan, FeedFaultRates, FeedWatchdog, WatchdogConfig,
};
use rtseed_trading::fundamentals::MacroFeed;
use rtseed_trading::imprecise::{ImpreciseTrader, NativeTrader, PipelineTracer};
use rtseed_trading::market::SyntheticFeed;
use rtseed_trading::strategy::{
    BollingerReversion, FundamentalBias, MacdMomentum, RsiContrarian, SignalAggregator, Strategy,
};

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

const ANALYSES: usize = 7;
const WARMUP: usize = 1_000;
const CYCLES: usize = 10_000;

/// The `feed_faults` trader of `perfbench`: a watchdog over a feed with
/// every fault class, seven analyses cycling through all four strategy
/// kinds.
fn feed_faults_trader() -> ImpreciseTrader {
    let rates = FeedFaultRates {
        stall: 0.005,
        stall_polls: 2,
        gap: 0.005,
        gap_ticks: 2,
        out_of_order: 0.005,
        nan: 0.005,
    };
    let watchdog = WatchdogConfig {
        max_retries: 7,
        ..WatchdogConfig::default()
    };
    let strategies = (0..ANALYSES)
        .map(|part| -> Box<dyn Strategy> {
            match part % 4 {
                0 => Box::new(BollingerReversion::new(10 + part / 4, 2.0)),
                1 => Box::new(MacdMomentum::new(0.00002)),
                2 => Box::new(RsiContrarian::standard()),
                _ => {
                    let mut bias = FundamentalBias::new(0.1);
                    let mut releases = MacroFeed::new(7, Span::from_secs(3_600));
                    for _ in 0..8 {
                        bias.model_mut().ingest(&releases.next_release());
                    }
                    Box::new(bias)
                }
            }
        })
        .collect();
    ImpreciseTrader::new(
        Box::new(FeedWatchdog::new(
            FaultyFeed::new(
                SyntheticFeed::eur_usd(7),
                FeedFaultPlan::new(7).with_random_faults(rates),
            ),
            watchdog,
        )),
        strategies,
        SignalAggregator::new(1),
        PaperVenue::new(ExecutionConfig::default()),
        1.0,
    )
}

/// What a run reads of either form of the trader.
trait Trader {
    fn ingest(&self) -> bool;
    fn analyze(&self, part: usize);
    fn decide(&self);
    /// Decisions made and orders filled so far.
    fn made(&self) -> (usize, usize);
}

impl Trader for ImpreciseTrader {
    fn ingest(&self) -> bool {
        ImpreciseTrader::ingest(self)
    }
    fn analyze(&self, part: usize) {
        ImpreciseTrader::analyze(self, part, &|| false);
    }
    fn decide(&self) {
        ImpreciseTrader::decide(self);
    }
    fn made(&self) -> (usize, usize) {
        (self.decisions().len(), self.venue_snapshot().fills().len())
    }
}

impl Trader for NativeTrader {
    fn ingest(&self) -> bool {
        NativeTrader::ingest(self)
    }
    fn analyze(&self, part: usize) {
        NativeTrader::analyze(self, part, &|| false);
    }
    fn decide(&self) {
        NativeTrader::decide(self);
    }
    fn made(&self) -> (usize, usize) {
        (self.decisions().len(), self.venue_snapshot().fills().len())
    }
}

fn cycle(trader: &impl Trader) {
    assert!(trader.ingest(), "the watchdog outlasts every fault run");
    for part in 0..ANALYSES {
        trader.analyze(part);
    }
    trader.decide();
}

/// Heap allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Heap allocations of `CYCLES` cycles after `WARMUP` warm-up cycles.
fn allocations_of_a_run(trader: &impl Trader) -> u64 {
    for _ in 0..WARMUP {
        cycle(trader);
    }
    let ((), allocs) = allocations_of(|| {
        for _ in 0..CYCLES {
            cycle(trader);
        }
    });
    // The run did trade: fills grew, so the callers' bound is not vacuous.
    let (decisions, fills) = trader.made();
    assert_eq!(decisions, WARMUP + CYCLES);
    assert!(fills > 0);
    allocs
}

#[test]
fn an_untraced_cycle_does_not_allocate() {
    let allocs = allocations_of_a_run(&feed_faults_trader());
    assert!(allocs < 64, "{allocs} allocations in {CYCLES} cycles");
}

#[test]
fn a_native_cycle_does_not_allocate() {
    let allocs = allocations_of_a_run(&feed_faults_trader().into_native());
    assert!(allocs < 64, "{allocs} allocations in {CYCLES} cycles");
}

#[test]
fn a_trader_is_two_blocks_whatever_the_parts() {
    // `perfbench` builds a trader a desk inside the counted trading phase,
    // 228 parts each on `manycore_np228`: a block more a trader is a
    // rise of `allocs_per_cycle` its bound does not allow.
    for np in [1, 3, 228] {
        let feed = Box::new(SyntheticFeed::eur_usd(7));
        let strategies = (0..np)
            .map(|_| Box::new(RsiContrarian::standard()) as Box<dyn Strategy>)
            .collect();
        let venue = PaperVenue::new(ExecutionConfig::default());
        let (trader, allocs) = allocations_of(|| {
            ImpreciseTrader::new(feed, strategies, SignalAggregator::new(1), venue, 1.0)
        });
        assert_eq!(allocs, 2, "np = {np}: the opinion slots and the strategies");
        assert_eq!(trader.analyses(), np);
    }
}

#[test]
fn a_traced_cycle_does_not_allocate() {
    let trader = feed_faults_trader();
    // Ingest + the analyses + decide a cycle: the ring never wraps or grows.
    let events = (WARMUP + CYCLES) * (ANALYSES + 2);
    let tracer = Arc::new(PipelineTracer::new(TraceConfig::bounded(events)));
    trader.attach_tracer(Arc::clone(&tracer));
    let allocs = allocations_of_a_run(&trader);
    assert!(allocs < 64, "{allocs} allocations in {CYCLES} cycles");
    // Reading 99 000 events back: the event vector and the merge's
    // scratch, not an allocation per event or per doubling.
    let (trace, allocs) = allocations_of(|| tracer.snapshot());
    assert_eq!((trace.len(), trace.dropped()), (events, 0));
    assert!(
        allocs <= 2,
        "{allocs} allocations in a snapshot of {events} events"
    );
}

#[test]
fn a_tracer_is_one_block_whatever_the_parts() {
    // `perfbench` counts every allocation of the trading phase into
    // `allocs_per_cycle`, the tracers' among them: a lane of its own
    // vector each would show there as `np + 1` a desk.
    for np in [1, 3, 228] {
        let trader = ImpreciseTrader::new(
            Box::new(SyntheticFeed::eur_usd(7)),
            (0..np)
                .map(|_| Box::new(RsiContrarian::standard()) as Box<dyn Strategy>)
                .collect(),
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
        let (tracer, allocs) = allocations_of(|| {
            let tracer = Arc::new(PipelineTracer::new(TraceConfig::bounded(100 * (np + 2))));
            trader.attach_tracer(Arc::clone(&tracer));
            tracer
        });
        assert_eq!(allocs, 2, "np = {np}: the `Arc` and the block");
        // One event is read back within the bound that 99 000 are.
        assert!(trader.ingest());
        let (trace, allocs) = allocations_of(|| tracer.snapshot());
        assert_eq!(trace.len(), 1);
        assert!(
            allocs <= 2,
            "{allocs} allocations in a snapshot of one event"
        );
    }
}

#[test]
fn a_recorder_within_its_reservation_does_not_allocate() {
    const CAPACITY: usize = 1 << 10;
    let mut rec = TraceRecorder::new(TraceConfig::bounded(CAPACITY));
    let job = JobId {
        task: TaskId(0),
        seq: 0,
    };
    // Fills the ring and goes round it once more.
    let ((), allocs) = allocations_of(|| {
        for i in 0..2 * CAPACITY as u64 {
            rec.record(Time::from_nanos(i), TraceEvent::JobReleased { job });
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!((rec.len(), rec.dropped()), (CAPACITY, CAPACITY as u64));
}
