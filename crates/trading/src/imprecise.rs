//! The adapter from a trading pipeline to a parallel-extended imprecise
//! task (paper §II-A's worked example):
//!
//! * **mandatory part** — obtain the latest exchange rate from the feed;
//! * **parallel optional parts** — run one analysis (technical or
//!   fundamental) each, in parallel, refining QoS;
//! * **wind-up part** — collect whatever opinions exist, decide
//!   bid / ask / wait, and send the trade request to the venue.
//!
//! The state those three parts operate on comes in two forms, by who owns
//! it. [`ImpreciseTrader`] is owned by one thread, which runs every stage
//! of every cycle: the simulated callers, the benchmarks and the tests.
//! [`ImpreciseTrader::into_native`] moves the same state behind locks as a
//! [`NativeTrader`], whose [`NativeTrader::task_body`] packages the parts as
//! a [`rtseed::runtime::TaskBody`] for the native executor, which runs them
//! on different threads. Attach a [`PipelineTracer`], which a conversion
//! keeps, to emit [`TraceEvent::PipelineStage`] events on the unified
//! observability stream (`rtseed::obs`).
//!
//! # What the parts share, and through what
//!
//! Every stage of either form takes `&self`. The stage bodies are written
//! once, over how a form holds the state a part mutates through `&mut`:
//! the single-owner form in a `RefCell` each, a borrow flag its one thread
//! checks and sets with plain loads and stores; the native form behind a
//! mutex each, so that each part takes exactly one lock.
//!
//! | state | written by | read by | single-owner | native |
//! |---|---|---|---|---|
//! | the tick | mandatory | optional, wind-up | a single-writer, sequence-guarded cell of atomics | the same cell |
//! | opinion of part *k* | optional part *k* | wind-up | its own atomic slot, stamped with the tick's sequence | the same slot |
//! | feed, venue, decisions | mandatory, wind-up | the accessors | one `RefCell` (the real-time state) | one mutex (the real-time state) |
//! | strategy *k* | optional part *k* | — | its own `RefCell` | its own mutex |
//! | the tracer | `attach_tracer`, once | every stage | a `OnceLock`: one load | the same |
//! | trace lane 0 | mandatory, wind-up (one thread) | `snapshot` | single writer, `Release` length / `Acquire` snapshot | the same |
//! | trace lane *k* + 1 | optional part *k* | `snapshot` | single writer, `Release` length / `Acquire` snapshot | the same |
//!
//! A single-owner cycle takes no lock and makes no atomic read-modify-write.
//! On the native form no lock is taken by both an optional part and a
//! real-time part, traced or not, and none by a reader of the trace: an
//! analysis preempted at any instruction holds nothing the mandatory part
//! or the wind-up waits for.

use std::cell::{RefCell, RefMut};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use rtseed::obs::clock::{self, Mark, Scale};
use rtseed::obs::{PipelineStage, Trace, TraceConfig, TraceEvent};
use rtseed::runtime::{OptionalControl, TaskBody};
use rtseed_model::{JobId, PartId, Span, TaskSetError, TaskSpec, Time};

use crate::execution::{Order, PaperVenue, Side};
use crate::market::{Tick, TickSource};
use crate::strategy::{Signal, SignalAggregator, Strategy};

/// Records the trading pipeline's stage transitions as
/// [`TraceEvent::PipelineStage`] events, shared by the mandatory, optional
/// and wind-up threads of a native run, none of which can delay another by
/// recording: each thread appends to a lane only it writes, and
/// [`PipelineTracer::snapshot`] reads all of them without stopping any.
///
/// A tracer records one trader. [`ImpreciseTrader::attach_tracer`] binds it
/// to the trader's number of analyses and that is when its storage is
/// allocated, in one block, and zeroed. The configured capacity is split in
/// proportion to what a cycle writes, so every lane holds the same last
/// `capacity / (np + 2)` whole cycles: a tracer sized `cycles × (np + 2)`
/// drops nothing.
///
/// Cycles are numbered from 0: each [`ImpreciseTrader::ingest`] that
/// obtains a tick starts a new cycle; analyses and the decision record
/// against the current one.
///
/// A record's time is one [`clock::ticks`] reading, which on most x86-64
/// hosts is a single `RDTSC`; [`PipelineTracer::snapshot`] converts the
/// readings to nanoseconds since the epoch. The stages do no clock
/// arithmetic.
#[derive(Debug)]
pub struct PipelineTracer {
    epoch: Instant,
    /// Taken when the tracer was built: where a snapshot's scale starts.
    built: Mark,
    config: TraceConfig,
    /// Cycles begun. Written by the task thread alone.
    cycle: AtomicU64,
    /// Set when the tracer is bound; `None` inside when tracing is off.
    lanes: OnceLock<Option<Lanes>>,
}

impl PipelineTracer {
    /// Creates a tracer; timestamps are nanoseconds since this call.
    ///
    /// When the pipeline trace will be merged with other traces (the
    /// native executor's scheduling trace, or other tracers of the same
    /// run), use [`PipelineTracer::with_epoch`] instead so all timestamps
    /// share one time base.
    pub fn new(config: TraceConfig) -> PipelineTracer {
        let built = Mark::now();
        PipelineTracer::at(config, built.instant(), built)
    }

    /// Creates a tracer whose timestamps are nanoseconds since `epoch`.
    ///
    /// This mirrors the native executor's per-thread recorder idiom: one
    /// `Instant` captured before the run is shared by every recorder, so
    /// merged traces line up on a single time axis instead of each tracer
    /// starting its own clock at construction.
    pub fn with_epoch(config: TraceConfig, epoch: Instant) -> PipelineTracer {
        PipelineTracer::at(config, epoch, Mark::now())
    }

    fn at(config: TraceConfig, epoch: Instant, built: Mark) -> PipelineTracer {
        PipelineTracer {
            epoch,
            built,
            config,
            cycle: AtomicU64::new(0),
            lanes: OnceLock::new(),
        }
    }

    /// Binds the tracer to a trader of `parts` analyses and allocates its
    /// lanes (none when tracing is off). A zero capacity is clamped, as a
    /// [`rtseed::obs::TraceRecorder`]'s is: the smallest ring holds a cycle.
    fn bind(&self, parts: usize) {
        let TraceConfig { enabled, capacity } = self.config;
        let lanes = enabled.then(|| Lanes::new(parts, (capacity / (parts + 2)).max(1)));
        assert!(self.lanes.set(lanes).is_ok(), "a tracer records one trader");
    }

    /// Starts a cycle and returns its number. The task thread is the only
    /// writer, so a load and a store do what a `fetch_add` would.
    fn begin_cycle(&self) -> u64 {
        let cycle = self.cycle.load(Ordering::Relaxed);
        self.cycle.store(cycle + 1, Ordering::Relaxed);
        cycle
    }

    /// The cycle in progress. Exact for a part that was started after the
    /// mandatory part returned, which is how a runtime starts them: that
    /// hand-over is what orders this load after `begin_cycle`'s store.
    fn current_cycle(&self) -> u64 {
        self.cycle.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// The lanes, once bound and unless tracing is off.
    fn lanes(&self) -> Option<&Lanes> {
        self.lanes.get()?.as_ref()
    }

    fn record(&self, cycle: u64, stage: PipelineStage, part: Option<PartId>) {
        if let Some(lanes) = self.lanes() {
            let lane = part.map_or(0, |p| p.index() + 1);
            lanes.push(lane, clock::ticks(), cycle, stage);
        }
    }

    /// The trace recorded so far (recording continues, and no part waits
    /// for this call): every lane's retained records merged by timestamp,
    /// a lane's own order kept and lane order breaking ties. Export with
    /// [`rtseed::obs::export`].
    ///
    /// A snapshot taken while the parts record sees, of each lane, the
    /// records published before it looked; one the writer overwrote
    /// meanwhile is counted in [`Trace::dropped`], never returned half old
    /// and half new.
    ///
    /// Timestamps are placed by the line through the [`Mark`] taken when
    /// the tracer was built and one taken after the lanes are read, so
    /// every record lies between the two. Each snapshot draws its own
    /// line: a record two snapshots return may differ between them by the
    /// marks' error, a few nanoseconds.
    pub fn snapshot(&self) -> Trace {
        self.snapshot_to(Mark::now)
    }

    /// [`PipelineTracer::snapshot`], with the scale's second mark taken by
    /// `end` once the lanes are read.
    fn snapshot_to(&self, end: impl FnOnce() -> Mark) -> Trace {
        let Some(lanes) = self.lanes() else {
            return Trace::new();
        };
        let mut events = Vec::with_capacity((0..=lanes.parts).map(|l| lanes.held(l)).sum());
        let mut dropped = 0;
        for lane in 0..=lanes.parts {
            dropped += lanes.read(lane, &mut events);
        }
        // Every lane is a sorted run, which is the stable sort's best case.
        events.sort_by_key(|(at, _)| *at);
        let scale = Scale::new(self.epoch, self.built, end());
        for (at, _) in &mut events {
            *at = Time::from_nanos(scale.nanos(at.as_nanos()));
        }
        Trace::from_parts(events, dropped)
    }
}

/// Words of a record: its stamp, its [`clock::ticks`] reading, the cycle.
const RECORD: usize = 3;

/// A record's stamp: its index in its lane over the stage's two bits.
fn stamp(index: u64, stage: PipelineStage) -> u64 {
    let code = match stage {
        PipelineStage::Ingest => 0,
        PipelineStage::Analysis => 1,
        PipelineStage::Decide => 2,
    };
    index << 2 | code
}

/// The stage of the record a slot holds, if that is record `index`.
fn stamped(stamp: u64, index: u64) -> Option<PipelineStage> {
    if stamp >> 2 != index {
        return None;
    }
    match stamp & 3 {
        0 => Some(PipelineStage::Ingest),
        1 => Some(PipelineStage::Analysis),
        2 => Some(PipelineStage::Decide),
        _ => None,
    }
}

/// The tracer's storage: one append-only ring of records per writing
/// thread, all in one block. Lane 0 is the task thread's, which runs the
/// mandatory part and the wind-up and so writes two records a cycle; lane
/// `k + 1` is optional part `k`'s and takes one. A lane is its length (the
/// records ever written to it) followed by its ring, so a writer touches
/// its own lane's words and nothing else.
///
/// A record is three words. The part is not one of them: it is the lane.
/// The stamp is the record's index in its lane over the stage, so a slot
/// says which of the records that ever shared it it holds.
///
/// Ordering. A writer stores the stamp, then the payload (`Release`), then
/// the length (`Release`); a reader loads the length (`Acquire`), then of
/// every record in the ring's window the payload (`Acquire`) and then the
/// stamp. Plain moves on x86-64, and no read-modify-write anywhere.
///
/// * *A record below the length is complete.* The reader's length load
///   reads the store that published record `len − 1` or a later one and
///   synchronizes with it; every store of every earlier record
///   happens-before that store, the lane having one writer.
/// * *A record is never half overwritten.* A payload load that reads the
///   store of a later record in the same slot synchronizes with it, and the
///   writer sequenced that record's stamp store before it; the reader's
///   stamp load comes after, must read that stamp or a later one, finds it
///   is not the index it asked for, and counts the record as dropped, with
///   every older one: the writer had been through their slots before.
///
/// Two threads writing one lane would claim the same index and lose one
/// record to the other; the runtime runs a part on one thread at a time.
struct Lanes {
    parts: usize,
    /// Whole cycles a lane holds.
    cycles: usize,
    words: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lanes")
            .field("parts", &self.parts)
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl Lanes {
    /// One zeroed block for `parts + 1` lanes of `cycles` cycles: touching
    /// every word here keeps the first-touch page faults out of the cycles.
    fn new(parts: usize, cycles: usize) -> Lanes {
        let words = Lanes::lane_words(2 * cycles) + parts * Lanes::lane_words(cycles);
        Lanes {
            parts,
            cycles,
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Words of a lane of `records` records: its length, then its ring.
    const fn lane_words(records: usize) -> usize {
        1 + records * RECORD
    }

    /// Where `lane`'s length word is, and how many records its ring holds.
    fn lane(&self, lane: usize) -> (usize, usize) {
        match lane {
            0 => (0, 2 * self.cycles),
            k => (
                Lanes::lane_words(2 * self.cycles) + (k - 1) * Lanes::lane_words(self.cycles),
                self.cycles,
            ),
        }
    }

    /// The first word of record `index` of the lane at `base`.
    fn slot(base: usize, capacity: usize, index: u64) -> usize {
        // The division only once the ring has wrapped.
        let at = if index < capacity as u64 {
            index
        } else {
            index % capacity as u64
        };
        base + 1 + at as usize * RECORD
    }

    /// Appends a record to `lane`. Callers of one lane must not overlap.
    fn push(&self, lane: usize, ticks: u64, cycle: u64, stage: PipelineStage) {
        let (base, capacity) = self.lane(lane);
        let index = self.words[base].load(Ordering::Relaxed);
        let slot = Lanes::slot(base, capacity, index);
        self.words[slot].store(stamp(index, stage), Ordering::Relaxed);
        self.words[slot + 1].store(ticks, Ordering::Release);
        self.words[slot + 2].store(cycle, Ordering::Release);
        self.words[base].store(index + 1, Ordering::Release);
    }

    /// How many records `lane`'s ring holds.
    fn held(&self, lane: usize) -> usize {
        let (base, capacity) = self.lane(lane);
        let len = self.words[base].load(Ordering::Relaxed);
        len.min(capacity as u64) as usize
    }

    /// Decodes what `lane`'s ring holds onto `events`, oldest first, each
    /// at its raw clock reading, and returns how many of the lane's records
    /// are lost: those the ring no longer holds and those overwritten
    /// during the read. What it keeps is always the lane's latest records
    /// with none missing in between.
    fn read(&self, lane: usize, events: &mut Vec<(Time, TraceEvent)>) -> u64 {
        let (base, capacity) = self.lane(lane);
        let len = self.words[base].load(Ordering::Acquire);
        let part = lane.checked_sub(1).map(|k| PartId(k as u32));
        let start = events.len();
        for index in len.saturating_sub(capacity as u64)..len {
            let slot = Lanes::slot(base, capacity, index);
            let ticks = self.words[slot + 1].load(Ordering::Acquire);
            let cycle = self.words[slot + 2].load(Ordering::Acquire);
            match stamped(self.words[slot].load(Ordering::Relaxed), index) {
                Some(stage) => events.push((
                    Time::from_nanos(ticks),
                    TraceEvent::PipelineStage { cycle, stage, part },
                )),
                // The writer has come round to this slot, so it has been
                // through every older record's: what was read of them is
                // whole, but keeping it would leave a hole behind it.
                None => events.truncate(start),
            }
        }
        len - (events.len() - start) as u64
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

/// The current tick, published by the mandatory part to the parts that
/// follow it without a lock: a sequence counter guards the tick's three
/// words and a presence flag.
///
/// The one writer — the mandatory part, which stores while it holds the
/// real-time state, so writers are serialized — makes the sequence
/// odd, stores the fields and makes it even again. A reader takes the
/// sequence, the fields and the sequence again, and keeps the fields only
/// if both readings are the same even number: `seq / 2` publications have
/// completed and the fields are the last one's.
///
/// Ordering: every store is `Release` and every load `Acquire` (plain moves
/// on x86-64), which is what the reader's two guarantees rest on.
///
/// * *It sees all of the publication it names.* Its first `seq` load reads
///   the closing store of publication `seq` and synchronizes with it, so
///   every field store of that publication happens-before its field loads.
/// * *It keeps nothing newer.* A field load that reads a later writer's
///   store synchronizes with that store, which the writer sequenced after
///   its opening odd store; that odd store therefore happens-before the
///   reader's second `seq` load, which must read it or a later value, sees
///   the sequence changed, and retries.
///
/// So a reader that races a writer retries rather than returns a mix of two
/// ticks. It spins only while a store is in flight, four stores long.
#[derive(Default)]
struct TickCell {
    seq: AtomicU64,
    present: AtomicBool,
    at: AtomicU64,
    bid: AtomicU64,
    ask: AtomicU64,
}

impl TickCell {
    /// Publishes `tick`; a cycle without one still advances the sequence.
    /// Callers must not overlap.
    fn store(&self, tick: Option<Tick>) {
        // Only a writer changes `seq`, and what serializes the writers
        // orders this load after the previous one's stores.
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Release);
        self.present.store(tick.is_some(), Ordering::Release);
        if let Some(tick) = tick {
            self.at.store(tick.at.as_nanos(), Ordering::Release);
            self.bid.store(tick.bid.to_bits(), Ordering::Release);
            self.ask.store(tick.ask.to_bits(), Ordering::Release);
        }
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// The latest publication and its (even) sequence.
    fn load(&self) -> (u64, Option<Tick>) {
        loop {
            let seq = self.seq.load(Ordering::Acquire);
            let tick = self.present.load(Ordering::Acquire).then(|| Tick {
                at: Time::from_nanos(self.at.load(Ordering::Acquire)),
                bid: f64::from_bits(self.bid.load(Ordering::Acquire)),
                ask: f64::from_bits(self.ask.load(Ordering::Acquire)),
            });
            if seq.is_multiple_of(2) && self.seq.load(Ordering::Acquire) == seq {
                return (seq, tick);
            }
            std::hint::spin_loop();
        }
    }
}

/// An opinion slot's word: the cell sequence of the tick the opinion was
/// formed on (even, so doubling it frees two bits) over the opinion. The
/// stamp is the whole sequence, not its low bits: a part cut short 2ᵏ
/// cycles in a row must not find its old opinion current again.
fn slot(seq: u64, opinion: Option<Signal>) -> u64 {
    let code = match opinion {
        None => 0,
        Some(Signal::Bid) => 1,
        Some(Signal::Ask) => 2,
        Some(Signal::Wait) => 3,
    };
    seq << 1 | code
}

/// The opinion a slot holds for the tick published as `seq`: a word left
/// from another cycle abstains.
fn vote(slot: u64, seq: u64) -> Option<Signal> {
    if slot & !3 != seq << 1 {
        return None;
    }
    match slot & 3 {
        1 => Some(Signal::Bid),
        2 => Some(Signal::Ask),
        3 => Some(Signal::Wait),
        _ => None,
    }
}

/// What the real-time parts mutate: the mandatory part pulls from `feed`
/// and marks `venue` to market, the wind-up appends to `decisions` and
/// submits to `venue`.
struct RealTime {
    feed: Box<dyn TickSource + Send>,
    venue: PaperVenue,
    decisions: Vec<Signal>,
}

/// How a form of the trader holds what a stage mutates through `&mut`: the
/// stage bodies take it through [`Hold::hold`] and never learn which.
trait Hold<T> {
    type Held<'a>: DerefMut<Target = T>
    where
        Self: 'a;

    fn hold(&self) -> Self::Held<'_>;
}

/// The single-owner hold: a borrow flag, checked and set by the one thread
/// that runs the stages.
impl<T> Hold<T> for RefCell<T> {
    type Held<'a>
        = RefMut<'a, T>
    where
        Self: 'a;

    fn hold(&self) -> RefMut<'_, T> {
        self.borrow_mut()
    }
}

/// The native hold: a lock, taken by whichever thread runs the part.
impl<T> Hold<T> for Mutex<T> {
    type Held<'a>
        = MutexGuard<'a, T>
    where
        Self: 'a;

    fn hold(&self) -> MutexGuard<'_, T> {
        self.lock().expect("a part panicked holding its state")
    }
}

/// One imprecise trading task's state and its three stages, written once
/// for both forms: `R` holds the real-time state and `S` each strategy.
struct Pipeline<R, S> {
    real_time: R,
    strategies: Vec<S>,
    aggregator: SignalAggregator,
    tick: TickCell,
    opinions: Vec<AtomicU64>,
    order_quantity: f64,
    tracer: OnceLock<Arc<PipelineTracer>>,
}

impl<R, S> std::fmt::Debug for Pipeline<R, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("strategies", &self.strategies.len())
            .finish_non_exhaustive()
    }
}

impl<R: Hold<RealTime>, S: Hold<Box<dyn Strategy>>> Pipeline<R, S> {
    fn trace_stage(&self, stage: PipelineStage, part: Option<PartId>) {
        if let Some(tr) = self.tracer.get() {
            let cycle = if matches!(stage, PipelineStage::Ingest) {
                tr.begin_cycle()
            } else {
                tr.current_cycle()
            };
            tr.record(cycle, stage, part);
        }
    }

    fn ingest(&self) -> bool {
        let mut rt = self.real_time.hold();
        let tick = rt.feed.next_tick();
        // Published while the real-time state is held: one writer at a time.
        self.tick.store(tick);
        let Some(tick) = tick else {
            return false;
        };
        rt.venue.on_tick(tick);
        drop(rt);
        self.trace_stage(PipelineStage::Ingest, None);
        true
    }

    fn analyze(&self, part: usize, should_stop: &dyn Fn() -> bool) {
        let (seq, Some(tick)) = self.tick.load() else {
            return;
        };
        self.trace_stage(PipelineStage::Analysis, Some(PartId(part as u32)));
        if should_stop() {
            return; // terminated before doing anything: abstain
        }
        let mut strategy = self.strategies[part].hold();
        strategy.on_tick(&tick);
        if should_stop() {
            return; // terminated mid-analysis: abstain (partial work kept)
        }
        // The word is the whole message, stamp and vote; nothing else is
        // published through it, so `Relaxed`. A wind-up that runs after
        // this part reads it by coherence.
        self.opinions[part].store(slot(seq, strategy.signal()), Ordering::Relaxed);
    }

    fn decide(&self) -> Signal {
        self.trace_stage(PipelineStage::Decide, None);
        let (seq, tick) = self.tick.load();
        let votes = self
            .opinions
            .iter()
            .map(|o| vote(o.load(Ordering::Relaxed), seq));
        let signal = self.aggregator.tally(votes);
        let mut rt = self.real_time.hold();
        rt.decisions.push(signal);
        // No tick, no order: only an analysis that loaded a tick stamps a
        // slot with its sequence.
        if let (Some(side), Some(tick)) = (Side::from_signal(signal), tick) {
            // A failed submission (no market yet) is impossible after
            // ingest(); quantity is validated at construction.
            let _ = rt.venue.submit(Order {
                at: tick.at,
                side,
                quantity: self.order_quantity,
            });
        }
        signal
    }

    fn decisions(&self) -> Vec<Signal> {
        self.real_time.hold().decisions.clone()
    }

    fn venue_snapshot(&self) -> PaperVenue {
        self.real_time.hold().venue.clone()
    }
}

/// One imprecise trading task, owned by one thread (the module docs
/// tabulate what is held through what).
///
/// Its stages take `&self`, as the native form's do, but what they mutate
/// sits in `RefCell`s: a cycle takes no lock and makes no atomic
/// read-modify-write. The type is `Send` and not `Sync`, so the compiler
/// keeps its stages on one thread at a time:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<rtseed_trading::imprecise::ImpreciseTrader>();
/// ```
///
/// To run its parts on the native runtime's threads, convert it with
/// [`ImpreciseTrader::into_native`].
#[derive(Debug)]
pub struct ImpreciseTrader {
    pipeline: Pipeline<RefCell<RealTime>, RefCell<Box<dyn Strategy>>>,
}

// The single-owner trader moves between threads whole.
const _: () = {
    const fn send<T: Send>() {}
    send::<ImpreciseTrader>();
};

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
        ImpreciseTrader {
            pipeline: Pipeline {
                real_time: RefCell::new(RealTime {
                    feed,
                    venue,
                    decisions: Vec::new(),
                }),
                opinions: strategies.iter().map(|_| AtomicU64::new(0)).collect(),
                strategies: strategies.into_iter().map(RefCell::new).collect(),
                aggregator,
                tick: TickCell::default(),
                order_quantity,
                tracer: OnceLock::new(),
            },
        }
    }

    /// Attaches a [`PipelineTracer`]: from now on every ingest / analysis /
    /// decision records a [`TraceEvent::PipelineStage`] event, in this form
    /// and in the [`NativeTrader`] it becomes. A trader takes one tracer for
    /// life (attach it before the first cycle), which is what lets every
    /// stage find it, or find there is none, with one load; and a tracer
    /// takes one trader, whose parts its lanes are cut for here.
    ///
    /// # Panics
    ///
    /// Panics if a tracer is already attached, or if `tracer` already
    /// records another trader.
    pub fn attach_tracer(&self, tracer: Arc<PipelineTracer>) {
        let mut attached = false;
        self.pipeline.tracer.get_or_init(|| {
            tracer.bind(self.analyses());
            attached = true;
            tracer
        });
        assert!(attached, "a tracer is already attached");
    }

    /// Number of parallel analyses (the task's `npᵢ`).
    pub fn analyses(&self) -> usize {
        self.pipeline.strategies.len()
    }

    /// **Mandatory part**: pulls the next tick and publishes it to the
    /// analyses and the venue. Returns `false` when the feed has no tick
    /// (exhausted, dropout, kill switch): the cycle then has no tick and no
    /// opinions, so its analyses abstain and its wind-up waits, whether or
    /// not the caller reads the return value. Opinions need no reset: each
    /// carries the sequence of the tick it was formed on, and the new
    /// publication makes all of them stale.
    pub fn ingest(&self) -> bool {
        self.pipeline.ingest()
    }

    /// **Parallel optional part** `part`: feeds the current tick to that
    /// part's strategy and records its opinion. `should_stop` is polled
    /// between work units for cooperative termination; an analysis cut
    /// before recording simply abstains this cycle, and one that records
    /// after the next tick was published votes in no cycle at all.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn analyze(&self, part: usize, should_stop: &dyn Fn() -> bool) {
        self.pipeline.analyze(part, should_stop);
    }

    /// **Wind-up part**: aggregates the opinions formed on the current
    /// tick, records the decision, and sends a trade request when it is not
    /// `Wait`. The tick is loaded once: the votes counted, the decision and
    /// the order's timestamp all belong to that one publication.
    pub fn decide(&self) -> Signal {
        self.pipeline.decide()
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
        self.pipeline.decisions()
    }

    /// Venue snapshot (position, fills, P&L).
    pub fn venue_snapshot(&self) -> PaperVenue {
        self.pipeline.venue_snapshot()
    }

    /// Moves this trader's state behind locks, for a runtime that runs its
    /// parts on different threads: the real-time state behind one mutex,
    /// each strategy behind its own. Everything else moves as it is: the
    /// tick cell, the opinion slots, the decisions so far and the tracer.
    pub fn into_native(self) -> NativeTrader {
        let Pipeline {
            real_time,
            strategies,
            aggregator,
            tick,
            opinions,
            order_quantity,
            tracer,
        } = self.pipeline;
        NativeTrader {
            pipeline: Pipeline {
                real_time: Mutex::new(real_time.into_inner()),
                strategies: strategies
                    .into_iter()
                    .map(|s| Mutex::new(s.into_inner()))
                    .collect(),
                aggregator,
                tick,
                opinions,
                order_quantity,
                tracer,
            },
        }
    }
}

/// An [`ImpreciseTrader`] whose parts may run on different threads, the
/// optional ones in parallel: made by [`ImpreciseTrader::into_native`] and
/// run by the native executor through [`NativeTrader::task_body`]. Its
/// stages are the single-owner form's, with the same results.
///
/// There are two kinds of lock, the real-time state's and one per strategy,
/// and no stage ever holds two at once: the mandatory part and the wind-up
/// take the first, once each; optional part *k* takes strategy *k*'s.
#[derive(Debug)]
pub struct NativeTrader {
    pipeline: Pipeline<Mutex<RealTime>, Mutex<Box<dyn Strategy>>>,
}

impl NativeTrader {
    /// Number of parallel analyses (the task's `npᵢ`).
    pub fn analyses(&self) -> usize {
        self.pipeline.strategies.len()
    }

    /// **Mandatory part**, as [`ImpreciseTrader::ingest`], under the
    /// real-time lock.
    pub fn ingest(&self) -> bool {
        self.pipeline.ingest()
    }

    /// **Parallel optional part** `part`, as [`ImpreciseTrader::analyze`],
    /// under strategy `part`'s lock.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn analyze(&self, part: usize, should_stop: &dyn Fn() -> bool) {
        self.pipeline.analyze(part, should_stop);
    }

    /// **Wind-up part**, as [`ImpreciseTrader::decide`], under the
    /// real-time lock.
    pub fn decide(&self) -> Signal {
        self.pipeline.decide()
    }

    /// All decisions made so far, in cycle order.
    pub fn decisions(&self) -> Vec<Signal> {
        self.pipeline.decisions()
    }

    /// Venue snapshot (position, fills, P&L).
    pub fn venue_snapshot(&self) -> PaperVenue {
        self.pipeline.venue_snapshot()
    }

    /// Packages this trader as a [`TaskBody`] for
    /// [`rtseed::runtime::NativeExecutor`]: mandatory = [`NativeTrader::ingest`],
    /// optional part k = [`NativeTrader::analyze`]`(k)`, wind-up =
    /// [`NativeTrader::decide`].
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
                crate::market::PriceProcess::GeometricBrownian {
                    mu: 0.0,
                    sigma: 0.001,
                },
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

    #[test]
    fn a_straggling_analysis_cannot_vote_in_the_next_cycle() {
        let t = ImpreciseTrader::new(
            Box::new(SyntheticFeed::eur_usd(1)),
            vec![Box::new(AlwaysBid(false))],
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
        assert!(t.ingest());
        // The part passes its last termination check, then is descheduled
        // across the wind-up and the next mandatory part before it stores
        // its opinion.
        let checks = std::cell::Cell::new(0);
        t.analyze(0, &|| {
            checks.set(checks.get() + 1);
            if checks.get() == 2 {
                assert_eq!(t.decide(), Signal::Wait, "it had not voted yet");
                assert!(t.ingest());
            }
            false
        });
        // In the new cycle the part is terminated before it votes again:
        // the opinion it formed on the previous tick must not count.
        t.analyze(0, &|| true);
        assert_eq!(t.decide(), Signal::Wait);
    }

    #[test]
    fn a_racing_reader_never_sees_a_torn_tick() {
        const PUBLICATIONS: u64 = 200_000;
        let cell = TickCell::default();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 1..=PUBLICATIONS {
                    // All three fields are functions of one counter.
                    cell.store((i % 97 != 0).then(|| Tick {
                        at: Time::from_nanos(i),
                        bid: i as f64,
                        ask: i as f64 + 1.0,
                    }));
                }
            });
            start.wait();
            let mut last = 0;
            while last < 2 * PUBLICATIONS {
                let (seq, tick) = cell.load();
                assert!(seq.is_multiple_of(2) && seq >= last, "{seq} after {last}");
                last = seq;
                // Publication `seq / 2`, whole: never fields of two ticks.
                let i = seq / 2;
                assert_eq!(tick.is_some(), i % 97 != 0, "publication {i}");
                if let Some(t) = tick {
                    assert_eq!(
                        (t.at.as_nanos(), t.bid, t.ask),
                        (i, i as f64, i as f64 + 1.0)
                    );
                }
            }
        });
    }

    #[test]
    fn a_slot_holds_its_opinion_for_its_own_tick_only() {
        for opinion in [
            None,
            Some(Signal::Bid),
            Some(Signal::Ask),
            Some(Signal::Wait),
        ] {
            for seq in [0, 2, 4, u64::MAX - 1] {
                assert_eq!(vote(slot(seq, opinion), seq), opinion);
                assert_eq!(vote(slot(seq, opinion), seq.wrapping_add(2)), None);
            }
        }
        // A fresh trader's slots abstain before the first publication.
        assert_eq!(vote(0, 0), None);
    }

    #[test]
    fn the_trader_and_its_tracer_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NativeTrader>();
        assert_send_sync::<PipelineTracer>();
    }

    #[test]
    #[should_panic(expected = "a tracer is already attached")]
    fn a_trader_takes_one_tracer() {
        let t = trader(1);
        t.attach_tracer(Arc::new(PipelineTracer::new(TraceConfig::enabled())));
        t.attach_tracer(Arc::new(PipelineTracer::new(TraceConfig::enabled())));
    }

    #[test]
    fn a_cycle_with_no_tick_places_no_order() {
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
        use crate::fault::{FaultyFeed, FeedFault, FeedFaultPlan, FeedWatchdog, WatchdogConfig};

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
        use crate::fault::{FaultyFeed, FeedFaultPlan, FeedWatchdog, WatchdogConfig};
        use crate::market::TickSource;

        // Boxed feeds compose under the watchdog too (blanket impl).
        let boxed: Box<dyn TickSource + Send> = Box::new(SyntheticFeed::eur_usd(1));
        let mut dog = FeedWatchdog::new(
            FaultyFeed::new(boxed, FeedFaultPlan::none()),
            WatchdogConfig::default(),
        );
        assert!(dog.next_tick().is_some());
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&dog);
    }

    /// A trader over a faulty feed whose watchdog retries nothing and never
    /// trips: every faulted poll is a cycle with no tick.
    fn dropping_trader(seed: u64, np: usize, quorum: usize) -> ImpreciseTrader {
        use crate::fault::{
            FaultyFeed, FeedFaultPlan, FeedFaultRates, FeedWatchdog, WatchdogConfig,
        };
        let rates = FeedFaultRates {
            stall: 0.03,
            stall_polls: 2,
            gap: 0.03,
            gap_ticks: 2,
            out_of_order: 0.03,
            nan: 0.03,
        };
        let watchdog = WatchdogConfig {
            max_retries: 0,
            trip_after: u32::MAX,
            ..WatchdogConfig::default()
        };
        let strategies = (0..np)
            .map(|k| -> Box<dyn Strategy> {
                match k % 3 {
                    0 => Box::new(BollingerReversion::new(5 + k, 1.0)),
                    1 => Box::new(MacdMomentum::new(0.00002)),
                    _ => Box::new(RsiContrarian::standard()),
                }
            })
            .collect();
        ImpreciseTrader::new(
            Box::new(FeedWatchdog::new(
                FaultyFeed::new(
                    SyntheticFeed::eur_usd(seed),
                    FeedFaultPlan::new(seed).with_random_faults(rates),
                ),
                watchdog,
            )),
            strategies,
            SignalAggregator::new(quorum),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        )
    }

    /// A termination check that fires at its `polls`-th call (never for 0):
    /// 1 cuts an analysis before its strategy runs, 2 between the strategy's
    /// update and the vote.
    fn stop_at(polls: u32) -> impl Fn() -> bool {
        let seen = std::cell::Cell::new(0);
        move || {
            seen.set(seen.get() + 1);
            seen.get() == polls
        }
    }

    #[test]
    fn both_forms_trade_alike() {
        const CYCLES: u64 = 2_000;
        for seed in [5, 11] {
            for np in [1, 3, 7] {
                for quorum in [1, 2] {
                    let case = format!("seed {seed}, np {np}, quorum {quorum}");
                    let owned = dropping_trader(seed, np, quorum);
                    let native = dropping_trader(seed, np, quorum).into_native();
                    let (mut tickless, mut cut, mut orders) = (0, 0, 0);
                    for cycle in 0..CYCLES {
                        let fresh = owned.ingest();
                        assert_eq!(native.ingest(), fresh, "{case}, cycle {cycle}");
                        tickless += u64::from(!fresh);
                        for part in 0..np {
                            let polls = match (cycle + part as u64) % 7 {
                                0 => 1,
                                3 => 2,
                                _ => 0,
                            };
                            cut += u64::from(fresh && polls > 0);
                            owned.analyze(part, &stop_at(polls));
                            native.analyze(part, &stop_at(polls));
                        }
                        let signal = owned.decide();
                        assert_eq!(native.decide(), signal, "{case}, cycle {cycle}");
                        orders += usize::from(signal != Signal::Wait);
                    }
                    assert!(tickless > 0 && cut > 0, "{case}: {tickless} / {cut}");
                    assert_eq!(owned.decisions(), native.decisions(), "{case}");
                    let (a, b) = (owned.venue_snapshot(), native.venue_snapshot());
                    assert_eq!(a.fills(), b.fills(), "{case}");
                    assert_eq!(a.fills().len(), orders, "{case}");
                    assert_eq!(a.equity().to_bits(), b.equity().to_bits(), "{case}");
                    // One analysis never makes a quorum of two.
                    assert_eq!(orders > 0, quorum <= np, "{case}");
                }
            }
        }
    }

    #[test]
    fn native_task_body_runs_the_pipeline() {
        use rtseed::config::SystemConfig;
        use rtseed::executor::RunConfig;
        use rtseed::policy::AssignmentPolicy;
        use rtseed::runtime::NativeExecutor;
        use rtseed::termination::TerminationMode;
        use rtseed_model::{Span, TaskSet, TaskSpec, Topology};

        let owned = trader(1);
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
        owned.attach_tracer(Arc::clone(&tracer));
        let trader = Arc::new(owned.into_native());
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
            trace.count(|e| matches!(e, TraceEvent::PipelineStage { stage, .. } if *stage == s))
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
        let desk = desk_task_set("desk", &["EURUSD", "GBPUSD"], 2, Span::from_millis(50)).unwrap();
        mgr.submit("desk", &desk)
            .expect("a light desk is admissible");
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
    fn tracer_stamps_fall_between_the_instants_around_the_cycles() {
        let epoch = Instant::now();
        let tracer = Arc::new(PipelineTracer::with_epoch(TraceConfig::enabled(), epoch));
        let t = trader(1);
        t.attach_tracer(Arc::clone(&tracer));
        let since = |at: Instant| at.duration_since(epoch).as_nanos() as u64;
        let before = since(Instant::now());
        for _ in 0..1_000 {
            t.run_cycle_synchronous();
        }
        let trace = tracer.snapshot();
        let after = since(Instant::now());
        assert_eq!(trace.len(), 1_000 * 5);
        let (first, last) = (trace.events()[0].0, trace.events()[trace.len() - 1].0);
        assert!(first.as_nanos() >= before, "{first:?} before {before} ns");
        assert!(last.as_nanos() <= after, "{last:?} after {after} ns");
        // A tracer of its own reads the same host time on the same axis.
        let own = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
        let t = trader(1);
        t.attach_tracer(Arc::clone(&own));
        t.run_cycle_synchronous();
        let spent = since(Instant::now());
        assert!(own
            .snapshot()
            .events()
            .iter()
            .all(|(at, _)| at.as_nanos() <= spent));
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
        assert_eq!(
            PipelineTracer::new(TraceConfig::enabled()).snapshot().len(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "a tracer records one trader")]
    fn a_tracer_records_one_trader() {
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
        trader(1).attach_tracer(Arc::clone(&tracer));
        trader(1).attach_tracer(tracer);
    }

    #[test]
    fn a_single_thread_trace_is_the_pipeline_in_order() {
        const CYCLES: u64 = 1_000;
        let t = trader(1);
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::enabled()));
        t.attach_tracer(Arc::clone(&tracer));
        for _ in 0..CYCLES {
            t.run_cycle_synchronous();
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.dropped(), 0);
        // Timestamps aside, what the tracer has always yielded: ingest,
        // the analyses in part order, decide; cycles from 0.
        let expected: Vec<TraceEvent> = (0..CYCLES)
            .flat_map(|cycle| {
                let event = move |stage, part| TraceEvent::PipelineStage { cycle, stage, part };
                std::iter::once(event(PipelineStage::Ingest, None))
                    .chain((0..3).map(move |k| event(PipelineStage::Analysis, Some(PartId(k)))))
                    .chain(std::iter::once(event(PipelineStage::Decide, None)))
            })
            .collect();
        let recorded: Vec<TraceEvent> = trace.events().iter().map(|(_, e)| e.clone()).collect();
        assert_eq!(recorded, expected);
        assert!(trace.events().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn a_lapped_read_keeps_the_latest_records_whole() {
        // One part, four cycles a lane; the part has recorded six.
        let lanes = Lanes::new(1, 4);
        for cycle in 0..6 {
            lanes.push(1, 100 + cycle, cycle, PipelineStage::Analysis);
        }
        let read = |lanes: &Lanes| {
            let mut events = Vec::new();
            let lost = lanes.read(1, &mut events);
            let cycles: Vec<u64> = events
                .iter()
                .map(|(at, event)| match event {
                    TraceEvent::PipelineStage {
                        cycle,
                        stage: PipelineStage::Analysis,
                        part,
                    } if *part == Some(PartId(0)) && at.as_nanos() == 100 + cycle => *cycle,
                    _ => panic!("not a whole event: {event:?}"),
                })
                .collect();
            (cycles, lost)
        };
        assert_eq!(read(&lanes), (vec![2, 3, 4, 5], 2));
        // What a reader that has loaded the length finds when the writer
        // has begun record 6, in record 2's slot: the stamp goes first.
        let (base, capacity) = lanes.lane(1);
        let slot = Lanes::slot(base, capacity, 6);
        assert_eq!(slot, Lanes::slot(base, capacity, 2));
        lanes.words[slot].store(stamp(6, PipelineStage::Analysis), Ordering::Relaxed);
        assert_eq!(read(&lanes), (vec![3, 4, 5], 3));
        // And when the writer got as far as record 8 while the reader was
        // on its way there: what it read of 2 and 3 is whole but goes, so
        // that what is left has no hole in it.
        let slot = Lanes::slot(base, capacity, 8);
        lanes.words[slot].store(stamp(8, PipelineStage::Analysis), Ordering::Relaxed);
        lanes.words[Lanes::slot(base, capacity, 2)]
            .store(stamp(2, PipelineStage::Analysis), Ordering::Relaxed);
        assert_eq!(read(&lanes), (vec![5], 5));
        // A stamp that names no stage is no record either.
        lanes.words[Lanes::slot(base, capacity, 5)].store(5 << 2 | 3, Ordering::Relaxed);
        assert_eq!(read(&lanes), (vec![], 6));
    }

    #[test]
    fn a_tracer_splits_its_capacity_by_what_a_cycle_writes() {
        // Three analyses: five records a cycle, so 23 events hold four
        // whole cycles; the ring that wraps keeps the last four of each
        // lane, the decision of a cycle with its ingest.
        let t = trader(1);
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::bounded(23)));
        t.attach_tracer(Arc::clone(&tracer));
        for _ in 0..10 {
            t.run_cycle_synchronous();
        }
        let trace = tracer.snapshot();
        assert_eq!((trace.len(), trace.dropped()), (20, 30));
        let cycles: Vec<u64> = trace
            .events()
            .iter()
            .map(|(_, event)| match event {
                TraceEvent::PipelineStage { cycle, .. } => *cycle,
                _ => panic!("not a pipeline event: {event:?}"),
            })
            .collect();
        let expected: Vec<u64> = (6..10).flat_map(|cycle| [cycle; 5]).collect();
        assert_eq!(cycles, expected);
        // A tracer with tracing off binds, holds nothing and records nothing.
        let off = trader(1);
        let silent = Arc::new(PipelineTracer::new(TraceConfig::disabled()));
        off.attach_tracer(Arc::clone(&silent));
        off.run_cycle_synchronous();
        assert_eq!(silent.snapshot(), Trace::new());
        // The smallest ring still holds a cycle.
        let tiny = trader(1);
        let one = Arc::new(PipelineTracer::new(TraceConfig::bounded(0)));
        tiny.attach_tracer(Arc::clone(&one));
        tiny.run_cycle_synchronous();
        tiny.run_cycle_synchronous();
        assert_eq!((one.snapshot().len(), one.snapshot().dropped()), (5, 5));
    }

    /// Analyses of the cross-thread tests (the task's `np`).
    const PARTS: usize = 4;

    fn cross_thread_trader(capacity: usize) -> (NativeTrader, Arc<PipelineTracer>) {
        let t = ImpreciseTrader::new(
            Box::new(SyntheticFeed::eur_usd(3)),
            (0..PARTS)
                .map(|_| Box::new(AlwaysBid(false)) as Box<dyn Strategy>)
                .collect(),
            SignalAggregator::new(1),
            PaperVenue::new(ExecutionConfig::default()),
            1.0,
        );
        let tracer = Arc::new(PipelineTracer::new(TraceConfig::bounded(capacity)));
        t.attach_tracer(Arc::clone(&tracer));
        (t.into_native(), tracer)
    }

    /// Runs `cycles` cycles the way the native runtime does: one task
    /// thread for the mandatory part and the wind-up, one thread per
    /// optional part, the parts of a cycle between two barriers. `observe`
    /// runs on the calling thread meanwhile, until it returns `false` or
    /// the task thread is done.
    fn run_across_threads(t: &NativeTrader, cycles: u64, mut observe: impl FnMut() -> bool) {
        let gate = std::sync::Barrier::new(PARTS + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..cycles {
                    assert!(t.ingest());
                    gate.wait();
                    gate.wait();
                    t.decide();
                }
                done.store(true, Ordering::Release);
            });
            for part in 0..PARTS {
                let gate = &gate;
                s.spawn(move || {
                    for _ in 0..cycles {
                        gate.wait();
                        t.analyze(part, &|| false);
                        gate.wait();
                    }
                });
            }
            while !done.load(Ordering::Acquire) {
                if !observe() {
                    break;
                }
            }
        });
    }

    /// Where the pipeline puts an event: lane 0 is the task thread's, which
    /// alternates ingest and decide; lane `k + 1` is part `k`'s, one record
    /// a cycle. An event whose stage, part and cycle do not fit together is
    /// not whole.
    fn place(event: &TraceEvent) -> (usize, u64) {
        let TraceEvent::PipelineStage { cycle, stage, part } = event else {
            panic!("not a pipeline event: {event:?}");
        };
        match (stage, part) {
            (PipelineStage::Ingest, None) => (0, 2 * cycle),
            (PipelineStage::Decide, None) => (0, 2 * cycle + 1),
            (PipelineStage::Analysis, Some(p)) if p.index() < PARTS => (p.index() + 1, *cycle),
            _ => panic!("not a whole event: {event:?}"),
        }
    }

    /// A snapshot by lane: the place of each lane's first retained record
    /// and the timestamps of all of them. Asserts what every snapshot must
    /// satisfy, taken at rest or mid-write: time order overall, and in each
    /// lane whole events at consecutive places.
    fn by_lane(trace: &Trace) -> Vec<(u64, Vec<Time>)> {
        assert!(
            trace.events().windows(2).all(|w| w[0].0 <= w[1].0),
            "a snapshot is in time order"
        );
        let mut lanes: Vec<(u64, Vec<Time>)> = vec![(0, Vec::new()); PARTS + 1];
        for (at, event) in trace.events() {
            let (lane, at_place) = place(event);
            let (first, times) = &mut lanes[lane];
            if times.is_empty() {
                *first = at_place;
            }
            assert_eq!(
                at_place,
                *first + times.len() as u64,
                "lane {lane}: {event:?}"
            );
            times.push(*at);
        }
        lanes
    }

    #[test]
    fn tracer_records_across_threads_exactly() {
        const CYCLES: u64 = 20_000;
        let events = CYCLES * (PARTS as u64 + 2);
        // Sized to the run, then to an eighth of it: every lane wraps.
        for capacity in [events, events / 8] {
            let (t, tracer) = cross_thread_trader(capacity as usize);
            run_across_threads(&t, CYCLES, || false);
            let trace = tracer.snapshot();
            // What each lane keeps, in whole cycles, and what it lost.
            let kept = capacity / (PARTS as u64 + 2);
            let overflow = (CYCLES - kept) * (PARTS as u64 + 2);
            assert_eq!(trace.dropped(), overflow);
            assert_eq!(trace.len() as u64, events - trace.dropped());
            // One ingest, one decide and every part's analysis of each of
            // the last `kept` cycles, and nothing else.
            for (lane, (first, times)) in by_lane(&trace).into_iter().enumerate() {
                let per_cycle = if lane == 0 { 2 } else { 1 };
                assert_eq!(first, per_cycle * (CYCLES - kept), "lane {lane}");
                assert_eq!(times.len() as u64, per_cycle * kept, "lane {lane}");
            }
        }
    }

    #[test]
    fn tracer_snapshots_while_threads_record() {
        const CYCLES: u64 = 20_000;
        // 64 cycles a lane: the writers lap the reader again and again.
        let (t, tracer) = cross_thread_trader(64 * (PARTS + 2));
        // Every snapshot on one scale, so that a record two of them
        // return has one timestamp in both.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let end = Mark::now();
        let snapshot = || tracer.snapshot_to(|| end);
        let mut snapshots = 0;
        let mut earlier = by_lane(&snapshot());
        let mut accounted = 0;
        run_across_threads(&t, CYCLES, || {
            let trace = snapshot();
            for (lane, (was, now)) in earlier.iter_mut().zip(by_lane(&trace)).enumerate() {
                // A reader the writer lapped from end to end comes back
                // with nothing of the lane, which says nothing about it.
                if now.1.is_empty() {
                    continue;
                }
                let ((was_first, was_times), (first, times)) = (&*was, &now);
                // A lane only grows at one end and is cut at the other ...
                assert!(first >= was_first, "lane {lane}");
                assert!(
                    first + times.len() as u64 >= was_first + was_times.len() as u64,
                    "lane {lane}"
                );
                // ... and what the earlier snapshot saw and the ring still
                // holds is there again, bit for bit.
                let still = (first - was_first).min(was_times.len() as u64) as usize;
                let again = was_times.len() - still;
                assert_eq!(was_times[still..], times[..again], "lane {lane}");
                *was = now;
            }
            // Every record a lane had when the reader looked is in exactly
            // one of the two counts.
            let seen = trace.len() as u64 + trace.dropped();
            assert!(seen >= accounted, "{seen} after {accounted}");
            accounted = seen;
            snapshots += 1;
            true
        });
        assert!(snapshots > 0);
        // At rest: the last 64 cycles, whole.
        let trace = tracer.snapshot();
        assert_eq!(trace.len(), 64 * (PARTS + 2));
        assert_eq!(trace.dropped(), (CYCLES - 64) * (PARTS as u64 + 2));
        for (lane, (first, _)) in by_lane(&trace).into_iter().enumerate() {
            let per_cycle = if lane == 0 { 2 } else { 1 };
            assert_eq!(first, per_cycle * (CYCLES - 64), "lane {lane}");
        }
    }
}
