//! Bounded, drop-counting trace recording.
//!
//! [`TraceRecorder`] is the write side: a ring buffer that costs one
//! branch per call while disabled and, configured for up to 1 Mi events
//! (`1 << 20`, the default is `1 << 16`), never allocates after
//! construction. A larger ring is reserved up to that many events only and
//! grows the rest of the way by doubling as it fills, see
//! [`TraceRecorder`]. [`Trace`] is the read side handed back in the run
//! outcome: a time-ordered event list with query helpers.

use core::fmt;

use rtseed_model::{JobId, Time};

use super::TraceEvent;

/// Configuration of the observability sink for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events at all. When `false` the recorder is a no-op and the
    /// run outcome carries an empty [`Trace`].
    pub enabled: bool,
    /// Ring-buffer capacity in events. Once full, the oldest events are
    /// dropped (and counted) so a long run keeps its most recent history.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity (events).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Tracing off (the default).
    pub const fn disabled() -> TraceConfig {
        TraceConfig {
            enabled: false,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Tracing on with the default capacity.
    pub const fn enabled() -> TraceConfig {
        TraceConfig {
            enabled: true,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Tracing on with an explicit ring capacity.
    pub const fn bounded(capacity: usize) -> TraceConfig {
        TraceConfig {
            enabled: true,
            capacity,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::disabled()
    }
}

/// The write side: records events into a bounded ring.
///
/// Overhead contract: when disabled, [`record`](TraceRecorder::record) is a
/// single branch — no clock reads, no allocation, no event construction is
/// forced on callers (guard expensive argument construction with
/// [`enabled`](TraceRecorder::enabled) where it matters). When enabled,
/// recording is an amortised O(1) ring append; once the ring is full the
/// oldest event is overwritten and [`dropped`](TraceRecorder::dropped) is
/// incremented, so recording never stalls the scheduling hot path.
///
/// Allocation: [`new`](TraceRecorder::new) reserves the whole ring when the
/// configured capacity is at most 1 Mi events (48 MiB), and recording then
/// never touches the allocator, wrapped or not. A ring configured larger is
/// reserved for its first 1 Mi events only, so that a generous bound does
/// not cost its memory up front; the event after those is the first to
/// reallocate, on the path that records it, and the ring doubles from there
/// until it holds `capacity`. Size the ring to 1 Mi or less where the
/// recording path must not allocate.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    enabled: bool,
    capacity: usize,
    /// Ring storage; once `len == capacity`, `head` marks the oldest slot.
    ring: Vec<(Time, TraceEvent)>,
    head: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// Events reserved at construction at most; a larger ring grows.
    const RESERVED_AT_MOST: usize = 1 << 20;

    /// Creates a recorder for `config`. A zero capacity is clamped to 1 so
    /// an enabled recorder can always hold at least the latest event
    /// (validated configs reject zero earlier, see
    /// [`crate::executor::RunConfigError`]). An enabled recorder reserves
    /// its ring here, up to 1 Mi events of it.
    pub fn new(config: TraceConfig) -> TraceRecorder {
        let capacity = config.capacity.max(1);
        TraceRecorder {
            enabled: config.enabled,
            capacity,
            ring: if config.enabled {
                Vec::with_capacity(capacity.min(Self::RESERVED_AT_MOST))
            } else {
                Vec::new()
            },
            head: 0,
            dropped: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> TraceRecorder {
        TraceRecorder::new(TraceConfig::disabled())
    }

    /// `true` if events are being recorded. Use this to skip *constructing*
    /// expensive events (label formatting, lookups) on hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `event` at time `at`. One branch when disabled.
    #[inline]
    pub fn record(&mut self, at: Time, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.push(at, event);
    }

    #[inline(never)]
    fn push(&mut self, at: Time, event: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push((at, event));
        } else {
            self.ring[self.head] = (at, event);
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events dropped because the ring was full.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing has been recorded (or recording is off).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Consumes the recorder and returns the recorded [`Trace`] in time
    /// order (the ring is rotated so the oldest retained event comes
    /// first).
    pub fn finish(mut self) -> Trace {
        self.take_trace()
    }

    /// Drains the recorded events into a [`Trace`] (time order, like
    /// [`finish`](TraceRecorder::finish)), leaving the recorder empty but
    /// alive so it can be [`reset`](TraceRecorder::reset) for another run.
    pub fn take_trace(&mut self) -> Trace {
        self.ring.rotate_left(self.head);
        self.head = 0;
        Trace {
            events: std::mem::take(&mut self.ring),
            dropped: std::mem::take(&mut self.dropped),
        }
    }

    /// Re-arms the recorder for a new run under `config`, clearing any
    /// recorded events and the drop counter. An enabled recorder reserves
    /// its ring as [`new`](TraceRecorder::new) does and keeps an allocation
    /// that is already large enough, so recording into a reused recorder
    /// does not touch the allocator. After
    /// [`take_trace`](TraceRecorder::take_trace) moved the ring out with
    /// its trace, that is one allocation here rather than a ring regrown
    /// by doubling while the run records.
    pub fn reset(&mut self, config: TraceConfig) {
        self.enabled = config.enabled;
        self.capacity = config.capacity.max(1);
        self.head = 0;
        self.dropped = 0;
        self.ring.clear();
        if config.enabled {
            self.ring.reserve(self.capacity.min(Self::RESERVED_AT_MOST));
        } else {
            // Disabled recorders hold no storage (matches `new`).
            self.ring = Vec::new();
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::disabled()
    }
}

/// A time-ordered, bounded execution trace: the read side of a
/// [`TraceRecorder`], carried in every run outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<(Time, TraceEvent)>,
    dropped: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// A trace over `events`, already in time order, cut from a recording
    /// that lost `dropped` events.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `events` is not in time order.
    pub fn from_parts(events: Vec<(Time, TraceEvent)>, dropped: u64) -> Trace {
        debug_assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "a trace is in time order"
        );
        Trace { events, dropped }
    }

    /// Merges per-thread traces into one time-ordered trace (used by the
    /// native backend, where each task thread records independently).
    /// The sort is stable, so same-timestamp events keep their per-source
    /// order and merging is deterministic.
    pub fn merged(traces: Vec<Trace>) -> Trace {
        let mut events = Vec::with_capacity(traces.iter().map(Trace::len).sum());
        let mut dropped = 0;
        for t in traces {
            dropped += t.dropped;
            events.extend(t.events);
        }
        events.sort_by_key(|(t, _)| *t);
        Trace { events, dropped }
    }

    /// Appends an event at `at`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `at` precedes the last recorded event:
    /// traces are append-only in time order.
    pub fn record(&mut self, at: Time, event: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|(t, _)| *t <= at),
            "trace must be recorded in time order"
        );
        self.events.push((at, event));
    }

    /// All events in time order.
    pub fn events(&self) -> &[(Time, TraceEvent)] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by the recording ring before this trace was built.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events concerning `job`, in time order.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.events
            .iter()
            .filter(move |(_, e)| e.job() == Some(job))
    }

    /// The time of the first event matching `pred`, if any.
    pub fn first_time(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<Time> {
        self.events.iter().find(|(_, e)| pred(e)).map(|(t, _)| *t)
    }

    /// Counts events matching `pred`.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, e) in &self.events {
            writeln!(f, "{t}: {e:?}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "({} earlier events dropped)", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::TaskId;

    fn job(seq: u64) -> JobId {
        JobId {
            task: TaskId(0),
            seq,
        }
    }

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn released(seq: u64) -> TraceEvent {
        TraceEvent::JobReleased { job: job(seq) }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = TraceRecorder::disabled();
        assert!(!rec.enabled());
        rec.record(t(0), released(0));
        assert!(rec.is_empty());
        assert_eq!(rec.finish(), Trace::new());
    }

    #[test]
    fn enabled_recorder_keeps_order() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled());
        rec.record(t(0), released(0));
        rec.record(t(5), released(1));
        let trace = rec.finish();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.events()[0].0, t(0));
        assert_eq!(trace.events()[1].0, t(5));
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let mut rec = TraceRecorder::new(TraceConfig::bounded(3));
        for i in 0..5 {
            rec.record(t(i), released(i));
        }
        assert_eq!(rec.dropped(), 2);
        let trace = rec.finish();
        assert_eq!(trace.dropped(), 2);
        // The two oldest (seq 0, 1) were overwritten.
        let seqs: Vec<u64> = trace
            .events()
            .iter()
            .map(|(_, e)| e.job().unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        // Still time-ordered after ring rotation.
        assert!(trace.events().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut rec = TraceRecorder::new(TraceConfig::bounded(0));
        rec.record(t(0), released(0));
        rec.record(t(1), released(1));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn tiny_rings_wrap() {
        for capacity in [1, 2] {
            let mut rec = TraceRecorder::new(TraceConfig::bounded(capacity));
            for i in 0..5 {
                rec.record(t(i), released(i));
            }
            assert_eq!(rec.len(), capacity);
            let trace = rec.finish();
            assert_eq!(trace.dropped(), 5 - capacity as u64);
            let seqs: Vec<u64> = trace
                .events()
                .iter()
                .map(|(_, e)| e.job().unwrap().seq)
                .collect();
            assert_eq!(seqs, (5 - capacity as u64..5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_ring_is_reserved_up_to_the_cap() {
        // Within the cap: the ring never grows, filling or wrapped. (That
        // it never allocates is counted in `tests/tests/trading_alloc.rs`.)
        let mut rec = TraceRecorder::new(TraceConfig::bounded(1 << 10));
        let reserved = rec.ring.capacity();
        assert!(reserved >= 1 << 10);
        for i in 0..2 << 10 {
            rec.record(t(i), released(i));
        }
        assert_eq!(rec.ring.capacity(), reserved);
        assert_eq!((rec.len(), rec.dropped()), (1 << 10, 1 << 10));
        // Above it: reserved short of what it may hold, so it will grow.
        let capacity = TraceRecorder::RESERVED_AT_MOST + 1;
        let rec = TraceRecorder::new(TraceConfig::bounded(capacity));
        assert!(rec.ring.capacity() < capacity);
        // Disabled: nothing.
        assert_eq!(TraceRecorder::disabled().ring.capacity(), 0);
    }

    #[test]
    fn reset_after_take_trace_reserves_the_ring_again() {
        let config = TraceConfig::bounded(1 << 10);
        let mut rec = TraceRecorder::new(config);
        rec.record(t(0), released(0));
        let trace = rec.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(rec.ring.capacity(), 0, "the ring moved out with the trace");
        rec.reset(config);
        assert!(rec.ring.capacity() >= 1 << 10);
        // Disabled again: nothing.
        rec.reset(TraceConfig::disabled());
        assert_eq!(rec.ring.capacity(), 0);
    }

    #[test]
    fn merged_interleaves_by_time() {
        let mut a = Trace::new();
        a.record(t(0), released(0));
        a.record(t(10), released(2));
        let mut b = Trace::new();
        b.record(t(5), released(1));
        let m = Trace::merged(vec![a, b]);
        let seqs: Vec<u64> = m
            .events()
            .iter()
            .map(|(_, e)| e.job().unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn query_helpers() {
        let mut tr = Trace::new();
        tr.record(t(3), released(0));
        tr.record(t(7), TraceEvent::OptionalDeadlineExpired { job: job(0) });
        tr.record(t(8), released(1));
        assert_eq!(tr.for_job(job(0)).count(), 2);
        assert_eq!(
            tr.first_time(|e| matches!(e, TraceEvent::OptionalDeadlineExpired { .. })),
            Some(t(7))
        );
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::JobReleased { .. })), 2);
        assert_eq!(
            tr.first_time(|e| matches!(e, TraceEvent::WindupStarted { .. })),
            None
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn trace_rejects_out_of_order() {
        let mut tr = Trace::new();
        tr.record(t(10), released(0));
        tr.record(t(5), released(1));
    }

    #[test]
    fn display_lists_events() {
        let mut tr = Trace::new();
        tr.record(t(0), released(0));
        let s = tr.to_string();
        assert!(s.contains("JobReleased"), "{s}");
    }
}
