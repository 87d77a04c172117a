//! Deterministic discrete-event queue.
//!
//! An indexed binary min-heap over a payload slab with a freelist, plus
//! *runs*: batches that arrive already sorted and put only their head in
//! the heap. Events are delivered in time order, breaking ties by insertion
//! order (FIFO), which is what makes whole-simulation runs reproducible
//! byte-for-byte across repeats and platforms.
//!
//! # Why not `BinaryHeap`?
//!
//! The event loop is the simulator's hot path: every push/pop at 228
//! hardware threads goes through here. The layout buys three things the
//! plain `BinaryHeap<Reverse<(Time, u64, T)>>` it replaced did not have:
//!
//! * **Allocation-free steady state.** Payload slots and run buffers are
//!   recycled through freelists and the heap array only grows to the
//!   high-water mark of its entries, so after warm-up a push/pop cycle
//!   touches no allocator at all.
//! * **Single-word comparisons.** The heap orders `(Time, seq)` packed
//!   into one `u128` key (time in the high 64 bits, insertion sequence in
//!   the low 64), so sift operations compare one integer and move 32-byte
//!   entries instead of calling a composite comparator over full payloads.
//! * **A heap that does not grow with a sorted batch.** The Δb signalling
//!   loop schedules one event per parallel optional part, at instants that
//!   already ascend. [`EventQueue::push_sorted`] keeps every maximal
//!   non-decreasing stretch of a batch as one run: a ring of `(Time, T)`
//!   in arrival order whose head alone has a heap entry. Popping the head
//!   rewrites that entry with the next event's key and sifts it down
//!   (usually zero levels). With eight tasks of np = 228 on 57×4 the
//!   heap held 1 367 entries at the mean pop and 2 912 at the peak, 1 824
//!   of them such loops; with runs it holds 624 and 1 104 for the same
//!   pending events (what is left is mostly completions of parts that
//!   were terminated first), and every push and pop sifts through those.
//!
//! The ordering contract is unchanged and exact: keys are unique (the
//! sequence number is), `(time, seq)` is a total order, and a min-heap
//! pops a total order in sorted order — so pop order is precisely
//! time-then-FIFO, independent of internal heap layout. A run keeps that
//! contract because its events take consecutive sequence numbers from the
//! same counter `push` uses and their keys ascend along the ring: the
//! earliest pending event is always a plain heap entry or the head of
//! some run, and every head is in the heap.
//!
//! Measured and rejected on the pop-dominated simulator workload: a 4-ary
//! heap (shallower, but the min-of-4 child scan branch-mispredicts), the
//! bottom-up "Wegener" pop (fewer comparisons, same memory traffic) — both
//! at or below the textbook binary sift, whose two-way compare compiles to
//! branchless selects — and payloads inline in the heap entries instead of
//! the slab (36.4 against 36.7 ns an operation on the np = 228 stream: the
//! cost is the depth, not the indirection).

use std::collections::VecDeque;

use rtseed_model::Time;

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use rtseed_model::Time;
/// use rtseed_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_nanos(20), "late");
/// q.push(Time::from_nanos(10), "early-a");
/// q.push(Time::from_nanos(10), "early-b");
/// assert_eq!(q.pop(), Some((Time::from_nanos(10), "early-a")));
/// assert_eq!(q.pop(), Some((Time::from_nanos(10), "early-b")));
/// assert_eq!(q.pop(), Some((Time::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Implicit binary min-heap of `(key, slot)`: `key` packs
    /// `(time.as_nanos() << 64) | seq`; `slot` indexes `slots`, or `runs`
    /// when its [`RUN`] bit is set and the entry is that run's head.
    heap: Vec<(u128, u32)>,
    /// Payload slab; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<T>>,
    /// Recycled slab indices, popped before the slab is grown.
    free: Vec<u32>,
    /// Sorted batches; an empty run is free (listed in `free_runs`).
    runs: Vec<Run<T>>,
    /// Recycled run indices, popped before `runs` is grown.
    free_runs: Vec<u32>,
    /// Pending events: plain heap entries plus everything in runs.
    len: usize,
    /// Monotonic insertion counter: the FIFO tie-breaker.
    seq: u64,
}

/// A stretch of events pushed back to back at non-decreasing instants.
/// Their sequence numbers are consecutive, so the ring stores no key per
/// event: `seq` is the front's and counts up as the front is popped.
#[derive(Debug, Clone)]
struct Run<T> {
    events: VecDeque<(Time, T)>,
    seq: u64,
}

/// Tag bit of a heap entry's slot word: the entry is a run's head.
const RUN: u32 = 1 << 31;

#[inline]
fn key(at: Time, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> Time {
    Time::from_nanos((key >> 64) as u64)
}

/// The next index of a slab or of `runs`, which must leave [`RUN`] clear.
#[inline]
fn next_index(len: usize) -> u32 {
    assert!(len < RUN as usize, "< 2^31 pending events");
    len as u32
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue::with_capacity(0)
    }

    /// An empty queue with room for `capacity` pending events before any
    /// heap or slab growth.
    pub fn with_capacity(capacity: usize) -> EventQueue<T> {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            runs: Vec::new(),
            free_runs: Vec::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Schedules `payload` at instant `at`. Amortized O(log n); allocates
    /// only when the pending-event count exceeds its previous high-water
    /// mark.
    pub fn push(&mut self, at: Time, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = next_index(self.slots.len());
                self.slots.push(Some(payload));
                slot
            }
        };
        self.heap.push((key(at, seq), slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedules every `(at, payload)` of `events`, observably exactly as
    /// one [`push`](EventQueue::push) per item in iteration order would:
    /// same pop order (FIFO among equal instants, across batches and plain
    /// pushes alike), same `len()` and `peek_time()`.
    ///
    /// What differs is the cost when the instants ascend. Every maximal
    /// stretch of two or more non-decreasing instants becomes one run with
    /// one heap entry (see the [module docs](self)), so a sorted batch of
    /// n events costs one sift instead of n and deepens the heap by one
    /// entry instead of n. A stretch of one — every item of a descending
    /// batch — goes through `push`. Allocates only when a run outgrows the
    /// recycled buffer it was given.
    pub fn push_sorted<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (Time, T)>,
    {
        let mut events = events.into_iter().peekable();
        while let Some((at, payload)) = events.next() {
            if events.peek().is_none_or(|&(next, _)| next < at) {
                self.push(at, payload);
                continue;
            }
            let index = match self.free_runs.pop() {
                Some(index) => index,
                None => {
                    let index = next_index(self.runs.len());
                    self.runs.push(Run {
                        events: VecDeque::new(),
                        seq: 0,
                    });
                    index
                }
            };
            let run = &mut self.runs[index as usize];
            debug_assert!(run.events.is_empty());
            run.seq = self.seq;
            run.events.push_back((at, payload));
            let mut last = at;
            while let Some(event) = events.next_if(|&(next, _)| next >= last) {
                last = event.0;
                run.events.push_back(event);
            }
            self.seq += run.events.len() as u64;
            self.len += run.events.len();
            self.heap.push((key(at, run.seq), RUN | index));
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Removes and returns the earliest event, FIFO among equals.
    /// O(log n), allocation-free.
    ///
    /// Forced inline: the discrete-event driver pops one event type from
    /// two loops (partitioned and global dispatch), and with two callers
    /// LLVM leaves this out of line, which costs the simulators about
    /// 11 ns an event (a fifth of the whole per-event budget).
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let &(first, slot) = self.heap.first()?;
        self.len -= 1;
        if slot & RUN != 0 {
            // A run's head: the run stays in the heap under its next
            // event's key, which is larger, so it can only sink.
            let run = &mut self.runs[(slot ^ RUN) as usize];
            let event = run.events.pop_front().expect("a queued run has a head");
            match run.events.front() {
                Some(&(next, _)) => {
                    run.seq += 1;
                    self.heap[0] = (key(next, run.seq), slot);
                    self.sift_down(0);
                }
                None => {
                    self.free_runs.push(slot ^ RUN);
                    self.remove_first();
                }
            }
            return Some(event);
        }
        self.remove_first();
        let payload = self.slots[slot as usize].take().expect("occupied slot");
        self.free.push(slot);
        Some((key_time(first), payload))
    }

    /// Drops the heap's first entry.
    #[inline(always)]
    fn remove_first(&mut self) {
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
    }

    /// The instant of the earliest pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|&(key, _)| key_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events (the insertion counter keeps running,
    /// so FIFO ordering spans a clear). Every buffer, run buffers
    /// included, keeps its capacity for the next fill.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        for run in &mut self.runs {
            run.events.clear();
        }
        // Lowest index on top, as when the runs were first made: a replay
        // of the same pushes meets each buffer at the size it grew to.
        self.free_runs.clear();
        self.free_runs.extend((0..self.runs.len() as u32).rev());
        self.len = 0;
    }

    /// Restores the heap property upward from `pos`.
    #[inline]
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = entry;
    }

    /// Restores the heap property downward from `pos`.
    #[inline]
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        let entry = self.heap[pos];
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            let right = child + 1;
            if right < len && self.heap[right].0 < self.heap[child].0 {
                child = right;
            }
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.heap[pos] = self.heap[child];
            pos = child;
        }
        self.heap[pos] = entry;
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(5), "b");
        assert_eq!(q.pop(), Some((t(5), "b")));
        q.push(t(7), "c");
        q.push(t(7), "d");
        assert_eq!(q.pop(), Some((t(7), "c")));
        assert_eq!(q.pop(), Some((t(7), "d")));
        assert_eq!(q.pop(), Some((t(10), "a")));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(42), ());
        q.push(t(7), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(7)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
    }

    /// Every capacity the queue owns: heap, slab, both freelists, the run
    /// table and each run's ring.
    fn capacities<T>(q: &EventQueue<T>) -> Vec<usize> {
        let mut caps = vec![
            q.heap.capacity(),
            q.slots.capacity(),
            q.free.capacity(),
            q.runs.capacity(),
            q.free_runs.capacity(),
        ];
        caps.extend(q.runs.iter().map(|run| run.events.capacity()));
        caps
    }

    #[test]
    fn steady_state_recycles_capacity() {
        // After warm-up, a bounded pending-set workload must stay within
        // the allocated high-water mark: capacities never grow again.
        let mut q = EventQueue::with_capacity(8);
        for i in 0..8u64 {
            q.push(t(i), i);
        }
        let warm = capacities(&q);
        for round in 1..1000u64 {
            for _ in 0..4 {
                q.pop().unwrap();
            }
            for i in 0..4u64 {
                q.push(t(round * 10 + i), i);
            }
            assert_eq!(capacities(&q), warm);
        }
        assert_eq!(q.len(), 8);

        // The same through `push_sorted`: a batch of two runs and a single
        // lands while both runs of the batch before are partly consumed,
        // so four run buffers rotate through the freelist.
        let batch = |q: &mut EventQueue<u64>, round: u64| {
            q.push_sorted([0, 1, 1, 3, 2, 4, 5, 0].map(|dt| (t(round * 10 + dt), dt)));
        };
        let cycle = |q: &mut EventQueue<u64>, round: u64| {
            for _ in 0..5 {
                q.pop().unwrap();
            }
            batch(q, round);
            for _ in 0..3 {
                q.pop().unwrap();
            }
        };
        q.clear();
        batch(&mut q, 0);
        for round in 1..3 {
            cycle(&mut q, round);
        }
        let warm = capacities(&q);
        assert_eq!(q.runs.len(), 4);
        for round in 3..1000u64 {
            cycle(&mut q, round);
            assert_eq!(q.len(), 8);
            if round % 100 == 0 {
                // A clear parks the runs; refilling reuses them.
                q.clear();
                batch(&mut q, round);
            }
            assert_eq!(capacities(&q), warm);
        }
    }

    #[test]
    fn push_sorted_keeps_fifo_with_plain_pushes() {
        // Ties between a run's events and plain pushes made before and
        // after the batch resolve by insertion order, like any other tie.
        let mut q = EventQueue::new();
        q.push(t(5), "before");
        q.push_sorted([
            (t(5), "run-a"),
            (t(5), "run-b"),
            (t(9), "run-c"),
            (t(2), "single"),
        ]);
        q.push(t(5), "after");
        q.push(t(9), "late");
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek_time(), Some(t(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(
            order,
            ["single", "before", "run-a", "run-b", "after", "run-c", "late"]
        );
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_sees_events_in_runs() {
        let mut q = EventQueue::new();
        q.push_sorted((0..10u64).map(|i| (t(i), i)));
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert_eq!(q.len(), 9);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        q.push_sorted([(t(3), 30), (t(4), 40)]);
        assert_eq!(q.pop(), Some((t(3), 30)));
        assert_eq!(q.pop(), Some((t(4), 40)));
    }

    #[test]
    fn fifo_survives_heap_churn() {
        // Equal-timestamp FIFO must hold even when pushes interleave with
        // pops that reshuffle the heap (the tie-break bug class the
        // differential proptest hammers on).
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        let mut next = 0u64;
        for _ in 0..50 {
            q.push(t(100), next);
            next += 1;
            q.push(t(50), next);
            next += 1;
            popped.push(q.pop().unwrap());
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        let mut expected = popped.clone();
        expected.sort_by_key(|&(at, seq)| (at, seq));
        assert_eq!(popped, expected, "pop order must be (time, insertion) order");
    }

    #[test]
    fn large_random_workload_matches_sorted_order() {
        // Deterministic LCG-driven stress: pop order equals the stable
        // sort of (time, insertion index).
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        for i in 0..2000u64 {
            let at = rng() % 64; // dense timestamps: many ties
            q.push(t(at), i);
            reference.push((at, i));
        }
        reference.sort(); // stable on (time, insertion index)
        for &(at, i) in &reference {
            assert_eq!(q.pop(), Some((t(at), i)));
        }
        assert!(q.is_empty());
    }
}
