//! Deterministic discrete-event queue.
//!
//! An indexed binary min-heap over a payload slab with a freelist, plus
//! *runs*: stretches of pushes at non-decreasing instants that put only
//! their head in the heap. Events are delivered in time order, breaking
//! ties by insertion order (FIFO), which is what makes whole-simulation
//! runs reproducible byte-for-byte across repeats and platforms.
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
//! * **A heap that does not grow with pushes that ascend.** A simulator
//!   mostly pushes in order. The Δb signalling loop schedules one `Ready`
//!   event per parallel optional part at instants that ascend, and each
//!   `Ready` handler starts its part and pushes its completion right after
//!   the previous handler pushed the previous part's. [`EventQueue::push`]
//!   keeps every such stretch as one *run*: a ring of `(Time, T)` in
//!   arrival order whose head alone has a heap entry. Popping the head
//!   rewrites that entry with the next event's key and sifts it down
//!   (usually zero levels). With eight tasks of np = 228 on 57×4, 1 367
//!   events are pending at the mean pop. As one heap entry each they made
//!   a heap of 1 367 entries (2 912 at the peak). With the signalling
//!   loops alone as runs it was 624 (1 104), mostly the completions of
//!   parts that were terminated first. With every stretch as a run it is
//!   23 (31), and every push and pop sifts through what is left.
//!
//! # Where a push goes, and why the order stays exact
//!
//! Keys are unique (the sequence number is), `(time, seq)` is a total
//! order, and a min-heap pops a total order in sorted order — so pop
//! order is precisely time-then-FIFO, independent of internal layout,
//! provided the earliest pending event is always in view. Every push
//! takes the next sequence number from one counter and goes to one of
//! three places:
//!
//! 1. **The open run**, the run the previous push went to, if the new
//!    instant is at or after the run's tail. Nothing was pushed in
//!    between, so the ring's sequence numbers stay consecutive (the run
//!    stores only its front's and counts up as the front is popped) and
//!    its keys ascend: the head, already in the heap, is still its least.
//! 2. Otherwise **the staging slot**, which holds one event and its key
//!    outside the heap. The slot always holds the latest push, so the next
//!    push is its successor in sequence. If that push is not earlier, the
//!    two start a new run headed by the staged event, which becomes the
//!    open run. If it is earlier, the staged event is flushed into the
//!    heap under its original key and the new push takes the slot.
//! 3. **The heap**, as a plain entry, when flushed from the slot.
//!
//! A run drained while open is closed, so a push never lands in a ring
//! that has no heap entry, even after its index is reused; `clear` drops
//! the staged event and closes the open run. The earliest pending event
//! is therefore the heap's first entry or the staged event: `pop` and
//! `peek_time` compare the two keys, and `len` counts all three places.
//! There is no threshold: a stretch of one costs one heap entry, a
//! stretch of two is a run.
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
    /// Stretches of ascending pushes; an empty run is free (listed in
    /// `free_runs`).
    runs: Vec<Run<T>>,
    /// Recycled run indices, popped before `runs` is grown.
    free_runs: Vec<u32>,
    /// The latest push, with its key, while it is in no run or heap entry
    /// yet.
    staged: Option<(u128, T)>,
    /// The run the latest push went to, while it has events pending.
    open: Option<u32>,
    /// Pending events: plain heap entries, events in runs and the staged
    /// one.
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
            staged: None,
            open: None,
            len: 0,
            seq: 0,
        }
    }

    /// Schedules `payload` at instant `at`. Amortized O(log n). A push at
    /// or after the previous push's instant joins that push's stretch: the
    /// second event makes the stretch a run with one heap entry, and every
    /// later one is appended in O(1) without touching the heap (see the
    /// [module docs](self) for where a push goes). Allocates only when the
    /// pending events, or the events of one run, exceed their high-water
    /// mark.
    ///
    /// Inline, with everything but the append kept out of line in
    /// `stage`: called through a function, the append cost `perfbench`'s
    /// `feed_faults` ≈ 4 % of its scheduling throughput (interleaved
    /// runs on a 2-vCPU x86-64 Xeon).
    #[inline]
    pub fn push(&mut self, at: Time, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        if let Some(index) = self.open {
            debug_assert!(self.staged.is_none());
            let events = &mut self.runs[index as usize].events;
            if events.back().is_some_and(|&(tail, _)| tail <= at) {
                events.push_back((at, payload));
                return;
            }
            self.open = None;
        }
        self.stage(key(at, seq), payload);
    }

    /// Takes a push that extends no open run: it starts a run with the
    /// staged event, or takes the slot after flushing that event.
    #[inline(never)]
    fn stage(&mut self, key: u128, payload: T) {
        match self.staged.take() {
            Some((first, staged)) if first <= key => {
                // The staged event is the previous push: the two are a
                // stretch, headed by the staged event's key.
                debug_assert_eq!(first as u64 + 1, key as u64);
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
                run.seq = first as u64;
                run.events.push_back((key_time(first), staged));
                run.events.push_back((key_time(key), payload));
                self.open = Some(index);
                self.heap.push((first, RUN | index));
                self.sift_up(self.heap.len() - 1);
            }
            Some((first, staged)) => {
                self.flush(first, staged);
                self.staged = Some((key, payload));
            }
            None => self.staged = Some((key, payload)),
        }
    }

    /// Gives a staged event a plain heap entry under its own key.
    fn flush(&mut self, key: u128, payload: T) {
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
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
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
        let first = self.heap.first().copied();
        if let Some(&(staged, _)) = self.staged.as_ref() {
            if first.is_none_or(|(first, _)| staged < first) {
                let (staged, payload) = self.staged.take().expect("staged");
                self.len -= 1;
                return Some((key_time(staged), payload));
            }
        }
        let (first, slot) = first?;
        self.len -= 1;
        if slot & RUN != 0 {
            // A run's head: the run stays in the heap under its next
            // event's key, which is larger, so it can only sink.
            let index = slot ^ RUN;
            let run = &mut self.runs[index as usize];
            let event = run.events.pop_front().expect("a queued run has a head");
            match run.events.front() {
                Some(&(next, _)) => {
                    run.seq += 1;
                    self.heap[0] = (key(next, run.seq), slot);
                    self.sift_down(0);
                }
                None => {
                    if self.open == Some(index) {
                        self.open = None;
                    }
                    self.free_runs.push(index);
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
        let first = self.heap.first().map(|&(key, _)| key);
        let staged = self.staged.as_ref().map(|&(key, _)| key);
        first.into_iter().chain(staged).min().map(key_time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events, the staged one included, and closes
    /// the open run (the insertion counter keeps running, so FIFO ordering
    /// spans a clear). Every buffer, run buffers included, keeps its
    /// capacity for the next fill.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.staged = None;
        self.open = None;
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

        // The same for stretches pushed one by one, with a pop inside a
        // stretch: each cycle opens runs of four and three events, stages
        // a descending push until the next cycle's first push heads a run
        // with it, and drains runs while the freelist rotates their rings.
        let fill = |q: &mut EventQueue<u64>, round: u64| {
            for (i, dt) in [0, 1, 1, 3, 2, 4, 5, 0].into_iter().enumerate() {
                q.push(t(round * 10 + dt), dt);
                if i == 3 {
                    q.pop().unwrap();
                }
            }
        };
        let cycle = |q: &mut EventQueue<u64>, round: u64| {
            for _ in 0..5 {
                q.pop().unwrap();
            }
            fill(q, round);
            for _ in 0..2 {
                q.pop().unwrap();
            }
        };
        q.clear();
        fill(&mut q, 0);
        for round in 1..4 {
            cycle(&mut q, round);
        }
        let warm = capacities(&q);
        let rings = q.runs.len();
        assert!(rings >= 2, "the cycle keeps {rings} runs");
        for round in 4..1000u64 {
            cycle(&mut q, round);
            assert_eq!(q.len(), 7);
            if round % 100 == 0 {
                // A clear parks the runs; refilling reuses them.
                q.clear();
                fill(&mut q, round);
            }
            assert_eq!(capacities(&q), warm);
            assert_eq!(q.runs.len(), rings);
        }
    }

    #[test]
    fn ascending_pushes_make_one_heap_entry() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(t(i / 3), i);
        }
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.runs.len(), 1);
        assert!(q.staged.is_none());
        assert_eq!(q.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(q.pop(), Some((t(i / 3), i)));
        }
        assert!(q.heap.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn a_staged_minimum_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(20), "run-a");
        q.push(t(30), "run-b");
        // Earlier than the open run's tail: closes it and is staged.
        q.push(t(5), "staged");
        assert_eq!(q.heap.len(), 1);
        assert!(q.staged.is_some());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop(), Some((t(5), "staged")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(20)));
        // A staged event behind the heap's first waits its turn.
        q.push(t(25), "later");
        assert_eq!(q.peek_time(), Some(t(20)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["run-a", "later", "run-b"]);
    }

    #[test]
    fn a_run_drained_while_open_is_never_extended() {
        let mut q = EventQueue::new();
        q.push(t(1), 'a');
        q.push(t(2), 'b');
        assert_eq!(q.open, Some(0));
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert_eq!(q.open, None);
        // At or after the drained run's tail, but the ring has no heap
        // entry any more: the push is staged, not appended.
        q.push(t(7), 'c');
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(7)));
        // Flushes `c`, then a new stretch reuses ring 0.
        q.push(t(3), 'd');
        q.push(t(4), 'e');
        assert_eq!(q.runs.len(), 1);
        assert_eq!(q.open, Some(0));
        q.push(t(9), 'f');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ['d', 'e', 'c', 'f']);
    }

    #[test]
    fn ties_resolve_by_push_order_across_runs() {
        // Ties between events in runs, events in the heap and the staged
        // event resolve by push order, like any other tie.
        let mut q = EventQueue::new();
        q.push(t(5), "before");
        q.push(t(5), "run-a");
        q.push(t(5), "run-b");
        q.push(t(9), "run-c");
        q.push(t(2), "single");
        q.push(t(5), "after");
        q.push(t(9), "late");
        q.push(t(5), "staged");
        assert_eq!(q.len(), 8);
        assert_eq!(q.peek_time(), Some(t(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(
            order,
            ["single", "before", "run-a", "run-b", "after", "staged", "run-c", "late"]
        );
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_sees_events_in_runs() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(t(i), i);
        }
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert_eq!(q.len(), 9);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        q.push(t(3), 30);
        q.push(t(4), 40);
        assert_eq!(q.pop(), Some((t(3), 30)));
        assert_eq!(q.pop(), Some((t(4), 40)));
    }

    #[test]
    fn clear_drops_the_staged_event_and_the_open_run() {
        let mut q = EventQueue::new();
        q.push(t(5), 'a');
        assert!(q.staged.is_some());
        q.clear();
        assert!(q.staged.is_none());
        assert_eq!(q.pop(), None);
        q.push(t(1), 'b');
        q.push(t(2), 'c');
        assert!(q.open.is_some());
        q.clear();
        assert!(q.open.is_none());
        // Not appended to the cleared ring, which has no heap entry.
        q.push(t(3), 'd');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(3), 'd')));
        assert_eq!(q.pop(), None);
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
