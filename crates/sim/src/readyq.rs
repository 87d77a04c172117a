//! Linux SCHED_FIFO ready-queue semantics (paper Fig. 5).
//!
//! Each processor in the kernel owns 99 FIFO queues, one per priority
//! level, with larger levels scheduled first. RT-Seed's four logical queues
//! (HPQ / RTQ / NRTQ / SQ) map onto priority *bands* of this structure plus
//! a sleep set; this module implements the kernel-side structure exactly:
//! enqueue at tail, requeue a preempted thread at the head, dequeue from
//! the head of the highest non-empty level. No driver yields, so there is
//! no `sched_yield` rotation.
//!
//! Like the kernel's `rt_rq`, the per-level FIFOs are indexed by an
//! occupancy bitmap (one `u128` word covers all 99 levels), so finding the
//! highest non-empty level is a single count-leading-zeros instruction
//! instead of a linear scan — `dequeue_highest` and `peek_highest_priority`
//! are O(1), which is what lets the simulator's dispatch loop scale to
//! 228-hardware-thread topologies (each hardware thread owns one of these
//! queues, and a scan-based pick made the dispatcher dominate runtime).
//!
//! Unlike the kernel's, a level's FIFO exists only once something was
//! queued at it. A hardware thread uses two or three of the 99 levels
//! (its mandatory, optional and wind-up priorities), and 99 empty ring
//! headers on each of 228 threads were most of a many-core run's heap.
//! A 99-byte table maps a level to its ring, 0 meaning never used; rings
//! are made on first use, kept across `clear`, and a level never used
//! reads as empty.

use std::collections::VecDeque;

use rtseed_model::Priority;

/// A 99-level FIFO ready queue for values of type `T` (thread identifiers)
/// with a bitmap-indexed O(1) highest-level pick.
///
/// # Examples
///
/// ```
/// use rtseed_model::Priority;
/// use rtseed_sim::FifoReadyQueue;
///
/// let mut q = FifoReadyQueue::new();
/// q.enqueue(Priority::new(50).unwrap(), "mandatory");
/// q.enqueue(Priority::new(1).unwrap(), "optional");
/// // The mandatory band always wins.
/// assert_eq!(q.dequeue_highest(), Some((Priority::new(50).unwrap(), "mandatory")));
/// assert_eq!(q.dequeue_highest(), Some((Priority::new(1).unwrap(), "optional")));
/// ```
#[derive(Debug, Clone)]
pub struct FifoReadyQueue<T> {
    /// Per level (index 0 ⇒ priority level 1 … index 98 ⇒ level 99): 0 if
    /// the level was never used, else 1 + the index of its ring in
    /// `levels`.
    at: [u8; 99],
    /// The rings of the levels used so far, in order of first use.
    levels: Vec<VecDeque<T>>,
    /// Occupancy index: bit `i` is set iff level `i + 1`'s ring is
    /// non-empty. Invariant maintained by every mutating operation.
    bitmap: u128,
    len: usize,
}

impl<T> FifoReadyQueue<T> {
    /// An empty ready queue.
    pub fn new() -> FifoReadyQueue<T> {
        FifoReadyQueue {
            at: [0; 99],
            levels: Vec::new(),
            bitmap: 0,
            len: 0,
        }
    }

    /// Where level index `slot`'s ring is in `levels`, if the level was
    /// ever used.
    #[inline]
    fn ring(&self, slot: usize) -> Option<usize> {
        usize::from(self.at[slot]).checked_sub(1)
    }

    /// The ring of level index `slot`, if the level was ever used.
    #[inline]
    fn level(&self, slot: usize) -> Option<&VecDeque<T>> {
        self.ring(slot).map(|ring| &self.levels[ring])
    }

    /// The ring of level index `slot`, made on its first use.
    #[inline]
    fn level_mut(&mut self, slot: usize) -> &mut VecDeque<T> {
        if self.at[slot] == 0 {
            self.levels.push(VecDeque::new());
            self.at[slot] = self.levels.len() as u8;
        }
        &mut self.levels[usize::from(self.at[slot]) - 1]
    }

    #[inline]
    fn slot(prio: Priority) -> usize {
        (prio.level() - 1) as usize
    }

    /// Index of the highest non-empty level, if any: one `lzcnt`.
    #[inline]
    fn top_slot(&self) -> Option<usize> {
        if self.bitmap == 0 {
            None
        } else {
            Some(127 - self.bitmap.leading_zeros() as usize)
        }
    }

    /// Appends `value` at the tail of its priority level's FIFO.
    #[inline]
    pub fn enqueue(&mut self, prio: Priority, value: T) {
        let slot = Self::slot(prio);
        self.level_mut(slot).push_back(value);
        self.bitmap |= 1 << slot;
        self.len += 1;
    }

    /// Pushes `value` at the *head* of its priority level's FIFO — the
    /// SCHED_FIFO rule for a preempted thread: it resumes before any equal-
    /// priority thread that was queued behind it.
    #[inline]
    pub fn enqueue_front(&mut self, prio: Priority, value: T) {
        let slot = Self::slot(prio);
        self.level_mut(slot).push_front(value);
        self.bitmap |= 1 << slot;
        self.len += 1;
    }

    /// Pops the head of the highest non-empty priority level. O(1): the
    /// level comes from the occupancy bitmap, not a scan.
    #[inline]
    pub fn dequeue_highest(&mut self) -> Option<(Priority, T)> {
        let slot = self.top_slot()?;
        let level = &mut self.levels[usize::from(self.at[slot]) - 1];
        let v = level.pop_front().expect("bitmap says non-empty");
        if level.is_empty() {
            self.bitmap &= !(1 << slot);
        }
        self.len -= 1;
        let prio = Priority::new((slot + 1) as u8).expect("level in range");
        Some((prio, v))
    }

    /// The priority of the highest-priority queued value, without removing
    /// it. O(1).
    #[inline]
    pub fn peek_highest_priority(&self) -> Option<Priority> {
        self.top_slot()
            .map(|slot| Priority::new((slot + 1) as u8).expect("level in range"))
    }

    /// Number of queued values across all levels.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no values are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of values queued at exactly `prio`.
    pub fn len_at(&self, prio: Priority) -> usize {
        self.level(Self::slot(prio)).map_or(0, VecDeque::len)
    }

    /// Iterates over the values queued at `prio` in FIFO order.
    pub fn iter_at(&self, prio: Priority) -> impl Iterator<Item = &T> {
        self.level(Self::slot(prio)).into_iter().flatten()
    }

    /// Empties every level, keeping every ring made so far, and its
    /// allocation, for reuse. This is what lets a worker recycle one ready
    /// queue across thousands of Monte-Carlo runs without touching the
    /// allocator.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for level in &mut self.levels {
            level.clear();
        }
        self.bitmap = 0;
        self.len = 0;
    }
}

impl<T: PartialEq> FifoReadyQueue<T> {
    /// Removes the first occurrence of `value` at level `prio`. Returns
    /// `true` if found (the kernel's dequeue-on-block/destroy path).
    pub fn remove(&mut self, prio: Priority, value: &T) -> bool {
        let slot = Self::slot(prio);
        let Some(ring) = self.ring(slot) else {
            return false;
        };
        let q = &mut self.levels[ring];
        if let Some(pos) = q.iter().position(|v| v == value) {
            q.remove(pos);
            if q.is_empty() {
                self.bitmap &= !(1 << slot);
            }
            self.len -= 1;
            true
        } else {
            false
        }
    }
}

impl<T> Default for FifoReadyQueue<T> {
    fn default() -> Self {
        FifoReadyQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(l: u8) -> Priority {
        Priority::new(l).unwrap()
    }

    #[test]
    fn highest_priority_first() {
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(10), 'a');
        q.enqueue(p(99), 'b');
        q.enqueue(p(50), 'c');
        assert_eq!(q.dequeue_highest(), Some((p(99), 'b')));
        assert_eq!(q.dequeue_highest(), Some((p(50), 'c')));
        assert_eq!(q.dequeue_highest(), Some((p(10), 'a')));
        assert_eq!(q.dequeue_highest(), None);
    }

    #[test]
    fn clear_empties_every_level() {
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(10), 'a');
        q.enqueue(p(99), 'b');
        q.enqueue_front(p(10), 'c');
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_highest_priority(), None);
        assert_eq!(q.dequeue_highest(), None);
        // The queue is fully usable after a clear.
        q.enqueue(p(5), 'd');
        assert_eq!(q.dequeue_highest(), Some((p(5), 'd')));
    }

    #[test]
    fn fifo_within_a_level() {
        let mut q = FifoReadyQueue::new();
        for i in 0..10 {
            q.enqueue(p(42), i);
        }
        for i in 0..10 {
            assert_eq!(q.dequeue_highest(), Some((p(42), i)));
        }
    }

    #[test]
    fn remove_specific_value() {
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(5), 'a');
        q.enqueue(p(5), 'b');
        q.enqueue(p(5), 'a');
        assert!(q.remove(p(5), &'a'));
        assert_eq!(q.len(), 2);
        // Only the first occurrence is removed.
        assert_eq!(q.dequeue_highest(), Some((p(5), 'b')));
        assert_eq!(q.dequeue_highest(), Some((p(5), 'a')));
        assert!(!q.remove(p(5), &'z'));
    }

    #[test]
    fn peek_and_len_at() {
        let mut q = FifoReadyQueue::new();
        assert_eq!(q.peek_highest_priority(), None);
        q.enqueue(p(20), 1);
        q.enqueue(p(20), 2);
        q.enqueue(p(60), 3);
        assert_eq!(q.peek_highest_priority(), Some(p(60)));
        assert_eq!(q.len_at(p(20)), 2);
        assert_eq!(q.len_at(p(60)), 1);
        assert_eq!(q.len_at(p(99)), 0);
        assert_eq!(q.iter_at(p(20)).copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn bands_never_invert() {
        // Optional-band work (1–49) must never be chosen over
        // mandatory-band work (50–98) or HPQ (99).
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(49), "optional-max");
        q.enqueue(p(50), "mandatory-min");
        q.enqueue(p(99), "hpq");
        assert_eq!(q.dequeue_highest().unwrap().1, "hpq");
        assert_eq!(q.dequeue_highest().unwrap().1, "mandatory-min");
        assert_eq!(q.dequeue_highest().unwrap().1, "optional-max");
    }

    #[test]
    fn enqueue_front_preempted_resumes_first() {
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(30), "waiter");
        // A preempted thread is put back at the head of its level.
        q.enqueue_front(p(30), "preempted");
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue_highest(), Some((p(30), "preempted")));
        assert_eq!(q.dequeue_highest(), Some((p(30), "waiter")));
    }

    #[test]
    fn emptied_top_level_falls_through_to_next() {
        // Exercises the occupancy-bitmap clear paths: once the top level
        // drains (by dequeue and by remove), the pick must fall through to
        // the next non-empty level, not a stale bit.
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(90), 'h');
        q.enqueue(p(40), 'm');
        q.enqueue(p(2), 'l');
        assert_eq!(q.dequeue_highest(), Some((p(90), 'h')));
        assert_eq!(q.peek_highest_priority(), Some(p(40)));
        assert!(q.remove(p(40), &'m'));
        assert_eq!(q.peek_highest_priority(), Some(p(2)));
        assert_eq!(q.dequeue_highest(), Some((p(2), 'l')));
        assert_eq!(q.peek_highest_priority(), None);
        assert_eq!(q.dequeue_highest(), None);
        // Refilling a drained level sets its bit again.
        q.enqueue_front(p(40), 'x');
        assert_eq!(q.peek_highest_priority(), Some(p(40)));
    }

    #[test]
    fn boundary_levels_1_and_99() {
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(1), 'a');
        q.enqueue(p(99), 'z');
        assert_eq!(q.peek_highest_priority(), Some(p(99)));
        assert_eq!(q.dequeue_highest(), Some((p(99), 'z')));
        assert_eq!(q.dequeue_highest(), Some((p(1), 'a')));
    }

    #[test]
    fn a_level_first_used_after_clear() {
        let mut q = FifoReadyQueue::new();
        q.enqueue(p(10), 'a');
        q.clear();
        q.enqueue(p(20), 'b');
        q.enqueue_front(p(10), 'c');
        assert_eq!(q.levels.len(), 2);
        assert_eq!(q.peek_highest_priority(), Some(p(20)));
        assert_eq!(q.dequeue_highest(), Some((p(20), 'b')));
        assert_eq!(q.dequeue_highest(), Some((p(10), 'c')));
        assert_eq!(q.dequeue_highest(), None);
    }

    #[test]
    fn a_level_never_used_reads_empty() {
        let mut q = FifoReadyQueue::new();
        assert!(!q.remove(p(7), &'x'));
        assert_eq!(q.len_at(p(7)), 0);
        assert_eq!(q.iter_at(p(7)).count(), 0);
        q.enqueue(p(8), 'x');
        assert!(!q.remove(p(7), &'x'));
        assert_eq!(q.len_at(p(7)), 0);
        assert_eq!(q.iter_at(p(7)).count(), 0);
        // Looking at a level does not make its ring.
        assert_eq!(q.levels.len(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn refilling_after_clear_allocates_nothing() {
        let fill = |q: &mut FifoReadyQueue<u32>| {
            for i in 0..40 {
                q.enqueue(p([50, 20, 99][i as usize % 3]), i);
            }
            q.enqueue_front(p(1), 40);
        };
        let capacities = |q: &FifoReadyQueue<u32>| {
            let mut caps = vec![q.levels.capacity()];
            caps.extend(q.levels.iter().map(VecDeque::capacity));
            caps
        };
        let mut q = FifoReadyQueue::new();
        fill(&mut q);
        let warm = capacities(&q);
        for _ in 0..10 {
            q.clear();
            assert_eq!(capacities(&q), warm);
            fill(&mut q);
            assert_eq!(capacities(&q), warm);
            assert_eq!(q.levels.len(), 4);
        }
    }

    #[test]
    fn len_tracks_operations() {
        let mut q = FifoReadyQueue::new();
        assert!(q.is_empty());
        q.enqueue(p(1), 0);
        q.enqueue(p(99), 1);
        assert_eq!(q.len(), 2);
        q.dequeue_highest();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.dequeue_highest();
        assert!(q.is_empty());
    }
}
