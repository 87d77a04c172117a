//! Differential property tests for the simulator's hot-path structures.
//!
//! The scan-based ready queue became a bitmap-indexed one with rings made
//! on first use, and the `BinaryHeap` event queue a slab-backed heap that
//! keeps ascending stretches of pushes as runs. Both rewrites must be
//! *behaviorally invisible*: the simulator's determinism contract
//! (byte-identical seeded traces) rides on these structures agreeing with
//! their obviously-correct predecessors on every operation interleaving.
//!
//! Each test drives the production structure and an in-test reference
//! implementation — deliberately naive transcriptions of the pre-rewrite
//! code — through the same randomly generated operation sequence and
//! asserts every observable output matches, then drains both to compare
//! the final contents.

use std::collections::VecDeque;

use proptest::prelude::*;
use rtseed_model::{Priority, Time};
use rtseed_sim::{EventQueue, FifoReadyQueue};

/// The pre-PR ready queue: 99 FIFO levels picked by linear scan from the
/// top. No bitmap, no len cache — every answer is recomputed from the
/// levels themselves, so it cannot suffer a stale-index bug.
struct ScanReadyQueue<T> {
    levels: Vec<VecDeque<T>>,
}

impl<T: PartialEq> ScanReadyQueue<T> {
    fn new() -> ScanReadyQueue<T> {
        ScanReadyQueue {
            levels: (0..99).map(|_| VecDeque::new()).collect(),
        }
    }

    fn slot(prio: Priority) -> usize {
        (prio.level() - 1) as usize
    }

    fn enqueue(&mut self, prio: Priority, value: T) {
        self.levels[Self::slot(prio)].push_back(value);
    }

    fn enqueue_front(&mut self, prio: Priority, value: T) {
        self.levels[Self::slot(prio)].push_front(value);
    }

    fn dequeue_highest(&mut self) -> Option<(Priority, T)> {
        let slot = (0..99).rev().find(|&s| !self.levels[s].is_empty())?;
        let v = self.levels[slot].pop_front().expect("non-empty");
        Some((Priority::new((slot + 1) as u8).expect("in range"), v))
    }

    fn peek_highest_priority(&self) -> Option<Priority> {
        (0..99)
            .rev()
            .find(|&s| !self.levels[s].is_empty())
            .map(|slot| Priority::new((slot + 1) as u8).expect("in range"))
    }

    fn remove(&mut self, prio: Priority, value: &T) -> bool {
        let q = &mut self.levels[Self::slot(prio)];
        match q.iter().position(|v| v == value) {
            Some(pos) => {
                q.remove(pos);
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.levels.iter().map(|q| q.len()).sum()
    }

    fn len_at(&self, prio: Priority) -> usize {
        self.levels[Self::slot(prio)].len()
    }
}

/// The pre-PR event queue, reduced to its contract: pending events in a
/// plain vector, pop returns the minimum under the `(time, insertion
/// sequence)` total order by linear scan.
struct ScanEventQueue<T> {
    pending: Vec<(Time, u64, T)>,
    seq: u64,
}

impl<T> ScanEventQueue<T> {
    fn new() -> ScanEventQueue<T> {
        ScanEventQueue {
            pending: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: Time, payload: T) {
        self.pending.push((at, self.seq, payload));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, T)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, _, payload) = self.pending.remove(best);
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.iter().map(|&(at, seq, _)| (at, seq)).min().map(|(at, _)| at)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    /// Like the production queue's: the counter keeps running.
    fn clear(&mut self) {
        self.pending.clear();
    }
}

fn prio(raw: u8) -> Priority {
    Priority::new(raw % 99 + 1).expect("in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bitmap ready queue and the scan ready queue agree on every
    /// observable of every operation, over arbitrary interleavings of all
    /// five operations, and end up with identical contents.
    #[test]
    fn ready_queue_matches_scan_reference(
        ops in prop::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 0..300),
    ) {
        let mut fast: FifoReadyQueue<u8> = FifoReadyQueue::new();
        let mut slow: ScanReadyQueue<u8> = ScanReadyQueue::new();
        for &(op, a, b) in &ops {
            match op {
                0 => {
                    fast.enqueue(prio(a), b);
                    slow.enqueue(prio(a), b);
                }
                1 => {
                    fast.enqueue_front(prio(a), b);
                    slow.enqueue_front(prio(a), b);
                }
                2 => prop_assert_eq!(fast.dequeue_highest(), slow.dequeue_highest()),
                3 => prop_assert_eq!(fast.remove(prio(a), &b), slow.remove(prio(a), &b)),
                _ => prop_assert_eq!(fast.peek_highest_priority(), slow.peek_highest_priority()),
            }
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert_eq!(fast.is_empty(), slow.len() == 0);
            prop_assert_eq!(fast.peek_highest_priority(), slow.peek_highest_priority());
            // Spot-check per-level counts at the levels this op touched.
            prop_assert_eq!(fast.len_at(prio(a)), slow.len_at(prio(a)));
        }
        // Drain both completely: contents and order must be identical.
        loop {
            let (f, s) = (fast.dequeue_highest(), slow.dequeue_highest());
            prop_assert_eq!(f, s);
            if f.is_none() {
                break;
            }
        }
    }

    /// The slab-heap event queue pops exactly the `(time, FIFO)` order of
    /// the linear-scan reference over arbitrary push/pop interleavings.
    /// Timestamps are drawn dense (16 distinct values) so equal-time
    /// tie-breaking — the bug class a heap rewrite is most likely to get
    /// wrong — is exercised constantly.
    #[test]
    fn event_queue_matches_scan_reference(
        ops in prop::collection::vec((0u8..3, any::<u8>()), 0..300),
    ) {
        let mut fast: EventQueue<u32> = EventQueue::new();
        let mut slow: ScanEventQueue<u32> = ScanEventQueue::new();
        let mut next_payload = 0u32;
        for &(op, a) in &ops {
            if op < 2 {
                // Push-biased (2:1) so the queues actually fill up.
                let at = Time::from_nanos((a % 16) as u64);
                fast.push(at, next_payload);
                slow.push(at, next_payload);
                next_payload += 1;
            } else {
                prop_assert_eq!(fast.pop(), slow.pop());
            }
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert_eq!(fast.is_empty(), slow.len() == 0);
            prop_assert_eq!(fast.peek_time(), slow.peek_time());
        }
        loop {
            let (f, s) = (fast.pop(), slow.pop());
            prop_assert_eq!(f, s);
            if f.is_none() {
                break;
            }
        }
    }

    /// Stretches of pushes against the reference, which knows no run:
    /// each drawn batch is pushed one by one, as drawn (short ascents and
    /// descending pushes), sorted (one run, ties included), sorted
    /// descending (every push staged, then flushed), or sorted with a pop
    /// after every push; pops of 0–11 leave runs half consumed under the
    /// next batch, and a clear lands in the middle of some scripts.
    #[test]
    fn event_queue_batches_match_scan_reference(
        ops in prop::collection::vec((0u8..16, prop::collection::vec(any::<u8>(), 0..12)), 0..60),
    ) {
        let mut fast: EventQueue<u32> = EventQueue::new();
        let mut slow: ScanEventQueue<u32> = ScanEventQueue::new();
        let mut next_payload = 0u32;
        for (kind, raw) in &ops {
            match kind {
                0..=7 => {
                    let mut times: Vec<u64> = raw.iter().map(|&a| (a % 16) as u64).collect();
                    match kind {
                        3..=5 => times.sort_unstable(),
                        6 => times.sort_unstable_by(|a, b| b.cmp(a)),
                        _ => {}
                    }
                    for t in times {
                        next_payload += 1;
                        let at = Time::from_nanos(t);
                        fast.push(at, next_payload);
                        slow.push(at, next_payload);
                        prop_assert_eq!(fast.peek_time(), slow.peek_time());
                        if *kind == 5 {
                            prop_assert_eq!(fast.pop(), slow.pop());
                        }
                        prop_assert_eq!(fast.len(), slow.len());
                    }
                }
                8..=14 => {
                    for _ in 0..raw.len() {
                        prop_assert_eq!(fast.pop(), slow.pop());
                        prop_assert_eq!(fast.peek_time(), slow.peek_time());
                    }
                }
                _ => {
                    fast.clear();
                    slow.clear();
                }
            }
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert_eq!(fast.is_empty(), slow.len() == 0);
            prop_assert_eq!(fast.peek_time(), slow.peek_time());
        }
        loop {
            let (f, s) = (fast.pop(), slow.pop());
            prop_assert_eq!(f, s);
            prop_assert_eq!(fast.len(), slow.len());
            if f.is_none() {
                break;
            }
        }
    }

    /// Steady-state slab recycling never disturbs ordering: after `clear`,
    /// the insertion counter keeps running and FIFO order still spans the
    /// clear (the documented contract).
    #[test]
    fn event_queue_order_survives_clear_and_churn(
        before in prop::collection::vec(any::<u8>(), 0..40),
        after in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut reference: ScanEventQueue<u32> = ScanEventQueue::new();
        for (i, &a) in before.iter().enumerate() {
            q.push(Time::from_nanos((a % 8) as u64), i as u32);
        }
        q.clear();
        prop_assert!(q.is_empty());
        for (i, &a) in after.iter().enumerate() {
            let at = Time::from_nanos((a % 8) as u64);
            q.push(at, i as u32);
            reference.push(at, i as u32);
        }
        loop {
            let (f, s) = (q.pop(), reference.pop());
            prop_assert_eq!(f, s);
            if f.is_none() {
                break;
            }
        }
    }
}
