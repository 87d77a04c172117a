//! Property-based tests for the simulation substrate.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rtseed_model::{Priority, Time};
use rtseed_sim::{EventQueue, FifoReadyQueue};

/// One step of an event-queue script.
#[derive(Debug, Clone)]
enum Step {
    /// Push these instants one by one, in this order.
    Push(Vec<u64>),
    /// Push these instants one by one, popping once after each push.
    PushPop(Vec<u64>),
    Pop(usize),
    Clear,
}

/// Decodes a drawn `(kind, bytes)` pair. Instants are dense (16 values) so
/// ties are constant; a stretch is left as drawn (mostly unsorted: a few
/// short ascents and descending pushes), sorted ascending, one instant
/// repeated, sorted descending, or sorted ascending with a pop after every
/// push; lengths start at zero.
fn step(kind: u8, raw: &[u8]) -> Step {
    let mut times: Vec<u64> = raw.iter().map(|&t| u64::from(t % 16)).collect();
    match kind {
        0..=2 => Step::Push(times),
        3..=4 => {
            times.sort_unstable();
            Step::Push(times)
        }
        5 => Step::Push(vec![times.first().copied().unwrap_or(0); times.len()]),
        6 => {
            times.sort_unstable_by(|a, b| b.cmp(a));
            Step::Push(times)
        }
        7 => {
            times.sort_unstable();
            Step::PushPop(times)
        }
        8..=14 => Step::Pop(times.len()),
        _ => Step::Clear,
    }
}

/// The ordering contract, transcribed: pending events keyed by `(time,
/// push index)` in an ordered map.
#[derive(Default)]
struct Reference {
    pending: BTreeMap<(Time, u64), u32>,
    pushed: u64,
}

impl Reference {
    fn push(&mut self, at: Time, payload: u32) {
        self.pending.insert((at, self.pushed), payload);
        self.pushed += 1;
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        self.pending
            .pop_first()
            .map(|((at, _), payload)| (at, payload))
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.first_key_value().map(|(&(at, _), _)| at)
    }
}

/// Runs `script` through the queue and the reference and fails at the
/// first observable difference: a popped `(time, payload)`, `len()`,
/// `is_empty()` or `peek_time()` after any push, pop or clear.
fn pops_in_time_then_push_order(script: &[Step]) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut reference = Reference::default();
    let mut payload = 0u32;
    let same = |q: &EventQueue<u32>, r: &Reference| -> Result<(), TestCaseError> {
        prop_assert_eq!(q.len(), r.pending.len());
        prop_assert_eq!(q.is_empty(), r.pending.is_empty());
        prop_assert_eq!(q.peek_time(), r.peek_time());
        Ok(())
    };
    for step in script {
        match step {
            Step::Push(times) | Step::PushPop(times) => {
                for &t in times {
                    payload += 1;
                    q.push(Time::from_nanos(t), payload);
                    reference.push(Time::from_nanos(t), payload);
                    same(&q, &reference)?;
                    if matches!(step, Step::PushPop(_)) {
                        prop_assert_eq!(q.pop(), reference.pop());
                        same(&q, &reference)?;
                    }
                }
            }
            Step::Pop(n) => {
                for _ in 0..*n {
                    prop_assert_eq!(q.pop(), reference.pop());
                    same(&q, &reference)?;
                }
            }
            Step::Clear => {
                q.clear();
                reference.pending.clear();
            }
        }
        same(&q, &reference)?;
    }
    loop {
        let popped = q.pop();
        prop_assert_eq!(popped, reference.pop());
        same(&q, &reference)?;
        if popped.is_none() {
            return Ok(());
        }
    }
}

/// The cases the arbitrary scripts below only meet by chance, once each
/// for certain: an unsorted stretch, one instant repeated, an empty and a
/// one-push stretch, a descending stretch, ascending pushes over a
/// half-consumed run, pops between the pushes of one stretch, a stretch
/// that continues the previous one, and a clear with a run open and an
/// event staged followed by more of the same.
#[test]
fn pops_in_time_then_push_order_on_the_named_cases() {
    use Step::{Clear, Pop, Push, PushPop};
    let script = [
        Push(vec![]),
        Push(vec![7]),
        Push(vec![5, 3, 9, 9, 1, 2, 2, 8]),
        Push(vec![4; 6]),
        Pop(3),
        Push(vec![1, 2, 3, 4, 5, 6, 7, 8]),
        Pop(4),
        Push(vec![9, 9, 11]),
        PushPop(vec![0, 4, 4, 5, 9]),
        Push(vec![12, 10, 6, 2]),
        Push(vec![]),
        Pop(6),
        Push(vec![3, 3, 4, 1]),
        Clear,
        Push(vec![3, 3, 4, 1]),
        Pop(1),
        Push(vec![2, 3, 3]),
        Clear,
        Push(vec![0, 1]),
    ];
    pops_in_time_then_push_order(&script).unwrap_or_else(|e| panic!("{e:?}"));
}

proptest! {
    /// Pop order is time, then push order, over arbitrary scripts of
    /// stretches, pops and clears.
    #[test]
    fn pops_in_time_then_push_order_on_any_script(
        raw in prop::collection::vec((0u8..16, prop::collection::vec(any::<u8>(), 0..12)), 0..60),
    ) {
        let script: Vec<Step> = raw.iter().map(|(kind, bytes)| step(*kind, bytes)).collect();
        pops_in_time_then_push_order(&script)?;
    }

    /// Popping the event queue always yields non-decreasing times, and
    /// FIFO order among equal times.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_nanos(t), i);
        }
        let mut last: Option<(Time, usize)> = None;
        let mut popped = 0usize;
        while let Some((t, idx)) = q.pop() {
            popped += 1;
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO among equals");
                }
            }
            prop_assert_eq!(Time::from_nanos(times[idx]), t);
            last = Some((t, idx));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The ready queue never inverts priorities and conserves elements.
    #[test]
    fn ready_queue_conserves_and_orders(items in prop::collection::vec(1u8..=99, 0..200)) {
        let mut q = FifoReadyQueue::new();
        for (i, &level) in items.iter().enumerate() {
            q.enqueue(Priority::new(level).unwrap(), i);
        }
        prop_assert_eq!(q.len(), items.len());
        let mut last: Option<Priority> = None;
        let mut count = 0;
        while let Some((p, idx)) = q.dequeue_highest() {
            count += 1;
            prop_assert_eq!(Priority::new(items[idx]).unwrap(), p);
            if let Some(lp) = last {
                prop_assert!(p <= lp, "priorities must be non-increasing");
            }
            last = Some(p);
        }
        prop_assert_eq!(count, items.len());
        prop_assert!(q.is_empty());
    }
}
