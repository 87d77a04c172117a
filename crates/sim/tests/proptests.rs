//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rtseed_model::{Priority, Time};
use rtseed_sim::{EventQueue, FifoReadyQueue};

/// One step of an event-queue script.
#[derive(Debug, Clone)]
enum Step {
    /// Push these instants, in this order, as one batch.
    Batch(Vec<u64>),
    Pop(usize),
    Clear,
}

/// Decodes a drawn `(kind, bytes)` pair. Instants are dense (16 values) so
/// ties are constant; half the batches are left as drawn (mostly unsorted,
/// a few runs each), the rest are one ascending run or one instant
/// repeated; lengths start at zero.
fn step(kind: u8, raw: &[u8]) -> Step {
    let mut times: Vec<u64> = raw.iter().map(|&t| u64::from(t % 16)).collect();
    match kind {
        0..=3 => Step::Batch(times),
        4..=6 => {
            times.sort_unstable();
            Step::Batch(times)
        }
        7 => Step::Batch(vec![times.first().copied().unwrap_or(0); times.len()]),
        8..=14 => Step::Pop(times.len()),
        _ => Step::Clear,
    }
}

/// Runs `script` through two queues, one taking each batch through
/// `push_sorted` and one through a `push` per item, and fails at the first
/// observable difference: a popped `(time, payload)`, `len()`, `is_empty()`
/// or `peek_time()` after any push, pop or clear.
fn batched_is_push_per_item(script: &[Step]) -> Result<(), TestCaseError> {
    let mut batched: EventQueue<u32> = EventQueue::new();
    let mut single: EventQueue<u32> = EventQueue::new();
    let mut payload = 0u32;
    for step in script {
        match step {
            Step::Batch(times) => {
                let events: Vec<(Time, u32)> = times
                    .iter()
                    .map(|&t| {
                        payload += 1;
                        (Time::from_nanos(t), payload)
                    })
                    .collect();
                for &(at, payload) in &events {
                    single.push(at, payload);
                }
                batched.push_sorted(events);
            }
            Step::Pop(n) => {
                for _ in 0..*n {
                    prop_assert_eq!(batched.pop(), single.pop());
                    prop_assert_eq!(batched.len(), single.len());
                    prop_assert_eq!(batched.peek_time(), single.peek_time());
                }
            }
            Step::Clear => {
                batched.clear();
                single.clear();
            }
        }
        prop_assert_eq!(batched.len(), single.len());
        prop_assert_eq!(batched.is_empty(), single.is_empty());
        prop_assert_eq!(batched.peek_time(), single.peek_time());
    }
    loop {
        let (b, s) = (batched.pop(), single.pop());
        prop_assert_eq!(b, s);
        prop_assert_eq!(batched.len(), single.len());
        prop_assert_eq!(batched.is_empty(), single.is_empty());
        if b.is_none() {
            return Ok(());
        }
    }
}

/// The cases the arbitrary scripts below only meet by chance, once each
/// for certain: an unsorted batch, a batch of one instant, an empty and a
/// one-item batch, a batch pushed over a half-consumed run, and a clear
/// with runs pending followed by more of the same.
#[test]
fn push_sorted_is_push_per_item_on_the_named_cases() {
    use Step::{Batch, Clear, Pop};
    let script = [
        Batch(vec![]),
        Batch(vec![7]),
        Batch(vec![5, 3, 9, 9, 1, 2, 2, 8]),
        Batch(vec![4; 6]),
        Pop(3),
        Batch(vec![1, 2, 3, 4, 5, 6, 7, 8]),
        Pop(4),
        Batch(vec![0, 4, 4, 5, 9]),
        Batch(vec![]),
        Pop(6),
        Clear,
        Batch(vec![3, 3, 4, 1]),
        Pop(1),
        Batch(vec![2, 3, 3]),
    ];
    batched_is_push_per_item(&script).unwrap_or_else(|e| panic!("{e:?}"));
}

proptest! {
    /// `push_sorted` of any batch is observably a `push` per item, over
    /// arbitrary scripts of batches, pops and clears.
    #[test]
    fn push_sorted_is_push_per_item(
        raw in prop::collection::vec((0u8..16, prop::collection::vec(any::<u8>(), 0..12)), 0..60),
    ) {
        let script: Vec<Step> = raw.iter().map(|(kind, bytes)| step(*kind, bytes)).collect();
        batched_is_push_per_item(&script)?;
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
