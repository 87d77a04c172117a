//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use rtseed_model::{Priority, Time};
use rtseed_sim::{EventQueue, FifoReadyQueue};

proptest! {
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
