//! A minimal deterministic discrete-event queue.
//!
//! Time is `f64` seconds. Simultaneous events pop in insertion order
//! (a monotonic tiebreaker), which keeps multi-component simulations
//! deterministic without requiring every caller to avoid ties.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    order: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.order == other.order
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour on (time, order). `total_cmp`
        // is a total order even for NaN, so a non-finite time that
        // somehow bypassed the `schedule` assertion (e.g. via a future
        // unchecked constructor) degrades to a deterministic — if
        // surprising — position instead of corrupting the heap
        // invariant the way `partial_cmp(..).unwrap_or(Equal)` did.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.order.cmp(&self.order))
    }
}

/// A time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_order: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_order: 0,
            now: 0.0,
        }
    }

    /// An empty queue at time zero with pre-sized storage.
    ///
    /// Hyperfleet shards schedule a known number of campaign events per
    /// link; pre-sizing keeps the inner event loop allocation-free.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_order: 0,
            now: 0.0,
        }
    }

    /// Reset to an empty queue at time zero, keeping allocated storage.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_order = 0;
        self.now = 0.0;
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or in the past.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.heap.push(Entry {
            time,
            order: self.next_order,
            event,
        });
        self.next_order += 1;
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(1.5, ());
        q.pop();
        assert_eq!(q.now, 1.5);
        // A relative delay lands on the advanced clock.
        q.schedule(q.now + 0.5, ());
        assert_eq!(q.pop(), Some((2.0, ())));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_nan_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_infinity_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    fn with_capacity_pre_sizes_and_reset_keeps_storage() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.heap.capacity() >= 16);
        for i in 0..16 {
            q.schedule(i as f64, i);
        }
        while q.pop().is_some() {}
        q.reset();
        assert_eq!(q.now, 0.0);
        assert!(q.is_empty());
        assert!(q.heap.capacity() >= 16);
        q.schedule(0.5, 99);
        assert_eq!(q.pop(), Some((0.5, 99)));
    }
}
