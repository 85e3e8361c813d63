//! A deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A scheduled event: payload `E` due at a given time.
///
/// Events at equal times are delivered in scheduling order (FIFO), which
/// keeps multi-host simulations deterministic under a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub event: E,
}

/// A min-heap of events ordered by `(time, insertion sequence)`.
///
/// # Examples
///
/// ```
/// use zeroconf_sim::events::EventQueue;
/// use zeroconf_sim::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::new(2.0).unwrap(), "late");
/// q.schedule(SimTime::new(1.0).unwrap(), "early");
/// assert_eq!(q.pop().unwrap().event, "early");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    sequence: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    sequence: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.sequence == other.sequence
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.sequence).cmp(&(other.at, other.sequence))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            sequence: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling before the last popped event is allowed (the event pops
    /// next, with its own timestamp, still after already-due events) —
    /// broadcast deliveries with zero delay rely on this.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = Entry {
            at,
            sequence: self.sequence,
            event,
        };
        self.sequence += 1;
        self.heap.push(Reverse(entry));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|Reverse(entry)| Scheduled {
            at: entry.at,
            event: entry.event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(seconds: f64) -> SimTime {
        SimTime::new(seconds).unwrap()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1);
        q.schedule(t(1.0), 2);
        q.schedule(t(1.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn past_events_pop_with_their_own_time() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), "future");
        q.pop();
        q.schedule(t(1.0), "past");
        let e = q.pop().unwrap();
        assert_eq!(e.event, "past");
        assert_eq!(e.at, t(1.0));
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
    }
}
