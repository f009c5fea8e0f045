//! The event queue driving a simulation run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for a point in simulated time.
///
/// `seq` is the event's position in scheduling order: it breaks timestamp
/// ties FIFO and, read back through [`EventQueue::next_seq`], counts every
/// schedule a run made.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: i64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break on the sequence number, preserving FIFO scheduling order,
        // which keeps runs deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timestamped events.
///
/// Events pop in timestamp order; events scheduled for the same instant pop
/// in the order they were pushed (FIFO). The queue also tracks the current
/// simulation time: popping an event advances `now` to the event's timestamp.
///
/// # Examples
///
/// ```
/// use tashkent_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "sooner")));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: i64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Returns the current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the event is
    /// clamped to fire at the current time instead so simulated time never
    /// runs backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// The sequence number the next [`EventQueue::schedule`] will consume:
    /// sequence numbers start at zero, so this is also the number of events
    /// scheduled so far.
    pub fn next_seq(&self) -> i64 {
        self.next_seq
    }

    /// Returns the next event (timestamp and a borrow) without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|s| (s.at, &s.event))
    }

    /// Iterates the pending events, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = &E> {
        self.heap.iter().map(|s| &s.event)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
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
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "a");
        q.pop();
        // Scheduling before `now` must not rewind the clock.
        q.schedule(SimTime::from_micros(3), "late");
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(at, SimTime::from_micros(10));
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.peek(), Some((SimTime::from_micros(9), &())));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn pending_yields_every_unpopped_event() {
        let mut q = EventQueue::new();
        for (at, e) in [(9, 'a'), (3, 'b'), (5, 'c')] {
            q.schedule(SimTime::from_micros(at), e);
        }
        q.pop();
        let mut left: Vec<char> = q.pending().copied().collect();
        left.sort_unstable();
        assert_eq!(left, vec!['a', 'c']);
    }

    #[test]
    fn next_seq_counts_every_schedule() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_seq(), 0);
        q.schedule(SimTime::from_micros(9), "a");
        q.schedule(SimTime::from_micros(3), "b");
        q.pop();
        // Popping consumes no sequence number; scheduling does.
        assert_eq!(q.next_seq(), 2);
        q.schedule(q.now() + 1, "c");
        assert_eq!(q.next_seq(), 3);
    }
}
