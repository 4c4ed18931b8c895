//! Bounded mailboxes: the queues in front of the async ingestion tier.
//!
//! A real async server puts a queue in front of every worker; the queue is
//! where overload becomes *visible* (depth, lag) and *survivable* (a full
//! queue refuses work instead of eating memory). [`Mailbox`] is that queue
//! in deterministic form: a bounded FIFO of `(SimTime, event)` pairs that
//! counts what it accepted, what it refused and how deep it ever got.
//! Refusal is the
//! *backpressure signal* — the caller decides whether to shed, queue, or
//! back off, but nothing is ever dropped silently inside the mailbox.
//!
//! # Examples
//!
//! ```
//! use roomsense_sim::{Mailbox, SimTime};
//!
//! let mut inbox: Mailbox<&str> = Mailbox::new(2);
//! assert!(inbox.offer(SimTime::from_secs(1), "a"));
//! assert!(inbox.offer(SimTime::from_secs(2), "b"));
//! assert!(!inbox.offer(SimTime::from_secs(3), "c"), "full: backpressure");
//! let drained = inbox.drain(8);
//! assert_eq!(drained.len(), 2);
//! ```

use crate::SimTime;
use std::collections::VecDeque;

/// A bounded FIFO of timestamped events with admission/rejection counters.
///
/// The queue never exceeds its capacity: [`offer`](Mailbox::offer) returns
/// `false` — the backpressure signal — instead of growing. Every decision
/// is a pure function of the call sequence, so a mailbox-driven event loop
/// is deterministic by construction.
#[derive(Debug, Clone)]
pub struct Mailbox<E> {
    queue: VecDeque<(SimTime, E)>,
    capacity: usize,
    peak_depth: usize,
    accepted: u64,
    rejected: u64,
}

impl<E> Mailbox<E> {
    /// Creates an empty mailbox holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be non-zero");
        Mailbox {
            queue: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            peak_depth: 0,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Enqueues `event` (stamped `at`) unless the mailbox is full.
    /// Returns `false` — backpressure — when the event was refused.
    pub fn offer(&mut self, at: SimTime, event: E) -> bool {
        if self.queue.len() >= self.capacity {
            self.rejected += 1;
            return false;
        }
        self.queue.push_back((at, event));
        self.accepted += 1;
        self.peak_depth = self.peak_depth.max(self.queue.len());
        true
    }

    /// Dequeues up to `budget` events in FIFO order.
    pub fn drain(&mut self, budget: usize) -> Vec<(SimTime, E)> {
        let n = budget.min(self.queue.len());
        self.queue.drain(..n).collect()
    }

    /// Events currently queued.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// The deepest the queue ever got — always `<= capacity()`, which is
    /// the bounded-memory claim in checkable form.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_are_fifo_and_bounded() {
        let mut m: Mailbox<u32> = Mailbox::new(3);
        for i in 0..5u32 {
            m.offer(SimTime::from_secs(u64::from(i)), i);
        }
        assert_eq!(m.depth(), 3);
        assert_eq!(m.peak_depth(), 3);
        assert_eq!(m.accepted, 3);
        assert_eq!(m.rejected, 2);
        let events: Vec<u32> = m.drain(10).into_iter().map(|(_, e)| e).collect();
        assert_eq!(events, vec![0, 1, 2]);
        assert!(m.is_empty());
        // Capacity frees up after the drain.
        assert!(m.offer(SimTime::from_secs(9), 9));
    }

    #[test]
    fn drain_respects_the_budget() {
        let mut m: Mailbox<u32> = Mailbox::new(8);
        for i in 0..6u32 {
            m.offer(SimTime::ZERO, i);
        }
        assert_eq!(m.drain(4).len(), 4);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.drain(4).len(), 2);
        assert!(m.drain(4).is_empty());
    }

    #[test]
    fn peak_depth_survives_draining() {
        let mut m: Mailbox<u8> = Mailbox::new(10);
        for i in 0..7u8 {
            m.offer(SimTime::ZERO, i);
        }
        m.drain(7);
        assert_eq!(m.peak_depth(), 7);
        assert!(m.peak_depth() <= m.capacity);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _: Mailbox<()> = Mailbox::new(0);
    }
}
