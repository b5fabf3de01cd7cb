//! In-flight work ordered by completion cycle: the response queue every
//! memory back end shares.
//!
//! A device schedules each transaction analytically at submit time, so
//! its response exists long before it is due. [`CompletionQueue`] holds
//! those responses in one min-heap keyed by (completion cycle,
//! submission order) and hands them back once `now` reaches their cycle.
//! The submission sequence breaks ties, so responses completing in the
//! same cycle drain in the order they were submitted, deterministically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mac_types::{Cycle, HmcResponse};

/// One queued item with its heap key.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Cycle, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap pops the earliest (cycle, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Items due at known cycles, popped in (cycle, submission) order.
#[derive(Debug, Clone)]
pub struct CompletionQueue<T = HmcResponse> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        CompletionQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> CompletionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `item`, due at cycle `at`.
    pub fn push(&mut self, at: Cycle, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// The earliest item, if it is due by `now`.
    pub fn peek_due(&self, now: Cycle) -> Option<&T> {
        self.heap.peek().filter(|e| e.at <= now).map(|e| &e.item)
    }

    /// Remove and return the earliest item, if it is due by `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        self.peek_due(now)?;
        self.heap.pop().map(|e| e.item)
    }

    /// Items queued (due or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The cycle the earliest item is due, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_due<T>(q: &mut CompletionQueue<T>, now: Cycle) -> Vec<T> {
        std::iter::from_fn(|| q.pop_due(now)).collect()
    }

    #[test]
    fn same_cycle_items_drain_in_submission_order() {
        let mut q = CompletionQueue::new();
        for (at, item) in [(20, 'a'), (10, 'b'), (20, 'c'), (10, 'd'), (20, 'e')] {
            q.push(at, item);
        }
        assert_eq!(q.next_at(), Some(10));
        assert!(drain_due(&mut q, 9).is_empty());
        assert_eq!(drain_due(&mut q, 10), vec!['b', 'd']);
        assert_eq!(q.len(), 3);
        assert_eq!(drain_due(&mut q, u64::MAX), vec!['a', 'c', 'e']);
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn peek_and_pop_respect_now() {
        let mut q = CompletionQueue::new();
        q.push(5, 1u32);
        assert_eq!(q.peek_due(4), None);
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.peek_due(5), Some(&1));
        assert_eq!(q.pop_due(7), Some(1));
        assert_eq!(q.pop_due(7), None);
    }
}
