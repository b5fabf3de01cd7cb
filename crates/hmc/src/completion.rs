//! In-flight work ordered by completion cycle: the response queue every
//! memory back end shares.
//!
//! A device schedules each transaction analytically at submit time, so
//! its response exists long before it is due. [`CompletionQueue`] holds
//! those responses in one min-heap keyed by (completion cycle,
//! submission order) and hands them back once `now` reaches their cycle.
//! The submission sequence breaks ties, so responses completing in the
//! same cycle drain in the order they were submitted, deterministically.
//!
//! The heap holds only 24 B keys; the items wait in a slot table whose
//! freed slots are reused, so a sift moves keys, never responses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mac_types::{Cycle, HmcResponse};

/// Items due at known cycles, popped in (cycle, submission) order.
#[derive(Debug, Clone)]
pub struct CompletionQueue<T = HmcResponse> {
    /// (due cycle, submission sequence, slot) of every queued item;
    /// the sequence is unique, so the slot never decides the order.
    heap: BinaryHeap<Reverse<(Cycle, u64, usize)>>,
    /// Queued items, addressed by their key's slot.
    slots: Vec<Option<T>>,
    /// Empty slots, reused before `slots` grows.
    free: Vec<usize>,
    seq: u64,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        CompletionQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(item);
                slot
            }
            None => {
                self.slots.push(Some(item));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// The slot of the earliest item, if it is due by `now`.
    fn due_slot(&self, now: Cycle) -> Option<usize> {
        match self.heap.peek() {
            Some(&Reverse((at, _, slot))) if at <= now => Some(slot),
            _ => None,
        }
    }

    /// The earliest item, if it is due by `now`.
    pub fn peek_due(&self, now: Cycle) -> Option<&T> {
        self.slots[self.due_slot(now)?].as_ref()
    }

    /// Remove and return the earliest item, if it is due by `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        let slot = self.due_slot(now)?;
        self.heap.pop();
        self.free.push(slot);
        self.slots[slot].take()
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
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        /// Random pushes, with repeated and descending cycles, interleaved
        /// with `pop_due`, `peek_due` and `next_at` at a non-decreasing
        /// `now`: items pop in a stable sort by (cycle, push order),
        /// `len`/`is_empty` agree with a reference list, and reused slots
        /// keep the slot table no longer than the most items ever queued
        /// at once.
        #[test]
        fn pops_are_a_stable_sort_by_cycle(
            ops in prop::collection::vec((0u8..5, 0u64..12), 1..300),
        ) {
            let mut q = CompletionQueue::new();
            // (due cycle, push order) of every queued item; the item is
            // its push order.
            let mut model: Vec<(Cycle, usize)> = Vec::new();
            let (mut now, mut pushed, mut most) = (0, 0, 0);
            let first_due = |model: &[(Cycle, usize)], now| {
                model.iter().copied().filter(|&(at, _)| at <= now).min()
            };
            for (op, v) in ops {
                match op {
                    // Push at `now + v`; draws repeat and go backwards.
                    0..=2 => {
                        q.push(now + v, pushed);
                        model.push((now + v, pushed));
                        pushed += 1;
                        most = most.max(model.len());
                    }
                    // Pop once at `now`.
                    3 => {
                        let want = first_due(&model, now);
                        prop_assert_eq!(q.peek_due(now).copied(), want.map(|(_, i)| i));
                        prop_assert_eq!(q.pop_due(now), want.map(|(_, i)| i));
                        model.retain(|&e| Some(e) != want);
                    }
                    // Advance `now` by `v` and drain everything due.
                    _ => {
                        now += v;
                        while let Some(want) = first_due(&model, now) {
                            prop_assert_eq!(q.pop_due(now), Some(want.1));
                            model.retain(|&e| e != want);
                        }
                        prop_assert_eq!(q.pop_due(now), None);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.next_at(), model.iter().map(|&(at, _)| at).min());
                let slots = q.slots.len();
                prop_assert!(slots <= most, "{} slots, at most {} queued", slots, most);
            }
            // What is left drains in (cycle, push order).
            model.sort_unstable();
            let rest = drain_due(&mut q, Cycle::MAX);
            prop_assert_eq!(rest, model.iter().map(|&(_, i)| i).collect::<Vec<_>>());
            prop_assert!(q.is_empty());
        }
    }
}
