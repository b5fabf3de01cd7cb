//! In-flight tables keyed by sequence numbers.
//!
//! The run loops track requests by ids the simulator hands out itself:
//! `soc_sim::Node` issues [`crate::TransactionId`]s from a per-node
//! counter, one after another. A table of such requests needs no
//! hashing. [`SeqWindow`] stores one slot per key between the oldest
//! live key and the newest key inserted, so a lookup is a subtraction
//! and an index, the way the 2 B transaction tag of §4.1.1 finds a
//! response's request without a search. Removing the oldest live entry
//! drops the empty slots in front of it, so memory follows that span,
//! not the number of keys ever issued.
//!
//! Keys must be inserted in ascending order. No outside input chooses
//! them, so an out-of-order insert is a bug and panics.

use std::collections::VecDeque;

/// A table of values keyed by `u64`s that are inserted in ascending
/// order; see the module docs.
#[derive(Debug)]
pub struct SeqWindow<V> {
    /// Key of `slots[0]`. `base + slots.len()` is one past the newest
    /// key inserted.
    base: u64,
    /// One slot per key from the oldest live key to the newest key
    /// inserted. The front slot is always occupied.
    slots: VecDeque<Option<V>>,
    /// Occupied slots.
    live: usize,
}

impl<V> Default for SeqWindow<V> {
    fn default() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<V> SeqWindow<V> {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `value` under `key`. Keys between the newest key and
    /// `key` stay empty.
    ///
    /// # Panics
    ///
    /// If `key` is not greater than every key inserted before.
    pub fn insert(&mut self, key: u64, value: V) {
        let end = self.base + self.slots.len() as u64;
        assert!(
            key >= end,
            "SeqWindow keys must ascend: {key} inserted after {}",
            end.wrapping_sub(1)
        );
        if self.slots.is_empty() {
            self.base = key;
        } else {
            let gap = usize::try_from(key - end).expect("gap fits in memory");
            self.slots.extend(std::iter::repeat_with(|| None).take(gap));
        }
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    /// Slot index of `key`, if it lies inside the window.
    fn index(&self, key: u64) -> Option<usize> {
        let i = usize::try_from(key.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The value under `key`, if it is live.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.slots[self.index(key)?].as_ref()
    }

    /// Remove and return the value under `key`. A key that was never
    /// inserted, was already removed or lies outside the window gives
    /// `None`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.index(key)?;
        let value = self.slots[i].take()?;
        self.live -= 1;
        if i == 0 {
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .zip(self.base..)
            .filter_map(|(slot, key)| slot.as_ref().map(|_| key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn first_key_sets_the_base() {
        let mut w = SeqWindow::new();
        let key = crate::TransactionId::compose(3, 7).0;
        w.insert(key, 'a');
        assert_eq!(w.slots.len(), 1);
        assert_eq!(w.get(key), Some(&'a'));
        assert_eq!(w.get(key - 1), None);
        assert_eq!(w.remove(key), Some('a'));
        assert!(w.is_empty());
        assert_eq!(w.slots.len(), 0);
    }

    #[test]
    fn removing_the_oldest_trims_the_front() {
        let mut w = SeqWindow::new();
        for k in [10, 11, 14] {
            w.insert(k, k);
        }
        assert_eq!(w.slots.len(), 5);
        assert_eq!(w.remove(11), Some(11));
        assert_eq!(w.slots.len(), 5, "a hole behind the oldest stays");
        assert_eq!(w.remove(10), Some(10));
        assert_eq!(w.slots.len(), 1, "the holes in front of 14 go with 10");
        assert_eq!(w.keys().collect::<Vec<_>>(), vec![14]);
    }

    #[test]
    #[should_panic(expected = "keys must ascend")]
    fn out_of_order_insert_panics() {
        let mut w = SeqWindow::new();
        w.insert(5, ());
        w.insert(4, ());
    }

    #[test]
    #[should_panic(expected = "keys must ascend")]
    fn reinserting_a_removed_key_panics() {
        let mut w = SeqWindow::new();
        w.insert(5, ());
        w.remove(5);
        w.insert(5, ());
    }

    /// One step of the model test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert the key this many keys past the next one.
        Insert(u64),
        /// Remove the live key at this index, wrapping; with none live,
        /// remove the newest key again.
        RemoveLive(usize),
        /// Remove the key this far below the window's base.
        RemoveBelow(u64),
        /// Remove the key this far past the newest key.
        RemovePast(u64),
        /// Remove the newest key twice.
        RemoveNewestTwice,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u64..5).prop_map(Op::Insert),
            4 => any::<usize>().prop_map(Op::RemoveLive),
            1 => (1u64..4).prop_map(Op::RemoveBelow),
            1 => (1u64..4).prop_map(Op::RemovePast),
            1 => Just(Op::RemoveNewestTwice),
        ]
    }

    proptest! {
        /// The window agrees with a `BTreeMap` after every step, and
        /// keeps no slot outside the oldest live key ..= newest key.
        #[test]
        fn window_matches_btreemap(
            start in 0u64..1000,
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let mut w = SeqWindow::new();
            let mut model = BTreeMap::new();
            let mut next = start;
            let mut newest = None;
            for op in ops {
                match op {
                    Op::Insert(gap) => {
                        let key = next + gap;
                        w.insert(key, key * 3);
                        model.insert(key, key * 3);
                        newest = Some(key);
                        next = key + 1;
                    }
                    Op::RemoveLive(pick) => {
                        let key = if model.is_empty() {
                            newest.unwrap_or(start)
                        } else {
                            *model.keys().nth(pick % model.len()).expect("nonempty")
                        };
                        prop_assert_eq!(w.remove(key), model.remove(&key));
                    }
                    Op::RemoveBelow(back) => {
                        let key = w.base.saturating_sub(back);
                        prop_assert_eq!(w.remove(key), model.remove(&key));
                    }
                    Op::RemovePast(ahead) => {
                        let key = next + ahead - 1;
                        prop_assert_eq!(w.remove(key), None);
                        prop_assert_eq!(model.remove(&key), None);
                    }
                    Op::RemoveNewestTwice => {
                        if let Some(key) = newest {
                            prop_assert_eq!(w.remove(key), model.remove(&key));
                            prop_assert_eq!(w.remove(key), None);
                        }
                    }
                }
                prop_assert_eq!(w.len(), model.len());
                prop_assert_eq!(w.is_empty(), model.is_empty());
                prop_assert!(w.keys().eq(model.keys().copied()));
                for key in start.saturating_sub(2)..next + 2 {
                    prop_assert_eq!(w.get(key), model.get(&key));
                }
                let span = match (model.keys().next(), newest) {
                    (Some(&oldest), Some(newest)) => (newest - oldest + 1) as usize,
                    _ => 0,
                };
                prop_assert!(w.slots.len() <= span, "{} slots for span {span}", w.slots.len());
            }
        }
    }
}
