//! The checker's lookup tables, indexed by the ids the simulator hands
//! out in sequence.
//!
//! `soc_sim::Node` numbers its raw requests from a per-node counter, and
//! only an accepted issue consumes a number, so node `n`'s ids are
//! `TransactionId::compose(n, 0)`, `compose(n, 1)`, … without gaps.
//! [`IssueTable`] therefore keeps one vector per node indexed by
//! `TransactionId::local_seq()`: recording an issue is a push, and every
//! later hook finds the record with two indexings, no hashing.
//! Hardware thread ids are small and dense too, so [`ThreadTable`] is a
//! vector per node indexed by tid.
//!
//! The ids come from the simulator under test, so a broken one can carry
//! any value. An id whose node is not below [`DENSE_NODES`], or whose
//! sequence lies more than [`MAX_GAP`] past its node's table, goes to an
//! ordered side map instead; so does a thread outside the dense bounds.
//! Such ids are recorded and checked like any other, no value panics,
//! and no single id grows a table by more than a constant.

use std::collections::BTreeMap;

use mac_types::{MemOpKind, PhysAddr, TransactionId};

/// Nodes whose ids and threads get dense tables (the simulator builds at
/// most 64).
pub(crate) const DENSE_NODES: usize = 64;

/// Thread ids per node that get dense per-thread slots.
pub(crate) const DENSE_TIDS: usize = 1024;

/// Most sequence numbers one id may skip past its node's table end and
/// still be stored densely (the skipped slots stay vacant).
pub(crate) const MAX_GAP: usize = 64;

const SEQ_MASK: u64 = (1 << TransactionId::SEQ_BITS) - 1;

/// No open dispatch group (the checker numbers its groups from 0, so
/// this value is never reached).
pub(crate) const NO_GROUP: u64 = u64::MAX;

/// Lifecycle record for one accepted raw request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issued {
    pub(crate) addr: PhysAddr,
    pub(crate) kind: MemOpKind,
    pub(crate) thread: (u16, u16),
    /// Fence id pending on this thread when the request was issued (must
    /// be retired before this request may dispatch — I5).
    pub(crate) after_fence: Option<u64>,
    pub(crate) dispatched: bool,
    pub(crate) completed: bool,
}

/// Everything the checker knows about one id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The issue record; `None` for an id never issued (a skipped
    /// sequence number, or an id that so far only appeared in a
    /// dispatch).
    pub(crate) rec: Option<Issued>,
    /// The open dispatch group carrying this id, or [`NO_GROUP`].
    pub(crate) group: u64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            rec: None,
            group: NO_GROUP,
        }
    }
}

/// Slots for every id the checker has seen; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct IssueTable {
    /// `dense[node][seq]` for nodes below [`DENSE_NODES`].
    dense: Vec<Vec<Slot>>,
    /// Ids outside the dense tables, by full id. No key lies inside a
    /// dense table: growing a table over a key moves it there.
    sparse: BTreeMap<u64, Slot>,
}

/// Split an id into its dense-table coordinates. A sequence number that
/// does not fit a `usize` becomes `usize::MAX`, which no table reaches.
fn split(id: u64) -> (usize, usize) {
    let node = usize::from((id >> TransactionId::SEQ_BITS) as u16);
    let seq = usize::try_from(id & SEQ_MASK).unwrap_or(usize::MAX);
    (node, seq)
}

impl IssueTable {
    /// The slot of `id`, if it has one.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&Slot> {
        let (node, seq) = split(id);
        match self.dense.get(node).and_then(|t| t.get(seq)) {
            Some(slot) => Some(slot),
            None if self.sparse.is_empty() => None,
            None => self.sparse.get(&id),
        }
    }

    /// The slot of `id`, if it has one.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Slot> {
        let (node, seq) = split(id);
        match self.dense.get_mut(node).and_then(|t| t.get_mut(seq)) {
            Some(slot) => Some(slot),
            None if self.sparse.is_empty() => None,
            None => self.sparse.get_mut(&id),
        }
    }

    /// The slot of `id`, created vacant if it has none.
    #[inline]
    pub(crate) fn entry(&mut self, id: u64) -> &mut Slot {
        let (node, seq) = split(id);
        if node < DENSE_NODES {
            if self.dense.len() <= node {
                self.dense.resize_with(node + 1, Vec::new);
            }
            let table = &mut self.dense[node];
            if seq.saturating_sub(table.len()) <= MAX_GAP {
                while table.len() <= seq {
                    let key = ((node as u64) << TransactionId::SEQ_BITS) | table.len() as u64;
                    let moved = match self.sparse.is_empty() {
                        true => None,
                        false => self.sparse.remove(&key),
                    };
                    table.push(moved.unwrap_or_default());
                }
                return &mut table[seq];
            }
        }
        self.sparse.entry(id).or_default()
    }

    /// Every issued id with its record, in no particular order.
    pub(crate) fn issued(&self) -> impl Iterator<Item = (u64, &Issued)> {
        let dense = self.dense.iter().enumerate().flat_map(|(node, table)| {
            table.iter().enumerate().map(move |(seq, slot)| {
                let id = ((node as u64) << TransactionId::SEQ_BITS) | seq as u64;
                (id, slot)
            })
        });
        let sparse = self.sparse.iter().map(|(&id, slot)| (id, slot));
        dense
            .chain(sparse)
            .filter_map(|(id, slot)| Some((id, slot.rec.as_ref()?)))
    }
}

/// Program-order `(address, kind)` of the requests one thread issued.
pub(crate) type IssueLog = Vec<(u64, MemOpKind)>;

/// Per-thread checker state.
#[derive(Debug, Default)]
pub(crate) struct ThreadState {
    /// Id of the thread's unretired fence.
    pub(crate) fence: Option<u64>,
    /// Program-order `(address, kind)` of every request the thread
    /// issued, for the oracle diff.
    pub(crate) log: IssueLog,
}

/// [`ThreadState`] per `(node, tid)`; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct ThreadTable {
    /// `dense[node][tid]` for nodes below [`DENSE_NODES`] and tids below
    /// [`DENSE_TIDS`].
    dense: Vec<Vec<ThreadState>>,
    /// Every other thread.
    sparse: BTreeMap<(u16, u16), ThreadState>,
}

impl ThreadTable {
    fn is_dense((node, tid): (u16, u16)) -> bool {
        usize::from(node) < DENSE_NODES && usize::from(tid) < DENSE_TIDS
    }

    /// The state of `thread`, if it has any.
    #[inline]
    pub(crate) fn get(&self, thread: (u16, u16)) -> Option<&ThreadState> {
        if Self::is_dense(thread) {
            let (node, tid) = (usize::from(thread.0), usize::from(thread.1));
            self.dense.get(node).and_then(|t| t.get(tid))
        } else {
            self.sparse.get(&thread)
        }
    }

    /// The state of `thread`, if it has any.
    #[inline]
    pub(crate) fn get_mut(&mut self, thread: (u16, u16)) -> Option<&mut ThreadState> {
        if Self::is_dense(thread) {
            let (node, tid) = (usize::from(thread.0), usize::from(thread.1));
            self.dense.get_mut(node).and_then(|t| t.get_mut(tid))
        } else {
            self.sparse.get_mut(&thread)
        }
    }

    /// The state of `thread`, created empty if it has none.
    #[inline]
    pub(crate) fn entry(&mut self, thread: (u16, u16)) -> &mut ThreadState {
        if !Self::is_dense(thread) {
            return self.sparse.entry(thread).or_default();
        }
        let (node, tid) = (usize::from(thread.0), usize::from(thread.1));
        if self.dense.len() <= node {
            self.dense.resize_with(node + 1, Vec::new);
        }
        let threads = &mut self.dense[node];
        if threads.len() <= tid {
            threads.resize_with(tid + 1, ThreadState::default);
        }
        &mut threads[tid]
    }

    /// Threads with an unretired fence.
    pub(crate) fn pending_fences(&self) -> usize {
        let dense = self.dense.iter().flatten();
        dense
            .chain(self.sparse.values())
            .filter(|t| t.fence.is_some())
            .count()
    }

    /// Every thread's state, ordered by `(node, tid)`.
    pub(crate) fn sorted(&self) -> Vec<((u16, u16), &ThreadState)> {
        let mut all: Vec<_> = self
            .dense
            .iter()
            .enumerate()
            .flat_map(|(node, threads)| {
                threads
                    .iter()
                    .enumerate()
                    .map(move |(tid, state)| ((node as u16, tid as u16), state))
            })
            .chain(self.sparse.iter().map(|(&thread, state)| (thread, state)))
            .collect();
        all.sort_unstable_by_key(|&(thread, _)| thread);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(node: u16, seq: u64) -> u64 {
        TransactionId::compose(node, seq).0
    }

    #[test]
    fn consecutive_ids_stay_dense() {
        let mut t = IssueTable::default();
        for seq in 0..100 {
            t.entry(id(2, seq)).group = seq;
        }
        assert!(t.sparse.is_empty());
        assert_eq!(t.dense[2].len(), 100);
        assert_eq!(t.get(id(2, 42)).map(|s| s.group), Some(42));
        assert!(t.get(id(2, 100)).is_none());
        assert!(t.get(id(1, 0)).is_none());
    }

    #[test]
    fn far_and_foreign_ids_go_sparse_without_growing_tables() {
        let mut t = IssueTable::default();
        let far = id(0, 1 << 40);
        let foreign = id(0xFFFF, 3);
        t.entry(far).group = 1;
        t.entry(foreign).group = 2;
        t.entry(u64::MAX).group = 3;
        assert_eq!(t.sparse.len(), 3);
        assert!(t.dense.iter().map(Vec::len).sum::<usize>() <= 1);
        assert_eq!(t.get_mut(far).map(|s| s.group), Some(1));
        assert_eq!(t.get(foreign).map(|s| s.group), Some(2));
        assert_eq!(t.get(u64::MAX).map(|s| s.group), Some(3));
    }

    #[test]
    fn growing_over_a_sparse_id_moves_it() {
        let mut t = IssueTable::default();
        let ahead = id(1, MAX_GAP as u64 + 5);
        t.entry(ahead).group = 7;
        assert_eq!(t.sparse.len(), 1);
        for seq in 0..MAX_GAP as u64 + 10 {
            t.entry(id(1, seq));
        }
        assert!(t.sparse.is_empty());
        assert_eq!(t.get(ahead).map(|s| s.group), Some(7));
    }

    #[test]
    fn a_small_gap_leaves_vacant_slots() {
        let mut t = IssueTable::default();
        t.entry(id(0, 3)).rec = None;
        assert_eq!(t.dense[0].len(), 4);
        assert!(t.sparse.is_empty());
        assert_eq!(t.issued().count(), 0);
    }

    #[test]
    fn threads_sort_across_dense_and_sparse() {
        let mut t = ThreadTable::default();
        for thread in [(1, 0), (0, 5000), (0, 2), (0xFFFF, 0)] {
            t.entry(thread).fence = Some(u64::from(thread.1));
        }
        let keys: Vec<_> = t
            .sorted()
            .into_iter()
            .filter(|(_, s)| s.fence.is_some())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![(0, 2), (0, 5000), (1, 0), (0xFFFF, 0)]);
        assert!(t.get((0, 5000)).is_some());
        assert!(t.get_mut((3, 3)).is_none());
    }
}
