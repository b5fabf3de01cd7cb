//! Finite command queues: the backpressure every memory back end shares.
//!
//! An HMC vault, an HBM channel and a DDR controller all hold a bounded
//! number of accesses in flight. Each admitted access occupies one slot
//! until its release cycle; a new access is admitted only while fewer
//! than `depth` slots are held. Slots are retired front-first, in
//! admission order, so an access that releases early still holds its
//! slot until every older one has released.
//!
//! [`AdmissionQueue::next_admit`] answers, without mutating, when the
//! queue will next admit; the run loops skip to that cycle instead of
//! probing a blocked queue every cycle (DESIGN.md §14).

use mac_types::Cycle;
use std::collections::VecDeque;

/// A bounded FIFO of in-flight accesses, each held until its release
/// cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionQueue {
    /// Release cycles in admission order, including entries that have
    /// released but not yet been retired by [`AdmissionQueue::admits`].
    releases: VecDeque<Cycle>,
    depth: usize,
}

impl AdmissionQueue {
    /// An empty queue with `depth` slots.
    pub fn new(depth: usize) -> Self {
        AdmissionQueue {
            releases: VecDeque::new(),
            depth,
        }
    }

    /// Whether an access can enter at `now`. Retires entries from the
    /// front while their release cycle is `<= now` first; retiring is
    /// idempotent and monotone in `now`, so probing at every cycle up to
    /// `t` leaves the same queue as probing once at `t`.
    pub fn admits(&mut self, now: Cycle) -> bool {
        while self.releases.front().is_some_and(|&t| t <= now) {
            self.releases.pop_front();
        }
        self.releases.len() < self.depth
    }

    /// Hold one slot until `release`. Returns the number of entries held
    /// afterwards (released-but-unretired ones included).
    pub fn push(&mut self, release: Cycle) -> usize {
        self.releases.push_back(release);
        self.releases.len()
    }

    /// Accesses still in service at `now` (release cycle `> now`).
    /// Non-mutating, so sampling never retires entries.
    pub fn depth_at(&self, now: Cycle) -> usize {
        self.releases.iter().filter(|&&t| t > now).count()
    }

    /// The earliest cycle `>= now` at which [`AdmissionQueue::admits`]
    /// returns true, or `Cycle::MAX` for a zero-depth queue, which never
    /// admits. Non-mutating.
    ///
    /// Room opens once the front `held - depth + 1` entries have all
    /// released. Callers that push only after `admits` keep
    /// `held <= depth`, so that is just the front entry: O(1).
    pub fn next_admit(&self, now: Cycle) -> Cycle {
        let held = self.releases.len();
        if held < self.depth {
            return now;
        }
        if self.depth == 0 {
            return Cycle::MAX;
        }
        let blocking = held + 1 - self.depth;
        self.releases
            .iter()
            .take(blocking)
            .fold(now, |at, &t| at.max(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_opens_when_its_front_releases() {
        let mut q = AdmissionQueue::new(2);
        assert_eq!(q.next_admit(0), 0);
        q.push(50);
        q.push(20);
        assert!(!q.admits(0));
        // The front holds until 50 even though the second released at 20.
        assert_eq!(q.next_admit(0), 50);
        assert!(!q.admits(49));
        assert!(q.admits(50));
        assert_eq!(q.depth_at(50), 0);
    }

    #[test]
    fn overfilled_queue_waits_for_enough_releases() {
        let mut q = AdmissionQueue::new(2);
        q.push(30);
        q.push(10);
        q.push(40);
        // Two of three must retire, front-first: 30, then 10.
        assert_eq!(q.next_admit(5), 30);
        assert!(!q.admits(29));
        assert!(q.admits(30));
    }

    #[test]
    fn depth_counts_only_unreleased_entries() {
        let mut q = AdmissionQueue::new(4);
        for t in [10, 5, 20] {
            q.push(t);
        }
        assert_eq!(q.depth_at(0), 3);
        assert_eq!(q.depth_at(10), 1);
        assert_eq!(q.push(7), 4);
    }

    #[test]
    fn zero_depth_never_admits() {
        let mut q = AdmissionQueue::new(0);
        assert_eq!(q.next_admit(3), Cycle::MAX);
        assert!(!q.admits(u64::MAX - 1));
    }

    #[test]
    fn next_admit_never_precedes_now() {
        let mut q = AdmissionQueue::new(1);
        q.push(10);
        assert_eq!(q.next_admit(25), 25);
    }
}
