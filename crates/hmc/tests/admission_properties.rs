//! Property tests of the shared command-queue model: `next_admit` names
//! exactly the first cycle a stepped run's probes would see room, and
//! skipping the probes in between leaves the same queue.

use proptest::prelude::*;

use hmc_model::AdmissionQueue;

/// Fill a queue from `(hold, dt, gated)` steps: advance the clock by
/// `dt`, then hold a slot for `hold` cycles — only if `admits` agrees
/// when `gated`, unconditionally otherwise (overfilling the queue).
/// Returns the queue, the clock, and every release pushed.
fn fill(depth: usize, steps: &[(u64, u64, bool)]) -> (AdmissionQueue, u64, Vec<u64>) {
    let mut q = AdmissionQueue::new(depth);
    let mut now = 0;
    let mut pushed = Vec::new();
    for &(hold, dt, gated) in steps {
        now += dt;
        if gated && !q.admits(now) {
            continue;
        }
        q.push(now + hold);
        pushed.push(now + hold);
    }
    (q, now, pushed)
}

proptest! {
    /// Probing a clone at every cycle from `now` refuses until
    /// `next_admit(now)` and admits there; a clone probed only at that
    /// cycle ends in the same state, and `next_admit` mutates nothing.
    #[test]
    fn next_admit_is_the_first_admitting_probe(
        depth in 1usize..6,
        steps in prop::collection::vec((0u64..200, 0u64..20, any::<bool>()), 0..40),
        later in 0u64..60,
    ) {
        let (q, now, _) = fill(depth, &steps);
        let now = now + later;
        let before = q.clone();
        let at = q.next_admit(now);
        prop_assert_eq!(&q, &before);
        prop_assert!(at >= now);

        let mut stepped = q.clone();
        for t in now..at {
            prop_assert!(!stepped.admits(t), "admitted at {} before next_admit {}", t, at);
        }
        prop_assert!(stepped.admits(at));

        let mut skipped = q.clone();
        prop_assert!(skipped.admits(at));
        prop_assert_eq!(stepped, skipped);
    }

    /// `depth_at` is the count of pushed releases still in the future:
    /// the per-vault queue gauge `VaultSet::sample_metrics` has always
    /// reported.
    #[test]
    fn depth_at_counts_unreleased_entries(
        depth in 1usize..6,
        steps in prop::collection::vec((0u64..200, 0u64..20, any::<bool>()), 0..40),
        later in 0u64..250,
    ) {
        let (q, now, pushed) = fill(depth, &steps);
        let t = now + later;
        prop_assert_eq!(q.depth_at(t), pushed.iter().filter(|&&r| r > t).count());
    }
}
