//! Network-level statistics: local/remote split, hop counts, transit
//! traffic.
//!
//! These are the observables the chain-sweep and placement experiments
//! report: how much traffic left the host-attached cube, how many hops
//! it paid, and what that did to its round-trip latency.

use mac_types::{Counter, Histogram};

/// Aggregate statistics for one cube network.
///
/// # Histogram bucket boundaries
///
/// The hop and latency distributions use [`mac_types::Histogram`]'s
/// log-scaled buckets: bucket `i` holds values in `[2^i, 2^(i+1))` —
/// the **upper edge is exclusive** — except bucket 0, which holds both
/// 0 and 1. So a 2-hop access lands in bucket 1 (`[2, 4)`), not bucket
/// 0, and a latency of exactly 1024 lands in bucket 10 (`[1024, 2048)`),
/// not bucket 9. [`Histogram::quantile`] reports the *inclusive* upper
/// bound of the containing bucket (`2^(i+1) - 1`). The boundary tests
/// below pin this down value by value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Accesses served by the host-attached cube (cube 0).
    pub local_accesses: u64,
    /// Accesses served by any other cube (crossed the fabric).
    pub remote_accesses: u64,
    /// Hops (inter-cube edges) traversed per access, one way.
    pub hops: Counter,
    /// Hop-count distribution (log-scaled buckets; see the struct docs
    /// for boundary semantics).
    pub hop_hist: Histogram,
    /// Host round-trip latency of cube-0 accesses, in cycles.
    pub local_latency: Counter,
    /// Host round-trip latency of remote-cube accesses, in cycles.
    pub remote_latency: Counter,
    /// Round-trip latency distribution over *all* accesses (local and
    /// remote), for p50/p99 reporting.
    pub latency_hist: Histogram,
    /// FLITs serialized onto inter-cube edges (both directions).
    pub transit_flits: u128,
    /// Busy time accumulated on inter-cube edges, in 1/16-cycle fixed
    /// point (lossless for the integer cache format).
    pub transit_busy_x16: u128,
    /// Accesses per cube (index = cube id).
    pub per_cube_accesses: Vec<u64>,
    /// Bank conflicts per cube (index = cube id).
    pub per_cube_conflicts: Vec<u64>,
}

impl NetStats {
    /// Empty stats sized for `cubes` cubes.
    pub fn new(cubes: usize) -> Self {
        NetStats {
            per_cube_accesses: vec![0; cubes],
            per_cube_conflicts: vec![0; cubes],
            ..NetStats::default()
        }
    }

    /// Record one completed access.
    pub fn record_access(&mut self, cube: u16, hops: usize, conflict: bool, latency: u64) {
        self.hops.record(hops as u64);
        self.hop_hist.record(hops as u64);
        self.latency_hist.record(latency);
        if cube == 0 {
            self.local_accesses += 1;
            self.local_latency.record(latency);
        } else {
            self.remote_accesses += 1;
            self.remote_latency.record(latency);
        }
        if let Some(a) = self.per_cube_accesses.get_mut(cube as usize) {
            *a += 1;
        }
        if conflict {
            if let Some(c) = self.per_cube_conflicts.get_mut(cube as usize) {
                *c += 1;
            }
        }
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.local_accesses + self.remote_accesses
    }

    /// Fraction of accesses that crossed the fabric (0.0 when idle).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.remote_accesses as f64 / total as f64
        }
    }

    /// Self-check the counters against each other, returning a
    /// description of the first inconsistency. [`NetStats::record_access`]
    /// updates every derived counter at once, so these identities hold at
    /// any instant of a run.
    pub fn consistency_error(&self) -> Option<String> {
        let total = self.accesses();
        if self.hops.events != total {
            return Some(format!(
                "NetStats: {} hop samples != {} accesses",
                self.hops.events, total
            ));
        }
        if self.local_latency.events != self.local_accesses
            || self.remote_latency.events != self.remote_accesses
        {
            return Some(format!(
                "NetStats: latency samples {}/{} != accesses {}/{} (local/remote)",
                self.local_latency.events,
                self.remote_latency.events,
                self.local_accesses,
                self.remote_accesses
            ));
        }
        if self.hop_hist.count() != total || self.latency_hist.count() != total {
            return Some(format!(
                "NetStats: histogram counts {}/{} != {} accesses",
                self.hop_hist.count(),
                self.latency_hist.count(),
                total
            ));
        }
        let per_cube: u64 = self.per_cube_accesses.iter().sum();
        if per_cube != total {
            return Some(format!(
                "NetStats: per-cube accesses sum {per_cube} != {total} total"
            ));
        }
        let conflicts: u64 = self.per_cube_conflicts.iter().sum();
        if conflicts > total {
            return Some(format!(
                "NetStats: {conflicts} conflicts from {total} accesses"
            ));
        }
        None
    }

    /// Merge another network's stats into this one (multi-node runs).
    pub fn merge(&mut self, other: &NetStats) {
        self.local_accesses += other.local_accesses;
        self.remote_accesses += other.remote_accesses;
        self.hops.merge(&other.hops);
        self.hop_hist.merge(&other.hop_hist);
        self.local_latency.merge(&other.local_latency);
        self.remote_latency.merge(&other.remote_latency);
        self.latency_hist.merge(&other.latency_hist);
        self.transit_flits += other.transit_flits;
        self.transit_busy_x16 += other.transit_busy_x16;
        if self.per_cube_accesses.len() < other.per_cube_accesses.len() {
            self.per_cube_accesses
                .resize(other.per_cube_accesses.len(), 0);
        }
        for (i, v) in other.per_cube_accesses.iter().enumerate() {
            self.per_cube_accesses[i] += v;
        }
        if self.per_cube_conflicts.len() < other.per_cube_conflicts.len() {
            self.per_cube_conflicts
                .resize(other.per_cube_conflicts.len(), 0);
        }
        for (i, v) in other.per_cube_conflicts.iter().enumerate() {
            self.per_cube_conflicts[i] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_local_remote() {
        let mut s = NetStats::new(4);
        s.record_access(0, 0, false, 300);
        s.record_access(2, 2, true, 500);
        s.record_access(3, 2, false, 520);
        assert_eq!(s.local_accesses, 1);
        assert_eq!(s.remote_accesses, 2);
        assert_eq!(s.accesses(), 3);
        assert!((s.remote_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.per_cube_accesses, vec![1, 0, 1, 1]);
        assert_eq!(s.per_cube_conflicts, vec![0, 0, 1, 0]);
        assert_eq!(s.remote_latency.mean(), 510.0);
        assert_eq!(s.hops.max, 2);
    }

    #[test]
    fn consistency_catches_lost_samples() {
        let mut s = NetStats::new(4);
        assert_eq!(s.consistency_error(), None);
        s.record_access(0, 0, false, 100);
        s.record_access(2, 2, true, 500);
        assert_eq!(s.consistency_error(), None);
        s.remote_accesses += 1; // an access that left no latency sample
        assert!(s.consistency_error().is_some());
        s.remote_accesses -= 1;
        s.per_cube_accesses[3] += 1;
        assert!(s.consistency_error().unwrap().contains("per-cube"));
    }

    #[test]
    fn merge_accumulates_and_resizes() {
        let mut a = NetStats::new(1);
        a.record_access(0, 0, false, 100);
        let mut b = NetStats::new(4);
        b.record_access(3, 3, true, 900);
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
        assert_eq!(a.per_cube_accesses, vec![1, 0, 0, 1]);
        assert_eq!(a.per_cube_conflicts, vec![0, 0, 0, 1]);
        assert_eq!(a.hop_hist.count(), 2);
        assert_eq!(a.latency_hist.count(), 2);
    }

    #[test]
    fn hop_hist_bucket_upper_edges_are_exclusive() {
        // Bucket i spans [2^i, 2^(i+1)); a value equal to a power of two
        // belongs to the bucket it *opens*, not the one below it.
        for (hops, bucket) in [
            (0usize, 0usize),
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 2),
            (7, 2),
            (8, 3),
        ] {
            let mut s = NetStats::new(16);
            s.record_access(1, hops, false, 0);
            let got = s.hop_hist.buckets().iter().position(|&n| n > 0).unwrap();
            assert_eq!(got, bucket, "hops={hops} must land in bucket {bucket}");
        }
    }

    #[test]
    fn latency_hist_bucket_upper_edges_are_exclusive() {
        for (latency, bucket) in [
            (1u64, 0usize),
            (2, 1),
            (1023, 9),  // 2^10 - 1: last value of [512, 1024)
            (1024, 10), // exactly 2^10 opens [1024, 2048)
            (1025, 10),
            (2047, 10),
            (2048, 11),
        ] {
            let mut s = NetStats::new(1);
            s.record_access(0, 0, false, latency);
            let got = s
                .latency_hist
                .buckets()
                .iter()
                .position(|&n| n > 0)
                .unwrap();
            assert_eq!(
                got, bucket,
                "latency={latency} must land in bucket {bucket}"
            );
        }
    }

    #[test]
    fn quantile_reports_inclusive_bucket_upper_bound() {
        let mut s = NetStats::new(4);
        // Three accesses at exactly 3 hops: bucket 1 = [2, 4), whose
        // reported quantile is the inclusive upper bound 3 — not 4.
        for _ in 0..3 {
            s.record_access(2, 3, false, 1024);
        }
        assert_eq!(s.hop_hist.quantile(0.5), 3);
        assert_eq!(s.hop_hist.quantile(1.0), 3);
        // Latency 1024 sits at the *bottom* of [1024, 2048): the
        // quantile is that bucket's inclusive upper bound, 2047.
        assert_eq!(s.latency_hist.quantile(0.5), 2047);
    }

    #[test]
    fn zero_and_one_hop_share_bucket_zero() {
        let mut s = NetStats::new(2);
        s.record_access(0, 0, false, 10); // local: 0 hops
        s.record_access(1, 1, false, 20); // neighbor: 1 hop
        assert_eq!(s.hop_hist.buckets()[0], 2);
        assert_eq!(s.hop_hist.quantile(1.0), 1, "bucket 0's upper bound is 1");
    }
}
