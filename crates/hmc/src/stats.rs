//! Device-level statistics: request mix, bank conflicts, link traffic.
//!
//! These are the raw observables behind Figures 12 (bank-conflict
//! reductions), 13 (measured bandwidth efficiency) and 14 (control
//! bandwidth saved).

use mac_types::{Counter, Histogram, ReqSize, CONTROL_BYTES_PER_ACCESS};

/// Aggregate statistics for one simulated device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HmcStats {
    /// Accesses by payload size: [16, 32, 64, 128, 256] B.
    pub by_size: [u64; 5],
    /// Bank conflicts observed (requests that found their bank busy).
    pub bank_conflicts: u64,
    /// Payload bytes moved (request data for writes + response data for
    /// reads).
    pub data_bytes: u128,
    /// Payload bytes actually requested by raw requests (useful subset of
    /// `data_bytes`; the rest is over-fetch inside coalesced packets).
    pub useful_bytes: u128,
    /// Control bytes moved (32 B per access).
    pub control_bytes: u128,
    /// End-to-end latency per access, in cycles (dispatch -> response
    /// fully received).
    pub latency: Counter,
    /// Latency distribution (log-scaled buckets; p50/p95/p99 reporting).
    pub latency_hist: Histogram,
    /// Raw requests satisfied (sum of merged counts).
    pub raw_satisfied: u64,
    /// Row-buffer hits (open-page back ends only; always 0 for the
    /// closed-page HMC, §2.2.1).
    pub row_hits: u64,
}

impl HmcStats {
    /// Record one completed access.
    pub fn record_access(
        &mut self,
        size: ReqSize,
        useful_bytes: u64,
        merged: usize,
        conflict: bool,
        latency: u64,
    ) {
        let idx = match size {
            ReqSize::B16 => 0,
            ReqSize::B32 => 1,
            ReqSize::B64 => 2,
            ReqSize::B128 => 3,
            ReqSize::B256 => 4,
        };
        self.by_size[idx] += 1;
        self.bank_conflicts += conflict as u64;
        self.data_bytes += size.bytes() as u128;
        self.useful_bytes += useful_bytes as u128;
        self.control_bytes += CONTROL_BYTES_PER_ACCESS as u128;
        self.latency.record(latency);
        self.latency_hist.record(latency);
        self.raw_satisfied += merged as u64;
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.by_size.iter().sum()
    }

    /// Measured bandwidth efficiency (Figure 13): payload bytes over total
    /// link bytes.
    pub fn bandwidth_efficiency(&self) -> f64 {
        let total = self.data_bytes + self.control_bytes;
        if total == 0 {
            0.0
        } else {
            self.data_bytes as f64 / total as f64
        }
    }

    /// Fraction of payload bytes that raw requests actually asked for
    /// (data utilization inside coalesced packets).
    pub fn data_utilization(&self) -> f64 {
        if self.data_bytes == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / self.data_bytes as f64
        }
    }

    /// Total bytes moved on the links.
    pub fn link_bytes(&self) -> u128 {
        self.data_bytes + self.control_bytes
    }

    /// Self-check the counters against each other, returning a
    /// description of the first inconsistency. Every access updates all
    /// derived counters atomically in [`HmcStats::record_access`], so
    /// these identities hold at any instant of a run.
    pub fn consistency_error(&self) -> Option<String> {
        let sizes = [16u128, 32, 64, 128, 256];
        let expected_data: u128 = self
            .by_size
            .iter()
            .zip(sizes)
            .map(|(&n, b)| u128::from(n) * b)
            .sum();
        if self.data_bytes != expected_data {
            return Some(format!(
                "HmcStats: data_bytes {} != size-histogram weighted total {}",
                self.data_bytes, expected_data
            ));
        }
        let expected_control = u128::from(self.accesses()) * CONTROL_BYTES_PER_ACCESS as u128;
        if self.control_bytes != expected_control {
            return Some(format!(
                "HmcStats: control_bytes {} != 32 B x {} accesses",
                self.control_bytes,
                self.accesses()
            ));
        }
        if self.useful_bytes > self.data_bytes {
            return Some(format!(
                "HmcStats: useful_bytes {} > data_bytes {}",
                self.useful_bytes, self.data_bytes
            ));
        }
        if self.latency.events != self.accesses() || self.latency_hist.count() != self.accesses() {
            return Some(format!(
                "HmcStats: latency samples {}/{} != {} accesses",
                self.latency.events,
                self.latency_hist.count(),
                self.accesses()
            ));
        }
        if self.raw_satisfied < self.accesses() {
            return Some(format!(
                "HmcStats: {} raw satisfied by {} accesses (each serves >= 1)",
                self.raw_satisfied,
                self.accesses()
            ));
        }
        None
    }

    /// Merge another device's stats (used when sweeping in parallel).
    pub fn merge(&mut self, other: &HmcStats) {
        for i in 0..5 {
            self.by_size[i] += other.by_size[i];
        }
        self.bank_conflicts += other.bank_conflicts;
        self.data_bytes += other.data_bytes;
        self.useful_bytes += other.useful_bytes;
        self.control_bytes += other.control_bytes;
        self.latency.merge(&other.latency);
        self.latency_hist.merge(&other.latency_hist);
        self.raw_satisfied += other.raw_satisfied;
        self.row_hits += other.row_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_sizes() {
        let mut s = HmcStats::default();
        s.record_access(ReqSize::B16, 16, 1, false, 300);
        s.record_access(ReqSize::B256, 48, 3, true, 400);
        assert_eq!(s.by_size, [1, 0, 0, 0, 1]);
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.bank_conflicts, 1);
        assert_eq!(s.raw_satisfied, 4);
        assert_eq!(s.data_bytes, 16 + 256);
        assert_eq!(s.useful_bytes, 16 + 48);
        assert_eq!(s.control_bytes, 64);
    }

    #[test]
    fn efficiency_matches_analytic_for_uniform_mix() {
        let mut s = HmcStats::default();
        for _ in 0..10 {
            s.record_access(ReqSize::B16, 16, 1, false, 300);
        }
        assert!((s.bandwidth_efficiency() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.data_utilization(), 1.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = HmcStats::default();
        assert_eq!(s.bandwidth_efficiency(), 0.0);
        assert_eq!(s.data_utilization(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn consistency_catches_skewed_byte_totals() {
        let mut s = HmcStats::default();
        assert_eq!(s.consistency_error(), None);
        s.record_access(ReqSize::B64, 32, 2, false, 100);
        s.record_access(ReqSize::B16, 16, 1, true, 200);
        assert_eq!(s.consistency_error(), None);
        s.data_bytes += 1;
        assert!(s.consistency_error().unwrap().contains("data_bytes"));
        s.data_bytes -= 1;
        s.raw_satisfied = 1; // fewer raw served than accesses
        assert!(s.consistency_error().is_some());
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = HmcStats::default();
        a.record_access(ReqSize::B64, 64, 2, false, 100);
        let mut b = HmcStats::default();
        b.record_access(ReqSize::B64, 32, 1, true, 200);
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
        assert_eq!(a.bank_conflicts, 1);
        assert_eq!(a.latency.events, 2);
        assert_eq!(a.latency.mean(), 150.0);
        assert!((a.data_utilization() - 96.0 / 128.0).abs() < 1e-9);
    }
}
