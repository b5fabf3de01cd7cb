//! MAC-side statistics: Eq. 3's coalescing efficiency, the Figure 15
//! targets-per-entry distribution, and the dispatch mix.

use mac_types::{Counter, ReqSize};

/// Statistics accumulated by one MAC unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MacStats {
    /// Raw load requests accepted.
    pub raw_loads: u64,
    /// Raw store requests accepted.
    pub raw_stores: u64,
    /// Raw atomic requests accepted.
    pub raw_atomics: u64,
    /// Raw fence markers accepted.
    pub raw_fences: u64,
    /// Transactions dispatched to the device, by payload size
    /// [16, 32, 64, 128, 256] B.
    pub emitted_by_size: [u64; 5],
    /// Dispatches that took the `B`-bit bypass path (single-request rows).
    pub emitted_bypass: u64,
    /// Dispatches assembled by the request builder.
    pub emitted_built: u64,
    /// Atomic dispatches (direct path).
    pub emitted_atomic: u64,
    /// Merged raw requests per *popped group entry* — Figure 15's
    /// "targets per ARQ entry".
    pub targets_per_entry: Counter,
    /// Latency-hiding fill bursts triggered (§4.1).
    pub fill_bursts: u64,
    /// Fences retired.
    pub fences_retired: u64,
}

impl MacStats {
    /// Raw memory requests that reach the device path (loads + stores +
    /// atomics; fences never become transactions).
    pub fn raw_memory_requests(&self) -> u64 {
        self.raw_loads + self.raw_stores + self.raw_atomics
    }

    /// Transactions dispatched to the device.
    pub fn emitted_total(&self) -> u64 {
        self.emitted_by_size.iter().sum()
    }

    /// Eq. 3 as literally written: `requests_with_MAC / requests_without`.
    pub fn request_ratio(&self) -> f64 {
        let raw = self.raw_memory_requests();
        if raw == 0 {
            0.0
        } else {
            self.emitted_total() as f64 / raw as f64
        }
    }

    /// Eq. 3 as the paper *uses* it (higher is better; "MAC coalesces over
    /// half of the raw requests"): the fraction of raw requests eliminated
    /// by coalescing, `1 − emitted/raw`.
    pub fn coalescing_efficiency(&self) -> f64 {
        let raw = self.raw_memory_requests();
        if raw == 0 {
            0.0
        } else {
            1.0 - self.emitted_total() as f64 / raw as f64
        }
    }

    /// Record one dispatch of the given size and provenance.
    pub fn record_dispatch(&mut self, size: ReqSize, provenance: Provenance) {
        let idx = match size {
            ReqSize::B16 => 0,
            ReqSize::B32 => 1,
            ReqSize::B64 => 2,
            ReqSize::B128 => 3,
            ReqSize::B256 => 4,
        };
        self.emitted_by_size[idx] += 1;
        match provenance {
            Provenance::Bypass => self.emitted_bypass += 1,
            Provenance::Built => self.emitted_built += 1,
            Provenance::Atomic => self.emitted_atomic += 1,
        }
    }

    /// Self-check the counters against each other, returning a
    /// description of the first inconsistency. Only identities valid at
    /// *any* instant of a run are checked (in-flight requests make
    /// stronger equalities transiently false); the conformance checker
    /// asserts the end-of-run identities separately.
    pub fn consistency_error(&self) -> Option<String> {
        let split = self.emitted_bypass + self.emitted_built + self.emitted_atomic;
        if self.emitted_total() != split {
            return Some(format!(
                "MacStats: size histogram total {} != provenance split {}",
                self.emitted_total(),
                split
            ));
        }
        if self.emitted_atomic > self.raw_atomics {
            return Some(format!(
                "MacStats: {} atomic dispatches from {} raw atomics",
                self.emitted_atomic, self.raw_atomics
            ));
        }
        if self.fences_retired > self.raw_fences {
            return Some(format!(
                "MacStats: {} fences retired but only {} accepted",
                self.fences_retired, self.raw_fences
            ));
        }
        let coalescable = u128::from(self.raw_loads + self.raw_stores);
        if self.targets_per_entry.sum > coalescable {
            return Some(format!(
                "MacStats: targets-per-entry sum {} exceeds raw loads+stores {}",
                self.targets_per_entry.sum, coalescable
            ));
        }
        None
    }

    /// Merge another MAC's stats (multi-node systems / parallel sweeps).
    pub fn merge(&mut self, other: &MacStats) {
        self.raw_loads += other.raw_loads;
        self.raw_stores += other.raw_stores;
        self.raw_atomics += other.raw_atomics;
        self.raw_fences += other.raw_fences;
        for i in 0..5 {
            self.emitted_by_size[i] += other.emitted_by_size[i];
        }
        self.emitted_bypass += other.emitted_bypass;
        self.emitted_built += other.emitted_built;
        self.emitted_atomic += other.emitted_atomic;
        self.targets_per_entry.merge(&other.targets_per_entry);
        self.fill_bursts += other.fill_bursts;
        self.fences_retired += other.fences_retired;
    }
}

/// Where a dispatched transaction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// `B`-bit bypass (16 B single-FLIT).
    Bypass,
    /// Request builder output (64–256 B).
    Built,
    /// Atomic direct path.
    Atomic,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_definitions_are_complementary() {
        let mut s = MacStats {
            raw_loads: 100,
            ..MacStats::default()
        };
        for _ in 0..40 {
            s.record_dispatch(ReqSize::B128, Provenance::Built);
        }
        assert!((s.request_ratio() - 0.4).abs() < 1e-9);
        assert!((s.coalescing_efficiency() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = MacStats::default();
        assert_eq!(s.request_ratio(), 0.0);
        assert_eq!(s.coalescing_efficiency(), 0.0);
        assert_eq!(s.emitted_total(), 0);
    }

    #[test]
    fn dispatch_provenance_is_tracked() {
        let mut s = MacStats::default();
        s.record_dispatch(ReqSize::B16, Provenance::Bypass);
        s.record_dispatch(ReqSize::B16, Provenance::Atomic);
        s.record_dispatch(ReqSize::B256, Provenance::Built);
        assert_eq!(s.emitted_by_size, [2, 0, 0, 0, 1]);
        assert_eq!(s.emitted_bypass, 1);
        assert_eq!(s.emitted_atomic, 1);
        assert_eq!(s.emitted_built, 1);
    }

    #[test]
    fn consistency_catches_split_mismatch() {
        let mut s = MacStats::default();
        assert_eq!(s.consistency_error(), None);
        s.raw_loads = 4;
        s.record_dispatch(ReqSize::B64, Provenance::Built);
        s.targets_per_entry.record(4);
        assert_eq!(s.consistency_error(), None);
        s.emitted_bypass += 1; // split no longer matches the histogram
        assert!(s.consistency_error().unwrap().contains("provenance split"));
        s.emitted_by_size[0] += 1;
        assert_eq!(s.consistency_error(), None);
        s.fences_retired = 1; // retired a fence that was never accepted
        assert!(s.consistency_error().is_some());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = MacStats {
            raw_loads: 10,
            ..MacStats::default()
        };
        a.targets_per_entry.record(3);
        let mut b = MacStats {
            raw_stores: 5,
            ..MacStats::default()
        };
        b.targets_per_entry.record(1);
        a.merge(&b);
        assert_eq!(a.raw_memory_requests(), 15);
        assert_eq!(a.targets_per_entry.events, 2);
        assert_eq!(a.targets_per_entry.mean(), 2.0);
    }
}
