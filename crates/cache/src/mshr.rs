//! Miss Status Holding Register file — the conventional coalescing
//! baseline of §2.3.
//!
//! On a miss the miss-handling architecture allocates an MSHR entry for
//! the line and dispatches one fixed-size (cache-line, 64 B) transaction
//! to memory. Requests to the same line arriving *while the miss is
//! outstanding* merge into the entry instead of generating new
//! transactions; when the fill returns, the entry frees. Coalescing is
//! therefore (a) fixed at line granularity and (b) limited to the miss
//! latency window — the two limitations §2.3.2 contrasts with MAC.

use mac_types::{Cycle, PhysAddr};

/// What happened to one request offered to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// Line miss with a free MSHR: one line-sized memory transaction was
    /// dispatched.
    Dispatched,
    /// A miss to this line is already outstanding: merged, no transaction.
    Merged,
    /// All MSHRs busy: the pipeline must stall and retry.
    Stalled,
}

/// MSHR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Requests offered.
    pub requests: u64,
    /// Memory transactions dispatched (one line each).
    pub transactions: u64,
    /// Requests merged into outstanding entries.
    pub merged: u64,
    /// Stall events (structural hazard on the MSHR file).
    pub stalls: u64,
}

impl MshrStats {
    /// Fraction of requests eliminated by MSHR merging (comparable to the
    /// MAC's coalescing efficiency).
    pub fn merge_efficiency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.merged as f64 / self.requests as f64
        }
    }
}

/// One outstanding miss.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    fill_at: Cycle,
    merged: u32,
}

/// The MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    line_shift: u32,
    line_bytes: u64,
    miss_latency: u64,
    stats: MshrStats,
}

impl MshrFile {
    /// Build an MSHR file of `capacity` entries for `line_bytes` lines
    /// with a fixed `miss_latency` (cycles until the fill returns).
    pub fn new(capacity: usize, line_bytes: u64, miss_latency: u64) -> Self {
        assert!(line_bytes.is_power_of_two());
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            line_shift: line_bytes.trailing_zeros(),
            line_bytes,
            miss_latency,
            stats: MshrStats::default(),
        }
    }

    /// Offer one missing request at cycle `now`.
    pub fn offer(&mut self, addr: PhysAddr, now: Cycle) -> MshrOutcome {
        self.stats.requests += 1;
        // Retire filled entries first.
        self.entries.retain(|e| e.fill_at > now);

        let line = addr.raw() >> self.line_shift;
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.merged += 1;
            self.stats.merged += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() == self.capacity {
            self.stats.requests -= 1; // stalled requests retry; don't double count
            self.stats.stalls += 1;
            return MshrOutcome::Stalled;
        }
        self.entries.push(Entry {
            line,
            fill_at: now + self.miss_latency,
            merged: 0,
        });
        self.stats.transactions += 1;
        MshrOutcome::Dispatched
    }

    /// Memory bytes moved per dispatched transaction (always one line).
    pub fn bytes_per_transaction(&self) -> u64 {
        self.line_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MshrStats {
        &self.stats
    }

    /// Outstanding misses at cycle `now`.
    pub fn outstanding(&mut self, now: Cycle) -> usize {
        self.entries.retain(|e| e.fill_at > now);
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> MshrFile {
        MshrFile::new(8, 64, 100)
    }

    #[test]
    fn miss_dispatches_line_transaction() {
        let mut m = file();
        assert_eq!(m.offer(PhysAddr::new(0x40), 0), MshrOutcome::Dispatched);
        assert_eq!(m.stats().transactions, 1);
        assert_eq!(m.bytes_per_transaction(), 64);
    }

    #[test]
    fn same_line_merges_within_latency_window() {
        let mut m = file();
        m.offer(PhysAddr::new(0x40), 0);
        assert_eq!(m.offer(PhysAddr::new(0x48), 10), MshrOutcome::Merged);
        assert_eq!(m.offer(PhysAddr::new(0x78), 99), MshrOutcome::Merged);
        assert_eq!(m.stats().transactions, 1);
        assert_eq!(m.stats().merged, 2);
    }

    #[test]
    fn window_closes_when_fill_returns() {
        let mut m = file();
        m.offer(PhysAddr::new(0x40), 0);
        // At cycle 100 the fill has landed: a new access re-dispatches.
        assert_eq!(m.offer(PhysAddr::new(0x40), 100), MshrOutcome::Dispatched);
        assert_eq!(m.stats().transactions, 2);
    }

    #[test]
    fn adjacent_lines_do_not_merge() {
        // The fixed 64 B granularity: FLITs 0..4 and 4..8 of one HMC row
        // are different cache lines, so the MSHR cannot aggregate them —
        // exactly the §2.3.2 limitation.
        let mut m = file();
        assert_eq!(m.offer(PhysAddr::new(0x000), 0), MshrOutcome::Dispatched);
        assert_eq!(m.offer(PhysAddr::new(0x040), 0), MshrOutcome::Dispatched);
        assert_eq!(m.offer(PhysAddr::new(0x080), 0), MshrOutcome::Dispatched);
        assert_eq!(m.offer(PhysAddr::new(0x0C0), 0), MshrOutcome::Dispatched);
        assert_eq!(
            m.stats().transactions,
            4,
            "one 256 B row costs 4 line fills"
        );
    }

    #[test]
    fn structural_stall_when_full() {
        let mut m = MshrFile::new(2, 64, 100);
        m.offer(PhysAddr::new(0x000), 0);
        m.offer(PhysAddr::new(0x040), 0);
        assert_eq!(m.offer(PhysAddr::new(0x080), 1), MshrOutcome::Stalled);
        assert_eq!(m.stats().stalls, 1);
        // After fills return, capacity frees.
        assert_eq!(m.offer(PhysAddr::new(0x080), 101), MshrOutcome::Dispatched);
        assert_eq!(m.outstanding(101), 1);
    }

    #[test]
    fn merge_efficiency_matches_counts() {
        let mut m = file();
        m.offer(PhysAddr::new(0x40), 0);
        m.offer(PhysAddr::new(0x50), 0);
        m.offer(PhysAddr::new(0x60), 0);
        m.offer(PhysAddr::new(0x70), 0);
        assert!((m.stats().merge_efficiency() - 0.75).abs() < 1e-9);
    }
}
