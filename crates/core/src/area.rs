//! Space-overhead model (§5.3.3, Figure 16).
//!
//! The MAC's storage is the ARQ (entries x 64 B), one comparator per
//! entry, the 4 OR gates of builder stage 1, the 2 B FLIT-map latch, and
//! the 12 B FLIT table — 2062 B of memory, 32 comparators and 4 OR gates
//! for the default 32-entry configuration, "comparable to a fully
//! associative cache composed of 32 lines of 64 B".

use mac_types::MacConfig;

use crate::flit_table::FlitTable;

/// Area report for one MAC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaReport {
    /// ARQ storage in bytes (Figure 16's y-axis).
    pub arq_bytes: u64,
    /// Fixed request-builder storage: 2 B FLIT-map latch + 12 B table.
    pub builder_bytes: u64,
    /// Total memory bytes.
    pub total_bytes: u64,
    /// Comparators (one per ARQ entry; O(n) as §5.3.3 notes).
    pub comparators: usize,
    /// OR gates in builder stage 1.
    pub or_gates: usize,
}

/// Builder stage-1 FLIT-map latch size in bytes.
pub const FLIT_MAP_BYTES: u64 = 2;

/// Compute the area report for a configuration.
pub fn area(cfg: &MacConfig) -> AreaReport {
    let arq_bytes = cfg.arq_bytes();
    let builder_bytes = FLIT_MAP_BYTES + FlitTable::ROM_BYTES;
    AreaReport {
        arq_bytes,
        builder_bytes,
        total_bytes: arq_bytes + builder_bytes,
        comparators: cfg.arq_entries,
        or_gates: 4,
    }
}

/// The Figure 16 sweep: ARQ bytes for entry counts 8..=256.
pub fn figure16_sweep() -> Vec<(usize, u64)> {
    [8usize, 16, 32, 64, 128, 256]
        .iter()
        .map(|&entries| {
            let cfg = MacConfig {
                arq_entries: entries,
                ..MacConfig::default()
            };
            (entries, area(&cfg).arq_bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mac_is_2062_bytes() {
        // §5.3.3: "the total space overhead of the MAC (with the 32-entry
        // ARQ) is a memory of 2062 Bytes, 32 comparators and 4 OR gates".
        let r = area(&MacConfig::default());
        assert_eq!(r.total_bytes, 2062);
        assert_eq!(r.comparators, 32);
        assert_eq!(r.or_gates, 4);
        assert_eq!(r.builder_bytes, 14);
    }

    #[test]
    fn figure16_endpoints() {
        let sweep = figure16_sweep();
        assert_eq!(sweep.first(), Some(&(8, 512)));
        assert_eq!(sweep.last(), Some(&(256, 16384)));
    }

    #[test]
    fn arq_area_is_linear_in_entries() {
        let sweep = figure16_sweep();
        for w in sweep.windows(2) {
            assert_eq!(w[1].1, w[0].1 * 2, "doubling entries doubles bytes");
        }
    }
}
