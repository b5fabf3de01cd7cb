//! The FLIT table (§4.2.1, Figure 8).
//!
//! A 16-entry lookup table indexed by the 4-bit chunk mask produced by the
//! builder's first stage. Each entry gives the coalesced transaction's
//! start chunk and payload size. The paper's table emits packets spanning
//! the first through last active 64 B chunk, rounded up to the HMC sizes
//! 64 / 128 / 256 B — e.g. mask `0110` produces one 128 B request
//! (Figure 7 / Figure 8's worked example).
//!
//! The table costs 12 B of ROM (16 entries x 6 bits) and bounds the
//! second stage to one lookup cycle plus one build cycle.
//!
//! Two ablation policies are provided for the DESIGN.md studies:
//! [`FlitTablePolicy::Always256`] (the "just use the biggest packet"
//! strawman of §2.3.2) and [`FlitTablePolicy::PerChunk64`] (MSHR-style
//! fixed 64 B granularity).

use mac_types::{ChunkMask, FlitTablePolicy, ReqSize, CHUNK_BYTES};

/// One FLIT-table entry: where the packet starts and how big it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry {
    /// First 64 B chunk covered by the packet (`0..4`).
    pub start_chunk: u8,
    /// Packet payload size.
    pub size: ReqSize,
}

impl TableEntry {
    /// Byte offset of the packet start within the 256 B row.
    pub fn start_offset(&self) -> u64 {
        self.start_chunk as u64 * CHUNK_BYTES
    }
}

/// The materialized 16-entry lookup table.
#[derive(Debug, Clone, PartialEq)]
pub struct FlitTable {
    entries: [Option<TableEntry>; 16],
    policy: FlitTablePolicy,
}

impl FlitTable {
    /// Build the table for a policy. Entry 0 (empty mask) is `None`: the
    /// ARQ never forwards an entry with no requested FLITs.
    pub fn new(policy: FlitTablePolicy) -> Self {
        let mut entries = [None; 16];
        for bits in 1u8..16 {
            let mask = ChunkMask::from_bits(bits);
            entries[bits as usize] = Some(match policy {
                FlitTablePolicy::SpanRounded => Self::span_rounded(mask),
                FlitTablePolicy::Always256 => TableEntry {
                    start_chunk: 0,
                    size: ReqSize::B256,
                },
                // PerChunk64 emits multiple packets; the table stores the
                // *first* chunk and callers expand with `lookup_multi`.
                FlitTablePolicy::PerChunk64 => TableEntry {
                    start_chunk: mask.first().unwrap(),
                    size: ReqSize::B64,
                },
            });
        }
        FlitTable { entries, policy }
    }

    /// The paper's mapping: cover first..=last active chunk, rounding the
    /// span up to 1, 2 or 4 chunks (64/128/256 B). A rounded-up span that
    /// would run past the end of the row is pulled back to stay in-row
    /// (e.g. span 2 starting at chunk 3 starts at chunk 2 instead).
    fn span_rounded(mask: ChunkMask) -> TableEntry {
        let first = mask.first().expect("non-empty mask");
        let span = mask.span();
        let (chunks, size) = match span {
            1 => (1u8, ReqSize::B64),
            2 => (2, ReqSize::B128),
            _ => (4, ReqSize::B256),
        };
        let start = first.min(4 - chunks);
        TableEntry {
            start_chunk: start,
            size,
        }
    }

    /// Single-packet lookup (SpanRounded / Always256). Returns `None` for
    /// the empty mask.
    pub fn lookup(&self, mask: ChunkMask) -> Option<TableEntry> {
        self.entries[mask.bits() as usize]
    }

    /// Full lookup: the list of packets this mask expands to under the
    /// configured policy (one packet except for `PerChunk64`).
    pub fn lookup_multi(&self, mask: ChunkMask) -> Vec<TableEntry> {
        if mask.is_empty() {
            return Vec::new();
        }
        match self.policy {
            FlitTablePolicy::PerChunk64 => (0..4)
                .filter(|&c| mask.bits() >> c & 1 == 1)
                .map(|c| TableEntry {
                    start_chunk: c,
                    size: ReqSize::B64,
                })
                .collect(),
            _ => vec![self.lookup(mask).expect("non-empty mask has an entry")],
        }
    }

    /// ROM size in bytes: 16 entries x 6 bits, as accounted in §4.2.1
    /// ("12B for the 16-entry look-up table").
    pub const ROM_BYTES: u64 = 12;

    /// The policy this table was built for.
    pub fn policy(&self) -> FlitTablePolicy {
        self.policy
    }
}

impl Default for FlitTable {
    fn default() -> Self {
        FlitTable::new(FlitTablePolicy::SpanRounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> FlitTable {
        FlitTable::default()
    }

    #[test]
    fn figure8_worked_example_0110_is_128b() {
        let e = t().lookup(ChunkMask::from_bits(0b0110)).unwrap();
        assert_eq!(e.size, ReqSize::B128);
        assert_eq!(e.start_chunk, 1);
        assert_eq!(e.start_offset(), 64);
    }

    #[test]
    fn single_chunk_masks_are_64b() {
        for c in 0..4u8 {
            let e = t().lookup(ChunkMask::from_bits(1 << c)).unwrap();
            assert_eq!(e.size, ReqSize::B64);
            assert_eq!(e.start_chunk, c);
        }
    }

    #[test]
    fn adjacent_pairs_are_128b() {
        for c in 0..3u8 {
            let e = t().lookup(ChunkMask::from_bits(0b11 << c)).unwrap();
            assert_eq!(e.size, ReqSize::B128);
            assert_eq!(e.start_chunk, c);
        }
    }

    #[test]
    fn sparse_masks_round_to_256b() {
        for bits in [
            0b0101u8, 0b1001, 0b1010, 0b0111, 0b1011, 0b1101, 0b1110, 0b1111,
        ] {
            let e = t().lookup(ChunkMask::from_bits(bits)).unwrap();
            assert_eq!(e.size, ReqSize::B256, "mask {bits:04b}");
            assert_eq!(e.start_chunk, 0);
        }
    }

    #[test]
    fn empty_mask_has_no_entry() {
        assert_eq!(t().lookup(ChunkMask::from_bits(0)), None);
        assert!(t().lookup_multi(ChunkMask::from_bits(0)).is_empty());
    }

    #[test]
    fn packets_always_fit_in_the_row() {
        for bits in 1u8..16 {
            let e = t().lookup(ChunkMask::from_bits(bits)).unwrap();
            let end = e.start_offset() + e.size.bytes();
            assert!(end <= 256, "mask {bits:04b} runs past the row: {end}");
        }
    }

    #[test]
    fn packets_cover_every_active_chunk() {
        for bits in 1u8..16 {
            let mask = ChunkMask::from_bits(bits);
            let e = t().lookup(mask).unwrap();
            let covered_first = e.start_chunk;
            let covered_last = e.start_chunk + (e.size.bytes() / 64) as u8 - 1;
            for c in 0..4u8 {
                if bits >> c & 1 == 1 {
                    assert!(
                        (covered_first..=covered_last).contains(&c),
                        "mask {bits:04b}: chunk {c} not covered by {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn always256_policy() {
        let t = FlitTable::new(FlitTablePolicy::Always256);
        for bits in 1u8..16 {
            let e = t.lookup(ChunkMask::from_bits(bits)).unwrap();
            assert_eq!(e.size, ReqSize::B256);
            assert_eq!(e.start_chunk, 0);
        }
    }

    #[test]
    fn per_chunk64_expands_to_one_packet_per_chunk() {
        let t = FlitTable::new(FlitTablePolicy::PerChunk64);
        let pkts = t.lookup_multi(ChunkMask::from_bits(0b1011));
        assert_eq!(pkts.len(), 3);
        assert!(pkts.iter().all(|p| p.size == ReqSize::B64));
        let starts: Vec<u8> = pkts.iter().map(|p| p.start_chunk).collect();
        assert_eq!(starts, vec![0, 1, 3]);
    }

    #[test]
    fn edge_aligned_spans_pull_back_into_row() {
        // Mask 1000 has span 1 at chunk 3 -> 64 B at chunk 3: fine.
        // A hypothetical span-2 rounding at chunk 3 must start at 2.
        let e = t().lookup(ChunkMask::from_bits(0b1000)).unwrap();
        assert_eq!((e.start_chunk, e.size), (3, ReqSize::B64));
        let e = t().lookup(ChunkMask::from_bits(0b1100)).unwrap();
        assert_eq!((e.start_chunk, e.size), (2, ReqSize::B128));
    }
}
