//! FLIT map and chunk mask (paper §4.1.1 and §4.2, Figures 6 and 8).
//!
//! Every ARQ entry carries a 16-bit **FLIT map** recording which of the 16
//! FLITs in its 256 B DRAM row have been requested. The request builder's
//! first pipeline stage OR-reduces the map into a 4-bit **chunk mask**
//! (one bit per consecutive 64 B chunk), which its second stage feeds into
//! the FLIT table to pick the packet size.

use crate::addr::{FLITS_PER_ROW, FLIT_BYTES, ROW_BYTES};

/// Bytes per chunk — the minimum transaction granularity emitted by the
/// request builder (§4.2: "requests from 64B to 256B").
pub const CHUNK_BYTES: u64 = 64;
/// Chunks per 256 B row (4).
pub const CHUNKS_PER_ROW: u64 = ROW_BYTES / CHUNK_BYTES;
/// FLITs per chunk (4).
pub const FLITS_PER_CHUNK: u64 = CHUNK_BYTES / FLIT_BYTES;

/// 16-bit bitmap, one bit per FLIT of a 256 B HMC row (Figure 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlitMap(u16);

impl FlitMap {
    /// Empty map: no FLITs requested yet.
    #[inline]
    pub const fn new() -> Self {
        FlitMap(0)
    }

    /// Map with a single FLIT set.
    #[inline]
    pub const fn single(flit: u8) -> Self {
        FlitMap(1 << (flit & 0xF))
    }

    /// Construct from a raw 16-bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        FlitMap(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Mark one FLIT (`0..16`) as requested.
    #[inline]
    pub fn set(&mut self, flit: u8) {
        debug_assert!(flit < FLITS_PER_ROW as u8);
        self.0 |= 1 << (flit & 0xF);
    }

    /// Whether the given FLIT is marked.
    #[inline]
    pub const fn get(self, flit: u8) -> bool {
        (self.0 >> (flit & 0xF)) & 1 == 1
    }

    /// Number of distinct FLITs requested.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no FLIT has been requested.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Merge another map into this one (union of requested FLITs).
    #[inline]
    pub fn merge(&mut self, other: FlitMap) {
        self.0 |= other.0;
    }

    /// Lowest set FLIT number, if any.
    #[inline]
    pub fn first(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as u8)
        }
    }

    /// Highest set FLIT number, if any.
    #[inline]
    pub fn last(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(15 - self.0.leading_zeros() as u8)
        }
    }

    /// Iterate over the set FLIT numbers in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        let bits = self.0;
        (0..FLITS_PER_ROW as u8).filter(move |&i| (bits >> i) & 1 == 1)
    }

    /// First pipeline stage of the request builder (§4.2, Figure 8):
    /// OR-reduce each group of 4 consecutive FLIT bits into one chunk bit.
    ///
    /// This is the single-cycle operation performed by the 4 OR gates.
    /// Implemented as a branch-free parallel reduction: the four bits of
    /// every nibble are OR-folded onto the nibble's low bit, then the
    /// four low bits are gathered into the 4-bit mask — all 4 nibbles
    /// reduce at once instead of testing them one comparison at a time.
    #[inline]
    pub const fn chunk_mask(self) -> ChunkMask {
        let b = self.0;
        // Fold each nibble onto its bit 0: f has bits 0/4/8/12 set iff
        // the corresponding nibble of `b` is non-zero.
        let f = (b | (b >> 1) | (b >> 2) | (b >> 3)) & 0x1111;
        // Gather bits 0/4/8/12 into bits 0..4.
        ChunkMask(((f | (f >> 3) | (f >> 6) | (f >> 9)) & 0xF) as u8)
    }
}

impl std::fmt::Display for FlitMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016b}", self.0)
    }
}

impl std::ops::BitOr for FlitMap {
    type Output = FlitMap;
    fn bitor(self, rhs: FlitMap) -> FlitMap {
        FlitMap(self.0 | rhs.0)
    }
}

/// 4-bit chunk mask, one bit per 64 B chunk of the row (Figure 8).
///
/// Produced by [`FlitMap::chunk_mask`] and consumed by the FLIT table to
/// select the coalesced request's start chunk and size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ChunkMask(u8);

impl ChunkMask {
    /// Construct from the low 4 bits of `bits`.
    #[inline]
    pub const fn from_bits(bits: u8) -> Self {
        ChunkMask(bits & 0xF)
    }

    /// The raw 4-bit pattern.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Number of active chunks.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no chunk is active.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Index of the first active chunk.
    #[inline]
    pub fn first(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as u8)
        }
    }

    /// Index of the last active chunk.
    #[inline]
    pub fn last(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(3 - (self.0 << 4).leading_zeros() as u8)
        }
    }

    /// Span in chunks from first to last active chunk, inclusive.
    /// Zero for an empty mask.
    #[inline]
    pub fn span(self) -> u8 {
        match (self.first(), self.last()) {
            (Some(f), Some(l)) => l - f + 1,
            _ => 0,
        }
    }
}

impl std::fmt::Display for ChunkMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = FlitMap::new();
        assert!(m.is_empty());
        m.set(5);
        assert!(m.get(5));
        assert!(!m.get(4));
        assert_eq!(m.count(), 1);
        m.set(5); // idempotent
        assert_eq!(m.count(), 1);
        m.set(0);
        m.set(15);
        assert_eq!(m.count(), 3);
        assert_eq!(m.first(), Some(0));
        assert_eq!(m.last(), Some(15));
    }

    #[test]
    fn figure6_example_bit5() {
        // Figure 6: FLIT number 5 requested -> bit[5] set.
        let m = FlitMap::single(5);
        assert_eq!(m.bits(), 0b0000_0000_0010_0000);
    }

    #[test]
    fn merge_is_union() {
        let mut a = FlitMap::from_bits(0b0011);
        a.merge(FlitMap::from_bits(0b0110));
        assert_eq!(a.bits(), 0b0111);
    }

    #[test]
    fn iter_yields_sorted_flits() {
        let m = FlitMap::from_bits(0b1000_0001_0010_0000);
        let v: Vec<u8> = m.iter().collect();
        assert_eq!(v, vec![5, 8, 15]);
    }

    #[test]
    fn chunk_mask_figure7_example() {
        // Figure 7: coalesced loads at FLITs 6, 8, 9 -> chunk mask 0110.
        let mut m = FlitMap::new();
        m.set(6);
        m.set(8);
        m.set(9);
        assert_eq!(m.chunk_mask().bits(), 0b0110);
        assert_eq!(m.chunk_mask().span(), 2);
    }

    #[test]
    fn chunk_mask_groups_of_four() {
        assert_eq!(FlitMap::from_bits(0x000F).chunk_mask().bits(), 0b0001);
        assert_eq!(FlitMap::from_bits(0x00F0).chunk_mask().bits(), 0b0010);
        assert_eq!(FlitMap::from_bits(0x0F00).chunk_mask().bits(), 0b0100);
        assert_eq!(FlitMap::from_bits(0xF000).chunk_mask().bits(), 0b1000);
        assert_eq!(FlitMap::from_bits(0xFFFF).chunk_mask().bits(), 0b1111);
        assert_eq!(FlitMap::from_bits(0x0000).chunk_mask().bits(), 0b0000);
    }

    #[test]
    fn chunk_span_and_bounds() {
        let m = ChunkMask::from_bits(0b1001);
        assert_eq!(m.first(), Some(0));
        assert_eq!(m.last(), Some(3));
        assert_eq!(m.span(), 4);
        assert_eq!(ChunkMask::from_bits(0b0100).span(), 1);
        assert_eq!(ChunkMask::from_bits(0).span(), 0);
    }
}
