//! Physical address layout used by the MAC (paper §4.1, Figure 5).
//!
//! The coalescer partitions a 52-bit physical address into:
//!
//! ```text
//!  51                 8 7      4 3       0
//! +---------------------+--------+---------+
//! |      row number     | FLIT # | FLIT off|
//! +---------------------+--------+---------+
//! ```
//!
//! * bits `0..=3` — byte offset inside a 16 B FLIT (ignored by the MAC,
//!   since the HMC's minimum transaction granularity is one FLIT);
//! * bits `4..=7` — FLIT number within the 256 B HMC DRAM row;
//! * bits `8..=51` — row number (the concatenated vault/bank/DRAM bits).
//!
//! The aggregator additionally extends addresses with two bits (§4.1.2):
//! the `T` bit (bit 52) distinguishing stores from loads so a single CAM
//! comparison covers both address and type, and the `B` bit flagging
//! entries that can bypass the request builder. Those live on the ARQ
//! entry (`mac-coalescer`), not on the address itself; here we provide the
//! `tagged_row` helper that produces the `{T, row}` comparison key.

/// Bytes per FLIT (FLow control unIT), the HMC protocol's basic data unit.
pub const FLIT_BYTES: u64 = 16;
/// Bytes per HMC DRAM row in the paper's configuration (HMC 2.1, 256 B).
pub const ROW_BYTES: u64 = 256;
/// FLITs per DRAM row (256 / 16 = 16), one bit each in the FLIT map.
pub const FLITS_PER_ROW: u64 = ROW_BYTES / FLIT_BYTES;

/// Number of physical address bits (§4.1.2: "current 64-bit architectures
/// use up to 52 bits to represent physical addresses").
pub const PHYS_ADDR_BITS: u32 = 52;
/// Low bit of the FLIT-number field.
pub const FLIT_SHIFT: u32 = 4;
/// Low bit of the row-number field.
pub const ROW_SHIFT: u32 = 8;

/// Mask of valid physical address bits.
pub const PHYS_ADDR_MASK: u64 = (1 << PHYS_ADDR_BITS) - 1;

/// A 52-bit physical address.
///
/// Constructed from a raw `u64`; bits above bit 51 are stripped, mirroring
/// hardware that simply does not wire them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Wrap a raw address, truncating to 52 bits.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw & PHYS_ADDR_MASK)
    }

    /// The raw 52-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Row number: bits 8..=51, identifying one 256 B HMC DRAM row.
    #[inline]
    pub const fn row(self) -> RowId {
        RowId(self.0 >> ROW_SHIFT)
    }

    /// FLIT number within the row: bits 4..=7, in `0..16`.
    #[inline]
    pub const fn flit(self) -> u8 {
        ((self.0 >> FLIT_SHIFT) & 0xF) as u8
    }

    /// Byte offset within the FLIT: bits 0..=3.
    #[inline]
    pub const fn flit_offset(self) -> u8 {
        (self.0 & 0xF) as u8
    }

    /// Byte offset within the 256 B row (bits 0..=7).
    #[inline]
    pub const fn row_offset(self) -> u16 {
        (self.0 & (ROW_BYTES - 1)) as u16
    }

    /// The address of the first byte of this address's row.
    #[inline]
    pub const fn row_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(ROW_BYTES - 1))
    }

    /// The address of the first byte of this address's FLIT.
    #[inline]
    pub const fn flit_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(FLIT_BYTES - 1))
    }

    /// Rebuild an address from a row id and a FLIT number.
    #[inline]
    pub const fn from_row_flit(row: RowId, flit: u8) -> Self {
        PhysAddr::new((row.0 << ROW_SHIFT) | ((flit as u64 & 0xF) << FLIT_SHIFT))
    }

    /// Comparison key used by the ARQ CAM: `{T bit, row number}` packed in
    /// one word so loads and stores to the same row never alias (§4.1.2).
    #[inline]
    pub const fn tagged_row(self, is_store: bool) -> u64 {
        (self.0 >> ROW_SHIFT) | ((is_store as u64) << (PHYS_ADDR_BITS - ROW_SHIFT))
    }

    /// Add a byte offset, truncating into the 52-bit space.
    #[inline]
    pub const fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr::new(self.0.wrapping_add(bytes))
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr::new(raw)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#013x}", self.0)
    }
}

/// Identifier of one cube in a multi-cube HMC network.
///
/// The cube id is not a fixed bit field of [`PhysAddr`]: it is carved
/// out of the 52-bit address by the network address map according to
/// [`crate::config::CubeMapping`] — either the high-order capacity bits
/// (`Contiguous`) or the bits just above the vault/bank interleave
/// (`Interleaved`). A single-cube system has zero cube bits and every
/// address maps to `CubeId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CubeId(pub u16);

impl CubeId {
    /// The host-attached cube (and the only cube when the net is off).
    pub const HOST: CubeId = CubeId(0);
}

impl std::fmt::Display for CubeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cube:{}", self.0)
    }
}

/// Identifier of one 256 B HMC DRAM row (the unit of coalescing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

impl RowId {
    /// Address of the first byte in this row.
    #[inline]
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr::new(self.0 << ROW_SHIFT)
    }
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction_matches_figure5() {
        // Row 0xA, FLIT 6, offset 3 -> figure 7's request #1 style address.
        let a = PhysAddr::new((0xA << 8) | (6 << 4) | 3);
        assert_eq!(a.row(), RowId(0xA));
        assert_eq!(a.flit(), 6);
        assert_eq!(a.flit_offset(), 3);
        assert_eq!(a.row_offset(), 0x63);
    }

    #[test]
    fn addresses_truncate_to_52_bits() {
        let a = PhysAddr::new(u64::MAX);
        assert_eq!(a.raw(), PHYS_ADDR_MASK);
        assert_eq!(a.row().0, PHYS_ADDR_MASK >> 8);
    }

    #[test]
    fn row_base_and_flit_base_align() {
        let a = PhysAddr::new(0x1234_5678_9ABC);
        assert_eq!(a.row_base().raw() % ROW_BYTES, 0);
        assert_eq!(a.flit_base().raw() % FLIT_BYTES, 0);
        assert_eq!(a.row_base().row(), a.row());
        assert_eq!(a.flit_base().flit(), a.flit());
    }

    #[test]
    fn from_row_flit_round_trips() {
        let row = RowId(0xDEAD_BEEF);
        for flit in 0..16u8 {
            let a = PhysAddr::from_row_flit(row, flit);
            assert_eq!(a.row(), row);
            assert_eq!(a.flit(), flit);
            assert_eq!(a.flit_offset(), 0);
        }
    }

    #[test]
    fn tagged_row_distinguishes_loads_from_stores() {
        let a = PhysAddr::new(0xA00);
        assert_ne!(a.tagged_row(false), a.tagged_row(true));
        // Same row, same type: equal keys regardless of FLIT offset.
        let b = PhysAddr::new(0xAF7);
        assert_eq!(a.tagged_row(false), b.tagged_row(false));
    }

    #[test]
    fn tagged_row_type_bit_sits_above_row_bits() {
        // The maximum possible row number must not collide with the T bit.
        let max = PhysAddr::new(PHYS_ADDR_MASK);
        let small = PhysAddr::new(0);
        assert_ne!(max.tagged_row(false), small.tagged_row(true));
        assert!(max.tagged_row(false) < small.tagged_row(true) + (1 << 44));
    }

    #[test]
    fn sixteen_flits_cover_one_row() {
        let base = PhysAddr::new(0x4_0000);
        let rows: std::collections::HashSet<_> =
            (0..16).map(|i| base.offset(i * FLIT_BYTES).row()).collect();
        assert_eq!(rows.len(), 1);
        let next = base.offset(16 * FLIT_BYTES);
        assert_ne!(next.row(), base.row());
    }
}
