//! Property-based tests of the foundational types: the address layout,
//! the FLIT-map algebra and the Eq. 1 model.

use proptest::prelude::*;

use mac_types::{bandwidth_efficiency, ChunkMask, FlitMap, PhysAddr, CONTROL_BYTES_PER_ACCESS};

fn arb_addr() -> impl Strategy<Value = u64> {
    0u64..(1 << 52)
}

proptest! {
    /// The three address fields fully reconstruct the FLIT-aligned address.
    #[test]
    fn address_fields_reconstruct(raw in arb_addr()) {
        let a = PhysAddr::new(raw);
        let rebuilt = (a.row().0 << 8) | ((a.flit() as u64) << 4) | a.flit_offset() as u64;
        prop_assert_eq!(rebuilt, a.raw());
        prop_assert_eq!(PhysAddr::from_row_flit(a.row(), a.flit()), a.flit_base());
        prop_assert!(a.flit() < 16);
        prop_assert!(a.row_offset() < 256);
    }

    /// Addresses in the same row share a tagged key per type; addresses
    /// in different rows never share one.
    #[test]
    fn tagged_row_is_row_injective(a in arb_addr(), b in arb_addr(), store in any::<bool>()) {
        let (pa, pb) = (PhysAddr::new(a), PhysAddr::new(b));
        if pa.row() == pb.row() {
            prop_assert_eq!(pa.tagged_row(store), pb.tagged_row(store));
        } else {
            prop_assert_ne!(pa.tagged_row(store), pb.tagged_row(store));
        }
        prop_assert_ne!(pa.tagged_row(true), pb.tagged_row(false));
    }

    /// FLIT-map union is commutative, associative, idempotent, and the
    /// chunk-mask reduction is a homomorphism onto 4-bit OR.
    #[test]
    fn flit_map_algebra(x in any::<u16>(), y in any::<u16>(), z in any::<u16>()) {
        let (a, b, c) = (FlitMap::from_bits(x), FlitMap::from_bits(y), FlitMap::from_bits(z));
        prop_assert_eq!((a | b).bits(), (b | a).bits());
        prop_assert_eq!(((a | b) | c).bits(), (a | (b | c)).bits());
        prop_assert_eq!((a | a).bits(), a.bits());
        prop_assert_eq!(
            (a | b).chunk_mask().bits(),
            a.chunk_mask().bits() | b.chunk_mask().bits()
        );
        // Count is the number of iterated FLITs.
        prop_assert_eq!(a.count() as usize, a.iter().count());
        // first/last bound every set bit.
        if let (Some(f), Some(l)) = (a.first(), a.last()) {
            for flit in a.iter() {
                prop_assert!(f <= flit && flit <= l);
            }
        }
    }

    /// Chunk-mask span always covers the count.
    #[test]
    fn chunk_span_bounds_count(bits in 0u8..16) {
        let m = ChunkMask::from_bits(bits);
        prop_assert!(m.span() >= m.count() as u8);
        prop_assert!(m.span() <= 4);
    }

    /// Eq. 1 is monotone in the request size and bounded by (0, 1).
    #[test]
    fn efficiency_monotone_and_bounded(a in 1u64..4096, b in 1u64..4096) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bandwidth_efficiency(lo) <= bandwidth_efficiency(hi));
        prop_assert!(bandwidth_efficiency(lo) > 0.0);
        prop_assert!(bandwidth_efficiency(hi) < 1.0);
        let _ = CONTROL_BYTES_PER_ACCESS;
    }
}
