//! Address-to-vault/bank mapping.
//!
//! HMC interleaves consecutive memory blocks across vaults so that
//! streaming traffic spreads over the cube (the "interleaved vaults" the
//! paper leans on in §4.1 when it coalesces at DRAM-row granularity: each
//! 256 B row lives entirely in one bank of one vault, and consecutive rows
//! land in different vaults).
//!
//! Mapping (low-interleaved, HMC 2.1 default "max block size = row size"):
//!
//! ```text
//! physical address bits:
//!   [ ...  | bank (log2 B) | vault (log2 V) | row offset (8) ]
//! ```

use mac_types::{CubeId, CubeMapping, HmcConfig, NetConfig, PhysAddr, RowId, ROW_BYTES};

/// Maps physical addresses / row ids onto vaults and banks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrMap {
    vaults: u64,
    banks_per_vault: u64,
    vault_bits: u32,
    bank_bits: u32,
}

/// A fully resolved DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankAddr {
    /// Vault index, `0..vaults`.
    pub vault: u16,
    /// Bank index within the vault, `0..banks_per_vault`.
    pub bank: u16,
    /// Flat bank index across the cube, `vault * banks_per_vault + bank`.
    pub flat: u32,
}

impl AddrMap {
    /// Build the map for a device configuration. Vault and bank counts
    /// must be powers of two (they are in every HMC generation).
    pub fn new(cfg: &HmcConfig) -> Self {
        assert!(
            cfg.vaults.is_power_of_two(),
            "vault count must be a power of two"
        );
        assert!(
            cfg.banks_per_vault.is_power_of_two(),
            "bank count must be a power of two"
        );
        AddrMap {
            vaults: cfg.vaults as u64,
            banks_per_vault: cfg.banks_per_vault as u64,
            vault_bits: cfg.vaults.trailing_zeros(),
            bank_bits: cfg.banks_per_vault.trailing_zeros(),
        }
    }

    /// Resolve a row id (the coalescing unit) to its bank.
    #[inline]
    pub fn locate_row(&self, row: RowId) -> BankAddr {
        let vault = (row.0 & (self.vaults - 1)) as u16;
        let bank = ((row.0 >> self.vault_bits) & (self.banks_per_vault - 1)) as u16;
        BankAddr {
            vault,
            bank,
            flat: vault as u32 * self.banks_per_vault as u32 + bank as u32,
        }
    }

    /// Resolve a full physical address to its bank.
    #[inline]
    pub fn locate(&self, addr: PhysAddr) -> BankAddr {
        self.locate_row(addr.row())
    }

    /// Number of vaults.
    #[inline]
    pub fn vaults(&self) -> usize {
        self.vaults as usize
    }

    /// Bits consumed by the vault+bank fields above the row offset.
    fn interleave_bits(&self) -> u32 {
        self.vault_bits + self.bank_bits
    }
}

/// Cube-aware address map for a multi-cube network.
///
/// Splits a 52-bit physical address into a [`CubeId`] and a *local*
/// address inside that cube, then resolves the local address with the
/// ordinary per-cube [`AddrMap`]. The cube-id field is carved per
/// [`CubeMapping`]:
///
/// * `Contiguous` — cube id is the high-order capacity bits
///   (`addr / capacity`); the local address is `addr % capacity`, so
///   every cube-0 address resolves bit-for-bit as in a single-cube
///   system.
/// * `Interleaved` — the cube bits sit in the row number directly above
///   the vault/bank interleave bits, so consecutive row groups rotate
///   over cubes and ordinary working sets exercise every cube. With one
///   cube the field is empty and the mapping is again the identity.
///
/// Both carvings are bijections between `addr` and `(cube, local)` over
/// the configured `cubes × capacity` space (see the property tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetAddrMap {
    inner: AddrMap,
    cubes: u64,
    cube_bits: u32,
    mapping: CubeMapping,
    /// log2 of the per-cube capacity (`Contiguous` field position).
    capacity_bits: u32,
    /// Low bit of the cube field within the row number (`Interleaved`).
    cube_shift: u32,
}

impl NetAddrMap {
    /// Build the map for a device + network configuration. Cube count
    /// and per-cube capacity must be powers of two.
    pub fn new(cfg: &HmcConfig, net: &NetConfig) -> Self {
        assert!(
            net.cubes.is_power_of_two(),
            "cube count must be a power of two"
        );
        assert!(
            cfg.capacity.is_power_of_two(),
            "per-cube capacity must be a power of two"
        );
        let inner = AddrMap::new(cfg);
        let cube_shift = inner.interleave_bits();
        NetAddrMap {
            cubes: net.cubes as u64,
            cube_bits: net.cubes.trailing_zeros(),
            mapping: net.mapping,
            capacity_bits: cfg.capacity.trailing_zeros(),
            cube_shift,
            inner,
        }
    }

    /// Which cube owns `addr`.
    #[inline]
    pub fn cube_of(&self, addr: PhysAddr) -> CubeId {
        if self.cube_bits == 0 {
            return CubeId::HOST;
        }
        let raw = addr.raw();
        let cube = match self.mapping {
            CubeMapping::Contiguous => (raw >> self.capacity_bits) & (self.cubes - 1),
            CubeMapping::Interleaved => {
                (raw >> (mac_types::addr::ROW_SHIFT + self.cube_shift)) & (self.cubes - 1)
            }
        };
        CubeId(cube as u16)
    }

    /// The address as seen inside its owning cube (cube bits removed,
    /// remaining bits compacted).
    #[inline]
    pub fn local_addr(&self, addr: PhysAddr) -> PhysAddr {
        if self.cube_bits == 0 {
            return addr;
        }
        let raw = addr.raw();
        match self.mapping {
            CubeMapping::Contiguous => PhysAddr::new(raw & ((1 << self.capacity_bits) - 1)),
            CubeMapping::Interleaved => {
                let row_shift = mac_types::addr::ROW_SHIFT;
                let offset = raw & (ROW_BYTES - 1);
                let row = raw >> row_shift;
                let low = row & ((1 << self.cube_shift) - 1);
                let high = row >> (self.cube_shift + self.cube_bits);
                let local_row = low | (high << self.cube_shift);
                PhysAddr::new((local_row << row_shift) | offset)
            }
        }
    }

    /// Rebuild the full address from a cube id and a local address
    /// (inverse of [`Self::cube_of`] + [`Self::local_addr`]).
    #[inline]
    pub fn global_addr(&self, cube: CubeId, local: PhysAddr) -> PhysAddr {
        if self.cube_bits == 0 {
            return local;
        }
        let cube = cube.0 as u64 & (self.cubes - 1);
        let raw = local.raw();
        match self.mapping {
            CubeMapping::Contiguous => PhysAddr::new(raw | (cube << self.capacity_bits)),
            CubeMapping::Interleaved => {
                let row_shift = mac_types::addr::ROW_SHIFT;
                let offset = raw & (ROW_BYTES - 1);
                let row = raw >> row_shift;
                let low = row & ((1 << self.cube_shift) - 1);
                let high = row >> self.cube_shift;
                let full_row =
                    low | (cube << self.cube_shift) | (high << (self.cube_shift + self.cube_bits));
                PhysAddr::new((full_row << row_shift) | offset)
            }
        }
    }

    /// Fully resolve an address: owning cube plus the bank inside it.
    #[inline]
    pub fn locate(&self, addr: PhysAddr) -> (CubeId, BankAddr) {
        let cube = self.cube_of(addr);
        (cube, self.inner.locate(self.local_addr(addr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::ROW_BYTES;

    fn map() -> AddrMap {
        AddrMap::new(&HmcConfig::default())
    }

    #[test]
    fn default_geometry() {
        let m = map();
        assert_eq!(m.vaults(), 32);
        assert_eq!(m.interleave_bits(), 9);
    }

    #[test]
    fn consecutive_rows_hit_different_vaults() {
        let m = map();
        let a = m.locate(PhysAddr::new(0));
        let b = m.locate(PhysAddr::new(ROW_BYTES));
        assert_ne!(a.vault, b.vault);
    }

    #[test]
    fn same_row_same_bank() {
        let m = map();
        let base = PhysAddr::new(7 * ROW_BYTES);
        for off in 0..ROW_BYTES {
            assert_eq!(m.locate(base.offset(off)), m.locate(base));
        }
    }

    #[test]
    fn flat_index_is_unique_per_bank() {
        let m = map();
        let mut seen = std::collections::HashSet::new();
        // Walk enough consecutive rows to touch every bank once.
        for row in 0..512u64 {
            let loc = m.locate_row(RowId(row));
            assert!(seen.insert(loc.flat), "bank {loc:?} repeated early");
            assert!(loc.flat < 512);
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn bank_wraps_after_vault_space() {
        let m = map();
        // Row 0 and row 32 share vault 0 but differ in bank.
        let a = m.locate_row(RowId(0));
        let b = m.locate_row(RowId(32));
        assert_eq!(a.vault, b.vault);
        assert_ne!(a.bank, b.bank);
        // Row 512 wraps back to vault 0, bank 0.
        let c = m.locate_row(RowId(512));
        assert_eq!(c, a);
    }

    #[test]
    fn single_cube_net_map_is_identity() {
        let cfg = HmcConfig::default();
        for mapping in [CubeMapping::Contiguous, CubeMapping::Interleaved] {
            let net = NetConfig {
                cubes: 1,
                mapping,
                ..NetConfig::default()
            };
            let nm = NetAddrMap::new(&cfg, &net);
            let m = AddrMap::new(&cfg);
            for addr in [0u64, 0x100, 0xFFFF, 0x1234_5678, cfg.capacity - 1] {
                let a = PhysAddr::new(addr);
                assert_eq!(nm.cube_of(a), CubeId::HOST);
                assert_eq!(nm.local_addr(a), a);
                assert_eq!(nm.locate(a).1, m.locate(a));
            }
        }
    }

    #[test]
    fn interleaved_mapping_rotates_row_groups_over_cubes() {
        let cfg = HmcConfig::default();
        let net = NetConfig {
            cubes: 4,
            mapping: CubeMapping::Interleaved,
            ..NetConfig::default()
        };
        let nm = NetAddrMap::new(&cfg, &net);
        // The cube changes every 2^(8+9) = 128 KB and wraps after 512 KB.
        let group = 1u64 << 17;
        for c in 0..4u64 {
            let a = PhysAddr::new(c * group);
            assert_eq!(nm.cube_of(a), CubeId(c as u16), "group {c}");
        }
        assert_eq!(nm.cube_of(PhysAddr::new(4 * group)), CubeId(0));
        // Within one group every address stays on one cube.
        for off in (0..group).step_by(4099) {
            assert_eq!(nm.cube_of(PhysAddr::new(group + off)), CubeId(1));
        }
    }

    #[test]
    fn contiguous_mapping_splits_by_capacity() {
        let cfg = HmcConfig::default();
        let net = NetConfig {
            cubes: 2,
            mapping: CubeMapping::Contiguous,
            ..NetConfig::default()
        };
        let nm = NetAddrMap::new(&cfg, &net);
        assert_eq!(nm.cube_of(PhysAddr::new(0)), CubeId(0));
        assert_eq!(nm.cube_of(PhysAddr::new(cfg.capacity - 1)), CubeId(0));
        assert_eq!(nm.cube_of(PhysAddr::new(cfg.capacity)), CubeId(1));
        // Cube 0 is bit-for-bit the single-cube mapping.
        let m = AddrMap::new(&cfg);
        for addr in (0..cfg.capacity).step_by(0x10_0001) {
            let a = PhysAddr::new(addr);
            assert_eq!(nm.local_addr(a), a);
            assert_eq!(nm.locate(a), (CubeId(0), m.locate(a)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_vaults() {
        let cfg = HmcConfig {
            vaults: 12,
            ..HmcConfig::default()
        };
        let _ = AddrMap::new(&cfg);
    }
}
