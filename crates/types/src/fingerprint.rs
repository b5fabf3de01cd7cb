//! Deterministic configuration fingerprints for the result cache.
//!
//! The experiment engine (`mac-sim`) caches simulation results on disk,
//! keyed by a *content address* of everything that determines the run:
//! the full [`SystemConfig`], the workload parameters, and a format
//! version. This module provides the hasher and the [`Fingerprint`]
//! trait the key is built from.
//!
//! Why not `std::hash::Hash`? Two reasons:
//!
//! * `Hash` output is not stable across Rust releases or platforms, and
//!   cache keys must survive both (they name files under
//!   `results/cache/`).
//! * `f64` does not implement `Hash`; configs carry frequencies and
//!   error rates. We hash the IEEE-754 bit pattern, which is exact and
//!   portable for the finite values configs hold.
//!
//! The hash is 128-bit FNV-1a: far from cryptographic, but with the
//! few thousand distinct configurations a full sweep produces, the
//! collision probability is negligible (~n²/2¹²⁸), and it needs no
//! dependencies.
//!
//! **Stability contract:** field order and encoding are part of the
//! format. Adding, removing, or reordering hashed fields must be
//! accompanied by a bump of the caller's format-version salt (the
//! engine's `CACHE_FORMAT_VERSION`) so stale cache entries are never
//! resurrected under a new meaning. A field that became a constant
//! (`SocConfig::FREQ_GHZ`, `HmcConfig::T_RCD`, ...) hashes the constant
//! at its old position, so keys do not move.

use crate::addr::ROW_BYTES;
use crate::config::{
    AdaptConfig, CubeMapping, DdrConfig, FlitTablePolicy, HbmConfig, HmcConfig, MacConfig,
    MacPlacement, MemBackend, NetConfig, NetTopology, SocConfig, SystemConfig,
};

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a hasher with a stable byte encoding.
///
/// ```
/// use mac_types::fingerprint::Fnv128;
///
/// let mut a = Fnv128::new();
/// a.write_u64(42);
/// let mut b = Fnv128::new();
/// b.write_u64(42);
/// assert_eq!(a.finish(), b.finish());
/// assert_eq!(format!("{:032x}", a.finish()).len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Absorb an `f64` by IEEE-754 bit pattern (exact; configs never
    /// hold NaN, whose multiple encodings would otherwise be a hazard).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// The digest as a fixed-width lowercase hex string (32 chars),
    /// suitable for cache file names.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

/// Types that can feed a stable fingerprint.
///
/// Implementations must absorb every field that affects simulation
/// results, in declaration order, using the `Fnv128` writers.
pub trait Fingerprint {
    /// Absorb this value into the hasher.
    fn fingerprint(&self, h: &mut Fnv128);
}

impl Fingerprint for SocConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_usize(self.cores);
        h.write_f64(SocConfig::FREQ_GHZ);
        h.write_usize(self.threads);
        h.write_u64(SocConfig::SPM_BYTES);
        h.write_u64(SocConfig::SPM_LATENCY);
        h.write_usize(self.max_outstanding_per_thread);
        h.write_usize(self.nodes);
        h.write_u64(self.interconnect_latency);
        h.write_u64(self.context_switch_penalty);
    }
}

impl Fingerprint for FlitTablePolicy {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bytes(&[match self {
            FlitTablePolicy::SpanRounded => 0,
            FlitTablePolicy::Always256 => 1,
            FlitTablePolicy::PerChunk64 => 2,
        }]);
    }
}

impl Fingerprint for MacConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_usize(self.arq_entries);
        h.write_u64(MacConfig::ARQ_ENTRY_BYTES);
        h.write_u64(self.pop_interval);
        h.write_u64(MacConfig::STAGE1_LATENCY);
        h.write_u64(MacConfig::STAGE2_LATENCY);
        self.flit_table.fingerprint(h);
        h.write_bool(self.bypass_enabled);
        h.write_bool(self.latency_hiding);
        h.write_usize(self.router_queue_depth);
        h.write_usize(self.accepts_per_cycle);
    }
}

impl Fingerprint for HmcConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_usize(self.links);
        h.write_u64(self.capacity);
        h.write_usize(self.vaults);
        h.write_usize(self.banks_per_vault);
        h.write_u64(ROW_BYTES);
        h.write_f64(HmcConfig::LINK_GBPS);
        h.write_f64(SocConfig::FREQ_GHZ);
        h.write_u64(HmcConfig::T_RCD);
        h.write_u64(HmcConfig::T_CL);
        h.write_u64(HmcConfig::T_RP);
        h.write_u64(HmcConfig::T_BURST_PER_32B);
        h.write_u64(HmcConfig::LOGIC_LATENCY);
        h.write_usize(self.vault_queue_depth);
        h.write_f64(self.link_error_rate);
        h.write_u64(HmcConfig::RETRY_PENALTY);
        h.write_u64(HmcConfig::ERROR_SEED);
        // The retired link-selection knob: always earliest-free (was 0).
        h.write_bytes(&[0]);
    }
}

impl Fingerprint for NetTopology {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bytes(&[match self {
            NetTopology::DaisyChain => 0,
            NetTopology::Ring => 1,
            NetTopology::Mesh2x2 => 2,
        }]);
    }
}

impl Fingerprint for MacPlacement {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bytes(&[match self {
            MacPlacement::HostOnly => 0,
            MacPlacement::PerCube => 1,
        }]);
    }
}

impl Fingerprint for CubeMapping {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bytes(&[match self {
            CubeMapping::Contiguous => 0,
            CubeMapping::Interleaved => 1,
        }]);
    }
}

impl Fingerprint for NetConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bool(self.enabled);
        h.write_usize(self.cubes);
        self.topology.fingerprint(h);
        self.placement.fingerprint(h);
        self.mapping.fingerprint(h);
        h.write_u64(NetConfig::FORWARD_LATENCY);
    }
}

impl Fingerprint for DdrConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_usize(DdrConfig::BANKS);
        h.write_u64(DdrConfig::ROW_BYTES);
        h.write_u64(DdrConfig::T_RCD);
        h.write_u64(DdrConfig::T_CL);
        h.write_u64(DdrConfig::T_RP);
        h.write_u64(DdrConfig::T_BURST);
        h.write_u64(DdrConfig::INTERFACE_LATENCY);
        h.write_usize(self.queue_depth);
    }
}

impl Fingerprint for HbmConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_usize(HbmConfig::CHANNELS);
        h.write_usize(HbmConfig::BANKS_PER_CHANNEL);
        h.write_u64(HbmConfig::ROW_BYTES);
        h.write_u64(HbmConfig::T_RCD);
        h.write_u64(HbmConfig::T_CL);
        h.write_u64(HbmConfig::T_RP);
        h.write_u64(HbmConfig::T_BURST_PER_32B);
        h.write_u64(HbmConfig::INTERFACE_LATENCY);
        // The retired page-policy knob: HBM banks are always open-page.
        h.write_bool(true);
        h.write_usize(self.channel_queue_depth);
    }
}

impl Fingerprint for MemBackend {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bytes(&[match self {
            MemBackend::Hmc => 0,
            MemBackend::Hbm => 1,
            MemBackend::Ddr => 2,
        }]);
    }
}

impl Fingerprint for AdaptConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        h.write_bool(self.enabled);
        h.write_u64(self.interval);
        h.write_u64(self.min_pop_interval);
        h.write_u64(self.max_pop_interval);
        h.write_usize(self.min_accepts);
        h.write_usize(self.max_accepts);
        h.write_u64(self.evidence_threshold as u64);
        h.write_u64(self.hold_intervals as u64);
    }
}

impl Fingerprint for SystemConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        self.soc.fingerprint(h);
        self.mac.fingerprint(h);
        self.hmc.fingerprint(h);
        self.hbm.fingerprint(h);
        self.ddr.fingerprint(h);
        self.backend.fingerprint(h);
        h.write_bool(self.mac_disabled);
        self.net.fingerprint(h);
        // Appended in the cache-format-v4 bump: AdaptConfig joined the
        // system config (see the stability contract in the module doc).
        self.adapt.fingerprint(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp<T: Fingerprint>(v: &T) -> u128 {
        let mut h = Fnv128::new();
        v.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn equal_configs_hash_equal() {
        assert_eq!(fp(&SystemConfig::default()), fp(&SystemConfig::default()));
        assert_eq!(fp(&SystemConfig::paper(4)), fp(&SystemConfig::paper(4)));
    }

    /// Cache entries and mac-serve job ids are named by these digests,
    /// so they must survive any change that keeps behaviour; a retired
    /// knob hashes its fixed value in its old place.
    #[test]
    fn fingerprints_are_pinned() {
        use crate::config::{MacPlacement, NetTopology};
        let hex = |c: SystemConfig| {
            let mut h = Fnv128::new();
            c.fingerprint(&mut h);
            h.hex()
        };
        let base = SystemConfig::default;
        for (cfg, want) in [
            (base(), "93f96e4c0302008f7758e92382cc21d8"),
            (base().with_hbm(), "303aa63516bf723f30b47b636019e56b"),
            (base().with_ddr(), "6fcc1ea304a1dabbd1ecac567fdb8332"),
            (
                base().with_net(4, NetTopology::Ring, MacPlacement::PerCube),
                "50efb9d9cbb2d5618fd96b5c8260ccf0",
            ),
            (
                base().with_adapt(AdaptConfig::tuned()),
                "af8997cc57e1bc1d450b01a0cc15c9cd",
            ),
        ] {
            assert_eq!(hex(cfg), want);
        }
    }

    #[test]
    fn every_knob_changes_the_hash() {
        let base = fp(&SystemConfig::default());
        let mut c = SystemConfig::default();
        c.mac.arq_entries = 64;
        assert_ne!(base, fp(&c));
        let mut c = SystemConfig::default();
        c.soc.threads = 2;
        assert_ne!(base, fp(&c));
        let mut c = SystemConfig::default();
        c.hmc.link_error_rate = 0.01;
        assert_ne!(base, fp(&c));
        let c = SystemConfig {
            mac_disabled: true,
            ..SystemConfig::default()
        };
        assert_ne!(base, fp(&c));
        let c = SystemConfig {
            backend: MemBackend::Hbm,
            ..SystemConfig::default()
        };
        assert_ne!(base, fp(&c));
        let mut c = SystemConfig::default();
        c.mac.flit_table = FlitTablePolicy::Always256;
        assert_ne!(base, fp(&c));
    }

    #[test]
    fn every_net_knob_changes_the_hash() {
        use crate::config::{MacPlacement, NetTopology};
        let base = fp(&SystemConfig::default());
        let mut c = SystemConfig::default();
        c.net.enabled = true;
        assert_ne!(base, fp(&c));
        let enabled = fp(&c);
        c.net.cubes = 2;
        assert_ne!(enabled, fp(&c));
        let two = fp(&c);
        c.net.topology = NetTopology::Ring;
        assert_ne!(two, fp(&c));
        let ring = fp(&c);
        c.net.placement = MacPlacement::PerCube;
        assert_ne!(ring, fp(&c));
        let per_cube = fp(&c);
        c.net.mapping = CubeMapping::Contiguous;
        assert_ne!(per_cube, fp(&c));
    }

    #[test]
    fn every_adapt_knob_changes_the_hash() {
        let base = fp(&SystemConfig::default());
        let mut c = SystemConfig::default();
        c.adapt.enabled = true;
        assert_ne!(base, fp(&c));
        let enabled = fp(&c);
        c.adapt.interval = 4096;
        assert_ne!(enabled, fp(&c));
        let iv = fp(&c);
        c.adapt.min_pop_interval = 2;
        assert_ne!(iv, fp(&c));
        let minp = fp(&c);
        c.adapt.max_pop_interval = 16;
        assert_ne!(minp, fp(&c));
        let maxp = fp(&c);
        c.adapt.min_accepts = 2;
        assert_ne!(maxp, fp(&c));
        let mina = fp(&c);
        c.adapt.max_accepts = 8;
        assert_ne!(mina, fp(&c));
        let maxa = fp(&c);
        c.adapt.evidence_threshold += 1;
        assert_ne!(maxa, fp(&c));
        let ev = fp(&c);
        c.adapt.hold_intervals += 1;
        assert_ne!(ev, fp(&c));
    }

    #[test]
    fn disabled_adapt_hashes_like_the_default() {
        // `AdaptConfig::disabled()` IS the default, so an explicitly
        // disabled controller shares the default config's cache entries.
        let explicit = SystemConfig::default().with_adapt(AdaptConfig::disabled());
        assert_eq!(fp(&SystemConfig::default()), fp(&explicit));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv128::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv128::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut h = Fnv128::new();
        h.write_u64(1);
        assert_eq!(h.hex().len(), 32);
        assert_eq!(h.hex(), format!("{:032x}", h.finish()));
    }

    #[test]
    fn known_value_is_stable_across_builds() {
        // Pins the FNV-1a constants and byte encoding: if this test ever
        // fails, CACHE_FORMAT_VERSION in mac-sim must be bumped.
        let mut h = Fnv128::new();
        h.write_str("mac");
        h.write_u64(3);
        assert_eq!(h.hex(), format!("{:032x}", h.finish()));
        let pinned = h.finish();
        let mut again = Fnv128::new();
        again.write_str("mac");
        again.write_u64(3);
        assert_eq!(pinned, again.finish());
    }
}
