//! Property-based tests of the HMC device model.

use proptest::prelude::*;

use hmc_model::{HmcDevice, MemoryDevice};
use mac_types::{FlitMap, HmcConfig, HmcRequest, PhysAddr, ReqSize, Target, TransactionId};

fn req(addr: u64, size: ReqSize, write: bool, at: u64) -> HmcRequest {
    let a = PhysAddr::new(addr);
    let mut fm = FlitMap::new();
    fm.set(a.flit());
    HmcRequest {
        addr: a,
        size,
        is_write: write,
        is_atomic: false,
        flit_map: fm,
        targets: vec![Target {
            tid: 0,
            tag: 0,
            flit: a.flit(),
        }],
        raw_ids: vec![TransactionId(at)],
        dispatched_at: at,
    }
}

fn arb_size() -> impl Strategy<Value = ReqSize> {
    prop_oneof![
        Just(ReqSize::B16),
        Just(ReqSize::B32),
        Just(ReqSize::B64),
        Just(ReqSize::B128),
        Just(ReqSize::B256),
    ]
}

proptest! {
    /// Every submitted request completes, exactly once, at or after its
    /// submission cycle; drained responses arrive in completion order.
    #[test]
    fn submissions_complete_once_in_order(
        reqs in prop::collection::vec((0u64..(1 << 24), arb_size(), any::<bool>()), 1..60)
    ) {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let mut last_done = 0;
        for (i, (addr, size, write)) in reqs.iter().enumerate() {
            let now = i as u64;
            let done = dev.submit(req(addr & !0xF, *size, *write, now), now);
            prop_assert!(done > now, "completion strictly after submission");
            last_done = last_done.max(done);
        }
        let out = dev.drain_completed(last_done);
        prop_assert_eq!(out.len(), reqs.len());
        prop_assert!(out.windows(2).all(|w| w[0].completed_at <= w[1].completed_at));
        prop_assert_eq!(dev.pending(), 0);
    }

    /// Latency is bounded below by the physical minimum (link + logic +
    /// closed-page row cycle) for any request size.
    #[test]
    fn latency_never_beats_physics(
        addr in 0u64..(1 << 30),
        size in arb_size(),
    ) {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let done = dev.submit(req(addr & !0xF, size, false, 0), 0);
        let floor = HmcConfig::LOGIC_LATENCY * 2 + HmcConfig::T_RCD + HmcConfig::T_CL;
        prop_assert!(done >= floor, "{done} < physical floor {floor}");
    }

    /// Conflict accounting: submitting the same row twice back-to-back
    /// always records exactly one conflict; different rows in different
    /// vaults record none.
    #[test]
    fn conflict_accounting_is_exact(row in 0u64..(1 << 20)) {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        dev.submit(req(row << 8, ReqSize::B64, false, 0), 0);
        dev.submit(req((row << 8) + 64, ReqSize::B64, false, 1), 1);
        prop_assert_eq!(dev.stats().bank_conflicts, 1);

        let mut dev2 = HmcDevice::new(&HmcConfig::default());
        dev2.submit(req(row << 8, ReqSize::B64, false, 0), 0);
        dev2.submit(req((row + 1) << 8, ReqSize::B64, false, 1), 1);
        prop_assert_eq!(dev2.stats().bank_conflicts, 0);
    }

    /// Bandwidth accounting matches the analytic model: for any request
    /// mix, link bytes = payload + 32 B per access.
    #[test]
    fn link_bytes_match_eq1(
        reqs in prop::collection::vec((0u64..(1 << 20), arb_size()), 1..40)
    ) {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let mut payload = 0u128;
        for (i, (addr, size)) in reqs.iter().enumerate() {
            dev.submit(req(addr & !0xF, *size, false, i as u64), i as u64);
            payload += size.bytes() as u128;
        }
        let s = dev.stats();
        prop_assert_eq!(s.data_bytes, payload);
        prop_assert_eq!(s.control_bytes, 32 * reqs.len() as u128);
    }
}
