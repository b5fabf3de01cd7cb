//! One property for every memory back end: HMC, HBM, DDR, a 1-cube
//! network and a 4-cube ring each hand back every submitted transaction
//! exactly once, through the response path they share.

use proptest::prelude::*;

use hmc_model::{DdrDevice, HbmDevice, HmcDevice, MemoryDevice};
use mac_net::NetDevice;
use mac_types::{
    CubeMapping, Cycle, DdrConfig, FlitMap, HbmConfig, HmcConfig, HmcRequest, NetConfig,
    NetTopology, PhysAddr, ReqSize, Target, TransactionId,
};

/// Raw ids per transaction: transaction `i` carries ids `i * IDS ..`.
const IDS: u64 = 8;

/// Every back end, with queues short enough that backpressure binds and
/// a link error rate that exercises the host port's retries.
fn backends() -> Vec<(&'static str, Box<dyn MemoryDevice>)> {
    let hmc = HmcConfig {
        vault_queue_depth: 2,
        link_error_rate: 0.1,
        ..HmcConfig::default()
    };
    let net = |cubes, topology| NetConfig {
        enabled: true,
        cubes,
        topology,
        mapping: CubeMapping::Interleaved,
        ..NetConfig::default()
    };
    let hbm = HbmConfig {
        channel_queue_depth: 2,
    };
    let ddr = DdrConfig { queue_depth: 2 };
    vec![
        ("hmc", Box::new(HmcDevice::new(&hmc))),
        ("hbm", Box::new(HbmDevice::new(&hbm))),
        ("ddr", Box::new(DdrDevice::new(&ddr))),
        (
            "net1",
            Box::new(NetDevice::new(&hmc, &net(1, NetTopology::DaisyChain))),
        ),
        (
            "ring4",
            Box::new(NetDevice::new(&hmc, &net(4, NetTopology::Ring))),
        ),
    ]
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

/// Transaction `i`: `kind` 0 reads, 1 writes, 2 is an atomic; it merges
/// `merged` raw requests, each with its own target and raw id.
fn txn(i: usize, addr: u64, size: ReqSize, kind: u8, merged: u8, at: Cycle) -> HmcRequest {
    let a = PhysAddr::new(addr & !0xF);
    let mut flit_map = FlitMap::new();
    let targets: Vec<Target> = (0..merged)
        .map(|k| {
            let flit = (a.flit() + k) % 16;
            flit_map.set(flit);
            Target {
                tid: (i % 7) as u16 + k as u16,
                tag: i as u16,
                flit,
            }
        })
        .collect();
    HmcRequest {
        addr: a,
        size,
        is_write: kind == 1,
        is_atomic: kind == 2,
        flit_map,
        raw_ids: (0..merged as u64)
            .map(|k| TransactionId(i as u64 * IDS + k))
            .collect(),
        targets,
        dispatched_at: at,
    }
}

/// What the stream has submitted and popped so far.
struct Ledger {
    /// `(completion cycle submit returned, request)` by submission.
    submitted: Vec<(Cycle, HmcRequest)>,
    popped: Vec<bool>,
    pops: usize,
    /// `(completion cycle, submission index)` of the last pop.
    last: Option<(Cycle, usize)>,
}

impl Ledger {
    /// Pop everything due by `now`, checking each response against the
    /// request it answers.
    fn pop_due(&mut self, name: &str, dev: &mut dyn MemoryDevice, now: Cycle) {
        while let Some(rsp) = dev.pop_completed(now) {
            let i = (rsp.raw_ids[0].0 / IDS) as usize;
            let (done, req) = &self.submitted[i];
            assert!(!self.popped[i], "{name}: transaction {i} popped twice");
            self.popped[i] = true;
            self.pops += 1;
            assert_eq!(rsp.completed_at, *done, "{name}: transaction {i}");
            assert!(rsp.completed_at <= now, "{name}: popped before due");
            let key = (rsp.completed_at, i);
            assert!(
                self.last.is_none_or(|last| last < key),
                "{name}: {key:?} popped after {:?}",
                self.last
            );
            self.last = Some(key);
            assert_eq!(rsp.addr, req.addr, "{name}: transaction {i}");
            assert_eq!(rsp.size, req.size, "{name}: transaction {i}");
            assert_eq!(rsp.is_write, req.is_write, "{name}: transaction {i}");
            assert_eq!(rsp.targets, req.targets, "{name}: transaction {i}");
            assert_eq!(rsp.raw_ids, req.raw_ids, "{name}: transaction {i}");
        }
        assert_eq!(dev.pending(), self.submitted.len() - self.pops, "{name}");
        for (i, (done, _)) in self.submitted.iter().enumerate() {
            assert!(
                self.popped[i] || *done > now,
                "{name}: {i} due but not popped"
            );
        }
    }
}

proptest! {
    /// Each submit is popped exactly once, at the cycle `submit`
    /// returned; pops come in completion order, submission order on
    /// ties; each response echoes its request; and the statistics count
    /// one access per response.
    #[test]
    fn every_backend_returns_each_submit_once_in_order(
        stream in prop::collection::vec(
            (0u64..(1 << 22), arb_size(), 0u8..3, 1u8..5, 0u64..60, any::<bool>()),
            1..80,
        )
    ) {
        for (name, mut dev) in backends() {
            let dev = dev.as_mut();
            let mut ledger = Ledger {
                submitted: Vec::new(),
                popped: vec![false; stream.len()],
                pops: 0,
                last: None,
            };
            let mut now = 0;
            for (i, &(addr, size, kind, merged, gap, drain)) in stream.iter().enumerate() {
                now += gap;
                let req = txn(i, addr, size, kind, merged, now);
                // Wait for room, as the run loops do.
                now = dev.next_accept(&req, now);
                prop_assert!(dev.can_accept(&req, now), "{name}: refused at next_accept");
                let done = dev.submit(req.clone(), now);
                prop_assert!(done > now, "{name}: completes after submission");
                ledger.submitted.push((done, req));
                if drain {
                    ledger.pop_due(name, dev, now);
                }
            }
            ledger.pop_due(name, dev, Cycle::MAX);
            prop_assert_eq!(ledger.pops, stream.len(), "{}", name);
            prop_assert_eq!(dev.pending(), 0, "{}", name);
            prop_assert_eq!(dev.next_completion(), None, "{}", name);
            prop_assert_eq!(dev.stats().accesses(), stream.len() as u64, "{}", name);
        }
    }
}
