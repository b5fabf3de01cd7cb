//! JEDEC DDR4 baseline (§2.2 contrast device).
//!
//! Conventional DDR systems differ from 3D-stacked memory in exactly the
//! ways the paper's motivation leans on (§2.2.1):
//!
//! * **Fixed 64 B granularity** — burst-8 on a 64-bit bus; any larger
//!   transaction is the controller splitting into 64 B bursts.
//! * **8 KB rows** with an **open-page** policy, so the conventional
//!   row-buffer-hit-harvesting controller turns same-row streams into
//!   cheap column accesses — the controller-level coalescing that HMC's
//!   closed-page 256 B rows make impossible.
//! * Few banks (16 in one rank) and one shared data bus per channel.
//!
//! The `baseline_ddr` bench uses this device to reproduce the §2.2
//! argument: raw FLIT streams that devastate HMC (bank conflicts, row
//! cycles) are partially absorbed by DDR row hits — but DDR's bus
//! serialization and low bank count cap its throughput far below a
//! coalesced HMC.

use mac_types::{Cycle, DdrConfig, HmcRequest};

use crate::admission::AdmissionQueue;
use crate::device_trait::MemoryDevice;
use crate::open_page::OpenPageChannel;
use crate::response::ResponsePath;

type D = DdrConfig;

// `locate` carves the bank bits out of the burst number.
const _: () = assert!(D::BANKS.is_power_of_two());

/// A simulated DDR4 channel (single rank).
#[derive(Debug, Clone)]
pub struct DdrDevice {
    channel: OpenPageChannel,
    /// Controller command queue (`queue_depth`), held until completion.
    queue: AdmissionQueue,
    responses: ResponsePath,
}

impl DdrDevice {
    /// Build a device for the configuration.
    pub fn new(cfg: &DdrConfig) -> Self {
        DdrDevice {
            channel: OpenPageChannel::new(D::BANKS, D::T_RCD, D::T_CL, D::T_RP),
            queue: AdmissionQueue::new(cfg.queue_depth),
            responses: ResponsePath::default(),
        }
    }

    /// DDR interleaves 64 B bursts across banks (bank bits just above the
    /// burst offset), with the row above the bank bits — standard BRC.
    fn locate(addr: u64) -> (usize, u64) {
        let burst = addr >> 6; // 64 B granularity
        let bank = (burst as usize) & (D::BANKS - 1);
        let row = (burst >> D::BANKS.trailing_zeros()) / (D::ROW_BYTES / 64);
        (bank, row)
    }
}

impl MemoryDevice for DdrDevice {
    fn can_accept(&mut self, _req: &HmcRequest, now: Cycle) -> bool {
        self.queue.admits(now)
    }

    fn next_accept(&self, _req: &HmcRequest, now: Cycle) -> Cycle {
        self.queue.next_admit(now)
    }

    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        // The controller splits any transaction into 64 B bursts.
        let bursts = req.size.bytes().div_ceil(64).max(1);
        let arrival = now + D::INTERFACE_LATENCY;
        let mut done = arrival;
        let mut any_conflict = false;
        let mut hits = 0u64;
        for b in 0..bursts {
            let (bank, row) = Self::locate(req.addr.raw() + b * 64);
            let access = self.channel.access(bank, row, arrival, D::T_BURST);
            done = done.max(access.done);
            any_conflict |= access.conflict;
            hits += access.row_hit as u64;
        }
        let completed = done + D::INTERFACE_LATENCY;
        self.queue.push(completed);
        self.responses.count_row_hits(hits);
        self.responses.finish(req, any_conflict, completed, now);
        completed
    }

    fn responses(&self) -> &ResponsePath {
        &self.responses
    }

    fn responses_mut(&mut self) -> &mut ResponsePath {
        &mut self.responses
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{FlitMap, PhysAddr, ReqSize, Target, TransactionId};

    fn req(addr: u64, size: ReqSize, at: Cycle) -> HmcRequest {
        let a = PhysAddr::new(addr);
        let mut fm = FlitMap::new();
        fm.set(a.flit());
        HmcRequest {
            addr: a,
            size,
            is_write: false,
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

    fn dev() -> DdrDevice {
        DdrDevice::new(&DdrConfig::default())
    }

    #[test]
    fn single_access_completes() {
        let mut d = dev();
        let done = d.submit(req(0x1000, ReqSize::B64, 0), 0);
        assert!(done > 0);
        assert_eq!(d.drain_completed(done).len(), 1);
    }

    #[test]
    fn row_hit_harvesting_absorbs_same_row_streams() {
        // §2.2.1: same-row accesses on open-page DDR hit the row buffer.
        // DDR rows are 8 KB: bursts 0..128 of one row map across banks,
        // so walk one bank's slice: stride = banks * 64 within one row.
        let mut d = dev();
        let stride = D::BANKS as u64 * 64;
        let first = d.submit(req(0, ReqSize::B64, 0), 0);
        let mut t = first + 1;
        for i in 1..4u64 {
            t = d.submit(req(i * stride, ReqSize::B64, t), t) + 1;
        }
        assert_eq!(d.stats().row_hits, 3, "all follow-ups hit the open row");
    }

    #[test]
    fn different_rows_same_bank_pay_precharge() {
        let mut d = dev();
        let row_span = D::BANKS as u64 * D::ROW_BYTES;
        let first = d.submit(req(0, ReqSize::B64, 0), 0);
        let second_start = first + 1;
        let second = d.submit(req(row_span, ReqSize::B64, second_start), second_start);
        let lat1 = first;
        let lat2 = second - second_start;
        assert!(lat2 > lat1, "row miss with precharge: {lat2} vs {lat1}");
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn large_requests_split_into_bursts() {
        let mut small = dev();
        let mut large = dev();
        let t64 = small.submit(req(0x2000, ReqSize::B64, 0), 0);
        let t256 = large.submit(req(0x2000, ReqSize::B256, 0), 0);
        // 3 extra bursts serialized on the bus.
        assert_eq!(t256 - t64, 3 * D::T_BURST);
    }

    #[test]
    fn bus_serializes_across_banks() {
        // Unlike HMC vaults, DDR bursts to different banks still share
        // one data bus.
        let mut d = dev();
        let a = d.submit(req(0x00, ReqSize::B64, 0), 0);
        let b = d.submit(req(0x40, ReqSize::B64, 0), 0); // next bank
        assert!(b >= a + D::T_BURST, "data bus is shared: {a} {b}");
    }

    #[test]
    fn backpressure() {
        let cfg = DdrConfig { queue_depth: 1 };
        let mut d = DdrDevice::new(&cfg);
        let r = req(0, ReqSize::B64, 0);
        assert!(d.can_accept(&r, 0));
        d.submit(r.clone(), 0);
        assert!(!d.can_accept(&r, 0));
        assert!(d.can_accept(&r, 1_000_000));
    }
}
