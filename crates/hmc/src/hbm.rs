//! High Bandwidth Memory backend (§4.3 "Applicability").
//!
//! The paper argues MAC ports to HBM unchanged: HBM speaks a DDR-style
//! burst protocol with a 32 B minimum access (BL4 on a 64-bit
//! pseudo-channel bus), 1 KB rows, and — unlike HMC — an **open-page**
//! row-buffer policy, so same-row accesses that arrive while the row is
//! open pay only the column latency. Coalesced MAC packets (64–256 B)
//! map to 2–8 bursts.
//!
//! This module implements that device: channels with per-channel command
//! and data buses over open-page banks (the bank step it shares with
//! [`crate::DdrDevice`]), behind the same [`crate::MemoryDevice`] trait as
//! [`crate::HmcDevice`], so the full-system simulator can swap back ends
//! with one config switch.

use mac_types::{Cycle, HbmConfig, HmcRequest, PhysAddr};

use crate::admission::AdmissionQueue;
use crate::device_trait::MemoryDevice;
use crate::open_page::OpenPageChannel;
use crate::response::ResponsePath;

type H = HbmConfig;

// `locate` carves channel and bank bits out of the row number.
const _: () = assert!(H::CHANNELS.is_power_of_two() && H::BANKS_PER_CHANNEL.is_power_of_two());

/// A simulated HBM stack.
#[derive(Debug, Clone)]
pub struct HbmDevice {
    channels: Vec<OpenPageChannel>,
    /// Per-channel command queue (`channel_queue_depth`), each access
    /// held until its completion.
    queues: Vec<AdmissionQueue>,
    responses: ResponsePath,
}

impl HbmDevice {
    /// Build a device for the configuration.
    pub fn new(cfg: &HbmConfig) -> Self {
        let channel = OpenPageChannel::new(H::BANKS_PER_CHANNEL, H::T_RCD, H::T_CL, H::T_RP);
        HbmDevice {
            channels: vec![channel; H::CHANNELS],
            queues: vec![AdmissionQueue::new(cfg.channel_queue_depth); H::CHANNELS],
            responses: ResponsePath::default(),
        }
    }

    /// HBM interleaves 1 KB rows across channels, banks above that.
    /// Returns `(channel, bank within the channel, row)`.
    fn locate(addr: PhysAddr) -> (usize, usize, u64) {
        let global_row = addr.raw() >> H::ROW_BYTES.trailing_zeros();
        let channel = (global_row as usize) & (H::CHANNELS - 1);
        let bank =
            ((global_row as usize) >> H::CHANNELS.trailing_zeros()) & (H::BANKS_PER_CHANNEL - 1);
        (channel, bank, global_row)
    }
}

impl MemoryDevice for HbmDevice {
    fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool {
        let (ch, _, _) = Self::locate(req.addr);
        self.queues[ch].admits(now)
    }

    fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle {
        let (ch, _, _) = Self::locate(req.addr);
        self.queues[ch].next_admit(now)
    }

    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        let (ch, bank, row) = Self::locate(req.addr);
        let bursts = req.size.bytes().div_ceil(32).max(1);
        // The command reaches the channel after the PHY latency.
        let arrival = now + H::INTERFACE_LATENCY;
        let access = self.channels[ch].access(bank, row, arrival, bursts * H::T_BURST_PER_32B);
        let completed = access.done + H::INTERFACE_LATENCY;
        self.queues[ch].push(completed);
        self.responses.count_row_hits(access.row_hit as u64);
        self.responses.finish(req, access.conflict, completed, now);
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

    fn dev() -> HbmDevice {
        HbmDevice::new(&HbmConfig::default())
    }

    #[test]
    fn single_access_completes() {
        let mut d = dev();
        let done = d.submit(req(0x1000, ReqSize::B64, 0), 0);
        assert!(done > 0);
        assert_eq!(d.drain_completed(done).len(), 1);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn open_page_row_hits_are_faster() {
        let mut d = dev();
        let first = d.submit(req(0x4000, ReqSize::B64, 0), 0);
        // Same 1 KB row, after the first finished: row hit.
        let second_start = first + 1;
        let second = d.submit(req(0x4100, ReqSize::B64, second_start), second_start);
        let first_latency = first;
        let second_latency = second - second_start;
        assert!(
            second_latency < first_latency,
            "row hit {second_latency} should beat row miss {first_latency}"
        );
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn different_rows_in_one_bank_conflict() {
        let mut d = dev();
        // Rows that map to the same bank: stride = channels × banks per
        // channel rows.
        let stride = (H::CHANNELS * H::BANKS_PER_CHANNEL) as u64 * H::ROW_BYTES;
        d.submit(req(0, ReqSize::B256, 0), 0);
        d.submit(req(stride, ReqSize::B256, 1), 1);
        assert_eq!(d.stats().bank_conflicts, 1);
    }

    #[test]
    fn consecutive_rows_spread_over_channels() {
        let (ch0, _, _) = HbmDevice::locate(PhysAddr::new(0));
        let (ch1, _, _) = HbmDevice::locate(PhysAddr::new(H::ROW_BYTES));
        assert_ne!(ch0, ch1);
    }

    #[test]
    fn same_row_flits_share_bank_and_row() {
        let base = PhysAddr::new(0x10_0000);
        let (c0, b0, r0) = HbmDevice::locate(base);
        for off in (16..1024).step_by(16) {
            assert_eq!(HbmDevice::locate(base.offset(off)), (c0, b0, r0));
        }
    }

    #[test]
    fn burst_count_scales_service_time() {
        let mut small = dev();
        let mut large = dev();
        let t_small = small.submit(req(0x2000, ReqSize::B32, 0), 0);
        let t_large = large.submit(req(0x2000, ReqSize::B256, 0), 0);
        assert_eq!(t_large - t_small, (8 - 1) * H::T_BURST_PER_32B);
    }

    #[test]
    fn backpressure_via_channel_queue() {
        let cfg = HbmConfig {
            channel_queue_depth: 1,
        };
        let mut d = HbmDevice::new(&cfg);
        let r = req(0x1000, ReqSize::B64, 0);
        assert!(d.can_accept(&r, 0));
        d.submit(r.clone(), 0);
        assert!(!d.can_accept(&r, 0));
        assert!(d.can_accept(&r, 100_000));
    }

    #[test]
    fn link_byte_accounting_matches_hmc_model() {
        // §4.3: MAC applies to HBM "without modifying any of the
        // associated coalescing design and logic" — our accounting is
        // identical: payload + 32 B control per access.
        let mut d = dev();
        d.submit(req(0x1000, ReqSize::B128, 0), 0);
        assert_eq!(d.stats().data_bytes, 128);
        assert_eq!(d.stats().control_bytes, 32);
    }
}
