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
//! buses, open-page banks with row-buffer hit/miss/conflict timing, and
//! the same transaction-driven interface as [`crate::HmcDevice`] via the
//! [`crate::MemoryDevice`] trait, so the full-system simulator
//! can swap back ends with one config switch.

use mac_types::{Cycle, HbmConfig, HmcRequest, HmcResponse};

use crate::admission::AdmissionQueue;
use crate::completion::CompletionQueue;
use crate::device_trait::MemoryDevice;
use crate::stats::HmcStats;

/// One open-page bank: the currently open row (if any) and busy time.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    free_at: Cycle,
}

/// One channel: command-bus issue limit and in-flight accounting.
#[derive(Debug, Clone, Default)]
struct Channel {
    last_issue: Cycle,
    /// Data-bus free time (bursts serialize on the channel bus).
    bus_free_at: Cycle,
    /// Command queue (`channel_queue_depth`), held until completion.
    queue: AdmissionQueue,
}

/// A simulated HBM stack.
#[derive(Debug, Clone)]
pub struct HbmDevice {
    cfg: HbmConfig,
    banks: Vec<Bank>,
    channels: Vec<Channel>,
    stats: HmcStats,
    completion: CompletionQueue,
}

impl HbmDevice {
    /// Build a device for the configuration.
    pub fn new(cfg: &HbmConfig) -> Self {
        assert!(cfg.channels.is_power_of_two());
        assert!(cfg.banks_per_channel.is_power_of_two());
        HbmDevice {
            cfg: cfg.clone(),
            banks: vec![Bank::default(); cfg.channels * cfg.banks_per_channel],
            channels: vec![
                Channel {
                    queue: AdmissionQueue::new(cfg.channel_queue_depth),
                    ..Channel::default()
                };
                cfg.channels
            ],
            stats: HmcStats::default(),
            completion: CompletionQueue::new(),
        }
    }

    /// HBM interleaves 1 KB rows across channels, banks above that.
    fn locate(&self, addr: mac_types::PhysAddr) -> (usize, usize, u64) {
        let row_bits = self.cfg.row_bytes.trailing_zeros();
        let global_row = addr.raw() >> row_bits;
        let channel = (global_row as usize) & (self.cfg.channels - 1);
        let bank_in_ch = ((global_row as usize) >> self.cfg.channels.trailing_zeros())
            & (self.cfg.banks_per_channel - 1);
        let bank = channel * self.cfg.banks_per_channel + bank_in_ch;
        (channel, bank, global_row)
    }
}

impl MemoryDevice for HbmDevice {
    fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool {
        let (ch, _, _) = self.locate(req.addr);
        self.channels[ch].queue.admits(now)
    }

    fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle {
        let (ch, _, _) = self.locate(req.addr);
        self.channels[ch].queue.next_admit(now)
    }

    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        let (ch, bank_idx, row) = self.locate(req.addr);
        let payload = req.size.bytes();
        let bursts = payload.div_ceil(32).max(1);

        // Command arrives after the PHY/interface latency.
        let arrival = now + self.cfg.interface_latency;
        let c = &mut self.channels[ch];
        let issue = arrival.max(c.last_issue + 1);
        c.last_issue = issue;

        let bank = &mut self.banks[bank_idx];
        let bank_ready = bank.free_at.max(issue);
        let conflict = bank.free_at > issue;

        // Open-page timing: row hit pays CAS only; row miss/empty pays
        // (PRE +) ACT + CAS.
        let row_hit = self.cfg.open_page && bank.open_row == Some(row);
        let access_start = bank_ready;
        let ready_for_data = if row_hit {
            access_start + self.cfg.t_cl
        } else {
            // A row left open by the open-page policy must precharge
            // before the new activate; closed-page banks precharge on
            // completion, and empty banks need no precharge either.
            let pre = if self.cfg.open_page && bank.open_row.is_some() {
                self.cfg.t_rp
            } else {
                0
            };
            access_start + pre + self.cfg.t_rcd + self.cfg.t_cl
        };
        // Bursts serialize on the channel's data bus.
        let bus_start = ready_for_data.max(c.bus_free_at);
        let data_done = bus_start + bursts * self.cfg.t_burst_per_32b;
        c.bus_free_at = data_done;

        bank.free_at = if self.cfg.open_page {
            data_done // row stays open
        } else {
            data_done + self.cfg.t_rp // auto-precharge
        };
        bank.open_row = if self.cfg.open_page { Some(row) } else { None };

        let completed = data_done + self.cfg.interface_latency;
        c.queue.push(completed);

        let latency = completed.saturating_sub(req.dispatched_at.min(now));
        self.stats.record_access(
            req.size,
            req.useful_bytes(),
            req.merged_count().max(1),
            conflict,
            latency,
        );
        if row_hit {
            self.stats.row_hits += 1;
        }

        let rsp = HmcResponse {
            addr: req.addr,
            size: req.size,
            is_write: req.is_write,
            targets: req.targets,
            raw_ids: req.raw_ids,
            completed_at: completed,
            conflicts: conflict as u64,
        };
        self.completion.push(completed, rsp);
        completed
    }

    fn pop_completed(&mut self, now: Cycle) -> Option<HmcResponse> {
        self.completion.pop_due(now)
    }

    fn pending(&self) -> usize {
        self.completion.len()
    }

    fn next_completion(&self) -> Option<Cycle> {
        self.completion.next_at()
    }

    fn stats(&self) -> &HmcStats {
        &self.stats
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
    fn closed_page_config_never_hits() {
        let cfg = HbmConfig {
            open_page: false,
            ..HbmConfig::default()
        };
        let mut d = HbmDevice::new(&cfg);
        let first = d.submit(req(0x4000, ReqSize::B64, 0), 0);
        d.submit(req(0x4100, ReqSize::B64, first + 1), first + 1);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn different_rows_in_one_bank_conflict() {
        let cfg = HbmConfig::default();
        let mut d = HbmDevice::new(&cfg);
        // Rows that map to the same bank: stride = channels *
        // banks_per_channel rows.
        let stride = (cfg.channels * cfg.banks_per_channel) as u64 * cfg.row_bytes;
        d.submit(req(0, ReqSize::B256, 0), 0);
        d.submit(req(stride, ReqSize::B256, 1), 1);
        assert_eq!(d.stats().bank_conflicts, 1);
    }

    #[test]
    fn consecutive_rows_spread_over_channels() {
        let cfg = HbmConfig::default();
        let d = HbmDevice::new(&cfg);
        let (ch0, _, _) = d.locate(PhysAddr::new(0));
        let (ch1, _, _) = d.locate(PhysAddr::new(cfg.row_bytes));
        assert_ne!(ch0, ch1);
    }

    #[test]
    fn same_row_flits_share_bank_and_row() {
        let d = dev();
        let base = PhysAddr::new(0x10_0000);
        let (c0, b0, r0) = d.locate(base);
        for off in (16..1024).step_by(16) {
            assert_eq!(d.locate(base.offset(off)), (c0, b0, r0));
        }
    }

    #[test]
    fn burst_count_scales_service_time() {
        let mut small = dev();
        let mut large = dev();
        let t_small = small.submit(req(0x2000, ReqSize::B32, 0), 0);
        let t_large = large.submit(req(0x2000, ReqSize::B256, 0), 0);
        let cfg = HbmConfig::default();
        assert_eq!(t_large - t_small, (8 - 1) * cfg.t_burst_per_32b);
    }

    #[test]
    fn backpressure_via_channel_queue() {
        let cfg = HbmConfig {
            channel_queue_depth: 1,
            ..HbmConfig::default()
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
