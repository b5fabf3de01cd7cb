//! The assembled HMC device: host port + crossbar/logic layer + vaults.
//!
//! [`MemoryDevice::submit`] pushes one request transaction through the
//! full path and hands the finished access to the device's
//! [`ResponsePath`], which returns responses to the front end in
//! completion order.

use mac_telemetry::Tracer;
use mac_types::{Cycle, HmcConfig, HmcRequest};

use crate::addrmap::AddrMap;
use crate::device_trait::MemoryDevice;
use crate::host::HostPort;
use crate::response::ResponsePath;
use crate::vault::VaultSet;

/// A simulated HMC cube.
#[derive(Debug, Clone)]
pub struct HmcDevice {
    map: AddrMap,
    port: HostPort,
    vaults: VaultSet,
    responses: ResponsePath,
}

impl HmcDevice {
    /// Build a device for the given configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        HmcDevice {
            map: AddrMap::new(cfg),
            port: HostPort::new(cfg),
            vaults: VaultSet::new(cfg),
            responses: ResponsePath::default(),
        }
    }

    /// Host-link CRC replays performed so far.
    pub fn retries(&self) -> u64 {
        self.port.retries()
    }
}

impl MemoryDevice for HmcDevice {
    /// Whether the vault serving `req` has queue room at `now`.
    fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool {
        let loc = self.map.locate(req.addr);
        self.vaults.can_accept(loc.vault, now)
    }

    fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle {
        let loc = self.map.locate(req.addr);
        self.vaults.next_accept(loc.vault, now)
    }

    /// Host link -> logic layer -> vault -> logic layer -> host link;
    /// returns the cycle the response has fully arrived at the host.
    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        let (req_flits, rsp_flits) = HostPort::packet_flits(&req);
        let (link, at_cube) = self.port.send_request(now, req_flits);
        let loc = self.map.locate(req.addr);
        let logic = HmcConfig::LOGIC_LATENCY;
        let sched = self.vaults.schedule(loc, at_cube + logic, req.size.bytes());
        let completed = self.port.send_response(link, sched.done + logic, rsp_flits);
        self.responses.finish(req, sched.conflict, completed, now);
        completed
    }

    fn responses(&self) -> &ResponsePath {
        &self.responses
    }

    fn responses_mut(&mut self) -> &mut ResponsePath {
        &mut self.responses
    }

    /// Attach a tracer and propagate it to the links and vaults
    /// (disabled by default; tracing is observational).
    fn set_tracer(&mut self, tracer: Tracer) {
        self.port.set_tracer(tracer.clone());
        self.vaults.set_tracer(tracer.clone());
        self.responses.set_tracer(tracer);
    }

    /// Cumulative access/conflict counters, the in-flight gauge, link
    /// FLIT utilization and per-vault queue depths.
    fn sample_metrics(&self, now: Cycle, s: &mut mac_metrics::Sampler<'_>) {
        s.counter("accesses", self.stats().accesses());
        s.counter("bank_conflicts", self.stats().bank_conflicts);
        s.gauge("inflight", self.pending() as u64);
        self.port.sample_metrics(s);
        self.vaults.sample_metrics(now, s);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryDevice;
    use mac_types::{FlitMap, PhysAddr, ReqSize, Target, TransactionId};

    fn read_req(addr: u64, size: ReqSize, at: Cycle) -> HmcRequest {
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
            raw_ids: vec![TransactionId(0)],
            dispatched_at: at,
        }
    }

    #[test]
    fn uncontended_16b_read_is_about_93ns() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let done = dev.submit(read_req(0x1000, ReqSize::B16, 0), 0);
        let ns = done as f64 / mac_types::SocConfig::FREQ_GHZ;
        assert!(
            (80.0..=105.0).contains(&ns),
            "uncontended read latency {ns:.1} ns should be near Table 1's 93 ns"
        );
    }

    #[test]
    fn responses_drain_in_completion_order() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        // Two requests to different vaults complete out of submission
        // order if the second is smaller... here same size: order by time.
        let t1 = dev.submit(read_req(0x0000, ReqSize::B256, 0), 0);
        let t2 = dev.submit(read_req(0x4100, ReqSize::B16, 0), 0);
        let all = dev.drain_completed(t1.max(t2));
        assert_eq!(all.len(), 2);
        assert!(all[0].completed_at <= all[1].completed_at);
        assert_eq!(dev.pending(), 0);
    }

    #[test]
    fn drain_respects_now() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let done = dev.submit(read_req(0x2000, ReqSize::B64, 0), 0);
        assert!(dev.drain_completed(done - 1).is_empty());
        assert_eq!(dev.pending(), 1);
        assert_eq!(dev.next_completion(), Some(done));
        assert_eq!(dev.drain_completed(done).len(), 1);
    }

    #[test]
    fn same_row_raw_requests_conflict() {
        // Figure 2's pathology end to end: 16 x 16 B reads of one row.
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let base = 0x8000u64;
        let mut last = 0;
        for i in 0..16 {
            last = dev.submit(read_req(base + i * 16, ReqSize::B16, i), i);
        }
        assert_eq!(dev.stats().bank_conflicts, 15);

        // The coalesced equivalent: one 256 B read, zero conflicts,
        // finishing far earlier.
        let mut dev2 = HmcDevice::new(&HmcConfig::default());
        let done = dev2.submit(read_req(base, ReqSize::B256, 0), 0);
        assert_eq!(dev2.stats().bank_conflicts, 0);
        assert!(done * 4 < last, "coalesced: {done}, raw last: {last}");
    }

    #[test]
    fn write_and_read_move_same_link_bytes() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        dev.submit(read_req(0x100, ReqSize::B128, 0), 0);
        let mut w = read_req(0x4200, ReqSize::B128, 0);
        w.is_write = true;
        dev.submit(w, 0);
        let s = dev.stats();
        assert_eq!(s.data_bytes, 2 * 128);
        assert_eq!(s.control_bytes, 2 * 32);
    }

    #[test]
    fn atomic_round_trip() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let mut a = read_req(0x300, ReqSize::B16, 0);
        a.is_atomic = true;
        let done = dev.submit(a, 0);
        assert!(done > 0);
        assert_eq!(dev.drain_completed(done).len(), 1);
    }

    #[test]
    fn stats_latency_tracks_round_trip() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        let done = dev.submit(read_req(0x100, ReqSize::B16, 100), 100);
        assert_eq!(dev.stats().latency.events, 1);
        assert_eq!(dev.stats().latency.max, done - 100);
    }

    #[test]
    fn backpressure_via_can_accept() {
        let cfg = HmcConfig {
            vault_queue_depth: 1,
            ..HmcConfig::default()
        };
        let mut dev = HmcDevice::new(&cfg);
        let r = read_req(0x0, ReqSize::B256, 0);
        assert!(dev.can_accept(&r, 0));
        dev.submit(r.clone(), 0);
        assert!(!dev.can_accept(&r, 0), "vault queue of 1 is now full");
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::MemoryDevice;
    use mac_types::{FlitMap, PhysAddr, ReqSize, Target, TransactionId};

    fn read_req(addr: u64, at: Cycle) -> HmcRequest {
        let a = PhysAddr::new(addr);
        let mut fm = FlitMap::new();
        fm.set(a.flit());
        HmcRequest {
            addr: a,
            size: ReqSize::B16,
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

    #[test]
    fn zero_error_rate_never_retries() {
        let mut dev = HmcDevice::new(&HmcConfig::default());
        for i in 0..100 {
            dev.submit(read_req(i * 0x1000, i), i);
        }
        assert_eq!(dev.retries(), 0);
    }

    #[test]
    fn error_injection_retries_and_slows() {
        let clean_cfg = HmcConfig::default();
        let dirty_cfg = HmcConfig {
            link_error_rate: 0.3,
            ..HmcConfig::default()
        };
        let mut clean = HmcDevice::new(&clean_cfg);
        let mut dirty = HmcDevice::new(&dirty_cfg);
        let (mut t_clean, mut t_dirty) = (0u64, 0u64);
        for i in 0..200u64 {
            t_clean = t_clean.max(clean.submit(read_req(i * 0x1000, i), i));
            t_dirty = t_dirty.max(dirty.submit(read_req(i * 0x1000, i), i));
        }
        assert!(
            dirty.retries() > 20,
            "expected retries at 30% BER: {}",
            dirty.retries()
        );
        assert!(
            dirty.stats().latency.mean() > clean.stats().latency.mean(),
            "retries must cost latency"
        );
        // All requests still complete exactly once.
        assert_eq!(dirty.drain_completed(t_dirty).len(), 200);
    }

    #[test]
    fn retry_runs_are_deterministic_in_the_seed() {
        let cfg = HmcConfig {
            link_error_rate: 0.2,
            ..HmcConfig::default()
        };
        let run = || {
            let mut d = HmcDevice::new(&cfg);
            for i in 0..100u64 {
                d.submit(read_req(i * 0x100, i), i);
            }
            (d.retries(), d.stats().latency.sum)
        };
        assert_eq!(run(), run());
    }
}
