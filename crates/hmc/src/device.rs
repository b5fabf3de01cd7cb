//! The assembled HMC device: links + crossbar/logic layer + vaults.
//!
//! [`HmcDevice::submit`] pushes one request transaction through the full
//! path and schedules its response;
//! [`MemoryDevice::pop_completed`](crate::MemoryDevice::pop_completed)
//! hands finished responses back to the front end in completion order.

use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, HmcConfig, HmcRequest, HmcResponse};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::addrmap::AddrMap;
use crate::completion::CompletionQueue;
use crate::link::LinkSet;
use crate::stats::HmcStats;
use crate::vault::VaultSet;

/// A simulated HMC cube.
#[derive(Debug, Clone)]
pub struct HmcDevice {
    map: AddrMap,
    links: LinkSet,
    vaults: VaultSet,
    stats: HmcStats,
    logic_latency: u64,
    /// Link retry injection (HMC CRC/retry protocol).
    link_error_rate: f64,
    retry_penalty: u64,
    rng: SmallRng,
    /// Retransmissions performed (stat).
    pub retries: u64,
    /// In-flight responses, due in completion order.
    completion: CompletionQueue,
    tracer: Tracer,
}

impl HmcDevice {
    /// Build a device for the given configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        HmcDevice {
            map: AddrMap::new(cfg),
            links: LinkSet::new(cfg),
            vaults: VaultSet::new(cfg),
            stats: HmcStats::default(),
            logic_latency: cfg.logic_latency,
            link_error_rate: cfg.link_error_rate.clamp(0.0, 0.99),
            retry_penalty: cfg.retry_penalty,
            rng: SmallRng::seed_from_u64(cfg.error_seed),
            retries: 0,
            completion: CompletionQueue::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer and propagate it to the links and vaults
    /// (disabled by default; tracing is observational).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.links.set_tracer(tracer.clone());
        self.vaults.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Whether the vault serving `addr` has queue room at `now`. Callers
    /// should hold the request and retry next cycle when this is false.
    pub fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool {
        let loc = self.map.locate(req.addr);
        self.vaults.can_accept(loc.vault, now)
    }

    /// Earliest cycle `>= now` at which [`HmcDevice::can_accept`] returns
    /// true for `req`. Non-mutating.
    pub fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle {
        let loc = self.map.locate(req.addr);
        self.vaults.next_accept(loc.vault, now)
    }

    /// Submit one request transaction at cycle `now` (non-decreasing
    /// across calls). Returns the cycle at which the response will have
    /// fully arrived back at the host.
    pub fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        let payload = req.size.bytes();
        // Packet lengths (§2.2.2): 1 control FLIT per packet; data FLITs
        // ride the request for writes, the response for reads. Atomics
        // carry one operand/result FLIT each way.
        let (req_flits, rsp_flits) = if req.is_atomic {
            (2, 2)
        } else if req.is_write {
            (1 + req.size.flits(), 1)
        } else {
            (1, 1 + req.size.flits())
        };

        let (link, mut at_cube) = self.links.send_request(now, req_flits);
        // Link retry: a CRC-failed packet is replayed from the retry
        // buffer after the timeout, re-serializing on the same link.
        while self.link_error_rate > 0.0 && self.rng.gen_bool(self.link_error_rate) {
            self.retries += 1;
            at_cube = self
                .links
                .send_response(link, at_cube + self.retry_penalty, 0)
                .max(at_cube + self.retry_penalty);
            let (_, resent) = self.links.send_request(at_cube, req_flits);
            at_cube = resent;
        }
        let at_vault = at_cube + self.logic_latency;
        let loc = self.map.locate(req.addr);
        let sched = self.vaults.schedule(loc, at_vault, payload);
        let rsp_ready = sched.done + self.logic_latency;
        let completed = self.links.send_response(link, rsp_ready, rsp_flits);

        let latency = completed.saturating_sub(req.dispatched_at.min(now));
        self.tracer.emit(completed, || TraceEvent::HmcComplete {
            addr: req.addr.raw(),
            targets: req.targets.len() as u8,
            latency,
        });
        self.stats.record_access(
            req.size,
            req.useful_bytes(),
            req.merged_count().max(1),
            sched.conflict,
            latency,
        );

        let rsp = HmcResponse {
            addr: req.addr,
            size: req.size,
            is_write: req.is_write,
            targets: req.targets,
            raw_ids: req.raw_ids,
            completed_at: completed,
            conflicts: sched.conflict as u64,
        };
        self.completion.push(completed, rsp);
        completed
    }

    /// Number of in-flight (submitted, not yet drained) transactions.
    pub fn pending(&self) -> usize {
        self.completion.len()
    }

    /// Earliest completion cycle among in-flight transactions, if any.
    /// Front ends use this to fast-forward idle periods.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.completion.next_at()
    }

    /// Accumulated device statistics.
    pub fn stats(&self) -> &HmcStats {
        &self.stats
    }

    /// Bank-busy cycles (utilization accounting).
    pub fn bank_busy_cycles(&self) -> u128 {
        self.vaults.bank_busy_cycles()
    }

    /// The device's address map (shared with front-end components).
    pub fn addr_map(&self) -> &AddrMap {
        &self.map
    }

    /// Append one metrics sample: cumulative access/conflict counters,
    /// in-flight transaction gauge, link FLIT utilization, per-vault
    /// queue depths. Observational — reads state, never mutates it.
    pub fn sample_metrics(&self, now: Cycle, s: &mut mac_metrics::Sampler<'_>) {
        s.counter("accesses", self.stats.accesses());
        s.counter("bank_conflicts", self.stats.bank_conflicts);
        s.gauge("inflight", self.completion.len() as u64);
        self.links.sample_metrics(s);
        self.vaults.sample_metrics(now, s);
    }
}

impl crate::device_trait::MemoryDevice for HmcDevice {
    fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool {
        HmcDevice::can_accept(self, req, now)
    }
    fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle {
        HmcDevice::next_accept(self, req, now)
    }
    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        HmcDevice::submit(self, req, now)
    }
    fn pop_completed(&mut self, now: Cycle) -> Option<HmcResponse> {
        self.completion.pop_due(now)
    }
    fn pending(&self) -> usize {
        HmcDevice::pending(self)
    }
    fn next_completion(&self) -> Option<Cycle> {
        HmcDevice::next_completion(self)
    }
    fn stats(&self) -> &crate::stats::HmcStats {
        HmcDevice::stats(self)
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        HmcDevice::set_tracer(self, tracer)
    }
    fn sample_metrics(&self, now: Cycle, s: &mut mac_metrics::Sampler<'_>) {
        HmcDevice::sample_metrics(self, now, s)
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
        let cfg = HmcConfig::default();
        let mut dev = HmcDevice::new(&cfg);
        let done = dev.submit(read_req(0x1000, ReqSize::B16, 0), 0);
        let ns = done as f64 / cfg.cpu_ghz;
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
        assert_eq!(dev.retries, 0);
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
            dirty.retries > 20,
            "expected retries at 30% BER: {}",
            dirty.retries
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
            (d.retries, d.stats().latency.sum)
        };
        assert_eq!(run(), run());
    }
}
