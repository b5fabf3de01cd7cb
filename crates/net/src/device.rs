//! A network of HMC cubes behind one host attach point.
//!
//! [`NetDevice`] implements [`hmc_model::MemoryDevice`], so the
//! full-system simulator can swap it in wherever a single
//! [`hmc_model::HmcDevice`] fits. It attaches to the host through the
//! single cube's [`HostPort`] (packet sizes, host links, CRC retry) and
//! returns responses through the same [`ResponsePath`]; what it adds is
//! the cube address map, one vault/bank complex per cube, the routed
//! [`Fabric`] between them and [`NetStats`].
//!
//! A transaction's path generalizes the single-device pipeline:
//!
//! ```text
//! host links -> cube 0 [-> fabric hops -> cube k] -> logic -> vault
//!     -> logic [-> fabric hops -> cube 0] -> host links
//! ```
//!
//! With one cube the bracketed stages vanish and every arithmetic step —
//! including the link-retry RNG draw sequence — matches the single
//! device exactly; a 1-cube network is the single-device model, bit for
//! bit. That equivalence is what lets the chain-sweep experiments
//! attribute every cycle of divergence to the fabric itself.

use hmc_model::{HostPort, MemoryDevice, NetAddrMap, ResponsePath, VaultSet};
use mac_telemetry::Tracer;
use mac_types::{CubeId, Cycle, HmcConfig, HmcRequest, NetConfig};

use crate::fabric::Fabric;
use crate::stats::NetStats;
use crate::topology::Topology;

/// A multi-cube HMC network presenting as one memory device.
#[derive(Debug, Clone)]
pub struct NetDevice {
    map: NetAddrMap,
    topo: Topology,
    port: HostPort,
    fabric: Fabric,
    /// One vault/bank complex per cube.
    vaults: Vec<VaultSet>,
    net_stats: NetStats,
    responses: ResponsePath,
}

impl NetDevice {
    /// Build a cube network: `cfg` describes each cube (and the host
    /// links), `net` the network shape.
    pub fn new(cfg: &HmcConfig, net: &NetConfig) -> Self {
        let topo = Topology::new(net);
        NetDevice {
            map: NetAddrMap::new(cfg, net),
            port: HostPort::new(cfg),
            fabric: Fabric::new(cfg, &topo),
            vaults: (0..net.cubes).map(|_| VaultSet::new(cfg)).collect(),
            net_stats: NetStats::new(net.cubes),
            responses: ResponsePath::default(),
            topo,
        }
    }

    /// Serialize a request of `flits` through the host port, then
    /// forward it hop by hop to `dest`. Returns `(host link used, cycle
    /// fully arrived at dest)`.
    ///
    /// Exposed so a per-cube-placement system loop can push raw
    /// (un-coalesced) packets to a remote cube's ingress.
    pub fn deliver_request(&mut self, dest: u16, now: Cycle, flits: u64) -> (usize, Cycle) {
        let (link, mut t) = self.port.send_request(now, flits);
        for &edge in self.topo.route(0, dest) {
            t = self.fabric.forward(&self.topo, edge, t, flits, dest, false);
        }
        (link, t)
    }

    /// Forward a response of `flits` from cube `src` back to cube 0 hop
    /// by hop, then serialize it upstream on host link `link`. Returns
    /// the cycle it has fully arrived at the host.
    pub fn deliver_response(&mut self, src: u16, link: usize, now: Cycle, flits: u64) -> Cycle {
        let mut t = now;
        for &edge in self.topo.route(src, 0) {
            t = self.fabric.forward(&self.topo, edge, t, flits, 0, true);
        }
        self.port.send_response(link, t, flits)
    }

    /// Pass a request through its home cube's logic layer and vault,
    /// arriving at the cube at `at_cube`. Returns the owning cube, the
    /// cycle the response packet is ready to leave that cube, and
    /// whether the access hit a busy bank.
    pub fn cube_access(&mut self, req: &HmcRequest, at_cube: Cycle) -> (CubeId, Cycle, bool) {
        let (cube, loc) = self.map.locate(req.addr);
        let logic = HmcConfig::LOGIC_LATENCY;
        let sched = self.vaults[cube.0 as usize].schedule(loc, at_cube + logic, req.size.bytes());
        (cube, sched.done + logic, sched.conflict)
    }

    /// Record a finished access in the network stats and hand it to the
    /// response path for [`MemoryDevice::pop_completed`].
    pub fn finish_access(
        &mut self,
        req: HmcRequest,
        cube: CubeId,
        conflict: bool,
        completed: Cycle,
        now: Cycle,
    ) {
        let latency = self.responses.finish(req, conflict, completed, now);
        let hops = self.topo.route(0, cube.0).len();
        self.net_stats
            .record_access(cube.0, hops, conflict, latency);
    }

    /// The network's address map (cube + vault/bank decomposition).
    pub fn addr_map(&self) -> &NetAddrMap {
        &self.map
    }

    /// Network-level statistics, with fabric transit counters folded in.
    pub fn net_stats(&self) -> NetStats {
        let mut s = self.net_stats.clone();
        s.transit_flits = self.fabric.transit_flits();
        s.transit_busy_x16 = self.fabric.transit_busy_x16();
        s
    }

    /// Host-link CRC replays performed so far.
    pub fn retries(&self) -> u64 {
        self.port.retries()
    }
}

impl MemoryDevice for NetDevice {
    /// Whether the vault that would serve `req` has queue room at `now`,
    /// at whichever cube owns the address.
    fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool {
        let (cube, loc) = self.map.locate(req.addr);
        self.vaults[cube.0 as usize].can_accept(loc.vault, now)
    }

    fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle {
        let (cube, loc) = self.map.locate(req.addr);
        self.vaults[cube.0 as usize].next_accept(loc.vault, now)
    }

    /// Returns the cycle the response has fully arrived back at the
    /// host.
    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle {
        let (req_flits, rsp_flits) = HostPort::packet_flits(&req);
        let dest = self.map.cube_of(req.addr);
        let (link, at_cube) = self.deliver_request(dest.0, now, req_flits);
        let (cube, rsp_ready, conflict) = self.cube_access(&req, at_cube);
        debug_assert_eq!(cube, dest);
        let completed = self.deliver_response(cube.0, link, rsp_ready, rsp_flits);
        self.finish_access(req, cube, conflict, completed, now);
        completed
    }

    fn responses(&self) -> &ResponsePath {
        &self.responses
    }

    fn responses_mut(&mut self) -> &mut ResponsePath {
        &mut self.responses
    }

    /// Host-link and completion events keep the caller's node tag;
    /// vault and hop events are re-tagged with the cube id that
    /// produced them, so per-vault analyzers resolve per cube.
    fn set_tracer(&mut self, tracer: Tracer) {
        self.port.set_tracer(tracer.clone());
        for (c, v) in self.vaults.iter_mut().enumerate() {
            v.set_tracer(tracer.for_node(c as u16));
        }
        self.fabric.set_tracer(&tracer);
        self.responses.set_tracer(tracer);
    }

    /// Host-link utilization, fabric transit load, local/remote access
    /// counters, and per-cube vault queue depths plus access/conflict
    /// counters (scoped `cube{c}/...`).
    fn sample_metrics(&self, now: Cycle, s: &mut mac_metrics::Sampler<'_>) {
        s.counter("local_accesses", self.net_stats.local_accesses);
        s.counter("remote_accesses", self.net_stats.remote_accesses);
        s.gauge("inflight", self.pending() as u64);
        self.port.sample_metrics(s);
        self.fabric.sample_metrics(s);
        for (c, vaults) in self.vaults.iter().enumerate() {
            s.scoped(&format!("cube{c}"), |s| {
                s.counter("accesses", self.net_stats.per_cube_accesses[c]);
                s.counter("bank_conflicts", self.net_stats.per_cube_conflicts[c]);
                vaults.sample_metrics(now, s);
            });
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_model::HmcDevice;
    use mac_types::{CubeMapping, FlitMap, NetTopology, PhysAddr, ReqSize, Target, TransactionId};

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
            raw_ids: vec![TransactionId(at)],
            dispatched_at: at,
        }
    }

    fn net(cubes: usize) -> NetConfig {
        NetConfig {
            enabled: true,
            cubes,
            topology: NetTopology::DaisyChain,
            mapping: CubeMapping::Interleaved,
            ..NetConfig::default()
        }
    }

    /// The tentpole invariant: one cube behind the net layer is the
    /// single-device model, completion cycle for completion cycle, even
    /// with link-retry randomness in play.
    #[test]
    fn one_cube_matches_hmc_device_exactly() {
        for error_rate in [0.0, 0.25] {
            let cfg = HmcConfig {
                link_error_rate: error_rate,
                ..HmcConfig::default()
            };
            let mut single = HmcDevice::new(&cfg);
            let mut netdev = NetDevice::new(&cfg, &net(1));
            let mut t = 0u64;
            for i in 0..400u64 {
                t += i % 5;
                let addr = (i * 0x9E37_79B9) % (1 << 25);
                let size = match i % 3 {
                    0 => ReqSize::B16,
                    1 => ReqSize::B64,
                    _ => ReqSize::B256,
                };
                let a = single.submit(read_req(addr, size, t), t);
                let b = netdev.submit(read_req(addr, size, t), t);
                assert_eq!(a, b, "request {i} diverged (error rate {error_rate})");
            }
            assert_eq!(single.retries(), netdev.retries());
            assert_eq!(single.stats(), netdev.stats());
            let ns = netdev.net_stats();
            assert_eq!(ns.remote_accesses, 0);
            assert_eq!(ns.transit_flits, 0);
        }
    }

    #[test]
    fn remote_cubes_cost_hops() {
        let cfg = HmcConfig::default();
        let mut dev = NetDevice::new(&cfg, &net(4));
        // Interleaved mapping rotates cubes every 2^17 bytes.
        let group = 1u64 << 17;
        let local = dev.submit(read_req(0, ReqSize::B64, 0), 0);
        let far = dev.submit(read_req(3 * group, ReqSize::B64, 0), 0);
        let ns = dev.net_stats();
        assert_eq!(ns.local_accesses, 1);
        assert_eq!(ns.remote_accesses, 1);
        assert_eq!(ns.hops.max, 3);
        // 3 hops out + 3 back, each at least the forward latency.
        assert!(
            far >= local + 6 * NetConfig::FORWARD_LATENCY,
            "remote access ({far}) must pay 6 hops over local ({local})"
        );
        assert!(ns.transit_flits > 0);
    }

    #[test]
    fn chain_length_monotonically_raises_remote_latency() {
        // The sweep invariant the experiments rely on: pushing the same
        // far-cube traffic through longer chains costs more cycles.
        let cfg = HmcConfig::default();
        let mut means = Vec::new();
        for cubes in [2usize, 4, 8] {
            let mut dev = NetDevice::new(&cfg, &net(cubes));
            let group = 1u64 << 17;
            let mut t = 0;
            for i in 0..200u64 {
                t += 3;
                // Address the farthest cube in each network.
                let addr = (cubes as u64 - 1) * group + (i * 256) % group;
                dev.submit(read_req(addr, ReqSize::B64, t), t);
            }
            means.push(dev.net_stats().remote_latency.mean());
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "remote latency must grow with chain length: {means:?}"
        );
    }

    #[test]
    fn responses_drain_in_completion_order() {
        let mut dev = NetDevice::new(&HmcConfig::default(), &net(2));
        let group = 1u64 << 17;
        let t1 = dev.submit(read_req(group, ReqSize::B256, 0), 0);
        let t2 = dev.submit(read_req(0x40, ReqSize::B16, 0), 0);
        let all = dev.drain_completed(t1.max(t2));
        assert_eq!(all.len(), 2);
        assert!(all[0].completed_at <= all[1].completed_at);
        assert_eq!(dev.pending(), 0);
    }

    #[test]
    fn per_cube_backpressure_is_independent() {
        let cfg = HmcConfig {
            vault_queue_depth: 1,
            ..HmcConfig::default()
        };
        let mut dev = NetDevice::new(&cfg, &net(2));
        let group = 1u64 << 17;
        let local = read_req(0, ReqSize::B256, 0);
        let remote = read_req(group, ReqSize::B256, 0);
        dev.submit(local.clone(), 0);
        assert!(
            !MemoryDevice::can_accept(&mut dev, &local, 0),
            "cube 0 vault queue is full"
        );
        assert!(
            MemoryDevice::can_accept(&mut dev, &remote, 0),
            "cube 1's same-numbered vault is a different queue"
        );
    }
}
