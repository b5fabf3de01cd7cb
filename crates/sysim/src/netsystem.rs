//! The per-cube-placement system loop (`MacPlacement::PerCube`).
//!
//! With the coalescer at the host ([`crate::system::SystemSim`] +
//! `config.net.enabled`), packets crossing the cube network are already
//! merged. This module models the alternative the placement study
//! compares against: one MAC at **each cube's ingress**. Raw 16 B
//! requests cross the host links and fabric individually, and coalescing
//! happens only against traffic bound for the same cube — trading extra
//! request-path link traffic for per-cube ARQ capacity and merge windows
//! that sit right next to the vaults they protect.
//!
//! Per simulated cycle:
//! 1. cores advance and issue raw requests into the host router;
//! 2. the host pops one raw request, wraps it as a single-packet network
//!    transfer (read = 1 FLIT header, write/atomic = 2 FLITs), and
//!    serializes it over the host links + fabric hops to its home cube
//!    (fences retire at the host — queues are FIFO, so ordering holds);
//! 3. each cube's ingress feeds arrivals into that cube's MAC (same
//!    accept rate as the host MAC) and advances it;
//! 4. dispatched transactions enter the local vault complex when its
//!    queues have room; the response packet is coalesced (one header +
//!    data) and returns over the fabric + the host link the first merged
//!    raw request arrived on;
//! 5. completed responses fan out into per-request completions.

use std::collections::VecDeque;

use hmc_model::{CompletionQueue, HostPort, MemoryDevice};
use mac_check::ConformanceChecker;
use mac_coalescer::{Mac, RequestRouter, ResponseRouter};
use mac_metrics::Sampler;
use mac_net::NetDevice;
use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, HmcRequest, MemOpKind, NodeId, RawRequest, SeqWindow, SystemConfig};
use soc_sim::{Node, SocMetrics, ThreadProgram};

use crate::driver::{issue_into_router, merge_next, tick_mac, Fabric, RunDriver};

/// One cube's ingress-side hardware: an arrival queue fed by the fabric
/// and the MAC that coalesces it.
struct CubeStage {
    mac: Mac,
    /// Raw requests in flight toward this cube, due at their arrival
    /// cycle.
    ingress: CompletionQueue<RawRequest>,
    /// Transactions dispatched by this cube's MAC, waiting for vault room.
    dispatch_q: VecDeque<HmcRequest>,
}

/// The host packetizer plus per-cube ingress stages of per-cube
/// coalescing: the [`Fabric`] behind [`NetSystem`].
pub struct CubeFabric {
    node: Node,
    router: RequestRouter,
    dev: NetDevice,
    cubes: Vec<CubeStage>,
    rsp_router: ResponseRouter,
    /// Host link each raw request traveled out on, keyed by raw id; the
    /// coalesced response returns on the first merged raw's link. The
    /// host pops raws in issue order, so ids ascend (fences leave gaps).
    raw_link: SeqWindow<usize>,
    /// Host-side tracer (routing, fan-out).
    tracer: Tracer,
    mac_disabled: bool,
    /// Whether every device completion wakes the run loop, on the cycle
    /// after it: only when threads are capped, since a completion can
    /// then let one issue on the next cycle. Otherwise it only retires a
    /// request, so it waits for the next tick or [`Fabric::catch_up`]
    /// (DESIGN.md §14).
    completion_wakes: bool,
}

/// The full-system simulator for per-cube coalescer placement.
pub type NetSystem = RunDriver<CubeFabric>;

impl NetSystem {
    /// Build a single-node system over a cube network with one MAC per
    /// cube. `cfg.net` must be enabled (a 1-cube network is allowed and
    /// degenerates to a host-adjacent MAC plus host-link serialization).
    pub fn new(cfg: &SystemConfig, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        let mut cfg = cfg.clone();
        cfg.soc.nodes = 1;
        let id = NodeId(0);
        let fabric = CubeFabric {
            node: Node::new(id, &cfg.soc, programs),
            router: RequestRouter::new(id, cfg.mac.router_queue_depth),
            dev: NetDevice::new(&cfg.hmc, &cfg.net),
            cubes: (0..cfg.net.cubes.max(1))
                .map(|_| CubeStage {
                    mac: Mac::new(&cfg.mac),
                    ingress: CompletionQueue::new(),
                    dispatch_q: VecDeque::new(),
                })
                .collect(),
            rsp_router: ResponseRouter::new(),
            raw_link: SeqWindow::new(),
            tracer: Tracer::disabled(),
            mac_disabled: cfg.mac_disabled,
            completion_wakes: cfg.soc.max_outstanding_per_thread != usize::MAX,
        };
        RunDriver::with_fabric(cfg, fabric)
    }
}

impl CubeFabric {
    /// Step 5: fan every response due by `due` out to its threads, in
    /// completion order, each stamped with its own completion cycle.
    #[inline]
    fn fan_out(&mut self, due: Cycle, checker: &mut Option<ConformanceChecker>) {
        while let Some(rsp) = self.dev.pop_completed(due) {
            let at = rsp.completed_at;
            if let Some(c) = checker.as_mut() {
                c.on_response(&rsp, at);
            }
            self.rsp_router.expand_each(&rsp, |cpl| {
                if let Some(c) = checker.as_mut() {
                    c.on_completion(cpl.id, at);
                }
                self.tracer.emit(at, || TraceEvent::Fanout { id: cpl.id.0 });
                self.node.complete(cpl.id, at);
            });
        }
    }
}

/// Request packet length in FLITs for one *raw* (un-coalesced) request:
/// reads are a bare header, writes and atomics carry one 16 B data FLIT.
fn raw_flits(kind: MemOpKind) -> u64 {
    match kind {
        MemOpKind::Load => 1,
        _ => 2,
    }
}

impl Fabric for CubeFabric {
    const PROFILE_SCOPE: &'static str = "netsystem";

    fn tick(&mut self, now: Cycle, accepts: usize, checker: &mut Option<ConformanceChecker>) {
        let mac_disabled = self.mac_disabled;

        // 1. Cores issue into the host router.
        issue_into_router(&mut self.node, &mut self.router, &self.tracer, checker, now);

        // 2. Host packetizer: one raw request per cycle onto the network.
        if let Some(raw) = self.router.pop_for_mac() {
            if raw.kind == MemOpKind::Fence {
                // The host queue is FIFO and every earlier request has
                // already left for the network, so retiring here
                // preserves fence ordering.
                if let Some(c) = checker.as_mut() {
                    c.on_fence_retired(&raw, now);
                }
                self.node.complete_fence(&raw);
            } else {
                let dest = self.dev.addr_map().cube_of(raw.addr);
                let (link, arrival) = self.dev.deliver_request(dest.0, now, raw_flits(raw.kind));
                self.raw_link.insert(raw.id.0, link);
                self.cubes[dest.0 as usize].ingress.push(arrival, raw);
            }
        }

        // 3-4. Per-cube MAC stages and vault submission.
        for i in 0..self.cubes.len() {
            let stage = &mut self.cubes[i];

            // Arrivals feed the cube's MAC (or bypass it in baseline
            // mode), at the same accept rate a host MAC would have.
            for _ in 0..accepts {
                let Some(&raw) = stage.ingress.peek_due(now) else {
                    break;
                };
                if mac_disabled {
                    let txn = HmcRequest::single_flit(&raw, now);
                    if let Some(c) = checker.as_mut() {
                        c.on_dispatch(&txn, now);
                    }
                    stage.dispatch_q.push_back(txn);
                } else if !stage
                    .mac
                    .try_accept_with_backlog(raw, now, stage.ingress.len() - 1)
                {
                    // ARQ full: the arrival stays at the head and retries
                    // next cycle.
                    break;
                }
                stage.ingress.pop_due(now);
            }

            if !mac_disabled {
                // Fences retire at the host packetizer and never reach a
                // cube, so the MAC retires none here in practice.
                tick_mac(
                    &mut stage.mac,
                    &mut stage.dispatch_q,
                    &mut self.node,
                    checker,
                    now,
                );
            }

            // Submit to the local vault complex while it has room; build
            // the coalesced response's return trip explicitly.
            while let Some(req) = self.cubes[i].dispatch_q.front() {
                if !self.dev.can_accept(req, now) {
                    break;
                }
                let req = self.cubes[i].dispatch_q.pop_front().expect("checked");
                let rsp_flits = HostPort::packet_flits(&req).1;
                let (cube, rsp_ready, conflict) = self.dev.cube_access(&req, now);
                let mut link = None;
                for id in &req.raw_ids {
                    let l = self.raw_link.remove(id.0);
                    if link.is_none() {
                        link = l;
                    }
                }
                let completed =
                    self.dev
                        .deliver_response(cube.0, link.unwrap_or(0), rsp_ready, rsp_flits);
                self.dev.finish_access(req, cube, conflict, completed, now);
            }
        }

        // 5. Responses fan out to threads.
        self.fan_out(now, checker);
    }

    fn is_idle(&self) -> bool {
        self.node.is_done()
            && self.router.is_empty()
            && self
                .cubes
                .iter()
                .all(|c| c.ingress.is_empty() && c.mac.is_drained() && c.dispatch_q.is_empty())
            && self.dev.pending() == 0
    }

    /// A device completion at `t` counts as an event at `t + 1`, which
    /// [`Fabric::catch_up`] delivers it at. It counts when completions
    /// wake (`completion_wakes`) or when nothing else will happen, so the
    /// run still ends on the cycle after its last response arrives.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = self.node.next_event(now);
        if !self.router.is_empty() {
            // The host packetizer pops one queued raw per cycle.
            next = merge_next(next, Some(now));
        }
        for stage in &self.cubes {
            if next == Some(now) {
                return next; // cannot get earlier
            }
            next = merge_next(next, stage.ingress.next_at().map(|t| t.max(now)));
            next = merge_next(next, stage.mac.next_event(now));
            if let Some(req) = stage.dispatch_q.front() {
                // The head blocks the queue until its vault admits it.
                next = merge_next(next, Some(self.dev.next_accept(req, now)));
            }
        }
        if next.is_some() && !self.completion_wakes {
            return next;
        }
        merge_next(next, self.dev.next_completion().map(|t| (t + 1).max(now)))
    }

    #[inline]
    fn catch_up(&mut self, now: Cycle, checker: &mut Option<ConformanceChecker>) {
        self.node.sync_cycles(now);
        self.fan_out(now - 1, checker);
    }

    fn completions(&self) -> u64 {
        self.node.completions()
    }

    fn soc(&mut self) -> SocMetrics {
        self.node.metrics()
    }

    fn macs(&self) -> impl Iterator<Item = &Mac> {
        self.cubes.iter().map(|c| &c.mac)
    }

    fn macs_mut(&mut self) -> impl Iterator<Item = &mut Mac> {
        self.cubes.iter_mut().map(|c| &mut c.mac)
    }

    fn devices(&self) -> impl Iterator<Item = &dyn MemoryDevice> {
        std::iter::once(&self.dev as &dyn MemoryDevice)
    }

    /// Host-side events keep the caller's tag, each cube's MAC is
    /// re-tagged with its cube id (mirroring how
    /// [`NetDevice::set_tracer`] tags vault events per cube).
    fn set_tracer(&mut self, tracer: &Tracer) {
        for (c, stage) in self.cubes.iter_mut().enumerate() {
            stage.mac.set_tracer(tracer.for_node(c as u16));
        }
        self.dev.set_tracer(tracer.clone());
        self.tracer = tracer.clone();
    }

    /// The host router, each cube's ingress MAC stage (scoped
    /// `cube{c}/...`), and the network device (scoped `net/...`).
    fn sample(&self, now: Cycle, s: &mut Sampler<'_>) {
        s.gauge("router_queue", self.router.queued() as u64);
        for (c, stage) in self.cubes.iter().enumerate() {
            s.scoped(&format!("cube{c}"), |s| {
                s.gauge("ingress_queue", stage.ingress.len() as u64);
                s.gauge("dispatch_queue", stage.dispatch_q.len() as u64);
                s.scoped("mac", |s| stage.mac.sample_metrics(s));
            });
        }
        s.scoped("net", |s| self.dev.sample_metrics(now, s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_workload, ExperimentConfig};
    use mac_types::{MacPlacement, NetTopology, PhysAddr};
    use mac_workloads::sg::ScatterGather;
    use soc_sim::{ReplayProgram, ThreadOp};

    fn small_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg
    }

    /// The acceptance golden: a 1-cube network with the MAC at the host
    /// reproduces the single-device path statistic for statistic.
    #[test]
    fn one_cube_host_only_matches_single_device() {
        let base = run_workload(&ScatterGather, &small_cfg());
        let mut cfg = small_cfg();
        cfg.system = cfg
            .system
            .with_net(1, NetTopology::DaisyChain, MacPlacement::HostOnly);
        let net = run_workload(&ScatterGather, &cfg);
        assert_eq!(base.cycles, net.cycles);
        assert_eq!(base.soc, net.soc);
        assert_eq!(base.mac, net.mac);
        assert_eq!(base.hmc, net.hmc);
        assert_eq!(net.net.remote_accesses, 0);
        assert_eq!(net.net.accesses(), base.hmc.accesses());
    }

    /// The acceptance sweep: the *same* far-cube traffic costs more
    /// remote latency as the chain grows, at the full-system level.
    /// (Uncontrolled workloads confound this — more cubes also spread
    /// vault contention — so the sweep pins all traffic on the chain's
    /// last cube.)
    #[test]
    fn chain_sweep_raises_remote_latency() {
        let group = 1u64 << 17; // Interleaved mapping: cube rotates per 128 KB.
        let mut means = Vec::new();
        for cubes in [2u64, 4, 8] {
            let cfg = SystemConfig::paper(4).with_net(
                cubes as usize,
                NetTopology::DaisyChain,
                MacPlacement::HostOnly,
            );
            let programs: Vec<Box<dyn ThreadProgram>> = (0..4u64)
                .map(|t| {
                    let addrs: Vec<u64> = (0..64u64)
                        .map(|i| (cubes - 1) * group + (t * 64 + i) * 256)
                        .collect();
                    Box::new(ReplayProgram::loads(addrs, 1)) as Box<dyn ThreadProgram>
                })
                .collect();
            let mut sim = crate::system::SystemSim::new(&cfg, programs);
            let r = sim.run(10_000_000);
            assert_eq!(r.soc.raw_requests, r.soc.completions, "cubes={cubes}");
            assert_eq!(r.net.local_accesses, 0, "all traffic is remote");
            means.push(r.net.remote_latency.mean());
        }
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "remote latency must grow with chain length: {means:?}"
        );
    }

    #[test]
    fn per_cube_placement_completes_all_requests() {
        let mut cfg = small_cfg();
        cfg.system = cfg
            .system
            .with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
        let r = run_workload(&ScatterGather, &cfg);
        assert_eq!(r.soc.raw_requests, r.soc.completions);
        assert!(r.net.remote_accesses > 0, "traffic must reach cube 1");
        assert_eq!(r.net.accesses(), r.hmc.accesses());
        assert!(
            r.mac.coalescing_efficiency() > 0.0,
            "per-cube MACs still merge same-cube rows"
        );
    }

    #[test]
    fn per_cube_coalesces_same_row_loads() {
        // 8 loads into different FLITs of one row, all on cube 0.
        let cfg =
            SystemConfig::paper(8).with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
        let programs: Vec<Box<dyn ThreadProgram>> = (0..8u64)
            .map(|t| {
                Box::new(ReplayProgram::loads(vec![0x4000 + t * 16], 1)) as Box<dyn ThreadProgram>
            })
            .collect();
        let mut sim = NetSystem::new(&cfg, programs);
        let r = sim.run(1_000_000);
        assert_eq!(r.soc.completions, 8);
        assert!(
            r.hmc.accesses() < 8,
            "cube 0's MAC should merge same-row requests: {}",
            r.hmc.accesses()
        );
    }

    #[test]
    fn fences_and_atomics_complete_per_cube() {
        let ops = vec![
            ThreadOp::Mem {
                addr: PhysAddr::new(0x100),
                kind: MemOpKind::Load,
            },
            ThreadOp::Mem {
                addr: PhysAddr::new(0),
                kind: MemOpKind::Fence,
            },
            ThreadOp::Mem {
                addr: PhysAddr::new(1 << 17),
                kind: MemOpKind::Atomic,
            },
        ];
        for base in [SystemConfig::paper(1), SystemConfig::paper(1).without_mac()] {
            let cfg = base.with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
            let p: Vec<Box<dyn ThreadProgram>> = vec![Box::new(ReplayProgram::new(ops.clone()))];
            let mut sim = NetSystem::new(&cfg, p);
            let r = sim.run(1_000_000);
            assert_eq!(r.soc.completions, 3, "mac_disabled={}", cfg.mac_disabled);
        }
    }

    /// Raw request packets pay the fabric: for traffic that coalesces,
    /// per-cube placement moves more request FLITs across the chain than
    /// host-side coalescing (which merges *before* the hop).
    #[test]
    fn per_cube_pays_more_request_traffic() {
        // 8 loads into one row of cube 1: host-side MAC sends one
        // packet over the fabric; per-cube MACs see 8 raw packets.
        let mk = |placement| {
            let cfg = SystemConfig::paper(8).with_net(2, NetTopology::DaisyChain, placement);
            let programs: Vec<Box<dyn ThreadProgram>> = (0..8u64)
                .map(|t| {
                    Box::new(ReplayProgram::loads(vec![(1 << 17) + 0x4000 + t * 16], 1))
                        as Box<dyn ThreadProgram>
                })
                .collect();
            match placement {
                MacPlacement::PerCube => NetSystem::new(&cfg, programs).run(1_000_000),
                MacPlacement::HostOnly => {
                    crate::system::SystemSim::new(&cfg, programs).run(1_000_000)
                }
            }
        };
        let host = mk(MacPlacement::HostOnly);
        let per_cube = mk(MacPlacement::PerCube);
        assert_eq!(host.soc.completions, 8);
        assert_eq!(per_cube.soc.completions, 8);
        assert!(host.hmc.accesses() < 8, "host MAC merges before the hop");
        assert!(
            per_cube.net.transit_flits > host.net.transit_flits,
            "per-cube: {} flits, host-only: {} flits",
            per_cube.net.transit_flits,
            host.net.transit_flits
        );
    }
}
