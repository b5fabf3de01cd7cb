//! The assembled system of Figure 4.
//!
//! Each node couples a [`soc_sim::Node`] (cores + threads), a
//! [`mac_coalescer::RequestRouter`], a [`mac_coalescer::Mac`], and an
//! [`hmc_model::HmcDevice`]. Multi-node systems exchange remote requests
//! and responses over an interconnect with a fixed one-way latency.
//!
//! Per simulated cycle:
//! 1. every node's cores advance and issue raw requests into their router;
//! 2. each router hands at most one raw request to its MAC (§4.1: the ARQ
//!    accepts one request per cycle);
//! 3. each MAC advances: ARQ pop (1 per 2 cycles), builder pipeline,
//!    bypass/atomic paths — dispatching transactions toward the HMC;
//! 4. transactions enter the HMC when its vault queues have room;
//! 5. completed responses fan out into per-request completions that wake
//!    the owning threads (local or across the interconnect).
//!
//! In baseline mode (`cfg.mac_disabled`) step 2–3 are replaced by a
//! direct path that wraps each raw request in a single-FLIT (16 B)
//! transaction — "without MAC" in the paper's Figures 10–17.

use std::collections::VecDeque;

use hmc_model::{DdrDevice, HbmDevice, HmcDevice, MemoryDevice};
use mac_check::ConformanceChecker;
use mac_coalescer::{Mac, RequestRouter, ResponseRouter};
use mac_metrics::Sampler;
use mac_net::NetDevice;
use mac_telemetry::{TraceEvent, Tracer, ROUTE_REMOTE_IN};
use mac_types::{
    Cycle, HmcRequest, MemBackend, MemOpKind, NodeId, RawRequest, SystemConfig, TransactionId,
};
use soc_sim::{Node, SocMetrics, ThreadProgram};

use crate::driver::{issue_into_router, merge_next, tick_mac, Fabric, RunDriver};

/// One node's hardware.
struct NodeInstance {
    node: Node,
    router: RequestRouter,
    mac: Mac,
    /// The 3D-stacked device behind this node (HMC or HBM, §4.3).
    hmc: Box<dyn MemoryDevice + Send>,
    rsp_router: ResponseRouter,
    /// Transactions dispatched by the MAC, waiting for vault-queue room.
    dispatch_q: VecDeque<HmcRequest>,
    /// Node-tagged tracer clone for events emitted by the system loop
    /// itself (routing, response fan-out).
    tracer: Tracer,
}

/// An in-flight interconnect message.
struct InFlight<T> {
    arrives_at: Cycle,
    payload: T,
}

/// The node array plus interconnect of host-side coalescing: the
/// [`Fabric`] behind [`SystemSim`].
pub struct NodeFabric {
    nodes: Vec<NodeInstance>,
    /// Remote raw requests in flight on the interconnect.
    net_requests: VecDeque<InFlight<RawRequest>>,
    /// Remote completions in flight back to their origin node.
    net_responses: VecDeque<InFlight<TransactionId>>,
    /// One-way interconnect latency.
    latency: Cycle,
    mac_disabled: bool,
    /// Whether every device completion wakes the run loop, on the cycle
    /// after it. A completion can let a thread at its outstanding cap
    /// issue on the next cycle, and remote completions must enter
    /// `net_responses` one cycle at a time, in cycle order. With uncapped
    /// threads on one node a completion only retires a request, so it
    /// waits for the next tick or [`Fabric::catch_up`] (DESIGN.md §14).
    completion_wakes: bool,
}

/// The full system simulator: host-side MACs, one per node.
pub type SystemSim = RunDriver<NodeFabric>;

impl SystemSim {
    /// Build a single-node system (the paper's evaluation configuration)
    /// from per-thread programs.
    pub fn new(cfg: &SystemConfig, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        SystemSim::new_multi(cfg, vec![programs])
    }

    /// Build a multi-node system; `programs[n]` are node `n`'s threads.
    pub fn new_multi(
        cfg: &SystemConfig,
        programs_per_node: Vec<Vec<Box<dyn ThreadProgram>>>,
    ) -> Self {
        assert!(!programs_per_node.is_empty());
        let mut cfg = cfg.clone();
        cfg.soc.nodes = programs_per_node.len();
        let nodes = programs_per_node
            .into_iter()
            .enumerate()
            .map(|(i, programs)| {
                let id = NodeId(i as u16);
                NodeInstance {
                    node: Node::new(id, &cfg.soc, programs),
                    router: RequestRouter::new(id, cfg.mac.router_queue_depth),
                    mac: Mac::new(&cfg.mac),
                    hmc: match cfg.backend {
                        // A multi-cube network slots in behind the same
                        // trait; at 1 cube it is the single device, bit
                        // for bit (mac-net's identity test).
                        MemBackend::Hmc if cfg.net.enabled => {
                            Box::new(NetDevice::new(&cfg.hmc, &cfg.net))
                                as Box<dyn MemoryDevice + Send>
                        }
                        MemBackend::Hmc => Box::new(HmcDevice::new(&cfg.hmc)),
                        MemBackend::Hbm => Box::new(HbmDevice::new(&cfg.hbm)),
                        MemBackend::Ddr => Box::new(DdrDevice::new(&cfg.ddr)),
                    },
                    rsp_router: ResponseRouter::new(),
                    dispatch_q: VecDeque::new(),
                    tracer: Tracer::disabled(),
                }
            })
            .collect();
        let fabric = NodeFabric {
            nodes,
            net_requests: VecDeque::new(),
            net_responses: VecDeque::new(),
            latency: cfg.soc.interconnect_latency,
            mac_disabled: cfg.mac_disabled,
            completion_wakes: cfg.soc.max_outstanding_per_thread != usize::MAX || cfg.soc.nodes > 1,
        };
        RunDriver::with_fabric(cfg, fabric)
    }
}

/// Origin node encoded in a transaction id (see `soc_sim::Node`).
fn origin_of(id: TransactionId) -> usize {
    id.origin_node() as usize
}

impl NodeInstance {
    /// Step 5: fan every response due by `due` out to its threads, in
    /// completion order, each stamped with its own completion cycle.
    /// Completions for another node's threads leave on the interconnect.
    #[inline]
    fn fan_out(
        &mut self,
        due: Cycle,
        latency: Cycle,
        net_responses: &mut VecDeque<InFlight<TransactionId>>,
        checker: &mut Option<ConformanceChecker>,
    ) {
        while let Some(rsp) = self.hmc.pop_completed(due) {
            let at = rsp.completed_at;
            if let Some(c) = checker.as_mut() {
                c.on_response(&rsp, at);
            }
            self.rsp_router.expand_each(&rsp, |cpl| {
                // Remote completions are recorded here too: the
                // expansion visits each raw exactly once regardless of
                // where its thread lives.
                if let Some(c) = checker.as_mut() {
                    c.on_completion(cpl.id, at);
                }
                if origin_of(cpl.id) == self.node.id().0 as usize {
                    self.tracer.emit(at, || TraceEvent::Fanout { id: cpl.id.0 });
                    self.node.complete(cpl.id, at);
                } else {
                    net_responses.push_back(InFlight {
                        arrives_at: at + latency,
                        payload: cpl.id,
                    });
                }
            });
        }
    }
}

impl Fabric for NodeFabric {
    const PROFILE_SCOPE: &'static str = "system";

    fn tick(&mut self, now: Cycle, accepts: usize, checker: &mut Option<ConformanceChecker>) {
        let latency = self.latency;
        let mac_disabled = self.mac_disabled;

        // Interconnect deliveries.
        while self
            .net_requests
            .front()
            .is_some_and(|m| m.arrives_at <= now)
        {
            let m = self.net_requests.pop_front().expect("checked");
            let dst = m.payload.home.0 as usize;
            let (id, addr) = (m.payload.id.0, m.payload.addr.raw());
            if !self.nodes[dst].router.accept_remote(m.payload) {
                // Remote queue full: retry next cycle.
                self.net_requests.push_front(InFlight {
                    arrives_at: now + 1,
                    payload: m.payload,
                });
                break;
            }
            self.nodes[dst].tracer.emit(now, || TraceEvent::RawRoute {
                id,
                addr,
                queue: ROUTE_REMOTE_IN,
            });
        }
        while self
            .net_responses
            .front()
            .is_some_and(|m| m.arrives_at <= now)
        {
            let m = self.net_responses.pop_front().expect("checked");
            let origin = origin_of(m.payload);
            let id = m.payload.0;
            self.nodes[origin]
                .tracer
                .emit(now, || TraceEvent::Fanout { id });
            self.nodes[origin].node.complete(m.payload, now);
        }

        for n in &mut self.nodes {
            // 1. Cores issue into the router.
            issue_into_router(&mut n.node, &mut n.router, &n.tracer, checker, now);

            // Remote requests leave for the interconnect.
            while let Some(raw) = n.router.pop_global() {
                self.net_requests.push_back(InFlight {
                    arrives_at: now + latency,
                    payload: raw,
                });
            }

            // 2–3. Feed and advance the MAC (or the baseline path).
            if mac_disabled {
                if let Some(raw) = n.router.pop_for_mac() {
                    if raw.kind == MemOpKind::Fence {
                        // No MAC: a fence retires once all earlier
                        // requests were dispatched — queues are FIFO, so
                        // retiring here preserves order.
                        if let Some(c) = checker.as_mut() {
                            c.on_fence_retired(&raw, now);
                        }
                        n.node.complete_fence(&raw);
                    } else {
                        let txn = HmcRequest::single_flit(&raw, now);
                        if let Some(c) = checker.as_mut() {
                            c.on_dispatch(&txn, now);
                        }
                        n.dispatch_q.push_back(txn);
                    }
                }
            } else {
                for _ in 0..accepts {
                    let Some(raw) = n.router.pop_for_mac() else {
                        break;
                    };
                    let backlog = n.router.queued();
                    if !n.mac.try_accept_with_backlog(raw, now, backlog) {
                        n.router.push_back_front(raw);
                        break;
                    }
                }
                tick_mac(&mut n.mac, &mut n.dispatch_q, &mut n.node, checker, now);
            }

            // 4. Submit to the device while vault queues have room.
            while let Some(req) = n.dispatch_q.front() {
                if n.hmc.can_accept(req, now) {
                    let req = n.dispatch_q.pop_front().expect("checked");
                    n.hmc.submit(req, now);
                } else {
                    break;
                }
            }

            // 5. Responses fan out to threads.
            n.fan_out(now, latency, &mut self.net_responses, checker);
        }
    }

    fn is_idle(&self) -> bool {
        self.net_requests.is_empty()
            && self.net_responses.is_empty()
            && self.nodes.iter().all(|n| {
                n.node.is_done()
                    && n.router.is_empty()
                    && n.mac.is_drained()
                    && n.dispatch_q.is_empty()
                    && n.hmc.pending() == 0
            })
    }

    /// Interconnect queues are FIFO, so their front entry's arrival time
    /// bounds the whole queue even when a full remote router delayed it.
    /// A device completion at `t` counts as an event at `t + 1`: fan-out
    /// is the last stage of a tick, so nothing it changes is read before
    /// the next one, and [`Fabric::catch_up`] delivers it at the landing
    /// cycle. It counts when completions wake (`completion_wakes`) or
    /// when nothing else will happen, so the run still ends on the cycle
    /// after its last response arrives.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = None;
        next = merge_next(
            next,
            self.net_requests.front().map(|m| m.arrives_at.max(now)),
        );
        next = merge_next(
            next,
            self.net_responses.front().map(|m| m.arrives_at.max(now)),
        );
        for n in &self.nodes {
            if next == Some(now) {
                break; // cannot get earlier
            }
            next = merge_next(next, n.node.next_event(now));
            if !n.router.is_empty() {
                // Queued raw requests feed the MAC (or baseline path)
                // on the very next tick.
                next = merge_next(next, Some(now));
            }
            next = merge_next(next, n.mac.next_event(now));
            if let Some(req) = n.dispatch_q.front() {
                // The head blocks the queue until the device admits it.
                next = merge_next(next, Some(n.hmc.next_accept(req, now)));
            }
            if self.completion_wakes {
                next = merge_next(next, n.hmc.next_completion().map(|t| (t + 1).max(now)));
            }
        }
        if next.is_some() || self.completion_wakes {
            return next;
        }
        let due = self.nodes.iter().filter_map(|n| n.hmc.next_completion());
        due.min().map(|t| (t + 1).max(now))
    }

    /// With more than one node, every hop lands at most one cycle after
    /// the earliest completion, so this delivers one cycle's responses,
    /// node by node, in the order a tick would.
    #[inline]
    fn catch_up(&mut self, now: Cycle, checker: &mut Option<ConformanceChecker>) {
        for n in &mut self.nodes {
            n.node.sync_cycles(now);
            n.fan_out(now - 1, self.latency, &mut self.net_responses, checker);
        }
    }

    fn completions(&self) -> u64 {
        self.nodes.iter().map(|n| n.node.completions()).sum()
    }

    fn soc(&mut self) -> SocMetrics {
        let mut soc = SocMetrics::default();
        for n in &mut self.nodes {
            let m = n.node.metrics();
            soc.cycles = soc.cycles.max(m.cycles);
            soc.instructions += m.instructions;
            soc.spm_accesses += m.spm_accesses;
            soc.mem_ops += m.mem_ops;
            soc.raw_requests += m.raw_requests;
            soc.completions += m.completions;
            soc.cores += m.cores;
            soc.threads += m.threads;
        }
        soc
    }

    fn macs(&self) -> impl Iterator<Item = &Mac> {
        self.nodes.iter().map(|n| &n.mac)
    }

    fn macs_mut(&mut self) -> impl Iterator<Item = &mut Mac> {
        self.nodes.iter_mut().map(|n| &mut n.mac)
    }

    fn devices(&self) -> impl Iterator<Item = &dyn MemoryDevice> {
        self.nodes.iter().map(|n| &*n.hmc as &dyn MemoryDevice)
    }

    /// Every node's MAC, device and loop events get a node-tagged clone.
    fn set_tracer(&mut self, tracer: &Tracer) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            let t = tracer.for_node(i as u16);
            n.mac.set_tracer(t.clone());
            n.hmc.set_tracer(t.clone());
            n.tracer = t;
        }
    }

    /// Every node's components, scoped `node{i}/...`.
    fn sample(&self, now: Cycle, s: &mut Sampler<'_>) {
        for (i, n) in self.nodes.iter().enumerate() {
            s.scoped(&format!("node{i}"), |s| {
                s.gauge("router_queue", n.router.queued() as u64);
                s.gauge("dispatch_queue", n.dispatch_q.len() as u64);
                n.mac.sample_metrics(s);
                s.scoped("hmc", |s| n.hmc.sample_metrics(now, s));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_sim::ReplayProgram;

    fn programs(per_thread: Vec<Vec<u64>>) -> Vec<Box<dyn ThreadProgram>> {
        per_thread
            .into_iter()
            .map(|addrs| Box::new(ReplayProgram::loads(addrs, 1)) as Box<dyn ThreadProgram>)
            .collect()
    }

    #[test]
    fn single_load_completes_end_to_end() {
        let cfg = SystemConfig::paper(1);
        let mut sim = SystemSim::new(&cfg, programs(vec![vec![0x1000]]));
        let r = sim.run(100_000);
        assert_eq!(r.soc.raw_requests, 1);
        assert_eq!(r.soc.completions, 1);
        assert_eq!(r.hmc.accesses(), 1);
        assert!(r.cycles > 300, "a memory round trip takes ~93 ns");
        assert!(r.cycles < 2_000);
    }

    #[test]
    fn same_row_loads_coalesce_in_the_full_system() {
        // 8 threads each load a different FLIT of one row, concurrently.
        let cfg = SystemConfig::paper(8);
        let addrs: Vec<Vec<u64>> = (0..8).map(|t| vec![0x4000 + t * 16]).collect();
        let mut sim = SystemSim::new(&cfg, programs(addrs));
        let r = sim.run(100_000);
        assert_eq!(r.soc.raw_requests, 8);
        assert_eq!(r.soc.completions, 8);
        assert!(
            r.hmc.accesses() < 8,
            "MAC should merge same-row requests: {} accesses",
            r.hmc.accesses()
        );
        assert!(r.mac.coalescing_efficiency() > 0.0);
    }

    #[test]
    fn baseline_mode_sends_raw_16b_requests() {
        let cfg = SystemConfig::paper(8).without_mac();
        let addrs: Vec<Vec<u64>> = (0..8).map(|t| vec![0x4000 + t * 16]).collect();
        let mut sim = SystemSim::new(&cfg, programs(addrs));
        let r = sim.run(100_000);
        assert_eq!(r.hmc.accesses(), 8, "no coalescing without MAC");
        assert_eq!(r.hmc.by_size[0], 8, "all 16 B");
    }

    #[test]
    fn mac_beats_baseline_on_conflict_heavy_pattern() {
        // Each thread streams through the same set of rows: raw requests
        // hammer one bank repeatedly; MAC merges them.
        let make = || {
            (0..8usize)
                .map(|t| {
                    let addrs: Vec<u64> = (0..64u64)
                        .map(|i| 0x10000 + i * 256 + (t as u64) * 16)
                        .collect();
                    Box::new(ReplayProgram::loads(addrs, 1)) as Box<dyn ThreadProgram>
                })
                .collect::<Vec<_>>()
        };
        let mut with = SystemSim::new(&SystemConfig::paper(8), make());
        let rw = with.run(10_000_000);
        let mut without = SystemSim::new(&SystemConfig::paper(8).without_mac(), make());
        let ro = without.run(10_000_000);
        assert!(rw.hmc.accesses() < ro.hmc.accesses());
        assert!(rw.hmc.bank_conflicts <= ro.hmc.bank_conflicts);
        assert!(
            rw.hmc.bandwidth_efficiency() > ro.hmc.bandwidth_efficiency(),
            "{} vs {}",
            rw.hmc.bandwidth_efficiency(),
            ro.hmc.bandwidth_efficiency()
        );
    }

    #[test]
    fn fences_complete_in_both_modes() {
        use mac_types::PhysAddr;
        use soc_sim::ThreadOp;
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
                addr: PhysAddr::new(0x200),
                kind: MemOpKind::Load,
            },
        ];
        for cfg in [SystemConfig::paper(1), SystemConfig::paper(1).without_mac()] {
            let p: Vec<Box<dyn ThreadProgram>> = vec![Box::new(ReplayProgram::new(ops.clone()))];
            let mut sim = SystemSim::new(&cfg, p);
            let r = sim.run(1_000_000);
            assert_eq!(r.soc.completions, 3, "mac_disabled={}", cfg.mac_disabled);
        }
    }

    #[test]
    fn two_node_system_serves_remote_accesses() {
        let mut cfg = SystemConfig::paper(2);
        cfg.soc.nodes = 2;
        // Node 0's thread reads rows 0 (local) and 1 (remote, node 1).
        let node0 = programs(vec![vec![0x000, 0x100]]);
        let node1 = programs(vec![vec![0x200]]); // row 2 -> node 0? 2%2=0 -> remote!
        let mut sim = SystemSim::new_multi(&cfg, vec![node0, node1]);
        let r = sim.run(1_000_000);
        assert_eq!(r.soc.raw_requests, 3);
        assert_eq!(r.soc.completions, 3);
        assert_eq!(r.hmc.accesses(), 3);
    }

    #[test]
    fn atomics_complete_end_to_end() {
        use mac_types::PhysAddr;
        use soc_sim::ThreadOp;
        let ops = vec![ThreadOp::Mem {
            addr: PhysAddr::new(0x300),
            kind: MemOpKind::Atomic,
        }];
        let p: Vec<Box<dyn ThreadProgram>> = vec![Box::new(ReplayProgram::new(ops))];
        let mut sim = SystemSim::new(&SystemConfig::paper(1), p);
        let r = sim.run(1_000_000);
        assert_eq!(r.soc.completions, 1);
        assert_eq!(r.mac.emitted_atomic, 1);
    }
}
