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
use mac_check::{ConformanceChecker, FinishProbe, StatsProbe};
use mac_coalescer::{
    AdaptDecision, AdaptSignals, AdaptiveController, Mac, MacEvent, RequestRouter, ResponseRouter,
    RoutedTo,
};
use std::sync::Arc;

use mac_metrics::MetricsHub;
use mac_net::NetDevice;
use mac_telemetry::{
    Profiler, TraceEvent, Tracer, ROUTE_GLOBAL, ROUTE_LOCAL, ROUTE_REMOTE_IN, ROUTE_STALLED,
};
use mac_types::{
    Cycle, FlitMap, HmcRequest, MemBackend, MemOpKind, NodeId, RawRequest, ReqSize, SystemConfig,
    TransactionId,
};
use soc_sim::{Node, ThreadProgram};

use crate::progress::{ProgressProbe, PHASE_DONE, PHASE_RUNNING};
use crate::report::RunReport;

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
    /// Completions addressed to remote nodes, waiting for the interconnect.
    outbound_rsp: VecDeque<(Cycle, TransactionId)>,
    /// Node-tagged tracer clone for events emitted by the system loop
    /// itself (routing, response fan-out).
    tracer: Tracer,
}

/// An in-flight interconnect message.
struct InFlight<T> {
    arrives_at: Cycle,
    payload: T,
}

/// The full system simulator.
pub struct SystemSim {
    cfg: SystemConfig,
    nodes: Vec<NodeInstance>,
    /// Remote raw requests in flight on the interconnect.
    net_requests: VecDeque<InFlight<RawRequest>>,
    /// Remote completions in flight back to their origin node.
    net_responses: VecDeque<InFlight<TransactionId>>,
    now: Cycle,
    /// Force cycle-by-cycle stepping (the reference mode the event-driven
    /// fast path must match byte for byte; see DESIGN.md §14).
    stepped: bool,
    /// Current skip-attempt backoff (doubles per failed attempt, resets
    /// on success; see the run loop).
    skip_backoff: Cycle,
    /// Cycles left before the next skip attempt.
    skip_cooldown: Cycle,
    tracer: Tracer,
    metrics: MetricsHub,
    profiler: Profiler,
    progress: Option<Arc<ProgressProbe>>,
    checker: Option<ConformanceChecker>,
    /// Adaptive-controller runtime state (`Some` iff `cfg.adapt.enabled`
    /// and the MAC is in the path); `None` keeps every hot-loop read on
    /// the static config, bit for bit.
    adapt: Option<AdaptState>,
}

/// How often the attached conformance checker cross-checks aggregate
/// statistics (every this many cycles).
pub(crate) const CHECK_BATCH: Cycle = 1024;

/// Cap on the skip-attempt backoff: during dense phases at most one
/// wasted `next_event` scan per this many ticks, while an idle span is
/// entered at most this many ticks late (then skipped in full).
pub(crate) const MAX_SKIP_BACKOFF: Cycle = 64;

/// Fold a component's next-event time into the running minimum.
pub(crate) fn merge_next(next: Option<Cycle>, t: Option<Cycle>) -> Option<Cycle> {
    match (next, t) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Cumulative counters the adaptive controller's window signals are
/// derived from (summed over every MAC/device in the system).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AdaptWindow {
    pub(crate) raw_total: u64,
    pub(crate) emitted_total: u64,
    pub(crate) emitted_bypass: u64,
    pub(crate) emitted_16b: u64,
    pub(crate) conflicts: u64,
    pub(crate) accesses: u64,
}

/// Runtime state of the adaptive controller, shared by both run loops
/// ([`SystemSim`] and [`crate::netsystem::NetSystem`]). Lives *outside*
/// `self.cfg`: the config cloned into the report must stay the one the
/// run was requested with (cache reattachment depends on it), so the
/// effective operating point is tracked here and applied to the MACs via
/// their retune setters.
pub(crate) struct AdaptState {
    pub(crate) ctl: AdaptiveController,
    /// Decision cadence in cycles (sanitized, ≥ 1). Decision points are
    /// also event-skip clamp boundaries, so both run-loop modes visit
    /// exactly the same boundaries.
    pub(crate) interval: Cycle,
    /// Effective accept width; the tick loops read this instead of
    /// `cfg.mac.accepts_per_cycle` while adaptation is enabled.
    pub(crate) accepts: usize,
    /// Counter snapshot at the previous decision boundary.
    pub(crate) prev: AdaptWindow,
    /// Boundary a decision was last evaluated at, guarding against a
    /// double evaluation when the tick loop and the skip loop both land
    /// on the same cycle.
    pub(crate) last_decision: Option<Cycle>,
}

impl AdaptState {
    /// Build the runtime state when `cfg.adapt.enabled`, starting the
    /// controller from the static MacConfig operating point.
    pub(crate) fn try_new(cfg: &SystemConfig) -> Option<AdaptState> {
        if !cfg.adapt.enabled || cfg.mac_disabled {
            return None;
        }
        let ctl = AdaptiveController::new(
            &cfg.adapt,
            AdaptDecision {
                pop_interval: cfg.mac.pop_interval,
                accepts_per_cycle: cfg.mac.accepts_per_cycle.max(1),
                bypass_enabled: cfg.mac.bypass_enabled,
            },
        );
        Some(AdaptState {
            interval: ctl.config().interval,
            accepts: ctl.current().accepts_per_cycle,
            ctl,
            prev: AdaptWindow::default(),
            last_decision: None,
        })
    }

    /// Derive one observation's signals from the instantaneous ARQ
    /// occupancy and device backlog and the counter deltas since the
    /// previous boundary, then roll the window forward.
    pub(crate) fn signals(
        &mut self,
        arq_len: u64,
        arq_cap: u64,
        dev_pending: u64,
        dev_vaults: u64,
        cur: AdaptWindow,
    ) -> AdaptSignals {
        fn milli(num: u64, den: u64) -> u32 {
            (num * 1000).checked_div(den).unwrap_or(0).min(1000) as u32
        }
        let p = self.prev;
        let raw = cur.raw_total.saturating_sub(p.raw_total);
        let emitted = cur.emitted_total.saturating_sub(p.emitted_total);
        let s = AdaptSignals {
            arq_occupancy_milli: milli(arq_len, arq_cap),
            device_backlog_milli: milli(dev_pending, dev_vaults),
            merge_yield_milli: milli(raw.saturating_sub(emitted), raw),
            bypass_share_milli: milli(cur.emitted_bypass.saturating_sub(p.emitted_bypass), emitted),
            small_packet_share_milli: milli(cur.emitted_16b.saturating_sub(p.emitted_16b), emitted),
            conflict_rate_milli: milli(
                cur.conflicts.saturating_sub(p.conflicts),
                cur.accesses.saturating_sub(p.accesses),
            ),
        };
        self.prev = cur;
        s
    }
}

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
                    outbound_rsp: VecDeque::new(),
                    tracer: Tracer::disabled(),
                }
            })
            .collect();
        let adapt = AdaptState::try_new(&cfg);
        let mut sim = SystemSim {
            cfg,
            nodes,
            net_requests: VecDeque::new(),
            net_responses: VecDeque::new(),
            now: 0,
            stepped: false,
            skip_backoff: 0,
            skip_cooldown: 0,
            tracer: Tracer::disabled(),
            metrics: MetricsHub::disabled(),
            profiler: Profiler::disabled(),
            progress: None,
            checker: None,
            adapt,
        };
        if let Some(a) = &sim.adapt {
            // The controller clamps the static operating point into the
            // configured bounds; make the MACs start from that same
            // point so controller belief and hardware state agree.
            let d = a.ctl.current();
            for n in &mut sim.nodes {
                n.mac.set_pop_interval(d.pop_interval);
                n.mac.set_bypass_enabled(d.bypass_enabled);
            }
        }
        sim
    }

    /// Select the run-loop mode: `true` ticks every cycle unconditionally
    /// (the reference behavior), `false` (the default) skips provably
    /// idle spans between component events. Both modes produce
    /// byte-identical [`RunReport`]s, traces, metrics, and checker
    /// observations; stepping exists for the golden equivalence tests.
    pub fn set_stepped(&mut self, stepped: bool) {
        self.stepped = stepped;
    }

    /// Attach a tracer and propagate node-tagged clones to every node's
    /// MAC and device. Tracing is observational: it never changes
    /// simulated behavior (see the cycle-identity test below).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            let t = tracer.for_node(i as u16);
            n.mac.set_tracer(t.clone());
            n.hmc.set_tracer(t.clone());
            n.tracer = t;
        }
        self.tracer = tracer;
    }

    /// Attach a metrics hub (disabled by default). Like tracing,
    /// sampling is observational: it reads component state once per
    /// interval and never changes simulated behavior.
    pub fn set_metrics(&mut self, metrics: MetricsHub) {
        self.metrics = metrics;
    }

    /// Attach a host-side wall-clock profiler (disabled by default).
    /// The run loop accumulates per-phase time (component-step,
    /// idle-span scan, checker, sampler) locally and folds it into the
    /// profiler once at run end, so enabled profiling adds only clock
    /// reads to the hot loop and disabled profiling is one branch.
    /// Profiling is observational: it never changes simulated behavior,
    /// reports, or fingerprints.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Attach a live progress probe (see [`ProgressProbe`]): the run
    /// loop stores the current cycle and completion count into it every
    /// tick with relaxed atomics, for streaming observers.
    pub fn set_progress(&mut self, progress: Arc<ProgressProbe>) {
        self.progress = Some(progress);
    }

    /// Attach a conformance checker. Like tracing and metrics, checking
    /// is observational: the run loop feeds it every accepted issue,
    /// dispatch, response, completion, and fence retirement, plus a
    /// statistics snapshot every 1024 cycles (`CHECK_BATCH`), and never
    /// reads it back.
    pub fn set_checker(&mut self, checker: ConformanceChecker) {
        self.checker = Some(checker);
    }

    /// Detach the conformance checker (after `run`, to inspect its
    /// verdict). `run` already called `finish` on it.
    pub fn take_checker(&mut self) -> Option<ConformanceChecker> {
        self.checker.take()
    }

    /// Snapshot the aggregate statistics the checker cross-checks, plus
    /// any per-component self-check failures.
    fn stats_probe(&self) -> (StatsProbe, Vec<String>) {
        let mut p = StatsProbe::default();
        let mut errs = Vec::new();
        for n in &self.nodes {
            let m = n.mac.stats();
            p.mac_raw_memory += m.raw_memory_requests();
            p.mac_raw_fences += m.raw_fences;
            p.mac_fences_retired += m.fences_retired;
            p.mac_emitted_total += m.emitted_total();
            p.mac_emitted_split += m.emitted_bypass + m.emitted_built + m.emitted_atomic;
            p.mac_emitted_bypass_built += m.emitted_bypass + m.emitted_built;
            p.mac_pop_groups += m.targets_per_entry.events;
            p.mac_targets_sum += m.targets_per_entry.sum;
            if let Some(e) = m.consistency_error() {
                errs.push(e);
            }
            let h = n.hmc.stats();
            p.device_accesses += h.accesses();
            p.device_raw_satisfied += h.raw_satisfied;
            p.device_data_bytes += h.data_bytes;
            p.device_useful_bytes += h.useful_bytes;
            if let Some(e) = h.consistency_error() {
                errs.push(e);
            }
            if let Some(net) = n.hmc.as_any().downcast_ref::<NetDevice>() {
                if let Some(e) = net.net_stats().consistency_error() {
                    errs.push(e);
                }
            }
        }
        (p, errs)
    }

    /// Feed the checker one statistics cross-check.
    fn check_stats(&mut self) {
        if self.checker.is_none() {
            return;
        }
        let (probe, errs) = self.stats_probe();
        let now = self.now;
        let checker = self.checker.as_mut().expect("checked");
        for e in &errs {
            checker.on_component_error(now, e);
        }
        checker.on_cycle_batch(now, &probe);
    }

    /// Take one metrics sample of every node's components, scoped
    /// `node{i}/...`.
    fn take_metrics_sample(&self) {
        let now = self.now;
        self.metrics.sample(now, |s| {
            for (i, n) in self.nodes.iter().enumerate() {
                s.scoped(&format!("node{i}"), |s| {
                    s.gauge("router_queue", n.router.queued() as u64);
                    s.gauge("dispatch_queue", n.dispatch_q.len() as u64);
                    n.mac.sample_metrics(s);
                    s.scoped("hmc", |s| n.hmc.sample_metrics(now, s));
                });
            }
            if let Some(a) = &self.adapt {
                s.scoped("adapt", |s| {
                    let d = a.ctl.current();
                    s.gauge("pop_interval", d.pop_interval);
                    s.gauge("accepts", a.accepts as u64);
                    s.gauge("bypass_enabled", d.bypass_enabled as u64);
                    s.gauge("retunes", a.ctl.retunes());
                });
            }
        });
    }

    /// Evaluate the adaptive controller at a decision boundary: derive
    /// the window signals from the (summed) MAC and device counters,
    /// and apply any retune to every node's MAC uniformly. Guarded so a
    /// boundary reached by both the tick loop and the skip loop is
    /// evaluated exactly once.
    fn adapt_decide(&mut self) {
        let now = self.now;
        match &self.adapt {
            Some(a) if a.last_decision != Some(now) => {}
            _ => return,
        }
        let (mut arq_len, mut arq_cap) = (0u64, 0u64);
        let (mut dev_pending, mut dev_vaults) = (0u64, 0u64);
        let mut cur = AdaptWindow::default();
        for n in &self.nodes {
            arq_len += n.mac.arq_len() as u64;
            arq_cap += n.mac.arq_capacity() as u64;
            dev_pending += n.hmc.pending() as u64;
            dev_vaults += self.cfg.hmc.vaults as u64;
            let m = n.mac.stats();
            cur.raw_total += m.raw_memory_requests();
            cur.emitted_total += m.emitted_total();
            cur.emitted_bypass += m.emitted_bypass;
            cur.emitted_16b += m.emitted_by_size[0];
            let h = n.hmc.stats();
            cur.conflicts += h.bank_conflicts;
            cur.accesses += h.accesses();
        }
        let a = self.adapt.as_mut().expect("checked");
        a.last_decision = Some(now);
        let s = a.signals(arq_len, arq_cap, dev_pending, dev_vaults, cur);
        if let Some(d) = a.ctl.observe(&s) {
            a.accepts = d.accepts_per_cycle;
            for n in &mut self.nodes {
                n.mac.set_pop_interval(d.pop_interval);
                n.mac.set_bypass_enabled(d.bypass_enabled);
            }
            self.tracer.emit(now, || TraceEvent::AdaptDecision {
                pop_interval: d.pop_interval,
                accepts: d.accepts_per_cycle.min(u16::MAX as usize) as u16,
                bypass: d.bypass_enabled,
            });
        }
    }

    /// Origin node encoded in a transaction id (see `soc_sim::Node`).
    fn origin_of(id: TransactionId) -> usize {
        id.origin_node() as usize
    }

    /// Wrap a raw request as a single-FLIT device transaction (the
    /// baseline "without MAC" path, and also the remote-atomic path).
    fn raw_to_txn(raw: &RawRequest, now: Cycle) -> HmcRequest {
        let mut fm = FlitMap::new();
        fm.set(raw.addr.flit());
        HmcRequest {
            addr: raw.addr.flit_base(),
            size: ReqSize::B16,
            is_write: raw.kind == MemOpKind::Store,
            is_atomic: raw.kind == MemOpKind::Atomic,
            flit_map: fm,
            targets: vec![raw.target],
            raw_ids: vec![raw.id],
            dispatched_at: now,
        }
    }

    /// Advance one cycle. Returns `true` while work remains.
    fn tick(&mut self) -> bool {
        let now = self.now;
        let latency = self.cfg.soc.interconnect_latency;
        let mac_disabled = self.cfg.mac_disabled;
        // With adaptation off this reads the same static config value as
        // before, so the disabled path stays bit-identical.
        let accepts = self
            .adapt
            .as_ref()
            .map_or(self.cfg.mac.accepts_per_cycle.max(1), |a| a.accepts);

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
            let origin = Self::origin_of(m.payload);
            let id = m.payload.0;
            self.nodes[origin]
                .tracer
                .emit(now, || TraceEvent::Fanout { id });
            self.nodes[origin].node.complete(m.payload, now);
        }

        let checker = &mut self.checker;
        for n in &mut self.nodes {
            // 1. Cores issue into the router.
            let router = &mut n.router;
            let tracer = &n.tracer;
            n.node.tick(now, |raw| {
                let (id, addr) = (raw.id.0, raw.addr.raw());
                let routed = router.route(raw);
                tracer.emit(now, || TraceEvent::RawRoute {
                    id,
                    addr,
                    queue: match routed {
                        RoutedTo::Local => ROUTE_LOCAL,
                        RoutedTo::Global => ROUTE_GLOBAL,
                        RoutedTo::Stalled => ROUTE_STALLED,
                    },
                });
                let accepted = routed != RoutedTo::Stalled;
                if accepted {
                    if let Some(c) = checker.as_mut() {
                        c.on_raw_issued(&raw, now);
                    }
                }
                accepted
            });

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
                        let txn = Self::raw_to_txn(&raw, now);
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
                for ev in n.mac.tick(now) {
                    match ev {
                        MacEvent::Dispatch(req) => {
                            if let Some(c) = checker.as_mut() {
                                c.on_dispatch(&req, now);
                            }
                            n.dispatch_q.push_back(req);
                        }
                        MacEvent::FenceRetired(raw) => {
                            if let Some(c) = checker.as_mut() {
                                c.on_fence_retired(&raw, now);
                            }
                            n.node.complete_fence(&raw);
                        }
                    }
                }
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
            for rsp in n.hmc.drain_completed(now) {
                if let Some(c) = checker.as_mut() {
                    c.on_response(&rsp, now);
                }
                for cpl in n.rsp_router.expand(&rsp) {
                    // Remote completions are recorded here too: expand
                    // visits each raw exactly once regardless of where
                    // its thread lives.
                    if let Some(c) = checker.as_mut() {
                        c.on_completion(cpl.id, now);
                    }
                    let origin = Self::origin_of(cpl.id);
                    if origin == n.node.id().0 as usize {
                        n.tracer.emit(now, || TraceEvent::Fanout { id: cpl.id.0 });
                        n.node.complete(cpl.id, now);
                    } else {
                        n.outbound_rsp.push_back((now + latency, cpl.id));
                    }
                }
            }
            while let Some((t, id)) = n.outbound_rsp.pop_front() {
                self.net_responses.push_back(InFlight {
                    arrives_at: t,
                    payload: id,
                });
            }
        }

        self.now += 1;
        !self.is_idle()
    }

    fn is_idle(&self) -> bool {
        self.net_requests.is_empty()
            && self.net_responses.is_empty()
            && self.nodes.iter().all(|n| {
                n.node.is_done()
                    && n.router.is_empty()
                    && n.mac.is_drained()
                    && n.dispatch_q.is_empty()
                    && n.outbound_rsp.is_empty()
                    && n.hmc.pending() == 0
            })
    }

    /// Earliest cycle `>= now` at which ticking could change any state,
    /// or `None` when every component is quiescent (ticking is a no-op
    /// until external input that will never come — i.e. the run is over
    /// or deadlocked; the run loop then steps normally so both cases
    /// terminate exactly as in stepped mode).
    ///
    /// Every contribution is a conservative *lower* bound: reporting an
    /// event too early merely costs a no-op tick, reporting one too late
    /// would change behavior and is never done. Interconnect queues are
    /// FIFO, so their front entry's arrival time bounds the whole queue
    /// even when a full remote router delayed it.
    fn next_event(&self) -> Option<Cycle> {
        let now = self.now;
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
            next = merge_next(next, n.hmc.next_completion().map(|t| t.max(now)));
        }
        next
    }

    /// Advance `now` to the next component event (or `max_cycles`),
    /// visiting every metrics-interval and checker-batch boundary in
    /// between so observers see exactly the cycles stepped mode shows
    /// them. Only provably idle cycles are skipped: `next_event`
    /// guarantees a tick at each skipped cycle would have changed
    /// nothing.
    fn skip_idle_span(&mut self, max_cycles: Cycle) {
        let Some(next) = self.next_event() else {
            return;
        };
        let target = next.min(max_cycles);
        let adapt_iv = self.adapt.as_ref().map(|a| a.interval);
        while self.now < target {
            let mut stop = target;
            let iv = self.metrics.interval();
            if let Some(next) = self.now.checked_div(iv) {
                stop = stop.min((next + 1) * iv);
            }
            if self.checker.is_some() {
                stop = stop.min((self.now / CHECK_BATCH + 1) * CHECK_BATCH);
            }
            if let Some(aiv) = adapt_iv {
                // Decision boundaries are visited exactly like metrics
                // and checker boundaries, so both run-loop modes feed
                // the controller identical observation sequences. A
                // mid-skip retune cannot invalidate `target`: `next_pop`
                // is absolute, the accept width only matters when a
                // queue already forces `next == now`, and the bypass
                // switch only changes behavior at pop time.
                stop = stop.min((self.now / aiv + 1) * aiv);
            }
            self.now = stop;
            // The skipped ticks were no-ops except for the per-node
            // cycle counter, which a stepped run would have advanced to
            // `stop`; observers below (and the final report) read it.
            for n in &mut self.nodes {
                n.node.sync_cycles(stop);
            }
            if self.metrics.should_sample(self.now) {
                self.take_metrics_sample();
            }
            if self.checker.is_some() && self.now.is_multiple_of(CHECK_BATCH) {
                self.check_stats();
            }
            if adapt_iv.is_some_and(|aiv| self.now.is_multiple_of(aiv)) {
                self.adapt_decide();
            }
        }
    }

    /// Run to completion (or `max_cycles`) and produce the report.
    pub fn run(&mut self, max_cycles: Cycle) -> RunReport {
        let prof_on = self.profiler.is_enabled();
        // Per-phase wall-clock accumulators (component-step, idle-span
        // event scan, checker, sampler), folded into the profiler once
        // at run end so the hot loop never locks or allocates for it.
        let (mut step_ns, mut steps) = (0u64, 0u64);
        let (mut scan_ns, mut scans) = (0u64, 0u64);
        let (mut check_ns, mut checks) = (0u64, 0u64);
        let (mut sample_ns, mut samples) = (0u64, 0u64);
        macro_rules! timed {
            ($ns:ident, $n:ident, $e:expr) => {
                if prof_on {
                    let t0 = std::time::Instant::now();
                    let r = $e;
                    $ns += t0.elapsed().as_nanos() as u64;
                    $n += 1;
                    r
                } else {
                    $e
                }
            };
        }
        if let Some(p) = &self.progress {
            p.set_phase(PHASE_RUNNING);
        }
        while self.now < max_cycles {
            let more = timed!(step_ns, steps, self.tick());
            if let Some(p) = &self.progress {
                let retired = self.nodes.iter().map(|n| n.node.completions()).sum();
                p.update(self.now, retired);
            }
            if self.metrics.should_sample(self.now) {
                timed!(sample_ns, samples, self.take_metrics_sample());
            }
            if self.checker.is_some() && self.now.is_multiple_of(CHECK_BATCH) {
                timed!(check_ns, checks, self.check_stats());
            }
            if self
                .adapt
                .as_ref()
                .is_some_and(|a| self.now.is_multiple_of(a.interval))
            {
                self.adapt_decide();
            }
            if !more {
                break;
            }
            // Attempting a skip costs a full next_event() scan, which is
            // pure overhead on traffic-dense phases where no cycle can be
            // skipped. Back off exponentially after each failed attempt
            // (skipping fewer cycles is always byte-safe) and retry
            // eagerly again after any success.
            if !self.stepped {
                if self.skip_cooldown > 0 {
                    self.skip_cooldown -= 1;
                } else {
                    let before = self.now;
                    timed!(scan_ns, scans, self.skip_idle_span(max_cycles));
                    if self.now == before {
                        self.skip_backoff = (self.skip_backoff.max(1) * 2).min(MAX_SKIP_BACKOFF);
                        self.skip_cooldown = self.skip_backoff;
                    } else {
                        self.skip_backoff = 0;
                    }
                }
            }
        }
        if prof_on {
            self.profiler.accum("system/run/step", step_ns, steps);
            self.profiler.accum("system/run/event_scan", scan_ns, scans);
            self.profiler.accum("system/run/checker", check_ns, checks);
            self.profiler
                .accum("system/run/sampler", sample_ns, samples);
        }
        if let Some(p) = &self.progress {
            let retired = self.nodes.iter().map(|n| n.node.completions()).sum();
            p.update(self.now, retired);
            p.set_phase(PHASE_DONE);
        }
        if self.metrics.is_enabled() {
            // Tail window: capture the final state even when the run did
            // not end on an interval boundary (deduped when it did).
            self.take_metrics_sample();
        }
        self.tracer.flush();
        let report = self.report();
        if self.checker.is_some() {
            let idle = self.is_idle();
            let (stats, errs) = self.stats_probe();
            let now = self.now;
            let probe = FinishProbe {
                idle,
                soc_raw_requests: report.soc.raw_requests,
                soc_completions: report.soc.completions,
                stats,
            };
            if let Some(checker) = self.checker.as_mut() {
                for e in &errs {
                    checker.on_component_error(now, e);
                }
                checker.finish(&probe, now);
            }
        }
        report
    }

    /// Snapshot the merged statistics.
    pub fn report(&mut self) -> RunReport {
        let mut report = RunReport {
            cycles: self.now,
            config: self.cfg.clone(),
            trace: self.tracer.summary(),
            ..RunReport::default()
        };
        for n in &mut self.nodes {
            let m = n.node.metrics();
            report.soc.cycles = report.soc.cycles.max(m.cycles);
            report.soc.instructions += m.instructions;
            report.soc.spm_accesses += m.spm_accesses;
            report.soc.mem_ops += m.mem_ops;
            report.soc.raw_requests += m.raw_requests;
            report.soc.completions += m.completions;
            report.soc.cores += m.cores;
            report.soc.threads += m.threads;
            report.mac.merge(n.mac.stats());
            report.hmc.merge(n.hmc.stats());
            if let Some(net) = n.hmc.as_any().downcast_ref::<NetDevice>() {
                report.net.merge(&net.net_stats());
            }
        }
        report
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
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
