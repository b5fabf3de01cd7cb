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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use mac_check::{ConformanceChecker, FinishProbe, StatsProbe};
use mac_coalescer::{Mac, MacEvent, RequestRouter, ResponseRouter, RoutedTo};

use crate::system::{AdaptState, AdaptWindow};
use mac_metrics::MetricsHub;
use mac_net::NetDevice;
use mac_telemetry::{Profiler, TraceEvent, Tracer, ROUTE_GLOBAL, ROUTE_LOCAL, ROUTE_STALLED};
use mac_types::{Cycle, FlitMap, HmcRequest, MemOpKind, NodeId, RawRequest, ReqSize, SystemConfig};
use soc_sim::{Node, ThreadProgram};

use crate::progress::{ProgressProbe, PHASE_DONE, PHASE_RUNNING};
use crate::report::RunReport;

/// One cube's ingress-side hardware: an arrival queue fed by the fabric
/// and the MAC that coalesces it.
struct CubeStage {
    mac: Mac,
    /// Raw requests in flight toward this cube, keyed by arrival cycle.
    ingress: BinaryHeap<Reverse<(Cycle, u64)>>,
    arriving: HashMap<u64, RawRequest>,
    /// Transactions dispatched by this cube's MAC, waiting for vault room.
    dispatch_q: VecDeque<HmcRequest>,
}

/// The full-system simulator for per-cube coalescer placement.
pub struct NetSystem {
    cfg: SystemConfig,
    node: Node,
    router: RequestRouter,
    dev: NetDevice,
    cubes: Vec<CubeStage>,
    rsp_router: ResponseRouter,
    /// Host link each raw request traveled out on; the coalesced
    /// response returns on the first merged raw's link.
    raw_link: HashMap<u64, usize>,
    seq: u64,
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
    /// and the MAC is in the path); see [`crate::system::AdaptState`].
    adapt: Option<AdaptState>,
}

impl NetSystem {
    /// Build a single-node system over a cube network with one MAC per
    /// cube. `cfg.net` must be enabled (a 1-cube network is allowed and
    /// degenerates to a host-adjacent MAC plus host-link serialization).
    pub fn new(cfg: &SystemConfig, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        let mut cfg = cfg.clone();
        cfg.soc.nodes = 1;
        let id = NodeId(0);
        let dev = NetDevice::new(&cfg.hmc, &cfg.net);
        let cubes = (0..cfg.net.cubes.max(1))
            .map(|_| CubeStage {
                mac: Mac::new(&cfg.mac),
                ingress: BinaryHeap::new(),
                arriving: HashMap::new(),
                dispatch_q: VecDeque::new(),
            })
            .collect();
        let adapt = AdaptState::try_new(&cfg);
        let mut sim = NetSystem {
            node: Node::new(id, &cfg.soc, programs),
            router: RequestRouter::new(id, cfg.mac.router_queue_depth),
            dev,
            cubes,
            rsp_router: ResponseRouter::new(),
            raw_link: HashMap::new(),
            seq: 0,
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
            cfg,
        };
        if let Some(a) = &sim.adapt {
            // Start every cube MAC from the bounds-clamped operating
            // point the controller believes in (see SystemSim).
            let d = a.ctl.current();
            for stage in &mut sim.cubes {
                stage.mac.set_pop_interval(d.pop_interval);
                stage.mac.set_bypass_enabled(d.bypass_enabled);
            }
        }
        sim
    }

    /// Select the run-loop mode: `true` ticks every cycle unconditionally
    /// (the reference behavior), `false` (the default) skips provably
    /// idle spans between component events. Both modes produce
    /// byte-identical [`RunReport`]s, traces, metrics, and checker
    /// observations (see [`crate::system::SystemSim::set_stepped`]).
    pub fn set_stepped(&mut self, stepped: bool) {
        self.stepped = stepped;
    }

    /// Attach a tracer: host-side events keep the caller's tag, each
    /// cube's MAC is re-tagged with its cube id (mirroring how
    /// [`NetDevice::set_tracer`] tags vault events per cube).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (c, stage) in self.cubes.iter_mut().enumerate() {
            stage.mac.set_tracer(tracer.for_node(c as u16));
        }
        self.dev.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attach a metrics hub (disabled by default). Sampling is
    /// observational and never changes simulated behavior.
    pub fn set_metrics(&mut self, metrics: MetricsHub) {
        self.metrics = metrics;
    }

    /// Attach a host-side wall-clock profiler (observational; see
    /// [`crate::system::SystemSim::set_profiler`]).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Attach a live progress probe (see
    /// [`crate::system::SystemSim::set_progress`]).
    pub fn set_progress(&mut self, progress: Arc<ProgressProbe>) {
        self.progress = Some(progress);
    }

    /// Attach a conformance checker (observational; see
    /// [`crate::system::SystemSim::set_checker`]).
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
        for stage in &self.cubes {
            let m = stage.mac.stats();
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
        }
        let h = self.dev.stats();
        p.device_accesses = h.accesses();
        p.device_raw_satisfied = h.raw_satisfied;
        p.device_data_bytes = h.data_bytes;
        p.device_useful_bytes = h.useful_bytes;
        if let Some(e) = h.consistency_error() {
            errs.push(e);
        }
        if let Some(e) = self.dev.net_stats().consistency_error() {
            errs.push(e);
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

    /// Take one metrics sample: host router, each cube's ingress MAC
    /// stage (scoped `cube{c}/mac/...`), and the network device (scoped
    /// `net/...`).
    fn take_metrics_sample(&self) {
        let now = self.now;
        self.metrics.sample(now, |s| {
            s.gauge("router_queue", self.router.queued() as u64);
            for (c, stage) in self.cubes.iter().enumerate() {
                s.scoped(&format!("cube{c}"), |s| {
                    s.gauge("ingress_queue", stage.ingress.len() as u64);
                    s.gauge("dispatch_queue", stage.dispatch_q.len() as u64);
                    s.scoped("mac", |s| stage.mac.sample_metrics(s));
                });
            }
            s.scoped("net", |s| self.dev.sample_metrics(now, s));
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

    /// Evaluate the adaptive controller at a decision boundary (summed
    /// over every cube's MAC; see [`crate::system::SystemSim`]'s
    /// identically-structured hook).
    fn adapt_decide(&mut self) {
        let now = self.now;
        match &self.adapt {
            Some(a) if a.last_decision != Some(now) => {}
            _ => return,
        }
        let (mut arq_len, mut arq_cap) = (0u64, 0u64);
        let mut cur = AdaptWindow::default();
        for stage in &self.cubes {
            arq_len += stage.mac.arq_len() as u64;
            arq_cap += stage.mac.arq_capacity() as u64;
            let m = stage.mac.stats();
            cur.raw_total += m.raw_memory_requests();
            cur.emitted_total += m.emitted_total();
            cur.emitted_bypass += m.emitted_bypass;
            cur.emitted_16b += m.emitted_by_size[0];
        }
        let h = self.dev.stats();
        cur.conflicts = h.bank_conflicts;
        cur.accesses = h.accesses();
        let dev_pending = self.dev.pending() as u64;
        let dev_vaults = self.cfg.hmc.vaults as u64;
        let a = self.adapt.as_mut().expect("checked");
        a.last_decision = Some(now);
        let s = a.signals(arq_len, arq_cap, dev_pending, dev_vaults, cur);
        if let Some(d) = a.ctl.observe(&s) {
            a.accepts = d.accepts_per_cycle;
            for stage in &mut self.cubes {
                stage.mac.set_pop_interval(d.pop_interval);
                stage.mac.set_bypass_enabled(d.bypass_enabled);
            }
            self.tracer.emit(now, || TraceEvent::AdaptDecision {
                pop_interval: d.pop_interval,
                accepts: d.accepts_per_cycle.min(u16::MAX as usize) as u16,
                bypass: d.bypass_enabled,
            });
        }
    }

    /// Request packet length in FLITs for one *raw* (un-coalesced)
    /// request: reads are a bare header, writes and atomics carry one
    /// 16 B data FLIT.
    fn raw_flits(kind: MemOpKind) -> u64 {
        match kind {
            MemOpKind::Load => 1,
            _ => 2,
        }
    }

    /// Wrap a raw request as a single-FLIT device transaction (the
    /// baseline path when the MAC is disabled everywhere).
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
        let mac_disabled = self.cfg.mac_disabled;

        // 1. Cores issue into the host router.
        let router = &mut self.router;
        let tracer = &self.tracer;
        let checker = &mut self.checker;
        self.node.tick(now, |raw| {
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

        // 2. Host packetizer: one raw request per cycle onto the network.
        if let Some(raw) = self.router.pop_for_mac() {
            if raw.kind == MemOpKind::Fence {
                // The host queue is FIFO and every earlier request has
                // already left for the network, so retiring here
                // preserves fence ordering.
                if let Some(c) = self.checker.as_mut() {
                    c.on_fence_retired(&raw, now);
                }
                self.node.complete_fence(&raw);
            } else {
                let dest = self.dev.addr_map().cube_of(raw.addr);
                let flits = Self::raw_flits(raw.kind);
                let (link, arrival) = self.dev.deliver_request(dest.0, now, flits);
                self.raw_link.insert(raw.id.0, link);
                let key = self.seq;
                self.seq += 1;
                let stage = &mut self.cubes[dest.0 as usize];
                stage.ingress.push(Reverse((arrival, key)));
                stage.arriving.insert(key, raw);
            }
        }

        // 3-4. Per-cube MAC stages and vault submission. With
        // adaptation off this reads the same static config value as
        // before, so the disabled path stays bit-identical.
        let accepts = self
            .adapt
            .as_ref()
            .map_or(self.cfg.mac.accepts_per_cycle.max(1), |a| a.accepts);
        for i in 0..self.cubes.len() {
            let stage = &mut self.cubes[i];

            // Arrivals feed the cube's MAC (or bypass it in baseline
            // mode), at the same accept rate a host MAC would have.
            for _ in 0..accepts {
                let Some(&Reverse((t, key))) = stage.ingress.peek() else {
                    break;
                };
                if t > now {
                    break;
                }
                stage.ingress.pop();
                let raw = stage.arriving.remove(&key).expect("queued arrival");
                if mac_disabled {
                    let txn = Self::raw_to_txn(&raw, now);
                    if let Some(c) = self.checker.as_mut() {
                        c.on_dispatch(&txn, now);
                    }
                    stage.dispatch_q.push_back(txn);
                    continue;
                }
                let backlog = stage.ingress.len();
                if !stage.mac.try_accept_with_backlog(raw, now, backlog) {
                    // ARQ full: put it back at the head (same key keeps
                    // heap order) and retry next cycle.
                    stage.ingress.push(Reverse((t, key)));
                    stage.arriving.insert(key, raw);
                    break;
                }
            }

            if !mac_disabled {
                for ev in stage.mac.tick(now) {
                    match ev {
                        MacEvent::Dispatch(req) => {
                            if let Some(c) = self.checker.as_mut() {
                                c.on_dispatch(&req, now);
                            }
                            stage.dispatch_q.push_back(req);
                        }
                        MacEvent::FenceRetired(raw) => {
                            // Unreachable in practice: fences retire at
                            // the host packetizer and never reach a cube.
                            if let Some(c) = self.checker.as_mut() {
                                c.on_fence_retired(&raw, now);
                            }
                            self.node.complete_fence(&raw);
                        }
                    }
                }
            }

            // Submit to the local vault complex while it has room; build
            // the coalesced response's return trip explicitly.
            while let Some(req) = self.cubes[i].dispatch_q.front() {
                if !self.dev.can_accept(req, now) {
                    break;
                }
                let req = self.cubes[i].dispatch_q.pop_front().expect("checked");
                let rsp_flits = NetDevice::packet_flits(&req).1;
                let (cube, rsp_ready, conflict) = self.dev.cube_access(&req, now);
                let mut link = None;
                for id in &req.raw_ids {
                    let l = self.raw_link.remove(&id.0);
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
        for rsp in self.dev.drain_completed(now) {
            if let Some(c) = self.checker.as_mut() {
                c.on_response(&rsp, now);
            }
            for cpl in self.rsp_router.expand(&rsp) {
                if let Some(c) = self.checker.as_mut() {
                    c.on_completion(cpl.id, now);
                }
                self.tracer
                    .emit(now, || TraceEvent::Fanout { id: cpl.id.0 });
                self.node.complete(cpl.id, now);
            }
        }

        self.now += 1;
        !self.is_idle()
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

    /// Earliest cycle `>= now` at which ticking could change any state,
    /// or `None` when every component is quiescent (the run loop then
    /// steps normally; see [`crate::system::SystemSim`]). Every
    /// contribution is a conservative lower bound on the component's next
    /// state change.
    fn next_event(&self) -> Option<Cycle> {
        use crate::system::merge_next;
        let now = self.now;
        let mut next = self.node.next_event(now);
        if !self.router.is_empty() {
            // The host packetizer pops one queued raw per cycle.
            next = merge_next(next, Some(now));
        }
        for stage in &self.cubes {
            if next == Some(now) {
                return next; // cannot get earlier
            }
            if let Some(&Reverse((t, _))) = stage.ingress.peek() {
                next = merge_next(next, Some(t.max(now)));
            }
            next = merge_next(next, stage.mac.next_event(now));
            if let Some(req) = stage.dispatch_q.front() {
                // The head blocks the queue until its vault admits it.
                next = merge_next(next, Some(self.dev.next_accept(req, now)));
            }
        }
        merge_next(next, self.dev.next_completion().map(|t| t.max(now)))
    }

    /// Advance `now` to the next component event (or `max_cycles`),
    /// visiting every metrics-interval and checker-batch boundary in
    /// between — identical clamping to
    /// [`crate::system::SystemSim`]'s idle-span skip.
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
                stop = stop
                    .min((self.now / crate::system::CHECK_BATCH + 1) * crate::system::CHECK_BATCH);
            }
            if let Some(aiv) = adapt_iv {
                // Decision boundaries are event-skip boundaries too
                // (see SystemSim::skip_idle_span for the safety
                // argument).
                stop = stop.min((self.now / aiv + 1) * aiv);
            }
            self.now = stop;
            // The skipped ticks were no-ops except for the node's cycle
            // counter, which a stepped run would have advanced to `stop`.
            self.node.sync_cycles(stop);
            if self.metrics.should_sample(self.now) {
                self.take_metrics_sample();
            }
            if self.checker.is_some() && self.now.is_multiple_of(crate::system::CHECK_BATCH) {
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
        // Per-phase wall-clock accumulators, folded into the profiler
        // once at run end (see SystemSim::run).
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
                p.update(self.now, self.node.completions());
            }
            if self.metrics.should_sample(self.now) {
                timed!(sample_ns, samples, self.take_metrics_sample());
            }
            if self.checker.is_some() && self.now.is_multiple_of(crate::system::CHECK_BATCH) {
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
            // Back off after failed skip attempts so dense phases pay at
            // most one wasted next_event() scan per MAX_SKIP_BACKOFF
            // ticks (see the identical loop in SystemSim::run).
            if !self.stepped {
                if self.skip_cooldown > 0 {
                    self.skip_cooldown -= 1;
                } else {
                    let before = self.now;
                    timed!(scan_ns, scans, self.skip_idle_span(max_cycles));
                    if self.now == before {
                        self.skip_backoff =
                            (self.skip_backoff.max(1) * 2).min(crate::system::MAX_SKIP_BACKOFF);
                        self.skip_cooldown = self.skip_backoff;
                    } else {
                        self.skip_backoff = 0;
                    }
                }
            }
        }
        if prof_on {
            self.profiler.accum("netsystem/run/step", step_ns, steps);
            self.profiler
                .accum("netsystem/run/event_scan", scan_ns, scans);
            self.profiler
                .accum("netsystem/run/checker", check_ns, checks);
            self.profiler
                .accum("netsystem/run/sampler", sample_ns, samples);
        }
        if let Some(p) = &self.progress {
            p.update(self.now, self.node.completions());
            p.set_phase(PHASE_DONE);
        }
        if self.metrics.is_enabled() {
            // Tail window (deduped when the run ends on a boundary).
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

    /// Snapshot the merged statistics (MAC stats merged over cubes).
    pub fn report(&mut self) -> RunReport {
        let mut report = RunReport {
            cycles: self.now,
            config: self.cfg.clone(),
            trace: self.tracer.summary(),
            ..RunReport::default()
        };
        report.soc = self.node.metrics();
        for stage in &self.cubes {
            report.mac.merge(stage.mac.stats());
        }
        report.hmc.merge(self.dev.stats());
        report.net.merge(&self.dev.net_stats());
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
