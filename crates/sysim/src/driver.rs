//! The one run driver behind both system loops.
//!
//! The Figure 4 pipeline (cores → router → MAC → device → fan-out) is
//! the same whether the MAC sits at the host or at each cube's ingress;
//! only the wiring differs. [`RunDriver`] owns everything that does not
//! depend on the wiring: the clock, stepped/skip mode and the skip
//! backoff, the idle-span skip with its boundary clamp, the observers
//! (tracer, metrics hub, profiler, progress probe, conformance
//! checker), the adaptive controller's decision hook, and the
//! end-of-run report and checker finish. A [`Fabric`] supplies the
//! wiring: one cycle's tick, its next-event bound, idleness, and access
//! to its MACs and devices. [`crate::SystemSim`] and
//! [`crate::NetSystem`] are the two instantiations, so the byte-identity
//! argument of DESIGN.md §14 is made here, once.

use std::collections::VecDeque;
use std::sync::Arc;

use hmc_model::MemoryDevice;
use mac_check::{ConformanceChecker, FinishProbe, StatsProbe};
use mac_coalescer::{
    AdaptDecision, AdaptSignals, AdaptiveController, Mac, MacEvent, RequestRouter, RoutedTo,
};
use mac_metrics::{MetricsHub, Sampler};
use mac_net::NetDevice;
use mac_telemetry::{Profiler, TraceEvent, Tracer, ROUTE_GLOBAL, ROUTE_LOCAL, ROUTE_STALLED};
use mac_types::{Cycle, HmcRequest, SystemConfig};
use soc_sim::{Node, SocMetrics};

use crate::progress::{ProgressProbe, PHASE_DONE, PHASE_RUNNING};
use crate::report::RunReport;

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

/// Pipeline step 1 in both topologies: tick `node`'s cores at `now`,
/// routing each issued raw request into `router`. The node refuses an
/// issue whose router queue is full by itself, without building the
/// request (`Node::tick_bounded`). Every routing outcome is traced; an
/// accepted issue is fed to the checker.
pub(crate) fn issue_into_router(
    node: &mut Node,
    router: &mut RequestRouter,
    tracer: &Tracer,
    checker: &mut Option<ConformanceChecker>,
    now: Cycle,
) {
    let (local_room, global_room) = router.free_slots();
    node.tick_bounded(
        now,
        local_room,
        global_room,
        |raw| {
            let queue = match router.route(raw) {
                RoutedTo::Local => ROUTE_LOCAL,
                RoutedTo::Global => ROUTE_GLOBAL,
                RoutedTo::Stalled => unreachable!("the node issues only into free slots"),
            };
            tracer.emit(now, || TraceEvent::RawRoute {
                id: raw.id.0,
                addr: raw.addr.raw(),
                queue,
            });
            if let Some(c) = checker.as_mut() {
                c.on_raw_issued(&raw, now);
            }
        },
        |id, addr| {
            tracer.emit(now, || TraceEvent::RawRoute {
                id: id.0,
                addr: addr.raw(),
                queue: ROUTE_STALLED,
            })
        },
    );
}

/// Advance `mac` one cycle: dispatched transactions join `dispatch_q`,
/// retired fences complete at `node`, and the checker sees both.
pub(crate) fn tick_mac(
    mac: &mut Mac,
    dispatch_q: &mut VecDeque<HmcRequest>,
    node: &mut Node,
    checker: &mut Option<ConformanceChecker>,
    now: Cycle,
) {
    mac.tick_with(now, |ev| match ev {
        MacEvent::Dispatch(req) => {
            if let Some(c) = checker.as_mut() {
                c.on_dispatch(&req, now);
            }
            dispatch_q.push_back(req);
        }
        MacEvent::FenceRetired(raw) => {
            if let Some(c) = checker.as_mut() {
                c.on_fence_retired(&raw, now);
            }
            node.complete_fence(&raw);
        }
    });
}

/// The cycle the idle-span skip may jump to from `now` on its way to
/// `target` (`now < target`): `target`, clamped to the first
/// metrics-interval (`metrics_iv`, 0 when sampling is off),
/// checker-batch (when `checker_on`) or adapt-decision (`adapt_iv`)
/// boundary after `now`. Observers run at each such boundary exactly as
/// they do after the matching tick in stepped mode.
pub(crate) fn skip_stop(
    now: Cycle,
    target: Cycle,
    metrics_iv: Cycle,
    checker_on: bool,
    adapt_iv: Option<Cycle>,
) -> Cycle {
    let next_multiple = |iv: Cycle| (now / iv + 1) * iv;
    let mut stop = target;
    if metrics_iv > 0 {
        stop = stop.min(next_multiple(metrics_iv));
    }
    if checker_on {
        stop = stop.min(next_multiple(CHECK_BATCH));
    }
    if let Some(aiv) = adapt_iv {
        stop = stop.min(next_multiple(aiv));
    }
    stop
}

/// One topology's hardware, ticked by a [`RunDriver`].
///
/// Implementations hold only topology-specific state. Everything they
/// report must be a pure function of that state: the driver relies on
/// [`Fabric::next_event`] being a conservative lower bound (DESIGN.md
/// §14) to skip cycles without changing a single byte of output.
pub trait Fabric {
    /// Profiler path prefix of this loop's run phases
    /// (`<scope>/run/step`, `<scope>/run/event_scan`, ...).
    const PROFILE_SCOPE: &'static str;

    /// Advance every component by cycle `now`, feeding the checker (if
    /// attached) each accepted issue, dispatch, response, completion and
    /// fence retirement. `accepts` is the MAC accept width this cycle.
    fn tick(&mut self, now: Cycle, accepts: usize, checker: &mut Option<ConformanceChecker>);

    /// Earliest cycle `>= now` at which a tick could change any state a
    /// [`Fabric::catch_up`] would not, or `None` when every component is
    /// quiescent. Must never be later than the true next such change.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// Whether all work has drained.
    fn is_idle(&self) -> bool;

    /// Catch up, at the landing cycle `now` of one skip hop, on what the
    /// skipped ticks would have done: bring the SoC cycle counters to
    /// `now` and fan out every device response due before `now` in
    /// completion order, feeding the checker as a tick would. Runs
    /// before the hop's observers.
    fn catch_up(&mut self, now: Cycle, checker: &mut Option<ConformanceChecker>);

    /// Requests completed back to threads so far.
    fn completions(&self) -> u64;

    /// The SoC statistics, merged over nodes.
    fn soc(&mut self) -> SocMetrics;

    /// Every MAC, in a fixed order.
    fn macs(&self) -> impl Iterator<Item = &Mac>;

    /// Every MAC, mutably, in the same order.
    fn macs_mut(&mut self) -> impl Iterator<Item = &mut Mac>;

    /// Every memory device, in a fixed order.
    fn devices(&self) -> impl Iterator<Item = &dyn MemoryDevice>;

    /// Propagate a tracer to the components (re-tagged as the topology
    /// sees fit).
    fn set_tracer(&mut self, tracer: &Tracer);

    /// Append the topology's gauges to one metrics sample.
    fn sample(&self, now: Cycle, s: &mut Sampler<'_>);
}

/// Cumulative counters the adaptive controller's window signals are
/// derived from (summed over every MAC/device in the system).
#[derive(Debug, Default, Clone, Copy)]
struct AdaptWindow {
    raw_total: u64,
    emitted_total: u64,
}

/// Runtime state of the adaptive controller. Lives *outside* the
/// driver's config: the config cloned into the report must stay the one
/// the run was requested with (cache reattachment depends on it), so the
/// effective operating point is tracked here and applied to the MACs via
/// their retune setters.
struct AdaptState {
    ctl: AdaptiveController,
    /// Decision cadence in cycles (sanitized, ≥ 1). Decision points are
    /// also event-skip clamp boundaries, so both run-loop modes visit
    /// exactly the same boundaries.
    interval: Cycle,
    /// Effective accept width; ticks read this instead of
    /// `cfg.mac.accepts_per_cycle` while adaptation is enabled.
    accepts: usize,
    /// Counter snapshot at the previous decision boundary.
    prev: AdaptWindow,
    /// Boundary a decision was last evaluated at, guarding against a
    /// double evaluation when the tick loop and the skip loop both land
    /// on the same cycle.
    last_decision: Option<Cycle>,
}

impl AdaptState {
    /// Build the runtime state when `cfg.adapt.enabled`, starting the
    /// controller from the static MacConfig operating point.
    fn try_new(cfg: &SystemConfig) -> Option<AdaptState> {
        if !cfg.adapt.enabled || cfg.mac_disabled {
            return None;
        }
        let ctl = AdaptiveController::new(
            &cfg.adapt,
            AdaptDecision {
                pop_interval: cfg.mac.pop_interval,
                accepts_per_cycle: cfg.mac.accepts_per_cycle.max(1),
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
    fn signals(
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
        };
        self.prev = cur;
        s
    }
}

/// The full set of observational attachments one run can carry. Every
/// member is purely observational: attaching any combination never
/// changes the [`RunReport`] and none of them enter any fingerprint.
/// `Default` is the all-disabled bundle (no tracer, disabled hub,
/// disabled profiler, no probe, no checker) — identical behaviour and
/// overhead to a plain run.
#[derive(Default)]
pub struct RunObservers {
    /// Optional telemetry tracer (re-tagged per node).
    pub tracer: Option<Tracer>,
    /// Interval-sampled metrics hub ([`MetricsHub::disabled`] for none).
    pub metrics: MetricsHub,
    /// Host-side wall-clock span profiler ([`Profiler::disabled`] for none).
    pub profiler: Profiler,
    /// Live progress mailbox streaming observers poll while the run advances.
    pub progress: Option<Arc<ProgressProbe>>,
    /// Conformance checker fed every issue, dispatch, response,
    /// completion and fence retirement, plus periodic statistics.
    pub checker: Option<ConformanceChecker>,
}

/// A topology-generic simulation run: one [`Fabric`] plus the clock and
/// observers that drive it.
pub struct RunDriver<F: Fabric> {
    cfg: SystemConfig,
    fabric: F,
    now: Cycle,
    /// Force cycle-by-cycle stepping (the reference mode the event-driven
    /// fast path must match byte for byte; see DESIGN.md §14).
    stepped: bool,
    /// Current skip-attempt backoff (doubles per failed attempt, resets
    /// on success; see [`RunDriver::run`]).
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

impl<F: Fabric> RunDriver<F> {
    /// Drive `fabric`, built for `cfg`, from cycle 0 with no observers.
    pub(crate) fn with_fabric(cfg: SystemConfig, mut fabric: F) -> Self {
        let adapt = AdaptState::try_new(&cfg);
        if let Some(a) = &adapt {
            // The controller clamps the static operating point into the
            // configured bounds; make the MACs start from that same
            // point so controller belief and hardware state agree.
            let d = a.ctl.current();
            for mac in fabric.macs_mut() {
                mac.set_pop_interval(d.pop_interval);
            }
        }
        RunDriver {
            cfg,
            fabric,
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
        }
    }

    /// Select the run-loop mode: `true` ticks every cycle unconditionally
    /// (the reference behavior), `false` (the default) skips provably
    /// idle spans between component events. Both modes produce
    /// byte-identical [`RunReport`]s, traces, metrics, and checker
    /// observations; stepping exists for the golden equivalence tests.
    pub fn set_stepped(&mut self, stepped: bool) {
        self.stepped = stepped;
    }

    /// Attach a tracer and propagate tagged clones to the components.
    /// Tracing is observational: it never changes simulated behavior.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fabric.set_tracer(&tracer);
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

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Snapshot the aggregate statistics the checker cross-checks, plus
    /// any per-component self-check failures.
    fn stats_probe(&self) -> (StatsProbe, Vec<String>) {
        let mut p = StatsProbe::default();
        let mut errs = Vec::new();
        for mac in self.fabric.macs() {
            let m = mac.stats();
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
        for dev in self.fabric.devices() {
            let h = dev.stats();
            p.device_accesses += h.accesses();
            p.device_raw_satisfied += h.raw_satisfied;
            p.device_data_bytes += h.data_bytes;
            p.device_useful_bytes += h.useful_bytes;
            if let Some(e) = h.consistency_error() {
                errs.push(e);
            }
            if let Some(net) = dev.as_any().downcast_ref::<NetDevice>() {
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

    /// Take one metrics sample: the fabric's gauges, then the adaptive
    /// controller's operating point (scoped `adapt/...`).
    fn take_metrics_sample(&self) {
        let now = self.now;
        self.metrics.sample(now, |s| {
            self.fabric.sample(now, s);
            if let Some(a) = &self.adapt {
                s.scoped("adapt", |s| {
                    let d = a.ctl.current();
                    s.gauge("pop_interval", d.pop_interval);
                    s.gauge("accepts", a.accepts as u64);
                    s.gauge("retunes", a.ctl.retunes());
                });
            }
        });
    }

    /// Evaluate the adaptive controller at a decision boundary: derive
    /// the window signals from the MAC and device counters (summed over
    /// every MAC and every device), and apply any retune to every MAC
    /// uniformly. Guarded so a boundary reached by both the tick loop
    /// and the skip loop is evaluated exactly once.
    fn adapt_decide(&mut self) {
        let now = self.now;
        match &self.adapt {
            Some(a) if a.last_decision != Some(now) => {}
            _ => return,
        }
        let (mut arq_len, mut arq_cap) = (0u64, 0u64);
        let (mut dev_pending, mut dev_vaults) = (0u64, 0u64);
        let mut cur = AdaptWindow::default();
        for mac in self.fabric.macs() {
            arq_len += mac.arq_len() as u64;
            arq_cap += mac.arq_capacity() as u64;
            let m = mac.stats();
            cur.raw_total += m.raw_memory_requests();
            cur.emitted_total += m.emitted_total();
        }
        for dev in self.fabric.devices() {
            dev_pending += dev.pending() as u64;
            dev_vaults += self.cfg.hmc.vaults as u64;
        }
        let a = self.adapt.as_mut().expect("checked");
        a.last_decision = Some(now);
        let s = a.signals(arq_len, arq_cap, dev_pending, dev_vaults, cur);
        if let Some(d) = a.ctl.observe(&s) {
            a.accepts = d.accepts_per_cycle;
            for mac in self.fabric.macs_mut() {
                mac.set_pop_interval(d.pop_interval);
            }
            self.tracer.emit(now, || TraceEvent::AdaptDecision {
                pop_interval: d.pop_interval,
                accepts: d.accepts_per_cycle.min(u16::MAX as usize) as u16,
            });
        }
    }

    /// Whether `now` is an adapt decision boundary.
    fn at_adapt_boundary(&self) -> bool {
        self.adapt
            .as_ref()
            .is_some_and(|a| self.now.is_multiple_of(a.interval))
    }

    /// Advance one cycle. Returns `true` while work remains.
    fn tick(&mut self) -> bool {
        // With adaptation off this reads the static config value, so the
        // disabled path stays bit-identical.
        let accepts = self
            .adapt
            .as_ref()
            .map_or(self.cfg.mac.accepts_per_cycle.max(1), |a| a.accepts);
        self.fabric.tick(self.now, accepts, &mut self.checker);
        self.now += 1;
        !self.fabric.is_idle()
    }

    /// Advance `now` to the next component event (or `max_cycles`),
    /// visiting every metrics-interval, checker-batch and adapt-decision
    /// boundary in between so observers see exactly the cycles stepped
    /// mode shows them. Only provably idle cycles are skipped:
    /// `next_event` guarantees a tick at each skipped cycle would have
    /// changed nothing that `catch_up` does not bring forward.
    ///
    /// A retune at a boundary inside the span cannot invalidate the
    /// target: `next_pop` is absolute, the accept width only matters when
    /// a queue already forces `next == now`, and the bypass switch only
    /// changes behavior at pop time.
    fn skip_idle_span(&mut self, max_cycles: Cycle) {
        let Some(next) = self.fabric.next_event(self.now) else {
            return;
        };
        let target = next.min(max_cycles);
        let metrics_iv = self.metrics.interval();
        let adapt_iv = self.adapt.as_ref().map(|a| a.interval);
        while self.now < target {
            let stop = skip_stop(
                self.now,
                target,
                metrics_iv,
                self.checker.is_some(),
                adapt_iv,
            );
            self.now = stop;
            // The skipped ticks only advanced the SoC cycle counters and
            // fanned out the responses that came due; observers below
            // (and the final report) read both.
            self.fabric.catch_up(stop, &mut self.checker);
            if self.metrics.should_sample(self.now) {
                self.take_metrics_sample();
            }
            if self.checker.is_some() && self.now.is_multiple_of(CHECK_BATCH) {
                self.check_stats();
            }
            if self.at_adapt_boundary() {
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
                p.update(self.now, self.fabric.completions());
            }
            if self.metrics.should_sample(self.now) {
                timed!(sample_ns, samples, self.take_metrics_sample());
            }
            if self.checker.is_some() && self.now.is_multiple_of(CHECK_BATCH) {
                timed!(check_ns, checks, self.check_stats());
            }
            if self.at_adapt_boundary() {
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
                        // The hop delivered the last responses at the
                        // cycle after they completed, where stepped mode
                        // ends too.
                        if self.fabric.is_idle() {
                            break;
                        }
                    }
                }
            }
        }
        if prof_on {
            let scope = F::PROFILE_SCOPE;
            let p = &self.profiler;
            p.accum(&format!("{scope}/run/step"), step_ns, steps);
            p.accum(&format!("{scope}/run/event_scan"), scan_ns, scans);
            p.accum(&format!("{scope}/run/checker"), check_ns, checks);
            p.accum(&format!("{scope}/run/sampler"), sample_ns, samples);
        }
        if let Some(p) = &self.progress {
            p.update(self.now, self.fabric.completions());
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
            let idle = self.fabric.is_idle();
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

    /// Snapshot the merged statistics: SoC over nodes, MAC over MACs,
    /// device (and network) over devices.
    pub fn report(&mut self) -> RunReport {
        let mut report = RunReport {
            cycles: self.now,
            config: self.cfg.clone(),
            trace: self.tracer.summary(),
            soc: self.fabric.soc(),
            ..RunReport::default()
        };
        for mac in self.fabric.macs() {
            report.mac.merge(mac.stats());
        }
        for dev in self.fabric.devices() {
            report.hmc.merge(dev.stats());
            if let Some(net) = dev.as_any().downcast_ref::<NetDevice>() {
                report.net.merge(&net.net_stats());
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn skip_stop_lands_on_the_first_boundary(
            now in 0u64..1_000_000,
            span in 1u64..100_000,
            metrics_iv in 0u64..5_000,
            checker_on in any::<bool>(),
            adapt_on in any::<bool>(),
            adapt_iv in 1u64..5_000,
        ) {
            let target = now + span;
            let adapt_iv = adapt_on.then_some(adapt_iv);
            let stop = skip_stop(now, target, metrics_iv, checker_on, adapt_iv);
            prop_assert!(now < stop && stop <= target, "{now} -> {stop} (target {target})");
            let mut intervals = vec![];
            if metrics_iv > 0 {
                intervals.push(metrics_iv);
            }
            if checker_on {
                intervals.push(CHECK_BATCH);
            }
            intervals.extend(adapt_iv);
            for &iv in &intervals {
                // No boundary of any observer lies strictly inside the hop.
                let first_after_now = (now / iv + 1) * iv;
                prop_assert!(
                    first_after_now >= stop,
                    "interval {iv}: boundary {first_after_now} skipped on {now} -> {stop}"
                );
            }
            // And the hop is no shorter than it must be.
            prop_assert!(
                stop == target || intervals.iter().any(|&iv| stop.is_multiple_of(iv)),
                "{now} -> {stop} stops short of target {target} off every boundary"
            );
        }
    }
}
