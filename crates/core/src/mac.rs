//! The assembled MAC unit (Figure 4's dashed box).
//!
//! Per cycle the MAC can: accept one raw request into the ARQ (or the
//! atomic direct path), pop one ARQ entry every `pop_interval` cycles —
//! retiring fences, dispatching `B`-bit bypass entries as single-FLIT
//! transactions, or latching group entries into the request builder — and
//! advance the builder pipeline, collecting any finished transaction.

use mac_telemetry::{TraceEvent, Tracer, POP_BUILDER, POP_BYPASS, POP_FENCE};
use mac_types::{Cycle, FlitMap, HmcRequest, MacConfig, MemOpKind, RawRequest, ReqSize};
use std::collections::VecDeque;

use crate::arq::{Arq, ArqEntry, InsertOutcome};
use crate::builder::RequestBuilder;
use crate::flit_table::FlitTable;
use crate::stats::{MacStats, Provenance};

/// Events produced by one MAC cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum MacEvent {
    /// A transaction is ready to go to the 3D-stacked memory.
    Dispatch(HmcRequest),
    /// A fence has drained the ARQ ahead of it and retires.
    FenceRetired(RawRequest),
}

/// The Memory Access Coalescer.
#[derive(Debug, Clone, PartialEq)]
pub struct Mac {
    cfg: MacConfig,
    arq: Arq,
    builder: RequestBuilder,
    /// Atomics waiting on the direct path (dispatched same cycle).
    direct: VecDeque<HmcRequest>,
    /// Next cycle at which the ARQ may pop (rate: 1 per `pop_interval`).
    next_pop: Cycle,
    stats: MacStats,
    tracer: Tracer,
}

impl Mac {
    /// Build a MAC from its configuration.
    pub fn new(cfg: &MacConfig) -> Self {
        Mac {
            cfg: cfg.clone(),
            arq: Arq::new(cfg),
            builder: RequestBuilder::new(
                FlitTable::new(cfg.flit_table),
                cfg.stage1_latency,
                cfg.stage2_latency,
            ),
            direct: VecDeque::new(),
            next_pop: 0,
            stats: MacStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer, shared with the ARQ and the request builder.
    /// Tracing is observational and never changes simulated behavior.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.arq.set_tracer(tracer.clone());
        self.builder.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Offer one raw request at cycle `now` (hardware accepts at most one
    /// per cycle; callers enforce that). Returns `false` on backpressure.
    pub fn try_accept(&mut self, raw: RawRequest, now: Cycle) -> bool {
        self.try_accept_with_backlog(raw, now, 0)
    }

    /// [`Mac::try_accept`] with the upstream queue depth, which drives the
    /// latency-hiding fill mechanism (§4.1).
    pub fn try_accept_with_backlog(&mut self, raw: RawRequest, now: Cycle, backlog: usize) -> bool {
        match raw.kind {
            MemOpKind::Atomic => {
                let mut fm = FlitMap::new();
                fm.set(raw.addr.flit());
                self.direct.push_back(HmcRequest {
                    addr: raw.addr.flit_base(),
                    size: ReqSize::B16,
                    is_write: false,
                    is_atomic: true,
                    flit_map: fm,
                    targets: vec![raw.target],
                    raw_ids: vec![raw.id],
                    dispatched_at: now,
                });
                self.stats.raw_atomics += 1;
                true
            }
            kind => match self.arq.insert_at(raw, backlog, now) {
                InsertOutcome::Full => false,
                _ => {
                    match kind {
                        MemOpKind::Load => self.stats.raw_loads += 1,
                        MemOpKind::Store => self.stats.raw_stores += 1,
                        MemOpKind::Fence => self.stats.raw_fences += 1,
                        MemOpKind::Atomic => unreachable!(),
                    }
                    true
                }
            },
        }
    }

    /// Advance one cycle, handing each dispatch and fence retirement to
    /// `emit` in the order [`Mac::tick`] lists them. Allocates nothing.
    pub fn tick_with(&mut self, now: Cycle, mut emit: impl FnMut(MacEvent)) {
        // Builder pipeline advances first (its stage-2 output was latched
        // in earlier cycles).
        let (stats, tracer) = (&mut self.stats, &self.tracer);
        self.builder.tick_with(now, |req| {
            stats.record_dispatch(req.size, Provenance::Built);
            emit_dispatch(tracer, &req, Provenance::Built, now);
            emit(MacEvent::Dispatch(req));
        });

        // Atomic direct path: straight to the device (§4.1.2).
        while let Some(req) = self.direct.pop_front() {
            self.stats.record_dispatch(req.size, Provenance::Atomic);
            emit_dispatch(&self.tracer, &req, Provenance::Atomic, now);
            emit(MacEvent::Dispatch(req));
        }

        // ARQ pop, rate-limited to one entry per `pop_interval` cycles.
        if now >= self.next_pop {
            match self.arq.peek() {
                Some(ArqEntry::Fence(_)) => {
                    let Some(ArqEntry::Fence(f)) = self.arq.pop() else {
                        unreachable!()
                    };
                    self.stats.fences_retired += 1;
                    let occupancy = self.arq.len() as u16;
                    self.tracer.emit(now, || TraceEvent::ArqPop {
                        // Fences have no group entry id.
                        entry: u32::MAX,
                        kind: POP_FENCE,
                        occupancy,
                    });
                    self.tracer
                        .emit(now, || TraceEvent::FenceRetire { id: f.id.0 });
                    emit(MacEvent::FenceRetired(f));
                    self.next_pop = now + self.cfg.pop_interval;
                }
                Some(ArqEntry::Group(g)) if self.cfg.bypass_enabled && g.bypass() => {
                    let Some(ArqEntry::Group(g)) = self.arq.pop() else {
                        unreachable!()
                    };
                    let occupancy = self.arq.len() as u16;
                    self.tracer.emit(now, || TraceEvent::ArqPop {
                        entry: g.entry_id as u32,
                        kind: POP_BYPASS,
                        occupancy,
                    });
                    // B bit set: skip the builder, dispatch the single
                    // FLIT directly (§4.1.2).
                    let flit = g.flit_map.first().expect("one FLIT set");
                    let req = HmcRequest {
                        addr: mac_types::PhysAddr::from_row_flit(g.row, flit),
                        size: ReqSize::B16,
                        is_write: g.is_store,
                        is_atomic: false,
                        flit_map: g.flit_map,
                        targets: g.targets,
                        raw_ids: g.raw_ids,
                        dispatched_at: now,
                    };
                    self.stats.targets_per_entry.record(1);
                    self.stats.record_dispatch(req.size, Provenance::Bypass);
                    emit_dispatch(&self.tracer, &req, Provenance::Bypass, now);
                    emit(MacEvent::Dispatch(req));
                    self.next_pop = now + self.cfg.pop_interval;
                }
                Some(ArqEntry::Group(_)) if self.builder.can_accept() => {
                    let Some(ArqEntry::Group(g)) = self.arq.pop() else {
                        unreachable!()
                    };
                    self.stats.targets_per_entry.record(g.merged() as u64);
                    let occupancy = self.arq.len() as u16;
                    self.tracer.emit(now, || TraceEvent::ArqPop {
                        entry: g.entry_id as u32,
                        kind: POP_BUILDER,
                        occupancy,
                    });
                    self.builder.push(g, now);
                    self.next_pop = now + self.cfg.pop_interval;
                }
                // Builder busy: retry next cycle without consuming the
                // pop slot.
                Some(ArqEntry::Group(_)) => {}
                None => {}
            }
        }

        self.stats.fill_bursts = self.arq.fill_bursts;
    }

    /// [`Mac::tick_with`], collecting the events into a fresh `Vec`.
    pub fn tick(&mut self, now: Cycle) -> Vec<MacEvent> {
        let mut events = Vec::new();
        self.tick_with(now, |ev| events.push(ev));
        events
    }

    /// Earliest cycle `>= now` at which [`Mac::tick`] could change state:
    /// a queued atomic dispatches, the builder pipeline latches or emits,
    /// or the ARQ's pop-rate window opens with entries waiting. `None`
    /// means the MAC is fully drained — ticking it is a no-op until a new
    /// request is accepted.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.direct.is_empty() {
            return Some(now);
        }
        let mut next = self.builder.next_ready();
        if !self.arq.is_empty() {
            let at = self.next_pop.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next.map(|t| t.max(now))
    }

    /// True when no work is in flight inside the MAC.
    pub fn is_drained(&self) -> bool {
        self.arq.is_empty() && self.builder.is_empty() && self.direct.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// The configuration this MAC was built with.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Retune the ARQ pop interval (the adaptive controller's rate
    /// knob, DESIGN.md §17). `next_pop` is an absolute cycle set at pop
    /// time, so a retune only affects pops scheduled *after* it — the
    /// event-skip lower bounds computed from the old interval stay
    /// valid. Clamped to ≥ 1.
    pub fn set_pop_interval(&mut self, v: u64) {
        self.cfg.pop_interval = v.max(1);
    }

    /// Current ARQ occupancy (entries held, including a latched fence).
    pub fn arq_len(&self) -> usize {
        self.arq.len()
    }

    /// Total ARQ capacity in entries.
    pub fn arq_capacity(&self) -> usize {
        self.arq.capacity()
    }

    /// Append one metrics sample: ARQ occupancy and direct-path queue
    /// gauges plus cumulative request counters (the coalescing rate is
    /// the windowed delta of `emitted_requests` over `raw_requests`).
    /// Observational — reads state, never mutates it.
    pub fn sample_metrics(&self, s: &mut mac_metrics::Sampler<'_>) {
        s.gauge("arq_occupancy", self.arq.len() as u64);
        s.gauge("direct_queue", self.direct.len() as u64);
        s.counter("raw_requests", self.stats.raw_memory_requests());
        s.counter("emitted_requests", self.stats.emitted_total());
        s.counter("fences_retired", self.stats.fences_retired);
    }
}

/// Emit the dispatch trace event for a transaction leaving the MAC.
fn emit_dispatch(tracer: &Tracer, req: &HmcRequest, provenance: Provenance, now: Cycle) {
    tracer.emit(now, || TraceEvent::Dispatch {
        addr: req.addr.raw(),
        bytes: req.size.bytes() as u16,
        provenance: provenance as u8,
        targets: req.targets.len() as u8,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{NodeId, PhysAddr, Target, TransactionId};

    fn cfg() -> MacConfig {
        MacConfig {
            latency_hiding: false,
            ..MacConfig::default()
        }
    }

    fn raw(id: u64, addr: u64, kind: MemOpKind) -> RawRequest {
        let a = PhysAddr::new(addr);
        RawRequest {
            id: TransactionId(id),
            addr: a,
            kind,
            node: NodeId(0),
            home: NodeId(0),
            target: Target {
                tid: id as u16,
                tag: 0,
                flit: a.flit(),
            },
            issued_at: 0,
        }
    }

    /// Drive the MAC until it drains, collecting every event.
    fn run_to_drain(mac: &mut Mac, from: Cycle) -> Vec<MacEvent> {
        let mut events = Vec::new();
        let mut now = from;
        while !mac.is_drained() {
            events.extend(mac.tick(now));
            now += 1;
            assert!(now < from + 10_000, "MAC failed to drain");
        }
        events
    }

    fn dispatches(events: &[MacEvent]) -> Vec<&HmcRequest> {
        events
            .iter()
            .filter_map(|e| match e {
                MacEvent::Dispatch(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn figure7_end_to_end() {
        let mut mac = Mac::new(&cfg());
        assert!(mac.try_accept(raw(1, 0xA60, MemOpKind::Load), 0));
        assert!(mac.try_accept(raw(2, 0xA80, MemOpKind::Load), 1));
        assert!(mac.try_accept(raw(3, 0xA70, MemOpKind::Store), 2));
        assert!(mac.try_accept(raw(4, 0xA90, MemOpKind::Load), 3));
        let events = run_to_drain(&mut mac, 4);
        let d = dispatches(&events);
        assert_eq!(d.len(), 2);
        // The lone store takes the B-bit bypass (16 B) and skips the
        // builder pipeline, so it can overtake the merged loads (128 B).
        let built = d.iter().find(|r| !r.is_write).expect("load group");
        let bypass = d.iter().find(|r| r.is_write).expect("store");
        assert_eq!(built.size, ReqSize::B128);
        assert_eq!(built.merged_count(), 3);
        assert_eq!(bypass.size, ReqSize::B16);
        assert_eq!(mac.stats().emitted_bypass, 1);
        assert_eq!(mac.stats().emitted_built, 1);
        // 4 raw memory requests -> 2 transactions: efficiency 0.5.
        assert!((mac.stats().coalescing_efficiency() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sixteen_same_row_loads_coalesce_to_two_requests() {
        // Figure 2's scenario. A 64 B ARQ entry caps at 12 targets
        // (§5.3.3), so 16 same-row loads fill one 12-target entry (FLITs
        // 0..12 -> 256 B) and one 4-target entry (FLITs 12..16 -> 64 B).
        let mut mac = Mac::new(&cfg());
        for i in 0..16u64 {
            assert!(mac.try_accept(raw(i, 0x4000 + i * 16, MemOpKind::Load), i));
        }
        let events = run_to_drain(&mut mac, 16);
        let d = dispatches(&events);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].size, ReqSize::B256);
        assert_eq!(d[0].merged_count(), 12);
        assert_eq!(d[1].size, ReqSize::B64);
        assert_eq!(d[1].merged_count(), 4);
        // 16 raw -> 2 emitted: 87.5 % of requests eliminated.
        assert!((mac.stats().coalescing_efficiency() - 0.875).abs() < 1e-9);
    }

    #[test]
    fn atomics_take_the_direct_path_immediately() {
        let mut mac = Mac::new(&cfg());
        assert!(mac.try_accept(raw(1, 0xA00, MemOpKind::Atomic), 0));
        let ev = mac.tick(0);
        let d = dispatches(&ev);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_atomic);
        assert_eq!(d[0].size, ReqSize::B16);
        assert_eq!(mac.stats().emitted_atomic, 1);
    }

    #[test]
    fn fence_retires_after_prior_entries_popped() {
        let mut mac = Mac::new(&cfg());
        mac.try_accept(raw(1, 0xA00, MemOpKind::Load), 0);
        mac.try_accept(raw(2, 0xF00, MemOpKind::Fence), 1);
        mac.try_accept(raw(3, 0xA10, MemOpKind::Load), 2);
        let events = run_to_drain(&mut mac, 3);
        // Order: load group 1 popped first, then the fence, then load 3.
        let fence_pos = events
            .iter()
            .position(|e| matches!(e, MacEvent::FenceRetired(_)))
            .expect("fence retired");
        let d: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, MacEvent::Dispatch(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(d.len(), 2);
        assert!(d[0] < fence_pos, "first load dispatched before fence");
        assert!(d[1] > fence_pos, "post-fence load dispatched after fence");
        assert_eq!(mac.stats().fences_retired, 1);
    }

    #[test]
    fn pop_rate_is_one_per_two_cycles() {
        let mut mac = Mac::new(&cfg());
        // Two independent single-FLIT rows -> two bypass dispatches.
        mac.try_accept(raw(1, 0x000, MemOpKind::Load), 0);
        mac.try_accept(raw(2, 0x100, MemOpKind::Load), 0);
        let e0 = mac.tick(0);
        let e1 = mac.tick(1);
        let e2 = mac.tick(2);
        assert_eq!(dispatches(&e0).len(), 1);
        assert_eq!(dispatches(&e1).len(), 0, "pop interval is 2 cycles");
        assert_eq!(dispatches(&e2).len(), 1);
    }

    #[test]
    fn backpressure_when_arq_full() {
        let small = MacConfig {
            arq_entries: 2,
            latency_hiding: false,
            ..MacConfig::default()
        };
        let mut mac = Mac::new(&small);
        assert!(mac.try_accept(raw(1, 0x000, MemOpKind::Load), 0));
        assert!(mac.try_accept(raw(2, 0x100, MemOpKind::Load), 0));
        assert!(!mac.try_accept(raw(3, 0x200, MemOpKind::Load), 0));
        // Merge into an existing row still succeeds while full.
        assert!(mac.try_accept(raw(4, 0x010, MemOpKind::Load), 0));
    }

    #[test]
    fn bypass_disabled_routes_singles_through_builder() {
        let no_bypass = MacConfig {
            bypass_enabled: false,
            latency_hiding: false,
            ..MacConfig::default()
        };
        let mut mac = Mac::new(&no_bypass);
        mac.try_accept(raw(1, 0xA00, MemOpKind::Load), 0);
        let events = run_to_drain(&mut mac, 1);
        let d = dispatches(&events);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].size, ReqSize::B64, "builder emits 64 B minimum");
        assert_eq!(mac.stats().emitted_bypass, 0);
        assert_eq!(mac.stats().emitted_built, 1);
    }

    #[test]
    fn builder_emit_traces_before_the_next_latch_and_its_dispatch() {
        use mac_telemetry::RingSink;
        let no_bypass = MacConfig {
            bypass_enabled: false,
            latency_hiding: false,
            ..MacConfig::default()
        };
        let mut mac = Mac::new(&no_bypass);
        let ring = RingSink::new(64);
        let handle = ring.handle();
        mac.set_tracer(Tracer::new(ring));
        mac.try_accept(raw(1, 0xA00, MemOpKind::Load), 0);
        mac.try_accept(raw(2, 0xB00, MemOpKind::Load), 0);
        // Entry 0 pops at 0 and latches into stage 2 at 1; entry 1 pops
        // at 2. At 3 entry 0 emits while entry 1 moves to stage 2.
        let events: Vec<MacEvent> = (0..4).flat_map(|now| mac.tick(now)).collect();
        assert_eq!(dispatches(&events).len(), 1);
        let at3: Vec<TraceEvent> = handle
            .snapshot()
            .into_iter()
            .filter(|r| r.cycle == 3)
            .map(|r| r.event)
            .collect();
        assert!(
            matches!(
                at3.as_slice(),
                [
                    TraceEvent::BuilderEmit { entry: 0, .. },
                    TraceEvent::BuilderStage2 { entry: 1, .. },
                    TraceEvent::Dispatch { .. },
                ]
            ),
            "{at3:?}"
        );
    }

    #[test]
    fn stats_track_raw_kinds() {
        let mut mac = Mac::new(&cfg());
        mac.try_accept(raw(1, 0x000, MemOpKind::Load), 0);
        mac.try_accept(raw(2, 0x100, MemOpKind::Store), 0);
        mac.try_accept(raw(3, 0x200, MemOpKind::Atomic), 0);
        mac.try_accept(raw(4, 0x300, MemOpKind::Fence), 0);
        let s = mac.stats();
        assert_eq!(s.raw_loads, 1);
        assert_eq!(s.raw_stores, 1);
        assert_eq!(s.raw_atomics, 1);
        assert_eq!(s.raw_fences, 1);
        assert_eq!(s.raw_memory_requests(), 3);
    }
}
