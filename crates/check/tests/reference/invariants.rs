//! The map-based run-alongside invariant checker, kept as the reference
//! the differential test compares `mac_check::ConformanceChecker` with.
//! Its bookkeeping hashes raw ids into maps; its checks, messages and
//! their order are the ones the indexed checker must reproduce. The data
//! types it shares with the crate (`Violation`, the probes,
//! `KindCounts`) are imported rather than redefined.
//!
//! [`ConformanceChecker`] is observational: the system loops call its
//! hooks at the same points they already emit telemetry, and nothing in
//! the simulation reads it back. Every detected inconsistency becomes a
//! [`Violation`] citing one of the numbered invariants below, so a fuzz
//! failure (or a CI smoke failure) names exactly which conservation
//! property broke.
//!
//! # The invariant list
//!
//! | # | Property |
//! |---|----------|
//! | I1 | Every accepted raw request is acknowledged exactly once, and the run drains (no leftovers at end of run). |
//! | I2 | Every raw memory request is carried by exactly one dispatched transaction (disjoint `raw_ids` across dispatches, no dispatch of unknown or fence ids). |
//! | I3 | Every dispatched transaction gets exactly one device response echoing its address, size, targets and raw ids, completed no earlier than it was dispatched. |
//! | I4 | FLIT counts are conserved: a packet's useful bytes never exceed its payload, and its FLIT map never carries more FLITs than the payload holds. |
//! | I5 | Fence ordering: no request is issued while its thread has an unretired fence, no dispatch carries a raw issued behind a still-pending fence, and fences retire exactly once. |
//! | I6 | Packet shape matches the FLIT map: non-empty map inside the packet's address window, single-FLIT bypass/atomic packets are 16 B at their FLIT base, builder packets are chunk-aligned 64/128/256 B. |
//! | I7 | Aggregate statistics are monotonic: no counter ever decreases between cycle-batches. |
//! | I8 | Statistics are cross-consistent: per-component self-checks pass, and at end of run raw counts equal the coalesced-weighted emitted counts. |
//! | I9 | Each raw request is served from the row and FLIT its address decodes to. |
//! | I10 | Target records are conserved: `targets` parallels `raw_ids` and every target's FLIT is present in the packet's map. |

use std::collections::{BTreeMap, HashMap};

use mac_types::{
    Cycle, HmcRequest, HmcResponse, MacPlacement, MemOpKind, RawRequest, ReqSize, SystemConfig,
    TransactionId, FLITS_PER_CHUNK,
};

pub use mac_check::{FinishProbe, KindCounts, StatsProbe, Violation};

/// Cap on stored violations; further ones only bump the suppressed count
/// (a broken run can otherwise flood memory with millions of identical
/// findings).
const MAX_STORED: usize = 64;

/// Lifecycle record for one accepted raw request.
#[derive(Debug, Clone, Copy)]
struct Issued {
    addr: mac_types::PhysAddr,
    kind: MemOpKind,
    thread: (u16, u16),
    /// Fence id pending on this thread when the request was issued (must
    /// be retired before this request may dispatch — I5).
    after_fence: Option<u64>,
    dispatched: bool,
    completed: bool,
}

/// Outstanding dispatched transaction awaiting its response.
#[derive(Debug, Clone)]
struct DispatchRec {
    addr: mac_types::PhysAddr,
    size: ReqSize,
    raw_ids: Vec<u64>,
    targets: usize,
    dispatched_at: Cycle,
}

/// The invariant checker. See the module docs for the invariant list.
///
/// Construct with [`ConformanceChecker::new`], feed the hooks from the
/// run loop, then call [`ConformanceChecker::finish`] once.
#[derive(Debug)]
pub struct ConformanceChecker {
    mac_enabled: bool,
    /// Fences pass through a MAC's ARQ (false in baseline mode and in
    /// per-cube placement, where the host packetizer retires them).
    fences_via_mac: bool,
    issued: HashMap<u64, Issued>,
    /// `(node, tid)` -> id of that thread's currently pending fence.
    fence_pending: HashMap<(u16, u16), u64>,
    /// Program-order issue log per `(node, tid)`, for the oracle diff.
    per_thread: BTreeMap<(u16, u16), Vec<(u64, MemOpKind)>>,
    /// Raw memory requests served per row (key: row number), accumulated
    /// at dispatch — diffed against the oracle's own address decode.
    served_per_row: BTreeMap<u64, u64>,
    counts: KindCounts,
    dispatches: u64,
    responses: u64,
    completions: u64,
    fence_retires: u64,
    groups: HashMap<u64, DispatchRec>,
    /// raw id -> dispatch group, for matching responses back (I3).
    raw_group: HashMap<u64, u64>,
    next_group: u64,
    prev_probe: Option<StatsProbe>,
    violations: Vec<Violation>,
    suppressed: u64,
    finished: bool,
}

impl ConformanceChecker {
    /// Build a checker for a run under `cfg` (the mode flags decide which
    /// end-of-run stat equalities apply).
    pub fn new(cfg: &SystemConfig) -> Self {
        let per_cube = cfg.net.enabled && cfg.net.placement == MacPlacement::PerCube;
        ConformanceChecker {
            mac_enabled: !cfg.mac_disabled,
            fences_via_mac: !cfg.mac_disabled && !per_cube,
            issued: HashMap::new(),
            fence_pending: HashMap::new(),
            per_thread: BTreeMap::new(),
            served_per_row: BTreeMap::new(),
            counts: KindCounts::default(),
            dispatches: 0,
            responses: 0,
            completions: 0,
            fence_retires: 0,
            groups: HashMap::new(),
            raw_group: HashMap::new(),
            next_group: 0,
            prev_probe: None,
            violations: Vec::new(),
            suppressed: 0,
            finished: false,
        }
    }

    fn violate(&mut self, invariant: u8, cycle: Cycle, detail: String) {
        if self.violations.len() < MAX_STORED {
            self.violations.push(Violation {
                invariant,
                cycle,
                detail,
            });
        } else {
            self.suppressed += 1;
        }
    }

    /// A raw request was *accepted* by the router (rejected issues retry
    /// with the same id and must not be recorded).
    pub fn on_raw_issued(&mut self, raw: &RawRequest, now: Cycle) {
        let id = raw.id.0;
        let thread = (raw.node.0, raw.target.tid);
        if raw.kind != MemOpKind::Fence && raw.target.flit != raw.addr.flit() {
            self.violate(
                9,
                now,
                format!(
                    "raw {id:#x} target flit {} != address flit {}",
                    raw.target.flit,
                    raw.addr.flit()
                ),
            );
        }
        if let Some(&pending) = self.fence_pending.get(&thread) {
            // The core model blocks a thread on its pending fence, so any
            // issue past one is an ordering bug in the issue path itself.
            self.violate(
                5,
                now,
                format!(
                    "raw {id:#x} issued by thread {thread:?} behind unretired fence {pending:#x}"
                ),
            );
        }
        let after_fence = self.fence_pending.get(&thread).copied();
        let rec = Issued {
            addr: raw.addr,
            kind: raw.kind,
            thread,
            after_fence,
            dispatched: false,
            completed: false,
        };
        if self.issued.insert(id, rec).is_some() {
            self.violate(1, now, format!("raw id {id:#x} issued twice"));
        }
        match raw.kind {
            MemOpKind::Load => self.counts.loads += 1,
            MemOpKind::Store => self.counts.stores += 1,
            MemOpKind::Atomic => self.counts.atomics += 1,
            MemOpKind::Fence => {
                self.counts.fences += 1;
                self.fence_pending.insert(thread, id);
            }
        }
        self.per_thread
            .entry(thread)
            .or_default()
            .push((raw.addr.raw(), raw.kind));
    }

    /// A fence retired (MAC event or host packetizer).
    pub fn on_fence_retired(&mut self, raw: &RawRequest, now: Cycle) {
        let id = raw.id.0;
        let thread = (raw.node.0, raw.target.tid);
        match self.issued.get_mut(&id) {
            None => self.violate(5, now, format!("unknown fence {id:#x} retired")),
            Some(rec) => {
                let kind = rec.kind;
                let double = rec.completed;
                rec.completed = true;
                if kind != MemOpKind::Fence {
                    self.violate(
                        5,
                        now,
                        format!("{kind:?} {id:#x} retired via the fence path"),
                    );
                }
                if double {
                    self.violate(5, now, format!("fence {id:#x} retired twice"));
                }
            }
        }
        match self.fence_pending.get(&thread) {
            Some(&pending) if pending == id => {
                self.fence_pending.remove(&thread);
            }
            other => self.violate(
                5,
                now,
                format!(
                    "fence {id:#x} retired but thread {thread:?} pends {:?}",
                    other.copied()
                ),
            ),
        }
        self.fence_retires += 1;
    }

    /// A transaction was dispatched toward the device.
    pub fn on_dispatch(&mut self, req: &HmcRequest, now: Cycle) {
        self.dispatches += 1;
        let addr = req.addr;
        let flits = req.size.flits();
        if req.flit_map.is_empty() {
            self.violate(
                6,
                now,
                format!("dispatch @ {:#x} has empty FLIT map", addr.raw()),
            );
        }
        if req.targets.len() != req.raw_ids.len() {
            self.violate(
                10,
                now,
                format!(
                    "dispatch @ {:#x}: {} targets vs {} raw ids",
                    addr.raw(),
                    req.targets.len(),
                    req.raw_ids.len()
                ),
            );
        }
        if req.raw_ids.is_empty() {
            self.violate(
                6,
                now,
                format!("dispatch @ {:#x} carries no raw ids", addr.raw()),
            );
        }
        if u64::from(req.flit_map.count()) > flits {
            self.violate(
                4,
                now,
                format!(
                    "dispatch @ {:#x}: {} FLITs mapped into a {} B payload",
                    addr.raw(),
                    req.flit_map.count(),
                    req.size.bytes()
                ),
            );
        }
        if req.useful_bytes() > req.size.bytes() {
            self.violate(
                4,
                now,
                format!(
                    "dispatch @ {:#x}: {} useful bytes > {} payload bytes",
                    addr.raw(),
                    req.useful_bytes(),
                    req.size.bytes()
                ),
            );
        }
        // Packet shape vs map (I6). The window is [addr.flit, addr.flit+flits).
        let lo = u64::from(addr.flit());
        if req.size == ReqSize::B16 {
            if req.flit_map.count() != 1 || req.flit_map.first() != Some(addr.flit()) {
                self.violate(
                    6,
                    now,
                    format!(
                        "16 B dispatch @ {:#x} must map exactly its own FLIT (map {})",
                        addr.raw(),
                        req.flit_map
                    ),
                );
            }
        } else {
            if lo % FLITS_PER_CHUNK != 0 || req.size == ReqSize::B32 {
                self.violate(
                    6,
                    now,
                    format!(
                        "built dispatch @ {:#x} ({} B) is not a chunk-aligned 64/128/256 B packet",
                        addr.raw(),
                        req.size.bytes()
                    ),
                );
            }
            for f in req.flit_map.iter() {
                let f = u64::from(f);
                if f < lo || f >= lo + flits {
                    self.violate(
                        6,
                        now,
                        format!(
                            "dispatch @ {:#x} ({} B): mapped FLIT {f} outside window [{lo}, {})",
                            addr.raw(),
                            req.size.bytes(),
                            lo + flits
                        ),
                    );
                }
            }
        }
        for t in &req.targets {
            if !req.flit_map.get(t.flit) {
                self.violate(
                    10,
                    now,
                    format!(
                        "dispatch @ {:#x}: target tid {} flit {} not in map {}",
                        addr.raw(),
                        t.tid,
                        t.flit,
                        req.flit_map
                    ),
                );
            }
        }
        let group = self.next_group;
        self.next_group += 1;
        for raw_id in &req.raw_ids {
            let id = raw_id.0;
            match self.issued.get(&id).copied() {
                None => self.violate(2, now, format!("dispatch carries unknown raw {id:#x}")),
                Some(rec) => {
                    if rec.kind == MemOpKind::Fence {
                        self.violate(2, now, format!("fence {id:#x} inside a dispatch"));
                    }
                    if rec.dispatched {
                        self.violate(2, now, format!("raw {id:#x} dispatched twice"));
                    }
                    let flag_ok = match rec.kind {
                        MemOpKind::Load => !req.is_write && !req.is_atomic,
                        MemOpKind::Store => req.is_write && !req.is_atomic,
                        MemOpKind::Atomic => req.is_atomic && !req.is_write,
                        MemOpKind::Fence => false,
                    };
                    if !flag_ok {
                        self.violate(
                            6,
                            now,
                            format!(
                                "raw {id:#x} ({:?}) inside a write={} atomic={} dispatch",
                                rec.kind, req.is_write, req.is_atomic
                            ),
                        );
                    }
                    if rec.addr.row() != addr.row() {
                        self.violate(
                            9,
                            now,
                            format!(
                                "raw {id:#x} @ row {:#x} served by dispatch @ row {:#x}",
                                rec.addr.row().0,
                                addr.row().0
                            ),
                        );
                    }
                    if !req.flit_map.get(rec.addr.flit()) {
                        self.violate(
                            9,
                            now,
                            format!(
                                "raw {id:#x} FLIT {} missing from dispatch map {}",
                                rec.addr.flit(),
                                req.flit_map
                            ),
                        );
                    }
                    if let Some(fence) = rec.after_fence {
                        let fence_open = self.issued.get(&fence).is_some_and(|f| !f.completed);
                        if fence_open {
                            self.violate(
                                5,
                                now,
                                format!(
                                    "raw {id:#x} dispatched before its fence {fence:#x} retired"
                                ),
                            );
                        }
                    }
                    if rec.kind != MemOpKind::Fence {
                        *self.served_per_row.entry(rec.addr.row().0).or_default() += 1;
                    }
                    if let Some(rec) = self.issued.get_mut(&id) {
                        rec.dispatched = true;
                    }
                }
            }
            if self.raw_group.insert(id, group).is_some() {
                self.violate(2, now, format!("raw {id:#x} already in an open dispatch"));
            }
        }
        self.groups.insert(
            group,
            DispatchRec {
                addr,
                size: req.size,
                raw_ids: req.raw_ids.iter().map(|i| i.0).collect(),
                targets: req.targets.len(),
                dispatched_at: now,
            },
        );
    }

    /// The device completed a transaction.
    pub fn on_response(&mut self, rsp: &HmcResponse, now: Cycle) {
        self.responses += 1;
        let Some(first) = rsp.raw_ids.first() else {
            self.violate(
                3,
                now,
                format!("response @ {:#x} carries no raw ids", rsp.addr.raw()),
            );
            return;
        };
        let Some(&group) = self.raw_group.get(&first.0) else {
            self.violate(
                3,
                now,
                format!("response for raw {:#x} without an open dispatch", first.0),
            );
            return;
        };
        for id in &rsp.raw_ids {
            if self.raw_group.remove(&id.0) != Some(group) {
                self.violate(
                    3,
                    now,
                    format!("response mixes raw {:#x} from another dispatch", id.0),
                );
            }
        }
        let Some(rec) = self.groups.remove(&group) else {
            self.violate(3, now, format!("dispatch group {group} responded twice"));
            return;
        };
        let mut rsp_ids: Vec<u64> = rsp.raw_ids.iter().map(|i| i.0).collect();
        let mut req_ids = rec.raw_ids.clone();
        rsp_ids.sort_unstable();
        req_ids.sort_unstable();
        if rsp.addr != rec.addr || rsp.size != rec.size {
            self.violate(
                3,
                now,
                format!(
                    "response @ {:#x}/{} B does not echo dispatch @ {:#x}/{} B",
                    rsp.addr.raw(),
                    rsp.size.bytes(),
                    rec.addr.raw(),
                    rec.size.bytes()
                ),
            );
        }
        if rsp_ids != req_ids || rsp.targets.len() != rec.targets {
            self.violate(
                3,
                now,
                format!(
                    "response @ {:#x} raw-id/target set differs from its dispatch",
                    rsp.addr.raw()
                ),
            );
        }
        if rsp.completed_at < rec.dispatched_at {
            self.violate(
                3,
                now,
                format!(
                    "response completed at {} before dispatch at {}",
                    rsp.completed_at, rec.dispatched_at
                ),
            );
        }
    }

    /// A per-request completion was delivered toward its thread.
    pub fn on_completion(&mut self, id: TransactionId, now: Cycle) {
        let id = id.0;
        match self.issued.get_mut(&id) {
            None => self.violate(1, now, format!("completion for unknown raw {id:#x}")),
            Some(rec) => {
                let double = rec.completed;
                let dispatched = rec.dispatched;
                rec.completed = true;
                if double {
                    self.violate(1, now, format!("raw {id:#x} completed twice"));
                }
                if !dispatched {
                    self.violate(2, now, format!("raw {id:#x} completed without a dispatch"));
                }
            }
        }
        self.completions += 1;
    }

    /// Cross-check a cycle-batch statistics snapshot (I7 monotonicity and
    /// the instantaneously valid I8 inequalities).
    pub fn on_cycle_batch(&mut self, now: Cycle, probe: &StatsProbe) {
        if let Some(prev) = self.prev_probe {
            let decreased = [
                ("mac_raw_memory", prev.mac_raw_memory, probe.mac_raw_memory),
                ("mac_raw_fences", prev.mac_raw_fences, probe.mac_raw_fences),
                (
                    "mac_fences_retired",
                    prev.mac_fences_retired,
                    probe.mac_fences_retired,
                ),
                (
                    "mac_emitted_total",
                    prev.mac_emitted_total,
                    probe.mac_emitted_total,
                ),
                ("mac_pop_groups", prev.mac_pop_groups, probe.mac_pop_groups),
                (
                    "device_accesses",
                    prev.device_accesses,
                    probe.device_accesses,
                ),
                (
                    "device_raw_satisfied",
                    prev.device_raw_satisfied,
                    probe.device_raw_satisfied,
                ),
            ];
            for (name, before, after) in decreased {
                if after < before {
                    self.violate(7, now, format!("{name} decreased: {before} -> {after}"));
                }
            }
            if probe.device_data_bytes < prev.device_data_bytes
                || probe.device_useful_bytes < prev.device_useful_bytes
                || probe.mac_targets_sum < prev.mac_targets_sum
            {
                self.violate(7, now, "byte/target totals decreased".to_string());
            }
        }
        self.prev_probe = Some(*probe);
        if probe.mac_emitted_total != probe.mac_emitted_split {
            self.violate(
                8,
                now,
                format!(
                    "emitted size histogram ({}) != provenance split ({})",
                    probe.mac_emitted_total, probe.mac_emitted_split
                ),
            );
        }
        let checks = [
            (
                "device raw_satisfied exceeds issued memory requests",
                probe.device_raw_satisfied,
                self.counts.memory(),
            ),
            (
                "device served more accesses than were dispatched",
                probe.device_accesses,
                self.dispatches,
            ),
            (
                "MAC accepted more memory requests than were issued",
                probe.mac_raw_memory,
                self.counts.memory(),
            ),
            (
                "MAC retired more fences than were issued",
                probe.mac_fences_retired,
                self.counts.fences,
            ),
        ];
        for (what, lhs, rhs) in checks {
            if lhs > rhs {
                self.violate(8, now, format!("{what}: {lhs} > {rhs}"));
            }
        }
        if probe.device_useful_bytes > probe.device_data_bytes {
            self.violate(
                8,
                now,
                format!(
                    "useful bytes {} > data bytes {}",
                    probe.device_useful_bytes, probe.device_data_bytes
                ),
            );
        }
    }

    /// Fold a component's own consistency self-check failure (I8).
    pub fn on_component_error(&mut self, now: Cycle, msg: &str) {
        self.violate(8, now, msg.to_string());
    }

    /// End-of-run accounting. Call exactly once, after the run loop.
    pub fn finish(&mut self, probe: &FinishProbe, now: Cycle) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.on_cycle_batch(now, &probe.stats);
        if !probe.idle {
            self.violate(
                1,
                now,
                format!(
                    "run hit the cycle cap before draining ({} raw requests still open)",
                    self.issued.values().filter(|r| !r.completed).count()
                ),
            );
            return; // The strict equalities below only hold for drained runs.
        }
        let mut leftovers: Vec<(u64, Issued)> = self
            .issued
            .iter()
            .filter(|(_, r)| !r.completed)
            .map(|(&id, &r)| (id, r))
            .collect();
        leftovers.sort_unstable_by_key(|(id, _)| *id);
        for (id, rec) in leftovers.into_iter().take(8) {
            self.violate(
                1,
                now,
                format!(
                    "raw {id:#x} ({:?} by thread {:?}) never completed (dispatched: {})",
                    rec.kind, rec.thread, rec.dispatched
                ),
            );
        }
        if !self.groups.is_empty() {
            self.violate(
                3,
                now,
                format!("{} dispatches never got a response", self.groups.len()),
            );
        }
        if !self.fence_pending.is_empty() {
            self.violate(
                5,
                now,
                format!("{} fences still pending at idle", self.fence_pending.len()),
            );
        }
        let s = probe.stats;
        let mut equalities: Vec<(u8, &str, u64, u64)> = vec![
            (
                8,
                "SoC raw_requests vs checker issues",
                probe.soc_raw_requests,
                self.counts.total(),
            ),
            (
                8,
                "SoC completions vs checker completions+fences",
                probe.soc_completions,
                self.completions + self.fence_retires,
            ),
            (
                8,
                "device accesses vs dispatches",
                s.device_accesses,
                self.dispatches,
            ),
            (
                2,
                "device raw_satisfied vs issued memory requests",
                s.device_raw_satisfied,
                self.counts.memory(),
            ),
        ];
        if self.mac_enabled {
            equalities.push((
                8,
                "MAC raw memory requests vs issued",
                s.mac_raw_memory,
                self.counts.memory(),
            ));
            equalities.push((
                8,
                "MAC emitted vs dispatches",
                s.mac_emitted_total,
                self.dispatches,
            ));
        }
        if self.fences_via_mac {
            equalities.push((
                8,
                "MAC raw fences vs issued fences",
                s.mac_raw_fences,
                self.counts.fences,
            ));
            equalities.push((
                8,
                "MAC fences retired vs issued fences",
                s.mac_fences_retired,
                self.counts.fences,
            ));
        }
        for (inv, what, lhs, rhs) in equalities {
            if lhs != rhs {
                self.violate(inv, now, format!("{what}: {lhs} != {rhs}"));
            }
        }
        if self.mac_enabled {
            // The coalesced-weighted identity: every load/store passes
            // through exactly one popped ARQ group.
            if s.mac_targets_sum != u128::from(self.counts.loads + self.counts.stores) {
                self.violate(
                    8,
                    now,
                    format!(
                        "targets-per-entry sum {} != raw loads+stores {}",
                        s.mac_targets_sum,
                        self.counts.loads + self.counts.stores
                    ),
                );
            }
            if s.mac_emitted_bypass_built < s.mac_pop_groups {
                self.violate(
                    8,
                    now,
                    format!(
                        "{} popped groups produced only {} bypass/built dispatches",
                        s.mac_pop_groups, s.mac_emitted_bypass_built
                    ),
                );
            }
        }
    }

    /// Violations recorded so far (capped; see [`Self::suppressed`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Consume the checker, returning its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// Violations beyond the storage cap.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// True when no violation was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Per-kind totals of accepted raw requests.
    pub fn counts(&self) -> &KindCounts {
        &self.counts
    }

    /// Transactions dispatched.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Per-request completions plus fence retirements.
    pub fn completions_total(&self) -> u64 {
        self.completions + self.fence_retires
    }

    /// Program-order issue log per `(node, tid)` — `(address, kind)`.
    pub fn per_thread_log(&self) -> &BTreeMap<(u16, u16), Vec<(u64, MemOpKind)>> {
        &self.per_thread
    }

    /// Raw memory requests served per row number, accumulated at dispatch.
    pub fn served_per_row(&self) -> &BTreeMap<u64, u64> {
        &self.served_per_row
    }
}
