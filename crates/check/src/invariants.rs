//! The run-alongside invariant checker.
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

use std::collections::VecDeque;

use mac_types::{
    Cycle, HmcRequest, HmcResponse, MacPlacement, MemOpKind, RawRequest, ReqSize, SeqWindow,
    SystemConfig, TransactionId, FLITS_PER_CHUNK,
};

use crate::table::{IssueLog, IssueTable, Issued, ThreadTable, NO_GROUP};

/// Number of checked invariants (they are numbered `1..=INVARIANTS`).
pub const INVARIANTS: u8 = 10;

/// Cap on stored violations; further ones only bump the suppressed count
/// (a broken run can otherwise flood memory with millions of identical
/// findings).
const MAX_STORED: usize = 64;

/// One-line description of invariant `n` (1-based; see the module docs).
pub fn invariant_description(n: u8) -> &'static str {
    match n {
        1 => "every accepted raw request is acknowledged exactly once and the run drains",
        2 => "every raw memory request is carried by exactly one dispatched transaction",
        3 => "every dispatch gets exactly one response echoing its addr/size/targets/raw ids",
        4 => "FLIT counts are conserved (useful bytes and map bits fit the payload)",
        5 => "no request is issued or dispatched past an unretired fence; fences retire once",
        6 => "packet shape is consistent with its FLIT map (window, alignment, size class)",
        7 => "aggregate statistics are monotonic across cycle-batches",
        8 => "statistics are cross-consistent (raw == coalesced-weighted emitted)",
        9 => "each raw request is served from the row/FLIT its address decodes to",
        10 => "target records parallel raw ids and lie inside the packet's FLIT map",
        _ => "unknown invariant",
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke (1-based index into the module-docs table).
    pub invariant: u8,
    /// Simulated cycle at which the violation was detected.
    pub cycle: Cycle,
    /// Human-readable specifics (ids, addresses, counts).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "I{} @ cycle {}: {} ({})",
            self.invariant,
            self.cycle,
            self.detail,
            invariant_description(self.invariant)
        )
    }
}

/// Per-kind raw request totals observed by the checker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Raw loads accepted.
    pub loads: u64,
    /// Raw stores accepted.
    pub stores: u64,
    /// Raw atomics accepted.
    pub atomics: u64,
    /// Raw fences accepted.
    pub fences: u64,
}

impl KindCounts {
    /// Memory requests (everything except fences).
    pub fn memory(&self) -> u64 {
        self.loads + self.stores + self.atomics
    }

    /// All requests including fences.
    pub fn total(&self) -> u64 {
        self.memory() + self.fences
    }
}

/// A snapshot of the aggregate statistics the checker cross-checks each
/// cycle-batch (I7/I8). The system loop builds it from the merged
/// MAC/device stats; all fields are cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsProbe {
    /// MAC: raw loads + stores + atomics accepted.
    pub mac_raw_memory: u64,
    /// MAC: raw fences accepted.
    pub mac_raw_fences: u64,
    /// MAC: fences retired.
    pub mac_fences_retired: u64,
    /// MAC: total transactions dispatched (sum over the size histogram).
    pub mac_emitted_total: u64,
    /// MAC: bypass + built + atomic dispatch counts (the provenance
    /// split, which must re-sum to `mac_emitted_total`).
    pub mac_emitted_split: u64,
    /// MAC: bypass + built dispatches (excluding the atomic direct path).
    pub mac_emitted_bypass_built: u64,
    /// MAC: ARQ group entries popped (events of the targets-per-entry
    /// distribution).
    pub mac_pop_groups: u64,
    /// MAC: total merged raw requests over popped groups (sum of the
    /// targets-per-entry distribution).
    pub mac_targets_sum: u128,
    /// Device: accesses served.
    pub device_accesses: u64,
    /// Device: raw requests satisfied (sum of per-access merged counts).
    pub device_raw_satisfied: u64,
    /// Device: payload bytes moved.
    pub device_data_bytes: u128,
    /// Device: payload bytes actually requested by raw requests.
    pub device_useful_bytes: u128,
}

/// End-of-run observation handed to [`ConformanceChecker::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FinishProbe {
    /// Whether the simulator reached its idle state (vs the cycle cap).
    pub idle: bool,
    /// SoC metric: raw requests accepted from the cores.
    pub soc_raw_requests: u64,
    /// SoC metric: completions delivered back to threads.
    pub soc_completions: u64,
    /// Final aggregate statistics.
    pub stats: StatsProbe,
}

/// Outstanding dispatched transaction awaiting its response.
#[derive(Debug, Clone)]
struct DispatchRec {
    addr: mac_types::PhysAddr,
    size: ReqSize,
    /// Position of the dispatch's first raw id in the checker's
    /// `group_ids`, counted over every id ever dispatched.
    ids_at: u64,
    /// Raw ids the dispatch carried.
    ids: usize,
    targets: usize,
    dispatched_at: Cycle,
}

/// The stored violations and the count beyond the cap.
#[derive(Debug, Default)]
struct Findings {
    stored: Vec<Violation>,
    suppressed: u64,
}

impl Findings {
    fn violate(&mut self, invariant: u8, cycle: Cycle, detail: String) {
        if self.stored.len() < MAX_STORED {
            self.stored.push(Violation {
                invariant,
                cycle,
                detail,
            });
        } else {
            self.suppressed += 1;
        }
    }
}

/// The invariant checker. See the module docs for the invariant list.
///
/// Construct with [`ConformanceChecker::new`], feed the hooks from the
/// run loop, then call [`ConformanceChecker::finish`] once.
///
/// Its tables are indexed by the ids the simulator assigns in sequence
/// (see the `table` module), so each hook costs a few array accesses
/// per raw id.
#[derive(Debug)]
pub struct ConformanceChecker {
    mac_enabled: bool,
    /// Fences pass through a MAC's ARQ (false in baseline mode and in
    /// per-cube placement, where the host packetizer retires them).
    fences_via_mac: bool,
    /// Issue record and open dispatch group of every raw id seen.
    issued: IssueTable,
    /// Issued raw requests not yet completed.
    open: u64,
    /// Pending fence and program-order issue log per `(node, tid)`.
    threads: ThreadTable,
    /// Row of every raw memory request, appended at dispatch and sorted
    /// by [`Self::finish`] — diffed against the oracle's own decode.
    rows: Vec<u64>,
    counts: KindCounts,
    dispatches: u64,
    responses: u64,
    completions: u64,
    fence_retires: u64,
    /// Dispatches awaiting their response, by the checker's own group
    /// number.
    groups: SeqWindow<DispatchRec>,
    /// Raw ids of the open dispatches in group order, oldest first. Read
    /// only when a response mixes in a foreign id.
    group_ids: VecDeque<u64>,
    /// Position of `group_ids[0]` among every id ever dispatched.
    group_ids_base: u64,
    next_group: u64,
    prev_probe: Option<StatsProbe>,
    findings: Findings,
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
            issued: IssueTable::default(),
            open: 0,
            threads: ThreadTable::default(),
            rows: Vec::new(),
            counts: KindCounts::default(),
            dispatches: 0,
            responses: 0,
            completions: 0,
            fence_retires: 0,
            groups: SeqWindow::new(),
            group_ids: VecDeque::new(),
            group_ids_base: 0,
            next_group: 0,
            prev_probe: None,
            findings: Findings::default(),
            finished: false,
        }
    }

    fn violate(&mut self, invariant: u8, cycle: Cycle, detail: String) {
        self.findings.violate(invariant, cycle, detail);
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
        let state = self.threads.entry(thread);
        let after_fence = state.fence;
        if let Some(pending) = after_fence {
            // The core model blocks a thread on its pending fence, so any
            // issue past one is an ordering bug in the issue path itself.
            self.findings.violate(
                5,
                now,
                format!(
                    "raw {id:#x} issued by thread {thread:?} behind unretired fence {pending:#x}"
                ),
            );
        }
        match raw.kind {
            MemOpKind::Load => self.counts.loads += 1,
            MemOpKind::Store => self.counts.stores += 1,
            MemOpKind::Atomic => self.counts.atomics += 1,
            MemOpKind::Fence => {
                self.counts.fences += 1;
                state.fence = Some(id);
            }
        }
        state.log.push((raw.addr.raw(), raw.kind));
        let rec = Issued {
            addr: raw.addr,
            kind: raw.kind,
            thread,
            after_fence,
            dispatched: false,
            completed: false,
        };
        self.open += 1;
        if let Some(old) = self.issued.entry(id).rec.replace(rec) {
            if !old.completed {
                self.open -= 1;
            }
            self.violate(1, now, format!("raw id {id:#x} issued twice"));
        }
    }

    /// A fence retired (MAC event or host packetizer).
    pub fn on_fence_retired(&mut self, raw: &RawRequest, now: Cycle) {
        let id = raw.id.0;
        let thread = (raw.node.0, raw.target.tid);
        match self.issued.get_mut(id).and_then(|slot| slot.rec.as_mut()) {
            None => self
                .findings
                .violate(5, now, format!("unknown fence {id:#x} retired")),
            Some(rec) => {
                let kind = rec.kind;
                let double = rec.completed;
                rec.completed = true;
                if !double {
                    self.open -= 1;
                }
                if kind != MemOpKind::Fence {
                    self.findings.violate(
                        5,
                        now,
                        format!("{kind:?} {id:#x} retired via the fence path"),
                    );
                }
                if double {
                    self.findings
                        .violate(5, now, format!("fence {id:#x} retired twice"));
                }
            }
        }
        match self.threads.get_mut(thread) {
            Some(state) if state.fence == Some(id) => state.fence = None,
            state => {
                let pends = state.and_then(|s| s.fence);
                self.findings.violate(
                    5,
                    now,
                    format!("fence {id:#x} retired but thread {thread:?} pends {pends:?}"),
                );
            }
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
        let ids_at = self.group_ids_base + self.group_ids.len() as u64;
        for raw_id in &req.raw_ids {
            let id = raw_id.0;
            self.group_ids.push_back(id);
            let slot = self.issued.entry(id);
            let rec = slot.rec;
            if let Some(r) = &mut slot.rec {
                r.dispatched = true;
            }
            let prior = std::mem::replace(&mut slot.group, group);
            match rec {
                None => self.violate(2, now, format!("dispatch carries unknown raw {id:#x}")),
                Some(rec) => self.check_carried(id, &rec, req, now),
            }
            if prior != NO_GROUP {
                self.violate(2, now, format!("raw {id:#x} already in an open dispatch"));
            }
        }
        self.groups.insert(
            group,
            DispatchRec {
                addr,
                size: req.size,
                ids_at,
                ids: req.raw_ids.len(),
                targets: req.targets.len(),
                dispatched_at: now,
            },
        );
    }

    /// Check one issued raw request `rec` (id `id`, as it was before this
    /// dispatch) against the dispatch `req` carrying it.
    fn check_carried(&mut self, id: u64, rec: &Issued, req: &HmcRequest, now: Cycle) {
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
        if rec.addr.row() != req.addr.row() {
            self.violate(
                9,
                now,
                format!(
                    "raw {id:#x} @ row {:#x} served by dispatch @ row {:#x}",
                    rec.addr.row().0,
                    req.addr.row().0
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
            let fence_open = self
                .issued
                .get(fence)
                .and_then(|slot| slot.rec)
                .is_some_and(|f| !f.completed);
            if fence_open {
                self.violate(
                    5,
                    now,
                    format!("raw {id:#x} dispatched before its fence {fence:#x} retired"),
                );
            }
        }
        if rec.kind != MemOpKind::Fence {
            self.rows.push(rec.addr.row().0);
        }
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
        let group = match self.issued.get(first.0) {
            Some(slot) if slot.group != NO_GROUP => slot.group,
            _ => {
                self.violate(
                    3,
                    now,
                    format!("response for raw {:#x} without an open dispatch", first.0),
                );
                return;
            }
        };
        // Every id the response carries must still be open in `group`;
        // each is closed as it is matched, so a repeated id fails too.
        let mut mixed = false;
        for id in &rsp.raw_ids {
            let was = self.issued.get_mut(id.0).map_or(NO_GROUP, |slot| {
                std::mem::replace(&mut slot.group, NO_GROUP)
            });
            if was != group {
                mixed = true;
                self.violate(
                    3,
                    now,
                    format!("response mixes raw {:#x} from another dispatch", id.0),
                );
            }
        }
        let Some(rec) = self.groups.remove(group) else {
            self.violate(3, now, format!("dispatch group {group} responded twice"));
            return;
        };
        // Unmixed, the response's ids are distinct ids of this dispatch,
        // so they are its id multiset exactly when the counts agree (a
        // dispatch that repeated an id has fewer distinct ids than its
        // count). Otherwise compare the sorted lists.
        let same_ids = if mixed {
            let at = (rec.ids_at - self.group_ids_base) as usize;
            let mut sent: Vec<u64> = self.group_ids.range(at..at + rec.ids).copied().collect();
            let mut got: Vec<u64> = rsp.raw_ids.iter().map(|i| i.0).collect();
            sent.sort_unstable();
            got.sort_unstable();
            sent == got
        } else {
            rsp.raw_ids.len() == rec.ids
        };
        self.release_group_ids();
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
        if !same_ids || rsp.targets.len() != rec.targets {
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

    /// Drop the raw ids older than the oldest open dispatch's.
    fn release_group_ids(&mut self) {
        let keep_from = match self.groups.keys().next() {
            Some(oldest) => self
                .groups
                .get(oldest)
                .map_or(self.group_ids_base, |g| g.ids_at),
            None => self.group_ids_base + self.group_ids.len() as u64,
        };
        let done = (keep_from - self.group_ids_base) as usize;
        self.group_ids.drain(..done);
        self.group_ids_base = keep_from;
    }

    /// A per-request completion was delivered toward its thread.
    pub fn on_completion(&mut self, id: TransactionId, now: Cycle) {
        let id = id.0;
        match self.issued.get_mut(id).and_then(|slot| slot.rec.as_mut()) {
            None => self
                .findings
                .violate(1, now, format!("completion for unknown raw {id:#x}")),
            Some(rec) => {
                let double = rec.completed;
                let dispatched = rec.dispatched;
                rec.completed = true;
                if double {
                    self.findings
                        .violate(1, now, format!("raw {id:#x} completed twice"));
                } else {
                    self.open -= 1;
                }
                if !dispatched {
                    self.findings.violate(
                        2,
                        now,
                        format!("raw {id:#x} completed without a dispatch"),
                    );
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
        self.rows.sort_unstable();
        self.on_cycle_batch(now, &probe.stats);
        if !probe.idle {
            self.violate(
                1,
                now,
                format!(
                    "run hit the cycle cap before draining ({} raw requests still open)",
                    self.open
                ),
            );
            return; // The strict equalities below only hold for drained runs.
        }
        if self.open > 0 {
            let mut leftovers: Vec<(u64, Issued)> = self
                .issued
                .issued()
                .filter(|(_, r)| !r.completed)
                .map(|(id, &r)| (id, r))
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
        }
        if !self.groups.is_empty() {
            self.violate(
                3,
                now,
                format!("{} dispatches never got a response", self.groups.len()),
            );
        }
        let pending = self.threads.pending_fences();
        if pending > 0 {
            self.violate(5, now, format!("{pending} fences still pending at idle"));
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
        &self.findings.stored
    }

    /// Consume the checker, returning its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.findings.stored
    }

    /// Violations beyond the storage cap.
    pub fn suppressed(&self) -> u64 {
        self.findings.suppressed
    }

    /// True when no violation was detected.
    pub fn is_clean(&self) -> bool {
        self.findings.stored.is_empty() && self.findings.suppressed == 0
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

    /// Program-order issue log of `thread` — `(address, kind)`.
    pub(crate) fn thread_log(&self, thread: (u16, u16)) -> &[(u64, MemOpKind)] {
        self.threads.get(thread).map_or(&[], |t| &t.log)
    }

    /// Every thread that issued, with its log, ordered by `(node, tid)`.
    pub(crate) fn thread_logs(&self) -> Vec<((u16, u16), &IssueLog)> {
        self.threads
            .sorted()
            .into_iter()
            .filter(|(_, t)| !t.log.is_empty())
            .map(|(thread, t)| (thread, &t.log))
            .collect()
    }

    /// Row number of every raw memory request dispatched (sorted once
    /// [`Self::finish`] has run).
    pub(crate) fn served_rows(&self) -> &[u64] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{FlitMap, NodeId, PhysAddr, Target};

    fn raw(id: u64, addr: u64, kind: MemOpKind) -> RawRequest {
        let a = PhysAddr::new(addr);
        RawRequest {
            id: TransactionId(id),
            addr: a,
            kind,
            node: NodeId(0),
            home: NodeId(0),
            target: Target {
                tid: 0,
                tag: id as u16,
                flit: a.flit(),
            },
            issued_at: 0,
        }
    }

    fn txn_for(r: &RawRequest) -> HmcRequest {
        HmcRequest {
            addr: r.addr.flit_base(),
            size: ReqSize::B16,
            is_write: r.kind == MemOpKind::Store,
            is_atomic: r.kind == MemOpKind::Atomic,
            flit_map: FlitMap::single(r.addr.flit()),
            targets: vec![r.target],
            raw_ids: vec![r.id],
            dispatched_at: 1,
        }
    }

    fn rsp_for(t: &HmcRequest) -> HmcResponse {
        HmcResponse {
            addr: t.addr,
            size: t.size,
            is_write: t.is_write,
            targets: t.targets.clone(),
            raw_ids: t.raw_ids.clone(),
            completed_at: 10,
            conflicts: 0,
        }
    }

    fn checker() -> ConformanceChecker {
        ConformanceChecker::new(&SystemConfig::paper(1))
    }

    #[test]
    fn clean_single_request_lifecycle() {
        let mut c = checker();
        let r = raw(1, 0x1000, MemOpKind::Load);
        c.on_raw_issued(&r, 0);
        let t = txn_for(&r);
        c.on_dispatch(&t, 1);
        c.on_response(&rsp_for(&t), 10);
        c.on_completion(r.id, 11);
        let probe = FinishProbe {
            idle: true,
            soc_raw_requests: 1,
            soc_completions: 1,
            stats: StatsProbe {
                mac_raw_memory: 1,
                mac_emitted_total: 1,
                mac_emitted_split: 1,
                mac_emitted_bypass_built: 1,
                mac_pop_groups: 1,
                mac_targets_sum: 1,
                device_accesses: 1,
                device_raw_satisfied: 1,
                device_data_bytes: 16,
                device_useful_bytes: 16,
                ..StatsProbe::default()
            },
        };
        c.finish(&probe, 12);
        assert!(c.is_clean(), "{:?}", c.violations());
    }

    #[test]
    fn double_completion_is_i1() {
        let mut c = checker();
        let r = raw(1, 0x1000, MemOpKind::Load);
        c.on_raw_issued(&r, 0);
        let t = txn_for(&r);
        c.on_dispatch(&t, 1);
        c.on_completion(r.id, 5);
        c.on_completion(r.id, 6);
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].invariant, 1);
    }

    #[test]
    fn double_dispatch_is_i2() {
        let mut c = checker();
        let r = raw(1, 0x1000, MemOpKind::Load);
        c.on_raw_issued(&r, 0);
        let t = txn_for(&r);
        c.on_dispatch(&t, 1);
        c.on_dispatch(&t, 2);
        assert!(c.violations().iter().any(|v| v.invariant == 2));
    }

    #[test]
    fn mapped_flit_outside_window_is_i6() {
        // The deliberate chunk-mask off-by-one: a group with FLITs {0, 8}
        // whose builder packet only covers chunk 0.
        let mut c = checker();
        let a = raw(1, 0x2000, MemOpKind::Load); // flit 0
        let b = raw(2, 0x2080, MemOpKind::Load); // flit 8
        c.on_raw_issued(&a, 0);
        c.on_raw_issued(&b, 0);
        let mut fm = FlitMap::new();
        fm.set(0);
        fm.set(8);
        let t = HmcRequest {
            addr: PhysAddr::new(0x2000),
            size: ReqSize::B64, // window covers FLITs 0..4 only
            is_write: false,
            is_atomic: false,
            flit_map: fm,
            targets: vec![a.target, b.target],
            raw_ids: vec![a.id, b.id],
            dispatched_at: 1,
        };
        c.on_dispatch(&t, 1);
        assert!(
            c.violations().iter().any(|v| v.invariant == 6),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn dispatch_behind_pending_fence_is_i5() {
        let mut c = checker();
        let f = raw(1, 0, MemOpKind::Fence);
        c.on_raw_issued(&f, 0);
        let r = raw(2, 0x3000, MemOpKind::Load);
        c.on_raw_issued(&r, 1); // issue behind the fence: already I5
        c.on_dispatch(&txn_for(&r), 2); // dispatched before fence retired
        let i5 = c.violations().iter().filter(|v| v.invariant == 5).count();
        assert!(i5 >= 2, "{:?}", c.violations());
        c.on_fence_retired(&f, 3);
        assert_eq!(
            c.violations().iter().filter(|v| v.invariant == 5).count(),
            i5,
            "retire after the fact adds nothing"
        );
    }

    #[test]
    fn wrong_row_is_i9() {
        let mut c = checker();
        let r = raw(1, 0x1000, MemOpKind::Load);
        c.on_raw_issued(&r, 0);
        let mut t = txn_for(&r);
        t.addr = PhysAddr::new(0x5000);
        c.on_dispatch(&t, 1);
        assert!(c.violations().iter().any(|v| v.invariant == 9));
    }

    #[test]
    fn shrinking_counter_is_i7() {
        let mut c = checker();
        let mut p = StatsProbe {
            device_accesses: 5,
            ..StatsProbe::default()
        };
        c.on_cycle_batch(100, &p);
        p.device_accesses = 3;
        c.on_cycle_batch(200, &p);
        assert!(c.violations().iter().any(|v| v.invariant == 7));
    }

    #[test]
    fn non_idle_finish_is_i1_only() {
        let mut c = checker();
        let r = raw(1, 0x1000, MemOpKind::Load);
        c.on_raw_issued(&r, 0);
        c.finish(&FinishProbe::default(), 100);
        assert!(c
            .violations()
            .iter()
            .all(|v| v.invariant == 1 || v.invariant == 8));
        assert!(c.violations().iter().any(|v| v.invariant == 1));
    }

    #[test]
    fn descriptions_cover_all_invariants() {
        for n in 1..=INVARIANTS {
            assert_ne!(invariant_description(n), "unknown invariant");
        }
        assert_eq!(invariant_description(0), "unknown invariant");
    }
}
