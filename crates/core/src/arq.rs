//! The Raw Request Aggregator and its Aggregated Request Queue (§4.1).
//!
//! The ARQ is a FIFO whose entries double as CAM lines: each incoming raw
//! request's `{T, row number}` key (the paper's §4.1.2 extension bits) is
//! compared against every pending entry in parallel. On a hit the request
//! merges into the entry — its FLIT-map bit is set and its 4.5 B target is
//! appended; on a miss a fresh entry is allocated at the tail.
//!
//! Fences allocate an entry and disable the comparators until they pop,
//! forcing program order around the fence. The latency-hiding mechanism
//! fills an under-utilized queue quickly: when more than half the entries
//! are free and a backlog is waiting in the access queues, that many
//! subsequent requests skip the comparators and claim fresh entries
//! directly (§4.1).

use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, FlitMap, MacConfig, MemOpKind, RawRequest, RowId, Target, TransactionId};
use std::collections::VecDeque;

/// One ARQ entry.
#[derive(Debug, Clone, PartialEq)]
pub enum ArqEntry {
    /// A (possibly merged) group of loads or stores to one DRAM row.
    Group(GroupEntry),
    /// A memory fence occupying one entry (§4.1).
    Fence(RawRequest),
}

/// The coalescable variant of an ARQ entry.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEntry {
    /// Allocation sequence number, unique per ARQ instance. Purely
    /// observational: lets trace events for one entry (alloc, merges,
    /// pop, builder stages, emit) be correlated offline.
    pub entry_id: u64,
    /// CAM key: `{T bit, row number}`.
    pub tagged_row: u64,
    /// The DRAM row all merged requests fall into.
    pub row: RowId,
    /// `T` bit: true for stores.
    pub is_store: bool,
    /// Which FLITs of the row have been requested (Figure 6).
    pub flit_map: FlitMap,
    /// Merged targets, arrival order (≤ 12 for 64 B entries, §5.3.3).
    pub targets: Vec<Target>,
    /// Transaction ids, parallel to `targets`.
    pub raw_ids: Vec<TransactionId>,
    /// Cycle the entry was allocated (queue-residency accounting).
    pub allocated_at: Cycle,
}

impl GroupEntry {
    /// The `B` bypass bit (§4.1.2): set when only one request fell into
    /// the row, letting it skip the request builder.
    pub fn bypass(&self) -> bool {
        self.targets.len() == 1
    }

    /// Number of merged raw requests.
    pub fn merged(&self) -> usize {
        self.targets.len()
    }
}

/// Result of offering one raw request to the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Merged into an existing entry (CAM hit).
    Merged,
    /// Allocated a fresh entry (CAM miss, or comparators disabled).
    Allocated,
    /// Queue full — caller must stall and retry.
    Full,
}

/// The Aggregated Request Queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Arq {
    entries: VecDeque<ArqEntry>,
    capacity: usize,
    max_targets: usize,
    /// Fences currently queued; comparators are disabled while > 0.
    fences_pending: usize,
    /// Remaining requests in the current latency-hiding fill burst.
    fill_credit: usize,
    latency_hiding: bool,
    /// Number of fill bursts triggered (stat).
    pub fill_bursts: u64,
    /// Next `GroupEntry::entry_id` to hand out.
    next_entry_id: u64,
    tracer: Tracer,
}

impl Arq {
    /// Build an ARQ from the MAC configuration.
    pub fn new(cfg: &MacConfig) -> Self {
        assert!(cfg.arq_entries > 0, "ARQ needs at least one entry");
        Arq {
            entries: VecDeque::with_capacity(cfg.arq_entries),
            capacity: cfg.arq_entries,
            max_targets: MacConfig::max_targets_per_entry(),
            fences_pending: 0,
            fill_credit: 0,
            latency_hiding: cfg.latency_hiding,
            fill_bursts: 0,
            next_entry_id: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer (disabled by default; tracing is observational).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Offer one raw request (one per cycle in hardware; enforced by the
    /// caller). Atomics must not be offered — they take the direct path.
    ///
    /// `backlog` is the number of raw requests currently waiting in the
    /// local/remote access queues behind this one. The latency-hiding
    /// mechanism (§4.1) uses it: when more than half the ARQ is free *and
    /// a backlog large enough to refill it is waiting*, the next `free`
    /// requests skip the comparators and bulk-load the queue ("ensure a
    /// sufficient amount of requests in the ARQ to perform aggregation").
    pub fn insert(&mut self, raw: RawRequest, backlog: usize) -> InsertOutcome {
        let at = raw.issued_at;
        self.insert_at(raw, backlog, at)
    }

    /// [`Arq::insert`] stamped with the current cycle `now` (used for
    /// trace events; the insert behavior itself is time-independent).
    pub fn insert_at(&mut self, raw: RawRequest, backlog: usize, now: Cycle) -> InsertOutcome {
        debug_assert!(raw.kind != MemOpKind::Atomic, "atomics bypass the ARQ");

        if raw.kind == MemOpKind::Fence {
            if self.entries.len() == self.capacity {
                return InsertOutcome::Full;
            }
            self.entries.push_back(ArqEntry::Fence(raw));
            self.fences_pending += 1;
            self.tracer
                .emit(now, || TraceEvent::ArqFence { id: raw.id.0 });
            return InsertOutcome::Allocated;
        }

        // Latency-hiding fill: when the queue is more than half empty and
        // a backlog is waiting upstream, claim fresh entries without
        // comparing (§4.1).
        if self.latency_hiding && self.fill_credit == 0 {
            let free = self.capacity - self.entries.len();
            if free > self.capacity / 2 && backlog >= free {
                self.fill_credit = free;
                self.fill_bursts += 1;
                self.tracer.emit(now, || TraceEvent::ArqFillBurst {
                    occupancy: self.entries.len() as u16,
                });
            }
        }

        let comparators_enabled = self.fences_pending == 0 && self.fill_credit == 0;
        if comparators_enabled {
            let key = raw.tagged_row();
            let max_targets = self.max_targets;
            for e in self.entries.iter_mut() {
                if let ArqEntry::Group(g) = e {
                    if g.tagged_row == key && g.targets.len() < max_targets {
                        g.flit_map.set(raw.addr.flit());
                        g.targets.push(raw.target);
                        g.raw_ids.push(raw.id);
                        let (entry, row, targets) =
                            (g.entry_id as u32, g.row.0, g.targets.len() as u8);
                        self.tracer.emit(now, || TraceEvent::ArqMerge {
                            entry,
                            row,
                            targets,
                        });
                        return InsertOutcome::Merged;
                    }
                }
            }
        }

        if self.entries.len() == self.capacity {
            return InsertOutcome::Full;
        }
        if self.fill_credit > 0 {
            self.fill_credit -= 1;
        }
        let entry_id = self.next_entry_id;
        self.next_entry_id += 1;
        let mut fm = FlitMap::new();
        fm.set(raw.addr.flit());
        self.entries.push_back(ArqEntry::Group(GroupEntry {
            entry_id,
            tagged_row: raw.tagged_row(),
            row: raw.addr.row(),
            is_store: raw.kind.type_bit(),
            flit_map: fm,
            targets: vec![raw.target],
            raw_ids: vec![raw.id],
            allocated_at: raw.issued_at,
        }));
        self.tracer.emit(now, || TraceEvent::ArqAlloc {
            entry: entry_id as u32,
            row: raw.addr.row().0,
            is_store: raw.kind.type_bit(),
            occupancy: self.entries.len() as u16,
        });
        InsertOutcome::Allocated
    }

    /// Pop the head entry for the request builder / bypass path.
    pub fn pop(&mut self) -> Option<ArqEntry> {
        let e = self.entries.pop_front()?;
        if matches!(e, ArqEntry::Fence(_)) {
            self.fences_pending -= 1;
        }
        Some(e)
    }

    /// Peek at the head entry without consuming it.
    pub fn peek(&self) -> Option<&ArqEntry> {
        self.entries.front()
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free entries (the counter driving the latency-hiding mechanism).
    pub fn free_entries(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a fence is currently queued (comparators disabled).
    pub fn fence_active(&self) -> bool {
        self.fences_pending > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{NodeId, PhysAddr};

    fn cfg() -> MacConfig {
        // Disable latency hiding in unit tests so CAM behaviour is
        // directly observable; dedicated tests re-enable it.
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

    #[test]
    fn figure7_merges_loads_and_separates_store() {
        let mut arq = Arq::new(&cfg());
        // Requests 1, 2, 4: loads to row 0xA, FLITs 6, 8, 9.
        assert_eq!(
            arq.insert(raw(1, 0xA60, MemOpKind::Load), 0),
            InsertOutcome::Allocated
        );
        assert_eq!(
            arq.insert(raw(2, 0xA80, MemOpKind::Load), 0),
            InsertOutcome::Merged
        );
        // Request 3: store to the same row -> separate entry, T differs.
        assert_eq!(
            arq.insert(raw(3, 0xA70, MemOpKind::Store), 0),
            InsertOutcome::Allocated
        );
        assert_eq!(
            arq.insert(raw(4, 0xA90, MemOpKind::Load), 0),
            InsertOutcome::Merged
        );
        assert_eq!(arq.len(), 2);

        let ArqEntry::Group(loads) = arq.pop().unwrap() else {
            panic!("expected group")
        };
        assert_eq!(loads.merged(), 3);
        assert!(!loads.is_store);
        assert_eq!(loads.flit_map.bits(), (1 << 6) | (1 << 8) | (1 << 9));
        assert!(!loads.bypass());

        let ArqEntry::Group(store) = arq.pop().unwrap() else {
            panic!("expected group")
        };
        assert_eq!(store.merged(), 1);
        assert!(store.is_store);
        assert!(store.bypass(), "single-request row sets the B bit");
    }

    #[test]
    fn different_rows_do_not_merge() {
        let mut arq = Arq::new(&cfg());
        arq.insert(raw(1, 0xA00, MemOpKind::Load), 0);
        assert_eq!(
            arq.insert(raw(2, 0xB00, MemOpKind::Load), 0),
            InsertOutcome::Allocated
        );
        assert_eq!(arq.len(), 2);
    }

    #[test]
    fn entry_target_limit_spills_to_new_entry() {
        let mut arq = Arq::new(&cfg());
        // 12 targets fit (64 B entry); the 13th same-row request spills.
        for i in 0..12 {
            let out = arq.insert(raw(i, 0xA00 + (i % 16) * 16, MemOpKind::Load), 0);
            if i == 0 {
                assert_eq!(out, InsertOutcome::Allocated);
            } else {
                assert_eq!(out, InsertOutcome::Merged, "request {i}");
            }
        }
        assert_eq!(
            arq.insert(raw(12, 0xA00, MemOpKind::Load), 0),
            InsertOutcome::Allocated
        );
        assert_eq!(arq.len(), 2);
    }

    #[test]
    fn full_queue_backpressures() {
        let mut arq = Arq::new(&MacConfig {
            arq_entries: 2,
            latency_hiding: false,
            ..cfg()
        });
        arq.insert(raw(1, 0x000, MemOpKind::Load), 0);
        arq.insert(raw(2, 0x100, MemOpKind::Load), 0);
        assert_eq!(
            arq.insert(raw(3, 0x200, MemOpKind::Load), 0),
            InsertOutcome::Full
        );
        // Same-row merge still works when full.
        assert_eq!(
            arq.insert(raw(4, 0x010, MemOpKind::Load), 0),
            InsertOutcome::Merged
        );
        assert_eq!(arq.free_entries(), 0);
    }

    #[test]
    fn fence_disables_merging_until_popped() {
        let mut arq = Arq::new(&cfg());
        arq.insert(raw(1, 0xA00, MemOpKind::Load), 0);
        arq.insert(raw(2, 0xF00, MemOpKind::Fence), 0);
        assert!(arq.fence_active());
        // Same row as request 1, but the fence forces a fresh entry.
        assert_eq!(
            arq.insert(raw(3, 0xA10, MemOpKind::Load), 0),
            InsertOutcome::Allocated
        );
        assert_eq!(arq.len(), 3);

        // Drain up to and including the fence; merging resumes.
        arq.pop(); // group 1
        let fence = arq.pop().unwrap(); // fence
        assert!(matches!(fence, ArqEntry::Fence(_)));
        assert!(!arq.fence_active());
        assert_eq!(
            arq.insert(raw(4, 0xA20, MemOpKind::Load), 0),
            InsertOutcome::Merged
        );
    }

    #[test]
    fn two_fences_keep_comparators_off_until_both_pop() {
        let mut arq = Arq::new(&cfg());
        arq.insert(raw(1, 0xF00, MemOpKind::Fence), 0);
        arq.insert(raw(2, 0xF00, MemOpKind::Fence), 0);
        arq.pop();
        assert!(arq.fence_active(), "second fence still queued");
        arq.pop();
        assert!(!arq.fence_active());
    }

    #[test]
    fn latency_hiding_fill_skips_comparators() {
        let mut arq = Arq::new(&MacConfig::default()); // latency hiding on
                                                       // Queue empty (free 32 > half 16) and a 40-deep backlog waiting:
                                                       // fill burst of 32 begins.
        for i in 0..4 {
            // All four target the same row but must NOT merge during the burst.
            assert_eq!(
                arq.insert(raw(i, 0xA00 + i * 16, MemOpKind::Load), 40),
                InsertOutcome::Allocated
            );
        }
        assert_eq!(arq.len(), 4);
        assert_eq!(arq.fill_bursts, 1);

        // Without a backlog, the comparators stay on and same-row
        // requests merge normally.
        let mut quiet = Arq::new(&MacConfig::default());
        quiet.insert(raw(10, 0xB00, MemOpKind::Load), 0);
        assert_eq!(
            quiet.insert(raw(11, 0xB10, MemOpKind::Load), 0),
            InsertOutcome::Merged
        );
        assert_eq!(quiet.fill_bursts, 0);
    }

    #[test]
    fn fill_burst_ends_after_credit_consumed() {
        let cfg = MacConfig {
            arq_entries: 4,
            ..MacConfig::default()
        };
        let mut arq = Arq::new(&cfg);
        // free=4 > 2 with backlog 8 -> burst credit 4: four allocations
        // without merging.
        for i in 0..4 {
            assert_eq!(
                arq.insert(raw(i, 0xA00, MemOpKind::Load), 8),
                InsertOutcome::Allocated
            );
        }
        // Credit exhausted and queue full; same-row request now merges.
        assert_eq!(
            arq.insert(raw(9, 0xA00, MemOpKind::Load), 8),
            InsertOutcome::Merged
        );
    }

    #[test]
    fn pop_is_fifo() {
        let mut arq = Arq::new(&cfg());
        arq.insert(raw(1, 0xA00, MemOpKind::Load), 0);
        arq.insert(raw(2, 0xB00, MemOpKind::Load), 0);
        let ArqEntry::Group(first) = arq.pop().unwrap() else {
            panic!()
        };
        assert_eq!(first.row, PhysAddr::new(0xA00).row());
        assert!(arq.peek().is_some());
        assert_eq!(arq.len(), 1);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut arq = Arq::new(&cfg());
        assert!(arq.pop().is_none());
        assert!(arq.is_empty());
        assert_eq!(arq.capacity(), 32);
    }
}
