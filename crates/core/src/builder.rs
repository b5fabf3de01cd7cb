//! The two-stage pipelined Request Builder (§4.2, Figure 8).
//!
//! Stage 1 (1 cycle) OR-reduces the 16-bit FLIT map into the 4-bit chunk
//! mask. Stage 2 (2 cycles: table lookup + request assembly) consults the
//! FLIT table and emits the coalesced HMC transaction. With the ARQ
//! popping one entry every two cycles, the builder sustains the paper's
//! steady-state issue rate of 0.5 requests per cycle (§4.4).

use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{ChunkMask, Cycle, FlitMap, FlitTablePolicy, HmcRequest, MacConfig, PhysAddr};

use crate::arq::GroupEntry;
use crate::flit_table::FlitTable;

/// Stage-1 latch: the popped entry waiting for its OR-reduce.
#[derive(Debug, Clone, PartialEq)]
struct Stage1 {
    entry: GroupEntry,
    /// The OR-reduce result, computed once at latch time. The entry's
    /// FLIT map is frozen the moment it leaves the ARQ, so the mask is a
    /// pure function of the latch contents; computing it at `push`
    /// batches the reduction instead of re-deriving it on the s1→s2
    /// move.
    mask: ChunkMask,
    ready_at: Cycle,
}

/// Stage-2 latch: entry plus its computed chunk mask.
#[derive(Debug, Clone, PartialEq)]
struct Stage2 {
    entry: GroupEntry,
    mask: ChunkMask,
    ready_at: Cycle,
}

/// The pipelined builder.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBuilder {
    table: FlitTable,
    s1: Option<Stage1>,
    s2: Option<Stage2>,
    tracer: Tracer,
}

impl RequestBuilder {
    /// Build from the FLIT table, with the stage latencies of §4.2
    /// ([`MacConfig::STAGE1_LATENCY`], [`MacConfig::STAGE2_LATENCY`]).
    pub fn new(table: FlitTable) -> Self {
        RequestBuilder {
            table,
            s1: None,
            s2: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer (disabled by default; tracing is observational).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether stage 1 can latch a new entry this cycle.
    pub fn can_accept(&self) -> bool {
        self.s1.is_none()
    }

    /// Latch a popped ARQ entry into stage 1 at cycle `now`.
    pub fn push(&mut self, entry: GroupEntry, now: Cycle) {
        debug_assert!(self.can_accept(), "stage 1 occupied");
        debug_assert!(!entry.flit_map.is_empty(), "entries always carry >=1 FLIT");
        self.tracer.emit(now, || TraceEvent::BuilderStage1 {
            entry: entry.entry_id as u32,
        });
        let mask = entry.flit_map.chunk_mask();
        self.s1 = Some(Stage1 {
            entry,
            mask,
            ready_at: now + MacConfig::STAGE1_LATENCY,
        });
    }

    /// Earliest cycle at which [`RequestBuilder::tick`] could change
    /// state (a latch completing or an emit), or `None` when both stages
    /// are empty. When stage 1 is blocked behind an occupied stage 2 the
    /// true next change is stage 2's emit; the value returned is always a
    /// conservative lower bound on it.
    pub fn next_ready(&self) -> Option<Cycle> {
        match (&self.s1, &self.s2) {
            (None, None) => None,
            (Some(s1), None) => Some(s1.ready_at),
            (None, Some(s2)) => Some(s2.ready_at),
            // Stage 1 cannot move until stage 2 emits.
            (Some(_), Some(s2)) => Some(s2.ready_at),
        }
    }

    /// Advance the pipeline one cycle, handing each transaction completed
    /// at `now` to `emit` (one, except for the PerChunk64 ablation policy
    /// which may emit several 64 B packets from one entry). Allocates
    /// nothing: the targets of a single-packet entry move into its
    /// transaction.
    pub fn tick_with(&mut self, now: Cycle, mut emit: impl FnMut(HmcRequest)) {
        let done = match &self.s2 {
            Some(s2) if s2.ready_at <= now => self.s2.take(),
            _ => None,
        };
        if let Some(s2) = &done {
            self.tracer.emit(now, || TraceEvent::BuilderEmit {
                entry: s2.entry.entry_id as u32,
                bytes: (self.table.lookup_multi(s2.mask).iter())
                    .map(|p| p.size.bytes() as u16)
                    .sum(),
                targets: s2.entry.targets.len() as u8,
            });
        }

        if self.s2.is_none() {
            if let Some(s1) = &self.s1 {
                if s1.ready_at <= now {
                    let s1 = self.s1.take().expect("checked above");
                    // Stage 1's combinational result: the OR-reduce,
                    // computed once when the entry was latched.
                    let mask = s1.mask;
                    let entry = s1.entry.entry_id as u32;
                    self.tracer.emit(now, || TraceEvent::BuilderStage2 {
                        entry,
                        chunk_mask: mask.bits(),
                    });
                    self.s2 = Some(Stage2 {
                        entry: s1.entry,
                        mask,
                        ready_at: now + MacConfig::STAGE2_LATENCY,
                    });
                }
            }
        }

        // Emit after the stage-1 latch, so a cycle's trace reads
        // BuilderEmit, BuilderStage2, then the MAC's Dispatch.
        if let Some(s2) = done {
            self.assemble(s2.entry, s2.mask, now, &mut emit);
        }
    }

    /// [`RequestBuilder::tick_with`], collecting the transactions into a
    /// fresh `Vec`.
    pub fn tick(&mut self, now: Cycle) -> Vec<HmcRequest> {
        let mut out = Vec::new();
        self.tick_with(now, |req| out.push(req));
        out
    }

    /// True when both stages are empty (used to drain at end of run).
    pub fn is_empty(&self) -> bool {
        self.s1.is_none() && self.s2.is_none()
    }

    /// Assemble the final transaction(s) from a stage-2 latch.
    fn assemble(
        &self,
        entry: GroupEntry,
        mask: ChunkMask,
        now: Cycle,
        emit: &mut impl FnMut(HmcRequest),
    ) {
        let row_base = entry.row.base_addr();
        if self.table.policy() == FlitTablePolicy::PerChunk64 && mask.count() > 1 {
            // PerChunk64 ablation: split targets across the per-chunk
            // packets.
            for p in self.table.lookup_multi(mask) {
                let lo = p.start_chunk * 4;
                let hi = lo + 4;
                let chunk_bits = FlitMap::from_bits(entry.flit_map.bits() & (0xF << lo));
                let mut targets = Vec::new();
                let mut ids = Vec::new();
                for (t, id) in entry.targets.iter().zip(&entry.raw_ids) {
                    if (lo..hi).contains(&t.flit) {
                        targets.push(*t);
                        ids.push(*id);
                    }
                }
                emit(HmcRequest {
                    addr: PhysAddr::new(row_base.raw() + p.start_offset()),
                    size: p.size,
                    is_write: entry.is_store,
                    is_atomic: false,
                    flit_map: chunk_bits,
                    targets,
                    raw_ids: ids,
                    dispatched_at: now,
                });
            }
            return;
        }
        let p = (self.table.lookup(mask)).expect("non-empty mask has an entry");
        emit(HmcRequest {
            addr: PhysAddr::new(row_base.raw() + p.start_offset()),
            size: p.size,
            is_write: entry.is_store,
            is_atomic: false,
            flit_map: entry.flit_map,
            targets: entry.targets,
            raw_ids: entry.raw_ids,
            dispatched_at: now,
        });
    }
}

impl Default for RequestBuilder {
    fn default() -> Self {
        RequestBuilder::new(FlitTable::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{ReqSize, RowId, Target, TransactionId};

    fn entry(row: u64, flits: &[u8], store: bool) -> GroupEntry {
        let mut fm = FlitMap::new();
        let mut targets = Vec::new();
        let mut ids = Vec::new();
        for (i, &f) in flits.iter().enumerate() {
            fm.set(f);
            targets.push(Target {
                tid: i as u16,
                tag: 0,
                flit: f,
            });
            ids.push(TransactionId(i as u64));
        }
        GroupEntry {
            entry_id: 0,
            tagged_row: 0,
            row: RowId(row),
            is_store: store,
            flit_map: fm,
            targets,
            raw_ids: ids,
            allocated_at: 0,
        }
    }

    #[test]
    fn figure7_entry_builds_128b_at_offset_64() {
        let mut b = RequestBuilder::default();
        b.push(entry(0xA, &[6, 8, 9], false), 0);
        assert!(b.tick(0).is_empty(), "stage 1 takes a cycle");
        assert!(b.tick(1).is_empty(), "stage 2 takes two cycles");
        assert!(b.tick(2).is_empty());
        let out = b.tick(3);
        assert_eq!(out.len(), 1);
        let r = &out[0];
        assert_eq!(r.size, ReqSize::B128);
        assert_eq!(r.addr.raw(), (0xA << 8) + 64);
        assert_eq!(r.merged_count(), 3);
        assert!(!r.is_write);
        assert!(b.is_empty());
    }

    #[test]
    fn pipeline_latency_is_three_cycles_end_to_end() {
        let mut b = RequestBuilder::default();
        b.push(entry(1, &[0], false), 10);
        // ready: s1 at 11, moves to s2 at 11, emits at 13.
        assert!(b.tick(11).is_empty());
        assert!(b.tick(12).is_empty());
        assert_eq!(b.tick(13).len(), 1);
    }

    #[test]
    fn pipelining_overlaps_two_entries() {
        let mut b = RequestBuilder::default();
        b.push(entry(1, &[0], false), 0);
        b.tick(1); // entry 1 -> stage 2
        assert!(b.can_accept());
        b.push(entry(2, &[1], false), 2);
        let out3 = b.tick(3); // entry 1 emits; entry 2 -> stage 2
        assert_eq!(out3.len(), 1);
        let out5 = b.tick(5);
        assert_eq!(out5.len(), 1);
        assert_eq!(out5[0].addr.row(), RowId(2));
    }

    #[test]
    fn store_entries_build_write_requests() {
        let mut b = RequestBuilder::default();
        b.push(entry(3, &[0, 15], true), 0);
        b.tick(1);
        let out = b.tick(3);
        assert_eq!(out[0].size, ReqSize::B256, "span 4 chunks");
        assert!(out[0].is_write);
    }

    #[test]
    fn full_row_builds_256b_at_row_base() {
        let flits: Vec<u8> = (0..16).collect();
        let mut b = RequestBuilder::default();
        b.push(entry(0x20, &flits, false), 0);
        b.tick(1);
        let out = b.tick(3);
        assert_eq!(out[0].size, ReqSize::B256);
        assert_eq!(out[0].addr, RowId(0x20).base_addr());
        assert_eq!(out[0].merged_count(), 16);
    }

    #[test]
    fn per_chunk64_splits_targets_by_chunk() {
        let table = FlitTable::new(FlitTablePolicy::PerChunk64);
        let mut b = RequestBuilder::new(table);
        b.push(entry(0x9, &[1, 6, 14], false), 0);
        b.tick(1);
        let out = b.tick(3);
        assert_eq!(out.len(), 3);
        for r in &out {
            assert_eq!(r.size, ReqSize::B64);
            assert_eq!(r.merged_count(), 1, "one target per chunk here");
            assert_eq!(r.flit_map.count(), 1);
        }
        let offsets: Vec<u64> = out.iter().map(|r| r.addr.raw() - 0x900).collect();
        assert_eq!(offsets, vec![0, 64, 192]);
    }

    #[test]
    fn can_accept_reflects_stage1_occupancy() {
        let mut b = RequestBuilder::default();
        assert!(b.can_accept());
        b.push(entry(1, &[0], false), 0);
        assert!(!b.can_accept());
        b.tick(1); // moves to stage 2
        assert!(b.can_accept());
        assert!(!b.is_empty());
    }
}
