//! The trace event vocabulary.
//!
//! One [`TraceEvent`] is emitted per micro-architectural occurrence the
//! paper's evaluation reasons about (§5): raw-request issue and routing,
//! ARQ insert/merge/bypass/fence activity, the request builder's two
//! pipeline stages, link FLIT serialization, vault/bank timing, and
//! response fan-out. Events are cycle-stamped and tagged with the
//! emitting node by the [`crate::Tracer`], forming a [`TraceRecord`].
//!
//! Every variant is `Copy` with fixed-width fields so records encode to
//! a compact, deterministic binary form (see [`crate::binfile`]).

/// Which queue a routed raw request landed in.
pub const ROUTE_LOCAL: u8 = 0;
/// Routed into the global (remote-bound) queue.
pub const ROUTE_GLOBAL: u8 = 1;
/// Refused this cycle (both queues full).
pub const ROUTE_STALLED: u8 = 2;
/// Arrived from the interconnect into the local queue.
pub const ROUTE_REMOTE_IN: u8 = 3;

/// Why an ARQ entry left the queue.
pub const POP_BUILDER: u8 = 0;
/// Popped through the single-FLIT `B`-bit bypass (§4.1.2).
pub const POP_BYPASS: u8 = 1;
/// A fence marker retired from the queue head.
pub const POP_FENCE: u8 = 2;

/// One micro-architectural occurrence.
///
/// Field conventions: `entry` is the ARQ allocation sequence number
/// (`GroupEntry::entry_id`), `row` is the 256 B DRAM row index, `flits`
/// counts 16 B FLITs, and cycle-valued fields (`start`, `done`) are
/// absolute simulation cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A core's raw request entered the request router.
    RawRoute {
        /// Raw transaction id.
        id: u64,
        /// Physical byte address.
        addr: u64,
        /// `ROUTE_*` constant.
        queue: u8,
    },
    /// A raw request was accepted by the MAC and allocated a fresh ARQ
    /// entry.
    ArqAlloc {
        /// ARQ allocation sequence number.
        entry: u32,
        /// 256 B DRAM row index.
        row: u64,
        /// True when the entry holds store traffic.
        is_store: bool,
        /// Entries occupied after the allocation.
        occupancy: u16,
    },
    /// A raw request CAM-merged into an existing ARQ entry (§4.1).
    ArqMerge {
        /// ARQ allocation sequence number.
        entry: u32,
        /// 256 B DRAM row index.
        row: u64,
        /// Raw requests in the entry after the merge.
        targets: u8,
    },
    /// A fence marker entered the ARQ.
    ArqFence {
        /// Raw transaction id of the fence marker.
        id: u64,
    },
    /// A latency-hiding fill burst fired (§4.1): the ARQ began draining
    /// early because free entries outnumbered the backlog.
    ArqFillBurst {
        /// Entries occupied when the burst triggered.
        occupancy: u16,
    },
    /// An entry left the ARQ head.
    ArqPop {
        /// ARQ allocation sequence number.
        entry: u32,
        /// `POP_*` constant.
        kind: u8,
        /// Entries occupied after the pop.
        occupancy: u16,
    },
    /// A fence retired and its completion was delivered.
    FenceRetire {
        /// Raw transaction id of the fence marker.
        id: u64,
    },
    /// A group entry latched into builder stage 1 (OR-reduce, §4.2).
    BuilderStage1 {
        /// ARQ allocation sequence number.
        entry: u32,
    },
    /// Stage 1 output latched into stage 2 (FLIT-table lookup, §4.2).
    BuilderStage2 {
        /// ARQ allocation sequence number.
        entry: u32,
        /// 4-bit chunk mask produced by the OR-reduce.
        chunk_mask: u8,
    },
    /// The builder assembled and emitted a transaction.
    BuilderEmit {
        /// ARQ allocation sequence number.
        entry: u32,
        /// Payload bytes of the assembled transaction.
        bytes: u16,
        /// Raw requests it satisfies.
        targets: u8,
    },
    /// The MAC dispatched a transaction toward the device.
    Dispatch {
        /// Transaction base address.
        addr: u64,
        /// Payload bytes.
        bytes: u16,
        /// 0 = bypass, 1 = built, 2 = atomic (mirrors
        /// `mac_coalescer::Provenance`).
        provenance: u8,
        /// Raw requests satisfied by this transaction.
        targets: u8,
    },
    /// FLITs serialized onto a link lane (request or response
    /// direction).
    LinkTx {
        /// Link lane index.
        link: u8,
        /// True for the response (up) direction.
        up: bool,
        /// 16 B FLITs serialized.
        flits: u16,
        /// Cycle serialization started.
        start: u64,
        /// Cycle the last FLIT left the lane.
        done: u64,
    },
    /// A transaction entered a vault's command queue.
    VaultEnqueue {
        /// Vault index.
        vault: u8,
        /// Queue depth after the enqueue.
        occupancy: u16,
    },
    /// A vault issued the closed-page row cycle for a transaction.
    VaultActivate {
        /// Vault index.
        vault: u8,
        /// Bank index within the vault.
        bank: u8,
        /// Cycle the activate issued.
        start: u64,
        /// Cycle the data burst finished.
        done: u64,
        /// Payload bytes moved.
        bytes: u16,
    },
    /// A transaction found its bank busy (§5, Figure 12's observable).
    BankConflict {
        /// Vault index.
        vault: u8,
        /// Bank index within the vault.
        bank: u8,
        /// Cycles the transaction waited for the bank.
        waited: u64,
    },
    /// The device finished an access and the response left the vault.
    HmcComplete {
        /// Transaction base address.
        addr: u64,
        /// Raw requests satisfied.
        targets: u8,
        /// End-to-end device latency in cycles.
        latency: u64,
    },
    /// A raw-request completion fanned out to its issuing core.
    Fanout {
        /// Raw transaction id completed.
        id: u64,
    },
    /// A packet entered an inter-cube fabric edge's serialization queue
    /// (multi-cube networks; `mac-net`).
    HopEnqueue {
        /// Cube the packet is leaving.
        from_cube: u8,
        /// Cube at the far end of the edge.
        to_cube: u8,
        /// 16 B FLITs in the packet.
        flits: u16,
        /// True for the response (toward-host) direction.
        up: bool,
    },
    /// An intermediate cube forwarded a transit packet: switch
    /// pass-through plus link re-serialization (`mac-net`).
    HopForward {
        /// The forwarding (transit) cube.
        cube: u8,
        /// Final destination cube of the packet.
        dest: u8,
        /// Cycle the packet entered the cube's switch.
        start: u64,
        /// Cycle the last FLIT left on the outgoing link.
        done: u64,
    },
    /// The adaptive controller retuned the MAC operating point at an
    /// interval boundary (DESIGN.md §17).
    AdaptDecision {
        /// New ARQ pop interval in cycles.
        pop_interval: u64,
        /// New accept width (raw requests per cycle).
        accepts: u16,
    },
}

impl TraceEvent {
    /// Stable numeric tag, used by the binary codec and as a cheap
    /// event-kind key in analyzers.
    pub fn tag(&self) -> u8 {
        match self {
            TraceEvent::RawRoute { .. } => 0,
            TraceEvent::ArqAlloc { .. } => 1,
            TraceEvent::ArqMerge { .. } => 2,
            TraceEvent::ArqFence { .. } => 3,
            TraceEvent::ArqFillBurst { .. } => 4,
            TraceEvent::ArqPop { .. } => 5,
            TraceEvent::FenceRetire { .. } => 6,
            TraceEvent::BuilderStage1 { .. } => 7,
            TraceEvent::BuilderStage2 { .. } => 8,
            TraceEvent::BuilderEmit { .. } => 9,
            TraceEvent::Dispatch { .. } => 10,
            TraceEvent::LinkTx { .. } => 11,
            TraceEvent::VaultEnqueue { .. } => 12,
            TraceEvent::VaultActivate { .. } => 13,
            TraceEvent::BankConflict { .. } => 14,
            TraceEvent::HmcComplete { .. } => 15,
            TraceEvent::Fanout { .. } => 16,
            TraceEvent::HopEnqueue { .. } => 17,
            TraceEvent::HopForward { .. } => 18,
            TraceEvent::AdaptDecision { .. } => 19,
        }
    }

    /// Human-readable kind name (CLI summaries).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::RawRoute { .. } => "raw_route",
            TraceEvent::ArqAlloc { .. } => "arq_alloc",
            TraceEvent::ArqMerge { .. } => "arq_merge",
            TraceEvent::ArqFence { .. } => "arq_fence",
            TraceEvent::ArqFillBurst { .. } => "arq_fill_burst",
            TraceEvent::ArqPop { .. } => "arq_pop",
            TraceEvent::FenceRetire { .. } => "fence_retire",
            TraceEvent::BuilderStage1 { .. } => "builder_stage1",
            TraceEvent::BuilderStage2 { .. } => "builder_stage2",
            TraceEvent::BuilderEmit { .. } => "builder_emit",
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::LinkTx { .. } => "link_tx",
            TraceEvent::VaultEnqueue { .. } => "vault_enqueue",
            TraceEvent::VaultActivate { .. } => "vault_activate",
            TraceEvent::BankConflict { .. } => "bank_conflict",
            TraceEvent::HmcComplete { .. } => "hmc_complete",
            TraceEvent::Fanout { .. } => "fanout",
            TraceEvent::HopEnqueue { .. } => "hop_enqueue",
            TraceEvent::HopForward { .. } => "hop_forward",
            TraceEvent::AdaptDecision { .. } => "adapt_decision",
        }
    }
}

/// A cycle-stamped, node-tagged event — the unit every sink receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle the event is attributed to.
    pub cycle: u64,
    /// Node (SoC + MAC + device stack) that emitted it.
    pub node: u16,
    /// The event itself.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_dense() {
        let events = [
            TraceEvent::RawRoute {
                id: 0,
                addr: 0,
                queue: 0,
            },
            TraceEvent::ArqAlloc {
                entry: 0,
                row: 0,
                is_store: false,
                occupancy: 0,
            },
            TraceEvent::ArqMerge {
                entry: 0,
                row: 0,
                targets: 0,
            },
            TraceEvent::ArqFence { id: 0 },
            TraceEvent::ArqFillBurst { occupancy: 0 },
            TraceEvent::ArqPop {
                entry: 0,
                kind: 0,
                occupancy: 0,
            },
            TraceEvent::FenceRetire { id: 0 },
            TraceEvent::BuilderStage1 { entry: 0 },
            TraceEvent::BuilderStage2 {
                entry: 0,
                chunk_mask: 0,
            },
            TraceEvent::BuilderEmit {
                entry: 0,
                bytes: 0,
                targets: 0,
            },
            TraceEvent::Dispatch {
                addr: 0,
                bytes: 0,
                provenance: 0,
                targets: 0,
            },
            TraceEvent::LinkTx {
                link: 0,
                up: false,
                flits: 0,
                start: 0,
                done: 0,
            },
            TraceEvent::VaultEnqueue {
                vault: 0,
                occupancy: 0,
            },
            TraceEvent::VaultActivate {
                vault: 0,
                bank: 0,
                start: 0,
                done: 0,
                bytes: 0,
            },
            TraceEvent::BankConflict {
                vault: 0,
                bank: 0,
                waited: 0,
            },
            TraceEvent::HmcComplete {
                addr: 0,
                targets: 0,
                latency: 0,
            },
            TraceEvent::Fanout { id: 0 },
            TraceEvent::HopEnqueue {
                from_cube: 0,
                to_cube: 0,
                flits: 0,
                up: false,
            },
            TraceEvent::HopForward {
                cube: 0,
                dest: 0,
                start: 0,
                done: 0,
            },
            TraceEvent::AdaptDecision {
                pop_interval: 0,
                accepts: 0,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.tag() as usize, i, "{}", e.kind_name());
        }
    }
}
