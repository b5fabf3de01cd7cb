//! Raw memory requests, coalesced HMC requests, and responses.
//!
//! A **raw request** is what a core emits: one FLIT-granular load, store,
//! atomic, or fence, tagged with its *target information* (§4.1.1): thread
//! id (2 B), transaction tag (2 B), and requested FLIT id (4 bits) — 4.5 B
//! per target in the paper's accounting.
//!
//! An **HMC request** is what the MAC (or the bypass path) dispatches to
//! the device: a packetized transaction of 16–256 B carrying the targets of
//! every raw request it satisfies, so the response router can deliver data
//! back to the originating threads.

use crate::addr::PhysAddr;
use crate::flit::FlitMap;
use crate::Cycle;

/// Identifies a node in the multi-node NUMA system of Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

/// Globally unique id assigned to each raw request by the simulator, used
/// to track per-request latency end to end. (Not a hardware structure.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransactionId(pub u64);

impl TransactionId {
    /// Bits of the id reserved for the per-node sequence number; the
    /// originating node occupies the bits above.
    pub const SEQ_BITS: u32 = 48;

    /// Compose an id from its originating node and per-node sequence
    /// number (the encoding `soc_sim::Node` uses when issuing).
    #[inline]
    pub const fn compose(node: u16, seq: u64) -> Self {
        TransactionId(((node as u64) << Self::SEQ_BITS) | (seq & ((1 << Self::SEQ_BITS) - 1)))
    }

    /// The node that issued this request. Conformance checking relies on
    /// this being recoverable from the id alone, so responses can be
    /// attributed without side tables.
    #[inline]
    pub const fn origin_node(self) -> u16 {
        (self.0 >> Self::SEQ_BITS) as u16
    }

    /// Issue-order sequence number within the originating node.
    #[inline]
    pub const fn local_seq(self) -> u64 {
        self.0 & ((1 << Self::SEQ_BITS) - 1)
    }
}

/// Kind of memory operation carried by a raw request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// Read of one FLIT.
    Load,
    /// Write of one FLIT.
    Store,
    /// Atomic read-modify-write. Never coalesced: routed directly to the
    /// device to preserve atomicity (§4.1.2).
    Atomic,
    /// Memory fence. Disables ARQ comparators until it drains (§4.1).
    Fence,
}

impl MemOpKind {
    /// Whether the ARQ may merge this operation with others.
    #[inline]
    pub const fn coalescable(self) -> bool {
        matches!(self, MemOpKind::Load | MemOpKind::Store)
    }

    /// The `T` bit of §4.1.2: 0 for loads, 1 for stores. Meaningless for
    /// atomics and fences, which never enter a CAM comparison.
    #[inline]
    pub const fn type_bit(self) -> bool {
        matches!(self, MemOpKind::Store)
    }

    /// True for operations that expect data back (loads and atomics).
    #[inline]
    pub const fn expects_data(self) -> bool {
        matches!(self, MemOpKind::Load | MemOpKind::Atomic)
    }
}

/// Target information stored per merged raw request (§4.1.1, Figure 6):
/// 2 B thread id + 2 B transaction tag + 4-bit FLIT id = 4.5 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// Originating hardware thread (up to 64 K threads).
    pub tid: u16,
    /// Per-thread transaction tag (up to 64 K outstanding per thread).
    pub tag: u16,
    /// Which FLIT of the row this target requested (`0..16`).
    pub flit: u8,
}

impl Target {
    /// Size in bytes of one target record as accounted by the paper.
    pub const BYTES: f64 = 4.5;
}

/// A raw, FLIT-granular memory request as emitted by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRequest {
    /// Simulator-assigned unique id (latency tracking).
    pub id: TransactionId,
    /// Physical address of the accessed word.
    pub addr: PhysAddr,
    /// Operation kind.
    pub kind: MemOpKind,
    /// Originating node (for the NUMA request router of §3.1).
    pub node: NodeId,
    /// Node owning the addressed memory (home node).
    pub home: NodeId,
    /// Target information used to route the response back.
    pub target: Target,
    /// Cycle at which the core issued this request.
    pub issued_at: Cycle,
}

impl RawRequest {
    /// Whether this request is local to its home node's memory device.
    #[inline]
    pub const fn is_local(&self) -> bool {
        self.node.0 == self.home.0
    }

    /// The ARQ CAM comparison key (`{T, row}`; §4.1.2).
    #[inline]
    pub const fn tagged_row(&self) -> u64 {
        self.addr.tagged_row(self.kind.type_bit())
    }
}

/// Size of a coalesced HMC request transaction as emitted by the request
/// builder (§4.2: 64–256 B) or by the bypass path (16 B single-FLIT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReqSize {
    /// Single FLIT, 16 B — only produced by the `B`-bit bypass path.
    B16,
    /// Two FLITs, 32 B — produced when HMC-1.0 compatibility mode caps
    /// builder output (not used in the default configuration).
    B32,
    /// One chunk, 64 B.
    B64,
    /// Two chunks, 128 B.
    B128,
    /// Full row, 256 B.
    B256,
}

impl ReqSize {
    /// Data payload in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            ReqSize::B16 => 16,
            ReqSize::B32 => 32,
            ReqSize::B64 => 64,
            ReqSize::B128 => 128,
            ReqSize::B256 => 256,
        }
    }

    /// Data payload in FLITs.
    #[inline]
    pub const fn flits(self) -> u64 {
        self.bytes() / 16
    }
}

/// A coalesced (or bypassed) request transaction bound for the HMC device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmcRequest {
    /// Start address of the transaction (FLIT-aligned; chunk-aligned for
    /// builder output).
    pub addr: PhysAddr,
    /// Payload size.
    pub size: ReqSize,
    /// `true` for writes (all merged operations share the `T` bit).
    pub is_write: bool,
    /// `true` if this request is an atomic forwarded on the bypass path.
    pub is_atomic: bool,
    /// FLITs of the row actually requested by raw requests — the "useful"
    /// subset of the payload, used for data-utilization accounting.
    pub flit_map: FlitMap,
    /// Targets of every merged raw request, in arrival order.
    pub targets: Vec<Target>,
    /// Transaction ids of every merged raw request (parallel to `targets`).
    pub raw_ids: Vec<TransactionId>,
    /// Cycle at which the MAC dispatched this transaction.
    pub dispatched_at: Cycle,
}

impl HmcRequest {
    /// Number of raw requests satisfied by this transaction.
    #[inline]
    pub fn merged_count(&self) -> usize {
        self.raw_ids.len()
    }

    /// Useful bytes: FLITs actually requested x 16 B.
    #[inline]
    pub fn useful_bytes(&self) -> u64 {
        match self.size {
            // Bypass path: the single FLIT is the whole payload.
            ReqSize::B16 => 16,
            _ => u64::from(self.flit_map.count()) * 16,
        }
    }
}

/// A response returned by the HMC device for one request transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmcResponse {
    /// Echo of the request's start address.
    pub addr: PhysAddr,
    /// Echo of the request's size (drives response packet length).
    pub size: ReqSize,
    /// Whether the original request was a write (write responses carry no
    /// data payload, only the 1-FLIT completion).
    pub is_write: bool,
    /// Targets to deliver data (or completion) to.
    pub targets: Vec<Target>,
    /// Raw transaction ids completed by this response.
    pub raw_ids: Vec<TransactionId>,
    /// Cycle at which the device completed the access.
    pub completed_at: Cycle,
    /// Bank conflicts this access experienced inside the device.
    pub conflicts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RowId;

    fn raw(addr: u64, kind: MemOpKind) -> RawRequest {
        RawRequest {
            id: TransactionId(1),
            addr: PhysAddr::new(addr),
            kind,
            node: NodeId(0),
            home: NodeId(0),
            target: Target {
                tid: 0,
                tag: 0,
                flit: PhysAddr::new(addr).flit(),
            },
            issued_at: 0,
        }
    }

    #[test]
    fn kinds_classify_correctly() {
        assert!(MemOpKind::Load.coalescable());
        assert!(MemOpKind::Store.coalescable());
        assert!(!MemOpKind::Atomic.coalescable());
        assert!(!MemOpKind::Fence.coalescable());
        assert!(!MemOpKind::Load.type_bit());
        assert!(MemOpKind::Store.type_bit());
        assert!(MemOpKind::Load.expects_data());
        assert!(MemOpKind::Atomic.expects_data());
        assert!(!MemOpKind::Store.expects_data());
    }

    #[test]
    fn tagged_row_separates_types_like_figure7() {
        // Figure 7: request 3 is a store to row 0xA; requests 1/2/4 are
        // loads to row 0xA. They must not compare equal in the CAM.
        let load = raw(0xA60, MemOpKind::Load);
        let store = raw(0xA70, MemOpKind::Store);
        assert_eq!(load.addr.row(), RowId(0xA));
        assert_eq!(store.addr.row(), RowId(0xA));
        assert_ne!(load.tagged_row(), store.tagged_row());
    }

    #[test]
    fn req_size_bytes_and_flits() {
        assert_eq!(ReqSize::B16.flits(), 1);
        assert_eq!(ReqSize::B64.flits(), 4);
        assert_eq!(ReqSize::B128.flits(), 8);
        assert_eq!(ReqSize::B256.flits(), 16);
    }

    #[test]
    fn useful_bytes_counts_requested_flits_only() {
        let mut fm = FlitMap::new();
        fm.set(6);
        fm.set(8);
        fm.set(9);
        let req = HmcRequest {
            addr: PhysAddr::new(0xA40),
            size: ReqSize::B128,
            is_write: false,
            is_atomic: false,
            flit_map: fm,
            targets: vec![],
            raw_ids: vec![],
            dispatched_at: 0,
        };
        assert_eq!(req.useful_bytes(), 48);
    }

    #[test]
    fn transaction_id_round_trips_origin_and_seq() {
        let id = TransactionId::compose(7, 0x1234);
        assert_eq!(id.origin_node(), 7);
        assert_eq!(id.local_seq(), 0x1234);
        assert_eq!(id, TransactionId((7u64 << 48) | 0x1234));
        let max = TransactionId::compose(u16::MAX, (1 << 48) - 1);
        assert_eq!(max.origin_node(), u16::MAX);
        assert_eq!(max.local_seq(), (1 << 48) - 1);
    }

    #[test]
    fn locality_is_node_vs_home() {
        let mut r = raw(0x100, MemOpKind::Load);
        assert!(r.is_local());
        r.home = NodeId(3);
        assert!(!r.is_local());
    }
}
