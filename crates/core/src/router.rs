//! Request and response routers (§3.1, §3.3).
//!
//! The **request router** classifies each raw request by the home node of
//! its address: requests for the local 3D-stacked memory go to the *Local
//! Access Queue*; requests for remote devices leave through the *Global
//! Access Queue*; and raw requests arriving from other nodes land in the
//! *Remote Access Queue*. The local and remote queues feed the node's MAC
//! (one request per cycle, arbitrated round-robin); the global queue feeds
//! the interconnect.
//!
//! The **response router** fans a device response out into per-raw-request
//! completions keyed by target information, splitting local deliveries
//! from those that must travel back across the interconnect.

use mac_types::{Cycle, HmcResponse, NodeId, RawRequest, Target, TransactionId};
use std::collections::VecDeque;

/// Which queue a routed request landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedTo {
    /// Local access queue (request targets this node's memory).
    Local,
    /// Global access queue (request leaves for a remote node).
    Global,
    /// The target queue was full; the core must retry.
    Stalled,
}

/// The three FIFO queues decoupling cores from the memory subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRouter {
    node: NodeId,
    local: VecDeque<RawRequest>,
    remote: VecDeque<RawRequest>,
    global: VecDeque<RawRequest>,
    depth: usize,
    /// Round-robin arbitration state between local and remote queues.
    prefer_remote: bool,
}

impl RequestRouter {
    /// Build the router for `node` with per-queue capacity `depth`.
    pub fn new(node: NodeId, depth: usize) -> Self {
        RequestRouter {
            node,
            local: VecDeque::new(),
            remote: VecDeque::new(),
            global: VecDeque::new(),
            depth,
            prefer_remote: false,
        }
    }

    /// Route one locally generated raw request. Requests whose home is
    /// this node enter the local queue; others leave via the global queue.
    pub fn route(&mut self, raw: RawRequest) -> RoutedTo {
        if raw.home == self.node {
            if self.local.len() >= self.depth {
                return RoutedTo::Stalled;
            }
            self.local.push_back(raw);
            RoutedTo::Local
        } else {
            if self.global.len() >= self.depth {
                return RoutedTo::Stalled;
            }
            self.global.push_back(raw);
            RoutedTo::Global
        }
    }

    /// Free slots in the local and global queues, in that order: how
    /// many more locally generated requests [`RequestRouter::route`]
    /// accepts into each before it stalls.
    pub fn free_slots(&self) -> (usize, usize) {
        (
            self.depth.saturating_sub(self.local.len()),
            self.depth.saturating_sub(self.global.len()),
        )
    }

    /// Accept a raw request arriving from a remote node. Returns `false`
    /// (and drops nothing) when the remote queue is full.
    pub fn accept_remote(&mut self, raw: RawRequest) -> bool {
        if self.remote.len() >= self.depth {
            return false;
        }
        self.remote.push_back(raw);
        true
    }

    /// Hand the next raw request to the MAC (one per cycle), arbitrating
    /// fairly between the local and remote queues.
    pub fn pop_for_mac(&mut self) -> Option<RawRequest> {
        let (first, second): (&mut VecDeque<_>, &mut VecDeque<_>) = if self.prefer_remote {
            (&mut self.remote, &mut self.local)
        } else {
            (&mut self.local, &mut self.remote)
        };
        let req = first.pop_front().or_else(|| second.pop_front());
        if req.is_some() {
            self.prefer_remote = !self.prefer_remote;
        }
        req
    }

    /// Re-queue a request the MAC refused (ARQ full) at the head of its
    /// originating queue so ordering is preserved.
    pub fn push_back_front(&mut self, raw: RawRequest) {
        if raw.node == self.node {
            self.local.push_front(raw);
        } else {
            self.remote.push_front(raw);
        }
    }

    /// Next request leaving for the interconnect.
    pub fn pop_global(&mut self) -> Option<RawRequest> {
        self.global.pop_front()
    }

    /// Total queued requests across the three queues.
    pub fn queued(&self) -> usize {
        self.local.len() + self.remote.len() + self.global.len()
    }

    /// True when all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.queued() == 0
    }
}

/// One completed raw request, ready for delivery to its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawCompletion {
    /// The raw request's simulator id.
    pub id: TransactionId,
    /// Target information (thread id, tag, FLIT).
    pub target: Target,
    /// Cycle the data became available at the node.
    pub completed_at: Cycle,
}

/// Fans device responses out to per-request completions (§3.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResponseRouter {
    /// Completions delivered (stat).
    pub delivered: u64,
}

impl ResponseRouter {
    /// Build a response router.
    pub fn new() -> Self {
        ResponseRouter::default()
    }

    /// Expand one device response into the completions of every merged
    /// raw request it satisfies, handing each to `deliver` in target
    /// order. Allocates nothing.
    pub fn expand_each(&mut self, rsp: &HmcResponse, mut deliver: impl FnMut(RawCompletion)) {
        for cpl in completions(rsp) {
            self.delivered += 1;
            deliver(cpl);
        }
    }

    /// [`ResponseRouter::expand_each`], collecting the completions into
    /// a fresh `Vec`.
    pub fn expand(&mut self, rsp: &HmcResponse) -> Vec<RawCompletion> {
        let out: Vec<RawCompletion> = completions(rsp).collect();
        self.delivered += out.len() as u64;
        out
    }
}

/// The completions `rsp` satisfies, one per merged raw request, in
/// target order.
fn completions(rsp: &HmcResponse) -> impl Iterator<Item = RawCompletion> + '_ {
    rsp.raw_ids
        .iter()
        .zip(&rsp.targets)
        .map(|(&id, &target)| RawCompletion {
            id,
            target,
            completed_at: rsp.completed_at,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{MemOpKind, PhysAddr, ReqSize};

    fn raw(id: u64, node: u16, home: u16) -> RawRequest {
        RawRequest {
            id: TransactionId(id),
            addr: PhysAddr::new(id * 16),
            kind: MemOpKind::Load,
            node: NodeId(node),
            home: NodeId(home),
            target: Target {
                tid: id as u16,
                tag: 0,
                flit: 0,
            },
            issued_at: 0,
        }
    }

    #[test]
    fn local_requests_go_local() {
        let mut r = RequestRouter::new(NodeId(0), 4);
        assert_eq!(r.route(raw(1, 0, 0)), RoutedTo::Local);
        assert_eq!(r.route(raw(2, 0, 3)), RoutedTo::Global);
        assert_eq!(r.queued(), 2);
        assert_eq!(r.pop_global().unwrap().id, TransactionId(2));
    }

    #[test]
    fn queues_backpressure_independently() {
        let mut r = RequestRouter::new(NodeId(0), 1);
        assert_eq!(r.free_slots(), (1, 1));
        assert_eq!(r.route(raw(1, 0, 0)), RoutedTo::Local);
        assert_eq!(r.route(raw(2, 0, 0)), RoutedTo::Stalled);
        // Global queue still has room.
        assert_eq!(r.free_slots(), (0, 1));
        assert_eq!(r.route(raw(3, 0, 1)), RoutedTo::Global);
        assert_eq!(r.route(raw(4, 0, 1)), RoutedTo::Stalled);
        assert_eq!(r.free_slots(), (0, 0));
        // Remote arrivals and pops for the MAC move only their queues.
        assert!(r.accept_remote(raw(5, 1, 0)));
        assert_eq!(r.free_slots(), (0, 0));
        assert_eq!(r.pop_for_mac().map(|q| q.id.0), Some(1));
        assert_eq!(r.free_slots(), (1, 0));
    }

    #[test]
    fn arbitration_alternates_between_local_and_remote() {
        let mut r = RequestRouter::new(NodeId(0), 8);
        r.route(raw(1, 0, 0));
        r.route(raw(2, 0, 0));
        assert!(r.accept_remote(raw(10, 1, 0)));
        assert!(r.accept_remote(raw(11, 1, 0)));
        let order: Vec<u64> = std::iter::from_fn(|| r.pop_for_mac())
            .map(|q| q.id.0)
            .collect();
        assert_eq!(order, vec![1, 10, 2, 11], "round-robin local/remote");
    }

    #[test]
    fn remote_queue_has_finite_depth() {
        let mut r = RequestRouter::new(NodeId(0), 2);
        assert!(r.accept_remote(raw(1, 1, 0)));
        assert!(r.accept_remote(raw(2, 1, 0)));
        assert!(!r.accept_remote(raw(3, 1, 0)));
    }

    #[test]
    fn refused_requests_return_to_queue_head() {
        let mut r = RequestRouter::new(NodeId(0), 4);
        r.route(raw(1, 0, 0));
        r.route(raw(2, 0, 0));
        let popped = r.pop_for_mac().unwrap();
        r.push_back_front(popped);
        assert_eq!(
            r.pop_for_mac().unwrap().id,
            TransactionId(1),
            "order preserved"
        );
    }

    #[test]
    fn response_expansion_pairs_ids_with_targets() {
        let mut rr = ResponseRouter::new();
        let rsp = HmcResponse {
            addr: PhysAddr::new(0xA00),
            size: ReqSize::B128,
            is_write: false,
            targets: vec![
                Target {
                    tid: 1,
                    tag: 7,
                    flit: 6,
                },
                Target {
                    tid: 2,
                    tag: 8,
                    flit: 8,
                },
            ],
            raw_ids: vec![TransactionId(100), TransactionId(101)],
            completed_at: 500,
            conflicts: 0,
        };
        let c = rr.expand(&rsp);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].id, TransactionId(100));
        assert_eq!(c[0].target.tid, 1);
        assert_eq!(c[1].target.flit, 8);
        assert!(c.iter().all(|x| x.completed_at == 500));
        assert_eq!(rr.delivered, 2);
    }
}
