//! A complete node: cores, thread placement, transaction tracking.
//!
//! The node turns core-level [`crate::IssueRequest`]s into tagged [`RawRequest`]s
//! for the request router, and routes completions back to the owning
//! core/thread.

use mac_types::{
    Cycle, MemOpKind, NodeId, PhysAddr, RawRequest, SeqWindow, SocConfig, Target, TransactionId,
};

use crate::core::Core;
use crate::metrics::SocMetrics;
use crate::program::ThreadProgram;

/// NUMA home-node mapping: DRAM rows are interleaved across nodes, so
/// consecutive rows of the global address space belong to different nodes
/// (Figure 4's multi-node organization).
pub fn home_of(addr: PhysAddr, nodes: usize) -> NodeId {
    if nodes <= 1 {
        NodeId(0)
    } else {
        NodeId((addr.row().0 % nodes as u64) as u16)
    }
}

/// One node of the Figure 4 system.
pub struct Node {
    id: NodeId,
    cores: Vec<Core>,
    /// Core index of each thread, indexed by tid.
    thread_home: Vec<usize>,
    /// In-flight raw requests: id -> tid, indexed by id (`next_txn`
    /// hands ids out in order).
    pending: SeqWindow<u16>,
    next_txn: u64,
    nodes_in_system: usize,
    metrics: SocMetrics,
    /// Per-thread tag counters (the 2 B transaction tag of §4.1.1),
    /// indexed by tid.
    tags: Vec<u16>,
}

impl Node {
    /// Build a node: `programs[i]` becomes hardware thread `i`, spread
    /// round-robin across `cfg.cores` cores.
    pub fn new(id: NodeId, cfg: &SocConfig, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        let ncores = cfg.cores.max(1);
        let mut per_core: Vec<Vec<(u16, Box<dyn ThreadProgram>)>> =
            (0..ncores).map(|_| Vec::new()).collect();
        let mut thread_home = Vec::with_capacity(programs.len());
        for (i, p) in programs.into_iter().enumerate() {
            let core = i % ncores;
            thread_home.push(core);
            per_core[core].push((i as u16, p));
        }
        let cores = per_core
            .into_iter()
            .map(|ps| {
                Core::with_switch_penalty(
                    ps,
                    cfg.max_outstanding_per_thread,
                    cfg.context_switch_penalty,
                )
            })
            .collect();
        Node {
            id,
            cores,
            tags: vec![0; thread_home.len()],
            thread_home,
            pending: SeqWindow::new(),
            next_txn: TransactionId::compose(id.0, 0).0, // node-unique id spaces
            nodes_in_system: cfg.nodes.max(1),
            metrics: SocMetrics::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Advance every core one cycle. `sink` receives the raw requests the
    /// cores issue and returns whether the router accepted each.
    pub fn tick(&mut self, now: Cycle, sink: impl FnMut(RawRequest) -> bool) {
        self.tick_with(now, usize::MAX, usize::MAX, sink, |_, _| {});
    }

    /// [`Node::tick`] against a request router whose local and global
    /// queues have `local_room` and `global_room` free slots. The node
    /// refuses an operation whose queue is full by itself, before it
    /// builds the request: `refuse` gets the id and address the request
    /// would have carried, and the thread holds the operation, exactly
    /// as if the router had refused it. Every other issue goes to
    /// `accept`, which must queue it.
    pub fn tick_bounded(
        &mut self,
        now: Cycle,
        local_room: usize,
        global_room: usize,
        mut accept: impl FnMut(RawRequest),
        refuse: impl FnMut(TransactionId, PhysAddr),
    ) {
        let sink = |raw| {
            accept(raw);
            true
        };
        self.tick_with(now, local_room, global_room, sink, refuse);
    }

    fn tick_with(
        &mut self,
        now: Cycle,
        mut local_room: usize,
        mut global_room: usize,
        mut sink: impl FnMut(RawRequest) -> bool,
        mut refuse: impl FnMut(TransactionId, PhysAddr),
    ) {
        let node = self.id;
        let nodes = self.nodes_in_system;
        let next_txn = &mut self.next_txn;
        let tags = &mut self.tags;
        let pending = &mut self.pending;
        let metrics = &mut self.metrics;
        for core in &mut self.cores {
            core.tick(now, |issue| {
                let id = TransactionId(*next_txn);
                let home = if issue.kind == MemOpKind::Fence {
                    node // fences are local to the node's MAC
                } else {
                    home_of(issue.addr, nodes)
                };
                let room = if home == node {
                    &mut local_room
                } else {
                    &mut global_room
                };
                if *room == 0 {
                    refuse(id, issue.addr);
                    return false;
                }
                let tag = &mut tags[issue.tid as usize];
                let raw = RawRequest {
                    id,
                    addr: issue.addr,
                    kind: issue.kind,
                    node,
                    home,
                    target: Target {
                        tid: issue.tid,
                        tag: *tag,
                        flit: issue.addr.flit(),
                    },
                    issued_at: now,
                };
                if sink(raw) {
                    *room -= 1;
                    *next_txn += 1;
                    *tag = tag.wrapping_add(1);
                    pending.insert(id.0, issue.tid);
                    metrics.raw_requests += 1;
                    true
                } else {
                    false
                }
            });
        }
        self.metrics.cycles = now + 1;
    }

    /// Earliest cycle `>= now` at which any core could change state (see
    /// [`Core::next_event`]); `None` when every core is quiescent until
    /// an external completion arrives.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.cores.iter().filter_map(|c| c.next_event(now)).min()
    }

    /// Bring the cycle counter up to `now` without ticking, exactly as
    /// the skipped no-op ticks of an idle span would have (each tick at
    /// cycle `c` sets the counter to `c + 1`). The event-driven run
    /// loop calls this when it advances time past ticks it proved
    /// redundant, so reports and metrics samples stay byte-identical to
    /// stepped mode even on cap-truncated or sampled runs.
    pub fn sync_cycles(&mut self, now: Cycle) {
        self.metrics.cycles = now;
    }

    /// A raw request completed (response data arrived).
    pub fn complete(&mut self, id: TransactionId, now: Cycle) {
        if let Some(tid) = self.pending.remove(id.0) {
            if let Some(&core) = self.thread_home.get(tid as usize) {
                self.cores[core].complete_mem(tid);
            }
            self.metrics.completions += 1;
            let _ = now;
        }
    }

    /// A fence retired inside the MAC.
    pub fn complete_fence(&mut self, raw: &RawRequest) {
        if self.pending.remove(raw.id.0).is_some() {
            if let Some(&core) = self.thread_home.get(raw.target.tid as usize) {
                self.cores[core].complete_fence(raw.target.tid);
            }
            self.metrics.completions += 1;
        }
    }

    /// Completions recorded so far (read-only; cheap enough for the run
    /// loop's live-progress probe to poll every tick).
    pub fn completions(&self) -> u64 {
        self.metrics.completions
    }

    /// True when every thread finished and no requests are in flight.
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.cores.iter().all(Core::is_done)
    }

    /// In-flight raw requests.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Finalize and read the metrics (instructions/SPM/memory tallies are
    /// folded in from the cores here).
    pub fn metrics(&mut self) -> SocMetrics {
        let (mut instrs, mut spm, mut mems) = (0, 0, 0);
        for c in &self.cores {
            let (i, s, m) = c.totals();
            instrs += i;
            spm += s;
            mems += m;
        }
        self.metrics.instructions = instrs;
        self.metrics.spm_accesses = spm;
        self.metrics.mem_ops = mems;
        self.metrics.cores = self.cores.len();
        self.metrics.threads = self.thread_home.len();
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ReplayProgram, ThreadOp, ThreadProgram};

    fn loads(addrs: &[u64]) -> Box<dyn ThreadProgram> {
        Box::new(ReplayProgram::loads(addrs.iter().copied(), 0))
    }

    fn default_cfg(threads: usize) -> SocConfig {
        SocConfig {
            threads,
            ..SocConfig::default()
        }
    }

    #[test]
    fn home_mapping_interleaves_rows() {
        assert_eq!(home_of(PhysAddr::new(0x000), 1), NodeId(0));
        assert_eq!(home_of(PhysAddr::new(0x000), 4), NodeId(0));
        assert_eq!(home_of(PhysAddr::new(0x100), 4), NodeId(1));
        assert_eq!(home_of(PhysAddr::new(0x400), 4), NodeId(0));
    }

    #[test]
    fn node_issues_and_completes() {
        let mut node = Node::new(
            NodeId(0),
            &default_cfg(2),
            vec![loads(&[0x100]), loads(&[0x200])],
        );
        let mut issued = Vec::new();
        node.tick(0, |r| {
            issued.push(r);
            true
        });
        node.tick(1, |r| {
            issued.push(r);
            true
        });
        assert_eq!(issued.len(), 2);
        assert_eq!(node.in_flight(), 2);
        assert!(!node.is_done());
        for r in &issued {
            node.complete(r.id, 10);
        }
        assert_eq!(node.in_flight(), 0);
        // Threads need one more tick to observe Done.
        node.tick(11, |_| true);
        node.tick(12, |_| true);
        assert!(node.is_done());
        let m = node.metrics();
        assert_eq!(m.raw_requests, 2);
        assert_eq!(m.completions, 2);
    }

    #[test]
    fn transaction_ids_are_unique_and_node_scoped() {
        let mut a = Node::new(NodeId(0), &default_cfg(1), vec![loads(&[0x100, 0x200])]);
        let mut b = Node::new(NodeId(1), &default_cfg(1), vec![loads(&[0x100])]);
        let mut ids = Vec::new();
        a.tick(0, |r| {
            ids.push(r.id);
            true
        });
        b.tick(0, |r| {
            ids.push(r.id);
            true
        });
        assert_ne!(ids[0], ids[1], "different nodes, different id spaces");
    }

    #[test]
    fn tags_increment_per_thread() {
        let mut n = Node::new(NodeId(0), &default_cfg(1), vec![loads(&[0x100, 0x200])]);
        let mut tags = Vec::new();
        n.tick(0, |r| {
            tags.push(r.target.tag);
            true
        });
        let first = n.pending.keys().next().unwrap();
        n.complete(TransactionId(first), 1);
        n.tick(2, |r| {
            tags.push(r.target.tag);
            true
        });
        assert_eq!(tags, vec![0, 1]);
    }

    #[test]
    fn remote_addresses_get_remote_home() {
        let cfg = SocConfig {
            nodes: 2,
            ..default_cfg(1)
        };
        let mut n = Node::new(NodeId(0), &cfg, vec![loads(&[0x100])]); // row 1 -> node 1
        let mut homes = Vec::new();
        n.tick(0, |r| {
            homes.push(r.home);
            true
        });
        assert_eq!(homes, vec![NodeId(1)]);
    }

    /// Out-of-order completions, a repeated id, an id never issued and
    /// a fence retirement, checked against a hand-stepped model.
    ///
    /// Two cores, four threads at most two requests each (t0 and t2 on
    /// core 0, t1 and t3 on core 1). Each core issues one op per cycle
    /// from the next runnable thread, so the issue order below follows
    /// from the round-robin pointers; `s<n>` is the n-th id issued.
    #[test]
    fn completions_in_any_order_unblock_their_threads() {
        let cfg = SocConfig {
            cores: 2,
            max_outstanding_per_thread: 2,
            ..default_cfg(4)
        };
        let load = |a: u64| ThreadOp::Mem {
            addr: PhysAddr::new(a),
            kind: MemOpKind::Load,
        };
        let fence = ThreadOp::Mem {
            addr: PhysAddr::new(0),
            kind: MemOpKind::Fence,
        };
        let programs: Vec<Box<dyn ThreadProgram>> = vec![
            loads(&[0x100, 0x200, 0x300, 0x400]),
            loads(&[0x1100, 0x1200]),
            Box::new(ReplayProgram::new(vec![load(0x2100), fence, load(0x2200)])),
            loads(&[0x3100, 0x3200, 0x3300]),
        ];
        let mut node = Node::new(NodeId(0), &cfg, programs);
        let mut issued: Vec<RawRequest> = Vec::new();
        // Tick once; return (tid, addr) of what issued.
        fn tick(node: &mut Node, now: Cycle, issued: &mut Vec<RawRequest>) -> Vec<(u16, u64)> {
            let before = issued.len();
            node.tick(now, |r| {
                issued.push(r);
                true
            });
            issued[before..]
                .iter()
                .map(|r| (r.target.tid, r.addr.raw()))
                .collect()
        }
        let check = |node: &Node, in_flight: usize, completions: u64| {
            assert_eq!(node.in_flight(), in_flight, "in flight");
            assert_eq!(node.completions(), completions, "completions");
            assert!(!node.is_done());
        };

        // s0..s7: every thread fills its two slots (t2's second is the
        // fence); then all four are blocked.
        assert_eq!(
            tick(&mut node, 0, &mut issued),
            vec![(0, 0x100), (1, 0x1100)]
        );
        assert_eq!(
            tick(&mut node, 1, &mut issued),
            vec![(2, 0x2100), (3, 0x3100)]
        );
        assert_eq!(
            tick(&mut node, 2, &mut issued),
            vec![(0, 0x200), (1, 0x1200)]
        );
        assert_eq!(tick(&mut node, 3, &mut issued), vec![(2, 0), (3, 0x3200)]);
        assert_eq!(tick(&mut node, 4, &mut issued), vec![]);
        check(&node, 8, 0);

        // t0's newer load first: t0 issues s8.
        node.complete(issued[4].id, 5);
        check(&node, 7, 1);
        assert_eq!(tick(&mut node, 5, &mut issued), vec![(0, 0x300)]);
        // The same id again, and one never issued: nobody unblocks.
        node.complete(issued[4].id, 6);
        node.complete(TransactionId::compose(0, 1000), 6);
        check(&node, 8, 1);
        assert_eq!(tick(&mut node, 6, &mut issued), vec![]);
        // The fence retires: t2 issues s9. Retiring it again is a no-op.
        let f = issued[6];
        assert_eq!(f.kind, MemOpKind::Fence);
        node.complete_fence(&f);
        check(&node, 7, 2);
        assert_eq!(tick(&mut node, 7, &mut issued), vec![(2, 0x2200)]);
        node.complete_fence(&f);
        check(&node, 8, 2);
        // t3's older load: t3 issues s10.
        node.complete(issued[3].id, 8);
        assert_eq!(tick(&mut node, 8, &mut issued), vec![(3, 0x3300)]);
        // t0's oldest: t0 issues s11, its last.
        node.complete(issued[0].id, 9);
        assert_eq!(tick(&mut node, 9, &mut issued), vec![(0, 0x400)]);
        check(&node, 8, 4);
        assert_eq!(issued.len(), 12);

        // The rest in scrambled order.
        for (k, n) in [11, 2, 9, 1, 10, 5, 8, 7].into_iter().enumerate() {
            node.complete(issued[n].id, 10);
            assert_eq!(node.in_flight(), 7 - k);
            assert_eq!(node.completions(), 5 + k as u64);
        }
        assert!(!node.is_done(), "threads have not seen Done yet");
        assert_eq!(tick(&mut node, 11, &mut issued), vec![]);
        assert!(node.is_done());
        let m = node.metrics();
        assert_eq!((m.raw_requests, m.completions), (12, 12));
    }

    #[test]
    fn rejected_issue_does_not_leak_state() {
        let mut n = Node::new(NodeId(0), &default_cfg(1), vec![loads(&[0x100])]);
        n.tick(0, |_| false);
        assert_eq!(n.in_flight(), 0);
        let mut count = 0;
        n.tick(1, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 1);
        assert_eq!(n.metrics().raw_requests, 1);
    }
}
