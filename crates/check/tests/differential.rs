//! The indexed checker and oracle agree with the map-based reference.
//!
//! `reference/` holds the map-based `ConformanceChecker` and
//! `OracleReplay` that hashed raw ids into maps and counted rows in a
//! B-tree. The property drives both checkers with the same random hook
//! sequence and asserts that they record the same `(invariant, cycle,
//! detail)` list after every hook, and that both oracles print the same
//! divergences, before and after `finish`.
//!
//! A sequence runs valid lifecycles over 1–4 nodes and up to 4 threads
//! per node: loads, stores, atomics and fences, dispatches of 1–12 raw
//! ids, responses and completions in random order, fence retirements
//! and statistics batches. Unless a case is fault-free, a few hooks are
//! corrupted: ids issued twice or never issued, sequence numbers past
//! 2^40 and node 0xFFFF, responses that drop, repeat or mix ids, double
//! completions and retirements, dispatches behind an open fence, and a
//! `finish` that did not drain.

mod reference;

use mac_check::{ConformanceChecker, FinishProbe, OracleReplay, StatsProbe};
use mac_types::{
    FlitMap, HmcRequest, HmcResponse, MacPlacement, MemOpKind, NodeId, PhysAddr, RawRequest,
    ReqSize, SystemConfig, Target, TransactionId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soc_sim::ThreadOp;

type RefChecker = reference::invariants::ConformanceChecker;
type RefOracle = reference::oracle::OracleReplay;

/// Both checkers, fed identically.
struct Pair {
    new: ConformanceChecker,
    old: RefChecker,
}

impl Pair {
    fn new(cfg: &SystemConfig) -> Self {
        Pair {
            new: ConformanceChecker::new(cfg),
            old: RefChecker::new(cfg),
        }
    }

    /// The two checkers' findings so far are identical.
    fn assert_same(&self, step: &str) {
        assert_eq!(
            self.new.violations(),
            self.old.violations(),
            "violations differ after {step}"
        );
        assert_eq!(self.new.suppressed(), self.old.suppressed(), "after {step}");
        assert_eq!(self.new.is_clean(), self.old.is_clean(), "after {step}");
    }

    fn issue(&mut self, r: &RawRequest, now: u64) {
        self.new.on_raw_issued(r, now);
        self.old.on_raw_issued(r, now);
        self.assert_same("issue");
    }

    fn dispatch(&mut self, t: &HmcRequest, now: u64) {
        self.new.on_dispatch(t, now);
        self.old.on_dispatch(t, now);
        self.assert_same("dispatch");
    }

    fn respond(&mut self, r: &HmcResponse, now: u64) {
        self.new.on_response(r, now);
        self.old.on_response(r, now);
        self.assert_same("response");
    }

    fn complete(&mut self, id: TransactionId, now: u64) {
        self.new.on_completion(id, now);
        self.old.on_completion(id, now);
        self.assert_same("completion");
    }

    fn retire(&mut self, r: &RawRequest, now: u64) {
        self.new.on_fence_retired(r, now);
        self.old.on_fence_retired(r, now);
        self.assert_same("fence retirement");
    }

    fn batch(&mut self, p: &StatsProbe, now: u64) {
        self.new.on_cycle_batch(now, p);
        self.old.on_cycle_batch(now, p);
        self.assert_same("cycle batch");
    }

    fn component_error(&mut self, msg: &str, now: u64) {
        self.new.on_component_error(now, msg);
        self.old.on_component_error(now, msg);
        self.assert_same("component error");
    }

    fn finish(&mut self, p: &FinishProbe, now: u64) {
        self.new.finish(p, now);
        self.old.finish(p, now);
        self.assert_same("finish");
        assert_eq!(self.new.counts(), self.old.counts());
        assert_eq!(self.new.dispatches(), self.old.dispatches());
        assert_eq!(self.new.completions_total(), self.old.completions_total());
    }

    /// Both oracles replay `ops` and diff their own checker identically.
    fn assert_same_diff(&self, ops: &[Vec<Vec<ThreadOp>>]) {
        let new = OracleReplay::replay(ops);
        let old = RefOracle::replay(ops);
        assert_eq!(new.counts(), old.counts());
        assert_eq!(&new.served_per_row(), old.served_per_row());
        assert_eq!(
            new.diff(&self.new),
            old.diff(&self.old),
            "oracle diffs differ"
        );
    }
}

/// One random hook sequence and the world it acts on.
struct Scenario {
    rng: SmallRng,
    /// Chance that a hook is corrupted.
    fault: f64,
    nodes: u16,
    tids: u16,
    now: u64,
    next_seq: Vec<u64>,
    tag: u16,
    /// Issued memory requests not yet dispatched.
    ready: Vec<RawRequest>,
    /// Issued fences not yet retired.
    fences: Vec<RawRequest>,
    /// Every request issued, for corrupt re-use.
    issued: Vec<RawRequest>,
    /// Dispatched transactions awaiting a response.
    open: Vec<HmcRequest>,
    /// Responded raw ids awaiting completion.
    responded: Vec<TransactionId>,
    /// Completed raw ids.
    done: Vec<TransactionId>,
    /// `ops[node][tid]`: the program order the oracle replays.
    ops: Vec<Vec<Vec<ThreadOp>>>,
    probe: StatsProbe,
}

impl Scenario {
    fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let fault = match rng.gen_range(0u32..3) {
            0 => 0.0,
            1 => 0.02,
            _ => 0.1,
        };
        let nodes = rng.gen_range(1u16..5);
        let tids = rng.gen_range(1u16..5);
        Scenario {
            rng,
            fault,
            nodes,
            tids,
            now: 0,
            next_seq: vec![0; usize::from(nodes)],
            tag: 0,
            ready: Vec::new(),
            fences: Vec::new(),
            issued: Vec::new(),
            open: Vec::new(),
            responded: Vec::new(),
            done: Vec::new(),
            ops: vec![vec![Vec::new(); usize::from(tids)]; usize::from(nodes)],
            probe: StatsProbe::default(),
        }
    }

    fn faulty(&mut self) -> bool {
        self.fault > 0.0 && self.rng.gen_bool(self.fault)
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.rng.gen_range(0..from.len())].clone())
    }

    /// Remove and return a random element.
    fn take<T>(&mut self, from: &mut Vec<T>) -> Option<T> {
        (!from.is_empty()).then(|| from.swap_remove(self.rng.gen_range(0..from.len())))
    }

    fn thread_blocked(&self, node: u16, tid: u16) -> bool {
        self.fences
            .iter()
            .any(|f| f.node.0 == node && f.target.tid == tid)
    }

    fn issue(&mut self, pair: &mut Pair) {
        let mut node = self.rng.gen_range(0..self.nodes);
        let mut tid = self.rng.gen_range(0..self.tids);
        let behind_fence = self.faulty();
        if self.thread_blocked(node, tid) && !behind_fence {
            return;
        }
        let kind = match self.rng.gen_range(0u32..20) {
            0..=8 => MemOpKind::Load,
            9..=14 => MemOpKind::Store,
            15..=16 => MemOpKind::Atomic,
            _ => MemOpKind::Fence,
        };
        let row = self.rng.gen_range(0u64..6) + 0x40 * u64::from(node);
        let addr = PhysAddr::new(row * 256 + self.rng.gen_range(0u64..256));
        let mut id = TransactionId::compose(node, self.next_seq[usize::from(node)]);
        let mut flit = addr.flit();
        let mut consumes = true;
        if self.faulty() {
            match self.rng.gen_range(0u32..8) {
                0 => match self.pick(&self.issued.clone()) {
                    Some(old) => {
                        id = old.id;
                        consumes = false;
                    }
                    None => return,
                },
                1 => {
                    let seq = self.rng.gen_range((1u64 << 40)..(1u64 << 48));
                    id = TransactionId::compose(node, seq);
                    consumes = false;
                }
                2 => {
                    id = TransactionId::compose(0xFFFF, self.rng.gen_range(0u64..4));
                    consumes = false;
                }
                3 => {
                    let gap = self.rng.gen_range(1u64..150);
                    self.next_seq[usize::from(node)] += gap;
                    id = TransactionId::compose(node, self.next_seq[usize::from(node)]);
                }
                4 => {
                    // Far enough ahead to be stored apart, near enough
                    // for the node's own ids to reach it later.
                    let ahead = self.rng.gen_range(65u64..100);
                    id = TransactionId::compose(node, self.next_seq[usize::from(node)] + ahead);
                    consumes = false;
                }
                5 => flit = (flit + 1) % 16,
                6 => node = 0xFFFF,
                _ => tid = [5000u16, 0xFFFF][self.rng.gen_range(0usize..2)],
            }
        }
        if consumes {
            self.next_seq[usize::from(id.origin_node().min(self.nodes - 1))] += 1;
        }
        self.tag = self.tag.wrapping_add(1);
        let raw = RawRequest {
            id,
            addr,
            kind,
            node: NodeId(node),
            home: NodeId(node),
            target: Target {
                tid,
                tag: self.tag,
                flit,
            },
            issued_at: self.now,
        };
        pair.issue(&raw, self.now);
        if let Some(log) = self
            .ops
            .get_mut(usize::from(node))
            .and_then(|threads| threads.get_mut(usize::from(tid)))
        {
            log.push(ThreadOp::Mem { addr, kind });
        }
        self.issued.push(raw);
        match kind {
            MemOpKind::Fence => self.fences.push(raw),
            _ => self.ready.push(raw),
        }
    }

    /// A transaction carrying `raws` (all of one kind and row), shaped
    /// as the bypass path or the builder would shape it.
    fn transaction(raws: &[RawRequest], now: u64) -> HmcRequest {
        let first = raws[0];
        let mut map = FlitMap::new();
        for r in raws {
            map.set(r.addr.flit());
        }
        let (addr, size) = if raws.len() == 1 {
            (first.addr.flit_base(), ReqSize::B16)
        } else {
            let lo = raws.iter().map(|r| r.addr.flit()).min().unwrap_or(0) / 4;
            let hi = raws.iter().map(|r| r.addr.flit()).max().unwrap_or(0) / 4;
            let row = first.addr.row_base().raw();
            match (lo, hi) {
                (lo, hi) if lo == hi => (PhysAddr::new(row + 64 * u64::from(lo)), ReqSize::B64),
                (lo, hi) if lo / 2 == hi / 2 => {
                    (PhysAddr::new(row + 128 * u64::from(lo / 2)), ReqSize::B128)
                }
                _ => (PhysAddr::new(row), ReqSize::B256),
            }
        };
        HmcRequest {
            addr,
            size,
            is_write: first.kind == MemOpKind::Store,
            is_atomic: first.kind == MemOpKind::Atomic,
            flit_map: map,
            targets: raws.iter().map(|r| r.target).collect(),
            raw_ids: raws.iter().map(|r| r.id).collect(),
            dispatched_at: now,
        }
    }

    fn dispatch(&mut self, pair: &mut Pair) {
        let mut ready = std::mem::take(&mut self.ready);
        let Some(lead) = self.take(&mut ready) else {
            self.ready = ready;
            return;
        };
        let mut raws = vec![lead];
        if lead.kind != MemOpKind::Atomic {
            let want = self.rng.gen_range(1usize..13);
            let mut i = 0;
            while i < ready.len() && raws.len() < want {
                let r = ready[i];
                if r.kind == lead.kind && r.addr.row() == lead.addr.row() {
                    raws.push(ready.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.ready = ready;
        let mut txn = Self::transaction(&raws, self.now);
        if self.faulty() {
            match self.rng.gen_range(0u32..9) {
                0 => txn.raw_ids.push(TransactionId(self.rng.gen())),
                1 => {
                    let ahead = [0, 1, 2, 70, 90][self.rng.gen_range(0usize..5)];
                    txn.raw_ids
                        .push(TransactionId::compose(0, self.next_seq[0] + ahead));
                }
                2 => {
                    let open = self.pick(&self.open.clone());
                    if let Some(&id) = open.as_ref().and_then(|t| t.raw_ids.first()) {
                        txn.raw_ids.push(id);
                    }
                }
                3 => {
                    if let Some(f) = self.pick(&self.fences.clone()) {
                        txn.raw_ids.push(f.id);
                        txn.targets.push(f.target);
                    }
                }
                4 => {
                    let again = txn.raw_ids[self.rng.gen_range(0..txn.raw_ids.len())];
                    txn.raw_ids.push(again);
                }
                5 => {
                    txn.targets.pop();
                }
                6 => txn.addr = PhysAddr::new(txn.addr.raw() ^ 0x1000),
                7 => txn.is_write = !txn.is_write,
                _ => {
                    txn.raw_ids.clear();
                    txn.targets.clear();
                }
            }
        }
        pair.dispatch(&txn, self.now);
        self.probe.mac_emitted_total += 1;
        self.probe.mac_emitted_split += 1;
        self.open.push(txn);
    }

    fn respond(&mut self, pair: &mut Pair) {
        let mut open = std::mem::take(&mut self.open);
        let Some(txn) = self.take(&mut open) else {
            self.open = open;
            return;
        };
        let mut raw_ids = txn.raw_ids.clone();
        let mut targets = txn.targets.clone();
        // Responses may list their ids in any order.
        for i in (1..raw_ids.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            raw_ids.swap(i, j);
            if j < targets.len() && i < targets.len() {
                targets.swap(i, j);
            }
        }
        let mut rsp = HmcResponse {
            addr: txn.addr,
            size: txn.size,
            is_write: txn.is_write,
            targets,
            raw_ids,
            completed_at: self.now,
            conflicts: 0,
        };
        let mut keep_open = false;
        if self.faulty() {
            match self.rng.gen_range(0u32..9) {
                0 => {
                    rsp.raw_ids.pop();
                }
                1 => {
                    if let Some(&id) = rsp.raw_ids.first() {
                        rsp.raw_ids.push(id);
                    }
                }
                2 => {
                    if let Some(other) = self.pick(&open) {
                        let id = other.raw_ids.last().copied().unwrap_or_default();
                        let at = self.rng.gen_range(0..=rsp.raw_ids.len());
                        rsp.raw_ids.insert(at, id);
                        if self.rng.gen_bool(0.5) && rsp.raw_ids.len() > 1 {
                            rsp.raw_ids.remove(if at == 0 { 1 } else { 0 });
                        }
                    }
                }
                3 => rsp.addr = PhysAddr::new(rsp.addr.raw() + 16),
                4 => rsp.size = ReqSize::B256,
                5 => rsp.completed_at = txn.dispatched_at.saturating_sub(1),
                6 => rsp.raw_ids.clear(),
                7 => keep_open = true,
                _ => {
                    rsp.targets.pop();
                }
            }
        }
        pair.respond(&rsp, self.now);
        self.probe.device_accesses += 1;
        self.probe.device_raw_satisfied += rsp.raw_ids.len() as u64;
        self.probe.device_data_bytes += u128::from(txn.size.bytes());
        self.probe.device_useful_bytes += u128::from(txn.useful_bytes());
        self.responded.extend(txn.raw_ids.iter().copied());
        if keep_open {
            open.push(txn);
        }
        self.open = open;
    }

    fn complete(&mut self, pair: &mut Pair) {
        let id = if self.faulty() {
            match self.rng.gen_range(0u32..3) {
                0 => self.pick(&self.done.clone()),
                1 => Some(TransactionId(self.rng.gen())),
                _ => self.pick(&self.ready.clone()).map(|r| r.id),
            }
        } else {
            let mut responded = std::mem::take(&mut self.responded);
            let id = self.take(&mut responded);
            self.responded = responded;
            id
        };
        if let Some(id) = id {
            pair.complete(id, self.now);
            self.done.push(id);
        }
    }

    fn retire(&mut self, pair: &mut Pair) {
        let mut fences = std::mem::take(&mut self.fences);
        let fence = if self.faulty() {
            match self.rng.gen_range(0u32..4) {
                0 => self.pick(&self.issued.clone()),
                1 => self.pick(&fences).map(|mut f| {
                    f.target.tid = f.target.tid.wrapping_add(1);
                    f
                }),
                2 => self.pick(&fences).map(|mut f| {
                    f.id = TransactionId(self.rng.gen());
                    f
                }),
                _ => self.take(&mut fences).inspect(|&f| fences.push(f)),
            }
        } else {
            self.take(&mut fences)
        };
        self.fences = fences;
        if let Some(f) = fence {
            pair.retire(&f, self.now);
            self.probe.mac_fences_retired += 1;
        }
    }

    fn batch(&mut self, pair: &mut Pair) {
        let mut p = self.probe;
        p.mac_raw_memory = self.issued.len() as u64;
        if self.faulty() {
            match self.rng.gen_range(0u32..3) {
                0 => p.device_accesses = p.device_accesses.saturating_sub(2),
                1 => p.mac_emitted_split += 1,
                _ => p.device_useful_bytes = p.device_data_bytes + 1,
            }
        }
        pair.batch(&p, self.now);
    }

    /// Drive everything still in flight to completion.
    fn drain(&mut self, pair: &mut Pair) {
        let fault = std::mem::replace(&mut self.fault, 0.0);
        while !self.ready.is_empty() {
            self.dispatch(pair);
        }
        while !self.open.is_empty() {
            self.respond(pair);
        }
        while !self.responded.is_empty() {
            self.complete(pair);
        }
        while !self.fences.is_empty() {
            self.retire(pair);
        }
        self.fault = fault;
    }

    fn run(mut self, steps: usize, cfg: &SystemConfig) {
        let mut pair = Pair::new(cfg);
        for _ in 0..steps {
            self.now += self.rng.gen_range(0u64..3);
            match self.rng.gen_range(0u32..24) {
                0..=7 => self.issue(&mut pair),
                8..=11 => self.dispatch(&mut pair),
                12..=15 => self.respond(&mut pair),
                16..=19 => self.complete(&mut pair),
                20..=21 => self.retire(&mut pair),
                22 => self.batch(&mut pair),
                _ if self.faulty() => pair.component_error("self-check failed", self.now),
                _ => {}
            }
        }
        if self.fault == 0.0 || self.rng.gen_bool(0.5) {
            self.drain(&mut pair);
        }
        if self.fault > 0.0 && self.rng.gen_bool(0.5) {
            self.perturb_ops();
        }
        pair.assert_same_diff(&self.ops);
        let issued = self.issued.len() as u64;
        let mut stats = self.probe;
        stats.mac_raw_memory = issued;
        let probe = FinishProbe {
            idle: !(self.faulty() || self.rng.gen_bool(0.05)),
            soc_raw_requests: issued,
            soc_completions: self.done.len() as u64,
            stats,
        };
        self.now += 1;
        pair.finish(&probe, self.now);
        pair.assert_same_diff(&self.ops);
    }

    /// Make the oracle's programs disagree with what was issued.
    fn perturb_ops(&mut self) {
        match self.rng.gen_range(0u32..4) {
            0 => {
                let node = self.rng.gen_range(0..self.ops.len());
                let tid = self.rng.gen_range(0..self.ops[node].len());
                self.ops[node][tid].pop();
            }
            1 => {
                let node = self.rng.gen_range(0..self.ops.len());
                self.ops[node].push(vec![ThreadOp::Mem {
                    addr: PhysAddr::new(0x7777_0000),
                    kind: MemOpKind::Load,
                }]);
            }
            2 => self.ops.pop().map_or((), drop),
            _ => {
                for threads in &mut self.ops {
                    for ops in threads {
                        if let Some(ThreadOp::Mem { addr, .. }) = ops.first_mut() {
                            *addr = PhysAddr::new(addr.raw() + 0x100);
                        }
                    }
                }
            }
        }
    }
}

fn config(variant: u32) -> SystemConfig {
    let mut cfg = SystemConfig::paper(4);
    match variant {
        0 => {}
        1 => cfg.mac_disabled = true,
        _ => {
            cfg.net.enabled = true;
            cfg.net.placement = MacPlacement::PerCube;
        }
    }
    cfg
}

proptest! {
    #[test]
    fn indexed_checker_matches_the_map_based_reference(
        seed in any::<u64>(),
        steps in 1usize..600,
        variant in 0u32..3,
    ) {
        Scenario::new(seed).run(steps, &config(variant));
    }
}

/// The corrupt ids the tables must survive, each through a whole
/// lifecycle, with the same findings as the reference.
#[test]
fn extreme_ids_are_recorded_and_checked() {
    let cfg = SystemConfig::paper(1);
    let mut pair = Pair::new(&cfg);
    let ids = [
        TransactionId::compose(0, 1 << 47),
        TransactionId::compose(0xFFFF, 0),
        TransactionId::compose(0xFFFF, (1 << 48) - 1),
        TransactionId(u64::MAX),
        TransactionId::compose(63, 0),
        TransactionId::compose(64, 0),
    ];
    for (i, &id) in ids.iter().enumerate() {
        let addr = PhysAddr::new(0x1000 + 16 * i as u64);
        let raw = RawRequest {
            id,
            addr,
            kind: MemOpKind::Load,
            node: NodeId(id.origin_node()),
            home: NodeId(0),
            target: Target {
                tid: 0xFFFF,
                tag: 0,
                flit: addr.flit(),
            },
            issued_at: 0,
        };
        pair.issue(&raw, 1);
        let txn = Scenario::transaction(&[raw], 2);
        pair.dispatch(&txn, 2);
        pair.dispatch(&txn, 3);
        let rsp = HmcResponse {
            addr: txn.addr,
            size: txn.size,
            is_write: false,
            targets: txn.targets.clone(),
            raw_ids: txn.raw_ids.clone(),
            completed_at: 4,
            conflicts: 0,
        };
        pair.respond(&rsp, 4);
        pair.respond(&rsp, 5);
        pair.complete(id, 6);
        pair.complete(id, 7);
    }
    pair.finish(
        &FinishProbe {
            idle: true,
            ..FinishProbe::default()
        },
        10,
    );
    pair.assert_same_diff(&[vec![vec![ThreadOp::Mem {
        addr: PhysAddr::new(0x1000),
        kind: MemOpKind::Load,
    }]]]);
    assert!(!pair.new.violations().is_empty());
}
