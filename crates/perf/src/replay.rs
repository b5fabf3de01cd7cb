//! Per-layer replay: each layer's public API driven, in isolation, with
//! one simulation's inputs, so host time can be attributed from outside
//! the simulator.
//!
//! The chain follows a raw request through the stack of Figure 4:
//!
//! 1. `soc-sim` — a [`Node`] runs the thread programs against an ideal
//!    memory that answers every request after [`IDEAL_LATENCY`] cycles;
//!    the issued [`RawRequest`] stream is recorded.
//! 2. `mac-coalescer` — the recorded raws, at their issue cycles, go
//!    through [`RequestRouter::route`]/[`RequestRouter::pop_for_mac`]
//!    into [`Mac::try_accept_with_backlog`] and [`Mac::tick`]; the
//!    dispatched transactions are recorded. Without the MAC each raw is
//!    wrapped as one 16 B transaction instead, as the baseline path does.
//! 3. `hmc-model` / `mac-net` — the transactions, at their dispatch
//!    cycles, go through [`MemoryDevice::can_accept`],
//!    [`MemoryDevice::submit`] and [`MemoryDevice::drain_completed`].
//! 4. Fan-out — every response goes through [`ResponseRouter::expand`].
//!
//! Every loop jumps idle spans with the layer's own `next_event` or
//! `next_completion`; the device loop also jumps to the next completion
//! while the device refuses the queue head, so its cost follows the
//! transactions and not the length of a backlog. The adaptive
//! controller lives in the run loop, so the MAC replays the static
//! operating point.
//!
//! Timing: each loop runs under one clock. Where one loop interleaves
//! two calls every visited cycle (accept and tick; submit and drain), the
//! loop reads the clock once per phase boundary and subtracts the
//! measured cost of a clock read from every phase sample.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use hmc_model::{DdrDevice, HbmDevice, HmcDevice, MemoryDevice};
use mac_coalescer::{Mac, MacEvent, RequestRouter, ResponseRouter, RoutedTo};
use mac_net::NetDevice;
use mac_telemetry::Profiler;
use mac_types::{
    Cycle, FlitMap, HmcRequest, HmcResponse, MacConfig, MacPlacement, MemBackend, MemOpKind,
    NodeId, RawRequest, ReqSize, SocConfig, SystemConfig,
};
use mac_workloads::count_mem_ops;
use soc_sim::{Node, ReplayProgram, ThreadOp, ThreadProgram};

use crate::alloc::count_allocs;

/// Fixed response latency of the ideal memory behind the `soc-sim`
/// replay, in cycles: Table 1's uncontended 93 ns round trip at the
/// 3.3 GHz core clock.
const IDEAL_LATENCY: Cycle = 307;

/// Host time spent in one phase of a replay loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    /// Nanoseconds, clock-read cost removed.
    pub ns: f64,
    /// Calls (or items) the time covers.
    pub calls: u64,
}

impl Phase {
    /// Fold another sample of the same phase in.
    pub fn add(&mut self, other: Phase) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Nanoseconds per call (0 when nothing was called).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// Cost of one `Instant::now()` in nanoseconds, measured once per
/// process over a burst of back-to-back reads.
fn clock_read_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 20_000;
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        (last - t0).as_nanos() as f64 / f64::from(READS)
    })
}

/// Splits one loop's time into phases with one clock read per boundary.
struct Laps {
    last: Instant,
    cost: f64,
}

impl Laps {
    fn start() -> Self {
        Laps {
            cost: clock_read_ns(),
            last: Instant::now(),
        }
    }

    /// Charge the time since the previous lap to `phase`.
    fn lap(&mut self, phase: &mut f64) {
        let now = Instant::now();
        *phase += ((now - self.last).as_nanos() as f64 - self.cost).max(0.0);
        self.last = now;
    }
}

/// What the `soc-sim` replay recorded.
#[derive(Debug, Clone)]
pub struct SocReplay {
    /// Issued raws in issue order (`issued_at` is the issue cycle).
    pub raws: Vec<RawRequest>,
    /// The whole loop: `calls` is the number of raws issued.
    pub time: Phase,
    /// Heap allocations inside the loop.
    pub allocs: u64,
}

/// Run one node's thread programs against the ideal memory.
fn replay_soc(soc: &SocConfig, ops: &[Vec<ThreadOp>]) -> SocReplay {
    let mut cfg = soc.clone();
    cfg.nodes = 1;
    let programs = ops
        .iter()
        .map(|t| Box::new(ReplayProgram::new(t.clone())) as Box<dyn ThreadProgram>)
        .collect();
    let mut node = Node::new(NodeId(0), &cfg, programs);
    let expected = count_mem_ops(ops);
    let mut raws: Vec<RawRequest> = Vec::with_capacity(expected);
    let mut due: VecDeque<RawRequest> = VecDeque::with_capacity(expected);
    let t0 = Instant::now();
    let ((), allocs) = count_allocs(|| {
        let mut now: Cycle = 0;
        loop {
            // The latency is fixed, so requests come due in issue order.
            while let Some(raw) = due.front().copied() {
                if raw.issued_at + IDEAL_LATENCY > now {
                    break;
                }
                due.pop_front();
                if raw.kind == MemOpKind::Fence {
                    node.complete_fence(&raw);
                } else {
                    node.complete(raw.id, now);
                }
            }
            node.tick(now, |raw| {
                raws.push(raw);
                due.push_back(raw);
                true
            });
            if node.is_done() {
                break;
            }
            let next = [
                node.next_event(now + 1),
                due.front().map(|r| r.issued_at + IDEAL_LATENCY),
            ]
            .into_iter()
            .flatten()
            .min();
            // `None` with threads unfinished would be a program that can
            // never progress; stop rather than spin.
            let Some(next) = next else { break };
            now = next.max(now + 1);
        }
    });
    let ns = t0.elapsed().as_nanos() as f64;
    let calls = raws.len() as u64;
    SocReplay {
        raws,
        time: Phase { ns, calls },
        allocs,
    }
}

/// What the `mac-coalescer` replay recorded.
#[derive(Debug, Clone, Default)]
pub struct MacReplay {
    /// Dispatched transactions in dispatch order (`dispatched_at` set).
    pub txns: Vec<HmcRequest>,
    /// Routing and accepting: `calls` is the number of raws accepted.
    pub accept: Phase,
    /// `Mac::tick`: `calls` is the number of ticks.
    pub tick: Phase,
    /// Ticks that produced no event.
    pub idle_ticks: u64,
    /// `try_accept_with_backlog` calls the ARQ refused.
    pub refused: u64,
    /// Fences the MAC retired.
    pub fences: u64,
    /// Σ over raws of (accept cycle − issue cycle).
    pub wait_cycles: u64,
    /// Heap allocations inside the loop.
    pub allocs: u64,
}

/// Drive the request router and the MAC with a recorded raw stream.
fn replay_mac(cfg: &MacConfig, raws: &[RawRequest]) -> MacReplay {
    let mut router = RequestRouter::new(NodeId(0), cfg.router_queue_depth);
    let mut mac = Mac::new(cfg);
    let accepts = cfg.accepts_per_cycle.max(1);
    let mut out = MacReplay {
        txns: Vec::with_capacity(raws.len()),
        ..MacReplay::default()
    };
    let (mut accept_ns, mut tick_ns) = (0.0, 0.0);
    let ((), allocs) = count_allocs(|| {
        let mut laps = Laps::start();
        let mut next_raw = 0;
        let mut now: Cycle = 0;
        loop {
            while let Some(raw) = raws.get(next_raw) {
                if raw.issued_at > now || router.route(*raw) == RoutedTo::Stalled {
                    break;
                }
                next_raw += 1;
            }
            for _ in 0..accepts {
                let Some(raw) = router.pop_for_mac() else {
                    break;
                };
                if mac.try_accept_with_backlog(raw, now, router.queued()) {
                    out.accept.calls += 1;
                    out.wait_cycles += now - raw.issued_at;
                } else {
                    router.push_back_front(raw);
                    out.refused += 1;
                    break;
                }
            }
            laps.lap(&mut accept_ns);
            let events = mac.tick(now);
            out.tick.calls += 1;
            if events.is_empty() {
                out.idle_ticks += 1;
            }
            for ev in events {
                match ev {
                    MacEvent::Dispatch(req) => out.txns.push(req),
                    MacEvent::FenceRetired(_) => out.fences += 1,
                }
            }
            laps.lap(&mut tick_ns);
            if next_raw == raws.len() && router.is_empty() && mac.is_drained() {
                break;
            }
            let mut next = mac.next_event(now + 1);
            if !router.is_empty() {
                next = Some(now + 1);
            }
            if let Some(raw) = raws.get(next_raw) {
                next = Some(next.map_or(raw.issued_at, |n| n.min(raw.issued_at)));
            }
            now = next.map_or(now + 1, |n| n.max(now + 1));
        }
    });
    out.accept.ns = accept_ns;
    out.tick.ns = tick_ns;
    out.allocs = allocs;
    out
}

/// The baseline path without a MAC: each raw (fences excepted) becomes
/// one single-FLIT transaction dispatched at its issue cycle.
fn baseline_txns(raws: &[RawRequest]) -> Vec<HmcRequest> {
    raws.iter()
        .filter(|r| r.kind != MemOpKind::Fence)
        .map(|raw| {
            let mut flit_map = FlitMap::new();
            flit_map.set(raw.addr.flit());
            HmcRequest {
                addr: raw.addr.flit_base(),
                size: ReqSize::B16,
                is_write: raw.kind == MemOpKind::Store,
                is_atomic: raw.kind == MemOpKind::Atomic,
                flit_map,
                targets: vec![raw.target],
                raw_ids: vec![raw.id],
                dispatched_at: raw.issued_at,
            }
        })
        .collect()
}

/// The memory device a single-node `SystemSim` builds for `sys`.
fn device_for(sys: &SystemConfig) -> Box<dyn MemoryDevice> {
    match sys.backend {
        MemBackend::Hmc if sys.net.enabled => Box::new(NetDevice::new(&sys.hmc, &sys.net)),
        MemBackend::Hmc => Box::new(HmcDevice::new(&sys.hmc)),
        MemBackend::Hbm => Box::new(HbmDevice::new(&sys.hbm)),
        MemBackend::Ddr => Box::new(DdrDevice::new(&sys.ddr)),
    }
}

/// What the device replay recorded.
#[derive(Debug, Clone, Default)]
pub struct DevReplay {
    /// Responses in drain order.
    pub rsps: Vec<HmcResponse>,
    /// `can_accept` + `submit`: `calls` is the number submitted.
    pub submit: Phase,
    /// `drain_completed`: `calls` is the number of calls.
    pub drain: Phase,
    /// `can_accept` calls that refused.
    pub refused: u64,
    /// Σ over transactions of (submit cycle − dispatch cycle).
    pub wait_cycles: u64,
    /// Responses that met at least one bank conflict.
    pub conflicted: u64,
    /// Heap allocations inside the loop.
    pub allocs: u64,
}

/// Drive a device with transactions at their dispatch cycles (which
/// must be non-decreasing), draining until every one has answered.
fn replay_device(dev: &mut dyn MemoryDevice, txns: Vec<HmcRequest>) -> DevReplay {
    let mut out = DevReplay {
        rsps: Vec::with_capacity(txns.len()),
        ..DevReplay::default()
    };
    let total = txns.len();
    let mut incoming = txns.into_iter().peekable();
    let mut queue: VecDeque<HmcRequest> = VecDeque::with_capacity(total);
    let (mut submit_ns, mut drain_ns) = (0.0, 0.0);
    let ((), allocs) = count_allocs(|| {
        let mut laps = Laps::start();
        let mut now: Cycle = 0;
        loop {
            while let Some(req) = incoming.next_if(|r| r.dispatched_at <= now) {
                queue.push_back(req);
            }
            let mut blocked = false;
            while let Some(req) = queue.front() {
                if !dev.can_accept(req, now) {
                    out.refused += 1;
                    blocked = true;
                    break;
                }
                let req = queue.pop_front().expect("front checked");
                out.wait_cycles += now - req.dispatched_at;
                dev.submit(req, now);
                out.submit.calls += 1;
            }
            laps.lap(&mut submit_ns);
            let rsps = dev.drain_completed(now);
            out.drain.calls += 1;
            out.rsps.extend(rsps);
            laps.lap(&mut drain_ns);
            if incoming.peek().is_none() && queue.is_empty() && dev.pending() == 0 {
                break;
            }
            let mut next = dev.next_completion();
            if !queue.is_empty() && !blocked {
                next = Some(now + 1);
            }
            if let Some(req) = incoming.peek() {
                next = Some(next.map_or(req.dispatched_at, |n| n.min(req.dispatched_at)));
            }
            now = next.map_or(now + 1, |n| n.max(now + 1));
        }
    });
    out.submit.ns = submit_ns;
    out.drain.ns = drain_ns;
    out.conflicted = out.rsps.iter().filter(|r| r.conflicts > 0).count() as u64;
    out.allocs = allocs;
    out
}

/// Expand every response into raw completions, timing the loop whole.
/// Returns the time (`calls` = completions delivered).
fn replay_fanout(rsps: &[HmcResponse]) -> Phase {
    let mut router = ResponseRouter::new();
    let t0 = Instant::now();
    let mut delivered = 0u64;
    for rsp in rsps {
        delivered += std::hint::black_box(router.expand(rsp)).len() as u64;
    }
    Phase {
        ns: t0.elapsed().as_nanos() as f64,
        calls: delivered,
    }
}

/// One simulation's full replay chain.
#[derive(Debug, Clone)]
pub struct SimReplay {
    /// The `soc-sim` layer.
    pub soc: SocReplay,
    /// The `mac-coalescer` layer (`None` without the MAC).
    pub mac: Option<MacReplay>,
    /// The memory layer.
    pub dev: DevReplay,
    /// Whether the memory layer was a `mac-net` cube network.
    pub net: bool,
    /// Response fan-out (`mac-coalescer`'s response router).
    pub fanout: Phase,
}

impl SimReplay {
    /// Fences among the replayed raws (they retire without a response).
    pub fn fences(&self) -> u64 {
        self.soc
            .raws
            .iter()
            .filter(|r| r.kind == MemOpKind::Fence)
            .count() as u64
    }

    /// The replay's conservation laws, given the input's memory
    /// operations: every operation issues one raw, every submitted
    /// transaction drains, and every non-fence raw gets one completion.
    pub fn conservation_error(&self, mem_ops: usize) -> Option<String> {
        let raws = self.soc.raws.len();
        let submitted = self.dev.submit.calls as usize;
        let completions = self.fanout.calls;
        if raws != mem_ops {
            Some(format!("{raws} raws issued for {mem_ops} memory ops"))
        } else if self.dev.rsps.len() != submitted {
            Some(format!(
                "{} responses drained for {submitted} transactions",
                self.dev.rsps.len()
            ))
        } else if completions + self.fences() != raws as u64 {
            Some(format!(
                "{completions} completions + {} fences for {raws} raws",
                self.fences()
            ))
        } else {
            None
        }
    }
}

/// Whether [`replay_sim`] can stand in for a simulation of `sys` with
/// `nodes` nodes: single-node systems on the `SystemSim` loop.
pub fn replayable(sys: &SystemConfig, nodes: usize) -> bool {
    nodes == 1 && !(sys.net.enabled && sys.net.placement == MacPlacement::PerCube)
}

/// Replay every layer for one single-node simulation of `sys` on `ops`,
/// recording one `bench/sim/<layer>` span per layer on `prof`.
pub fn replay_sim(sys: &SystemConfig, ops: &[Vec<ThreadOp>], prof: &Profiler) -> SimReplay {
    let soc = {
        let _span = prof.span("bench/sim/soc");
        replay_soc(&sys.soc, ops)
    };
    let (mac, txns) = if sys.mac_disabled {
        (None, baseline_txns(&soc.raws))
    } else {
        let _span = prof.span("bench/sim/mac");
        let mut m = replay_mac(&sys.mac, &soc.raws);
        let txns = std::mem::take(&mut m.txns);
        (Some(m), txns)
    };
    let dev = {
        let _span = prof.span(if sys.net.enabled {
            "bench/sim/net"
        } else {
            "bench/sim/hmc"
        });
        replay_device(device_for(sys).as_mut(), txns)
    };
    let fanout = {
        let _span = prof.span("bench/sim/fanout");
        replay_fanout(&dev.rsps)
    };
    SimReplay {
        soc,
        mac,
        dev,
        net: sys.net.enabled,
        fanout,
    }
}
