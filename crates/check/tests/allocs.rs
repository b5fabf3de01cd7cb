//! The checker's hooks allocate only amortised table growth.
//!
//! Every raw request costs the checker a few table writes: its issue
//! record, its thread's log entry, its row, and its place in the open
//! dispatch's id list. All of them live in vectors that grow by
//! doubling, so a run of `n` raw requests through issue, dispatch,
//! response, completion, `finish` and the oracle diff makes `O(log n)`
//! allocations, not one per transaction. [`MAX_ALLOCS_PER_RAW`] bounds
//! that loosely; collecting or sorting a `Vec` of raw ids per dispatch
//! or response breaks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mac_check::{ConformanceChecker, FinishProbe, OracleReplay, StatsProbe};
use mac_types::{
    FlitMap, HmcRequest, HmcResponse, MemOpKind, NodeId, PhysAddr, RawRequest, ReqSize,
    SystemConfig, Target, TransactionId,
};
use soc_sim::ThreadOp;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls made while counting is on.
struct CountingAlloc;

fn bump() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches only const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; `ptr` came from `System` via us.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with counting on for this thread; returns its result and the
/// allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.with(Cell::get);
    let r = f();
    let n = ALLOCS.with(Cell::get) - before;
    COUNTING.with(|c| c.set(false));
    (r, n)
}

/// Amortised growth only: far below one allocation per dispatch.
const MAX_ALLOCS_PER_RAW: f64 = 0.1;

const NODES: u16 = 2;
const THREADS: u16 = 4;
/// Dispatches each thread makes (1–12 raw requests each).
const STEPS: u64 = 2048;

/// One lifecycle step, prepared before counting starts so the count
/// covers only the checker.
enum Hook {
    Issue(RawRequest),
    Dispatch(HmcRequest),
    Respond(HmcResponse),
    Complete(TransactionId),
}

/// Thread programs and the hook stream a faithful run of them produces:
/// each thread walks its own rows; dispatches carry 1–12 raw requests
/// of one row, and responses come back one dispatch later, in reverse
/// id order.
fn workload() -> (Vec<Vec<Vec<ThreadOp>>>, Vec<Hook>) {
    let mut ops = vec![vec![Vec::new(); usize::from(THREADS)]; usize::from(NODES)];
    let mut hooks = Vec::new();
    let mut next_seq = [0u64; NODES as usize];
    let mut pending: Option<HmcRequest> = None;
    for step in 0..STEPS {
        for node in 0..NODES {
            for tid in 0..THREADS {
                let batch = 1 + (step + u64::from(tid)) % 12;
                let row = (u64::from(node) << 20) | (u64::from(tid) << 16) | step;
                let kind = if step % 3 == 0 {
                    MemOpKind::Store
                } else {
                    MemOpKind::Load
                };
                let mut raws = Vec::new();
                for k in 0..batch {
                    let addr = PhysAddr::new(row * 256 + 16 * k);
                    let seq = &mut next_seq[usize::from(node)];
                    let raw = RawRequest {
                        id: TransactionId::compose(node, *seq),
                        addr,
                        kind,
                        node: NodeId(node),
                        home: NodeId(node),
                        target: Target {
                            tid,
                            tag: *seq as u16,
                            flit: addr.flit(),
                        },
                        issued_at: step,
                    };
                    *seq += 1;
                    ops[usize::from(node)][usize::from(tid)].push(ThreadOp::Mem { addr, kind });
                    hooks.push(Hook::Issue(raw));
                    raws.push(raw);
                }
                let mut map = FlitMap::new();
                raws.iter().for_each(|r| map.set(r.addr.flit()));
                let (addr, size) = match batch {
                    1 => (raws[0].addr, ReqSize::B16),
                    2..=4 => (PhysAddr::new(row * 256), ReqSize::B64),
                    5..=8 => (PhysAddr::new(row * 256), ReqSize::B128),
                    _ => (PhysAddr::new(row * 256), ReqSize::B256),
                };
                let txn = HmcRequest {
                    addr,
                    size,
                    is_write: kind == MemOpKind::Store,
                    is_atomic: false,
                    flit_map: map,
                    targets: raws.iter().map(|r| r.target).collect(),
                    raw_ids: raws.iter().map(|r| r.id).collect(),
                    dispatched_at: step,
                };
                hooks.push(Hook::Dispatch(txn.clone()));
                if let Some(prev) = pending.replace(txn) {
                    respond(&prev, &mut hooks);
                }
            }
        }
    }
    if let Some(last) = pending {
        respond(&last, &mut hooks);
    }
    (ops, hooks)
}

fn respond(txn: &HmcRequest, hooks: &mut Vec<Hook>) {
    let mut raw_ids = txn.raw_ids.clone();
    let mut targets = txn.targets.clone();
    raw_ids.reverse();
    targets.reverse();
    hooks.push(Hook::Respond(HmcResponse {
        addr: txn.addr,
        size: txn.size,
        is_write: txn.is_write,
        targets,
        raw_ids: raw_ids.clone(),
        // Hooks run at their index in the stream.
        completed_at: hooks.len() as u64,
        conflicts: 0,
    }));
    hooks.extend(raw_ids.into_iter().map(Hook::Complete));
}

#[test]
fn hooks_allocate_only_amortised_growth() {
    let (ops, hooks) = workload();
    let oracle = OracleReplay::replay(&ops);
    let raws = oracle.counts().total();
    assert!(raws >= 100_000, "only {raws} raw requests");
    let dispatches = hooks
        .iter()
        .filter(|h| matches!(h, Hook::Dispatch(_)))
        .count() as u64;
    let txn_bytes: u128 = hooks
        .iter()
        .map(|h| match h {
            Hook::Dispatch(t) => u128::from(t.size.bytes()),
            _ => 0,
        })
        .sum();
    let useful: u128 = hooks
        .iter()
        .map(|h| match h {
            Hook::Dispatch(t) => u128::from(t.useful_bytes()),
            _ => 0,
        })
        .sum();
    let probe = FinishProbe {
        idle: true,
        soc_raw_requests: raws,
        soc_completions: raws,
        stats: StatsProbe {
            mac_raw_memory: raws,
            mac_emitted_total: dispatches,
            mac_emitted_split: dispatches,
            mac_emitted_bypass_built: dispatches,
            mac_pop_groups: dispatches,
            mac_targets_sum: u128::from(raws),
            device_accesses: dispatches,
            device_raw_satisfied: raws,
            device_data_bytes: txn_bytes,
            device_useful_bytes: useful,
            ..StatsProbe::default()
        },
    };
    let mut checker = ConformanceChecker::new(&SystemConfig::paper(usize::from(THREADS)));
    let (divergences, allocs) = count_allocs(|| {
        for (now, hook) in hooks.iter().enumerate() {
            let now = now as u64;
            match hook {
                Hook::Issue(r) => checker.on_raw_issued(r, now),
                Hook::Dispatch(t) => checker.on_dispatch(t, now),
                Hook::Respond(r) => checker.on_response(r, now),
                Hook::Complete(id) => checker.on_completion(*id, now),
            }
        }
        checker.finish(&probe, hooks.len() as u64);
        oracle.diff(&checker)
    });
    assert!(
        checker.is_clean(),
        "a faithful stream must be clean: {:?}",
        checker.violations()
    );
    assert!(divergences.is_empty(), "{divergences:?}");
    let per_raw = allocs as f64 / raws as f64;
    eprintln!("{allocs} allocations for {raws} raw requests in {dispatches} dispatches ({per_raw:.5} per raw)");
    assert!(
        per_raw <= MAX_ALLOCS_PER_RAW,
        "{per_raw:.3} allocations per raw request (bound {MAX_ALLOCS_PER_RAW})"
    );
}
