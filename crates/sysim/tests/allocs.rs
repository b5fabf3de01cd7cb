//! The simulation tick allocates only what each transaction carries.
//!
//! A run of `SystemSim`, with or without the MAC, may allocate the two
//! vectors of each `HmcRequest` (`targets`, `raw_ids`) plus amortised
//! queue and table growth, and nothing per cycle: at most
//! [`MAX_ALLOCS_PER_RAW`] heap allocations per raw request, reallocs
//! included. A tick that returns a fresh `Vec` per call, or hashes
//! through an allocating map, breaks the bound on the dense inputs
//! below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mac_sim::{ExperimentConfig, SystemSim};
use mac_workloads::by_name;
use soc_sim::{ReplayProgram, ThreadProgram};

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

/// Two request vectors per raw request at worst (no merging), plus
/// slack for amortised growth.
const MAX_ALLOCS_PER_RAW: f64 = 2.25;

#[test]
fn dense_runs_allocate_only_the_request_vectors() {
    for name in ["stream", "sg", "gups"] {
        for mac in [true, false] {
            let mut cfg = ExperimentConfig::paper(8);
            cfg.workload.seed = 1;
            cfg.system.mac_disabled = !mac;
            let programs = by_name(name)
                .expect("registered workload")
                .generate(&cfg.workload)
                .into_iter()
                .map(|ops| Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>)
                .collect();
            let mut sim = SystemSim::new(&cfg.system, programs);
            let (report, allocs) = count_allocs(|| sim.run(cfg.max_cycles));
            let raw = report.soc.raw_requests;
            assert!(
                raw > 0 && report.cycles < cfg.max_cycles,
                "{name}: run did not finish"
            );
            let per_raw = allocs as f64 / raw as f64;
            eprintln!("{name} (MAC {mac}): {per_raw:.3} allocations per raw request");
            assert!(
                per_raw <= MAX_ALLOCS_PER_RAW,
                "{name} (MAC {mac}): {allocs} allocations for {raw} raw requests = {per_raw:.2} each"
            );
        }
    }
}
