//! Heap accounting: allocation counts for the traced run and the peak
//! heap of a simulation for the end-to-end run.
//!
//! [`CountingAlloc`] wraps the system allocator. While counting is
//! enabled on the calling thread it counts every `alloc`,
//! `alloc_zeroed` and `realloc`; at all times it tracks the thread's
//! live heap bytes and their high-water mark. Counters are thread-local,
//! so work on other threads (a test harness, say) never leaks into a
//! count. A binary opts in by installing it as its `#[global_allocator]`;
//! without that, every count reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// System allocator plus per-thread allocation and live-byte counters.
pub struct CountingAlloc;

// `try_with` below: the allocator can run while thread-locals are torn
// down.

fn bump() {
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Account `grown` new and `freed` released bytes. A block freed on
/// another thread than the one that allocated it can take one thread's
/// count below zero; it saturates instead.
fn resize(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grown as u64).saturating_sub(freed as u64);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches
// only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        resize(layout.size(), 0);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        resize(layout.size(), 0);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        resize(new_size, layout.size());
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(0, layout.size());
        // SAFETY: forwarded verbatim; `ptr` came from `System` via us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with allocation counting enabled on this thread; returns its
/// result and the allocations it made (0 unless [`CountingAlloc`] is
/// the global allocator).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let was = COUNTING.with(|c| c.replace(true));
    let before = ALLOCS.with(Cell::get);
    let r = f();
    let n = ALLOCS.with(Cell::get) - before;
    COUNTING.with(|c| c.set(was));
    (r, n)
}

/// Run `f`; returns its result and the most heap it held at once above
/// what was live when it started, in bytes (0 unless [`CountingAlloc`]
/// is the global allocator).
pub fn peak_heap<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.with(Cell::get);
    let outer = PEAK.with(|p| p.replace(base));
    let r = f();
    let peak = PEAK.with(|p| p.replace(p.get().max(outer)));
    (r, peak.saturating_sub(base))
}
