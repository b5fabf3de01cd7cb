//! Allocation counts repeat exactly for identical replays.

use mac_perf::alloc::{count_allocs, peak_heap, CountingAlloc};
use mac_perf::replay::replay_sim;
use mac_telemetry::Profiler;
use mac_types::SystemConfig;
use mac_workloads::{by_name, WorkloadParams};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn identical_replays_allocate_identically() {
    let params = WorkloadParams {
        threads: 4,
        scale: 1,
        seed: 5,
    };
    let ops = by_name("sg").expect("registered").generate(&params);
    let sys = SystemConfig::paper(4);
    let a = replay_sim(&sys, &ops, &Profiler::disabled());
    let b = replay_sim(&sys, &ops, &Profiler::disabled());
    let (ma, mb) = (a.mac.expect("with MAC"), b.mac.expect("with MAC"));
    assert_eq!(a.soc.allocs, b.soc.allocs);
    assert_eq!(ma.allocs, mb.allocs);
    assert_eq!(a.dev.allocs, b.dev.allocs);
    // The MAC's tick returns a fresh Vec per call, so counting is live.
    assert!(ma.allocs >= ma.tick.calls, "{} allocs", ma.allocs);
}

#[test]
fn counting_is_off_outside_count_allocs() {
    let ((), n) = count_allocs(|| {
        std::hint::black_box(vec![1u8; 64]);
    });
    assert_eq!(n, 1);
    let ((), n) = count_allocs(|| {});
    assert_eq!(n, 0);
}

#[test]
fn peak_heap_sees_the_largest_live_moment() {
    let ((), peak) = peak_heap(|| {
        let a = std::hint::black_box(vec![0u8; 1 << 20]);
        drop(a);
        let b = std::hint::black_box(vec![0u8; 1 << 16]);
        drop(b);
    });
    assert_eq!(peak, 1 << 20);
    // Nested scopes each see their own peak above their own start.
    let (inner, outer) = peak_heap(|| {
        let _held = std::hint::black_box(vec![0u8; 1000]);
        peak_heap(|| std::hint::black_box(vec![0u8; 500]).len()).1
    });
    assert_eq!(inner, 500);
    assert_eq!(outer, 1500);
}
