//! The host-speed yardstick.
//!
//! Shared machines change speed by 10–20% over minutes and by up to 2x
//! for a minute at a time (see the noise study in `README.md`). A
//! host-time metric compared across runs taken at different times
//! therefore needs the speed of the machine *at that run*. The timed
//! passes interleave short samples of [`kernel`], a fixed std-only
//! workload shaped like the simulator's hot paths (hash-map inserts and
//! removals, a FIFO, a binary heap, small vectors), and scale every
//! host time by [`REFERENCE_KERNEL_MS`] over the run's low-quartile
//! kernel time. The kernel lives here, outside every simulator crate,
//! so no change to the simulator's source moves it. It is compiled with
//! the simulator, though: a change to the build profile, the toolchain
//! or the compiler flags moves both, and is judged on the unscaled
//! [`crate::compare::HOST_RAW_REQ_PER_S`] instead.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

/// The kernel's low-quartile time on the reference machine (a quiet
/// 2-vCPU x86-64 container), in milliseconds. Host times are reported
/// as the seconds they would take on that machine.
pub const REFERENCE_KERNEL_MS: f64 = 4.0;

/// One kernel run: about 4 ms on the reference machine.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut fifo: VecDeque<u64> = VecDeque::new();
    let mut heap = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        // xorshift64: a fixed pseudo-random stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x & 0xFFFF, i);
        fifo.push_back(x);
        heap.push(Reverse(x >> 20));
        if fifo.len() > 256 {
            acc ^= fifo.pop_front().unwrap_or(0);
        }
        if heap.len() > 512 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        if let Some(v) = map.remove(&((x >> 7) & 0xFFFF)) {
            acc = acc.wrapping_add(v);
        }
        acc ^= std::hint::black_box(vec![x; (x & 7) as usize]).len() as u64;
    }
    acc
}

/// Time one kernel run, in seconds.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// The factor that turns the host's seconds into reference
/// seconds, given the run's kernel samples (seconds): the reference
/// kernel time over the samples' low quartile.
pub fn speed(samples: &[f64]) -> f64 {
    REFERENCE_KERNEL_MS / (crate::stats::quartiles(samples).q1 * 1e3)
}
