//! Pinned captures: a 128-bit digest of every shipped guest program's
//! captured trace at a fixed thread count, scale and seed.
//!
//! The traces are the guest workloads' inputs to every simulation, so
//! any interpreter change (decoding, memory paging, trace conversion)
//! that moves a single operation of a single thread fails here, before
//! it can move a result. The digests were computed before the hart
//! memoized `decode` and `FlatMemory` went page-direct, and hold since.

use mac_guest::{capture_traces, shipped_programs};
use mac_types::Fnv128;
use soc_sim::ThreadOp;

/// Threads, scale and seed of every pinned capture.
const THREADS: usize = 4;
const SCALE: u32 = 2;
const SEED: u64 = 0x5EED;

/// Each thread's length, then each op as a tag and its operands.
fn digest(traces: &[Vec<ThreadOp>]) -> String {
    let mut h = Fnv128::new();
    for ops in traces {
        h.write_u64(ops.len() as u64);
        for op in ops {
            match *op {
                ThreadOp::Compute(n) => {
                    h.write_u64(0);
                    h.write_u64(n);
                }
                ThreadOp::Spm => h.write_u64(1),
                ThreadOp::Mem { addr, kind } => {
                    h.write_u64(2);
                    h.write_u64(addr.raw());
                    h.write_u64(kind as u64);
                }
                ThreadOp::Done => h.write_u64(3),
            }
        }
    }
    format!("{:032x}", h.finish())
}

#[test]
fn captured_traces_match_their_pins() {
    let pins = [
        ("guest_stream", "c93befdabbbd60bb0ed056331d0dd09c"),
        ("guest_gups", "9427c0b9cec3dbfb5aa861bb0d6cc5a3"),
        ("guest_ptrchase", "acb9b3cefbc99e667ada942e1407b60d"),
        ("guest_sg", "6aec2b3270f4a9df682dc71480c0030b"),
    ];
    let names: Vec<_> = shipped_programs().iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        pins.map(|(n, _)| n),
        "every shipped program is pinned"
    );
    for (spec, (name, want)) in shipped_programs().iter().zip(pins) {
        let traces = capture_traces(spec, THREADS, SCALE, SEED).expect(name);
        assert_eq!(digest(&traces), want, "{name}");
    }
}
