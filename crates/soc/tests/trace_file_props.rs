//! Never-panic tests for the `.mact` trace format, the file `trace_tools
//! analyze` and `trace_tools run` read from disk. Every truncation and
//! every single-byte change of an encoded trace must decode to `Ok` or
//! `Err`, never panic, and a trace the decoder accepts must encode and
//! decode again.

use mac_types::{MemOpKind, PhysAddr};
use soc_sim::{decode_trace, encode_trace, ThreadOp};

fn mem(kind: MemOpKind, addr: u64) -> ThreadOp {
    ThreadOp::Mem {
        addr: PhysAddr::new(addr),
        kind,
    }
}

/// Three threads covering every record kind: loads, stores, atomics,
/// fences, SPM accesses, compute gaps above `u16::MAX` (split into gap
/// records) and a trailing gap.
fn sample() -> Vec<Vec<ThreadOp>> {
    vec![
        vec![
            ThreadOp::Compute(3),
            mem(MemOpKind::Load, 0x1000),
            mem(MemOpKind::Store, 0x2010),
            ThreadOp::Spm,
            mem(MemOpKind::Fence, 0),
            ThreadOp::Compute(200_000),
            mem(MemOpKind::Atomic, 0x4_0020),
        ],
        vec![
            mem(MemOpKind::Atomic, 0x42),
            ThreadOp::Compute(u16::MAX as u64 + 1),
        ],
        vec![
            ThreadOp::Spm,
            mem(MemOpKind::Load, u64::MAX >> 12),
            ThreadOp::Compute(100),
            ThreadOp::Done,
        ],
    ]
}

/// Decode `raw`; an accepted trace must survive a second round trip.
fn exercise(raw: &[u8]) {
    if let Ok(threads) = decode_trace(raw) {
        let again = decode_trace(&encode_trace(&threads));
        assert_eq!(again.map(|t| t.len()), Ok(threads.len()));
    }
}

#[test]
fn sample_round_trips() {
    let raw = encode_trace(&sample());
    let decoded = decode_trace(&raw).expect("encoder output decodes");
    assert_eq!(decoded.len(), 3);
    assert_eq!(encode_trace(&decoded), raw);
}

#[test]
fn every_truncation_is_an_error() {
    let raw = encode_trace(&sample());
    for cut in 0..raw.len() {
        assert!(decode_trace(&raw[..cut]).is_err(), "cut at {cut} decoded");
    }
}

#[test]
fn every_single_byte_change_decodes_or_errs() {
    let raw = encode_trace(&sample());
    for pos in 0..raw.len() {
        for value in 0..=u8::MAX {
            let mut bad = raw.clone();
            bad[pos] = value;
            exercise(&bad);
        }
    }
}
