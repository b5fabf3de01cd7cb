//! # mac-types
//!
//! Shared vocabulary types for the reproduction of *MAC: Memory Access
//! Coalescer for 3D-Stacked Memory* (Wang et al., ICPP 2019).
//!
//! This crate defines the data model every other crate in the workspace
//! speaks: the 52-bit physical address layout used by the coalescer
//! (row number / FLIT id / FLIT offset, §4.1 of the paper), the 16-bit
//! FLIT map, raw memory requests carrying their target information
//! (thread id, transaction tag, FLIT id — §4.1.1), assembled HMC request
//! packets, device responses, the analytic bandwidth-efficiency model of
//! Eq. 1, and the configuration structs that mirror Table 1 of the paper.
//!
//! Everything here is plain data: no simulation behaviour lives in this
//! crate. The MAC pipeline is in `mac-coalescer`, the HMC device model in
//! `hmc-model`, and the full-system binding in `mac-sim`.

#![warn(missing_docs)]

pub mod addr;
pub mod bandwidth;
pub mod config;
pub mod fingerprint;
pub mod flit;
pub mod jobid;
pub mod request;
pub mod seqwindow;
pub mod stats;

pub use addr::{CubeId, PhysAddr, RowId, FLITS_PER_ROW, FLIT_BYTES, ROW_BYTES};
pub use bandwidth::{bandwidth_efficiency, control_overhead_fraction, CONTROL_BYTES_PER_ACCESS};
pub use config::{
    AdaptConfig, CubeMapping, DdrConfig, FlitTablePolicy, HbmConfig, HmcConfig, MacConfig,
    MacPlacement, MemBackend, NetConfig, NetTopology, SocConfig, SystemConfig,
};
pub use fingerprint::{Fingerprint, Fnv128};
pub use flit::{ChunkMask, FlitMap, CHUNKS_PER_ROW, CHUNK_BYTES, FLITS_PER_CHUNK};
pub use jobid::JobId;
pub use request::{
    HmcRequest, HmcResponse, MemOpKind, NodeId, RawRequest, ReqSize, Target, TransactionId,
};
pub use seqwindow::SeqWindow;
pub use stats::{Counter, Histogram};

/// Simulation time, measured in CPU clock cycles (3.3 GHz in the paper's
/// Table 1 configuration, i.e. ~0.303 ns per cycle).
pub type Cycle = u64;

/// Convert nanoseconds to CPU cycles at the given core frequency in GHz,
/// rounding up so latencies are never optimistically truncated.
#[inline]
pub fn ns_to_cycles(ns: f64, ghz: f64) -> Cycle {
    (ns * ghz).ceil() as Cycle
}

/// Escape `s` for use inside a JSON string literal: quotes and
/// backslashes are backslash-escaped, `\n`, `\t` and `\r` take their short
/// forms and every other control character is written as `\u00XX`.
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_cycles_rounds_up() {
        // 93 ns at 3.3 GHz is 306.9 cycles; we round up.
        assert_eq!(ns_to_cycles(93.0, 3.3), 307);
    }

    #[test]
    fn zero_ns_is_zero_cycles() {
        assert_eq!(ns_to_cycles(0.0, 3.3), 0);
    }

    #[test]
    fn json_escape_uses_short_forms() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("\n\t\r"), "\\n\\t\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
