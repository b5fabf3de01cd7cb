//! # mac-check
//!
//! Differential conformance harness for the MAC reproduction.
//!
//! The simulator's figures are only as trustworthy as its *functional*
//! behaviour: every raw request must be served exactly once, in fence
//! order, from the DRAM row its address decodes to, and the statistics
//! the figures plot must be conserved across the
//! router → ARQ → builder → device → response pipeline. This crate
//! provides the two independent witnesses the `mac-bench fuzz`
//! differential fuzzer diffs against each other:
//!
//! * [`ConformanceChecker`] ([`invariants`]) — an observational monitor
//!   the system loops feed with every accepted issue, dispatch,
//!   response, completion, and fence retirement. It asserts the numbered
//!   invariants **I1–I10** (see [`invariant_description`]) online and at
//!   end of run, recording [`Violation`]s instead of panicking so
//!   failing cases can be shrunk and written out as reproducers.
//! * [`OracleReplay`] ([`oracle`]) — a timing-free re-execution of the
//!   same thread programs with no pipelining and no coalescing: just
//!   address decode, program order, and per-request service accounting.
//!   [`OracleReplay::diff`] compares its expectations against what the
//!   checker observed the real simulator do.
//!
//! The crate deliberately depends only on `mac-types` and `soc-sim` (for
//! [`soc_sim::ThreadOp`]), so `mac-sim` can host the hooks without a
//! dependency cycle.

#![warn(missing_docs)]

pub mod invariants;
pub mod oracle;
mod table;

pub use invariants::{
    invariant_description, ConformanceChecker, FinishProbe, KindCounts, StatsProbe, Violation,
    INVARIANTS,
};
pub use oracle::OracleReplay;
