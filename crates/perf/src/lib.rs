//! # mac-perf
//!
//! The simulator's host-time benchmark. One invocation measures one
//! workload in its own process, on one thread:
//!
//! * [`batch`] — the four workloads (`paper_suite`, `dense`, `idle`,
//!   `checked_mix`) and the set-up that builds their batches;
//! * [`mix`] — the seeded, stratified `checked_mix` case generator;
//! * [`run`] — the end-to-end run: interleaved timed passes with set-up
//!   samples among them, result checks, and the end-to-end metrics;
//! * [`calib`] — the fixed kernel that measures the host's speed, so
//!   host times read as seconds on a reference machine;
//! * [`replay`] — per-layer replay: each layer's public API driven with a
//!   simulation's recorded inputs;
//! * [`trace`] — the separate traced run that reports per-layer metrics
//!   and writes spans;
//! * [`compare`] — judges two sets of recorded runs against the bounds
//!   in `BENCHMARK.json`;
//! * [`stats`], [`json`], [`alloc`] — quartiles, a small JSON reader and
//!   writer, and the allocation counter.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the measurement protocol.

#![warn(missing_docs)]

pub mod alloc;
pub mod batch;
pub mod calib;
pub mod compare;
pub mod json;
pub mod mix;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
