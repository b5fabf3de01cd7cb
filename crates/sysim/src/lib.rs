//! # mac-sim
//!
//! The full-system simulator: cores → request router → MAC → HMC →
//! response router → cores, cycle by cycle, plus the experiment engine
//! that regenerates every figure and table of the paper.
//!
//! * [`driver`] — [`driver::RunDriver`]: the one run loop. It owns the
//!   clock, the event-driven idle-span skip (DESIGN.md §14), the
//!   observers (tracer, metrics, profiler, progress probe, conformance
//!   checker), the adaptive controller's decision hook and the report,
//!   generic over a topology [`driver::Fabric`] that supplies one
//!   cycle's tick and its next-event bound.
//! * [`system`] — [`SystemSim`] (`RunDriver<NodeFabric>`): one or more
//!   Figure 4 nodes (cores + MAC + HMC) with an interconnect for remote
//!   accesses. Supports the paper's baseline mode (`mac_disabled`) where
//!   raw 16 B requests go straight to the device, and host-side
//!   coalescing over a multi-cube network (`config.net.enabled`).
//! * [`netsystem`] — [`NetSystem`] (`RunDriver<CubeFabric>`): the
//!   per-cube coalescer placement (`MacPlacement::PerCube`), where raw
//!   requests cross the cube fabric and one MAC per cube merges them at
//!   ingress.
//! * [`report`] — [`RunReport`]: merged SoC/MAC/HMC statistics with the
//!   paper's derived metrics (Eq. 1–3) and the Figure 17 speedup
//!   computation.
//! * [`experiment`] — workload runners: with/without-MAC pairs, checked
//!   and observed runs, all dispatched to the loop the MAC placement
//!   selects; the low-level building blocks the engine schedules.
//! * [`engine`] — the parallel experiment engine: work-stealing
//!   [`engine::SimPool`], content-addressed result cache, deterministic
//!   artifact output (`--jobs 8` is byte-identical to `--jobs 1`).
//! * [`mod@manifest`] — every figure/table/ablation as a declarative
//!   [`manifest::Experiment`] entry naming the [`catalog`] builder that
//!   produces its artifacts.
//! * [`catalog`] — one row builder per manifest entry: it runs the
//!   entry's simulations through the pool and formats its tables.
//! * [`baseline`] — the behaviour baseline harness behind
//!   `mac-bench baseline --check`.
//! * [`fuzz`] — the differential conformance fuzzer behind
//!   `mac-bench fuzz`: seeded random configs × adversarial address
//!   streams run with the `mac-check` invariant checker attached and
//!   diffed against the functional oracle, with failing cases shrunk to
//!   minimal reproducers.
//! * [`cachefmt`] — the versioned text formats for cached results.

#![warn(missing_docs)]

pub mod analyzer;
pub mod baseline;
pub mod cachefmt;
pub mod catalog;
pub mod driver;
pub mod engine;
pub mod experiment;
pub mod fuzz;
pub mod manifest;
pub mod netsystem;
pub mod progress;
pub mod report;
pub mod system;

pub use analyzer::{analyze, TraceAnalysis};
pub use baseline::{Baseline, BaselineCheck};
pub use engine::{run_experiments, Artifact, EngineOptions, EngineRun, SimPool, SimRequest};
pub use experiment::{
    run_ops_checked, run_pair, run_workload, run_workload_checked, run_workload_observed,
    CheckedRun, ExperimentConfig, RunObservers,
};
pub use fuzz::{run_fuzz, FuzzOptions, FuzzReport};
pub use manifest::{manifest, select, Experiment};
pub use netsystem::NetSystem;
pub use progress::{phase_name, ProgressProbe, PHASE_DONE, PHASE_QUEUED, PHASE_RUNNING};
pub use report::RunReport;
pub use system::SystemSim;
