//! # mac-guest
//!
//! Real-binary guest workloads for the MAC reproduction: the paper runs
//! GCC-compiled RISC-V kernels under Spike and feeds the captured memory
//! trace to the simulator (§5.1). This crate closes the same loop for the
//! in-repo toolchain:
//!
//! * [`elf`] — an ELF64 writer for the [`rv64_sim::Object`]s the rv64
//!   assembler places (`mac-bench guest assemble`).
//! * [`runtime`] — a deterministic guest runtime that runs an assembled
//!   object on one hart: a 4-call ecall ABI (exit / putchar /
//!   retired-count / trace-marker), a step budget, and memory-access
//!   capture into the SoC's [`soc_sim::ThreadOp`] vocabulary.
//! * [`programs`] — the shipped guest kernels (checked-in `.s` sources,
//!   assembled at build/test time) and [`programs::capture_traces`], the
//!   bridge that runs one guest binary per simulated thread.
//! * [`xval`] — the cross-validation analyzer that diffs a guest kernel's
//!   address stream against its modeled counterpart (read/write mix,
//!   stride histogram, row-touch statistics) under explicit tolerances.

#![warn(missing_docs)]

pub mod elf;
pub mod programs;
pub mod runtime;
pub mod xval;

pub use elf::write_elf;
pub use programs::{capture_traces, program_by_name, shipped_programs, ProgramSpec};
pub use runtime::{run_guest, GuestArgs, GuestConfig, GuestExit, GuestRun, STACK_TOP};
pub use xval::{cross_validate, TraceProfile, XvalCheck, XvalReport, XvalTolerances};
