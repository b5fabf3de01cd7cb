//! # rv64-sim
//!
//! A compact RV64IM(+A-subset) interpreter with a built-in assembler and
//! memory-trace capture — the workspace's stand-in for the paper's
//! RISC-V toolchain (Spike + cross-compiled binaries, §5.1).
//!
//! The paper's evaluation pipeline only consumes the *memory instruction
//! stream* each core produces (address, operation, thread/core target
//! info). This crate produces exactly that stream from real programs:
//!
//! * [`isa`] — the decoded instruction set: RV64I base, M extension,
//!   LR/SC + AMO from A, `FENCE`, `ECALL` (halt), and the two custom
//!   scratchpad instructions (`spm.fetch` / `spm.flush`) mirroring the
//!   paper's SPM-management ISA extension.
//! * [`mod@decode`] / [`mod@encode`] — binary ↔ decoded forms, round-trip tested.
//! * [`asm`] — the assembler: labels, pseudo-ops, `.text`/`.data`
//!   sections and symbols, with convergence-based branch relaxation and
//!   every value range-checked. [`assemble`] gives the flat image tests
//!   and examples run at address 0; [`assemble_object`] the placed
//!   [`Object`] guest binaries run from.
//! * [`cpu`] — the hart: fetch/decode/execute over a flat main memory plus
//!   a per-hart scratchpad region. Main-memory accesses emit
//!   [`trace::MemEvent`]s; scratchpad accesses do not (they are node-local
//!   and never reach the MAC, §3).
//!
//! The `soc-sim` crate schedules several harts and turns their events into
//! raw requests for the MAC.

#![warn(missing_docs)]

pub mod asm;
pub mod cpu;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod isa;
pub mod trace;

pub use asm::{assemble, assemble_object, Object, Symbol};
pub use cpu::{Cpu, ExecResult, FlatMemory, Memory, Trap, TrapKind};
pub use decode::decode;
pub use disasm::{disassemble, disassemble_image};
pub use encode::encode;
pub use isa::{Instruction, Reg};
pub use trace::{MemEvent, MemEventKind};
