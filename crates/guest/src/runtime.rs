//! Deterministic guest runtime: place, run, capture.
//!
//! A guest binary runs on one rv64 hart with a private flat memory and a
//! tiny ecall ABI (selector in `a7`, argument/result in `a0`):
//!
//! | `a7` | call | semantics |
//! |------|------|-----------|
//! | 93   | `exit`    | terminate with status `a0` |
//! | 101  | `putchar` | append byte `a0` to captured stdout |
//! | 102  | `retired` | `a0` = instructions retired so far (cycle stand-in) |
//! | 103  | `marker`  | record `a0` as a trace marker |
//!
//! Every main-memory access the hart performs is converted into the
//! SoC's [`ThreadOp`] vocabulary (compute batches between memory
//! events), so a captured guest run slots into `SystemSim`/`NetSystem`
//! exactly like a modeled workload trace. Execution is bounded by a step
//! budget and every abnormal end (trap, unknown syscall, budget
//! exhaustion) is a deterministic, reportable [`GuestExit`] — never a
//! host panic.

use rv64_sim::{Cpu, ExecResult, FlatMemory, MemEvent, Object, Reg, Trap};
use soc_sim::ThreadOp;

/// `exit(status)` — terminate the guest.
pub const SYS_EXIT: u64 = 93;
/// `putchar(byte)` — append to captured stdout.
pub const SYS_PUTCHAR: u64 = 101;
/// `retired()` — read the retired-instruction counter.
pub const SYS_RETIRED: u64 = 102;
/// `marker(value)` — record a trace marker.
pub const SYS_MARKER: u64 = 103;

/// Initial stack pointer (grows down, below the 16 MB dataset heap).
pub const STACK_TOP: u64 = 0x00F0_0000;

const A0: Reg = Reg(10);
const A7: Reg = Reg(17);
const SP: Reg = Reg(2);

/// Runtime limits for one guest execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestConfig {
    /// Guest main-memory size in bytes (grown to fit the sections).
    pub mem_bytes: usize,
    /// Scratchpad size in bytes.
    pub spm_bytes: usize,
    /// Maximum instructions to execute before giving up.
    pub max_steps: u64,
}

impl Default for GuestConfig {
    fn default() -> Self {
        GuestConfig {
            mem_bytes: 32 << 20,
            spm_bytes: 64 << 10,
            max_steps: 8_000_000,
        }
    }
}

/// Per-thread guest arguments, passed in `a0`–`a3` at entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuestArgs {
    /// Thread id (`a0`).
    pub tid: u64,
    /// Thread count (`a1`).
    pub nthreads: u64,
    /// Problem scale (`a2`).
    pub scale: u64,
    /// RNG seed (`a3`).
    pub seed: u64,
}

/// How a guest execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestExit {
    /// Clean `exit(status)`.
    Exited(u64),
    /// A deterministic CPU trap (reason code in the record).
    Trapped(Trap),
    /// An `ecall` with an unknown selector.
    BadSyscall {
        /// The unknown `a7` value.
        number: u64,
        /// PC of the `ecall`.
        pc: u64,
    },
    /// The step budget ran out before the guest exited.
    OutOfSteps,
}

impl GuestExit {
    /// Clean `exit(0)`.
    pub fn is_success(&self) -> bool {
        matches!(self, GuestExit::Exited(0))
    }

    /// Stable reason code for reports: 0 = clean exit, 1–4 = trap codes
    /// ([`rv64_sim::TrapKind`]), 5 = bad syscall, 6 = out of steps.
    pub fn code(&self) -> u32 {
        match self {
            GuestExit::Exited(_) => 0,
            GuestExit::Trapped(t) => t.code(),
            GuestExit::BadSyscall { .. } => 5,
            GuestExit::OutOfSteps => 6,
        }
    }
}

impl std::fmt::Display for GuestExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestExit::Exited(s) => write!(f, "exit({s})"),
            GuestExit::Trapped(t) => write!(f, "trap: {t}"),
            GuestExit::BadSyscall { number, pc } => {
                write!(f, "unknown syscall {number} at {pc:#x}")
            }
            GuestExit::OutOfSteps => write!(f, "step budget exhausted"),
        }
    }
}

/// The full result of one guest execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestRun {
    /// Why execution ended.
    pub exit: GuestExit,
    /// Bytes written via `putchar`.
    pub stdout: String,
    /// Values recorded via `marker`.
    pub markers: Vec<u64>,
    /// Instructions retired.
    pub retired: u64,
    /// Steps consumed from the budget.
    pub steps: u64,
    /// The captured thread-operation trace.
    pub ops: Vec<ThreadOp>,
}

/// Execute an assembled guest to completion under `cfg`, capturing its
/// memory trace. Memory holds `cfg.mem_bytes`, grown to the end of the
/// highest non-empty section; guest-side failures end up in
/// [`GuestRun::exit`].
pub fn run_guest(obj: &Object, args: &GuestArgs, cfg: &GuestConfig) -> GuestRun {
    let end = obj
        .sections()
        .map(|(base, bytes)| base + bytes.len() as u64);
    let mut mem = FlatMemory::new((cfg.mem_bytes as u64).max(end.max().unwrap_or(0)) as usize);
    for (base, bytes) in obj.sections() {
        mem.load_image(base, bytes);
    }
    let mut cpu = Cpu::new(obj.entry, cfg.spm_bytes);
    cpu.set_reg(SP, STACK_TOP);
    cpu.set_reg(Reg(10), args.tid);
    cpu.set_reg(Reg(11), args.nthreads);
    cpu.set_reg(Reg(12), args.scale);
    cpu.set_reg(Reg(13), args.seed);

    let mut run = GuestRun {
        exit: GuestExit::OutOfSteps,
        stdout: String::new(),
        markers: Vec::new(),
        retired: 0,
        steps: 0,
        ops: Vec::new(),
    };
    let mut events: Vec<MemEvent> = Vec::new();
    let mut computed = 0u64;
    let flush_compute = |ops: &mut Vec<ThreadOp>, computed: &mut u64| {
        if *computed > 0 {
            ops.push(ThreadOp::Compute(*computed));
            *computed = 0;
        }
    };

    while run.steps < cfg.max_steps {
        run.steps += 1;
        match cpu.step(&mut mem, &mut events) {
            ExecResult::Continue => {
                if events.is_empty() {
                    computed += 1;
                } else {
                    flush_compute(&mut run.ops, &mut computed);
                    run.ops.extend(events.drain(..).map(ThreadOp::from));
                }
            }
            ExecResult::Trap(t) => {
                run.exit = GuestExit::Trapped(t);
                break;
            }
            ExecResult::Halted => {
                let number = cpu.reg(A7);
                match number {
                    SYS_EXIT => {
                        run.exit = GuestExit::Exited(cpu.reg(A0));
                        break;
                    }
                    SYS_PUTCHAR => {
                        run.stdout.push((cpu.reg(A0) & 0xFF) as u8 as char);
                    }
                    SYS_RETIRED => {
                        cpu.set_reg(A0, cpu.retired);
                    }
                    SYS_MARKER => {
                        run.markers.push(cpu.reg(A0));
                    }
                    _ => {
                        run.exit = GuestExit::BadSyscall { number, pc: cpu.pc };
                        break;
                    }
                }
                // A serviced call costs one compute op, like any other
                // retired instruction.
                computed += 1;
                cpu.resume();
            }
        }
    }
    flush_compute(&mut run.ops, &mut computed);
    run.retired = cpu.retired;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::MemOpKind;
    use rv64_sim::{assemble_object, TrapKind};

    fn load(src: &str) -> Object {
        assemble_object(src).unwrap()
    }

    fn run(src: &str) -> GuestRun {
        run_guest(&load(src), &GuestArgs::default(), &GuestConfig::default())
    }

    #[test]
    fn exit_status_and_stdout_are_captured() {
        let r = run(r#"
        _start:
            li a0, 104      # 'h'
            li a7, 101
            ecall
            li a0, 105      # 'i'
            li a7, 101
            ecall
            li a0, 7
            li a7, 93
            ecall
            "#);
        assert_eq!(r.exit, GuestExit::Exited(7));
        assert!(!r.exit.is_success());
        assert_eq!(r.stdout, "hi");
    }

    #[test]
    fn markers_and_retired_counter() {
        let r = run(r#"
        _start:
            li a0, 11
            li a7, 103
            ecall
            li a7, 102
            ecall            # a0 = retired
            li a7, 103
            ecall            # marker(retired)
            li a0, 0
            li a7, 93
            ecall
            "#);
        assert!(r.exit.is_success());
        assert_eq!(r.markers.len(), 2);
        assert_eq!(r.markers[0], 11);
        assert!(r.markers[1] > 0, "retired counter is live");
    }

    #[test]
    fn memory_trace_is_captured_as_thread_ops() {
        let r = run(r#"
        _start:
            li a0, 0x100000
            li a1, 5
            sd a1, 0(a0)
            ld a2, 0(a0)
            fence
            li a0, 0
            li a7, 93
            ecall
            "#);
        assert!(r.exit.is_success());
        let mems: Vec<_> = r
            .ops
            .iter()
            .filter(|o| matches!(o, ThreadOp::Mem { .. }))
            .collect();
        assert_eq!(mems.len(), 3);
        assert!(matches!(
            mems[0],
            ThreadOp::Mem {
                kind: MemOpKind::Store,
                ..
            }
        ));
        assert!(matches!(
            mems[2],
            ThreadOp::Mem {
                kind: MemOpKind::Fence,
                ..
            }
        ));
        assert!(
            matches!(r.ops[0], ThreadOp::Compute(n) if n > 0),
            "li sequence batches as compute"
        );
    }

    #[test]
    fn guest_trap_is_reported_not_panicked() {
        let r = run("_start:\nli a0, 0x1001\nld a1, 0(a0)\n");
        match r.exit {
            GuestExit::Trapped(t) => {
                assert_eq!(t.kind, TrapKind::MisalignedAccess);
                assert_eq!(r.exit.code(), 2);
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn bad_syscall_is_reported() {
        let r = run("_start:\nli a7, 999\necall\n");
        assert_eq!(
            r.exit,
            GuestExit::BadSyscall {
                number: 999,
                pc: 0x10004
            }
        );
        assert_eq!(r.exit.code(), 5);
    }

    #[test]
    fn runaway_guest_hits_the_step_budget() {
        let r = run_guest(
            &load("_start:\nj _start\n"),
            &GuestArgs::default(),
            &GuestConfig {
                max_steps: 1000,
                ..GuestConfig::default()
            },
        );
        assert_eq!(r.exit, GuestExit::OutOfSteps);
        assert_eq!(r.steps, 1000);
        assert_eq!(r.exit.code(), 6);
    }

    #[test]
    fn entry_arguments_reach_the_registers() {
        let elf = load(
            r#"
        _start:
            li a7, 103
            ecall           # marker(tid)
            mv a0, a1
            ecall           # marker(nthreads)
            mv a0, a2
            ecall           # marker(scale)
            mv a0, a3
            ecall           # marker(seed)
            li a0, 0
            li a7, 93
            ecall
            "#,
        );
        let args = GuestArgs {
            tid: 3,
            nthreads: 8,
            scale: 2,
            seed: 0xBEEF,
        };
        let r = run_guest(&elf, &args, &GuestConfig::default());
        assert!(r.exit.is_success());
        assert_eq!(r.markers, vec![3, 8, 2, 0xBEEF]);
    }
}
