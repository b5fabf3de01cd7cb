//! Thread programs: the operation streams cores execute.
//!
//! A [`ThreadProgram`] is a pull-based iterator over what one hardware
//! thread does next. Workload kernels in `mac-workloads` implement it
//! directly; [`ReplayProgram`] replays captured traces; [`Rv64Program`]
//! drives a live RV64 hart and converts its instruction stream into
//! thread operations (compute batches between memory events).

use mac_types::{MemOpKind, PhysAddr};
use rv64_sim::{Cpu, ExecResult, FlatMemory, MemEvent, MemEventKind};

/// What a thread wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadOp {
    /// Execute `n` non-memory instructions (1 cycle each, in-order).
    Compute(u64),
    /// One scratchpad access (node-local; costs the SPM latency).
    Spm,
    /// One main-memory operation at FLIT granularity.
    Mem {
        /// Physical address of the access (FLIT-aligned by the core).
        addr: PhysAddr,
        /// Load or store.
        kind: MemOpKind,
    },
    /// The thread has finished its program.
    Done,
}

impl From<MemEvent> for ThreadOp {
    /// A hart's main-memory event as the access a core issues.
    fn from(e: MemEvent) -> Self {
        let kind = match e.kind {
            MemEventKind::Load => MemOpKind::Load,
            MemEventKind::Store => MemOpKind::Store,
            MemEventKind::Atomic => MemOpKind::Atomic,
            MemEventKind::Fence => MemOpKind::Fence,
        };
        ThreadOp::Mem {
            addr: PhysAddr::new(e.addr),
            kind,
        }
    }
}

/// A source of thread operations.
pub trait ThreadProgram: Send {
    /// The next operation. Must return [`ThreadOp::Done`] forever once
    /// finished.
    fn next_op(&mut self) -> ThreadOp;
}

/// Replays a pre-built operation list (used by workload generators that
/// materialize their traces up front, and by tests).
#[derive(Debug, Clone)]
pub struct ReplayProgram {
    ops: std::collections::VecDeque<ThreadOp>,
}

impl ReplayProgram {
    /// Wrap an operation list, dropping its spare capacity: a program
    /// lives as long as its simulation.
    pub fn new(mut ops: Vec<ThreadOp>) -> Self {
        ops.shrink_to_fit();
        ReplayProgram { ops: ops.into() }
    }

    /// Convenience: a stream of FLIT-granular loads at the given
    /// addresses with `gap` compute instructions between them.
    pub fn loads(addrs: impl IntoIterator<Item = u64>, gap: u64) -> Self {
        let mut ops = Vec::new();
        for a in addrs {
            if gap > 0 {
                ops.push(ThreadOp::Compute(gap));
            }
            ops.push(ThreadOp::Mem {
                addr: PhysAddr::new(a),
                kind: MemOpKind::Load,
            });
        }
        ReplayProgram::new(ops)
    }
}

impl ThreadProgram for ReplayProgram {
    fn next_op(&mut self) -> ThreadOp {
        self.ops.pop_front().unwrap_or(ThreadOp::Done)
    }
}

/// Drives a live RV64 hart: runs the CPU until it emits a main-memory
/// event, yielding the intervening instruction count as compute.
pub struct Rv64Program {
    cpu: Cpu,
    mem: FlatMemory,
    /// Events the last `step` produced but we have not yielded yet.
    queued: std::collections::VecDeque<MemEvent>,
    /// Instruction budget guard against runaway programs.
    remaining_steps: u64,
    finished: bool,
}

impl Rv64Program {
    /// Build from an assembled image loaded at address 0 with the given
    /// private memory size, scratchpad size, and step budget.
    pub fn new(image: &[u8], mem_bytes: usize, spm_bytes: usize, max_steps: u64) -> Self {
        let mut mem = FlatMemory::new(mem_bytes);
        mem.load_image(0, image);
        Rv64Program {
            cpu: Cpu::new(0, spm_bytes),
            mem,
            queued: std::collections::VecDeque::new(),
            remaining_steps: max_steps,
            finished: false,
        }
    }

    /// Set a register before the program starts (argument passing).
    pub fn set_reg(&mut self, reg: rv64_sim::Reg, value: u64) {
        self.cpu.set_reg(reg, value);
    }

    /// Write bytes into the thread's functional memory (dataset seeding —
    /// the equivalent of the loader initializing a program's data
    /// segment).
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) {
        use rv64_sim::Memory;
        self.mem.write(addr, bytes);
    }

    /// Access the hart after the run (result inspection).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }
}

impl ThreadProgram for Rv64Program {
    fn next_op(&mut self) -> ThreadOp {
        if let Some(e) = self.queued.pop_front() {
            return e.into();
        }
        if self.finished {
            return ThreadOp::Done;
        }
        let mut events = Vec::new();
        let mut computed = 0u64;
        loop {
            if self.remaining_steps == 0 {
                self.finished = true;
                break;
            }
            self.remaining_steps -= 1;
            match self.cpu.step(&mut self.mem, &mut events) {
                ExecResult::Continue => {
                    if events.is_empty() {
                        computed += 1;
                        continue;
                    }
                    break;
                }
                ExecResult::Halted | ExecResult::Trap(_) => {
                    self.finished = true;
                    break;
                }
            }
        }
        self.queued.extend(events);
        if computed > 0 {
            ThreadOp::Compute(computed)
        } else if let Some(e) = self.queued.pop_front() {
            e.into()
        } else {
            ThreadOp::Done
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv64_sim::assemble;

    #[test]
    fn replay_yields_in_order_then_done() {
        let mut p = ReplayProgram::loads([0x100, 0x200], 3);
        assert_eq!(p.next_op(), ThreadOp::Compute(3));
        assert!(matches!(
            p.next_op(),
            ThreadOp::Mem {
                kind: MemOpKind::Load,
                ..
            }
        ));
        assert_eq!(p.next_op(), ThreadOp::Compute(3));
        assert!(matches!(p.next_op(), ThreadOp::Mem { .. }));
        assert_eq!(p.next_op(), ThreadOp::Done);
        assert_eq!(p.next_op(), ThreadOp::Done, "Done repeats");
    }

    #[test]
    fn replay_holds_no_spare_capacity() {
        let mut ops = Vec::with_capacity(1000);
        ops.extend([ThreadOp::Compute(1), ThreadOp::Spm, ThreadOp::Compute(2)]);
        let p = ReplayProgram::new(ops);
        assert_eq!(p.ops.len(), 3);
        assert_eq!(p.ops.capacity(), 3);
    }

    #[test]
    fn rv64_program_interleaves_compute_and_memory() {
        let image = assemble(
            r#"
            li a0, 0x1000
            li a1, 1
            sd a1, 0(a0)
            addi a1, a1, 1
            addi a1, a1, 1
            sd a1, 16(a0)
            ecall
            "#,
        )
        .unwrap();
        let mut p = Rv64Program::new(&image, 1 << 16, 1024, 10_000);
        let mut ops = Vec::new();
        loop {
            let op = p.next_op();
            if op == ThreadOp::Done {
                break;
            }
            ops.push(op);
        }
        let mems: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o, ThreadOp::Mem { .. }))
            .collect();
        assert_eq!(mems.len(), 2);
        // Compute batches surround the stores (li expands to >= 1 instr).
        assert!(matches!(ops[0], ThreadOp::Compute(n) if n >= 2));
        assert!(
            ops.iter().any(|o| matches!(o, ThreadOp::Compute(2))),
            "two addis between stores"
        );
    }

    #[test]
    fn rv64_program_respects_step_budget() {
        // Infinite loop: j back to itself.
        let image = assemble("top:\nj top\n").unwrap();
        let mut p = Rv64Program::new(&image, 4096, 64, 100);
        // Consumes the budget as one compute batch, then finishes.
        assert!(matches!(p.next_op(), ThreadOp::Compute(_)));
        assert_eq!(p.next_op(), ThreadOp::Done);
    }

    #[test]
    fn rv64_argument_passing() {
        let image = assemble("sd a1, 0(a0)\necall\n").unwrap();
        let mut p = Rv64Program::new(&image, 1 << 16, 64, 100);
        p.set_reg(rv64_sim::Reg(10), 0x2000);
        p.set_reg(rv64_sim::Reg(11), 77);
        let op = p.next_op();
        assert_eq!(
            op,
            ThreadOp::Mem {
                addr: PhysAddr::new(0x2000),
                kind: MemOpKind::Store
            }
        );
    }
}
