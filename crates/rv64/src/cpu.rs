//! The hart: fetch/decode/execute with memory-trace capture.
//!
//! Each [`Cpu`] owns its architectural state and a private scratchpad
//! (SPM) region, mirroring the paper's node architecture (§3): SPM
//! accesses are local (1 ns, untraced); everything else goes to main
//! memory and emits a [`MemEvent`] for the MAC pipeline downstream.

use crate::decode::decode;
use crate::isa::{AluImmOp, AluOp, AmoOp, BranchOp, Instruction, Reg, Width};
use crate::trace::{MemEvent, MemEventKind};

/// Byte-addressable main memory as seen by a hart.
pub trait Memory {
    /// Read `buf.len()` bytes at `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]);
    /// Write `buf` at `addr`.
    fn write(&mut self, addr: u64, buf: &[u8]);
    /// Out-of-range accesses observed so far. The CPU samples this around
    /// each access to turn silent zero-fill/drop into a deterministic
    /// [`TrapKind::OutOfRange`] guest trap. Backings without bounds
    /// return 0 forever (never trap).
    fn fault_count(&self) -> u64 {
        0
    }
}

/// Bytes per [`FlatMemory`] page.
const PAGE_BYTES: usize = 4096;

/// Flat, zero-initialised memory of a fixed size, usable for programs
/// and data.
///
/// The bytes live in 4 KiB pages allocated on first write; a page never
/// written reads as zeros. A guest sized for its largest footprint thus
/// costs only the pages it touches, not a zeroed buffer of the full
/// size. Bounds are those of a `Vec<u8>` of the same length.
///
/// Out-of-range accesses do not panic: reads return zeros, writes are
/// dropped, and both bump [`FlatMemory::faults`] so harnesses can detect
/// runaway programs.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    len: usize,
    /// Page `i` holds bytes `i * PAGE_BYTES ..`; `None` until written.
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
    /// Out-of-range accesses observed.
    pub faults: u64,
}

impl FlatMemory {
    /// `size` bytes of zeroed memory (no page is allocated yet).
    pub fn new(size: usize) -> Self {
        FlatMemory {
            len: size,
            pages: vec![None; size.div_ceil(PAGE_BYTES)],
            faults: 0,
        }
    }

    /// Copy a program image to `addr`. The portion (if any) that falls
    /// outside the backing store is dropped and counted as one fault —
    /// loaders are expected to size memory up front, but a bad image must
    /// never panic the host.
    pub fn load_image(&mut self, addr: u64, image: &[u8]) {
        let a = usize::try_from(addr).unwrap_or(usize::MAX);
        let fit = self.len.saturating_sub(a).min(image.len());
        if fit > 0 {
            self.copy_in(a, &image[..fit]);
        }
        if self.span(addr, image.len()).is_none() {
            self.faults += 1;
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Start of the span `addr .. addr + len` when it lies in bounds.
    fn span(&self, addr: u64, len: usize) -> Option<usize> {
        let a = usize::try_from(addr).ok()?;
        a.checked_add(len).filter(|&end| end <= self.len).map(|_| a)
    }

    /// Copy in-bounds memory at `a` into `dst`.
    fn copy_out(&self, a: usize, dst: &mut [u8]) {
        for (page, off, r) in pieces(a, dst.len()) {
            let out = &mut dst[r];
            match &self.pages[page] {
                Some(p) => out.copy_from_slice(&p[off..off + out.len()]),
                None => out.fill(0),
            }
        }
    }

    /// Copy `src` to in-bounds memory at `a`, allocating pages.
    fn copy_in(&mut self, a: usize, src: &[u8]) {
        for (page, off, r) in pieces(a, src.len()) {
            let p = self.pages[page].get_or_insert_with(|| {
                vec![0; PAGE_BYTES]
                    .into_boxed_slice()
                    .try_into()
                    .expect("a page is PAGE_BYTES long")
            });
            p[off..off + r.len()].copy_from_slice(&src[r]);
        }
    }
}

/// Split the span `a .. a + len` at page boundaries: yields each piece's
/// page index, offset within the page, and range within the span.
fn pieces(a: usize, len: usize) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = a + done;
            let off = at % PAGE_BYTES;
            let n = (len - done).min(PAGE_BYTES - off);
            done += n;
            (at / PAGE_BYTES, off, done - n..done)
        })
    })
}

impl Memory for FlatMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        match self.span(addr, buf.len()) {
            Some(a) => self.copy_out(a, buf),
            None => {
                buf.fill(0);
                self.faults += 1;
            }
        }
    }
    fn write(&mut self, addr: u64, buf: &[u8]) {
        match self.span(addr, buf.len()) {
            Some(a) => self.copy_in(a, buf),
            None => self.faults += 1,
        }
    }
    fn fault_count(&self) -> u64 {
        self.faults
    }
}

/// Why a hart trapped (deterministic guest-visible reason codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// The fetched word does not decode.
    IllegalInstruction = 1,
    /// A load/store/atomic address is not aligned to its access width.
    MisalignedAccess = 2,
    /// The access fell outside the backing memory.
    OutOfRange = 3,
    /// `spm.fetch`/`spm.flush` named a scratchpad range that is not one.
    SpmRange = 4,
}

/// A trap record: what went wrong, where, and the offending address (or
/// instruction word for [`TrapKind::IllegalInstruction`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Trap {
    /// Reason code.
    pub kind: TrapKind,
    /// PC of the faulting instruction.
    pub pc: u64,
    /// Faulting address, or the undecodable instruction word.
    pub info: u64,
}

impl Trap {
    /// Stable numeric reason code for reports.
    pub fn code(&self) -> u32 {
        self.kind as u32
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            TrapKind::IllegalInstruction => {
                write!(
                    f,
                    "illegal instruction {:#010x} at {:#x}",
                    self.info, self.pc
                )
            }
            TrapKind::MisalignedAccess => {
                write!(f, "misaligned access {:#x} at {:#x}", self.info, self.pc)
            }
            TrapKind::OutOfRange => {
                write!(f, "out-of-range access {:#x} at {:#x}", self.info, self.pc)
            }
            TrapKind::SpmRange => {
                write!(
                    f,
                    "address {:#x} not in scratchpad at {:#x}",
                    self.info, self.pc
                )
            }
        }
    }
}

/// Result of executing one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecResult {
    /// Keep going.
    Continue,
    /// `ecall` executed — the hart halted.
    Halted,
    /// Illegal instruction, misaligned access, or out-of-range access.
    Trap(Trap),
}

/// Default SPM window base in the hart's address space.
pub const SPM_BASE: u64 = 0xFFFF_0000;

/// One RV64 hart with a private scratchpad.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Architectural registers; `x0` reads as zero.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Scratchpad contents.
    spm: Vec<u8>,
    spm_base: u64,
    /// LR/SC reservation.
    reservation: Option<u64>,
    /// Retired instruction count.
    pub retired: u64,
    halted: bool,
}

impl Cpu {
    /// Create a hart with `spm_bytes` of scratchpad at the default base,
    /// starting at `pc`.
    pub fn new(pc: u64, spm_bytes: usize) -> Self {
        Cpu {
            regs: [0; 32],
            pc,
            spm: vec![0; spm_bytes],
            spm_base: SPM_BASE,
            reservation: None,
            retired: 0,
            halted: false,
        }
    }

    /// Whether the hart has executed `ecall`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Resume after an `ecall` halt: clears the halt latch and advances
    /// the PC past the `ecall`. A guest runtime services the call (the
    /// selector/arguments are in the registers, which `step` left
    /// untouched) and then resumes the hart. No-op when not halted.
    pub fn resume(&mut self) {
        if self.halted {
            self.halted = false;
            self.pc = self.pc.wrapping_add(4);
        }
    }

    /// Read a register (`x0` is always zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// Write a register (writes to `x0` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    fn in_spm(&self, addr: u64, len: u64) -> bool {
        let Some(end) = addr.checked_add(len) else {
            return false;
        };
        addr >= self.spm_base && end <= self.spm_base + self.spm.len() as u64
    }

    /// Misaligned naturally-sized accesses are deterministic guest traps
    /// (the simulated SoC has no hardware misalignment support).
    fn check_aligned(addr: u64, len: u64, pc: u64) -> Result<(), Trap> {
        if len > 1 && !addr.is_multiple_of(len) {
            return Err(Trap {
                kind: TrapKind::MisalignedAccess,
                pc,
                info: addr,
            });
        }
        Ok(())
    }

    fn mem_read(
        &mut self,
        mem: &mut impl Memory,
        addr: u64,
        buf: &mut [u8],
        pc: u64,
    ) -> Result<(), Trap> {
        if self.in_spm(addr, buf.len() as u64) {
            let o = (addr - self.spm_base) as usize;
            buf.copy_from_slice(&self.spm[o..o + buf.len()]);
            Ok(())
        } else {
            let before = mem.fault_count();
            mem.read(addr, buf);
            if mem.fault_count() != before {
                return Err(Trap {
                    kind: TrapKind::OutOfRange,
                    pc,
                    info: addr,
                });
            }
            Ok(())
        }
    }

    fn mem_write(
        &mut self,
        mem: &mut impl Memory,
        addr: u64,
        buf: &[u8],
        pc: u64,
    ) -> Result<(), Trap> {
        if self.in_spm(addr, buf.len() as u64) {
            let o = (addr - self.spm_base) as usize;
            self.spm[o..o + buf.len()].copy_from_slice(buf);
            Ok(())
        } else {
            let before = mem.fault_count();
            mem.write(addr, buf);
            if mem.fault_count() != before {
                return Err(Trap {
                    kind: TrapKind::OutOfRange,
                    pc,
                    info: addr,
                });
            }
            Ok(())
        }
    }

    /// Execute one instruction, appending any main-memory trace events to
    /// `events`.
    pub fn step(&mut self, mem: &mut impl Memory, events: &mut Vec<MemEvent>) -> ExecResult {
        match self.try_step(mem, events) {
            Ok(r) => r,
            Err(t) => ExecResult::Trap(t),
        }
    }

    fn try_step(
        &mut self,
        mem: &mut impl Memory,
        events: &mut Vec<MemEvent>,
    ) -> Result<ExecResult, Trap> {
        if self.halted {
            return Ok(ExecResult::Halted);
        }
        Self::check_aligned(self.pc, 4, self.pc)?;
        let mut word_bytes = [0u8; 4];
        {
            let before = mem.fault_count();
            mem.read(self.pc, &mut word_bytes);
            if mem.fault_count() != before {
                return Err(Trap {
                    kind: TrapKind::OutOfRange,
                    pc: self.pc,
                    info: self.pc,
                });
            }
        }
        let word = u32::from_le_bytes(word_bytes);
        let Some(ins) = decode(word) else {
            return Err(Trap {
                kind: TrapKind::IllegalInstruction,
                pc: self.pc,
                info: word as u64,
            });
        };
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);

        use Instruction as I;
        match ins {
            I::Lui { rd, imm } => self.set_reg(rd, imm as u64),
            I::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u64)),
            I::Jal { rd, offset } => {
                self.set_reg(rd, next_pc);
                next_pc = pc.wrapping_add(offset as u64);
            }
            I::Jalr { rd, rs1, offset } => {
                let t = self.reg(rs1).wrapping_add(offset as u64) & !1;
                self.set_reg(rd, next_pc);
                next_pc = t;
            }
            I::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i64) < (b as i64),
                    BranchOp::Ge => (a as i64) >= (b as i64),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u64);
                }
            }
            I::Load {
                rd,
                rs1,
                offset,
                width,
                signed,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                let n = width as usize;
                Self::check_aligned(addr, n as u64, pc)?;
                let mut buf = [0u8; 8];
                self.mem_read(mem, addr, &mut buf[..n], pc)?;
                let raw = u64::from_le_bytes(buf);
                let val = if signed {
                    match width {
                        Width::B => buf[0] as i8 as i64 as u64,
                        Width::H => i16::from_le_bytes([buf[0], buf[1]]) as i64 as u64,
                        Width::W => i32::from_le_bytes(buf[..4].try_into().unwrap()) as i64 as u64,
                        Width::D => raw,
                    }
                } else {
                    raw
                };
                self.set_reg(rd, val);
                if !self.in_spm(addr, n as u64) {
                    events.push(MemEvent {
                        addr,
                        kind: MemEventKind::Load,
                        bytes: n as u8,
                        pc,
                    });
                }
            }
            I::Store {
                rs1,
                rs2,
                offset,
                width,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                let n = width as usize;
                Self::check_aligned(addr, n as u64, pc)?;
                let bytes = self.reg(rs2).to_le_bytes();
                self.mem_write(mem, addr, &bytes[..n], pc)?;
                if !self.in_spm(addr, n as u64) {
                    events.push(MemEvent {
                        addr,
                        kind: MemEventKind::Store,
                        bytes: n as u8,
                        pc,
                    });
                }
            }
            I::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                use AluImmOp::*;
                let v = match op {
                    Addi => a.wrapping_add(imm as u64),
                    Slti => ((a as i64) < imm) as u64,
                    Sltiu => (a < imm as u64) as u64,
                    Xori => a ^ imm as u64,
                    Ori => a | imm as u64,
                    Andi => a & imm as u64,
                    Slli => a << (imm & 0x3F),
                    Srli => a >> (imm & 0x3F),
                    Srai => ((a as i64) >> (imm & 0x3F)) as u64,
                    Addiw => (a.wrapping_add(imm as u64) as i32) as i64 as u64,
                    Slliw => (((a as u32) << (imm & 0x1F)) as i32) as i64 as u64,
                    Srliw => (((a as u32) >> (imm & 0x1F)) as i32) as i64 as u64,
                    Sraiw => ((a as i32) >> (imm & 0x1F)) as i64 as u64,
                };
                self.set_reg(rd, v);
            }
            I::Alu { op, rd, rs1, rs2 } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                use AluOp::*;
                let v = match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Sll => a << (b & 0x3F),
                    Slt => ((a as i64) < (b as i64)) as u64,
                    Sltu => (a < b) as u64,
                    Xor => a ^ b,
                    Srl => a >> (b & 0x3F),
                    Sra => ((a as i64) >> (b & 0x3F)) as u64,
                    Or => a | b,
                    And => a & b,
                    Mul => a.wrapping_mul(b),
                    Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
                    Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
                    Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
                    Div => {
                        if b == 0 {
                            u64::MAX
                        } else {
                            ((a as i64).wrapping_div(b as i64)) as u64
                        }
                    }
                    Divu => a.checked_div(b).unwrap_or(u64::MAX),
                    Rem => {
                        if b == 0 {
                            a
                        } else {
                            ((a as i64).wrapping_rem(b as i64)) as u64
                        }
                    }
                    Remu => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                    Addw => (a.wrapping_add(b) as i32) as i64 as u64,
                    Subw => (a.wrapping_sub(b) as i32) as i64 as u64,
                    Sllw => (((a as u32) << (b & 0x1F)) as i32) as i64 as u64,
                    Srlw => (((a as u32) >> (b & 0x1F)) as i32) as i64 as u64,
                    Sraw => ((a as i32) >> (b & 0x1F)) as i64 as u64,
                    Mulw => (a.wrapping_mul(b) as i32) as i64 as u64,
                    Divw => {
                        let (a, b) = (a as i32, b as i32);
                        (if b == 0 { -1 } else { a.wrapping_div(b) }) as i64 as u64
                    }
                    Divuw => {
                        let (a, b) = (a as u32, b as u32);
                        (a.checked_div(b).unwrap_or(u32::MAX) as i32) as i64 as u64
                    }
                    Remw => {
                        let (a, b) = (a as i32, b as i32);
                        (if b == 0 { a } else { a.wrapping_rem(b) }) as i64 as u64
                    }
                    Remuw => {
                        let (a, b) = (a as u32, b as u32);
                        (if b == 0 { a as i32 } else { (a % b) as i32 }) as i64 as u64
                    }
                };
                self.set_reg(rd, v);
            }
            I::Fence => {
                events.push(MemEvent {
                    addr: 0,
                    kind: MemEventKind::Fence,
                    bytes: 0,
                    pc,
                });
            }
            I::Ecall => {
                self.halted = true;
                self.retired += 1;
                return Ok(ExecResult::Halted);
            }
            I::LoadReserved { rd, rs1, width } => {
                let addr = self.reg(rs1);
                let n = width as usize;
                Self::check_aligned(addr, n as u64, pc)?;
                let mut buf = [0u8; 8];
                self.mem_read(mem, addr, &mut buf[..n], pc)?;
                let v = if width == Width::W {
                    i32::from_le_bytes(buf[..4].try_into().unwrap()) as i64 as u64
                } else {
                    u64::from_le_bytes(buf)
                };
                self.set_reg(rd, v);
                self.reservation = Some(addr);
                events.push(MemEvent {
                    addr,
                    kind: MemEventKind::Atomic,
                    bytes: n as u8,
                    pc,
                });
            }
            I::StoreConditional {
                rd,
                rs1,
                rs2,
                width,
            } => {
                let addr = self.reg(rs1);
                let n = width as usize;
                Self::check_aligned(addr, n as u64, pc)?;
                if self.reservation == Some(addr) {
                    let bytes = self.reg(rs2).to_le_bytes();
                    self.mem_write(mem, addr, &bytes[..n], pc)?;
                    self.set_reg(rd, 0);
                    events.push(MemEvent {
                        addr,
                        kind: MemEventKind::Atomic,
                        bytes: n as u8,
                        pc,
                    });
                } else {
                    self.set_reg(rd, 1);
                }
                self.reservation = None;
            }
            I::Amo {
                op,
                rd,
                rs1,
                rs2,
                width,
            } => {
                let addr = self.reg(rs1);
                let n = width as usize;
                Self::check_aligned(addr, n as u64, pc)?;
                let mut buf = [0u8; 8];
                self.mem_read(mem, addr, &mut buf[..n], pc)?;
                let old = if width == Width::W {
                    i32::from_le_bytes(buf[..4].try_into().unwrap()) as i64 as u64
                } else {
                    u64::from_le_bytes(buf)
                };
                let b = self.reg(rs2);
                let new = match op {
                    AmoOp::Swap => b,
                    AmoOp::Add => old.wrapping_add(b),
                    AmoOp::Xor => old ^ b,
                    AmoOp::And => old & b,
                    AmoOp::Or => old | b,
                };
                let bytes = new.to_le_bytes();
                self.mem_write(mem, addr, &bytes[..n], pc)?;
                self.set_reg(rd, old);
                events.push(MemEvent {
                    addr,
                    kind: MemEventKind::Atomic,
                    bytes: n as u8,
                    pc,
                });
            }
            I::SpmFetch { rd, rs1, imm } => {
                // Copy `imm` bytes main[rs1] -> spm[rd], tracing one load
                // per 16 B FLIT (the MAC's request granularity).
                let src = self.reg(rs1);
                let dst = self.reg(rd);
                let len = (imm.max(0) as u64).min(4096);
                let mut buf = vec![0u8; len as usize];
                {
                    let before = mem.fault_count();
                    mem.read(src, &mut buf);
                    if mem.fault_count() != before {
                        return Err(Trap {
                            kind: TrapKind::OutOfRange,
                            pc,
                            info: src,
                        });
                    }
                }
                if !self.in_spm(dst, len) {
                    return Err(Trap {
                        kind: TrapKind::SpmRange,
                        pc,
                        info: dst,
                    });
                }
                let o = (dst - self.spm_base) as usize;
                self.spm[o..o + len as usize].copy_from_slice(&buf);
                let mut off = 0;
                while off < len {
                    events.push(MemEvent {
                        addr: src + off,
                        kind: MemEventKind::Load,
                        bytes: (len - off).min(16) as u8,
                        pc,
                    });
                    off += 16;
                }
            }
            I::SpmFlush { rd, rs1, imm } => {
                // Copy `imm` bytes spm[rs1] -> main[rd], one store/FLIT.
                let src = self.reg(rs1);
                let dst = self.reg(rd);
                let len = (imm.max(0) as u64).min(4096);
                if !self.in_spm(src, len) {
                    return Err(Trap {
                        kind: TrapKind::SpmRange,
                        pc,
                        info: src,
                    });
                }
                let o = (src - self.spm_base) as usize;
                let buf = self.spm[o..o + len as usize].to_vec();
                {
                    let before = mem.fault_count();
                    mem.write(dst, &buf);
                    if mem.fault_count() != before {
                        return Err(Trap {
                            kind: TrapKind::OutOfRange,
                            pc,
                            info: dst,
                        });
                    }
                }
                let mut off = 0;
                while off < len {
                    events.push(MemEvent {
                        addr: dst + off,
                        kind: MemEventKind::Store,
                        bytes: (len - off).min(16) as u8,
                        pc,
                    });
                    off += 16;
                }
            }
        }

        self.pc = next_pc;
        self.retired += 1;
        Ok(ExecResult::Continue)
    }

    /// Run until halt, trap, or `max_steps`; returns collected events.
    pub fn run(&mut self, mem: &mut impl Memory, max_steps: u64) -> (Vec<MemEvent>, ExecResult) {
        let mut events = Vec::new();
        for _ in 0..max_steps {
            match self.step(mem, &mut events) {
                ExecResult::Continue => {}
                r => return (events, r),
            }
        }
        (events, ExecResult::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str) -> (Cpu, Vec<MemEvent>) {
        let image = assemble(src).expect("assembles");
        let mut mem = FlatMemory::new(1 << 20);
        mem.load_image(0, &image);
        let mut cpu = Cpu::new(0, 64 << 10);
        let (events, result) = cpu.run(&mut mem, 1_000_000);
        assert_eq!(result, ExecResult::Halted, "program must halt via ecall");
        (cpu, events)
    }

    #[test]
    fn arithmetic_loop_sums_one_to_ten() {
        let (cpu, events) = run_asm(
            r#"
            li a0, 0        # sum
            li a1, 1        # i
            li a2, 11
        loop:
            add a0, a0, a1
            addi a1, a1, 1
            bne a1, a2, loop
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(10)), 55);
        assert!(events.is_empty(), "pure ALU code traces nothing");
    }

    #[test]
    fn loads_and_stores_trace_main_memory() {
        let (cpu, events) = run_asm(
            r#"
            li a0, 0x1000
            li a1, 42
            sd a1, 0(a0)
            ld a2, 0(a0)
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(12)), 42);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, MemEventKind::Store);
        assert_eq!(events[1].kind, MemEventKind::Load);
        assert_eq!(events[0].addr, 0x1000);
        assert_eq!(events[1].bytes, 8);
    }

    #[test]
    fn spm_accesses_do_not_trace() {
        let (cpu, events) = run_asm(&format!(
            r#"
            li a0, {SPM_BASE}
            li a1, 7
            sd a1, 8(a0)
            ld a2, 8(a0)
            ecall
            "#
        ));
        assert_eq!(cpu.reg(Reg(12)), 7);
        assert!(events.is_empty(), "SPM traffic is node-local");
    }

    #[test]
    fn spm_fetch_copies_and_traces_per_flit() {
        let (cpu, events) = run_asm(&format!(
            r#"
            li a0, 0x2000
            li a1, 99
            sd a1, 0(a0)
            sd a1, 56(a0)
            li a2, {SPM_BASE}
            spm.fetch a2, a0, 64
            ld a3, 0(a2)
            ld a4, 56(a2)
            ecall
            "#
        ));
        assert_eq!(cpu.reg(Reg(13)), 99);
        assert_eq!(cpu.reg(Reg(14)), 99);
        // 2 stores + 4 FLIT loads for the 64 B fetch; SPM reads untraced.
        let loads = events
            .iter()
            .filter(|e| e.kind == MemEventKind::Load)
            .count();
        assert_eq!(loads, 4);
    }

    #[test]
    fn spm_flush_writes_back() {
        let (_, events) = run_asm(&format!(
            r#"
            li a0, {SPM_BASE}
            li a1, 5
            sd a1, 0(a0)
            li a2, 0x3000
            spm.flush a2, a0, 32
            ecall
            "#
        ));
        let stores = events
            .iter()
            .filter(|e| e.kind == MemEventKind::Store)
            .count();
        assert_eq!(stores, 2, "32 B = 2 FLIT stores");
        assert_eq!(events[0].addr, 0x3000);
    }

    #[test]
    fn amoadd_is_atomic_rmw() {
        let (cpu, events) = run_asm(
            r#"
            li a0, 0x4000
            li a1, 10
            sd a1, 0(a0)
            li a2, 32
            amoadd.d a3, a2, (a0)
            ld a4, 0(a0)
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(13)), 10, "amo returns old value");
        assert_eq!(cpu.reg(Reg(14)), 42);
        assert!(events.iter().any(|e| e.kind == MemEventKind::Atomic));
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let (cpu, _) = run_asm(
            r#"
            li a0, 0x5000
            li a1, 7
            sd a1, 0(a0)
            lr.d a2, (a0)
            addi a2, a2, 1
            sc.d a3, a2, (a0)     # succeeds: a3 = 0
            sc.d a4, a2, (a0)     # fails (no reservation): a4 = 1
            ld a5, 0(a0)
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(13)), 0);
        assert_eq!(cpu.reg(Reg(14)), 1);
        assert_eq!(cpu.reg(Reg(15)), 8);
    }

    #[test]
    fn fence_traces_a_fence_event() {
        let (_, events) = run_asm("fence\necall\n");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, MemEventKind::Fence);
    }

    #[test]
    fn signed_narrow_loads_sign_extend() {
        let (cpu, _) = run_asm(
            r#"
            li a0, 0x6000
            li a1, -1
            sw a1, 0(a0)
            lw a2, 0(a0)      # sign-extends
            lwu a3, 0(a0)     # zero-extends
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(12)), u64::MAX);
        assert_eq!(cpu.reg(Reg(13)), 0xFFFF_FFFF);
    }

    #[test]
    fn mul_div_semantics() {
        let (cpu, _) = run_asm(
            r#"
            li a0, -6
            li a1, 4
            mul a2, a0, a1
            div a3, a0, a1
            rem a4, a0, a1
            divu a5, a0, a1
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(12)) as i64, -24);
        assert_eq!(cpu.reg(Reg(13)) as i64, -1);
        assert_eq!(cpu.reg(Reg(14)) as i64, -2);
        assert_eq!(cpu.reg(Reg(15)), (-6i64 as u64) / 4);
    }

    #[test]
    fn trap_on_illegal_instruction() {
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &0xFFFF_FFFFu32.to_le_bytes());
        let mut cpu = Cpu::new(0, 1024);
        let mut ev = Vec::new();
        assert!(matches!(cpu.step(&mut mem, &mut ev), ExecResult::Trap(_)));
    }

    #[test]
    fn out_of_range_access_faults_instead_of_panicking() {
        let mut mem = FlatMemory::new(64);
        let mut buf = [0u8; 8];
        mem.read(1_000_000, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        mem.write(1_000_000, &buf);
        assert_eq!(mem.faults, 2);
        // In-range accesses don't fault.
        mem.write(0, &buf);
        assert_eq!(mem.faults, 2);
    }

    #[test]
    fn misaligned_access_traps_with_reason_code() {
        let image = assemble("li a0, 0x1001\nld a1, 0(a0)\necall\n").unwrap();
        let mut mem = FlatMemory::new(1 << 16);
        mem.load_image(0, &image);
        let mut cpu = Cpu::new(0, 64);
        let (_, r) = cpu.run(&mut mem, 100);
        match r {
            ExecResult::Trap(t) => {
                assert_eq!(t.kind, TrapKind::MisalignedAccess);
                assert_eq!(t.info, 0x1001);
                assert_eq!(t.code(), 2);
            }
            other => panic!("expected misaligned trap, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_store_and_amo_trap() {
        for src in [
            "li a0, 0x1002\nsd a1, 0(a0)\necall\n",
            "li a0, 0x1004\namoadd.d a1, a2, (a0)\necall\n",
        ] {
            let image = assemble(src).unwrap();
            let mut mem = FlatMemory::new(1 << 16);
            mem.load_image(0, &image);
            let mut cpu = Cpu::new(0, 64);
            let (_, r) = cpu.run(&mut mem, 100);
            assert!(
                matches!(r, ExecResult::Trap(t) if t.kind == TrapKind::MisalignedAccess),
                "{src}: {r:?}"
            );
        }
    }

    #[test]
    fn out_of_range_guest_access_traps_instead_of_zero_fill() {
        let image = assemble("li a0, 0x100000\nld a1, 0(a0)\necall\n").unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &image);
        let mut cpu = Cpu::new(0, 64);
        let (_, r) = cpu.run(&mut mem, 100);
        match r {
            ExecResult::Trap(t) => {
                assert_eq!(t.kind, TrapKind::OutOfRange);
                assert_eq!(t.info, 0x100000);
                assert_eq!(t.code(), 3);
            }
            other => panic!("expected out-of-range trap, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_fetch_traps() {
        // Jump far past the end of a tiny memory.
        let image = assemble("li a0, 0x10000\njr a0\n").unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &image);
        let mut cpu = Cpu::new(0, 64);
        let (_, r) = cpu.run(&mut mem, 100);
        assert!(matches!(r, ExecResult::Trap(t) if t.kind == TrapKind::OutOfRange));
    }

    #[test]
    fn load_image_out_of_range_faults_instead_of_panicking() {
        let mut mem = FlatMemory::new(8);
        mem.load_image(4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(mem.faults, 1);
        let mut buf = [0u8; 4];
        mem.read(4, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4], "in-range prefix still copied");
        // Entirely out of range: dropped, counted.
        mem.load_image(1 << 40, &[9]);
        assert_eq!(mem.faults, 2);
    }

    #[test]
    fn resume_after_ecall_continues_past_the_call() {
        let image = assemble("li a0, 1\necall\nli a0, 2\necall\n").unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &image);
        let mut cpu = Cpu::new(0, 64);
        let (_, r) = cpu.run(&mut mem, 100);
        assert_eq!(r, ExecResult::Halted);
        assert_eq!(cpu.reg(Reg(10)), 1);
        assert!(cpu.halted());
        cpu.resume();
        assert!(!cpu.halted());
        let (_, r) = cpu.run(&mut mem, 100);
        assert_eq!(r, ExecResult::Halted);
        assert_eq!(cpu.reg(Reg(10)), 2, "execution continued past the ecall");
    }

    #[test]
    fn spm_window_near_address_space_top_does_not_overflow() {
        // `in_spm` with addr + len overflowing u64 must be false, not panic.
        let mut mem = FlatMemory::new(4096);
        let image = assemble("li a0, -8\nld a1, 0(a0)\necall\n").unwrap();
        mem.load_image(0, &image);
        let mut cpu = Cpu::new(0, 64);
        let (_, r) = cpu.run(&mut mem, 100);
        assert!(matches!(r, ExecResult::Trap(t) if t.kind == TrapKind::OutOfRange));
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (cpu, _) = run_asm(
            r#"
            li a0, 5
            add x0, a0, a0
            add a1, x0, x0
            ecall
            "#,
        );
        assert_eq!(cpu.reg(Reg(0)), 0);
        assert_eq!(cpu.reg(Reg(11)), 0);
    }
}
