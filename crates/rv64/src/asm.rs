//! The RV64 assembler: source text to a placed object.
//!
//! One assembler serves the test kernels and the shipped guest binaries.
//! It reads labels, `#` comments, the base/M/A-subset mnemonics, the
//! custom `spm.fetch`/`spm.flush` instructions, the common pseudo-ops
//! (`li` with full 64-bit materialization, `la`, `mv`, `nop`, `j`, `jr`,
//! `ret`, `call`, `beqz`, `bnez`), `.text`/`.data` sections, symbol export
//! (`.globl`), alignment (`.align n` = 2^n bytes) and data directives
//! (`.byte`/`.half`/`.word`/`.dword`/`.quad`/`.zero`/`.asciz`).
//!
//! Label branches are laid out by *convergence-based relaxation*: every
//! variable-length item starts at its shortest form and only ever grows
//! (branch → inverted branch + `jal`, `la` → the full `li`
//! materialization), so iterating layout until no item grows terminates
//! at a fixpoint. Every value is checked against the field that encodes
//! it as it is emitted, never masked, and every error starts `line N: `.

use crate::disasm::disassemble_image;
use crate::encode::encode;
use crate::isa::{AluImmOp, AluOp, AmoOp, BranchOp, Instruction, Reg, Width};
use std::collections::HashMap;

/// Load address of `.text` in an [`assemble_object`] object, and its
/// entry point when no `_start` is defined.
pub const TEXT_BASE: u64 = 0x10000;

/// Page size: `.data` starts on the first page boundary above the text.
pub const PAGE: u64 = 0x1000;

/// A defined symbol (label) in an assembled object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Absolute address.
    pub addr: u64,
    /// Marked `.globl`.
    pub global: bool,
    /// Defined in `.text` (else `.data`).
    pub in_text: bool,
}

/// An assembled program: placed sections, symbols, and the entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Load address of `.text`.
    pub text_base: u64,
    /// Encoded `.text` bytes.
    pub text: Vec<u8>,
    /// Load address of `.data` (page-aligned above the text end).
    pub data_base: u64,
    /// `.data` bytes.
    pub data: Vec<u8>,
    /// Entry point: `_start` when defined, else `text_base`.
    pub entry: u64,
    /// All defined symbols, in definition order.
    pub symbols: Vec<Symbol>,
}

impl Object {
    /// Address of a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.iter().find(|s| s.name == name).map(|s| s.addr)
    }

    /// The non-empty sections as `(load address, bytes)`.
    pub fn sections(&self) -> impl Iterator<Item = (u64, &[u8])> {
        [(self.text_base, &self.text), (self.data_base, &self.data)]
            .into_iter()
            .filter(|(_, bytes)| !bytes.is_empty())
            .map(|(base, bytes)| (base, bytes.as_slice()))
    }

    /// Disassembly of the text, one line per word, each symbol at a
    /// word's address labelling it (`mac-bench guest disasm`).
    pub fn listing(&self) -> Vec<String> {
        let mut by_addr: Vec<(u64, &str)> = self
            .symbols
            .iter()
            .map(|s| (s.addr, s.name.as_str()))
            .collect();
        by_addr.sort();
        let mut out = Vec::new();
        for (i, text) in disassemble_image(&self.text).into_iter().enumerate() {
            let addr = self.text_base + 4 * i as u64;
            for (_, name) in by_addr.iter().filter(|(a, _)| *a == addr) {
                out.push(format!("{addr:016x} <{name}>:"));
            }
            out.push(format!("  {addr:8x}: {text}"));
        }
        out
    }
}

/// Assemble source text into a placed [`Object`]: `.text` at
/// [`TEXT_BASE`], `.data` on the next page above it.
pub fn assemble_object(src: &str) -> Result<Object, String> {
    place(src, TEXT_BASE, true)
}

/// Assemble source text into a flat little-endian image: the text of
/// its object placed at address 0. A `.data` section is an error, since
/// a flat image carries none.
pub fn assemble(src: &str) -> Result<Vec<u8>, String> {
    Ok(place(src, 0, false)?.text)
}

/// One text statement whose encoded size may depend on symbol layout.
#[derive(Debug, Clone)]
enum Entry {
    /// A fixed instruction: always one word.
    Ready(Instruction),
    /// Conditional branch to a label; relaxes to inverted-branch + `jal`.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        target: String,
    },
    /// `jal`/`j`/`call` to a label: always one word.
    Jal { rd: Reg, target: String },
    /// `la rd, symbol`: the `li` materialization of the symbol address.
    La { rd: Reg, sym: String },
    /// `.align` padding; its size is recomputed from its address.
    Align { bytes: u64 },
}

/// A text entry with its reserved size and its source line.
struct Slot<'a> {
    entry: Entry,
    /// Reserved size in words. Only grows across layout iterations
    /// (except `Align`, which is recomputed from its address).
    words: u32,
    /// 1-based line number.
    line: usize,
    /// The statement, comment stripped.
    text: &'a str,
}

impl Slot<'_> {
    /// `m` prefixed with this slot's line, like a parse error.
    fn err(&self, m: String) -> String {
        located(self.line, self.text, m)
    }
}

fn located(line: usize, text: &str, m: String) -> String {
    format!("line {line}: {m}: `{text}`")
}

/// Where a label points.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Before this text slot.
    Text(usize),
    /// At this byte offset into `.data`.
    Data(u64),
}

/// Label addresses under one layout.
struct Layout<'a> {
    labels: &'a HashMap<String, Place>,
    addrs: &'a [u64],
    data_base: u64,
}

impl Layout<'_> {
    fn addr(&self, name: &str) -> Result<u64, String> {
        match self.labels.get(name) {
            Some(&Place::Text(i)) => Ok(self.addrs[i]),
            Some(&Place::Data(off)) => Ok(self.data_base + off),
            None => Err(format!("undefined symbol `{name}`")),
        }
    }
}

const NOP: Instruction = Instruction::AluImm {
    op: AluImmOp::Addi,
    rd: Reg::ZERO,
    rs1: Reg::ZERO,
    imm: 0,
};

fn invert(op: BranchOp) -> BranchOp {
    match op {
        BranchOp::Eq => BranchOp::Ne,
        BranchOp::Ne => BranchOp::Eq,
        BranchOp::Lt => BranchOp::Ge,
        BranchOp::Ge => BranchOp::Lt,
        BranchOp::Ltu => BranchOp::Geu,
        BranchOp::Geu => BranchOp::Ltu,
    }
}

/// Assemble `src` with `.text` at `text_base`; `with_data` allows a
/// `.data` section.
fn place(src: &str, text_base: u64, with_data: bool) -> Result<Object, String> {
    let mut slots: Vec<Slot> = Vec::new();
    let mut labels: HashMap<String, Place> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut globals: Vec<(String, usize, &str)> = Vec::new();
    let mut data: Vec<u8> = Vec::new();
    let mut in_data = false;
    let mut entries = Vec::new();

    for (i, raw) in src.lines().enumerate() {
        let (line, text) = (i + 1, strip_comment(raw).trim());
        if text.is_empty() {
            continue;
        }
        let err = |m: String| located(line, text, m);

        // Leading labels (possibly several).
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) || label.contains('"') {
                break;
            }
            let at = if in_data {
                Place::Data(data.len() as u64)
            } else {
                Place::Text(slots.len())
            };
            if labels.insert(label.to_string(), at).is_some() {
                return Err(err(format!("duplicate label `{label}`")));
            }
            order.push(label.to_string());
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        if let Some(directive) = rest.strip_prefix('.') {
            let (name, args) = match directive.find(char::is_whitespace) {
                Some(i) => (&directive[..i], directive[i..].trim()),
                None => (directive, ""),
            };
            let data_only = |what: &str| match in_data {
                true => Ok(()),
                false => Err(err(format!("`.{what}` only allowed in .data"))),
            };
            match name {
                "text" => in_data = false,
                "data" if !with_data => {
                    return Err(err("a flat image carries no `.data` section".into()))
                }
                "data" => in_data = true,
                "globl" | "global" => {
                    if args.is_empty() {
                        return Err(err("`.globl` needs a symbol".into()));
                    }
                    globals.push((args.to_string(), line, text));
                }
                "align" | "p2align" => {
                    let n = parse_int(args).ok_or_else(|| err("bad alignment".into()))?;
                    if !(0..=12).contains(&n) {
                        return Err(err(format!("alignment 2^{n} out of range")));
                    }
                    let bytes = 1u64 << n;
                    if in_data {
                        data.resize((data.len() as u64).next_multiple_of(bytes) as usize, 0);
                    } else if bytes > 4 {
                        slots.push(Slot {
                            entry: Entry::Align { bytes },
                            words: 0,
                            line,
                            text,
                        });
                    }
                }
                "byte" | "half" | "word" | "dword" | "quad" => {
                    data_only(name)?;
                    let width = match name {
                        "byte" => 1,
                        "half" => 2,
                        "word" => 4,
                        _ => 8,
                    };
                    for piece in args.split(',') {
                        let v = parse_int(piece).ok_or_else(|| err("bad value".into()))?;
                        if width < 8 {
                            let bits = 8 * width as u32;
                            fits(&format!(".{name}"), v, -1 << (bits - 1), (1 << bits) - 1, 1)
                                .map_err(err)?;
                        }
                        data.extend_from_slice(&(v as u64).to_le_bytes()[..width]);
                    }
                }
                "zero" => {
                    data_only(name)?;
                    let n = parse_int(args).ok_or_else(|| err("bad size".into()))?;
                    if !(0..=(64 << 20)).contains(&n) {
                        return Err(err("`.zero` size out of range".into()));
                    }
                    data.resize(data.len() + n as usize, 0);
                }
                "asciz" | "string" => {
                    data_only(name)?;
                    data.extend(parse_string(args).map_err(err)?);
                    data.push(0);
                }
                other => return Err(err(format!("unknown directive `.{other}`"))),
            }
            continue;
        }

        if in_data {
            return Err(err("instructions only allowed in .text".into()));
        }
        parse_instruction(rest, &mut entries).map_err(err)?;
        slots.extend(entries.drain(..).map(|entry| Slot {
            entry,
            words: 1,
            line,
            text,
        }));
    }

    // --- Layout: iterate until no variable-length item grows. Sizes
    // only grow and are bounded, so this terminates. ---
    let mut addrs: Vec<u64> = Vec::with_capacity(slots.len() + 1);
    let data_base = loop {
        addrs.clear();
        let mut addr = text_base;
        for slot in slots.iter_mut() {
            addrs.push(addr);
            if let Entry::Align { bytes } = slot.entry {
                slot.words = ((addr.next_multiple_of(bytes) - addr) / 4) as u32;
            }
            addr += 4 * slot.words as u64;
        }
        addrs.push(addr);
        let data_base = addr.max(text_base + 4).next_multiple_of(PAGE);
        let layout = Layout {
            labels: &labels,
            addrs: &addrs,
            data_base,
        };

        let mut grew = false;
        for (i, slot) in slots.iter_mut().enumerate() {
            let need = match &slot.entry {
                Entry::Branch { target, .. } => {
                    let to = layout.addr(target).map_err(|m| slot.err(m))?;
                    let delta = to.wrapping_sub(addrs[i]) as i64;
                    if (-4096..4096).contains(&delta) {
                        1
                    } else {
                        2
                    }
                }
                Entry::La { rd, sym } => {
                    let to = layout.addr(sym).map_err(|m| slot.err(m))?;
                    li(*rd, to as i64).len() as u32
                }
                _ => continue,
            };
            if need > slot.words {
                slot.words = need;
                grew = true;
            }
        }
        if !grew {
            break data_base;
        }
    };
    let layout = Layout {
        labels: &labels,
        addrs: &addrs,
        data_base,
    };

    // --- Encode, checking every value against its field. ---
    let mut text = Vec::with_capacity(4 * slots.len());
    for (slot, &addr) in slots.iter().zip(&addrs) {
        let mut emit = |ins: Instruction| -> Result<(), String> {
            check(&ins).map_err(|m| slot.err(m))?;
            text.extend_from_slice(&encode(ins).to_le_bytes());
            Ok(())
        };
        let offset_to = |target: &str| -> Result<i64, String> {
            let to = layout.addr(target).map_err(|m| slot.err(m))?;
            Ok(to.wrapping_sub(addr) as i64)
        };
        match &slot.entry {
            Entry::Ready(ins) => emit(*ins)?,
            Entry::Align { .. } => (0..slot.words).try_for_each(|_| emit(NOP))?,
            Entry::Jal { rd, target } => emit(Instruction::Jal {
                rd: *rd,
                offset: offset_to(target)?,
            })?,
            Entry::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                let offset = offset_to(target)?;
                if slot.words == 1 {
                    emit(Instruction::Branch {
                        op: *op,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset,
                    })?;
                } else {
                    // Long form: the inverted branch skips over a jal.
                    emit(Instruction::Branch {
                        op: invert(*op),
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: 8,
                    })?;
                    emit(Instruction::Jal {
                        rd: Reg::ZERO,
                        offset: offset - 4,
                    })?;
                }
            }
            Entry::La { rd, sym } => {
                let to = layout.addr(sym).map_err(|m| slot.err(m))?;
                let seq = li(*rd, to as i64);
                let pad = slot.words as usize - seq.len();
                seq.into_iter().try_for_each(&mut emit)?;
                (0..pad).try_for_each(|_| emit(NOP))?;
            }
        }
    }

    // --- Symbols. ---
    for (g, line, stmt) in &globals {
        if !labels.contains_key(g) {
            let m = format!(".globl names undefined symbol `{g}`");
            return Err(located(*line, stmt, m));
        }
    }
    let mut symbols = Vec::with_capacity(order.len());
    for name in order {
        symbols.push(Symbol {
            addr: layout.addr(&name)?,
            global: globals.iter().any(|(g, ..)| *g == name),
            in_text: matches!(labels[&name], Place::Text(_)),
            name,
        });
    }
    let entry = symbols
        .iter()
        .find(|s| s.name == "_start")
        .map_or(text_base, |s| s.addr);

    Ok(Object {
        text_base,
        text,
        data_base,
        data,
        entry,
        symbols,
    })
}

/// Whether `v` lies in `lo..=hi` and is a multiple of `step` (2 for the
/// even branch and jump offsets); the error names value and range.
fn fits(what: &str, v: i64, lo: i64, hi: i64, step: i64) -> Result<(), String> {
    if (lo..=hi).contains(&v) && v % step == 0 {
        return Ok(());
    }
    let even = if step == 2 { "even " } else { "" };
    Err(format!("{what} {v} outside {even}{lo}..={hi}"))
}

/// Check every value of `ins` against the field that encodes it.
/// (`lui`/`auipc` operands are checked as they are parsed, before the
/// shift that would drop their high bits.)
fn check(ins: &Instruction) -> Result<(), String> {
    use AluImmOp::{Slli, Slliw, Srai, Sraiw, Srli, Srliw};
    use Instruction as I;
    match *ins {
        I::Jal { offset, .. } => fits("jal offset", offset, -1 << 20, (1 << 20) - 2, 2),
        I::Branch { offset, .. } => fits("branch offset", offset, -4096, 4094, 2),
        I::AluImm {
            op: Slli | Srli | Srai,
            imm,
            ..
        } => fits("shift", imm, 0, 63, 1),
        I::AluImm {
            op: Slliw | Srliw | Sraiw,
            imm,
            ..
        } => fits("shift", imm, 0, 31, 1),
        I::AluImm { imm, .. } | I::SpmFetch { imm, .. } | I::SpmFlush { imm, .. } => {
            fits("immediate", imm, -2048, 2047, 1)
        }
        I::Load { offset, .. } | I::Store { offset, .. } | I::Jalr { offset, .. } => {
            fits("offset", offset, -2048, 2047, 1)
        }
        _ => Ok(()),
    }
}

/// Strip a `#` comment, ignoring `#` inside double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a `.asciz`-style string literal with minimal escapes.
fn parse_string(s: &str) -> Result<Vec<u8>, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("bad string literal `{s}`"))?;
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            continue;
        }
        match chars.next() {
            Some('n') => out.push(b'\n'),
            Some('t') => out.push(b'\t'),
            Some('0') => out.push(0),
            Some('\\') => out.push(b'\\'),
            Some('"') => out.push(b'"'),
            other => return Err(format!("bad escape `\\{:?}`", other)),
        }
    }
    Ok(out)
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16)
            .ok()
            .or_else(|| u64::from_str_radix(hex, 16).ok().map(|v| v as i64));
    }
    if let Some(hex) = s.strip_prefix("-0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| -v);
    }
    s.parse::<i64>()
        .ok()
        .or_else(|| s.parse::<u64>().ok().map(|v| v as i64))
}

fn reg(s: &str) -> Result<Reg, String> {
    Reg::parse(s.trim()).ok_or_else(|| format!("bad register `{s}`"))
}

/// Parse `off(rs)` or `(rs)` memory operands.
fn mem_operand(s: &str) -> Result<(i64, Reg), String> {
    let s = s.trim();
    let bad = || format!("bad memory operand `{s}`");
    let (off, rest) = s.split_once('(').ok_or_else(bad)?;
    let base = rest.strip_suffix(')').ok_or_else(bad)?;
    let off = match off.trim() {
        "" => 0,
        off => parse_int(off).ok_or("bad offset")?,
    };
    Ok((off, reg(base)?))
}

/// The address register of an atomic's `(rs)` operand: the encoding has
/// no offset field, so an offset must be 0.
fn amo_base(s: &str) -> Result<Reg, String> {
    let (off, rs1) = mem_operand(s)?;
    fits("offset", off, 0, 0, 1)?;
    Ok(rs1)
}

/// The minimal sequence that materializes `v` in `rd`.
fn li(rd: Reg, v: i64) -> Vec<Instruction> {
    let imm = |op, rs1, imm| Instruction::AluImm { op, rd, rs1, imm };
    if (-2048..2048).contains(&v) {
        return vec![imm(AluImmOp::Addi, Reg::ZERO, v)];
    }
    let low = (v << 52) >> 52; // sign-extended low 12 bits
    if v == (v as i32) as i64 {
        // lui + addiw covers the signed 32-bit range.
        let mut seq = vec![Instruction::Lui { rd, imm: v - low }];
        if low != 0 {
            seq.push(imm(AluImmOp::Addiw, rd, low));
        }
        return seq;
    }
    // General 64-bit: materialize the upper part, shift, add the low 12
    // bits. The subtraction may wrap; the shift left discards what wraps.
    let mut seq = li(rd, v.wrapping_sub(low) >> 12);
    seq.push(imm(AluImmOp::Slli, rd, 12));
    if low != 0 {
        seq.push(imm(AluImmOp::Addi, rd, low));
    }
    seq
}

/// Parse one instruction statement (mnemonic and operands, no label, no
/// comment) into text entries; pseudo-ops may expand to several.
fn parse_instruction(line: &str, out: &mut Vec<Entry>) -> Result<(), String> {
    use Instruction as I;
    let (mnemonic, args) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    let ops: Vec<&str> = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',').map(str::trim).collect()
    };
    let n = ops.len();
    let need = |k: usize| -> Result<(), String> {
        if n == k {
            Ok(())
        } else {
            Err(format!("expected {k} operands, got {n}"))
        }
    };
    let int = |s: &str| parse_int(s).ok_or_else(|| format!("bad immediate `{s}`"));
    let ready = |ins: Instruction| -> Result<Entry, String> { Ok(Entry::Ready(ins)) };

    let alu = |op: AluOp| -> Result<Entry, String> {
        need(3)?;
        let (rd, rs1, rs2) = (reg(ops[0])?, reg(ops[1])?, reg(ops[2])?);
        ready(I::Alu { op, rd, rs1, rs2 })
    };
    let alu_imm = |op: AluImmOp| -> Result<Entry, String> {
        need(3)?;
        let (rd, rs1, imm) = (reg(ops[0])?, reg(ops[1])?, int(ops[2])?);
        ready(I::AluImm { op, rd, rs1, imm })
    };
    let load = |width: Width, signed: bool| -> Result<Entry, String> {
        need(2)?;
        let (offset, rs1) = mem_operand(ops[1])?;
        let rd = reg(ops[0])?;
        ready(I::Load {
            rd,
            rs1,
            offset,
            width,
            signed,
        })
    };
    let store = |width: Width| -> Result<Entry, String> {
        need(2)?;
        let (offset, rs1) = mem_operand(ops[1])?;
        let rs2 = reg(ops[0])?;
        ready(I::Store {
            rs1,
            rs2,
            offset,
            width,
        })
    };
    let branch_to = |op: BranchOp, rs1: &str, rs2: &str, target: &str| {
        let (rs1, rs2) = (reg(rs1)?, reg(rs2)?);
        Ok(match parse_int(target) {
            Some(offset) => Entry::Ready(I::Branch {
                op,
                rs1,
                rs2,
                offset,
            }),
            None => Entry::Branch {
                op,
                rs1,
                rs2,
                target: target.to_string(),
            },
        })
    };
    let branch = |op: BranchOp| -> Result<Entry, String> {
        need(3)?;
        branch_to(op, ops[0], ops[1], ops[2])
    };
    let jal_to = |rd: Reg, target: &str| match parse_int(target) {
        Some(offset) => Entry::Ready(I::Jal { rd, offset }),
        None => Entry::Jal {
            rd,
            target: target.to_string(),
        },
    };
    let jalr = |rd: Reg, rs1: Reg| ready(I::Jalr { rd, rs1, offset: 0 });
    let width = if mnemonic.ends_with('d') {
        Width::D
    } else {
        Width::W
    };
    let amo = |op: AmoOp| -> Result<Entry, String> {
        need(3)?;
        let (rd, rs2, rs1) = (reg(ops[0])?, reg(ops[1])?, amo_base(ops[2])?);
        ready(I::Amo {
            op,
            rd,
            rs1,
            rs2,
            width,
        })
    };
    let spm = |fetch: bool| -> Result<Entry, String> {
        need(3)?;
        let (rd, rs1, imm) = (reg(ops[0])?, reg(ops[1])?, int(ops[2])?);
        ready(match fetch {
            true => I::SpmFetch { rd, rs1, imm },
            false => I::SpmFlush { rd, rs1, imm },
        })
    };

    let entry = match mnemonic {
        // --- pseudo-ops ---
        "nop" => need(0).and(ready(NOP))?,
        "li" | "la" => {
            need(2)?;
            let rd = reg(ops[0])?;
            match parse_int(ops[1]) {
                Some(v) => {
                    out.extend(li(rd, v).into_iter().map(Entry::Ready));
                    return Ok(());
                }
                None if mnemonic == "la" => Entry::La {
                    rd,
                    sym: ops[1].to_string(),
                },
                None => return Err(format!("bad immediate `{}`", ops[1])),
            }
        }
        "mv" => {
            need(2)?;
            let (rd, rs1) = (reg(ops[0])?, reg(ops[1])?);
            Entry::Ready(I::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1,
                imm: 0,
            })
        }
        "j" => need(1).map(|()| jal_to(Reg::ZERO, ops[0]))?,
        "call" => need(1).map(|()| jal_to(Reg::RA, ops[0]))?,
        "jr" => need(1).and_then(|()| jalr(Reg::ZERO, reg(ops[0])?))?,
        "ret" => need(0).and_then(|()| jalr(Reg::ZERO, Reg::RA))?,
        "beqz" => need(2).and_then(|()| branch_to(BranchOp::Eq, ops[0], "x0", ops[1]))?,
        "bnez" => need(2).and_then(|()| branch_to(BranchOp::Ne, ops[0], "x0", ops[1]))?,
        // --- U/J types ---
        "lui" | "auipc" => {
            need(2)?;
            let (rd, v) = (reg(ops[0])?, int(ops[1])?);
            fits("upper immediate", v, -1 << 19, (1 << 20) - 1, 1)?;
            let imm = v << 12;
            Entry::Ready(match mnemonic {
                "lui" => I::Lui { rd, imm },
                _ => I::Auipc { rd, imm },
            })
        }
        "jal" => match n {
            1 => jal_to(Reg::RA, ops[0]),
            2 => jal_to(reg(ops[0])?, ops[1]),
            _ => return Err("jal takes 1 or 2 operands".into()),
        },
        "jalr" => {
            need(2)?;
            let (offset, rs1) = mem_operand(ops[1]).or_else(|_| reg(ops[1]).map(|r| (0, r)))?;
            let rd = reg(ops[0])?;
            Entry::Ready(I::Jalr { rd, rs1, offset })
        }
        // --- branches ---
        "beq" => branch(BranchOp::Eq)?,
        "bne" => branch(BranchOp::Ne)?,
        "blt" => branch(BranchOp::Lt)?,
        "bge" => branch(BranchOp::Ge)?,
        "bltu" => branch(BranchOp::Ltu)?,
        "bgeu" => branch(BranchOp::Geu)?,
        // --- loads/stores ---
        "lb" => load(Width::B, true)?,
        "lh" => load(Width::H, true)?,
        "lw" => load(Width::W, true)?,
        "ld" => load(Width::D, true)?,
        "lbu" => load(Width::B, false)?,
        "lhu" => load(Width::H, false)?,
        "lwu" => load(Width::W, false)?,
        "sb" => store(Width::B)?,
        "sh" => store(Width::H)?,
        "sw" => store(Width::W)?,
        "sd" => store(Width::D)?,
        // --- ALU immediate ---
        "addi" => alu_imm(AluImmOp::Addi)?,
        "slti" => alu_imm(AluImmOp::Slti)?,
        "sltiu" => alu_imm(AluImmOp::Sltiu)?,
        "xori" => alu_imm(AluImmOp::Xori)?,
        "ori" => alu_imm(AluImmOp::Ori)?,
        "andi" => alu_imm(AluImmOp::Andi)?,
        "slli" => alu_imm(AluImmOp::Slli)?,
        "srli" => alu_imm(AluImmOp::Srli)?,
        "srai" => alu_imm(AluImmOp::Srai)?,
        "addiw" => alu_imm(AluImmOp::Addiw)?,
        "slliw" => alu_imm(AluImmOp::Slliw)?,
        "srliw" => alu_imm(AluImmOp::Srliw)?,
        "sraiw" => alu_imm(AluImmOp::Sraiw)?,
        // --- ALU register ---
        "add" => alu(AluOp::Add)?,
        "sub" => alu(AluOp::Sub)?,
        "sll" => alu(AluOp::Sll)?,
        "slt" => alu(AluOp::Slt)?,
        "sltu" => alu(AluOp::Sltu)?,
        "xor" => alu(AluOp::Xor)?,
        "srl" => alu(AluOp::Srl)?,
        "sra" => alu(AluOp::Sra)?,
        "or" => alu(AluOp::Or)?,
        "and" => alu(AluOp::And)?,
        "addw" => alu(AluOp::Addw)?,
        "subw" => alu(AluOp::Subw)?,
        "sllw" => alu(AluOp::Sllw)?,
        "srlw" => alu(AluOp::Srlw)?,
        "sraw" => alu(AluOp::Sraw)?,
        "mul" => alu(AluOp::Mul)?,
        "mulh" => alu(AluOp::Mulh)?,
        "mulhsu" => alu(AluOp::Mulhsu)?,
        "mulhu" => alu(AluOp::Mulhu)?,
        "div" => alu(AluOp::Div)?,
        "divu" => alu(AluOp::Divu)?,
        "rem" => alu(AluOp::Rem)?,
        "remu" => alu(AluOp::Remu)?,
        "mulw" => alu(AluOp::Mulw)?,
        "divw" => alu(AluOp::Divw)?,
        "divuw" => alu(AluOp::Divuw)?,
        "remw" => alu(AluOp::Remw)?,
        "remuw" => alu(AluOp::Remuw)?,
        // --- system / atomics / custom ---
        "fence" => need(0).and(ready(I::Fence))?,
        "ecall" => need(0).and(ready(I::Ecall))?,
        "lr.w" | "lr.d" => {
            need(2)?;
            let (rd, rs1) = (reg(ops[0])?, amo_base(ops[1])?);
            Entry::Ready(I::LoadReserved { rd, rs1, width })
        }
        "sc.w" | "sc.d" => {
            need(3)?;
            let (rd, rs2, rs1) = (reg(ops[0])?, reg(ops[1])?, amo_base(ops[2])?);
            Entry::Ready(I::StoreConditional {
                rd,
                rs1,
                rs2,
                width,
            })
        }
        "amoswap.w" | "amoswap.d" => amo(AmoOp::Swap)?,
        "amoadd.w" | "amoadd.d" => amo(AmoOp::Add)?,
        "amoxor.w" | "amoxor.d" => amo(AmoOp::Xor)?,
        "amoand.w" | "amoand.d" => amo(AmoOp::And)?,
        "amoor.w" | "amoor.d" => amo(AmoOp::Or)?,
        "spm.fetch" => spm(true)?,
        "spm.flush" => spm(false)?,
        other => return Err(format!("unknown mnemonic `{other}`")),
    };
    out.push(entry);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, ExecResult, FlatMemory};
    use crate::decode::decode;

    fn words(image: &[u8]) -> Vec<u32> {
        image
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Run an image loaded at address 0 until it halts or `steps` pass.
    fn run_flat(image: &[u8], steps: u64) -> (Cpu, ExecResult) {
        let mut mem = FlatMemory::new(1 << 20);
        mem.load_image(0, image);
        let mut cpu = Cpu::new(0, 64);
        let (_, r) = cpu.run(&mut mem, steps);
        (cpu, r)
    }

    fn run(obj: &Object, steps: u64) -> (Cpu, ExecResult) {
        let mut mem = FlatMemory::new(1 << 20);
        for (base, bytes) in obj.sections() {
            mem.load_image(base, bytes);
        }
        let mut cpu = Cpu::new(obj.entry, 1024);
        let (_, r) = cpu.run(&mut mem, steps);
        (cpu, r)
    }

    #[test]
    fn assembles_and_decodes_basic_block() {
        let img = assemble("addi a0, x0, 5\nadd a1, a0, a0\necall\n").unwrap();
        let ws = words(&img);
        assert_eq!(ws.len(), 3);
        assert!(decode(ws[0]).is_some());
        assert_eq!(decode(ws[2]), Some(Instruction::Ecall));
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let img = assemble(
            r#"
            li a0, 0
        top:
            addi a0, a0, 1
            beq a0, x0, top     # never taken
            bne a0, x0, done
            j top
        done:
            ecall
            "#,
        )
        .unwrap();
        let ws = words(&img);
        // bne is instruction index 3; done is index 5 -> offset +8.
        assert_eq!(
            decode(ws[3]),
            Some(Instruction::Branch {
                op: BranchOp::Ne,
                rs1: Reg(10),
                rs2: Reg(0),
                offset: 8
            })
        );
        // beq at index 2 targets top (1) -> offset -4.
        assert_eq!(
            decode(ws[2]),
            Some(Instruction::Branch {
                op: BranchOp::Eq,
                rs1: Reg(10),
                rs2: Reg(0),
                offset: -4
            })
        );
    }

    #[test]
    fn li_small_is_one_addi() {
        let img = assemble("li a0, 100\n").unwrap();
        assert_eq!(words(&img).len(), 1);
    }

    #[test]
    fn li_32bit_uses_lui() {
        let img = assemble("li a0, 0x12345678\n").unwrap();
        let ws = words(&img);
        assert_eq!(ws.len(), 2);
        assert!(matches!(decode(ws[0]), Some(Instruction::Lui { .. })));
    }

    #[test]
    fn li_64bit_materializes_correctly() {
        for v in [
            0xFFFF_0000u64,
            0xDEAD_BEEF_CAFE_F00Du64,
            u64::MAX,
            1 << 63,
            0x8000_0000,
            i64::MAX as u64,
        ] {
            let img = assemble(&format!("li a0, {v}\necall\n")).unwrap();
            let (cpu, r) = run_flat(&img, 100);
            assert_eq!(r, ExecResult::Halted);
            assert_eq!(cpu.reg(Reg(10)), v, "li {v:#x}");
        }
    }

    #[test]
    fn memory_operands_parse() {
        let img = assemble("ld a1, 8(a0)\nsd a1, -16(sp)\nlr.d a2, (a0)\n").unwrap();
        let ws = words(&img);
        assert_eq!(
            decode(ws[0]),
            Some(Instruction::Load {
                rd: Reg(11),
                rs1: Reg(10),
                offset: 8,
                width: Width::D,
                signed: true
            })
        );
        assert_eq!(
            decode(ws[1]),
            Some(Instruction::Store {
                rs1: Reg(2),
                rs2: Reg(11),
                offset: -16,
                width: Width::D
            })
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus a0, a1\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        assert!(e.contains("bogus"), "{e}");
        for bad in ["ld a0, 8(a1", "ld a0, 8(a1)x", "sd a0, a1"] {
            let e = assemble(bad).unwrap_err();
            assert!(e.starts_with("line 1: "), "{bad}: {e}");
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let e = assemble("j nowhere\n").unwrap_err();
        assert!(e.starts_with("line 1: undefined symbol `nowhere`"), "{e}");
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("a:\nnop\na:\nnop\n").unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
    }

    #[test]
    fn pseudo_ops_expand() {
        let img = assemble("nop\nmv a0, a1\nret\nbeqz a0, 8\nbnez a0, 8\n").unwrap();
        assert_eq!(words(&img).len(), 5);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let img = assemble("# comment only\n\n   \nnop # trailing\n").unwrap();
        assert_eq!(words(&img).len(), 1);
    }

    #[test]
    fn flat_image_is_the_text_of_its_object_at_zero() {
        let src = "_start:\nli a0, 5\nbeqz a0, out\nla a1, out\nout:\necall\n";
        let obj = place(src, 0, false).unwrap();
        assert_eq!(assemble(src).unwrap(), obj.text);
        assert_eq!(obj.symbol("out"), Some(obj.text.len() as u64 - 4));
        let e = assemble("nop\n.data\nv:\n.dword 1\n").unwrap_err();
        assert!(e.starts_with("line 2: ") && e.contains(".data"), "{e}");
    }

    #[test]
    fn values_the_encoding_cannot_hold_are_rejected() {
        let cases = [
            ("addi a0, a0, 5000", "immediate 5000 outside -2048..=2047"),
            ("sd a0, -3000(a1)", "offset -3000 outside -2048..=2047"),
            ("slli a0, a0, 70", "shift 70 outside 0..=63"),
            ("slliw a0, a0, 32", "shift 32 outside 0..=31"),
            ("beq a0, a1, 7", "branch offset 7 outside even -4096..=4094"),
            ("beq x0, x0, 5000", "branch offset 5000 outside even"),
            (
                "jal x0, 2000000",
                "jal offset 2000000 outside even -1048576..=1048574",
            ),
            ("jalr ra, 2048(a0)", "offset 2048 outside"),
            (
                "lui a0, 0x100000",
                "upper immediate 1048576 outside -524288..=1048575",
            ),
            ("spm.fetch t0, a0, 4096", "immediate 4096 outside"),
            ("amoadd.d a0, a1, 8(a2)", "offset 8 outside 0..=0"),
        ];
        for (src, want) in cases {
            let e = assemble(&format!("nop\n{src}\n")).unwrap_err();
            assert!(e.starts_with("line 2: ") && e.contains(want), "{src}: {e}");
        }
        for (src, want) in [
            (".byte 300", ".byte 300 outside -128..=255"),
            (".half 70000", ".half 70000 outside -32768..=65535"),
            (".word -2147483649", ".word -2147483649 outside"),
        ] {
            let e = assemble_object(&format!(".data\n{src}\n")).unwrap_err();
            assert!(e.starts_with("line 2: ") && e.contains(want), "{src}: {e}");
        }
        // The edges of each range still assemble.
        let edges = "addi a0, a0, -2048\nsd a0, 2047(a1)\nsrai a0, a0, 63\n\
                     beq a0, a1, -4096\nbne a0, a1, 4094\njal x0, 1048574\n\
                     lui a0, -524288\nlui a0, 0xFFFFF\n";
        assert_eq!(words(&assemble(edges).unwrap()).len(), 8);
        let obj = assemble_object(".data\n.byte -128, 255\n.half 0xFFFF\n.word 0xFFFFFFFF\n");
        assert_eq!(
            obj.unwrap().data,
            [0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]
        );
    }

    #[test]
    fn flat_jump_past_1_mib_is_an_error() {
        let mut src = String::from("j far\n");
        src.push_str(&"nop\n".repeat(270_000));
        src.push_str("far:\necall\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.starts_with("line 1: jal offset 1080004 outside"), "{e}");
    }

    #[test]
    fn layout_errors_name_their_line() {
        let e = assemble_object("nop\nnop\n.globl nowhere\nnop\n").unwrap_err();
        assert!(
            e.starts_with("line 3: .globl names undefined symbol `nowhere`"),
            "{e}"
        );
        let e = assemble_object("nop\nbeq a0, a1, gone\n").unwrap_err();
        assert!(e.starts_with("line 2: undefined symbol `gone`"), "{e}");
        let e = assemble_object("la a0, gone\n").unwrap_err();
        assert!(e.starts_with("line 1: undefined symbol `gone`"), "{e}");
    }

    #[test]
    fn sections_symbols_and_entry() {
        let obj = assemble_object(
            r#"
            .text
            .globl _start
        _start:
            la a0, answer
            ld a1, 0(a0)
            ecall
            .data
            .align 3
        answer:
            .dword 42
            "#,
        )
        .unwrap();
        assert_eq!(obj.entry, TEXT_BASE);
        assert_eq!(obj.data_base % PAGE, 0);
        assert!(obj.data_base >= obj.text_base + obj.text.len() as u64);
        let answer = obj.symbol("answer").unwrap();
        assert_eq!(answer, obj.data_base);
        assert!(obj.symbols.iter().any(|s| s.name == "_start" && s.global));
        let (cpu, r) = run(&obj, 100);
        assert_eq!(r, ExecResult::Halted);
        assert_eq!(cpu.reg(Reg(11)), 42);
    }

    #[test]
    fn data_directives_lay_out_bytes() {
        let obj = assemble_object(
            ".data\nv:\n.byte 1, 2\n.half 0x0304\n.word 5\n.zero 3\n.asciz \"hi\"\n",
        )
        .unwrap();
        assert_eq!(
            obj.data,
            vec![1, 2, 4, 3, 5, 0, 0, 0, 0, 0, 0, b'h', b'i', 0]
        );
    }

    #[test]
    fn short_branch_stays_short() {
        let obj = assemble_object("_start:\nbeq a0, a1, out\nnop\nout:\necall\n").unwrap();
        assert_eq!(obj.text.len(), 12, "no relaxation needed");
    }

    #[test]
    fn far_branch_relaxes_and_still_executes() {
        // > 4 KB of padding between the branch and its target forces the
        // inverted-branch + jal long form.
        let mut src = String::from("_start:\nli a0, 7\nli a1, 7\nbeq a0, a1, far\n");
        src.push_str(&"addi a2, a2, 1\n".repeat(1100));
        src.push_str("far:\nli a3, 1\necall\n");
        let obj = assemble_object(&src).unwrap();
        let (cpu, r) = run(&obj, 10_000);
        assert_eq!(r, ExecResult::Halted);
        assert_eq!(cpu.reg(Reg(13)), 1, "took the far branch");
        assert_eq!(cpu.reg(Reg(12)), 0, "skipped the padding");

        // The not-taken direction must fall through into the padding.
        let src_ne = src.replacen("li a1, 7", "li a1, 8", 1);
        let obj = assemble_object(&src_ne).unwrap();
        let (cpu, r) = run(&obj, 10_000);
        assert_eq!(r, ExecResult::Halted);
        assert_eq!(cpu.reg(Reg(12)), 1100, "fell through the padding");

        // The flat image relaxes the same way.
        let (cpu, r) = run_flat(&assemble(&src).unwrap(), 10_000);
        assert_eq!(r, ExecResult::Halted);
        assert_eq!(cpu.reg(Reg(13)), 1, "took the far branch");
    }

    #[test]
    fn la_of_label_matches_symbol_address() {
        let obj = assemble_object(
            ".text\n_start:\nla a0, here\necall\nhere:\nnop\n.data\nd:\n.dword 1\n",
        )
        .unwrap();
        let here = obj.symbol("here").unwrap();
        let (cpu, _) = run(&obj, 100);
        assert_eq!(cpu.reg(Reg(10)), here);
    }

    #[test]
    fn align_pads_text_with_nops() {
        let obj = assemble_object("_start:\nnop\n.align 4\ntgt:\necall\n").unwrap();
        assert_eq!(obj.symbol("tgt").unwrap() % 16, 0);
    }

    #[test]
    fn errors_name_the_line_and_symbol() {
        let e = assemble_object("nop\nj nowhere\n").unwrap_err();
        assert!(e.starts_with("line 2: undefined symbol `nowhere`"), "{e}");
        let e = assemble_object(".data\nnop\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = assemble_object(".text\n.dword 3\n").unwrap_err();
        assert!(e.contains(".data"), "{e}");
        let e = assemble_object("a:\nnop\n.data\na:\n").unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
        let e = assemble_object(".globl missing\nnop\n").unwrap_err();
        assert!(
            e.starts_with("line 1: .globl names undefined symbol `missing`"),
            "{e}"
        );
    }

    #[test]
    fn comment_hash_inside_string_is_kept() {
        let obj = assemble_object(".data\ns:\n.asciz \"#1\" # real comment\n").unwrap();
        assert_eq!(obj.data, vec![b'#', b'1', 0]);
    }

    #[test]
    fn listing_shows_labels_and_instructions() {
        let obj = assemble_object(
            ".globl _start\n_start:\nla a0, v\necall\nlocal:\nnop\n.data\nv:\n.dword 9\n",
        )
        .unwrap();
        let listing = obj.listing();
        assert_eq!(listing[0], "0000000000010000 <_start>:");
        assert_eq!(listing.len(), 2 + obj.text.len() / 4, "{listing:?}");
        let listing = listing.join("\n");
        assert!(listing.contains("<local>:"), "{listing}");
        assert!(listing.contains("   10004: ecall"), "{listing}");
        assert!(!listing.contains("<v>"), "data symbols label no text word");
    }
}
