//! ELF64 writer and loader for assembled guest objects.
//!
//! The writer emits a minimal but valid static RISC-V executable
//! (`ET_EXEC`, `EM_RISCV`): one `PT_LOAD` segment per non-empty section
//! with file offsets congruent to virtual addresses modulo the page
//! size, plus `.symtab`/`.strtab` so symbol names survive the trip. The
//! loader is deliberately strict about the few fields the guest runtime
//! depends on and maps `PT_LOAD` segments into a
//! [`rv64_sim::FlatMemory`].

use crate::gasm::{align_up, Object, PAGE};
use rv64_sim::{decode, disassemble, FlatMemory};

const EI_NIDENT: usize = 16;
const EHSIZE: u64 = 64;
const PHENTSIZE: u64 = 56;
const SHENTSIZE: u64 = 64;
const SYMENTSIZE: u64 = 24;
const EM_RISCV: u16 = 243;
const ET_EXEC: u16 = 2;
const PT_LOAD: u32 = 1;
const SHT_PROGBITS: u32 = 1;
const SHT_SYMTAB: u32 = 2;
const SHT_STRTAB: u32 = 3;
const PF_X: u32 = 1;
const PF_W: u32 = 2;
const PF_R: u32 = 4;

struct Out(Vec<u8>);

impl Out {
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn pad_to(&mut self, off: u64) {
        assert!(self.0.len() as u64 <= off, "layout overlap");
        self.0.resize(off as usize, 0);
    }
}

/// Serialize an assembled [`Object`] as a static ELF64 executable.
pub fn write_elf(obj: &Object) -> Vec<u8> {
    let text_off = PAGE;
    let has_data = !obj.data.is_empty();
    let data_off = align_up(text_off + obj.text.len() as u64, PAGE);
    let phnum: u16 = 1 + has_data as u16;

    // String tables.
    let mut strtab = vec![0u8];
    let mut sym_names = Vec::with_capacity(obj.symbols.len());
    for s in &obj.symbols {
        sym_names.push(strtab.len() as u32);
        strtab.extend_from_slice(s.name.as_bytes());
        strtab.push(0);
    }
    let shstrtab: &[u8] = b"\0.text\0.data\0.symtab\0.strtab\0.shstrtab\0";
    let (n_text, n_data, n_symtab, n_strtab, n_shstrtab) = (1u32, 7, 13, 21, 29);

    // Symbol table: null entry, then locals, then globals (ELF ordering
    // requirement; sh_info = index of the first global).
    let mut order: Vec<usize> = (0..obj.symbols.len()).collect();
    order.sort_by_key(|&i| obj.symbols[i].global);
    let first_global = 1 + order.iter().filter(|&&i| !obj.symbols[i].global).count() as u32;
    let mut symtab = Out(Vec::new());
    symtab.u32(0);
    symtab.u32(0);
    symtab.u64(0);
    symtab.u64(0);
    for &i in &order {
        let s = &obj.symbols[i];
        symtab.u32(sym_names[i]);
        let bind = if s.global { 1u8 } else { 0 };
        let typ = if s.in_text { 2u8 } else { 1 }; // FUNC / OBJECT
        symtab.0.push((bind << 4) | typ);
        symtab.0.push(0); // st_other
        symtab.u16(if s.in_text { 1 } else { 2 }); // section index
        symtab.u64(s.addr);
        symtab.u64(0);
    }

    let symtab_off = align_up(data_off + obj.data.len() as u64, 8);
    let strtab_off = symtab_off + symtab.0.len() as u64;
    let shstrtab_off = strtab_off + strtab.len() as u64;
    let shoff = align_up(shstrtab_off + shstrtab.len() as u64, 8);

    let mut out = Out(Vec::with_capacity(shoff as usize + 6 * SHENTSIZE as usize));
    // --- ELF header ---
    out.0
        .extend_from_slice(&[0x7F, b'E', b'L', b'F', 2, 1, 1, 0]);
    out.0.resize(EI_NIDENT, 0);
    out.u16(ET_EXEC);
    out.u16(EM_RISCV);
    out.u32(1); // e_version
    out.u64(obj.entry);
    out.u64(EHSIZE); // e_phoff
    out.u64(shoff);
    out.u32(0); // e_flags
    out.u16(EHSIZE as u16);
    out.u16(PHENTSIZE as u16);
    out.u16(phnum);
    out.u16(SHENTSIZE as u16);
    out.u16(6); // e_shnum
    out.u16(5); // e_shstrndx

    // --- Program headers ---
    let mut phdr = |off: u64, vaddr: u64, size: u64, flags: u32| {
        out.u32(PT_LOAD);
        out.u32(flags);
        out.u64(off);
        out.u64(vaddr);
        out.u64(vaddr); // p_paddr
        out.u64(size);
        out.u64(size); // p_memsz
        out.u64(PAGE);
    };
    phdr(text_off, obj.text_base, obj.text.len() as u64, PF_R | PF_X);
    if has_data {
        phdr(data_off, obj.data_base, obj.data.len() as u64, PF_R | PF_W);
    }

    // --- Section bodies ---
    out.pad_to(text_off);
    out.0.extend_from_slice(&obj.text);
    if has_data {
        out.pad_to(data_off);
        out.0.extend_from_slice(&obj.data);
    }
    out.pad_to(symtab_off);
    out.0.extend_from_slice(&symtab.0);
    out.0.extend_from_slice(&strtab);
    out.0.extend_from_slice(shstrtab);

    // --- Section headers ---
    out.pad_to(shoff);
    let shdr = |out: &mut Out,
                name: u32,
                typ: u32,
                flags: u64,
                addr: u64,
                off: u64,
                size: u64,
                link: u32,
                info: u32,
                align: u64,
                entsize: u64| {
        out.u32(name);
        out.u32(typ);
        out.u64(flags);
        out.u64(addr);
        out.u64(off);
        out.u64(size);
        out.u32(link);
        out.u32(info);
        out.u64(align);
        out.u64(entsize);
    };
    shdr(&mut out, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
    shdr(
        &mut out,
        n_text,
        SHT_PROGBITS,
        0x6, // ALLOC | EXECINSTR
        obj.text_base,
        text_off,
        obj.text.len() as u64,
        0,
        0,
        4,
        0,
    );
    shdr(
        &mut out,
        n_data,
        SHT_PROGBITS,
        0x3, // WRITE | ALLOC
        obj.data_base,
        data_off,
        obj.data.len() as u64,
        0,
        0,
        8,
        0,
    );
    shdr(
        &mut out,
        n_symtab,
        SHT_SYMTAB,
        0,
        0,
        symtab_off,
        symtab.0.len() as u64,
        4, // link: .strtab
        first_global,
        8,
        SYMENTSIZE,
    );
    shdr(
        &mut out,
        n_strtab,
        SHT_STRTAB,
        0,
        0,
        strtab_off,
        strtab.len() as u64,
        0,
        0,
        1,
        0,
    );
    shdr(
        &mut out,
        n_shstrtab,
        SHT_STRTAB,
        0,
        0,
        shstrtab_off,
        shstrtab.len() as u64,
        0,
        0,
        1,
        0,
    );
    out.0
}

/// One loadable segment extracted from an ELF image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Virtual load address.
    pub vaddr: u64,
    /// File-backed bytes (`p_filesz`).
    pub data: Vec<u8>,
    /// Total in-memory size (`p_memsz`; tail beyond `data` is zeroed).
    pub memsz: u64,
    /// Segment is executable.
    pub execute: bool,
    /// Segment is writable.
    pub write: bool,
}

/// A parsed ELF executable ready to map into guest memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedElf {
    /// Entry point.
    pub entry: u64,
    /// `PT_LOAD` segments in file order.
    pub segments: Vec<Segment>,
    /// `(name, address)` pairs from `.symtab` (empty when stripped).
    pub symbols: Vec<(String, u64)>,
}

fn field(bytes: &[u8], off: usize, len: usize) -> Result<&[u8], String> {
    off.checked_add(len)
        .and_then(|end| bytes.get(off..end))
        .ok_or_else(|| format!("truncated ELF: need {len} bytes at offset {off:#x}"))
}

/// Check that a table of `count` `stride`-byte entries at offset `base`
/// (the header field `what`) ends inside the address space, so every
/// `base + i * stride + k` with `i < count`, `k < stride` can be formed
/// without overflow.
fn check_table(base: usize, count: usize, stride: usize, what: &str) -> Result<(), String> {
    match count.checked_mul(stride).and_then(|n| base.checked_add(n)) {
        Some(_) => Ok(()),
        None => Err(format!(
            "{what} {base:#x}: a table of {count} x {stride} B there overflows"
        )),
    }
}

fn u16_at(b: &[u8], off: usize) -> Result<u16, String> {
    Ok(u16::from_le_bytes(field(b, off, 2)?.try_into().unwrap()))
}

fn u32_at(b: &[u8], off: usize) -> Result<u32, String> {
    Ok(u32::from_le_bytes(field(b, off, 4)?.try_into().unwrap()))
}

fn u64_at(b: &[u8], off: usize) -> Result<u64, String> {
    Ok(u64::from_le_bytes(field(b, off, 8)?.try_into().unwrap()))
}

/// Parse and validate an ELF64 executable image.
///
/// Accepts exactly what the guest runtime can run: little-endian 64-bit
/// `ET_EXEC` for `EM_RISCV`. Symbols are read from `.symtab` when
/// present; everything else is ignored.
pub fn load_elf(bytes: &[u8]) -> Result<LoadedElf, String> {
    let ident = field(bytes, 0, EI_NIDENT)?;
    if &ident[..4] != b"\x7FELF" {
        return Err("not an ELF file (bad magic)".into());
    }
    if ident[4] != 2 {
        return Err("not a 64-bit ELF (EI_CLASS)".into());
    }
    if ident[5] != 1 {
        return Err("not little-endian (EI_DATA)".into());
    }
    let e_type = u16_at(bytes, 16)?;
    if e_type != ET_EXEC {
        return Err(format!(
            "not an executable (e_type {e_type}, want {ET_EXEC})"
        ));
    }
    let machine = u16_at(bytes, 18)?;
    if machine != EM_RISCV {
        return Err(format!("not RISC-V (e_machine {machine}, want {EM_RISCV})"));
    }
    let entry = u64_at(bytes, 24)?;
    let phoff = u64_at(bytes, 32)? as usize;
    let shoff = u64_at(bytes, 40)? as usize;
    let phentsize = u16_at(bytes, 54)? as usize;
    let phnum = u16_at(bytes, 56)? as usize;
    let shentsize = u16_at(bytes, 58)? as usize;
    let shnum = u16_at(bytes, 60)? as usize;
    if phentsize < PHENTSIZE as usize {
        return Err(format!("bad e_phentsize {phentsize}"));
    }
    if phnum > 64 || shnum > 256 {
        return Err("unreasonable header counts".into());
    }

    check_table(phoff, phnum, phentsize, "e_phoff")?;
    let mut segments = Vec::new();
    for i in 0..phnum {
        let p = phoff + i * phentsize;
        if u32_at(bytes, p)? != PT_LOAD {
            continue;
        }
        let flags = u32_at(bytes, p + 4)?;
        let offset = u64_at(bytes, p + 8)? as usize;
        let vaddr = u64_at(bytes, p + 16)?;
        let filesz = u64_at(bytes, p + 32)? as usize;
        let memsz = u64_at(bytes, p + 40)?;
        if (memsz as usize) < filesz {
            return Err(format!("segment {i}: p_memsz < p_filesz"));
        }
        if vaddr.checked_add(memsz).is_none() {
            return Err(format!(
                "segment {i}: p_vaddr {vaddr:#x} + p_memsz {memsz:#x} overflows"
            ));
        }
        let data = field(bytes, offset, filesz)?.to_vec();
        segments.push(Segment {
            vaddr,
            data,
            memsz,
            execute: flags & PF_X != 0,
            write: flags & PF_W != 0,
        });
    }
    if segments.is_empty() {
        return Err("no PT_LOAD segments".into());
    }

    // Optional symbols.
    let mut symbols = Vec::new();
    if shoff != 0 && shentsize >= SHENTSIZE as usize {
        check_table(shoff, shnum, shentsize, "e_shoff")?;
        for i in 0..shnum {
            let s = shoff + i * shentsize;
            if u32_at(bytes, s + 4)? != SHT_SYMTAB {
                continue;
            }
            let off = u64_at(bytes, s + 24)? as usize;
            let size = u64_at(bytes, s + 32)? as usize;
            let link = u32_at(bytes, s + 40)? as usize;
            check_table(shoff, link + 1, shentsize, "sh_link")?;
            let ssec = shoff + link * shentsize;
            let stroff = u64_at(bytes, ssec + 24)? as usize;
            let strsize = u64_at(bytes, ssec + 32)? as usize;
            let strtab = field(bytes, stroff, strsize)?;
            let n = size / SYMENTSIZE as usize;
            check_table(off, n, SYMENTSIZE as usize, "sh_offset")?;
            for j in 1..n {
                let e = off + j * SYMENTSIZE as usize;
                let name_off = u32_at(bytes, e)? as usize;
                let value = u64_at(bytes, e + 8)?;
                let name: String = strtab
                    .get(name_off..)
                    .unwrap_or(&[])
                    .iter()
                    .take_while(|&&c| c != 0)
                    .map(|&c| c as char)
                    .collect();
                if !name.is_empty() {
                    symbols.push((name, value));
                }
            }
        }
    }

    Ok(LoadedElf {
        entry,
        segments,
        symbols,
    })
}

impl LoadedElf {
    /// Smallest memory size (in bytes) that contains every segment.
    pub fn mem_floor(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.vaddr + s.memsz)
            .max()
            .unwrap_or(0)
    }

    /// Map every segment into `mem`. Fails (instead of silently
    /// truncating) when the memory is too small.
    pub fn load_into(&self, mem: &mut FlatMemory) -> Result<(), String> {
        if (mem.len() as u64) < self.mem_floor() {
            return Err(format!(
                "memory too small: {} bytes < segment end {:#x}",
                mem.len(),
                self.mem_floor()
            ));
        }
        for s in &self.segments {
            mem.load_image(s.vaddr, &s.data);
        }
        Ok(())
    }

    /// Address of a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, a)| a)
    }

    /// Human-readable disassembly of the executable segments, with
    /// symbol labels interleaved (`mac-bench guest disasm`).
    pub fn listing(&self) -> Vec<String> {
        let mut by_addr: Vec<(u64, &str)> =
            self.symbols.iter().map(|(n, a)| (*a, n.as_str())).collect();
        by_addr.sort();
        let mut out = Vec::new();
        for seg in self.segments.iter().filter(|s| s.execute) {
            for (i, chunk) in seg.data.chunks(4).enumerate() {
                let addr = seg.vaddr + 4 * i as u64;
                for (a, name) in &by_addr {
                    if *a == addr {
                        out.push(format!("{addr:016x} <{name}>:"));
                    }
                }
                let text = match chunk.try_into().map(u32::from_le_bytes) {
                    Ok(word) => match decode(word) {
                        Some(ins) => disassemble(ins),
                        None => format!(".word {word:#010x}"),
                    },
                    Err(_) => ".byte ...".to_string(),
                };
                out.push(format!("  {addr:8x}: {text}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gasm::assemble_object;

    fn sample() -> crate::gasm::Object {
        assemble_object(
            r#"
            .text
            .globl _start
        _start:
            la a0, v
            ld a1, 0(a0)
            ecall
        local:
            nop
            .data
        v:
            .dword 99
            "#,
        )
        .unwrap()
    }

    #[test]
    fn write_then_load_round_trips() {
        let obj = sample();
        let elf = write_elf(&obj);
        let loaded = load_elf(&elf).unwrap();
        assert_eq!(loaded.entry, obj.entry);
        assert_eq!(loaded.segments.len(), 2);
        let text = &loaded.segments[0];
        assert!(text.execute && !text.write);
        assert_eq!(text.vaddr, obj.text_base);
        assert_eq!(text.data, obj.text);
        let data = &loaded.segments[1];
        assert!(data.write && !data.execute);
        assert_eq!(data.vaddr, obj.data_base);
        assert_eq!(data.data, obj.data);
        assert_eq!(loaded.symbol("_start"), Some(obj.entry));
        assert_eq!(loaded.symbol("v"), obj.symbol("v"));
    }

    #[test]
    fn offsets_are_page_congruent_with_vaddrs() {
        let elf = write_elf(&sample());
        let phoff = u64_at(&elf, 32).unwrap() as usize;
        let phnum = u16_at(&elf, 56).unwrap() as usize;
        for i in 0..phnum {
            let p = phoff + i * 56;
            let off = u64_at(&elf, p + 8).unwrap();
            let vaddr = u64_at(&elf, p + 16).unwrap();
            assert_eq!(off % PAGE, vaddr % PAGE, "segment {i}");
        }
    }

    #[test]
    fn loader_rejects_bad_images() {
        let elf = write_elf(&sample());
        assert!(load_elf(&[]).is_err());
        assert!(load_elf(b"\x7FELFxxxx").is_err());
        let mut wrong_class = elf.clone();
        wrong_class[4] = 1;
        assert!(load_elf(&wrong_class).unwrap_err().contains("64-bit"));
        let mut wrong_machine = elf.clone();
        wrong_machine[18] = 0x3E; // x86-64
        assert!(load_elf(&wrong_machine).unwrap_err().contains("RISC-V"));
        let truncated = &elf[..elf.len() / 2];
        assert!(load_elf(truncated).is_err());
    }

    #[test]
    fn program_header_offset_overflow_is_an_error() {
        let mut elf = write_elf(&sample());
        elf[32..40].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        let err = load_elf(&elf).unwrap_err();
        assert!(err.contains("e_phoff"), "{err}");
    }

    #[test]
    fn segment_end_overflow_is_an_error() {
        let mut elf = write_elf(&sample());
        let phoff = u64_at(&elf, 32).unwrap() as usize;
        elf[phoff + 16..phoff + 24].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
        let err = load_elf(&elf).unwrap_err();
        assert!(err.contains("p_vaddr") && err.contains("p_memsz"), "{err}");
    }

    #[test]
    fn load_into_checks_memory_size() {
        let loaded = load_elf(&write_elf(&sample())).unwrap();
        let mut small = FlatMemory::new(64);
        assert!(loaded.load_into(&mut small).is_err());
        let mut big = FlatMemory::new(loaded.mem_floor() as usize);
        loaded.load_into(&mut big).unwrap();
        assert_eq!(big.faults, 0);
    }

    #[test]
    fn listing_shows_labels_and_instructions() {
        let loaded = load_elf(&write_elf(&sample())).unwrap();
        let listing = loaded.listing().join("\n");
        assert!(listing.contains("<_start>:"), "{listing}");
        assert!(listing.contains("<local>:"), "{listing}");
        assert!(listing.contains("ecall"), "{listing}");
    }
}
