//! ELF64 writer for assembled guest objects.
//!
//! The writer emits a minimal but valid static RISC-V executable
//! (`ET_EXEC`, `EM_RISCV`): a `PT_LOAD` segment for the text and one for
//! the data when there is any, with file offsets congruent to virtual
//! addresses modulo the page size, plus `.symtab`/`.strtab` so symbol
//! names survive the trip. Guests run from the [`Object`] itself; these
//! bytes are what `mac-bench guest assemble` writes, pinned by
//! `tests/elf_pins.rs` and read back by GNU `readelf` in CI.

use rv64_sim::asm::{Object, PAGE};

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
    let data_off = (text_off + obj.text.len() as u64).next_multiple_of(PAGE);
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

    let symtab_off = (data_off + obj.data.len() as u64).next_multiple_of(8);
    let strtab_off = symtab_off + symtab.0.len() as u64;
    let shstrtab_off = strtab_off + strtab.len() as u64;
    let shoff = (shstrtab_off + shstrtab.len() as u64).next_multiple_of(8);

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

#[cfg(test)]
mod tests {
    use super::*;
    use rv64_sim::assemble_object;

    fn sample() -> Object {
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

    fn u16_at(b: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(b[off..off + 2].try_into().unwrap())
    }

    fn u32_at(b: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
    }

    fn u64_at(b: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
    }

    /// `(p_type, p_flags, p_offset, p_vaddr, p_filesz)` of every program
    /// header.
    fn segments(elf: &[u8]) -> Vec<(u32, u32, usize, u64, usize)> {
        let phoff = u64_at(elf, 32) as usize;
        (0..u16_at(elf, 56) as usize)
            .map(|i| phoff + i * PHENTSIZE as usize)
            .map(|p| {
                let off = u64_at(elf, p + 8) as usize;
                let size = u64_at(elf, p + 32) as usize;
                (
                    u32_at(elf, p),
                    u32_at(elf, p + 4),
                    off,
                    u64_at(elf, p + 16),
                    size,
                )
            })
            .collect()
    }

    #[test]
    fn header_segments_and_symbols_describe_the_object() {
        let obj = sample();
        let elf = write_elf(&obj);
        assert_eq!(&elf[..4], b"\x7FELF");
        assert_eq!((u16_at(&elf, 16), u16_at(&elf, 18)), (ET_EXEC, EM_RISCV));
        assert_eq!(u64_at(&elf, 24), obj.entry);
        let segs = segments(&elf);
        assert_eq!(segs.len(), 2);
        for ((typ, flags, off, vaddr, size), (flags_want, base, bytes)) in segs.into_iter().zip([
            (PF_R | PF_X, obj.text_base, &obj.text),
            (PF_R | PF_W, obj.data_base, &obj.data),
        ]) {
            assert_eq!((typ, flags, vaddr), (PT_LOAD, flags_want, base));
            assert_eq!(&elf[off..off + size], &bytes[..]);
        }

        // `.symtab` names `_start` at the entry point, and the data label.
        let shoff = u64_at(&elf, 40) as usize;
        let sh = |i: usize| shoff + i * SHENTSIZE as usize;
        let symtab = (0..u16_at(&elf, 60) as usize)
            .map(sh)
            .find(|&s| u32_at(&elf, s + 4) == SHT_SYMTAB)
            .unwrap();
        let strtab = sh(u32_at(&elf, symtab + 40) as usize);
        let (syms, strs) = (u64_at(&elf, symtab + 24), u64_at(&elf, strtab + 24));
        let n = u64_at(&elf, symtab + 32) / SYMENTSIZE;
        let symbol = |want: &str| {
            (1..n)
                .map(|j| (syms + j * SYMENTSIZE) as usize)
                .find(|&e| {
                    let name = &elf[strs as usize + u32_at(&elf, e) as usize..];
                    name.starts_with(want.as_bytes()) && name[want.len()] == 0
                })
                .map(|e| u64_at(&elf, e + 8))
        };
        assert_eq!(symbol("_start"), Some(obj.entry));
        assert_eq!(symbol("v"), Some(obj.data_base));
    }

    #[test]
    fn offsets_are_page_congruent_with_vaddrs() {
        for (i, (_, _, off, vaddr, _)) in segments(&write_elf(&sample())).into_iter().enumerate() {
            assert_eq!(off as u64 % PAGE, vaddr % PAGE, "segment {i}");
        }
    }
}
