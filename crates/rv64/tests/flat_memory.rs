//! Differential test of the paged `FlatMemory` against a plain
//! `Vec<u8>` of the same size.
//!
//! `FlatMemory` allocates 4 KiB pages on first write and reads untouched
//! pages as zeros. Whatever the paging, it must behave exactly like one
//! zeroed byte vector: same bytes after every step, the same bytes read
//! back, and the same fault count for out-of-range ends, zero-length
//! accesses past the end and `addr + len` overflow. A span inside one
//! page takes a page-direct path and any other span the general one, so
//! the edges of pages and of memory are checked one by one as well.

use proptest::prelude::*;

use rv64_sim::{FlatMemory, Memory};

/// The contiguous memory `FlatMemory` must be indistinguishable from.
struct Reference {
    bytes: Vec<u8>,
    faults: u64,
}

impl Reference {
    fn new(size: usize) -> Self {
        Reference {
            bytes: vec![0; size],
            faults: 0,
        }
    }

    fn span(&self, addr: u64, len: usize) -> Option<std::ops::Range<usize>> {
        let a = addr as usize;
        let end = a.checked_add(len)?;
        (end <= self.bytes.len()).then_some(a..end)
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        match self.span(addr, buf.len()) {
            Some(r) => buf.copy_from_slice(&self.bytes[r]),
            None => {
                buf.fill(0);
                self.faults += 1;
            }
        }
    }

    fn write(&mut self, addr: u64, buf: &[u8]) {
        match self.span(addr, buf.len()) {
            Some(r) => self.bytes[r].copy_from_slice(buf),
            None => self.faults += 1,
        }
    }

    /// Copy what fits; anything cut off counts as one fault.
    fn load_image(&mut self, addr: u64, image: &[u8]) {
        let a = addr as usize;
        let fit = self.bytes.len().saturating_sub(a).min(image.len());
        if fit > 0 {
            self.bytes[a..a + fit].copy_from_slice(&image[..fit]);
        }
        if self.span(addr, image.len()).is_none() {
            self.faults += 1;
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read(u64, usize),
    Write(u64, Vec<u8>),
    LoadImage(u64, Vec<u8>),
}

const PAGE: u64 = 4096;

/// Addresses inside and past the end of a memory of up to ~3 pages,
/// close to page edges, and close enough to `u64::MAX` for `addr + len`
/// to overflow.
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..4 * PAGE,
        3 => (1u64..4, 0u64..48).prop_map(|(p, d)| p * PAGE - 24 + d),
        1 => (u64::MAX - 40)..=u64::MAX,
    ]
}

/// Access lengths: zero, short, and longer than a page.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => Just(0usize),
        4 => 1usize..40,
        1 => 4000usize..9000,
    ]
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    arb_len().prop_map(|n| (0..n).map(|i| (i * 7 + n) as u8 | 1).collect())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (arb_addr(), arb_len()).prop_map(|(a, n)| Op::Read(a, n)),
        2 => (arb_addr(), arb_bytes()).prop_map(|(a, b)| Op::Write(a, b)),
        1 => (arb_addr(), arb_bytes()).prop_map(|(a, b)| Op::LoadImage(a, b)),
    ]
}

/// Memory sizes: empty, sub-page, exactly paged and ragged.
fn arb_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..PAGE as usize,
        (1usize..4).prop_map(|p| p * PAGE as usize),
        PAGE as usize..3 * PAGE as usize + 200,
    ]
}

proptest! {
    #[test]
    fn paged_memory_matches_a_flat_vector(
        size in arb_size(),
        ops in prop::collection::vec(arb_op(), 1..40)
    ) {
        let mut mem = FlatMemory::new(size);
        let mut reference = Reference::new(size);
        prop_assert_eq!(mem.len(), size);
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Read(addr, n) => {
                    let (mut got, mut want) = (vec![0xAA; *n], vec![0x55; *n]);
                    mem.read(*addr, &mut got);
                    reference.read(*addr, &mut want);
                    prop_assert!(got == want, "step {}: read({:#x}, {}) differs", step, addr, n);
                }
                Op::Write(addr, bytes) => {
                    mem.write(*addr, bytes);
                    reference.write(*addr, bytes);
                }
                Op::LoadImage(addr, bytes) => {
                    mem.load_image(*addr, bytes);
                    reference.load_image(*addr, bytes);
                }
            }
            prop_assert_eq!(mem.fault_count(), reference.faults, "step {}: {:?}", step, op);
            let mut all = vec![0xAA; size];
            mem.read(0, &mut all);
            prop_assert!(all == reference.bytes, "step {}: contents differ after {:?}", step, op);
            prop_assert_eq!(mem.faults, reference.faults, "a whole-memory read faulted");
        }
    }
}

/// Aligned 1/2/4/8-byte writes and reads at the first and last bytes of
/// every page (so of memory too) and one past the end, and zero-length
/// accesses at and past `len`, on exactly paged and ragged sizes.
#[test]
fn aligned_accesses_at_page_and_memory_edges() {
    for size in [PAGE as usize, 3 * PAGE as usize, 2 * PAGE as usize + 200] {
        let mut mem = FlatMemory::new(size);
        let mut reference = Reference::new(size);
        let len = size as u64;
        let mut check = |addr: u64, n: usize, mem: &mut FlatMemory| {
            let bytes: Vec<u8> = (0..n).map(|i| (addr as usize + i) as u8 | 0x80).collect();
            mem.write(addr, &bytes);
            reference.write(addr, &bytes);
            let (mut got, mut want) = (vec![0xAA; n], vec![0x55; n]);
            mem.read(addr, &mut got);
            reference.read(addr, &mut want);
            assert_eq!(got, want, "size {size}: {n} bytes at {addr:#x}");
            assert_eq!(
                mem.faults, reference.faults,
                "size {size}: {n} bytes at {addr:#x}"
            );
        };
        for n in [1usize, 2, 4, 8] {
            let w = n as u64;
            for page in 0..len.div_ceil(PAGE) {
                let first = page * PAGE;
                check(first, n, &mut mem);
                check((first + PAGE).min(len) - w, n, &mut mem);
            }
            check(len, n, &mut mem);
        }
        let faults = mem.faults;
        check(len, 0, &mut mem);
        assert_eq!(
            mem.faults, faults,
            "a zero-length access at len is in bounds"
        );
        check(len + 1, 0, &mut mem);
        assert_eq!(mem.faults, faults + 2, "one past len faults");
        let mut all = vec![0xAA; size];
        mem.read(0, &mut all);
        assert!(all == reference.bytes, "size {size}: contents differ");
    }
}
