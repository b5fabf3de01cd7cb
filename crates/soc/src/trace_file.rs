//! Binary trace format — the artifact the paper's §5.1 pipeline passes
//! from the memory tracer to the MAC simulator.
//!
//! Layout (little-endian):
//!
//! ```text
//! header:  magic "MACT" | version u16 | thread count u16
//! per thread: record count u64, then records:
//!   [kind u8][pad u8][compute-gap u16][addr u64]
//! ```
//!
//! `kind`: 0 load, 1 store, 2 atomic, 3 fence, 4 SPM access. The
//! compute gap is the number of non-memory instructions preceding the
//! operation (capped at `u16::MAX`; longer gaps split into NOP records
//! with kind 255).

use mac_types::{MemOpKind, PhysAddr};

use crate::program::ThreadOp;

const MAGIC: &[u8; 4] = b"MACT";
const VERSION: u16 = 1;
/// Bytes per record: kind, pad, compute gap, address.
const RECORD_BYTES: u64 = 12;
const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_ATOMIC: u8 = 2;
const KIND_FENCE: u8 = 3;
const KIND_SPM: u8 = 4;
const KIND_GAP: u8 = 255;

/// Serialize per-thread operation lists into the trace format.
pub fn encode_trace(threads: &[Vec<ThreadOp>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(threads.len() as u16).to_le_bytes());
    for ops in threads {
        // First pass: fold Compute into the gap of the following record.
        let mut records: Vec<(u8, u16, u64)> = Vec::new();
        let mut gap: u64 = 0;
        for op in ops {
            match op {
                ThreadOp::Compute(c) => gap += c,
                ThreadOp::Spm => {
                    push_record(&mut records, KIND_SPM, &mut gap, 0);
                }
                ThreadOp::Mem { addr, kind } => {
                    let k = match kind {
                        MemOpKind::Load => KIND_LOAD,
                        MemOpKind::Store => KIND_STORE,
                        MemOpKind::Atomic => KIND_ATOMIC,
                        MemOpKind::Fence => KIND_FENCE,
                    };
                    push_record(&mut records, k, &mut gap, addr.raw());
                }
                ThreadOp::Done => break,
            }
        }
        while gap > 0 {
            let g = gap.min(u16::MAX as u64) as u16;
            records.push((KIND_GAP, g, 0));
            gap -= g as u64;
        }
        buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for (kind, g, addr) in records {
            buf.extend_from_slice(&[kind, 0]);
            buf.extend_from_slice(&g.to_le_bytes());
            buf.extend_from_slice(&addr.to_le_bytes());
        }
    }
    buf
}

fn push_record(records: &mut Vec<(u8, u16, u64)>, kind: u8, gap: &mut u64, addr: u64) {
    while *gap > u16::MAX as u64 {
        records.push((KIND_GAP, u16::MAX, 0));
        *gap -= u16::MAX as u64;
    }
    records.push((kind, *gap as u16, addr));
    *gap = 0;
}

/// Little-endian reader over the part of a trace not yet decoded.
struct FieldReader<'a> {
    rest: &'a [u8],
}

impl<'a> FieldReader<'a> {
    /// The next `N` bytes, or `None` when fewer remain.
    fn bytes<const N: usize>(&mut self) -> Option<[u8; N]> {
        let head = self.rest.get(..N)?.try_into().ok()?;
        self.rest = &self.rest[N..];
        Some(head)
    }

    fn u16(&mut self) -> Option<u16> {
        self.bytes().map(u16::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes().map(u64::from_le_bytes)
    }

    /// Split off the next `len` bytes as a reader of their own, or
    /// `None` when fewer remain.
    fn split(&mut self, len: u64) -> Option<FieldReader<'a>> {
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= self.rest.len())?;
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some(FieldReader { rest: head })
    }

    /// One `[kind u8][pad u8][compute-gap u16][addr u64]` record.
    fn record(&mut self) -> Option<(u8, u16, u64)> {
        let [kind, _pad] = self.bytes()?;
        Some((kind, self.u16()?, self.u64()?))
    }
}

/// Deserialize a trace produced by [`encode_trace`]. A trace is user
/// input (`trace_tools analyze`/`run`), so a truncated or corrupt one is
/// an `Err`, never a panic.
pub fn decode_trace(raw: &[u8]) -> Result<Vec<Vec<ThreadOp>>, String> {
    let mut r = FieldReader { rest: raw };
    let (Some(magic), Some(version), Some(threads)) = (r.bytes::<4>(), r.u16(), r.u16()) else {
        return Err("truncated header".into());
    };
    if &magic != MAGIC {
        return Err(format!("bad magic {magic:?}"));
    }
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let mut out = Vec::with_capacity(threads as usize);
    for t in 0..threads {
        let n = r
            .u64()
            .ok_or_else(|| format!("truncated thread {t} header"))?;
        // The record count is untrusted: its records must fit in the
        // bytes left, which also bounds the allocation below.
        let mut records = n
            .checked_mul(RECORD_BYTES)
            .and_then(|len| r.split(len))
            .ok_or_else(|| format!("truncated thread {t} records"))?;
        let mut ops = Vec::with_capacity(n as usize);
        while let Some((kind, gap, addr)) = records.record() {
            if gap > 0 {
                ops.push(ThreadOp::Compute(gap as u64));
            }
            match kind {
                KIND_GAP => {}
                KIND_SPM => ops.push(ThreadOp::Spm),
                k => {
                    let kind = match k {
                        KIND_LOAD => MemOpKind::Load,
                        KIND_STORE => MemOpKind::Store,
                        KIND_ATOMIC => MemOpKind::Atomic,
                        KIND_FENCE => MemOpKind::Fence,
                        other => return Err(format!("bad record kind {other}")),
                    };
                    ops.push(ThreadOp::Mem {
                        addr: PhysAddr::new(addr),
                        kind,
                    });
                }
            }
        }
        out.push(ops);
    }
    Ok(out)
}

/// Write a trace to a file.
pub fn write_trace_file(path: &std::path::Path, threads: &[Vec<ThreadOp>]) -> std::io::Result<()> {
    std::fs::write(path, encode_trace(threads))
}

/// Read a trace from a file.
pub fn read_trace_file(path: &std::path::Path) -> Result<Vec<Vec<ThreadOp>>, String> {
    let raw = std::fs::read(path).map_err(|e| e.to_string())?;
    decode_trace(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<ThreadOp>> {
        vec![
            vec![
                ThreadOp::Compute(3),
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x1000),
                    kind: MemOpKind::Load,
                },
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x2000),
                    kind: MemOpKind::Store,
                },
                ThreadOp::Spm,
                ThreadOp::Mem {
                    addr: PhysAddr::new(0),
                    kind: MemOpKind::Fence,
                },
            ],
            vec![
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x42),
                    kind: MemOpKind::Atomic,
                },
                ThreadOp::Compute(100),
            ],
        ]
    }

    #[test]
    fn round_trip_preserves_operations() {
        let original = sample();
        let decoded = decode_trace(&encode_trace(&original)).unwrap();
        assert_eq!(decoded.len(), 2);
        // Compute ops may be re-folded but the memory operations and their
        // preceding gaps must match exactly.
        assert_eq!(decoded[0], original[0]);
        // Trailing compute is preserved as a gap record.
        let total_compute: u64 = decoded[1]
            .iter()
            .filter_map(|op| match op {
                ThreadOp::Compute(c) => Some(*c),
                _ => None,
            })
            .sum();
        assert_eq!(total_compute, 100);
    }

    #[test]
    fn large_gaps_split_and_rejoin() {
        let original = vec![vec![
            ThreadOp::Compute(200_000),
            ThreadOp::Mem {
                addr: PhysAddr::new(0x10),
                kind: MemOpKind::Load,
            },
        ]];
        let decoded = decode_trace(&encode_trace(&original)).unwrap();
        let total: u64 = decoded[0]
            .iter()
            .filter_map(|op| match op {
                ThreadOp::Compute(c) => Some(*c),
                _ => None,
            })
            .sum();
        assert_eq!(total, 200_000);
        assert!(decoded[0].iter().any(|op| matches!(
            op,
            ThreadOp::Mem {
                kind: MemOpKind::Load,
                ..
            }
        )));
    }

    #[test]
    fn rejects_corruption() {
        assert!(decode_trace(b"oops").is_err());
        let mut bad = encode_trace(&sample());
        bad[0] = b'X';
        assert!(decode_trace(&bad).is_err());
        // Truncation.
        let enc = encode_trace(&sample());
        assert!(decode_trace(&enc[..enc.len() - 4]).is_err());
    }

    #[test]
    fn record_count_past_the_file_is_an_error() {
        // One thread claiming u64::MAX / 12 + 1 records: the count times
        // the record size overflows u64 and wraps to 8, which the 16
        // bytes that follow would satisfy.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(&(u64::MAX / RECORD_BYTES + 1).to_le_bytes());
        raw.extend_from_slice(&[0; 16]);
        assert_eq!(raw.len(), 32);
        assert_eq!(
            decode_trace(&raw),
            Err("truncated thread 0 records".to_string())
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("mac_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        write_trace_file(&path, &sample()).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back[0], sample()[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let decoded = decode_trace(&encode_trace(&[])).unwrap();
        assert!(decoded.is_empty());
    }
}
