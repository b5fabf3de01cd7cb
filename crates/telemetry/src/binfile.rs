//! Compact binary trace stream (the `.mctr` format): writer sink and
//! matching reader.
//!
//! This is the on-disk format behind both trace producers — the
//! `mac-bench` runner's `--trace` flag (one file per executed simulation
//! under `results/traces/`) and `trace_tools run --trace` — and both
//! consumers (`trace_tools events` / `trace_tools perfetto`).
//!
//! ## Header layout
//!
//! The file opens with a fixed 8-byte header (all integers
//! little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic: the ASCII bytes "MCTR"
//! 4       2     version: u16, currently 4 — readers reject any other
//! 6       2     reserved: u16, written as 0, ignored on read
//! ```
//!
//! ## Record layout
//!
//! Records follow back-to-back with no count field or padding; the
//! stream ends at EOF (a mid-record EOF is reported as corruption, not
//! silently dropped):
//!
//! ```text
//! offset  size  field
//! 0       1     tag: u8, the TraceEvent discriminant (0..=19)
//! 1       2     node: u16, SystemSim node id (Tracer::for_node)
//! 3       8     cycle: u64, simulation cycle of the event
//! 11      n     payload: fixed width per tag
//! ```
//!
//! Payload fields appear in the order they are declared on the
//! [`TraceEvent`] variant, at fixed widths (`bool` as one byte, no
//! alignment padding), so the encoding is fully deterministic: two
//! identical runs produce byte-identical files (asserted by `sysim`'s
//! determinism test). The largest record is 31 bytes
//! (`LinkTx`/`VaultActivate`: 11-byte head + 20-byte payload).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::event::{TraceEvent, TraceRecord};
use crate::tracer::TraceSink;

/// The 4-byte magic at offset 0 of every `.mctr` file.
pub const MAGIC: &[u8; 4] = b"MCTR";
/// Format version written at offset 4; readers reject mismatches.
/// Version 2 added the multi-cube `HopEnqueue`/`HopForward` events
/// (tags 17/18); version 3 added the adaptive-controller
/// `AdaptDecision` event (tag 19); version 4 dropped that event's
/// bypass byte.
pub const VERSION: u16 = 4;

/// Largest encoded record (LinkTx/VaultActivate class: 11-byte head +
/// 20-byte payload), used to size stack buffers.
const MAX_RECORD: usize = 40;

fn encode_into(rec: &TraceRecord, buf: &mut Vec<u8>) {
    buf.push(rec.event.tag());
    buf.extend_from_slice(&rec.node.to_le_bytes());
    buf.extend_from_slice(&rec.cycle.to_le_bytes());
    match rec.event {
        TraceEvent::RawRoute { id, addr, queue } => {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&addr.to_le_bytes());
            buf.push(queue);
        }
        TraceEvent::ArqAlloc {
            entry,
            row,
            is_store,
            occupancy,
        } => {
            buf.extend_from_slice(&entry.to_le_bytes());
            buf.extend_from_slice(&row.to_le_bytes());
            buf.push(is_store as u8);
            buf.extend_from_slice(&occupancy.to_le_bytes());
        }
        TraceEvent::ArqMerge {
            entry,
            row,
            targets,
        } => {
            buf.extend_from_slice(&entry.to_le_bytes());
            buf.extend_from_slice(&row.to_le_bytes());
            buf.push(targets);
        }
        TraceEvent::ArqFence { id }
        | TraceEvent::FenceRetire { id }
        | TraceEvent::Fanout { id } => {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::ArqFillBurst { occupancy } => {
            buf.extend_from_slice(&occupancy.to_le_bytes());
        }
        TraceEvent::ArqPop {
            entry,
            kind,
            occupancy,
        } => {
            buf.extend_from_slice(&entry.to_le_bytes());
            buf.push(kind);
            buf.extend_from_slice(&occupancy.to_le_bytes());
        }
        TraceEvent::BuilderStage1 { entry } => {
            buf.extend_from_slice(&entry.to_le_bytes());
        }
        TraceEvent::BuilderStage2 { entry, chunk_mask } => {
            buf.extend_from_slice(&entry.to_le_bytes());
            buf.push(chunk_mask);
        }
        TraceEvent::BuilderEmit {
            entry,
            bytes,
            targets,
        } => {
            buf.extend_from_slice(&entry.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
            buf.push(targets);
        }
        TraceEvent::Dispatch {
            addr,
            bytes,
            provenance,
            targets,
        } => {
            buf.extend_from_slice(&addr.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
            buf.push(provenance);
            buf.push(targets);
        }
        TraceEvent::LinkTx {
            link,
            up,
            flits,
            start,
            done,
        } => {
            buf.push(link);
            buf.push(up as u8);
            buf.extend_from_slice(&flits.to_le_bytes());
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&done.to_le_bytes());
        }
        TraceEvent::VaultEnqueue { vault, occupancy } => {
            buf.push(vault);
            buf.extend_from_slice(&occupancy.to_le_bytes());
        }
        TraceEvent::VaultActivate {
            vault,
            bank,
            start,
            done,
            bytes,
        } => {
            buf.push(vault);
            buf.push(bank);
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&done.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
        }
        TraceEvent::BankConflict {
            vault,
            bank,
            waited,
        } => {
            buf.push(vault);
            buf.push(bank);
            buf.extend_from_slice(&waited.to_le_bytes());
        }
        TraceEvent::HmcComplete {
            addr,
            targets,
            latency,
        } => {
            buf.extend_from_slice(&addr.to_le_bytes());
            buf.push(targets);
            buf.extend_from_slice(&latency.to_le_bytes());
        }
        TraceEvent::HopEnqueue {
            from_cube,
            to_cube,
            flits,
            up,
        } => {
            buf.push(from_cube);
            buf.push(to_cube);
            buf.extend_from_slice(&flits.to_le_bytes());
            buf.push(up as u8);
        }
        TraceEvent::HopForward {
            cube,
            dest,
            start,
            done,
        } => {
            buf.push(cube);
            buf.push(dest);
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&done.to_le_bytes());
        }
        TraceEvent::AdaptDecision {
            pop_interval,
            accepts,
        } => {
            buf.extend_from_slice(&pop_interval.to_le_bytes());
            buf.extend_from_slice(&accepts.to_le_bytes());
        }
    }
}

/// Streaming writer sink over any `Write` target.
pub struct BinarySink<W: Write + Send> {
    w: W,
    scratch: Vec<u8>,
    /// First I/O error encountered; reported once on flush/drop.
    error: Option<io::Error>,
}

impl BinarySink<BufWriter<File>> {
    /// Create (truncate) a trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        BinarySink::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write + Send> BinarySink<W> {
    /// Wrap an arbitrary writer; writes the header immediately.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        Ok(BinarySink {
            w,
            scratch: Vec::with_capacity(MAX_RECORD),
            error: None,
        })
    }

    /// Flush and return the underlying writer (for in-memory targets).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.w.flush()?;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(self.w)
    }
}

impl<W: Write + Send> TraceSink for BinarySink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.scratch.clear();
        encode_into(rec, &mut self.scratch);
        if let Err(e) = self.w.write_all(&self.scratch) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Some(e) = &self.error {
            eprintln!("mac-telemetry: binary sink write failed: {e}");
            self.error = None;
        }
        if let Err(e) = self.w.flush() {
            eprintln!("mac-telemetry: binary sink flush failed: {e}");
        }
    }
}

/// Iterator over the records of a binary trace stream.
pub struct TraceReader<R: Read> {
    r: R,
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Open a trace file and validate its header.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap a reader; validates the header.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a MCTR trace",
            ));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {version} (expected {VERSION})"),
            ));
        }
        Ok(TraceReader { r, done: false })
    }

    fn read_record(&mut self) -> io::Result<Option<TraceRecord>> {
        let mut tag = [0u8; 1];
        match self.r.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut head = [0u8; 10];
        self.r.read_exact(&mut head)?;
        let node = u16::from_le_bytes([head[0], head[1]]);
        let cycle = u64::from_le_bytes(head[2..10].try_into().expect("8-byte slice"));

        let mut b = FieldReader { r: &mut self.r };
        let event = match tag[0] {
            0 => TraceEvent::RawRoute {
                id: b.u64()?,
                addr: b.u64()?,
                queue: b.u8()?,
            },
            1 => TraceEvent::ArqAlloc {
                entry: b.u32()?,
                row: b.u64()?,
                is_store: b.u8()? != 0,
                occupancy: b.u16()?,
            },
            2 => TraceEvent::ArqMerge {
                entry: b.u32()?,
                row: b.u64()?,
                targets: b.u8()?,
            },
            3 => TraceEvent::ArqFence { id: b.u64()? },
            4 => TraceEvent::ArqFillBurst {
                occupancy: b.u16()?,
            },
            5 => TraceEvent::ArqPop {
                entry: b.u32()?,
                kind: b.u8()?,
                occupancy: b.u16()?,
            },
            6 => TraceEvent::FenceRetire { id: b.u64()? },
            7 => TraceEvent::BuilderStage1 { entry: b.u32()? },
            8 => TraceEvent::BuilderStage2 {
                entry: b.u32()?,
                chunk_mask: b.u8()?,
            },
            9 => TraceEvent::BuilderEmit {
                entry: b.u32()?,
                bytes: b.u16()?,
                targets: b.u8()?,
            },
            10 => TraceEvent::Dispatch {
                addr: b.u64()?,
                bytes: b.u16()?,
                provenance: b.u8()?,
                targets: b.u8()?,
            },
            11 => TraceEvent::LinkTx {
                link: b.u8()?,
                up: b.u8()? != 0,
                flits: b.u16()?,
                start: b.u64()?,
                done: b.u64()?,
            },
            12 => TraceEvent::VaultEnqueue {
                vault: b.u8()?,
                occupancy: b.u16()?,
            },
            13 => TraceEvent::VaultActivate {
                vault: b.u8()?,
                bank: b.u8()?,
                start: b.u64()?,
                done: b.u64()?,
                bytes: b.u16()?,
            },
            14 => TraceEvent::BankConflict {
                vault: b.u8()?,
                bank: b.u8()?,
                waited: b.u64()?,
            },
            15 => TraceEvent::HmcComplete {
                addr: b.u64()?,
                targets: b.u8()?,
                latency: b.u64()?,
            },
            16 => TraceEvent::Fanout { id: b.u64()? },
            17 => TraceEvent::HopEnqueue {
                from_cube: b.u8()?,
                to_cube: b.u8()?,
                flits: b.u16()?,
                up: b.u8()? != 0,
            },
            18 => TraceEvent::HopForward {
                cube: b.u8()?,
                dest: b.u8()?,
                start: b.u64()?,
                done: b.u64()?,
            },
            19 => TraceEvent::AdaptDecision {
                pop_interval: b.u64()?,
                accepts: b.u16()?,
            },
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown trace event tag {t}"),
                ))
            }
        };
        Ok(Some(TraceRecord { cycle, node, event }))
    }
}

struct FieldReader<'a, R: Read> {
    r: &'a mut R,
}

impl<R: Read> FieldReader<'_, R> {
    fn u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.r.read_exact(&mut b)?;
        Ok(b[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        let mut b = [0u8; 2];
        self.r.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }
    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<TraceRecord>;

    fn next(&mut self) -> Option<io::Result<TraceRecord>> {
        if self.done {
            return None;
        }
        match self.read_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Read an entire trace file into memory.
pub fn read_trace_file(path: impl AsRef<Path>) -> io::Result<Vec<TraceRecord>> {
    TraceReader::open(path)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 5,
                node: 1,
                event: TraceEvent::RawRoute {
                    id: 7,
                    addr: 0xA60,
                    queue: 0,
                },
            },
            TraceRecord {
                cycle: 6,
                node: 1,
                event: TraceEvent::ArqAlloc {
                    entry: 0,
                    row: 0xA,
                    is_store: false,
                    occupancy: 1,
                },
            },
            TraceRecord {
                cycle: 7,
                node: 1,
                event: TraceEvent::ArqMerge {
                    entry: 0,
                    row: 0xA,
                    targets: 2,
                },
            },
            TraceRecord {
                cycle: 9,
                node: 0,
                event: TraceEvent::LinkTx {
                    link: 3,
                    up: true,
                    flits: 17,
                    start: 9,
                    done: 43,
                },
            },
            TraceRecord {
                cycle: 11,
                node: 2,
                event: TraceEvent::VaultActivate {
                    vault: 31,
                    bank: 15,
                    start: 100,
                    done: 180,
                    bytes: 256,
                },
            },
            TraceRecord {
                cycle: 12,
                node: 2,
                event: TraceEvent::BankConflict {
                    vault: 31,
                    bank: 15,
                    waited: 42,
                },
            },
            TraceRecord {
                cycle: 13,
                node: 0,
                event: TraceEvent::Dispatch {
                    addr: 0xF00,
                    bytes: 128,
                    provenance: 1,
                    targets: 5,
                },
            },
            TraceRecord {
                cycle: 20,
                node: 0,
                event: TraceEvent::Fanout { id: 7 },
            },
            TraceRecord {
                cycle: 21,
                node: 1,
                event: TraceEvent::HopEnqueue {
                    from_cube: 0,
                    to_cube: 1,
                    flits: 17,
                    up: false,
                },
            },
            TraceRecord {
                cycle: 22,
                node: 2,
                event: TraceEvent::HopForward {
                    cube: 2,
                    dest: 3,
                    start: 22,
                    done: 64,
                },
            },
            TraceRecord {
                cycle: 24_576,
                node: 0,
                event: TraceEvent::AdaptDecision {
                    pop_interval: 1,
                    accepts: 2,
                },
            },
        ]
    }

    #[test]
    fn round_trips_every_variant_shape() {
        let mut sink = BinarySink::new(Vec::new()).expect("vec sink");
        for rec in sample_records() {
            sink.record(&rec);
        }
        let bytes = sink.into_inner().expect("no io errors");
        let out: Vec<TraceRecord> = TraceReader::new(&bytes[..])
            .expect("valid header")
            .collect::<io::Result<_>>()
            .expect("valid records");
        assert_eq!(out, sample_records());
    }

    #[test]
    fn identical_streams_encode_identically() {
        let encode = || {
            let mut sink = BinarySink::new(Vec::new()).expect("vec sink");
            for rec in sample_records() {
                sink.record(&rec);
            }
            sink.into_inner().expect("no io errors")
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(TraceReader::new(&b"NOPE\x01\x00\x00\x00"[..]).is_err());
        assert!(TraceReader::new(&b"MCTR\x63\x00\x00\x00"[..]).is_err());
        // Older-version files (pre-Hop, pre-AdaptDecision events, and
        // AdaptDecision with a bypass byte) are rejected, not misread.
        assert!(TraceReader::new(&b"MCTR\x01\x00\x00\x00"[..]).is_err());
        assert!(TraceReader::new(&b"MCTR\x02\x00\x00\x00"[..]).is_err());
        assert!(TraceReader::new(&b"MCTR\x03\x00\x00\x00"[..]).is_err());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut sink = BinarySink::new(Vec::new()).expect("vec sink");
        sink.record(&sample_records()[0]);
        let mut bytes = sink.into_inner().expect("no io errors");
        bytes.truncate(bytes.len() - 3);
        let out: io::Result<Vec<TraceRecord>> = TraceReader::new(&bytes[..])
            .expect("valid header")
            .collect();
        assert!(out.is_err(), "mid-record EOF must not be silently dropped");
    }
}
