//! No `.mctr` file panics the readers, analyzers or exporters.
//!
//! A recorded trace carries every event kind, each with extreme field
//! values (all-ones ids and addresses, vault and bank 255, spans that end
//! before they start, waits that overflow a sum). Every truncation of
//! it and random single-byte mutations of it go through
//! `read_trace_file` → `analyze` → `render_report` and `export_json`:
//! each step either returns an error or succeeds. Tests build with
//! overflow checks, so an unchecked sum fails here too.

use std::path::PathBuf;

use mac_telemetry::{
    analyze, export_json, read_trace_file, BinarySink, TraceEvent, TraceRecord, TraceSink,
};
use proptest::prelude::*;

const MAX: u64 = u64::MAX;

/// Every event kind, with extreme field values.
fn events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::RawRoute {
            id: MAX,
            addr: MAX,
            queue: u8::MAX,
        },
        TraceEvent::ArqAlloc {
            entry: u32::MAX,
            row: MAX,
            is_store: true,
            occupancy: u16::MAX,
        },
        TraceEvent::ArqMerge {
            entry: u32::MAX,
            row: MAX,
            targets: u8::MAX,
        },
        TraceEvent::ArqFence { id: MAX },
        TraceEvent::ArqFillBurst {
            occupancy: u16::MAX,
        },
        TraceEvent::ArqPop {
            entry: u32::MAX,
            kind: u8::MAX,
            occupancy: u16::MAX,
        },
        TraceEvent::FenceRetire { id: MAX },
        TraceEvent::BuilderStage1 { entry: u32::MAX },
        TraceEvent::BuilderStage2 {
            entry: u32::MAX,
            chunk_mask: u8::MAX,
        },
        TraceEvent::BuilderEmit {
            entry: u32::MAX,
            bytes: u16::MAX,
            targets: u8::MAX,
        },
        TraceEvent::Dispatch {
            addr: MAX,
            bytes: u16::MAX,
            provenance: u8::MAX,
            targets: u8::MAX,
        },
        TraceEvent::LinkTx {
            link: u8::MAX,
            up: true,
            flits: u16::MAX,
            start: MAX,
            done: 0,
        },
        TraceEvent::VaultEnqueue {
            vault: u8::MAX,
            occupancy: u16::MAX,
        },
        TraceEvent::VaultActivate {
            vault: u8::MAX,
            bank: u8::MAX,
            start: MAX,
            done: 0,
            bytes: u16::MAX,
        },
        TraceEvent::BankConflict {
            vault: u8::MAX,
            bank: u8::MAX,
            waited: MAX,
        },
        TraceEvent::HmcComplete {
            addr: MAX,
            targets: u8::MAX,
            latency: MAX,
        },
        TraceEvent::Fanout { id: MAX },
        TraceEvent::HopEnqueue {
            from_cube: u8::MAX,
            to_cube: u8::MAX,
            flits: u16::MAX,
            up: true,
        },
        TraceEvent::HopForward {
            cube: u8::MAX,
            dest: u8::MAX,
            start: MAX,
            done: 0,
        },
        TraceEvent::AdaptDecision {
            pop_interval: MAX,
            accepts: u16::MAX,
        },
    ]
}

/// The recorded trace: every event twice, at the extreme cycles and
/// nodes, so sums, windows and reuse distances see both ends.
fn recorded() -> Vec<u8> {
    let mut sink = BinarySink::new(Vec::new()).expect("in-memory sink");
    for (cycle, node) in [(0, 0), (MAX, u16::MAX), (MAX, 0), (0, u16::MAX)] {
        for event in events() {
            sink.record(&TraceRecord { cycle, node, event });
        }
    }
    sink.into_inner().expect("in-memory sink")
}

/// A per-test temporary trace file.
fn temp_trace(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mac-never-panic-{}-{name}.mctr",
        std::process::id()
    ))
}

/// Read, analyze, render and export `bytes`; panics only if one of them
/// does, naming the input.
fn survives(path: &PathBuf, bytes: &[u8], what: &str) {
    std::fs::write(path, bytes).expect("write temporary trace");
    let run = std::panic::catch_unwind(|| {
        if let Ok(records) = read_trace_file(path) {
            let analysis = analyze(&records);
            let _ = analysis.render_report();
            let _ = export_json(&records);
        }
    });
    if let Err(e) = run {
        eprintln!("{what} ({} bytes) panicked", bytes.len());
        std::panic::resume_unwind(e);
    }
}

#[test]
fn the_recorded_trace_round_trips() {
    let bytes = recorded();
    let path = temp_trace("whole");
    std::fs::write(&path, &bytes).expect("write trace");
    let records = read_trace_file(&path).expect("a whole trace reads");
    assert_eq!(records.len(), 4 * events().len());
    let report = analyze(&records).render_report();
    assert!(report.contains("v255 "), "vault 255 has a heatmap row");
    assert!(report.contains(&format!("{MAX} cycles waited")), "{report}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_truncation_survives() {
    let bytes = recorded();
    let path = temp_trace("cut");
    for len in 0..=bytes.len() {
        survives(&path, &bytes[..len], &format!("truncation to {len}"));
    }
    let _ = std::fs::remove_file(&path);
}

/// The smallest trace that used to panic: the header and one
/// `BankConflict` naming vault 255.
#[test]
fn vault_255_conflict_renders() {
    let mut sink = BinarySink::new(Vec::new()).expect("in-memory sink");
    sink.record(&TraceRecord {
        cycle: 0,
        node: 0,
        event: TraceEvent::BankConflict {
            vault: 255,
            bank: 0,
            waited: 1,
        },
    });
    let bytes = sink.into_inner().expect("in-memory sink");
    assert_eq!(bytes.len(), 29);
    let path = temp_trace("v255");
    survives(&path, &bytes, "vault 255");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #[test]
    fn single_byte_mutations_survive(at in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = recorded();
        let at = at % bytes.len();
        bytes[at] = byte;
        let path = temp_trace(&format!("mut-{at}"));
        survives(&path, &bytes, &format!("byte {at} set to {byte:#x}"));
        let _ = std::fs::remove_file(&path);
    }
}
