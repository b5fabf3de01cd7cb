//! # mac-telemetry — event tracing & observability
//!
//! The paper's evaluation (§5) reasons about *time-resolved* internal
//! behavior — requests per packet, ARQ occupancy, bank conflicts, link
//! activity — while the simulator's aggregate counters (`MacStats`,
//! `HmcStats`) only capture end-of-run totals. This crate adds the
//! missing layer: a cycle-stamped [`TraceEvent`] stream emitted by every
//! stage of the stack (router, ARQ, builder, links, vaults, response
//! path) through a cloneable [`Tracer`] handle.
//!
//! Design rules:
//!
//! - **Zero overhead when disabled.** A disabled tracer is a `None`;
//!   [`Tracer::emit`] takes the event as a closure, so emit sites pay
//!   one branch and never construct an event. Tracing also never
//!   perturbs simulated behavior (verified by a cycle-identity test in
//!   `sysim`).
//! - **One stream, many sinks.** [`TraceSink`] receives records;
//!   [`RingSink`] keeps the last N in memory, and [`BinarySink`] streams
//!   a compact deterministic binary format (read back with
//!   [`TraceReader`]); [`export_json`] turns a recorded stream into
//!   Chrome `trace_event` JSON for <https://ui.perfetto.dev>.
//! - **Analysis offline.** The [`analyzer`] module derives the paper's
//!   observables (coalescing windows, row reuse, vault occupancy, bank
//!   conflict maps) from a recorded stream, not from the live run.

#![warn(missing_docs)]

pub mod analyzer;
pub mod binfile;
pub mod event;
pub mod perfetto;
pub mod profiler;
pub mod ring;
pub mod tracer;

pub use analyzer::{analyze, TraceAnalysis};
pub use binfile::{read_trace_file, BinarySink, TraceReader};
pub use event::{
    TraceEvent, TraceRecord, POP_BUILDER, POP_BYPASS, POP_FENCE, ROUTE_GLOBAL, ROUTE_LOCAL,
    ROUTE_REMOTE_IN, ROUTE_STALLED,
};
pub use perfetto::{export_counter_tracks, export_json, export_merged, CounterTrack};
pub use profiler::{ProfSnapshot, Profiler, SpanGuard, SpanRecord};
pub use ring::{RingHandle, RingSink};
pub use tracer::{TraceSink, TraceSummary, Tracer};

#[cfg(test)]
mod tests {
    use super::*;

    /// The pipeline advertised in the docs: record through a tracer into
    /// the binary sink, read back, analyze, export.
    #[test]
    fn end_to_end_record_read_analyze_export() {
        let mut sink = BinarySink::new(Vec::new()).expect("vec sink");
        let records = [
            TraceRecord {
                cycle: 1,
                node: 0,
                event: TraceEvent::ArqAlloc {
                    entry: 0,
                    row: 2,
                    is_store: false,
                    occupancy: 1,
                },
            },
            TraceRecord {
                cycle: 3,
                node: 0,
                event: TraceEvent::ArqMerge {
                    entry: 0,
                    row: 2,
                    targets: 2,
                },
            },
            TraceRecord {
                cycle: 4,
                node: 0,
                event: TraceEvent::ArqPop {
                    entry: 0,
                    kind: 0,
                    occupancy: 0,
                },
            },
            TraceRecord {
                cycle: 6,
                node: 0,
                event: TraceEvent::Dispatch {
                    addr: 0x200,
                    bytes: 64,
                    provenance: 1,
                    targets: 2,
                },
            },
        ];
        for r in &records {
            TraceSink::record(&mut sink, r);
        }
        let bytes = sink.into_inner().expect("no io error");
        let back: Vec<TraceRecord> = TraceReader::new(&bytes[..])
            .expect("header")
            .collect::<std::io::Result<_>>()
            .expect("records");
        assert_eq!(back, records);

        let analysis = analyze(&back);
        assert_eq!(analysis.count("dispatch"), 1);
        assert_eq!(analysis.coalescing_window.max, 2);

        let json = export_json(&back);
        assert!(json.contains("\"traceEvents\""));
    }
}
