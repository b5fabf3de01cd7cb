//! Chrome `trace_event` / Perfetto JSON export.
//!
//! Renders a trace as one process per node with named threads (tracks):
//! cores, ARQ, builder, dispatch, one track per link direction, and one
//! per vault. Link serialization and vault row cycles become duration
//! (`"X"`) spans, queue depths become counter (`"C"`) series, and
//! everything else becomes instants (`"i"`), so a run can be explored
//! in <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Timestamps are simulation cycles written as microseconds (1 cycle =
//! 1 µs in the UI) — only relative placement matters for inspection.

use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord, POP_BUILDER, POP_BYPASS, POP_FENCE};
use crate::profiler::ProfSnapshot;

/// Process ids used by [`export_merged`] for the non-node track groups.
/// Node pids are `u16` values, so these sit safely above them.
const PID_METRICS: u32 = 70_000;
const PID_HOST: u32 = 70_001;

const TID_CORES: u32 = 1;
const TID_ARQ: u32 = 2;
const TID_BUILDER: u32 = 3;
const TID_DISPATCH: u32 = 4;
const TID_LINK_DOWN: u32 = 10;
const TID_LINK_UP: u32 = 20;
const TID_VAULT: u32 = 100;
const TID_FABRIC: u32 = 200;
const TID_ADAPT: u32 = 5;

/// Serialize records into a complete Chrome trace JSON document.
pub fn export_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    emit_node_events(&mut out, &mut first, records);
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Emit node/track metadata plus every record's event into an open
/// `traceEvents` array. Shared by [`export_json`] and [`export_merged`].
fn emit_node_events(out: &mut String, first: &mut bool, records: &[TraceRecord]) {
    // Metadata: name the processes (nodes) and threads (tracks) that
    // actually appear, so the UI shows labels instead of bare ids.
    let mut tracks: Vec<(u16, u32, String)> = Vec::new();
    let mut nodes: Vec<u16> = Vec::new();
    for rec in records {
        if !nodes.contains(&rec.node) {
            nodes.push(rec.node);
        }
        let (tid, name) = track_of(&rec.event);
        if !tracks.iter().any(|(n, t, _)| *n == rec.node && *t == tid) {
            tracks.push((rec.node, tid, name));
        }
    }
    nodes.sort_unstable();
    tracks.sort();
    for node in &nodes {
        emit_obj(out, first, |o| {
            let _ = write!(
                o,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{node},\"tid\":0,\
                 \"args\":{{\"name\":\"node{node}\"}}}}"
            );
        });
    }
    for (node, tid, name) in &tracks {
        emit_obj(out, first, |o| {
            let _ = write!(
                o,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{node},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        });
    }

    for rec in records {
        let pid = rec.node as u32;
        match rec.event {
            TraceEvent::RawRoute { id, addr, queue } => {
                let q = ["local", "global", "stalled", "remote-in"]
                    .get(queue as usize)
                    .copied()
                    .unwrap_or("?");
                instant(
                    out,
                    first,
                    pid,
                    TID_CORES,
                    rec.cycle,
                    "route",
                    &[("id", id), ("addr", addr)],
                    Some(q),
                );
            }
            TraceEvent::ArqAlloc {
                entry,
                row,
                occupancy,
                ..
            } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_ARQ,
                    rec.cycle,
                    "alloc",
                    &[("entry", entry as u64), ("row", row)],
                    None,
                );
                counter(
                    out,
                    first,
                    pid,
                    rec.cycle,
                    "ARQ occupancy",
                    occupancy as u64,
                );
            }
            TraceEvent::ArqMerge { entry, targets, .. } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_ARQ,
                    rec.cycle,
                    "merge",
                    &[("entry", entry as u64), ("targets", targets as u64)],
                    None,
                );
            }
            TraceEvent::ArqFence { id } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_ARQ,
                    rec.cycle,
                    "fence",
                    &[("id", id)],
                    None,
                );
            }
            TraceEvent::ArqFillBurst { occupancy } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_ARQ,
                    rec.cycle,
                    "fill_burst",
                    &[("occupancy", occupancy as u64)],
                    None,
                );
            }
            TraceEvent::ArqPop {
                entry,
                kind,
                occupancy,
            } => {
                let k = match kind {
                    POP_BUILDER => "pop:builder",
                    POP_BYPASS => "pop:bypass",
                    POP_FENCE => "pop:fence",
                    _ => "pop",
                };
                instant(
                    out,
                    first,
                    pid,
                    TID_ARQ,
                    rec.cycle,
                    k,
                    &[("entry", entry as u64)],
                    None,
                );
                counter(
                    out,
                    first,
                    pid,
                    rec.cycle,
                    "ARQ occupancy",
                    occupancy as u64,
                );
            }
            TraceEvent::FenceRetire { id } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_ARQ,
                    rec.cycle,
                    "fence_retire",
                    &[("id", id)],
                    None,
                );
            }
            TraceEvent::BuilderStage1 { entry } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_BUILDER,
                    rec.cycle,
                    "stage1",
                    &[("entry", entry as u64)],
                    None,
                );
            }
            TraceEvent::BuilderStage2 { entry, chunk_mask } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_BUILDER,
                    rec.cycle,
                    "stage2",
                    &[("entry", entry as u64), ("chunk_mask", chunk_mask as u64)],
                    None,
                );
            }
            TraceEvent::BuilderEmit {
                entry,
                bytes,
                targets,
            } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_BUILDER,
                    rec.cycle,
                    "emit",
                    &[
                        ("entry", entry as u64),
                        ("bytes", bytes as u64),
                        ("targets", targets as u64),
                    ],
                    None,
                );
            }
            TraceEvent::Dispatch {
                addr,
                bytes,
                provenance,
                targets,
            } => {
                let p = ["bypass", "built", "atomic"]
                    .get(provenance as usize)
                    .copied()
                    .unwrap_or("?");
                instant(
                    out,
                    first,
                    pid,
                    TID_DISPATCH,
                    rec.cycle,
                    p,
                    &[
                        ("addr", addr),
                        ("bytes", bytes as u64),
                        ("targets", targets as u64),
                    ],
                    None,
                );
            }
            TraceEvent::LinkTx {
                link,
                up,
                flits,
                start,
                done,
            } => {
                let tid = if up { TID_LINK_UP } else { TID_LINK_DOWN } + link as u32;
                span(
                    out,
                    first,
                    pid,
                    tid,
                    start,
                    done,
                    "tx",
                    &[("flits", flits as u64)],
                );
            }
            TraceEvent::VaultEnqueue { vault, occupancy } => {
                counter(
                    out,
                    first,
                    pid,
                    rec.cycle,
                    &format!("vault{vault} queue"),
                    occupancy as u64,
                );
            }
            TraceEvent::VaultActivate {
                vault,
                bank,
                start,
                done,
                bytes,
            } => {
                let tid = TID_VAULT + vault as u32;
                span(
                    out,
                    first,
                    pid,
                    tid,
                    start,
                    done,
                    "row_cycle",
                    &[("bank", bank as u64), ("bytes", bytes as u64)],
                );
            }
            TraceEvent::BankConflict {
                vault,
                bank,
                waited,
            } => {
                let tid = TID_VAULT + vault as u32;
                instant(
                    out,
                    first,
                    pid,
                    tid,
                    rec.cycle,
                    "bank_conflict",
                    &[("bank", bank as u64), ("waited", waited)],
                    None,
                );
            }
            TraceEvent::HmcComplete {
                addr,
                targets,
                latency,
            } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_DISPATCH,
                    rec.cycle,
                    "complete",
                    &[
                        ("addr", addr),
                        ("targets", targets as u64),
                        ("latency", latency),
                    ],
                    None,
                );
            }
            TraceEvent::Fanout { id } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_CORES,
                    rec.cycle,
                    "fanout",
                    &[("id", id)],
                    None,
                );
            }
            TraceEvent::HopEnqueue {
                from_cube,
                to_cube,
                flits,
                up,
            } => {
                let tid = TID_FABRIC + from_cube as u32;
                instant(
                    out,
                    first,
                    pid,
                    tid,
                    rec.cycle,
                    "hop_enqueue",
                    &[("to_cube", to_cube as u64), ("flits", flits as u64)],
                    Some(if up { "up" } else { "down" }),
                );
            }
            TraceEvent::HopForward {
                cube,
                dest,
                start,
                done,
            } => {
                let tid = TID_FABRIC + cube as u32;
                span(
                    out,
                    first,
                    pid,
                    tid,
                    start,
                    done,
                    "forward",
                    &[("dest", dest as u64)],
                );
            }
            TraceEvent::AdaptDecision {
                pop_interval,
                accepts,
            } => {
                instant(
                    out,
                    first,
                    pid,
                    TID_ADAPT,
                    rec.cycle,
                    "retune",
                    &[("pop_interval", pop_interval), ("accepts", accepts as u64)],
                    None,
                );
            }
        }
    }
}

/// Track id + display name an event renders on.
fn track_of(event: &TraceEvent) -> (u32, String) {
    match event {
        TraceEvent::RawRoute { .. } | TraceEvent::Fanout { .. } => (TID_CORES, "cores".into()),
        TraceEvent::ArqAlloc { .. }
        | TraceEvent::ArqMerge { .. }
        | TraceEvent::ArqFence { .. }
        | TraceEvent::ArqFillBurst { .. }
        | TraceEvent::ArqPop { .. }
        | TraceEvent::FenceRetire { .. } => (TID_ARQ, "ARQ".into()),
        TraceEvent::BuilderStage1 { .. }
        | TraceEvent::BuilderStage2 { .. }
        | TraceEvent::BuilderEmit { .. } => (TID_BUILDER, "builder".into()),
        TraceEvent::Dispatch { .. } | TraceEvent::HmcComplete { .. } => {
            (TID_DISPATCH, "dispatch".into())
        }
        TraceEvent::LinkTx { link, up, .. } => {
            let dir = if *up { "up" } else { "down" };
            let base = if *up { TID_LINK_UP } else { TID_LINK_DOWN };
            (base + *link as u32, format!("link{link} {dir}"))
        }
        TraceEvent::VaultEnqueue { vault, .. }
        | TraceEvent::VaultActivate { vault, .. }
        | TraceEvent::BankConflict { vault, .. } => {
            (TID_VAULT + *vault as u32, format!("vault{vault}"))
        }
        TraceEvent::HopEnqueue { from_cube, .. } => (
            TID_FABRIC + *from_cube as u32,
            format!("fabric cube{from_cube}"),
        ),
        TraceEvent::HopForward { cube, .. } => {
            (TID_FABRIC + *cube as u32, format!("fabric cube{cube}"))
        }
        TraceEvent::AdaptDecision { .. } => (TID_ADAPT, "adapt".into()),
    }
}

fn emit_obj(out: &mut String, first: &mut bool, f: impl FnOnce(&mut String)) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    f(out);
}

fn args_json(args: &[(&str, u64)], label: Option<&str>) -> String {
    let mut s = String::from("{");
    let mut first = true;
    if let Some(l) = label {
        let _ = write!(s, "\"kind\":\"{l}\"");
        first = false;
    }
    for (k, v) in args {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}

#[allow(clippy::too_many_arguments)]
fn instant(
    out: &mut String,
    first: &mut bool,
    pid: u32,
    tid: u32,
    ts: u64,
    name: &str,
    args: &[(&str, u64)],
    label: Option<&str>,
) {
    let a = args_json(args, label);
    emit_obj(out, first, |o| {
        let _ = write!(
            o,
            "{{\"ph\":\"i\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"s\":\"t\",\"args\":{a}}}"
        );
    });
}

#[allow(clippy::too_many_arguments)]
fn span(
    out: &mut String,
    first: &mut bool,
    pid: u32,
    tid: u32,
    start: u64,
    done: u64,
    name: &str,
    args: &[(&str, u64)],
) {
    let dur = done.saturating_sub(start).max(1);
    let a = args_json(args, None);
    emit_obj(out, first, |o| {
        let _ = write!(
            o,
            "{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start},\
             \"dur\":{dur},\"args\":{a}}}"
        );
    });
}

fn counter(out: &mut String, first: &mut bool, pid: u32, ts: u64, name: &str, value: u64) {
    emit_obj(out, first, |o| {
        let _ = write!(
            o,
            "{{\"ph\":\"C\",\"name\":\"{name}\",\"pid\":{pid},\"ts\":{ts},\
             \"args\":{{\"value\":{value}}}}}"
        );
    });
}

/// A named counter time-series rendered as a Perfetto counter track —
/// the bridge from `mac-metrics` interval samples (or any other
/// `(cycle, value)` series) into the trace UI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTrack {
    /// Track name shown in the UI (typically the metric series name,
    /// e.g. `node0/arq_occupancy`).
    pub name: String,
    /// `(cycle, value)` samples in ascending cycle order.
    pub points: Vec<(u64, u64)>,
}

/// Serialize counter tracks into a complete Chrome trace JSON document:
/// one `metrics` process holding one `"C"` series per track, with the
/// same cycle-as-microsecond timestamp convention as [`export_json`].
/// The result can be opened standalone or merged with an event trace in
/// <https://ui.perfetto.dev>.
pub fn export_counter_tracks(tracks: &[CounterTrack]) -> String {
    let points: usize = tracks.iter().map(|t| t.points.len()).sum();
    let mut out = String::with_capacity(points * 72 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    emit_obj(&mut out, &mut first, |o| {
        let _ = write!(
            o,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"metrics\"}}}}"
        );
    });
    for t in tracks {
        for &(cycle, value) in &t.points {
            counter(&mut out, &mut first, 0, cycle, &t.name, value);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Serialize the three observability domains into one Chrome trace
/// document — the `mac-obs` unified timeline:
///
/// * **telemetry** — cycle-stamped [`TraceRecord`]s, one process per
///   node, exactly as [`export_json`] renders them;
/// * **counters** — `mac-metrics` interval series as counter tracks in
///   a dedicated `metrics` process;
/// * **host** — wall-clock profiler spans ([`ProfSnapshot`]) in a
///   dedicated `host` process, one thread per recording host thread,
///   plus the profiler's named counters.
///
/// Domain alignment: telemetry and counter timestamps are *simulated
/// cycles* written as microseconds, host-span timestamps are *wall
/// nanoseconds since profiler creation* written as microseconds. The
/// track groups share one timeline for side-by-side inspection, but
/// only ordering within a domain is meaningful — the trace answers
/// "what was the host doing while the sim was in this phase", not
/// "how many cycles per nanosecond" (see DESIGN.md §16).
pub fn export_merged(
    records: &[TraceRecord],
    counters: &[CounterTrack],
    host: &ProfSnapshot,
) -> String {
    let mut out = String::with_capacity(records.len() * 96 + host.spans.len() * 96 + 4096);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    emit_node_events(&mut out, &mut first, records);
    if !counters.is_empty() {
        emit_obj(&mut out, &mut first, |o| {
            let _ = write!(
                o,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{PID_METRICS},\"tid\":0,\
                 \"args\":{{\"name\":\"metrics\"}}}}"
            );
        });
        for t in counters {
            for &(cycle, value) in &t.points {
                counter(&mut out, &mut first, PID_METRICS, cycle, &t.name, value);
            }
        }
    }
    emit_obj(&mut out, &mut first, |o| {
        let _ = write!(
            o,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{PID_HOST},\"tid\":0,\
             \"args\":{{\"name\":\"host\"}}}}"
        );
    });
    let mut tids: Vec<u64> = host.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        emit_obj(&mut out, &mut first, |o| {
            let _ = write!(
                o,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{PID_HOST},\"tid\":{tid},\
                 \"args\":{{\"name\":\"host-thread-{tid}\"}}}}"
            );
        });
    }
    for s in &host.spans {
        let ts = s.start_ns / 1_000;
        let dur = (s.dur_ns / 1_000).max(1);
        emit_obj(&mut out, &mut first, |o| {
            let _ = write!(
                o,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{PID_HOST},\"tid\":{},\"ts\":{ts},\
                 \"dur\":{dur},\"args\":{{}}}}",
                s.path, s.tid
            );
        });
    }
    for (name, value) in &host.counters {
        counter(&mut out, &mut first, PID_HOST, 0, name, *value);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceRecord;

    fn records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 1,
                node: 0,
                event: TraceEvent::ArqAlloc {
                    entry: 0,
                    row: 5,
                    is_store: false,
                    occupancy: 1,
                },
            },
            TraceRecord {
                cycle: 4,
                node: 0,
                event: TraceEvent::LinkTx {
                    link: 2,
                    up: false,
                    flits: 9,
                    start: 4,
                    done: 20,
                },
            },
            TraceRecord {
                cycle: 30,
                node: 1,
                event: TraceEvent::VaultActivate {
                    vault: 7,
                    bank: 3,
                    start: 30,
                    done: 95,
                    bytes: 128,
                },
            },
            TraceRecord {
                cycle: 31,
                node: 1,
                event: TraceEvent::VaultEnqueue {
                    vault: 7,
                    occupancy: 2,
                },
            },
        ]
    }

    #[test]
    fn output_has_trace_events_wrapper_and_tracks() {
        let json = export_json(&records());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"node0\""));
        assert!(json.contains("\"name\":\"node1\""));
        assert!(json.contains("\"name\":\"link2 down\""));
        assert!(json.contains("\"name\":\"vault7\""));
    }

    #[test]
    fn spans_carry_duration_and_counters_carry_value() {
        let json = export_json(&records());
        // Link span: 4 -> 20 cycles.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":4,\"dur\":16"));
        // Vault span: 30 -> 95.
        assert!(json.contains("\"ts\":30,\"dur\":65"));
        // Queue counter.
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"vault7 queue\""));
        assert!(json.contains("{\"value\":2}"));
    }

    #[test]
    fn no_trailing_comma_in_event_array() {
        let json = export_json(&records());
        assert!(!json.contains(",\n]"));
        assert!(!json.contains(",]"));
    }

    #[test]
    fn empty_trace_is_valid_json_shape() {
        let json = export_json(&[]);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn counter_tracks_render_one_c_event_per_point() {
        let tracks = vec![
            CounterTrack {
                name: "node0/arq_occupancy".into(),
                points: vec![(0, 0), (10_000, 7)],
            },
            CounterTrack {
                name: "node0/hmc/accesses".into(),
                points: vec![(10_000, 42)],
            },
        ];
        let json = export_counter_tracks(&tracks);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"metrics\""));
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 3);
        assert!(json.contains("\"name\":\"node0/arq_occupancy\",\"pid\":0,\"ts\":10000"));
        assert!(json.contains("{\"value\":42}"));
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn merged_export_carries_all_three_domains() {
        use crate::profiler::{ProfSnapshot, SpanRecord};
        let tracks = vec![CounterTrack {
            name: "node0/arq_occupancy".into(),
            points: vec![(10_000, 7)],
        }];
        let host = ProfSnapshot {
            spans: vec![SpanRecord {
                path: "pool/execute".into(),
                tid: 3,
                start_ns: 5_500,
                dur_ns: 2_000_000,
            }],
            dropped: 0,
            phases: vec![("pool/execute".into(), 1, 2_000_000)],
            counters: vec![("pool/cache_hit".into(), 4)],
        };
        let json = export_merged(&records(), &tracks, &host);
        // Telemetry domain: node processes and their events.
        assert!(json.contains("\"name\":\"node0\""));
        assert!(json.contains("\"ts\":4,\"dur\":16"));
        // Counter domain: metrics process with the series.
        assert!(json.contains("\"name\":\"metrics\""));
        assert!(json.contains("\"name\":\"node0/arq_occupancy\",\"pid\":70000,\"ts\":10000"));
        // Host domain: wall-clock spans in µs plus profiler counters.
        assert!(json.contains("\"name\":\"host\""));
        assert!(json.contains("\"name\":\"host-thread-3\""));
        assert!(json.contains(
            "\"ph\":\"X\",\"name\":\"pool/execute\",\"pid\":70001,\"tid\":3,\"ts\":5,\"dur\":2000"
        ));
        assert!(json.contains("\"name\":\"pool/cache_hit\",\"pid\":70001,\"ts\":0"));
        assert!(!json.contains(",\n]"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn merged_export_without_counters_or_spans_is_valid() {
        let host = ProfSnapshot {
            spans: vec![],
            dropped: 0,
            phases: vec![],
            counters: vec![],
        };
        let json = export_merged(&[], &[], &host);
        assert!(json.contains("\"name\":\"host\""));
        assert!(!json.contains("\"name\":\"metrics\""));
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn empty_counter_tracks_are_a_valid_document() {
        let json = export_counter_tracks(&[]);
        assert!(json.contains("\"process_name\""));
        assert!(json.trim_end().ends_with('}'));
    }
}
