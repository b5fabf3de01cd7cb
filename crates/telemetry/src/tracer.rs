//! The [`Tracer`] handle and [`TraceSink`] trait.
//!
//! A `Tracer` is embedded in every instrumented component (MAC, ARQ,
//! builder, router, device, vaults, links). It is either **disabled** —
//! the default, a `None` that costs one branch per emit site and never
//! constructs an event — or **enabled**, pointing at one shared sink.
//! Cloning is cheap (an `Arc` bump); [`Tracer::for_node`] re-tags a
//! clone so each node's components stamp their own node id.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{TraceEvent, TraceRecord};

/// Receives every emitted record. Implementations must be cheap: they
/// run inside the simulation loop whenever tracing is enabled.
pub trait TraceSink: Send {
    /// Accept one emitted record.
    fn record(&mut self, rec: &TraceRecord);

    /// Push any buffered output to its destination (no-op by default).
    fn flush(&mut self) {}
}

struct TracerInner {
    sink: Mutex<Box<dyn TraceSink>>,
    events: AtomicU64,
}

/// Cheap, cloneable handle through which components emit trace events.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
    node: u16,
}

impl Tracer {
    /// The zero-cost disabled tracer (also `Default`).
    pub fn disabled() -> Tracer {
        Tracer {
            inner: None,
            node: 0,
        }
    }

    /// A tracer recording into `sink`.
    pub fn new(sink: impl TraceSink + 'static) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink: Mutex::new(Box::new(sink)),
                events: AtomicU64::new(0),
            })),
            node: 0,
        }
    }

    /// A clone of this tracer that stamps records with `node`.
    pub fn for_node(&self, node: u16) -> Tracer {
        Tracer {
            inner: self.inner.clone(),
            node,
        }
    }

    /// True when a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event.
    ///
    /// The closure only runs when tracing is enabled, so a disabled
    /// tracer pays exactly one branch and never evaluates event fields.
    #[inline]
    pub fn emit(&self, cycle: u64, build: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let rec = TraceRecord {
                cycle,
                node: self.node,
                event: build(),
            };
            inner.events.fetch_add(1, Ordering::Relaxed);
            let mut sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
            sink.record(&rec);
        }
    }

    /// Total events recorded through this tracer (all clones).
    pub fn events_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.events.load(Ordering::Relaxed))
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.lock().unwrap_or_else(|e| e.into_inner()).flush();
        }
    }

    /// Run-level summary for reports.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            enabled: self.is_enabled(),
            events: self.events_recorded(),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(off)"),
            Some(i) => write!(
                f,
                "Tracer(node={}, events={})",
                self.node,
                i.events.load(Ordering::Relaxed)
            ),
        }
    }
}

/// Tracing is observational: it never affects simulated behavior, so
/// two components are equal regardless of their tracer wiring. This
/// keeps `PartialEq` derives on instrumented structs meaningful.
impl PartialEq for Tracer {
    fn eq(&self, _other: &Tracer) -> bool {
        true
    }
}

impl Eq for Tracer {}

/// What a run's tracing produced (embedded in `RunReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Whether a sink was attached for the run.
    pub enabled: bool,
    /// Events recorded.
    pub events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingSink;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        let mut built = false;
        t.emit(0, || {
            built = true;
            TraceEvent::Fanout { id: 0 }
        });
        assert!(!built, "closure must not run when tracing is off");
        assert_eq!(t.events_recorded(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_the_sink_and_counter() {
        let ring = RingSink::new(16);
        let handle = ring.handle();
        let t = Tracer::new(ring);
        let n3 = t.for_node(3);
        t.emit(1, || TraceEvent::Fanout { id: 1 });
        n3.emit(2, || TraceEvent::Fanout { id: 2 });
        assert_eq!(t.events_recorded(), 2);
        let recs = handle.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].node, 0);
        assert_eq!(recs[1].node, 3);
        assert_eq!(recs[1].cycle, 2);
    }

    #[test]
    fn tracers_compare_equal_regardless_of_state() {
        assert_eq!(Tracer::disabled(), Tracer::new(RingSink::new(4)));
    }
}
