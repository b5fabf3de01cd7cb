//! The response path every memory back end shares.
//!
//! A back end's timing model decides where a request goes, when it is
//! admitted and when its data is done. What happens next is the same
//! for HMC, HBM, DDR and the cube network: [`ResponsePath::finish`]
//! turns the finished access into a statistic, an optional
//! `HmcComplete` trace event and the [`HmcResponse`] that echoes the
//! request, queued in completion order for
//! [`MemoryDevice::pop_completed`](crate::MemoryDevice::pop_completed).

use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, HmcRequest, HmcResponse};

use crate::completion::CompletionQueue;
use crate::stats::HmcStats;

/// Finished accesses on their way back to the front end, and the
/// statistics they leave behind.
#[derive(Debug, Clone, Default)]
pub struct ResponsePath {
    stats: HmcStats,
    completion: CompletionQueue,
    /// Records one `HmcComplete` per access once attached (disabled by
    /// default; HBM and DDR never attach one).
    tracer: Tracer,
}

impl ResponsePath {
    /// Attach the tracer that records each access's completion.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Record `req`, submitted at `now`, whose response has fully
    /// arrived at the host at `completed`, and queue that response.
    /// `conflict` marks an access that found its bank busy. Returns the
    /// access latency: `completed` minus the earlier of its dispatch
    /// and `now`.
    #[inline]
    pub fn finish(&mut self, req: HmcRequest, conflict: bool, completed: Cycle, now: Cycle) -> u64 {
        let latency = completed.saturating_sub(req.dispatched_at.min(now));
        self.tracer.emit(completed, || TraceEvent::HmcComplete {
            addr: req.addr.raw(),
            targets: req.targets.len() as u8,
            latency,
        });
        self.stats.record_access(
            req.size,
            req.useful_bytes(),
            req.merged_count().max(1),
            conflict,
            latency,
        );
        let rsp = HmcResponse {
            addr: req.addr,
            size: req.size,
            is_write: req.is_write,
            targets: req.targets,
            raw_ids: req.raw_ids,
            completed_at: completed,
            conflicts: conflict as u64,
        };
        self.completion.push(completed, rsp);
        latency
    }

    /// Count row-buffer hits (open-page back ends).
    pub(crate) fn count_row_hits(&mut self, hits: u64) {
        self.stats.row_hits += hits;
    }

    /// Pop the earliest response completed by `now`, if any.
    #[inline]
    pub fn pop_completed(&mut self, now: Cycle) -> Option<HmcResponse> {
        self.completion.pop_due(now)
    }

    /// Responses queued but not yet popped.
    #[inline]
    pub fn pending(&self) -> usize {
        self.completion.len()
    }

    /// Completion cycle of the earliest queued response, if any.
    #[inline]
    pub fn next_completion(&self) -> Option<Cycle> {
        self.completion.next_at()
    }

    /// Statistics of every finished access.
    #[inline]
    pub fn stats(&self) -> &HmcStats {
        &self.stats
    }
}
