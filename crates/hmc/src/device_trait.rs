//! The common interface of the memory back ends.
//!
//! The MAC is device-agnostic by design (§4.3): it emits packetized
//! transactions and consumes responses. [`crate::HmcDevice`],
//! [`crate::HbmDevice`], [`crate::DdrDevice`] and `mac_net::NetDevice`
//! implement this trait, so the full-system simulator switches back
//! ends with a configuration flag. Each implements only its timing
//! model: where a request goes ([`MemoryDevice::can_accept`],
//! [`MemoryDevice::next_accept`]) and when its data is done
//! ([`MemoryDevice::submit`]). `submit` hands the finished access to
//! the device's [`ResponsePath`], and the drain, the in-flight count
//! and the statistics below are written once, against that path.

use mac_types::{Cycle, HmcRequest, HmcResponse};

use crate::response::ResponsePath;
use crate::stats::HmcStats;

/// A transaction-driven memory device.
pub trait MemoryDevice {
    /// Whether the device can enqueue a request for this address at `now`
    /// (finite internal queues provide backpressure).
    fn can_accept(&mut self, req: &HmcRequest, now: Cycle) -> bool;

    /// Earliest cycle `>= now` at which `can_accept(req, _)` can return
    /// true, assuming nothing is submitted meanwhile. Non-mutating: the
    /// run loops use it to skip the cycles a blocked request would only
    /// spend probing.
    fn next_accept(&self, req: &HmcRequest, now: Cycle) -> Cycle;

    /// Submit one transaction at cycle `now` (non-decreasing across
    /// calls); returns its completion cycle.
    fn submit(&mut self, req: HmcRequest, now: Cycle) -> Cycle;

    /// The device's response path.
    fn responses(&self) -> &ResponsePath;

    /// The device's response path, mutably.
    fn responses_mut(&mut self) -> &mut ResponsePath;

    /// Pop the earliest response completed by `now`, if any. Responses
    /// completing in the same cycle come out in submission order. This
    /// is the one drain primitive: the run loops call it until it
    /// returns `None`.
    fn pop_completed(&mut self, now: Cycle) -> Option<HmcResponse> {
        self.responses_mut().pop_completed(now)
    }

    /// Pop every response completed by `now`, in completion order, into
    /// a fresh `Vec`.
    fn drain_completed(&mut self, now: Cycle) -> Vec<HmcResponse> {
        std::iter::from_fn(|| self.pop_completed(now)).collect()
    }

    /// Transactions submitted but not yet drained.
    fn pending(&self) -> usize {
        self.responses().pending()
    }

    /// Earliest outstanding completion, if any (idle fast-forwarding).
    fn next_completion(&self) -> Option<Cycle> {
        self.responses().next_completion()
    }

    /// Accumulated statistics.
    fn stats(&self) -> &HmcStats {
        self.responses().stats()
    }

    /// Attach a tracer. Devices without instrumentation ignore it.
    fn set_tracer(&mut self, _tracer: mac_telemetry::Tracer) {}

    /// Append one metrics sample (queue depths, utilization counters) at
    /// cycle `now`. Observational: must not change simulated state.
    /// Devices without instrumentation record nothing.
    fn sample_metrics(&self, _now: Cycle, _s: &mut mac_metrics::Sampler<'_>) {}

    /// `Any` hook so front ends can recover device-specific statistics
    /// (e.g. a multi-cube network's hop counters) from behind the trait
    /// object. Implementations return `self`.
    fn as_any(&self) -> &dyn std::any::Any;
}
