//! The host port of an HMC cube: packet sizing, the host link group and
//! the link retry protocol.
//!
//! A single cube ([`crate::HmcDevice`]) and a cube network
//! (`mac_net::NetDevice`) attach to the host the same way, so they share
//! this one type. With the same configuration both draw the same retry
//! sequence from the same seeded RNG and pick the same links, which is
//! what makes a 1-cube network bit-identical to a single cube.

use mac_telemetry::Tracer;
use mac_types::{Cycle, HmcConfig, HmcRequest};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::link::LinkSet;

/// The host's link group to its cube, with CRC retry injection.
#[derive(Debug, Clone)]
pub struct HostPort {
    links: LinkSet,
    /// Probability a request packet fails CRC and is replayed.
    error_rate: f64,
    rng: SmallRng,
    /// Replays performed.
    retries: u64,
}

impl HostPort {
    /// Build the host port for a cube configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        HostPort {
            links: LinkSet::new(cfg),
            error_rate: cfg.link_error_rate.clamp(0.0, 0.99),
            rng: SmallRng::seed_from_u64(HmcConfig::ERROR_SEED),
            retries: 0,
        }
    }

    /// Request and response packet lengths of `req` in FLITs (§2.2.2):
    /// one control FLIT per packet; data FLITs ride the request for
    /// writes and the response for reads. Atomics carry one
    /// operand/result FLIT each way.
    #[inline]
    pub fn packet_flits(req: &HmcRequest) -> (u64, u64) {
        if req.is_atomic {
            (2, 2)
        } else if req.is_write {
            (1 + req.size.flits(), 1)
        } else {
            (1, 1 + req.size.flits())
        }
    }

    /// Serialize a request packet of `flits` onto the host links at
    /// `now`. Returns `(link its response returns on, cycle the packet
    /// has fully arrived at the cube)`.
    ///
    /// A packet that fails CRC is replayed from the retry buffer: after
    /// the [`HmcConfig::RETRY_PENALTY`]-cycle timeout it re-serializes on
    /// the same link. The timeout is a pure delay; no upstream channel is
    /// touched.
    #[inline]
    pub fn send_request(&mut self, now: Cycle, flits: u64) -> (usize, Cycle) {
        let (link, mut at_cube) = self.links.send_request(now, flits);
        while self.error_rate > 0.0 && self.rng.gen_bool(self.error_rate) {
            self.retries += 1;
            at_cube = self
                .links
                .send_request_on(link, at_cube + HmcConfig::RETRY_PENALTY, flits);
        }
        (link, at_cube)
    }

    /// Serialize a response packet of `flits`, ready at `now`, upstream
    /// on `link`. Returns the cycle it has fully arrived at the host.
    #[inline]
    pub fn send_response(&mut self, link: usize, now: Cycle, flits: u64) -> Cycle {
        self.links.send_response(link, now, flits)
    }

    /// CRC replays performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Attach a tracer to the host links.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.links.set_tracer(tracer);
    }

    /// Append the host links' FLIT-utilization series.
    pub fn sample_metrics(&self, s: &mut mac_metrics::Sampler<'_>) {
        self.links.sample_metrics(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_timeout_leaves_the_response_channel_free() {
        let one_link = HmcConfig {
            links: 1,
            ..HmcConfig::default()
        };
        let mut port = HostPort::new(&HmcConfig {
            link_error_rate: 0.99,
            ..one_link.clone()
        });
        let (link, at_cube) = port.send_request(0, 1);
        assert!(port.retries() > 0);
        assert!(at_cube > 10 + HmcConfig::RETRY_PENALTY);
        // A response ready at cycle 10, before the first timeout ends,
        // serializes at once, as it would on a link that never failed.
        let clean = HostPort::new(&one_link).send_response(0, 10, 2);
        assert_eq!(clean, 14);
        assert_eq!(port.send_response(link, 10, 2), clean);
    }
}
