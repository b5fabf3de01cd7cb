//! SerDes link model.
//!
//! Each of the cube's links is full duplex: requests serialize on the
//! downstream direction, responses on the upstream direction, and the two
//! directions do not contend. Serialization time is proportional to the
//! packet length in FLITs. Link time is tracked in 1/16-cycle fixed point
//! so the fractional FLIT time at 30 GB/s (~1.76 CPU cycles per FLIT) does
//! not accumulate rounding error.

use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, HmcConfig};

/// One direction of one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Channel {
    /// Earliest x16 time the channel is free.
    free_at_x16: u64,
    /// Busy x16-cycles accumulated (utilization accounting).
    busy_x16: u64,
}

impl Channel {
    /// Schedule a packet of `flits` starting no earlier than `now`;
    /// returns `(start, done)` cycles — serialization begins at `start`
    /// and the last FLIT has left the channel by `done`.
    fn transmit(&mut self, now: Cycle, flits: u64, flit_x16: u64) -> (Cycle, Cycle) {
        let start = self.free_at_x16.max(now * 16);
        let dur = flits * flit_x16;
        self.free_at_x16 = start + dur;
        self.busy_x16 += dur;
        (start / 16, self.free_at_x16.div_ceil(16))
    }
}

/// The host-facing link group (Table 1: 4 links).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSet {
    down: Vec<Channel>,
    up: Vec<Channel>,
    flit_x16: u64,
    tracer: Tracer,
}

impl LinkSet {
    /// Build the links for a device configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        assert!(cfg.links > 0, "need at least one link");
        LinkSet {
            down: vec![Channel::default(); cfg.links],
            up: vec![Channel::default(); cfg.links],
            flit_x16: HmcConfig::flit_cycles_x16(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer (disabled by default; tracing is observational).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Serialize a request packet of `flits` on the earliest-free
    /// downstream channel, lowest index on ties (under uniform load this
    /// rotates round-robin). Returns `(link index, cycle the packet has
    /// fully arrived at the cube)`.
    pub fn send_request(&mut self, now: Cycle, flits: u64) -> (usize, Cycle) {
        let link = self
            .down
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.free_at_x16)
            .map(|(i, _)| i)
            .expect("non-empty link set");
        (link, self.send_request_on(link, now, flits))
    }

    /// Serialize a request packet of `flits` downstream on the given link
    /// (a CRC replay goes out on the link that failed). Returns the cycle
    /// the packet has fully arrived at the cube.
    pub fn send_request_on(&mut self, link: usize, now: Cycle, flits: u64) -> Cycle {
        let (start, done) = self.down[link].transmit(now, flits, self.flit_x16);
        self.tracer.emit(now, || TraceEvent::LinkTx {
            link: link as u8,
            up: false,
            flits: flits as u16,
            start,
            done,
        });
        done
    }

    /// Serialize a response packet of `flits` upstream on the given link
    /// (responses return on the link that carried the request). Returns the
    /// cycle the packet has fully arrived at the host.
    pub fn send_response(&mut self, link: usize, now: Cycle, flits: u64) -> Cycle {
        let (start, done) = self.up[link].transmit(now, flits, self.flit_x16);
        self.tracer.emit(now, || TraceEvent::LinkTx {
            link: link as u8,
            up: true,
            flits: flits as u16,
            start,
            done,
        });
        done
    }

    /// Busy cycles summed over all downstream channels.
    pub fn down_busy_cycles(&self) -> f64 {
        self.down.iter().map(|c| c.busy_x16 as f64 / 16.0).sum()
    }

    /// Busy time summed over all downstream channels in 1/16-cycle fixed
    /// point (the lossless integer view of [`LinkSet::down_busy_cycles`],
    /// used by the metrics sampler).
    fn down_busy_x16(&self) -> u64 {
        self.down.iter().map(|c| c.busy_x16).sum()
    }

    /// Busy time summed over all upstream channels in 1/16-cycle fixed
    /// point.
    fn up_busy_x16(&self) -> u64 {
        self.up.iter().map(|c| c.busy_x16).sum()
    }

    /// Append FLIT-utilization series: cumulative busy x16-cycles per
    /// direction (windowed utilization = delta / (16 · links · interval)).
    pub fn sample_metrics(&self, s: &mut mac_metrics::Sampler<'_>) {
        s.counter("link_down_busy_x16", self.down_busy_x16());
        s.counter("link_up_busy_x16", self.up_busy_x16());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links() -> LinkSet {
        LinkSet::new(&HmcConfig::default())
    }

    #[test]
    fn single_flit_packet_takes_about_two_cycles() {
        let mut l = links();
        let (_, done) = l.send_request(100, 1);
        // 1 FLIT at 28/16 cycles = 1.75 -> arrives by cycle 102.
        assert_eq!(done, 102);
    }

    #[test]
    fn packets_round_robin_across_links() {
        let mut l = links();
        let mut used = std::collections::HashSet::new();
        for _ in 0..4 {
            let (link, _) = l.send_request(0, 17);
            used.insert(link);
        }
        assert_eq!(
            used.len(),
            4,
            "four packets at t=0 should use all four links"
        );
    }

    #[test]
    fn serialization_queues_on_busy_channel() {
        let mut l = LinkSet::new(&HmcConfig {
            links: 1,
            ..HmcConfig::default()
        });
        let (_, first) = l.send_request(0, 16);
        let (_, second) = l.send_request(0, 16);
        assert!(
            second >= first + 16,
            "second packet must wait for the first"
        );
    }

    #[test]
    fn up_and_down_do_not_contend() {
        let mut l = LinkSet::new(&HmcConfig {
            links: 1,
            ..HmcConfig::default()
        });
        let (link, down_done) = l.send_request(0, 16);
        let up_done = l.send_response(link, 0, 16);
        // Full duplex: the response does not wait for the request.
        assert_eq!(down_done, up_done);
    }

    #[test]
    fn busy_accounting_tracks_flits() {
        let mut l = links();
        l.send_request(0, 10);
        let expected = 10.0 * HmcConfig::flit_cycles_x16() as f64 / 16.0;
        assert!((l.down_busy_cycles() - expected).abs() < 1e-9);
        assert_eq!(l.up_busy_x16(), 0);
    }

    #[test]
    fn round_robin_default_is_byte_identical_to_legacy_selection() {
        // The legacy `send_request` picked min-by-`free_at_x16` (first
        // index on ties) with no policy knob. Replaying a skewed traffic
        // mix against an oracle of that algorithm must leave the LinkSet
        // in exactly the same state, link for link and x16-tick for
        // x16-tick.
        let cfg = HmcConfig::default();
        let mut l = LinkSet::new(&cfg);
        let flit_x16 = HmcConfig::flit_cycles_x16();
        let mut oracle = vec![Channel::default(); cfg.links];
        // Deterministic but irregular packet sizes and arrival times.
        let mut t = 0u64;
        for i in 0..1000u64 {
            let flits = 1 + (i * i) % 17;
            t += i % 3;
            let pick = oracle
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.free_at_x16)
                .map(|(i, _)| i)
                .expect("non-empty");
            let (o_start, o_done) = oracle[pick].transmit(t, flits, flit_x16);
            let (link, done) = l.send_request(t, flits);
            assert_eq!(link, pick, "packet {i}: link choice diverged");
            assert_eq!(done, o_done, "packet {i}: completion diverged");
            let _ = o_start;
        }
        for (i, o) in oracle.iter().enumerate() {
            assert_eq!(l.down[i].free_at_x16, o.free_at_x16);
            assert_eq!(l.down[i].busy_x16, o.busy_x16);
        }
    }
}
