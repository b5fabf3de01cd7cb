//! The inter-cube fabric: serialized, latency-paying links per edge.
//!
//! Every directed edge of the [`Topology`] carries its own link group
//! (same SerDes geometry as the host attach, modeled by
//! [`hmc_model::LinkSet`]). Forwarding a packet across an edge pays:
//!
//! 1. **pass-through latency** — the receiving cube's logic layer must
//!    decode the header, look up the route and re-serialize
//!    (`NetConfig::FORWARD_LATENCY`, ~12 ns, per HMC 2.1's guidance for
//!    chained cubes); then
//! 2. **link serialization** — the packet's FLITs occupy the edge for
//!    their transmission time, so transit traffic contends with other
//!    transit traffic crossing the same edge.
//!
//! Fabric edges are modeled error-free: the CRC/retry machinery is only
//! simulated on the host link, which keeps a 1-cube network bit-for-bit
//! identical to the single-device model (the retry RNG draws the same
//! sequence) and is consistent with short, in-package hop distances.

use hmc_model::LinkSet;
use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, HmcConfig, NetConfig};

use crate::topology::Topology;

/// The link fabric connecting the cubes of one network.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// One link group per directed edge, indexed like
    /// [`Topology::edges`]. Only the downstream half of each group is
    /// used; direction is encoded by which edge a packet takes.
    edge_links: Vec<LinkSet>,
    transit_flits: u128,
    /// One tracer per cube (node field = cube id), for hop events.
    tracers: Vec<Tracer>,
}

impl Fabric {
    /// Build the fabric for a topology, with each edge carrying the
    /// same link geometry as the host attach in `cfg`.
    pub fn new(cfg: &HmcConfig, topo: &Topology) -> Self {
        Fabric {
            edge_links: topo.edges().iter().map(|_| LinkSet::new(cfg)).collect(),
            transit_flits: 0,
            tracers: vec![Tracer::disabled(); topo.cubes()],
        }
    }

    /// Attach a tracer; hop events are tagged with the forwarding
    /// cube's id in the node field.
    pub fn set_tracer(&mut self, base: &Tracer) {
        for (c, t) in self.tracers.iter_mut().enumerate() {
            *t = base.for_node(c as u16);
        }
    }

    /// Forward a packet of `flits` across one directed edge, starting
    /// at `now`. `dest` is the packet's final cube; `up` marks
    /// response-direction (toward-host) traffic. Returns the cycle the
    /// packet has fully arrived at the edge's receiving cube.
    pub fn forward(
        &mut self,
        topo: &Topology,
        edge: usize,
        now: Cycle,
        flits: u64,
        dest: u16,
        up: bool,
    ) -> Cycle {
        let e = topo.edges()[edge];
        self.tracers[e.from as usize].emit(now, || TraceEvent::HopEnqueue {
            from_cube: e.from as u8,
            to_cube: e.to as u8,
            flits: flits as u16,
            up,
        });
        let depart = now + NetConfig::FORWARD_LATENCY;
        let (_, done) = self.edge_links[edge].send_request(depart, flits);
        self.tracers[e.from as usize].emit(depart, || TraceEvent::HopForward {
            cube: e.from as u8,
            dest: dest as u8,
            start: depart,
            done,
        });
        self.transit_flits += flits as u128;
        done
    }

    /// FLITs serialized onto fabric edges so far (both directions).
    pub fn transit_flits(&self) -> u128 {
        self.transit_flits
    }

    /// Busy time accumulated across all edges, in 1/16-cycle ticks.
    pub fn transit_busy_x16(&self) -> u128 {
        self.edge_links
            .iter()
            .map(|l| (l.down_busy_cycles() * 16.0).round() as u128)
            .sum()
    }

    /// Append fabric transit-load series: cumulative FLITs and busy
    /// x16-cycles summed over every inter-cube edge.
    pub fn sample_metrics(&self, s: &mut mac_metrics::Sampler<'_>) {
        s.counter(
            "transit_flits",
            self.transit_flits.min(u64::MAX as u128) as u64,
        );
        s.counter(
            "transit_busy_x16",
            self.transit_busy_x16().min(u64::MAX as u128) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::NetTopology;

    fn setup(cubes: usize) -> (Topology, Fabric) {
        let net = NetConfig {
            enabled: true,
            cubes,
            topology: NetTopology::DaisyChain,
            ..NetConfig::default()
        };
        let topo = Topology::new(&net);
        let fabric = Fabric::new(&HmcConfig::default(), &topo);
        (topo, fabric)
    }

    #[test]
    fn each_hop_pays_forward_latency_plus_serialization() {
        let (topo, mut f) = setup(2);
        let edge = topo.route(0, 1)[0];
        let done = f.forward(&topo, edge, 100, 1, 1, false);
        // 40 cycles pass-through + ~1.75 cycles for 1 FLIT at 28/16.
        assert_eq!(done, 100 + 40 + 2);
        assert_eq!(f.transit_flits(), 1);
    }

    #[test]
    fn transit_traffic_contends_per_edge() {
        let (topo, mut f) = setup(3);
        let e01 = topo.route(0, 1)[0];
        let e12 = topo.route(1, 2)[0];
        // Saturate edge 0->1 with large packets; edge 1->2 stays clear.
        let mut last = 0;
        for _ in 0..8 {
            last = f.forward(&topo, e01, 0, 17, 2, false);
        }
        let clear = f.forward(&topo, e12, 0, 17, 2, false);
        assert!(
            last > clear,
            "8 queued packets on one edge ({last}) outlast one on a clear edge ({clear})"
        );
        assert!(f.transit_busy_x16() > 0);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let (topo, mut f) = setup(2);
        let down = topo.route(0, 1)[0];
        let up = topo.route(1, 0)[0];
        let d = f.forward(&topo, down, 0, 17, 1, false);
        let u = f.forward(&topo, up, 0, 17, 0, true);
        assert_eq!(d, u, "distinct directed edges have distinct channels");
    }
}
