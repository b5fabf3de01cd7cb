//! Cube-network topologies and deterministic routing tables.
//!
//! The HMC protocol chains cubes over the same serial links a host
//! uses, with each cube's logic layer forwarding foreign packets
//! (HMC 2.1 §7). This module describes who is wired to whom and
//! precomputes, for every (source, destination) pair, the edges of its
//! route — routing is table-driven and deterministic, so simulations
//! are reproducible and the result cache can key on the config alone.
//!
//! Three shapes are modeled, matching the configurations studied by
//! Hadidi et al. for NoC-connected stacks:
//!
//! * **daisy chain** — cubes in a line, host at cube 0;
//! * **ring** — the chain closed into a cycle; packets take the
//!   shorter arc, ties broken clockwise (toward higher cube ids);
//! * **2×2 mesh** — four cubes in a grid with dimension-order (X then
//!   Y) routing, the classic deadlock-free NoC scheme.

use mac_types::{NetConfig, NetTopology};

/// A directed inter-cube connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Transmitting cube.
    pub from: u16,
    /// Receiving cube.
    pub to: u16,
}

/// A topology with its precomputed routes.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    cubes: usize,
    /// All directed edges, in deterministic order.
    edges: Vec<Edge>,
    /// `routes[from * cubes + to]`: indices into `edges` along the route
    /// `from -> to`, in order (empty when `from == to`).
    routes: Vec<Vec<usize>>,
}

impl Topology {
    /// Build the topology described by a network configuration.
    ///
    /// Panics when the shape and cube count disagree (`Mesh2x2` needs
    /// exactly 4 cubes; every shape needs at least 1).
    pub fn new(net: &NetConfig) -> Self {
        let n = net.cubes;
        assert!(n >= 1, "need at least one cube");
        assert!(
            net.topology != NetTopology::Mesh2x2 || n == 4,
            "Mesh2x2 requires exactly 4 cubes, got {n}"
        );
        let mut edges = Vec::new();
        match net.topology {
            NetTopology::DaisyChain => {
                for i in 0..n.saturating_sub(1) {
                    edges.push(Edge {
                        from: i as u16,
                        to: (i + 1) as u16,
                    });
                    edges.push(Edge {
                        from: (i + 1) as u16,
                        to: i as u16,
                    });
                }
            }
            NetTopology::Ring => {
                // A 1- or 2-cube "ring" degenerates to the chain (no
                // duplicate parallel edges).
                for i in 0..n {
                    let j = (i + 1) % n;
                    if i == j
                        || edges.contains(&Edge {
                            from: i as u16,
                            to: j as u16,
                        })
                    {
                        continue;
                    }
                    edges.push(Edge {
                        from: i as u16,
                        to: j as u16,
                    });
                    edges.push(Edge {
                        from: j as u16,
                        to: i as u16,
                    });
                }
            }
            NetTopology::Mesh2x2 => {
                // Cube i sits at (x, y) = (i & 1, i >> 1):
                //   2 — 3
                //   |   |
                //   0 — 1
                for (a, b) in [(0u16, 1u16), (2, 3), (0, 2), (1, 3)] {
                    edges.push(Edge { from: a, to: b });
                    edges.push(Edge { from: b, to: a });
                }
            }
        }

        let routes = (0..n * n)
            .map(|i| {
                let (from, to) = (i / n, i % n);
                let mut route = Vec::new();
                let mut at = from;
                while at != to {
                    let next = Self::next_hop_of(net.topology, n, at, to);
                    let edge = edges
                        .iter()
                        .position(|e| e.from as usize == at && e.to as usize == next)
                        .unwrap_or_else(|| panic!("no edge {at} -> {next}"));
                    route.push(edge);
                    at = next;
                    assert!(route.len() < n, "routing loop from {from} toward {to}");
                }
                route
            })
            .collect();

        Topology {
            cubes: n,
            edges,
            routes,
        }
    }

    /// Next cube on the way from `from` to a different cube `to`.
    fn next_hop_of(kind: NetTopology, n: usize, from: usize, to: usize) -> usize {
        match kind {
            NetTopology::DaisyChain => {
                if to > from {
                    from + 1
                } else {
                    from - 1
                }
            }
            NetTopology::Ring => {
                let fwd = (to + n - from) % n; // hops going clockwise
                let bwd = (from + n - to) % n;
                if fwd <= bwd {
                    (from + 1) % n // ties go clockwise
                } else {
                    (from + n - 1) % n
                }
            }
            NetTopology::Mesh2x2 => {
                // Dimension order: correct X (bit 0) first, then Y.
                if (from ^ to) & 1 != 0 {
                    from ^ 1
                } else {
                    from ^ 2
                }
            }
        }
    }

    /// Number of cubes.
    pub fn cubes(&self) -> usize {
        self.cubes
    }

    /// All directed edges in deterministic order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Indices into [`Self::edges`] along the route `from -> to`, in
    /// order; its length is the hop count.
    #[inline]
    pub fn route(&self, from: u16, to: u16) -> &[usize] {
        debug_assert!((to as usize) < self.cubes, "no cube {to}");
        &self.routes[from as usize * self.cubes + to as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(cubes: usize, topology: NetTopology) -> NetConfig {
        NetConfig {
            cubes,
            topology,
            ..NetConfig::default()
        }
    }

    /// The cubes a route visits, `from` and `to` included.
    fn path(t: &Topology, from: u16, to: u16) -> Vec<u16> {
        let hops = t.route(from, to).iter().map(|&e| t.edges()[e].to);
        std::iter::once(from).chain(hops).collect()
    }

    /// Worst-case hop count from cube 0 (the host attach point).
    fn diameter_from_host(t: &Topology) -> usize {
        (0..t.cubes() as u16)
            .map(|c| t.route(0, c).len())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn chain_paths_are_linear() {
        let t = Topology::new(&net(4, NetTopology::DaisyChain));
        assert_eq!(path(&t, 0, 3), vec![0, 1, 2, 3]);
        assert_eq!(path(&t, 3, 0), vec![3, 2, 1, 0]);
        assert_eq!(t.route(0, 0).len(), 0);
        assert_eq!(diameter_from_host(&t), 3);
        assert_eq!(t.edges().len(), 6);
    }

    #[test]
    fn ring_takes_the_shorter_arc() {
        let t = Topology::new(&net(8, NetTopology::Ring));
        assert_eq!(path(&t, 0, 2), vec![0, 1, 2]);
        assert_eq!(path(&t, 0, 6), vec![0, 7, 6]);
        // Equidistant: ties go clockwise.
        assert_eq!(path(&t, 0, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(diameter_from_host(&t), 4);
        assert_eq!(t.edges().len(), 16);
    }

    #[test]
    fn small_rings_degenerate_to_chains() {
        let t1 = Topology::new(&net(1, NetTopology::Ring));
        assert!(t1.edges().is_empty());
        let t2 = Topology::new(&net(2, NetTopology::Ring));
        assert_eq!(t2.edges().len(), 2, "no duplicate parallel edges");
        assert_eq!(path(&t2, 0, 1), vec![0, 1]);
    }

    #[test]
    fn mesh_routes_dimension_order() {
        let t = Topology::new(&net(4, NetTopology::Mesh2x2));
        // 0 -> 3 corrects X first (0 -> 1), then Y (1 -> 3).
        assert_eq!(path(&t, 0, 3), vec![0, 1, 3]);
        assert_eq!(path(&t, 3, 0), vec![3, 2, 0]);
        assert_eq!(path(&t, 2, 1), vec![2, 3, 1]);
        assert_eq!(diameter_from_host(&t), 2);
        assert_eq!(t.edges().len(), 8);
    }

    #[test]
    #[should_panic(expected = "Mesh2x2 requires exactly 4")]
    fn mesh_rejects_wrong_cube_count() {
        Topology::new(&net(8, NetTopology::Mesh2x2));
    }

    #[test]
    fn every_pair_is_reachable_in_every_shape() {
        for (kind, n) in [
            (NetTopology::DaisyChain, 8),
            (NetTopology::Ring, 8),
            (NetTopology::Mesh2x2, 4),
        ] {
            let t = Topology::new(&net(n, kind));
            for a in 0..n as u16 {
                for b in 0..n as u16 {
                    let p = path(&t, a, b);
                    assert_eq!(p.first(), Some(&a));
                    assert_eq!(p.last(), Some(&b));
                    // Every hop leaves from where the previous one arrived.
                    for (w, &e) in p.windows(2).zip(t.route(a, b)) {
                        assert_eq!((t.edges()[e].from, t.edges()[e].to), (w[0], w[1]));
                    }
                }
            }
        }
    }
}
