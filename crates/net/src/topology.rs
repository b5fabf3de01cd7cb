//! Cube-network topologies and deterministic routing tables.
//!
//! The HMC protocol chains cubes over the same serial links a host
//! uses, with each cube's logic layer forwarding foreign packets
//! (HMC 2.1 §7). This module describes who is wired to whom and
//! precomputes, for every (source, destination) pair, the full hop
//! path — routing is table-driven and deterministic, so simulations
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

/// A topology with its precomputed routing tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    cubes: usize,
    kind: NetTopology,
    /// All directed edges, in deterministic order.
    edges: Vec<Edge>,
    /// `next[from][to]` = next cube on the path from `from` to `to`
    /// (`from` itself when already there).
    next: Vec<Vec<u16>>,
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

        let next = (0..n)
            .map(|from| {
                (0..n)
                    .map(|to| Self::next_hop_of(net.topology, n, from, to))
                    .collect()
            })
            .collect();

        Topology {
            cubes: n,
            kind: net.topology,
            edges,
            next,
        }
    }

    fn next_hop_of(kind: NetTopology, n: usize, from: usize, to: usize) -> u16 {
        if from == to {
            return from as u16;
        }
        let hop = match kind {
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
        };
        hop as u16
    }

    /// Number of cubes.
    pub fn cubes(&self) -> usize {
        self.cubes
    }

    /// The shape this topology was built from.
    pub fn kind(&self) -> NetTopology {
        self.kind
    }

    /// All directed edges in deterministic order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Index of a directed edge in [`Self::edges`].
    pub fn edge_index(&self, from: u16, to: u16) -> usize {
        self.edges
            .iter()
            .position(|e| e.from == from && e.to == to)
            .unwrap_or_else(|| panic!("no edge {from} -> {to}"))
    }

    /// Next cube on the path `from -> to` (`from` when equal).
    fn next_hop(&self, from: u16, to: u16) -> u16 {
        self.next[from as usize][to as usize]
    }

    /// Full cube sequence `from, ..., to` (both endpoints included).
    pub fn path(&self, from: u16, to: u16) -> Vec<u16> {
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            let nxt = self.next_hop(at, to);
            assert_ne!(nxt, at, "routing loop at cube {at} toward {to}");
            path.push(nxt);
            at = nxt;
            assert!(
                path.len() <= self.cubes,
                "path longer than the cube count: {path:?}"
            );
        }
        path
    }

    /// Hop count (edges traversed) from `from` to `to`.
    pub fn hops(&self, from: u16, to: u16) -> usize {
        self.path(from, to).len() - 1
    }

    /// Worst-case hop count from cube 0 (the host attach point).
    pub fn diameter_from_host(&self) -> usize {
        (0..self.cubes as u16)
            .map(|c| self.hops(0, c))
            .max()
            .unwrap_or(0)
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

    #[test]
    fn chain_paths_are_linear() {
        let t = Topology::new(&net(4, NetTopology::DaisyChain));
        assert_eq!(t.path(0, 3), vec![0, 1, 2, 3]);
        assert_eq!(t.path(3, 0), vec![3, 2, 1, 0]);
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.diameter_from_host(), 3);
        assert_eq!(t.edges().len(), 6);
    }

    #[test]
    fn ring_takes_the_shorter_arc() {
        let t = Topology::new(&net(8, NetTopology::Ring));
        assert_eq!(t.path(0, 2), vec![0, 1, 2]);
        assert_eq!(t.path(0, 6), vec![0, 7, 6]);
        // Equidistant: ties go clockwise.
        assert_eq!(t.path(0, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(t.diameter_from_host(), 4);
        assert_eq!(t.edges().len(), 16);
    }

    #[test]
    fn small_rings_degenerate_to_chains() {
        let t1 = Topology::new(&net(1, NetTopology::Ring));
        assert!(t1.edges().is_empty());
        let t2 = Topology::new(&net(2, NetTopology::Ring));
        assert_eq!(t2.edges().len(), 2, "no duplicate parallel edges");
        assert_eq!(t2.path(0, 1), vec![0, 1]);
    }

    #[test]
    fn mesh_routes_dimension_order() {
        let t = Topology::new(&net(4, NetTopology::Mesh2x2));
        // 0 -> 3 corrects X first (0 -> 1), then Y (1 -> 3).
        assert_eq!(t.path(0, 3), vec![0, 1, 3]);
        assert_eq!(t.path(3, 0), vec![3, 2, 0]);
        assert_eq!(t.path(2, 1), vec![2, 3, 1]);
        assert_eq!(t.diameter_from_host(), 2);
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
                    let p = t.path(a, b);
                    assert_eq!(p.first(), Some(&a));
                    assert_eq!(p.last(), Some(&b));
                    // Every consecutive pair is a real edge.
                    for w in p.windows(2) {
                        assert!(t.edges().iter().any(|e| e.from == w[0] && e.to == w[1]));
                    }
                }
            }
        }
    }
}
