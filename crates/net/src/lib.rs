//! # mac-net
//!
//! Multi-cube HMC interconnect: topology + routing ([`Topology`]), a
//! serialized link fabric with pass-through forwarding ([`Fabric`]),
//! and a network of cube devices presenting as one
//! [`hmc_model::MemoryDevice`] ([`NetDevice`]).
//!
//! HMC cubes chain over the same SerDes links a host uses (HMC 2.1
//! §7): a cube receiving a packet addressed elsewhere re-serializes it
//! toward the next hop, paying a pass-through latency in its logic
//! layer plus link serialization on the outgoing edge. This crate
//! models that, for daisy chains, rings and a 2×2 mesh, so the MAC
//! evaluation extends from one cube to capacity-scaled networks — and
//! so coalescer *placement* (host-side vs. one MAC per cube ingress)
//! becomes a measurable design axis.
//!
//! Everything is deterministic: routing is table-driven, each link
//! group sends on its earliest-free link (lowest index on ties), and
//! error injection only runs on the host link. A 1-cube network reproduces
//! the single-device model bit for bit (see
//! `device::tests::one_cube_matches_hmc_device_exactly`), which anchors
//! the network results to the validated single-cube baseline.

#![warn(missing_docs)]

pub mod device;
pub mod fabric;
pub mod stats;
pub mod topology;

pub use device::NetDevice;
pub use fabric::Fabric;
pub use stats::NetStats;
pub use topology::{Edge, Topology};
