//! # hmc-model
//!
//! Cycle-accurate-enough Hybrid Memory Cube device model — the workspace's
//! replacement for HMCSim-3.0 (Leidel & Chen 2014), which the paper used
//! as its memory back end.
//!
//! The model covers everything the MAC evaluation observes:
//!
//! * **Packetized links** (§2.2.2): request/response packets of 1–17 FLITs,
//!   one control FLIT per packet (32 B overhead per access), serialized on
//!   4 full-duplex links at 30 GB/s each.
//! * **Vault/bank structure** (§2.2.1): 32 vaults x 16 banks (512 banks in
//!   an 8 GB cube), 256 B DRAM rows, vault-interleaved addressing.
//! * **Closed-page policy** (§2.2.1): every access pays
//!   activate + column + burst + precharge; there is no row-buffer hit
//!   path, so requests to a busy bank queue behind it — those stalls are
//!   counted as **bank conflicts**, the quantity Figure 12 reports.
//! * **Bandwidth accounting**: data vs. control bytes on the links, from
//!   which Figures 13 and 14 are computed.
//!
//! The device is *transaction-driven*: [`MemoryDevice::submit`]
//! analytically schedules a request through link → crossbar → vault
//! queue → bank → response link and returns its completion time,
//! provided submissions arrive in non-decreasing cycle order (which a
//! cycle-driven front end guarantees). Completed responses are popped one
//! at a time with [`MemoryDevice::pop_completed`].
//!
//! The HBM ([`HbmDevice`]) and DDR4 ([`DdrDevice`]) back ends and
//! `mac_net::NetDevice` sit behind the same trait. Each keeps only its
//! timing model; they share the [`ResponsePath`] that turns a finished
//! access into a response and a statistic, the HMC [`HostPort`] (cube and
//! cube network), and the open-page bank step (HBM and DDR).

#![warn(missing_docs)]

pub mod addrmap;
mod admission;
mod completion;
pub mod ddr;
pub mod device;
mod device_trait;
pub mod hbm;
mod host;
pub mod link;
mod open_page;
mod response;
pub mod stats;
pub mod vault;

pub use addrmap::{AddrMap, BankAddr, NetAddrMap};
pub use admission::AdmissionQueue;
pub use completion::CompletionQueue;
pub use ddr::DdrDevice;
pub use device::HmcDevice;
pub use device_trait::MemoryDevice;
pub use hbm::HbmDevice;
pub use host::HostPort;
pub use link::LinkSet;
pub use response::ResponsePath;
pub use stats::HmcStats;
pub use vault::VaultSet;
