//! # mac-serve — simulation-as-a-service
//!
//! A persistent, multi-client job server over the `mac-sim` experiment
//! engine. Instead of paying process startup and a cold cache for every
//! `mac-bench` invocation, clients submit simulation jobs to a long-lived
//! server that owns one shared [`SimPool`](mac_sim::engine::SimPool) and
//! one shared content-addressed artifact store under `results/`:
//!
//! * **Deterministic job model** ([`job`]) — a submission is either a
//!   manifest entry or a raw system configuration, keyed by the same
//!   128-bit fingerprint the result cache uses. Identical submissions
//!   dedupe in flight; warm hits return instantly from the store.
//! * **Admission control** ([`admission`]) — a pure, deterministic
//!   supervisor in the evidence-accumulation + hysteresis idiom: a
//!   bounded queue, per-client fairness caps, and load shedding with
//!   explicit `retry-after` backpressure responses instead of hangs.
//! * **Versioned wire protocol** ([`proto`]) — line-delimited flat JSON
//!   over TCP, framed and versioned like the repo's `.mrc`/`.art` text
//!   formats (`"proto":"macs-1"` on every message).
//! * **Server** ([`server`]) and **client** ([`client`]) — a std-only
//!   threaded TCP server with submit/poll/wait/fetch/stats verbs,
//!   pause/resume flow control, drain-then-exit graceful shutdown, and
//!   server-level counters exported in the mac-metrics v1 format.
//!
//! The CLI surface lives in `mac-bench`: `mac-bench serve` starts a
//! server, `mac-bench client …` drives one. See DESIGN.md §13 for the
//! architecture and README "Serving simulations" for a quick-start.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod job;
pub mod proto;
pub mod server;
pub mod store;

pub use admission::{Admission, AdmissionConfig, Decision, Observation};
pub use client::ServeClient;
pub use job::{JobKind, JobSpec, JobState};
pub use proto::{Frame, Request, Response, PROTO_VERSION};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::ArtifactStore;
