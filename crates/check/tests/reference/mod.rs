//! The map-based `ConformanceChecker` and `OracleReplay` that the
//! sequence-indexed ones replaced, moved here unchanged apart from
//! imports and their unit tests. Only the differential test uses them.

#![allow(dead_code)]

pub mod invariants;
pub mod oracle;
