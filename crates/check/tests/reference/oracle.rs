//! The map-based timing-free functional oracle, kept as the reference
//! for `mac_check::OracleReplay` (it diffs the reference checker).
//!
//! [`OracleReplay`] re-executes the same thread programs the simulator
//! ran, with no pipelining, no coalescing, and no timing model — just
//! program order, address decode, and per-request service accounting.
//! It is *obviously* correct (a straight walk over the operation lists),
//! which makes it a trustworthy second witness: after a checked run,
//! [`OracleReplay::diff`] compares its expectations against what the
//! [`ConformanceChecker`] observed the real pipeline do, and any
//! difference is a functional bug in the simulator regardless of which
//! invariants happened to fire.

use std::collections::BTreeMap;

use mac_types::{MemOpKind, PhysAddr};
use soc_sim::ThreadOp;

use super::invariants::{ConformanceChecker, KindCounts};

/// Expected functional outcome of a workload, computed by straight
/// replay of its thread programs.
#[derive(Debug, Clone, Default)]
pub struct OracleReplay {
    /// `(node, tid)` -> program-order `(address, kind)` memory stream.
    per_thread: BTreeMap<(u16, u16), Vec<(u64, MemOpKind)>>,
    /// Raw memory requests (loads/stores/atomics) each row must serve.
    served_per_row: BTreeMap<u64, u64>,
    counts: KindCounts,
}

impl OracleReplay {
    /// Replay `ops[node][tid]` operation lists. A thread's walk stops at
    /// its first explicit [`ThreadOp::Done`] (the simulator treats `Done`
    /// as terminal even mid-list); `Compute`/`Spm` ops never reach
    /// memory and are skipped.
    pub fn replay(ops_per_node: &[Vec<Vec<ThreadOp>>]) -> Self {
        let mut oracle = OracleReplay::default();
        for (node, threads) in ops_per_node.iter().enumerate() {
            for (tid, ops) in threads.iter().enumerate() {
                let key = (node as u16, tid as u16);
                let log = oracle.per_thread.entry(key).or_default();
                for op in ops {
                    match *op {
                        ThreadOp::Done => break,
                        ThreadOp::Compute(_) | ThreadOp::Spm => {}
                        ThreadOp::Mem { addr, kind } => {
                            // Decode exactly like the real pipeline must:
                            // masked physical address, row = addr / 256 B.
                            let addr = PhysAddr::new(addr.raw());
                            log.push((addr.raw(), kind));
                            match kind {
                                MemOpKind::Load => oracle.counts.loads += 1,
                                MemOpKind::Store => oracle.counts.stores += 1,
                                MemOpKind::Atomic => oracle.counts.atomics += 1,
                                MemOpKind::Fence => oracle.counts.fences += 1,
                            }
                            if kind != MemOpKind::Fence {
                                *oracle.served_per_row.entry(addr.row().0).or_default() += 1;
                            }
                        }
                    }
                }
            }
        }
        oracle
    }

    /// Per-kind totals the workload must generate.
    pub fn counts(&self) -> &KindCounts {
        &self.counts
    }

    /// Expected raw memory requests per row number.
    pub fn served_per_row(&self) -> &BTreeMap<u64, u64> {
        &self.served_per_row
    }

    /// Diff the oracle's expectations against what the checker observed.
    /// Returns one human-readable divergence per mismatch (empty means
    /// the run was functionally faithful). Call after the checker's
    /// `finish` — a partial run diffs as missing requests.
    pub fn diff(&self, checker: &ConformanceChecker) -> Vec<String> {
        let mut out = Vec::new();
        let observed = checker.counts();
        if *observed != self.counts {
            out.push(format!(
                "request counts diverge: oracle {:?}, simulator {:?}",
                self.counts, observed
            ));
        }
        if checker.completions_total() != self.counts.total() {
            out.push(format!(
                "completions diverge: oracle expects {}, simulator delivered {}",
                self.counts.total(),
                checker.completions_total()
            ));
        }

        // Program-order streams, both directions.
        let sim = checker.per_thread_log();
        for (thread, expected) in &self.per_thread {
            let got = sim.get(thread).map(Vec::as_slice).unwrap_or(&[]);
            if got != expected.as_slice() {
                let first_bad = expected
                    .iter()
                    .zip(got.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| expected.len().min(got.len()));
                out.push(format!(
                    "thread {:?} stream diverges at op {} (oracle {} ops, simulator {}): \
                     oracle {:?}, simulator {:?}",
                    thread,
                    first_bad,
                    expected.len(),
                    got.len(),
                    expected.get(first_bad),
                    got.get(first_bad)
                ));
            }
        }
        for thread in sim.keys() {
            if !self.per_thread.contains_key(thread) && !sim[thread].is_empty() {
                out.push(format!(
                    "simulator issued {} ops for thread {:?} the oracle never ran",
                    sim[thread].len(),
                    thread
                ));
            }
        }

        // Row-level service accounting.
        let sim_rows = checker.served_per_row();
        for (&row, &expected) in &self.served_per_row {
            let got = sim_rows.get(&row).copied().unwrap_or(0);
            if got != expected {
                out.push(format!(
                    "row {row:#x} served {got} raw requests, oracle expects {expected}"
                ));
            }
        }
        for (&row, &got) in sim_rows {
            if !self.served_per_row.contains_key(&row) {
                out.push(format!(
                    "row {row:#x} served {got} raw requests the oracle never decoded"
                ));
            }
        }
        out
    }
}
