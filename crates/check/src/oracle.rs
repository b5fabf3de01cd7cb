//! The timing-free functional oracle.
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

use std::borrow::Cow;
use std::collections::BTreeMap;

use mac_types::{MemOpKind, PhysAddr};
use soc_sim::ThreadOp;

use crate::invariants::{ConformanceChecker, KindCounts};

/// Expected functional outcome of a workload, computed by straight
/// replay of its thread programs.
#[derive(Debug, Clone, Default)]
pub struct OracleReplay {
    /// `(node, tid)` -> program-order `(address, kind)` memory stream.
    per_thread: BTreeMap<(u16, u16), Vec<(u64, MemOpKind)>>,
    /// Row of every raw memory request (load/store/atomic), sorted.
    rows: Vec<u64>,
    counts: KindCounts,
}

/// Requests per row of a sorted row list.
fn row_counts(sorted: &[u64]) -> BTreeMap<u64, u64> {
    let mut counts = BTreeMap::new();
    for &row in sorted {
        *counts.entry(row).or_default() += 1;
    }
    counts
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
                                oracle.rows.push(addr.row().0);
                            }
                        }
                    }
                }
            }
        }
        oracle.rows.sort_unstable();
        oracle
    }

    /// Per-kind totals the workload must generate.
    pub fn counts(&self) -> &KindCounts {
        &self.counts
    }

    /// Expected raw memory requests per row number.
    pub fn served_per_row(&self) -> BTreeMap<u64, u64> {
        row_counts(&self.rows)
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
        for (thread, expected) in &self.per_thread {
            let got = checker.thread_log(*thread);
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
        for (thread, log) in checker.thread_logs() {
            if !self.per_thread.contains_key(&thread) {
                out.push(format!(
                    "simulator issued {} ops for thread {:?} the oracle never ran",
                    log.len(),
                    thread
                ));
            }
        }

        // Row-level service accounting: equal sorted row lists serve
        // every row equally often; only a difference needs the counts.
        let sim_rows = match checker.served_rows() {
            rows if rows.is_sorted() => Cow::Borrowed(rows),
            rows => {
                let mut rows = rows.to_vec();
                rows.sort_unstable();
                Cow::Owned(rows)
            }
        };
        if *sim_rows != self.rows {
            let expected_rows = row_counts(&self.rows);
            let sim_rows = row_counts(&sim_rows);
            for (&row, &expected) in &expected_rows {
                let got = sim_rows.get(&row).copied().unwrap_or(0);
                if got != expected {
                    out.push(format!(
                        "row {row:#x} served {got} raw requests, oracle expects {expected}"
                    ));
                }
            }
            for (&row, &got) in &sim_rows {
                if !expected_rows.contains_key(&row) {
                    out.push(format!(
                        "row {row:#x} served {got} raw requests the oracle never decoded"
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::{NodeId, RawRequest, SystemConfig, Target, TransactionId};

    fn mem(addr: u64, kind: MemOpKind) -> ThreadOp {
        ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind,
        }
    }

    #[test]
    fn replay_decodes_rows_and_counts() {
        let ops = vec![vec![vec![
            ThreadOp::Compute(5),
            mem(0x100, MemOpKind::Load),
            mem(0x110, MemOpKind::Store),
            mem(0x400, MemOpKind::Load),
            mem(0, MemOpKind::Fence),
            ThreadOp::Done,
            mem(0x9999, MemOpKind::Load), // unreachable past Done
        ]]];
        let o = OracleReplay::replay(&ops);
        assert_eq!(o.counts().loads, 2);
        assert_eq!(o.counts().stores, 1);
        assert_eq!(o.counts().fences, 1);
        // 0x100 and 0x110 share row 1; 0x400 is row 4; the fence hits no row.
        assert_eq!(o.served_per_row().get(&1), Some(&2));
        assert_eq!(o.served_per_row().get(&4), Some(&1));
        assert_eq!(o.served_per_row().len(), 2);
    }

    #[test]
    fn diff_flags_missing_and_reordered_requests() {
        let ops = vec![vec![vec![
            mem(0x100, MemOpKind::Load),
            mem(0x400, MemOpKind::Load),
        ]]];
        let o = OracleReplay::replay(&ops);

        // A checker that saw only the first request, never completed.
        let mut c = ConformanceChecker::new(&SystemConfig::paper(1));
        let a = PhysAddr::new(0x100);
        c.on_raw_issued(
            &RawRequest {
                id: TransactionId(1),
                addr: a,
                kind: MemOpKind::Load,
                node: NodeId(0),
                home: NodeId(0),
                target: Target {
                    tid: 0,
                    tag: 0,
                    flit: a.flit(),
                },
                issued_at: 0,
            },
            0,
        );
        let d = o.diff(&c);
        assert!(d.iter().any(|m| m.contains("counts diverge")), "{d:?}");
        assert!(d.iter().any(|m| m.contains("stream diverges")), "{d:?}");
        assert!(d.iter().any(|m| m.contains("row 0x4")), "{d:?}");
    }

    #[test]
    fn diff_is_empty_for_faithful_observation() {
        let ops = vec![vec![vec![mem(0x100, MemOpKind::Load)]]];
        let o = OracleReplay::replay(&ops);
        let mut c = ConformanceChecker::new(&SystemConfig::paper(1));
        let a = PhysAddr::new(0x100);
        let raw = RawRequest {
            id: TransactionId(7),
            addr: a,
            kind: MemOpKind::Load,
            node: NodeId(0),
            home: NodeId(0),
            target: Target {
                tid: 0,
                tag: 0,
                flit: a.flit(),
            },
            issued_at: 0,
        };
        c.on_raw_issued(&raw, 0);
        let txn = mac_types::HmcRequest {
            addr: a.flit_base(),
            size: mac_types::ReqSize::B16,
            is_write: false,
            is_atomic: false,
            flit_map: mac_types::FlitMap::single(a.flit()),
            targets: vec![raw.target],
            raw_ids: vec![raw.id],
            dispatched_at: 1,
        };
        c.on_dispatch(&txn, 1);
        c.on_completion(raw.id, 5);
        assert!(o.diff(&c).is_empty());
    }
}
