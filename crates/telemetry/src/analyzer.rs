//! Offline trace analyzers.
//!
//! Consume a recorded event stream (from any sink) and derive the
//! time-resolved observables the paper's evaluation is built on:
//!
//! - **Coalescing-window histogram** — cycles between an ARQ entry's
//!   allocation and the last FLIT merged into it; how long the paper's
//!   `pop_interval`-driven aggregation window actually stays open
//!   (context for Figures 10/15).
//! - **Row-reuse distance** — dispatches between consecutive touches of
//!   the same DRAM row; small distances the MAC failed to merge are
//!   missed coalescing opportunities.
//! - **Per-vault queue-occupancy time series** — vault pressure over
//!   time (Figure 11's bandwidth story seen from the queues).
//! - **Bank-conflict heatmap** — conflicts per (vault, bank) cell
//!   (Figure 12's observable, spatially resolved).

use std::collections::HashMap;

use crate::event::{TraceEvent, TraceRecord};

/// A small fixed power-of-two-bucket histogram: bucket `i` counts values
/// in `[2^(i-1), 2^i)`, with bucket 0 counting zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PowHistogram {
    /// Bucket `i` counts values in `[2^(i-1), 2^i)`; bucket 0 is zeros.
    pub buckets: [u64; 24],
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating at `u64::MAX`).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl PowHistogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let idx = match v {
            0 => 0,
            _ => ((64 - v.leading_zeros()) as usize).min(self.buckets.len() - 1),
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Render as `label: count` lines with proportional bars.
    pub fn render(&self, unit: &str) -> String {
        let mut out = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let label = match i {
                0 => "0".to_string(),
                1 => "1".to_string(),
                _ => format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1),
            };
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  {label:>14} {unit} | {n:>8} {bar}\n"));
        }
        if self.count > 0 {
            out.push_str(&format!(
                "  mean {:.1} {unit}, max {} {unit}, n={}\n",
                self.mean(),
                self.max,
                self.count
            ));
        }
        out
    }
}

/// One vault's queue-occupancy time series, as (cycle, depth) samples at
/// each enqueue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySeries {
    /// `(cycle, queue depth)` pairs, one per enqueue.
    pub samples: Vec<(u64, u16)>,
}

impl OccupancySeries {
    /// Peak queue depth observed.
    pub fn max(&self) -> u16 {
        self.samples.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Mean queue depth across samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|&(_, d)| d as u64).sum::<u64>() as f64
                / self.samples.len() as f64
        }
    }
}

/// Everything the analyzers derive from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Events seen, keyed by `TraceEvent::tag()`.
    pub event_counts: HashMap<&'static str, u64>,
    /// Coalescing window per ARQ entry (alloc -> last merge), cycles.
    pub coalescing_window: PowHistogram,
    /// Merged raw requests per dispatched transaction.
    pub targets_per_dispatch: PowHistogram,
    /// Row-reuse distance over the dispatch stream (per node).
    pub row_reuse: PowHistogram,
    /// Queue-occupancy series keyed by (node, vault).
    pub vault_occupancy: HashMap<(u16, u8), OccupancySeries>,
    /// Bank conflicts keyed by (node, vault, bank).
    pub bank_conflicts: HashMap<(u16, u8, u8), u64>,
    /// Total cycles spent waiting on busy banks (saturating).
    pub conflict_wait_cycles: u64,
    /// Records analyzed.
    pub records: u64,
}

/// Run every analyzer over `records` (one pass).
pub fn analyze(records: &[TraceRecord]) -> TraceAnalysis {
    let mut a = TraceAnalysis {
        records: records.len() as u64,
        ..TraceAnalysis::default()
    };

    // Per-(node, entry) alloc cycle and last-merge cycle.
    let mut alloc_at: HashMap<(u16, u32), u64> = HashMap::new();
    let mut last_merge: HashMap<(u16, u32), u64> = HashMap::new();
    // Per-node dispatch sequence number and last-touch index per row.
    let mut dispatch_seq: HashMap<u16, u64> = HashMap::new();
    let mut row_last_touch: HashMap<(u16, u64), u64> = HashMap::new();

    for rec in records {
        *a.event_counts.entry(rec.event.kind_name()).or_insert(0) += 1;
        match rec.event {
            TraceEvent::ArqAlloc { entry, .. } => {
                alloc_at.insert((rec.node, entry), rec.cycle);
            }
            TraceEvent::ArqMerge { entry, .. } => {
                last_merge.insert((rec.node, entry), rec.cycle);
            }
            TraceEvent::ArqPop { entry, .. } => {
                // Close the entry's window at pop time.
                if let Some(open) = alloc_at.remove(&(rec.node, entry)) {
                    let close = last_merge.remove(&(rec.node, entry)).unwrap_or(open);
                    a.coalescing_window.record(close.saturating_sub(open));
                }
            }
            TraceEvent::Dispatch { addr, targets, .. } => {
                a.targets_per_dispatch.record(targets as u64);
                let row = addr >> 8;
                let seq = dispatch_seq.entry(rec.node).or_insert(0);
                if let Some(prev) = row_last_touch.insert((rec.node, row), *seq) {
                    a.row_reuse.record(*seq - prev - 1);
                }
                *seq += 1;
            }
            TraceEvent::VaultEnqueue { vault, occupancy } => {
                a.vault_occupancy
                    .entry((rec.node, vault))
                    .or_default()
                    .samples
                    .push((rec.cycle, occupancy));
            }
            TraceEvent::BankConflict {
                vault,
                bank,
                waited,
            } => {
                *a.bank_conflicts.entry((rec.node, vault, bank)).or_insert(0) += 1;
                a.conflict_wait_cycles = a.conflict_wait_cycles.saturating_add(waited);
            }
            _ => {}
        }
    }

    // Entries still open at end of trace: count their window too (the
    // run ended before they popped).
    for ((node, entry), open) in alloc_at {
        let close = last_merge.remove(&(node, entry)).unwrap_or(open);
        a.coalescing_window.record(close.saturating_sub(open));
    }

    a
}

impl TraceAnalysis {
    /// Total bank conflicts across all cells.
    fn total_conflicts(&self) -> u64 {
        self.bank_conflicts.values().sum()
    }

    /// Count of one event kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.event_counts.get(kind).copied().unwrap_or(0)
    }

    /// Render the bank-conflict heatmap for one node as a vault x bank
    /// text grid (digits are log2-scaled intensity), one row per vault
    /// with at least one conflict.
    fn render_conflict_heatmap(&self, node: u16) -> String {
        let mut cells: Vec<(u8, u8, u64)> = self
            .bank_conflicts
            .iter()
            .filter(|((n, _, _), _)| *n == node)
            .map(|((_, v, b), &c)| (*v, *b, c))
            .collect();
        if cells.is_empty() {
            return format!("  node{node}: no bank conflicts\n");
        }
        cells.sort_unstable();
        // Sized in usize: bank 255 needs 256 columns.
        let banks = cells
            .iter()
            .map(|&(_, b, _)| usize::from(b))
            .max()
            .unwrap_or(0)
            + 1;
        let mut rows: Vec<(u8, Vec<u64>)> = Vec::new();
        for (v, b, c) in cells {
            if rows.last().is_none_or(|(last, _)| *last != v) {
                rows.push((v, vec![0; banks]));
            }
            let (_, row) = rows.last_mut().expect("pushed above");
            row[usize::from(b)] = c;
        }
        let mut out = format!("  node{node} (rows=vaults, cols=banks; digit = log2(conflicts)):\n");
        for (v, row) in &rows {
            out.push_str(&format!("  v{v:>2} "));
            for &c in row {
                out.push(match c {
                    0 => '.',
                    _ => {
                        let mag = 64 - c.leading_zeros() as u64; // 1..=9+
                        char::from_digit(mag.min(9) as u32, 10).unwrap_or('9')
                    }
                });
            }
            out.push('\n');
        }
        out
    }

    /// Render per-vault occupancy summaries for one node.
    fn render_vault_occupancy(&self, node: u16) -> String {
        let mut vaults: Vec<(&(u16, u8), &OccupancySeries)> = self
            .vault_occupancy
            .iter()
            .filter(|((n, _), _)| *n == node)
            .collect();
        if vaults.is_empty() {
            return format!("  node{node}: no vault enqueues\n");
        }
        vaults.sort_by_key(|((_, v), _)| *v);
        let mut out = String::new();
        for ((_, v), series) in vaults {
            out.push_str(&format!(
                "  vault{v:<3} mean depth {:>5.2}  max {:>3}  samples {}\n",
                series.mean(),
                series.max(),
                series.samples.len()
            ));
        }
        out
    }

    /// Full multi-section text report (used by `trace_tools events`).
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("records: {}\n\nevent counts:\n", self.records));
        let mut counts: Vec<(&&str, &u64)> = self.event_counts.iter().collect();
        counts.sort();
        for (kind, n) in counts {
            out.push_str(&format!("  {kind:<16} {n:>10}\n"));
        }
        out.push_str("\ncoalescing window (alloc -> last merge, cycles):\n");
        out.push_str(&self.coalescing_window.render("cyc"));
        out.push_str("\ntargets per dispatch:\n");
        out.push_str(&self.targets_per_dispatch.render("req"));
        out.push_str("\nrow-reuse distance (dispatches between same-row touches):\n");
        out.push_str(&self.row_reuse.render("txn"));

        let mut nodes: Vec<u16> = self
            .vault_occupancy
            .keys()
            .map(|&(n, _)| n)
            .chain(self.bank_conflicts.keys().map(|&(n, _, _)| n))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        out.push_str("\nvault queue occupancy:\n");
        for &n in &nodes {
            out.push_str(&self.render_vault_occupancy(n));
        }
        out.push_str(&format!(
            "\nbank conflicts: {} total, {} cycles waited\n",
            self.total_conflicts(),
            self.conflict_wait_cycles
        ));
        for &n in &nodes {
            out.push_str(&self.render_conflict_heatmap(n));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, node: u16, event: TraceEvent) -> TraceRecord {
        TraceRecord { cycle, node, event }
    }

    #[test]
    fn coalescing_window_is_alloc_to_last_merge() {
        let records = vec![
            rec(
                10,
                0,
                TraceEvent::ArqAlloc {
                    entry: 1,
                    row: 5,
                    is_store: false,
                    occupancy: 1,
                },
            ),
            rec(
                12,
                0,
                TraceEvent::ArqMerge {
                    entry: 1,
                    row: 5,
                    targets: 2,
                },
            ),
            rec(
                17,
                0,
                TraceEvent::ArqMerge {
                    entry: 1,
                    row: 5,
                    targets: 3,
                },
            ),
            rec(
                30,
                0,
                TraceEvent::ArqPop {
                    entry: 1,
                    kind: 0,
                    occupancy: 0,
                },
            ),
            // Un-merged entry: window 0.
            rec(
                40,
                0,
                TraceEvent::ArqAlloc {
                    entry: 2,
                    row: 9,
                    is_store: false,
                    occupancy: 1,
                },
            ),
            rec(
                44,
                0,
                TraceEvent::ArqPop {
                    entry: 2,
                    kind: 1,
                    occupancy: 0,
                },
            ),
        ];
        let a = analyze(&records);
        assert_eq!(a.coalescing_window.count, 2);
        assert_eq!(a.coalescing_window.max, 7);
        assert_eq!(
            a.coalescing_window.buckets[0], 1,
            "bypass entry has zero window"
        );
    }

    #[test]
    fn row_reuse_counts_intervening_dispatches() {
        let d = |addr| TraceEvent::Dispatch {
            addr,
            bytes: 64,
            provenance: 1,
            targets: 1,
        };
        // Rows: A B A -> distance 1 (one dispatch between the A touches).
        let records = vec![
            rec(1, 0, d(0x100)),
            rec(2, 0, d(0x200)),
            rec(3, 0, d(0x100)),
        ];
        let a = analyze(&records);
        assert_eq!(a.row_reuse.count, 1);
        assert_eq!(a.row_reuse.max, 1);

        // Back-to-back same row -> distance 0.
        let records = vec![rec(1, 0, d(0x300)), rec(2, 0, d(0x300))];
        let a = analyze(&records);
        assert_eq!(a.row_reuse.count, 1);
        assert_eq!(a.row_reuse.buckets[0], 1);
    }

    #[test]
    fn conflicts_and_occupancy_are_keyed_per_vault() {
        let records = vec![
            rec(
                5,
                0,
                TraceEvent::VaultEnqueue {
                    vault: 3,
                    occupancy: 1,
                },
            ),
            rec(
                6,
                0,
                TraceEvent::VaultEnqueue {
                    vault: 3,
                    occupancy: 2,
                },
            ),
            rec(
                7,
                0,
                TraceEvent::BankConflict {
                    vault: 3,
                    bank: 9,
                    waited: 50,
                },
            ),
            rec(
                8,
                0,
                TraceEvent::BankConflict {
                    vault: 3,
                    bank: 9,
                    waited: 25,
                },
            ),
            rec(
                9,
                1,
                TraceEvent::BankConflict {
                    vault: 0,
                    bank: 1,
                    waited: 10,
                },
            ),
        ];
        let a = analyze(&records);
        assert_eq!(a.total_conflicts(), 3);
        assert_eq!(a.bank_conflicts[&(0, 3, 9)], 2);
        assert_eq!(a.conflict_wait_cycles, 85);
        let series = &a.vault_occupancy[&(0, 3)];
        assert_eq!(series.max(), 2);
        assert_eq!(series.samples, vec![(5, 1), (6, 2)]);
        // Render paths stay panic-free and mention the data.
        assert!(a.render_report().contains("bank conflicts: 3 total"));
        assert!(a.render_conflict_heatmap(1).contains("v 0"));
    }

    #[test]
    fn open_entries_at_eof_still_count() {
        let records = vec![
            rec(
                10,
                0,
                TraceEvent::ArqAlloc {
                    entry: 1,
                    row: 5,
                    is_store: true,
                    occupancy: 1,
                },
            ),
            rec(
                15,
                0,
                TraceEvent::ArqMerge {
                    entry: 1,
                    row: 5,
                    targets: 2,
                },
            ),
        ];
        let a = analyze(&records);
        assert_eq!(a.coalescing_window.count, 1);
        assert_eq!(a.coalescing_window.max, 5);
    }

    #[test]
    fn pow_histogram_buckets_are_log2() {
        let mut h = PowHistogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2-3
        assert_eq!(h.buckets[3], 2); // 4-7
        assert_eq!(h.buckets[4], 1); // 8-15
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 1000);
    }
}
