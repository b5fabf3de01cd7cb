//! One function per paper table/figure, returning the rows the
//! `mac-bench` experiment catalog renders (and EXPERIMENTS.md records).
//!
//! Functions that run the system simulator take a [`SimPool`] so sweeps
//! fan out across its workers and share its result cache; the analytic
//! figures (3, 16) and the LLC-replay Figure 1 need no pool.

use cache_model::{Cache, CacheConfig};
use mac_types::{bandwidth, MacConfig, PhysAddr, SystemConfig};
use mac_workloads::{all_workloads, sg, WorkloadParams};

use crate::engine::SimPool;
use crate::experiment::{parallel_map, ExperimentConfig};
use crate::report::RunReport;

/// Render rows of `(label, values...)` as an aligned text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Table 1: the simulated configuration (static echo of the defaults).
pub fn table1() -> Vec<(String, String)> {
    let c = SystemConfig::default();
    vec![
        ("ISA".into(), "RV64IM(+A subset) via rv64-sim".into()),
        ("Core #".into(), c.soc.cores.to_string()),
        ("CPU Frequency".into(), format!("{} GHz", c.soc.freq_ghz)),
        (
            "SPM".into(),
            format!("{} MB per core", c.soc.spm_bytes >> 20),
        ),
        ("Avg. SPM Access Latency".into(), "1 ns".into()),
        (
            "HMC".into(),
            format!(
                "{} Links, {}GB, {}B-block",
                c.hmc.links,
                c.hmc.capacity >> 30,
                c.hmc.row_bytes
            ),
        ),
        ("Avg. HMC Access Latency".into(), "93 ns".into()),
        (
            "ARQ".into(),
            format!(
                "{} entries, {}B per entry",
                c.mac.arq_entries, c.mac.arq_entry_bytes
            ),
        ),
    ]
}

/// One Figure 1 (left) row: workload, LLC miss rate.
///
/// The paper measured GB-scale datasets against MB-scale caches; our
/// simulation datasets are scaled down, so the cache is scaled
/// proportionally (64 KB here vs the full 2 MB LLC) to preserve the
/// dataset:cache ratio that determines the miss rate. EXPERIMENTS.md
/// records this substitution.
pub fn fig01_missrates(scale: u32, seed: u64) -> Vec<(String, f64)> {
    let params = WorkloadParams {
        threads: 8,
        scale,
        seed,
    };
    let ws = all_workloads();
    let inputs: Vec<_> = ws.iter().collect();
    let rates = parallel_map(inputs, |w| {
        let trace = w.generate(&params);
        let mut cache = Cache::new(CacheConfig {
            capacity: 64 << 10,
            ways: 16,
            line_bytes: 64,
            prefetch_next_line: false,
        });
        // Interleave thread streams round-robin, as a shared LLC sees them.
        let mut streams: Vec<std::vec::IntoIter<mac_types::PhysAddr>> = trace
            .into_iter()
            .map(|ops| {
                ops.into_iter()
                    .filter_map(|op| match op {
                        soc_sim::ThreadOp::Mem { addr, .. } => Some(addr),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect();
        let mut live = true;
        while live {
            live = false;
            for s in &mut streams {
                if let Some(a) = s.next() {
                    cache.access(a);
                    live = true;
                }
            }
        }
        cache.stats().miss_rate()
    });
    ws.iter().map(|w| w.name().to_string()).zip(rates).collect()
}

/// Figure 1 (right): the SG sequential-vs-random miss-rate sweep.
/// Returns `(dataset_bytes, seq_miss_rate, rand_miss_rate)` per point,
/// from 80 KB to 32 GB as in the paper.
pub fn fig01_sweep(max_accesses: usize, seed: u64) -> Vec<(u64, f64, f64)> {
    let sizes: Vec<u64> = vec![
        80 << 10,
        1 << 20,
        32 << 20,
        1 << 30,
        8u64 << 30,
        32u64 << 30,
    ];
    parallel_map(sizes, |&bytes| {
        let mut c = Cache::new(CacheConfig::llc());
        let seq = c.run(
            sg::sequential_stream(bytes, max_accesses)
                .into_iter()
                .map(PhysAddr::new),
        );
        let mut c = Cache::new(CacheConfig::llc());
        let rnd = c.run(
            sg::random_stream(bytes, max_accesses, seed)
                .into_iter()
                .map(PhysAddr::new),
        );
        (bytes, seq, rnd)
    })
}

/// Figure 3: analytic bandwidth efficiency and overhead per request size.
pub fn fig03() -> Vec<(u64, f64, f64)> {
    bandwidth::FIGURE3_SIZES
        .iter()
        .map(|&s| bandwidth::figure3_row(s))
        .collect()
}

/// Figure 9: demand requests-per-cycle per benchmark (Eq. 2).
pub fn fig09(pool: &SimPool, cfg: &ExperimentConfig) -> Vec<(String, f64)> {
    pool.run_suite(&all_workloads(), cfg)
        .into_iter()
        .map(|(name, r)| (name, r.demand_rpc()))
        .collect()
}

/// Figure 10: coalescing efficiency per benchmark at each thread count.
/// Returns `(benchmark, efficiency)` rows per thread count in
/// `thread_counts`. The whole `thread_counts × benchmarks` sweep is
/// dispatched as one batch so the pool can balance it.
pub fn fig10(
    pool: &SimPool,
    thread_counts: &[usize],
    scale: u32,
) -> Vec<(usize, Vec<(String, f64)>)> {
    let ws = all_workloads();
    let mut reqs = Vec::with_capacity(thread_counts.len() * ws.len());
    for &t in thread_counts {
        let mut cfg = ExperimentConfig::paper(t);
        cfg.workload.scale = scale;
        for w in &ws {
            reqs.push(crate::engine::SimRequest::new(w.name(), &cfg));
        }
    }
    let mut reports = pool.run_batch(&reqs).into_iter();
    thread_counts
        .iter()
        .map(|&t| {
            let rows = ws
                .iter()
                .map(|w| {
                    let r = reports.next().expect("batch len");
                    (w.name().to_string(), r.coalescing_efficiency())
                })
                .collect();
            (t, rows)
        })
        .collect()
}

/// Figure 11: mean coalescing efficiency vs. ARQ entries. The whole
/// `entries × benchmarks` sweep runs as one batch.
pub fn fig11(pool: &SimPool, entries: &[usize], scale: u32) -> Vec<(usize, f64)> {
    let ws = all_workloads();
    let mut reqs = Vec::with_capacity(entries.len() * ws.len());
    for &n in entries {
        let mut cfg = ExperimentConfig::paper(8);
        cfg.workload.scale = scale;
        cfg.system.mac = MacConfig {
            arq_entries: n,
            ..cfg.system.mac
        };
        for w in &ws {
            reqs.push(crate::engine::SimRequest::new(w.name(), &cfg));
        }
    }
    let mut reports = pool.run_batch(&reqs).into_iter();
    entries
        .iter()
        .map(|&n| {
            let mean = ws
                .iter()
                .map(|_| reports.next().expect("batch len").coalescing_efficiency())
                .sum::<f64>()
                / ws.len() as f64;
            (n, mean)
        })
        .collect()
}

/// Figures 12/13/14/17 all need with/without pairs; compute them once —
/// and because the pool memoizes by configuration fingerprint, the four
/// experiments share one set of simulations even across separate calls.
pub fn paired_runs(pool: &SimPool, cfg: &ExperimentConfig) -> Vec<(String, RunReport, RunReport)> {
    pool.run_suite_pairs(&all_workloads(), cfg)
}

/// Figure 12 rows from paired runs: bank conflicts removed.
pub fn fig12(pairs: &[(String, RunReport, RunReport)]) -> Vec<(String, u64, u64, u64)> {
    pairs
        .iter()
        .map(|(n, with, without)| {
            (
                n.clone(),
                without.bank_conflicts(),
                with.bank_conflicts(),
                without
                    .bank_conflicts()
                    .saturating_sub(with.bank_conflicts()),
            )
        })
        .collect()
}

/// Figure 13 rows: measured bandwidth efficiency, coalesced vs raw.
pub fn fig13(pairs: &[(String, RunReport, RunReport)]) -> Vec<(String, f64, f64)> {
    pairs
        .iter()
        .map(|(n, with, without)| {
            (
                n.clone(),
                with.bandwidth_efficiency(),
                without.bandwidth_efficiency(),
            )
        })
        .collect()
}

/// Figure 14 rows: link bytes saved by coalescing.
pub fn fig14(pairs: &[(String, RunReport, RunReport)]) -> Vec<(String, i128)> {
    pairs
        .iter()
        .map(|(n, with, without)| (n.clone(), with.bandwidth_saved_vs(without)))
        .collect()
}

/// Figure 15: average merged targets per popped ARQ entry.
pub fn fig15(pool: &SimPool, cfg: &ExperimentConfig) -> Vec<(String, f64, u64)> {
    pool.run_suite(&all_workloads(), cfg)
        .into_iter()
        .map(|(name, r)| {
            (
                name,
                r.mac.targets_per_entry.mean(),
                r.mac.targets_per_entry.max,
            )
        })
        .collect()
}

/// Figure 16: ARQ bytes vs entry count (analytic).
pub fn fig16() -> Vec<(usize, u64)> {
    mac_coalescer::area::figure16_sweep()
}

/// Figure 17 rows: memory-system speedup per benchmark, in percent.
pub fn fig17(pairs: &[(String, RunReport, RunReport)]) -> Vec<(String, f64)> {
    pairs
        .iter()
        .map(|(n, with, without)| (n.clone(), with.memory_speedup_vs(without)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_values() {
        let t = table1();
        let get = |k: &str| {
            t.iter()
                .find(|(a, _)| a == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("Core #"), "8");
        assert_eq!(get("CPU Frequency"), "3.3 GHz");
        assert_eq!(get("HMC"), "4 Links, 8GB, 256B-block");
        assert_eq!(get("ARQ"), "32 entries, 64B per entry");
    }

    #[test]
    fn fig03_matches_paper_endpoints() {
        let rows = fig03();
        assert_eq!(rows.len(), 5);
        assert!((rows[0].1 - 1.0 / 3.0).abs() < 1e-4, "16 B -> 33.33 %");
        assert!((rows[4].1 - 0.8889).abs() < 1e-4, "256 B -> 88.89 %");
    }

    #[test]
    fn fig16_matches_paper_endpoints() {
        let rows = fig16();
        assert_eq!(rows[0], (8, 512));
        assert_eq!(*rows.last().unwrap(), (256, 16384));
    }

    #[test]
    fn fig01_sweep_shows_seq_vs_random_divergence() {
        let rows = fig01_sweep(60_000, 7);
        let (_, seq_big, rand_big) = rows[rows.len() - 1];
        let (_, _, rand_small) = rows[0];
        // Shape targets (paper: seq 2.36 %, random 63.85 % at 32 GB; our
        // full-stream accounting lands lower on the random series but
        // preserves the >20x divergence and the growth trend).
        assert!(seq_big < 0.05, "sequential misses stay rare: {seq_big}");
        assert!(
            rand_big > 0.30,
            "random misses dominate at 32 GB: {rand_big}"
        );
        assert!(rand_big > 10.0 * seq_big.max(1e-6) || seq_big == 0.0);
        assert!(rand_big > rand_small, "random miss rate grows with dataset");
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "demo",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
