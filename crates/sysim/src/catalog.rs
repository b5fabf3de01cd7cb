//! The experiment catalog: one row builder per manifest entry.
//!
//! Each [`Experiment`](crate::manifest::Experiment) names its builder
//! here. A builder runs its simulations through the engine's
//! [`SimPool`](crate::engine::SimPool), so sweeps parallelize and shared
//! configurations (the with/without pairs behind Figures 12/13/14/17)
//! simulate once, then computes and formats its own rows into
//! [`Artifact`]s. The LLC replays of Figure 1 and the analytic Table 1
//! and Figures 3 and 16 run inline.

use cache_model::{Cache, CacheConfig, MshrFile};
use mac_guest::{cross_validate, ProgramSpec, TraceProfile, XvalReport, XvalTolerances};
use mac_types::{
    bandwidth, ns_to_cycles, AdaptConfig, FlitTablePolicy, MacConfig, MacPlacement, NetTopology,
    PhysAddr, SocConfig, SystemConfig, ROW_BYTES,
};
use mac_workloads::{all_workloads, extended_workloads, sg, WorkloadParams};
use soc_sim::ThreadOp;

use crate::engine::{work_steal_map, Artifact, ExpCtx, SimRequest};
use crate::experiment::ExperimentConfig;
use crate::report::RunReport;

/// Format a fraction as a percentage string (`0.5285` → `"52.85%"`).
fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Format a byte count with a binary-prefix unit (`2048` → `"2.00 KB"`).
fn human_bytes(b: i128) -> String {
    let (sign, b) = if b < 0 { ("-", -b) } else { ("", b) };
    let f = b as f64;
    if f >= (1u64 << 30) as f64 {
        format!("{sign}{:.2} GB", f / (1u64 << 30) as f64)
    } else if f >= (1 << 20) as f64 {
        format!("{sign}{:.2} MB", f / (1 << 20) as f64)
    } else if f >= (1 << 10) as f64 {
        format!("{sign}{:.2} KB", f / (1 << 10) as f64)
    } else {
        format!("{sign}{b} B")
    }
}

/// The standard figure-regeneration configuration: Table 1 system,
/// 8 threads, the given workload scale.
fn paper_config(scale: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(8);
    cfg.workload.scale = scale;
    cfg
}

/// The RNG seed the Figure 1 replications use (distinct from the
/// simulation default so cache- and system-level streams differ).
const FIG01_SEED: u64 = 0xF16;

fn art(name: &str, title: &str, header: &[&str], rows: Vec<Vec<String>>) -> Artifact {
    Artifact {
        name: name.to_string(),
        title: title.to_string(),
        notes: Vec::new(),
        header: header.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

/// The mean of `f` over `items`, summed left to right.
fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}

/// The paper suite's with/without-MAC pairs at the standard
/// configuration. Figures 12, 13, 14 and 17 all read them; the pool
/// memoizes by fingerprint, so the four entries simulate them once.
fn paired_runs(ctx: &ExpCtx) -> Vec<(String, RunReport, RunReport)> {
    ctx.pool
        .run_suite_pairs(&all_workloads(), &paper_config(ctx.scale))
}

pub(crate) fn table1(_ctx: &ExpCtx) -> Vec<Artifact> {
    let c = SystemConfig::default();
    let rows = [
        ("ISA", "RV64IM(+A subset) via rv64-sim".to_string()),
        ("Core #", c.soc.cores.to_string()),
        ("CPU Frequency", format!("{} GHz", SocConfig::FREQ_GHZ)),
        ("SPM", format!("{} MB per core", SocConfig::SPM_BYTES >> 20)),
        ("Avg. SPM Access Latency", "1 ns".to_string()),
        (
            "HMC",
            format!(
                "{} Links, {}GB, {}B-block",
                c.hmc.links,
                c.hmc.capacity >> 30,
                ROW_BYTES
            ),
        ),
        ("Avg. HMC Access Latency", "93 ns".to_string()),
        (
            "ARQ",
            format!(
                "{} entries, {}B per entry",
                c.mac.arq_entries,
                MacConfig::ARQ_ENTRY_BYTES
            ),
        ),
    ];
    vec![art(
        "table1",
        "Table 1: Simulation Environment",
        &["Parameter", "Value"],
        rows.into_iter()
            .map(|(k, v)| vec![k.to_string(), v])
            .collect(),
    )]
}

/// Figure 1 (left): the LLC miss rate of each paper workload.
///
/// The paper measured GB-scale datasets against MB-scale caches; our
/// simulation datasets are scaled down, so the cache is scaled
/// proportionally (64 KB here vs the full 2 MB LLC) to preserve the
/// dataset:cache ratio that determines the miss rate. EXPERIMENTS.md
/// records this substitution.
fn fig01_missrates(scale: u32, seed: u64, workers: usize) -> Vec<(String, f64)> {
    let params = WorkloadParams {
        threads: 8,
        scale,
        seed,
    };
    let ws = all_workloads();
    let rates = work_steal_map(&ws, workers, |w| {
        let trace = w.generate(&params);
        let mut cache = Cache::new(CacheConfig {
            capacity: 64 << 10,
            ways: 16,
            line_bytes: 64,
            prefetch_next_line: false,
        });
        // Interleave thread streams round-robin, as a shared LLC sees them.
        let mut streams: Vec<std::vec::IntoIter<PhysAddr>> = trace
            .into_iter()
            .map(|ops| {
                ops.into_iter()
                    .filter_map(|op| match op {
                        ThreadOp::Mem { addr, .. } => Some(addr),
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
fn fig01_sweep(max_accesses: usize, seed: u64, workers: usize) -> Vec<(u64, f64, f64)> {
    let sizes = [
        80 << 10,
        1 << 20,
        32 << 20,
        1 << 30,
        8u64 << 30,
        32u64 << 30,
    ];
    work_steal_map(&sizes, workers, |&bytes| {
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

pub(crate) fn fig01(ctx: &ExpCtx) -> Vec<Artifact> {
    let workers = ctx.pool.workers();
    let rates = fig01_missrates(ctx.scale, FIG01_SEED, workers);
    let mean = mean_of(&rates, |(_, r)| *r);
    let mut rows: Vec<Vec<String>> = rates.into_iter().map(|(n, r)| vec![n, pct(r)]).collect();
    rows.push(vec!["MEAN".into(), pct(mean)]);
    let left = art(
        "fig01_missrates",
        "Figure 1 (left): LLC Miss Rates (paper mean: 49.09%)",
        &["benchmark", "miss rate"],
        rows,
    );

    let rows: Vec<Vec<String>> = fig01_sweep(400_000, FIG01_SEED, workers)
        .into_iter()
        .map(|(bytes, seq, rnd)| vec![human_bytes(bytes as i128), pct(seq), pct(rnd)])
        .collect();
    let right = art(
        "fig01_sweep",
        "Figure 1 (right): SG seq vs random (paper: 2.36% vs 63.85% at 32 GB)",
        &["dataset", "sequential", "random"],
        rows,
    );
    vec![left, right]
}

pub(crate) fn fig03(_ctx: &ExpCtx) -> Vec<Artifact> {
    let rows = bandwidth::FIGURE3_SIZES
        .iter()
        .map(|&s| {
            let (size, eff, ovh) = bandwidth::figure3_row(s);
            vec![format!("{size}B"), pct(eff), pct(ovh)]
        })
        .collect();
    vec![art(
        "fig03",
        "Figure 3: Bandwidth Efficiency and Overhead",
        &["request", "efficiency", "overhead"],
        rows,
    )]
}

pub(crate) fn fig09(ctx: &ExpCtx) -> Vec<Artifact> {
    let reports = ctx
        .pool
        .run_suite(&all_workloads(), &paper_config(ctx.scale));
    let mut rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(n, r)| vec![n.clone(), format!("{:.2}", r.demand_rpc())])
        .collect();
    let mean = mean_of(&reports, |(_, r)| r.demand_rpc());
    rows.push(vec!["MEAN".into(), format!("{mean:.2}")]);
    vec![art(
        "fig09",
        "Figure 9: Raw Requests per Cycle (paper mean: 9.32)",
        &["benchmark", "RPC"],
        rows,
    )]
}

pub(crate) fn fig10(ctx: &ExpCtx) -> Vec<Artifact> {
    // The whole threads × benchmarks sweep runs as one batch, so the
    // pool can balance it.
    let ws = all_workloads();
    let mut reqs = Vec::new();
    for threads in [2, 4, 8] {
        let mut cfg = ExperimentConfig::paper(threads);
        cfg.workload.scale = ctx.scale;
        reqs.extend(ws.iter().map(|w| SimRequest::new(w.name(), &cfg)));
    }
    let effs: Vec<f64> = ctx
        .pool
        .run_batch(&reqs)
        .iter()
        .map(RunReport::coalescing_efficiency)
        .collect();
    let mut rows: Vec<Vec<String>> = ws
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut row = vec![w.name().to_string()];
            row.extend(effs.chunks(ws.len()).map(|series| pct(series[i])));
            row
        })
        .collect();
    let mut mean_row = vec!["MEAN".to_string()];
    mean_row.extend(
        effs.chunks(ws.len())
            .map(|series| pct(mean_of(series, |e| *e))),
    );
    rows.push(mean_row);
    vec![art(
        "fig10",
        "Figure 10: Coalescing Efficiency (paper means: 48.37/50.51/52.86%)",
        &["benchmark", "2 threads", "4 threads", "8 threads"],
        rows,
    )]
}

pub(crate) fn fig11(ctx: &ExpCtx) -> Vec<Artifact> {
    // The whole entries × benchmarks sweep runs as one batch.
    let ws = all_workloads();
    let entries = [8, 16, 32, 64, 128];
    let mut reqs = Vec::new();
    for n in entries {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.mac.arq_entries = n;
        reqs.extend(ws.iter().map(|w| SimRequest::new(w.name(), &cfg)));
    }
    let reports = ctx.pool.run_batch(&reqs);
    let mut prev: Option<f64> = None;
    let rows = entries
        .iter()
        .zip(reports.chunks(ws.len()))
        .map(|(n, series)| {
            let eff = mean_of(series, RunReport::coalescing_efficiency);
            let delta = prev
                .map(|p| format!("+{:.2}pp", (eff - p) * 100.0))
                .unwrap_or_default();
            prev = Some(eff);
            vec![n.to_string(), pct(eff), delta]
        })
        .collect();
    vec![art(
        "fig11",
        "Figure 11: Efficiency vs ARQ Entries (paper: 37.58% -> 56.04%)",
        &["ARQ entries", "mean efficiency", "gain"],
        rows,
    )]
}

pub(crate) fn fig12(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut total = 0u64;
    let mut rows: Vec<Vec<String>> = paired_runs(ctx)
        .into_iter()
        .map(|(n, with, without)| {
            let (raw, mac) = (without.bank_conflicts(), with.bank_conflicts());
            let removed = raw.saturating_sub(mac);
            total += removed;
            vec![n, raw.to_string(), mac.to_string(), removed.to_string()]
        })
        .collect();
    rows.push(vec![
        "TOTAL".into(),
        String::new(),
        String::new(),
        total.to_string(),
    ]);
    vec![art(
        "fig12",
        "Figure 12: Bank Conflict Reductions (raw vs MAC)",
        &["benchmark", "conflicts (raw)", "conflicts (MAC)", "removed"],
        rows,
    )]
}

pub(crate) fn fig13(ctx: &ExpCtx) -> Vec<Artifact> {
    let pairs = paired_runs(ctx);
    let mut rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(n, with, without)| {
            vec![
                n.clone(),
                pct(with.bandwidth_efficiency()),
                pct(without.bandwidth_efficiency()),
            ]
        })
        .collect();
    let mean = mean_of(&pairs, |(_, with, _)| with.bandwidth_efficiency());
    rows.push(vec!["MEAN".into(), pct(mean), pct(1.0 / 3.0)]);
    vec![art(
        "fig13",
        "Figure 13: Bandwidth Efficiency (paper: 70.35% coalesced vs 33.33% raw)",
        &["benchmark", "with MAC", "raw 16B"],
        rows,
    )]
}

pub(crate) fn fig14(ctx: &ExpCtx) -> Vec<Artifact> {
    let pairs = paired_runs(ctx);
    let mut total = 0i128;
    let mut rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(n, with, without)| {
            let saved = with.bandwidth_saved_vs(without);
            total += saved;
            vec![n.clone(), human_bytes(saved)]
        })
        .collect();
    rows.push(vec![
        "MEAN".into(),
        human_bytes(total / pairs.len() as i128),
    ]);
    let mut a = art(
        "fig14",
        "Figure 14: Bandwidth Saving (control bytes avoided)",
        &["benchmark", "saved"],
        rows,
    );
    a.notes = vec![
        "note: control bytes saved; absolute totals scale with problem size".into(),
        "      (the paper ran full-size datasets: mean 22.76 GB saved).".into(),
    ];
    vec![a]
}

pub(crate) fn fig15(ctx: &ExpCtx) -> Vec<Artifact> {
    let reports = ctx
        .pool
        .run_suite(&all_workloads(), &paper_config(ctx.scale));
    let mut rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(n, r)| {
            let targets = &r.mac.targets_per_entry;
            vec![
                n.clone(),
                format!("{:.2}", targets.mean()),
                targets.max.to_string(),
            ]
        })
        .collect();
    let mean = mean_of(&reports, |(_, r)| r.mac.targets_per_entry.mean());
    rows.push(vec!["MEAN".into(), format!("{mean:.2}"), String::new()]);
    vec![art(
        "fig15",
        "Figure 15: Avg Targets per ARQ Entry (paper: 2.13 avg, 3.14 max)",
        &["benchmark", "avg targets", "max"],
        rows,
    )]
}

pub(crate) fn fig16(_ctx: &ExpCtx) -> Vec<Artifact> {
    let rows = mac_coalescer::area::figure16_sweep()
        .into_iter()
        .map(|(entries, bytes)| {
            vec![
                entries.to_string(),
                bytes.to_string(),
                human_bytes(bytes as i128),
            ]
        })
        .collect();
    let mut a = art(
        "fig16",
        "Figure 16: ARQ Space Overhead",
        &["ARQ entries", "bytes", "human"],
        rows,
    );
    let r = mac_coalescer::area::area(&mac_types::MacConfig::default());
    a.notes = vec![
        format!(
            "Default MAC total: {} bytes of storage, {} comparators, {} OR gates",
            r.total_bytes, r.comparators, r.or_gates
        ),
        "(paper §5.3.3: 2062 bytes, 32 comparators, 4 OR gates)".into(),
    ];
    vec![a]
}

pub(crate) fn fig17(ctx: &ExpCtx) -> Vec<Artifact> {
    let pairs = paired_runs(ctx);
    let mut rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(n, with, without)| {
            vec![
                n.clone(),
                format!("{:.2}%", with.memory_speedup_vs(without)),
            ]
        })
        .collect();
    let mean = mean_of(&pairs, |(_, with, without)| with.memory_speedup_vs(without));
    rows.push(vec!["MEAN".into(), format!("{mean:.2}%")]);
    vec![art(
        "fig17",
        "Figure 17: Memory System Speedup (paper mean: 60.73%)",
        &["benchmark", "speedup"],
        rows,
    )]
}

pub(crate) fn ablate_flit_table(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for (name, policy) in [
        ("span-rounded (paper)", FlitTablePolicy::SpanRounded),
        ("always-256B", FlitTablePolicy::Always256),
        ("per-chunk-64B", FlitTablePolicy::PerChunk64),
    ] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.mac.flit_table = policy;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        rows.push(vec![
            name.to_string(),
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            pct(mean_of(&reports, |(_, r)| r.bandwidth_efficiency())),
            pct(mean_of(&reports, |(_, r)| r.hmc.data_utilization())),
            format!(
                "{:.0} cyc",
                mean_of(&reports, |(_, r)| r.mean_access_latency())
            ),
        ]);
    }
    vec![art(
        "ablate_flit_table",
        "Ablation: FLIT-table policy",
        &[
            "policy",
            "coalescing",
            "bw efficiency",
            "data utilization",
            "mean latency",
        ],
        rows,
    )]
}

pub(crate) fn ablate_bypass(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for (name, bypass) in [("bypass on (paper)", true), ("bypass off", false)] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.mac.bypass_enabled = bypass;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        rows.push(vec![
            name.to_string(),
            pct(mean_of(&reports, |(_, r)| r.bandwidth_efficiency())),
            pct(mean_of(&reports, |(_, r)| r.hmc.data_utilization())),
            format!(
                "{:.0} cyc",
                mean_of(&reports, |(_, r)| r.mean_access_latency())
            ),
        ]);
    }
    vec![art(
        "ablate_bypass",
        "Ablation: B-bit bypass",
        &[
            "config",
            "bw efficiency",
            "data utilization",
            "mean latency",
        ],
        rows,
    )]
}

pub(crate) fn ablate_latency_hiding(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for (name, lh) in [
        ("latency hiding on (paper)", true),
        ("latency hiding off", false),
    ] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.mac.latency_hiding = lh;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        let bursts: u64 = reports.iter().map(|(_, r)| r.mac.fill_bursts).sum();
        let cycles: u64 = reports.iter().map(|(_, r)| r.cycles).sum();
        rows.push(vec![
            name.to_string(),
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            bursts.to_string(),
            cycles.to_string(),
        ]);
    }
    vec![art(
        "ablate_latency_hiding",
        "Ablation: latency-hiding fill",
        &["config", "coalescing", "fill bursts", "total cycles"],
        rows,
    )]
}

pub(crate) fn ablate_pop_rate(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for interval in [1u64, 2, 4, 8] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.mac.pop_interval = interval;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        let label = if interval == 2 {
            "2 (paper)".to_string()
        } else {
            interval.to_string()
        };
        rows.push(vec![
            label,
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            format!(
                "{:.0} cyc",
                mean_of(&reports, |(_, r)| r.mean_access_latency())
            ),
        ]);
    }
    vec![art(
        "ablate_pop_rate",
        "Ablation: ARQ pop interval",
        &["cycles/pop", "coalescing", "mean latency"],
        rows,
    )]
}

pub(crate) fn ablate_closed_loop(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for (name, window) in [
        ("open loop (paper eval)", usize::MAX),
        ("8 outstanding/thread", 8),
        ("1 outstanding/thread (strict §3)", 1),
    ] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.soc.max_outstanding_per_thread = window;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        rows.push(vec![
            name.to_string(),
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            format!("{:.3}", mean_of(&reports, |(_, r)| r.sustained_rpc())),
        ]);
    }
    vec![art(
        "ablate_closed_loop",
        "Ablation: core concurrency model",
        &["core model", "coalescing", "sustained RPC"],
        rows,
    )]
}

pub(crate) fn ablate_mshr_baseline(ctx: &ExpCtx) -> Vec<Artifact> {
    let cfg = paper_config(ctx.scale);
    let params = WorkloadParams {
        threads: 8,
        scale: ctx.scale,
        seed: cfg.workload.seed,
    };
    let mac_reports = ctx.pool.run_suite(&all_workloads(), &cfg);

    // MSHR numbers from trace replay: every access misses (no data cache
    // in the node), so each goes to a 64-entry MSHR file with the 93 ns
    // miss window.
    let miss_latency = ns_to_cycles(93.0, SocConfig::FREQ_GHZ);
    let mut rows = Vec::new();
    for w in all_workloads() {
        let trace = w.generate(&params);
        let mut mshr = MshrFile::new(64, 64, miss_latency);
        let mut cycle = 0u64;
        let mut raw = 0u64;
        for ops in &trace {
            for op in ops {
                if let ThreadOp::Mem { addr, .. } = op {
                    raw += 1;
                    cycle += 1;
                    let _ = mshr.offer(*addr, cycle);
                }
            }
        }
        let s = mshr.stats();
        let mac = mac_reports
            .iter()
            .find(|(n, _)| n == w.name())
            .expect("same set");
        // MSHR transactions are always one 64 B line, of which only the
        // demanded FLITs are useful; its link efficiency is fixed at
        // 64/(64+32) and its data utilization is raw FLITs / fetched.
        let mshr_util = (raw as f64 * 16.0) / (s.transactions as f64 * 64.0).max(1.0);
        rows.push(vec![
            w.name().to_string(),
            pct(mac.1.coalescing_efficiency()),
            pct(s.merge_efficiency()),
            pct(mac.1.bandwidth_efficiency()),
            pct(bandwidth::bandwidth_efficiency(64)),
            pct(mshr_util.min(1.0)),
        ]);
    }
    vec![art(
        "ablate_mshr_baseline",
        "Ablation: MAC vs MSHR (64B line) coalescing",
        &[
            "benchmark",
            "MAC coalescing",
            "MSHR merging",
            "MAC bw eff",
            "MSHR bw eff",
            "MSHR data util",
        ],
        rows,
    )]
}

pub(crate) fn ablate_accept_width(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for width in [1usize, 2, 4] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.mac.accepts_per_cycle = width;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        let label = if width == 1 {
            "1 (paper §4.4)".to_string()
        } else {
            width.to_string()
        };
        rows.push(vec![
            label,
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            format!(
                "{:.2}",
                mean_of(&reports, |(_, r)| r.mac.targets_per_entry.mean())
            ),
        ]);
    }
    vec![art(
        "ablate_accept_width",
        "Ablation: ARQ accept-port width",
        &["accepts/cycle", "mean coalescing", "targets/entry"],
        rows,
    )]
}

pub(crate) fn ablate_smt(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for penalty in [0u64, 2, 8, 32] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.soc.cores = 2; // force thread multiplexing
        cfg.system.soc.context_switch_penalty = penalty;
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        let cycles: u64 = reports.iter().map(|(_, r)| r.cycles).sum();
        let label = if penalty == 0 {
            "0 (free switching)".to_string()
        } else {
            penalty.to_string()
        };
        rows.push(vec![
            label,
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            cycles.to_string(),
        ]);
    }
    vec![art(
        "ablate_smt",
        "Ablation: context-switch penalty (8 threads on 2 cores)",
        &["penalty (cycles)", "coalescing", "total cycles"],
        rows,
    )]
}

pub(crate) fn ablate_link_errors(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut reqs = Vec::new();
    let bers = [0.0f64, 0.001, 0.01, 0.05];
    for &ber in &bers {
        let mut cfg = paper_config(ctx.scale);
        cfg.system.hmc.link_error_rate = ber;
        reqs.push(SimRequest::new("sg", &cfg));
    }
    let reports = ctx.pool.run_batch(&reqs);
    let rows = bers
        .iter()
        .zip(&reports)
        .map(|(ber, r)| {
            vec![
                format!("{ber}"),
                format!("{:.1}", r.mean_access_latency()),
                r.latency_quantile(0.99).to_string(),
                r.cycles.to_string(),
            ]
        })
        .collect();
    vec![art(
        "ablate_link_errors",
        "Ablation: link packet error rate (SG)",
        &["error rate", "mean latency", "p99 latency", "total cycles"],
        rows,
    )]
}

pub(crate) fn adapt_ablation(ctx: &ExpCtx) -> Vec<Artifact> {
    // Static operating points the sensitivity sweeps single out as the
    // interesting corners, vs the evidence-driven controller retuning
    // inside the same bounds (DESIGN.md §17). One row per workload —
    // the full suite plus the guest binaries — with runtime-to-drain as
    // the headline metric.
    let statics: [(&str, u64, usize); 3] = [
        ("pop2/acc1 (paper)", 2, 1),
        ("pop1/acc2", 1, 2),
        ("pop4/acc1", 4, 1),
    ];
    let mut ws = all_workloads();
    ws.extend(mac_workloads::guest::guest_workloads());
    let base = paper_config(ctx.scale);
    let static_runs: Vec<(&str, Vec<(String, RunReport)>)> = statics
        .iter()
        .map(|&(label, pop, acc)| {
            let mut cfg = base.clone();
            cfg.system.mac.pop_interval = pop;
            cfg.system.mac.accepts_per_cycle = acc;
            (label, ctx.pool.run_suite(&ws, &cfg))
        })
        .collect();
    let mut adaptive_cfg = base.clone();
    adaptive_cfg.system.adapt = AdaptConfig::tuned();
    let adaptive = ctx.pool.run_suite(&ws, &adaptive_cfg);

    // "Matching" tolerates 0.5%: the controller spends early intervals
    // gathering evidence, so exact ties with the best static point are
    // not expected on short runs.
    const MATCH_TOLERANCE_MILLI: u64 = 5;
    let mut wins = 0usize;
    let rows: Vec<Vec<String>> = adaptive
        .iter()
        .enumerate()
        .map(|(i, (name, adapt_report))| {
            let (best_label, best_cycles) = static_runs
                .iter()
                .map(|(label, reports)| (*label, reports[i].1.cycles))
                .min_by_key(|&(_, cycles)| cycles)
                .expect("statics non-empty");
            let a = adapt_report.cycles;
            let matched =
                a.saturating_mul(1000) <= best_cycles.saturating_mul(1000 + MATCH_TOLERANCE_MILLI);
            if matched {
                wins += 1;
            }
            let delta_pct = (a as f64 - best_cycles as f64) * 100.0 / best_cycles.max(1) as f64;
            let mut row = vec![name.clone()];
            row.extend(
                static_runs
                    .iter()
                    .map(|(_, reports)| reports[i].1.cycles.to_string()),
            );
            row.push(a.to_string());
            row.push(best_label.to_string());
            row.push(format!("{delta_pct:+.2}%"));
            row.push(if matched { "match/win" } else { "behind" }.to_string());
            row
        })
        .collect();
    let mut a = art(
        "adapt_ablation",
        "Ablation: static operating points vs the adaptive controller (cycles to drain)",
        &[
            "workload",
            "pop2/acc1 (paper)",
            "pop1/acc2",
            "pop4/acc1",
            "adaptive",
            "best static",
            "adaptive vs best",
            "verdict",
        ],
        rows,
    );
    a.notes.push(format!(
        "adaptive matches or beats the best static point on {wins}/{} workloads \
         (0.5% tolerance on cycles to drain)",
        adaptive.len()
    ));
    vec![a]
}

pub(crate) fn backend_hbm(ctx: &ExpCtx) -> Vec<Artifact> {
    let hmc_cfg = paper_config(ctx.scale);
    let mut hbm_cfg = hmc_cfg.clone();
    hbm_cfg.system = hbm_cfg.system.with_hbm();
    let ws = all_workloads();
    let hmc_pairs = ctx.pool.run_suite_pairs(&ws, &hmc_cfg);
    let hbm_pairs = ctx.pool.run_suite_pairs(&ws, &hbm_cfg);
    let rows = hmc_pairs
        .iter()
        .zip(&hbm_pairs)
        .map(|((n, hmc_with, hmc_without), (_, hbm_with, hbm_without))| {
            let hits = hbm_with.hmc.row_hits as f64 / hbm_with.hmc.accesses().max(1) as f64;
            vec![
                n.clone(),
                pct(hmc_with.coalescing_efficiency()),
                pct(hbm_with.coalescing_efficiency()),
                format!("{:.1}%", hmc_with.memory_speedup_vs(hmc_without)),
                format!("{:.1}%", hbm_with.memory_speedup_vs(hbm_without)),
                pct(hits),
            ]
        })
        .collect();
    vec![art(
        "backend_hbm",
        "MAC on HMC vs HBM (paper §4.3: same coalescing logic, different protocol)",
        &[
            "benchmark",
            "coalesce HMC",
            "coalesce HBM",
            "speedup HMC",
            "speedup HBM",
            "HBM row hits",
        ],
        rows,
    )]
}

pub(crate) fn baseline_ddr(ctx: &ExpCtx) -> Vec<Artifact> {
    let base = paper_config(ctx.scale);
    let mut ddr_cfg = base.clone();
    ddr_cfg.system = ddr_cfg.system.with_ddr().without_mac();
    let mut hmc_raw_cfg = base.clone();
    hmc_raw_cfg.system.mac_disabled = true;

    let ws = all_workloads();
    let mut reqs = Vec::with_capacity(ws.len() * 3);
    for w in &ws {
        reqs.push(SimRequest::new(w.name(), &ddr_cfg));
        reqs.push(SimRequest::new(w.name(), &hmc_raw_cfg));
        reqs.push(SimRequest::new(w.name(), &base));
    }
    let mut reports = ctx.pool.run_batch(&reqs).into_iter();
    let rows = ws
        .iter()
        .map(|w| {
            let ddr = reports.next().expect("batch len");
            let hmc_raw = reports.next().expect("batch len");
            let hmc_mac = reports.next().expect("batch len");
            let hit_rate = ddr.hmc.row_hits as f64 / ddr.hmc.accesses().max(1) as f64;
            vec![
                w.name().to_string(),
                pct(hit_rate),
                format!("{:.0}", ddr.mean_access_latency()),
                format!("{:.0}", hmc_raw.mean_access_latency()),
                format!("{:.0}", hmc_mac.mean_access_latency()),
            ]
        })
        .collect();
    let mut a = art(
        "baseline_ddr",
        "Baseline: DDR4 (raw) vs HMC (raw) vs HMC+MAC",
        &[
            "benchmark",
            "DDR row hits",
            "DDR lat",
            "HMC raw lat",
            "HMC+MAC lat",
        ],
        rows,
    );
    a.notes = vec![
        "mean access latency in cycles; DDR row hits absorb same-row streams but".into(),
        "its single bus serializes; MAC-coalesced HMC wins on parallel vaults.".into(),
    ];
    vec![a]
}

pub(crate) fn extended_suite(ctx: &ExpCtx) -> Vec<Artifact> {
    let pairs = ctx
        .pool
        .run_suite_pairs(&extended_workloads(), &paper_config(ctx.scale));
    let rows = pairs
        .iter()
        .map(|(n, with, without)| {
            vec![
                n.clone(),
                pct(with.coalescing_efficiency()),
                pct(with.bandwidth_efficiency()),
                format!(
                    "{}",
                    without
                        .bank_conflicts()
                        .saturating_sub(with.bank_conflicts())
                ),
                format!("{:.1}%", with.memory_speedup_vs(without)),
            ]
        })
        .collect();
    vec![art(
        "extended_suite",
        "Extended suite (12 paper benchmarks + GAP CC/SSSP/TC)",
        &[
            "benchmark",
            "coalescing",
            "bw efficiency",
            "conflicts removed",
            "speedup",
        ],
        rows,
    )]
}

pub(crate) fn latency_tails(ctx: &ExpCtx) -> Vec<Artifact> {
    let pairs = ctx
        .pool
        .run_suite_pairs(&all_workloads(), &paper_config(ctx.scale));
    let rows = pairs
        .iter()
        .map(|(n, with, without)| {
            vec![
                n.clone(),
                with.latency_quantile(0.50).to_string(),
                with.latency_quantile(0.99).to_string(),
                without.latency_quantile(0.50).to_string(),
                without.latency_quantile(0.99).to_string(),
            ]
        })
        .collect();
    let mut a = art(
        "latency_tails",
        "Tail latency: MAC vs raw",
        &["benchmark", "MAC p50", "MAC p99", "raw p50", "raw p99"],
        rows,
    );
    a.notes = vec!["access latency quantiles in cycles (log-bucket upper bounds)".into()];
    vec![a]
}

/// The smoke configuration: Table 1 at `threads` threads, workload
/// scale 1 and a 50M-cycle cap. Fast enough for CI; the smoke entries
/// and [`pinned_requests`] all start from it, so one warm cache serves
/// them.
fn smoke_config(threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(threads);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg
}

pub(crate) fn smoke(ctx: &ExpCtx) -> Vec<Artifact> {
    // Micro calibration workloads: the pool, cache and pair logic end
    // to end.
    let ws: Vec<Box<dyn mac_workloads::Workload>> = mac_workloads::micro::calibration_workloads();
    let pairs = ctx.pool.run_suite_pairs(&ws, &smoke_config(4));
    let rows = pairs
        .iter()
        .map(|(n, with, without)| {
            vec![
                n.clone(),
                with.soc.raw_requests.to_string(),
                with.hmc.accesses().to_string(),
                pct(with.coalescing_efficiency()),
                format!("{:.1}%", with.memory_speedup_vs(without)),
            ]
        })
        .collect();
    vec![art(
        "smoke",
        "CI smoke: micro workloads through the full engine",
        &[
            "workload",
            "raw requests",
            "transactions",
            "coalescing",
            "speedup",
        ],
        rows,
    )]
}

pub(crate) fn guest_smoke(ctx: &ExpCtx) -> Vec<Artifact> {
    // Every shipped guest binary through the full engine (assemble →
    // rv64 execution → trace capture → SystemSim), with/without MAC.
    let ws = mac_workloads::guest::guest_workloads();
    let pairs = ctx.pool.run_suite_pairs(&ws, &smoke_config(4));
    let rows = pairs
        .iter()
        .map(|(n, with, without)| {
            vec![
                n.clone(),
                with.soc.raw_requests.to_string(),
                with.hmc.accesses().to_string(),
                pct(with.coalescing_efficiency()),
                format!("{:.1}%", with.memory_speedup_vs(without)),
            ]
        })
        .collect();
    vec![art(
        "guest_smoke",
        "mac-guest CI smoke: ELF guest binaries through the full engine",
        &[
            "guest",
            "raw requests",
            "transactions",
            "coalescing",
            "speedup",
        ],
        rows,
    )]
}

/// Cross-validate one guest program's captured address stream against
/// its modeled counterpart's, at the given workload parameters. Returns
/// `Ok(None)` for guests with no modeled counterpart. Shared by the
/// `guest_xval` manifest entry and `mac-bench guest xval`.
pub fn guest_xval_pair(
    spec: &ProgramSpec,
    params: &WorkloadParams,
    tol: &XvalTolerances,
) -> Result<Option<XvalReport>, String> {
    let Some(modeled) = spec.modeled else {
        return Ok(None);
    };
    let guest = mac_guest::capture_traces(spec, params.threads, params.scale, params.seed)?;
    let w = mac_workloads::by_name(modeled)
        .ok_or_else(|| format!("{}: modeled counterpart `{modeled}` unknown", spec.name))?;
    let model = w.generate(params);
    Ok(Some(cross_validate(
        &TraceProfile::of(&guest),
        &TraceProfile::of(&model),
        tol,
    )))
}

pub(crate) fn guest_xval(_ctx: &ExpCtx) -> Vec<Artifact> {
    let params = WorkloadParams::default();
    let tol = XvalTolerances::default();
    let mut rows = Vec::new();
    let mut all_pass = true;
    for spec in mac_guest::shipped_programs() {
        let report = match guest_xval_pair(spec, &params, &tol) {
            Ok(Some(r)) => r,
            Ok(None) => continue,
            Err(e) => panic!("guest_xval: {e}"),
        };
        all_pass &= report.pass;
        for c in &report.checks {
            rows.push(vec![
                spec.name.to_string(),
                spec.modeled.unwrap_or("-").to_string(),
                c.name.to_string(),
                c.guest.to_string(),
                c.model.to_string(),
                c.delta_milli.to_string(),
                c.limit_milli.to_string(),
                if c.pass { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
    }
    let mut a = art(
        "guest_xval",
        "mac-guest cross-validation: guest vs modeled address streams",
        &[
            "guest", "modeled", "check", "guest", "model", "|delta|", "limit", "status",
        ],
        rows,
    );
    a.notes = vec![
        format!(
            "xval verdict: {} (milli units; see DESIGN.md for tolerance rationale)",
            if all_pass { "PASS" } else { "FAIL" }
        ),
        "guest/model columns are milli shares or ratios; ratios compare to 1000".into(),
    ];
    vec![a]
}

pub(crate) fn net_chain_sweep(ctx: &ExpCtx) -> Vec<Artifact> {
    let cubes = [1usize, 2, 4, 8];
    let mut reqs = Vec::new();
    for &n in &cubes {
        let mut cfg = paper_config(ctx.scale);
        cfg.system = cfg
            .system
            .with_net(n, NetTopology::DaisyChain, MacPlacement::HostOnly);
        reqs.push(SimRequest::new("sg", &cfg));
    }
    let reports = ctx.pool.run_batch(&reqs);
    let rows = cubes
        .iter()
        .zip(&reports)
        .map(|(n, r)| {
            vec![
                n.to_string(),
                pct(r.remote_fraction()),
                format!("{:.2}", r.net.hops.mean()),
                format!("{:.0}", r.net.remote_latency.mean()),
                format!("{:.0}", r.mean_access_latency()),
                r.net.transit_flits.to_string(),
            ]
        })
        .collect();
    let mut a = art(
        "net_chain_sweep",
        "mac-net: SG over 1/2/4/8 daisy-chained cubes (host-side MAC)",
        &[
            "cubes",
            "remote frac",
            "mean hops",
            "remote lat",
            "mean lat",
            "transit FLITs",
        ],
        rows,
    );
    a.notes = vec![
        "1 cube is the single-device model bit for bit (mac-net identity test);".into(),
        "remote latency grows with hop count, overall mean tracks the remote mix.".into(),
    ];
    vec![a]
}

pub(crate) fn net_placement(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut rows = Vec::new();
    for (name, placement) in [
        ("host-only (coalesce before hop)", MacPlacement::HostOnly),
        ("per-cube (coalesce at ingress)", MacPlacement::PerCube),
    ] {
        let mut cfg = paper_config(ctx.scale);
        cfg.system = cfg.system.with_net(4, NetTopology::DaisyChain, placement);
        let reports = ctx.pool.run_suite(&all_workloads(), &cfg);
        let transit: u128 = reports.iter().map(|(_, r)| r.net.transit_flits).sum();
        rows.push(vec![
            name.to_string(),
            pct(mean_of(&reports, |(_, r)| r.coalescing_efficiency())),
            pct(mean_of(&reports, |(_, r)| r.bandwidth_efficiency())),
            format!(
                "{:.0} cyc",
                mean_of(&reports, |(_, r)| r.mean_access_latency())
            ),
            transit.to_string(),
        ]);
    }
    let mut a = art(
        "net_placement",
        "mac-net: coalescer placement on a 4-cube chain",
        &[
            "placement",
            "coalescing",
            "bw efficiency",
            "mean latency",
            "transit FLITs",
        ],
        rows,
    );
    a.notes =
        vec!["per-cube MACs push raw request packets across the fabric before merging".into()];
    vec![a]
}

pub(crate) fn net_topology(ctx: &ExpCtx) -> Vec<Artifact> {
    let mut reqs = Vec::new();
    let topos = [
        ("daisy-chain", NetTopology::DaisyChain),
        ("ring", NetTopology::Ring),
        ("2x2 mesh", NetTopology::Mesh2x2),
    ];
    for (_, topo) in topos {
        let mut cfg = paper_config(ctx.scale);
        cfg.system = cfg.system.with_net(4, topo, MacPlacement::HostOnly);
        reqs.push(SimRequest::new("sg", &cfg));
    }
    let reports = ctx.pool.run_batch(&reqs);
    let rows = topos
        .iter()
        .zip(&reports)
        .map(|((name, _), r)| {
            vec![
                name.to_string(),
                format!("{:.2}", r.net.hops.mean()),
                format!("{:.0}", r.net.remote_latency.mean()),
                format!("{:.0}", r.mean_access_latency()),
                r.net.transit_flits.to_string(),
            ]
        })
        .collect();
    vec![art(
        "net_topology",
        "mac-net: SG across 4 cubes, chain vs ring vs mesh",
        &[
            "topology",
            "mean hops",
            "remote lat",
            "mean lat",
            "transit FLITs",
        ],
        rows,
    )]
}

pub(crate) fn net_smoke(ctx: &ExpCtx) -> Vec<Artifact> {
    // One SG run over a chain of 2: host links, one fabric hop, and the
    // net cache fields.
    let reports = ctx.pool.run_batch(&[net_smoke_request()]);
    let r = &reports[0];
    let rows = vec![vec![
        "sg".to_string(),
        r.soc.raw_requests.to_string(),
        r.hmc.accesses().to_string(),
        pct(r.remote_fraction()),
        format!("{:.0}", r.net.remote_latency.mean()),
    ]];
    vec![art(
        "net_smoke",
        "mac-net CI smoke: SG over a chain of 2",
        &[
            "workload",
            "raw requests",
            "transactions",
            "remote frac",
            "remote lat",
        ],
        rows,
    )]
}

/// `net_smoke`'s run, which [`pinned_requests`] also pins: SG over a
/// chain of 2 cubes with the MAC at the host.
fn net_smoke_request() -> SimRequest {
    let mut cfg = smoke_config(4);
    cfg.system = cfg
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
    SimRequest::new("sg", &cfg)
}

/// The labelled runs the `pins` entry pins: every calibration and
/// guest-binary workload with and without the MAC, `net_smoke`'s SG
/// run over a 2-cube chain, the tuned adaptive controller on `sg` and
/// `stream`, and three idle-heavy `lat1` runs (one thread, one access
/// outstanding) where the event-driven loop (DESIGN.md §14) skips the
/// most. The smoke entries build the same requests, so one warm cache
/// serves them all. The scale is fixed at 1 whatever `--scale` says.
pub fn pinned_requests() -> Vec<(String, SimRequest)> {
    let cfg = smoke_config(4);
    let mut nomac = cfg.clone();
    nomac.system.mac_disabled = true;
    let mut out = Vec::new();
    let calibration = mac_workloads::micro::calibration_workloads();
    for w in calibration
        .iter()
        .chain(&mac_workloads::guest::guest_workloads())
    {
        out.push((format!("{}/mac", w.name()), SimRequest::new(w.name(), &cfg)));
        out.push((
            format!("{}/nomac", w.name()),
            SimRequest::new(w.name(), &nomac),
        ));
    }
    out.push(("sg/net2".to_string(), net_smoke_request()));
    let mut adapt = cfg;
    adapt.system.adapt = AdaptConfig::tuned();
    for w in ["sg", "stream"] {
        out.push((format!("{w}/adapt"), SimRequest::new(w, &adapt)));
    }
    let mut lat = smoke_config(1);
    lat.system.soc.max_outstanding_per_thread = 1;
    for w in calibration.iter().map(|w| w.name()).chain(["sg"]) {
        out.push((format!("{w}/lat1"), SimRequest::new(w, &lat)));
    }
    out
}

/// The `pins` entry: nine exact end-of-run counters of each of the
/// [`pinned_requests`], one row per run in list order. The simulator is
/// deterministic, so any moved value is a behaviour change.
pub(crate) fn pins(ctx: &ExpCtx) -> Vec<Artifact> {
    let runs = pinned_requests();
    let reqs: Vec<SimRequest> = runs.iter().map(|(_, r)| r.clone()).collect();
    let reports = ctx.pool.run_batch(&reqs);
    let rows = runs
        .into_iter()
        .zip(&reports)
        .map(|((label, _), r)| {
            let counters = [
                r.cycles as u128,
                r.soc.raw_requests as u128,
                r.soc.completions as u128,
                r.mac.emitted_total() as u128,
                r.hmc.accesses() as u128,
                r.hmc.bank_conflicts as u128,
                r.link_bytes(),
                r.hmc.latency.sum,
                r.net.remote_accesses as u128,
            ];
            std::iter::once(label)
                .chain(counters.iter().map(u128::to_string))
                .collect()
        })
        .collect();
    vec![art(
        "pins",
        "Pinned runs: exact end-of-run counters at scale 1",
        &[
            "run",
            "cycles",
            "raw_requests",
            "completions",
            "emitted_total",
            "hmc_accesses",
            "bank_conflicts",
            "link_bytes",
            "latency_sum",
            "remote_accesses",
        ],
        rows,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5285), "52.85%");
        assert_eq!(pct(0.0), "0.00%");
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KB");
        assert_eq!(human_bytes(3 << 20), "3.00 MB");
        assert_eq!(human_bytes(22 << 30), "22.00 GB");
        assert_eq!(human_bytes(-(1 << 20)), "-1.00 MB");
    }

    #[test]
    fn paper_config_uses_8_threads() {
        let c = paper_config(3);
        assert_eq!(c.system.soc.threads, 8);
        assert_eq!(c.workload.scale, 3);
        assert_eq!(c.workload.threads, 8);
    }

    /// The first artifact of an analytic entry, built without running a
    /// simulation.
    fn analytic_artifact(builder: fn(&ExpCtx) -> Vec<Artifact>) -> Artifact {
        let pool = crate::engine::SimPool::new(1);
        let arts = builder(&ExpCtx {
            pool: &pool,
            scale: 1,
        });
        assert_eq!(pool.sims_executed(), 0);
        arts.into_iter().next().expect("one artifact")
    }

    #[test]
    fn table1_matches_paper_values() {
        let t = analytic_artifact(table1);
        let get = |k: &str| {
            t.rows
                .iter()
                .find(|row| row[0] == k)
                .map(|row| row[1].as_str())
                .unwrap()
        };
        assert_eq!(get("Core #"), "8");
        assert_eq!(get("CPU Frequency"), "3.3 GHz");
        assert_eq!(get("HMC"), "4 Links, 8GB, 256B-block");
        assert_eq!(get("ARQ"), "32 entries, 64B per entry");
    }

    #[test]
    fn fig03_matches_paper_endpoints() {
        let rows = analytic_artifact(fig03).rows;
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][..2], ["16B", "33.33%"]);
        assert_eq!(rows[4][..2], ["256B", "88.89%"]);
    }

    #[test]
    fn fig16_matches_paper_endpoints() {
        let rows = analytic_artifact(fig16).rows;
        assert_eq!(rows[0][..2], ["8", "512"]);
        assert_eq!(rows.last().unwrap()[..2], ["256", "16384"]);
    }

    #[test]
    fn fig01_sweep_shows_seq_vs_random_divergence() {
        let rows = fig01_sweep(60_000, 7, 2);
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
    fn pinned_requests_cover_pairs_and_net() {
        let runs = pinned_requests();
        assert_eq!(runs.len(), 18);
        let mut labels: Vec<&str> = runs.iter().map(|(l, _)| l.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), runs.len(), "labels are unique");
        // A with/without pair for every calibration and guest workload.
        let calibration = mac_workloads::micro::calibration_workloads();
        for w in calibration
            .iter()
            .chain(&mac_workloads::guest::guest_workloads())
        {
            for (suffix, disabled) in [("mac", false), ("nomac", true)] {
                let label = format!("{}/{suffix}", w.name());
                let (_, req) = runs.iter().find(|(l, _)| *l == label).expect(&label);
                assert_eq!(req.cfg.system.mac_disabled, disabled, "{label}");
            }
        }
        let (_, net) = runs.iter().find(|(l, _)| l == "sg/net2").unwrap();
        assert!(net.cfg.system.net.enabled);
        // The adaptive runs pin the controller's decision trajectory.
        let adapt: Vec<_> = runs.iter().filter(|(l, _)| l.ends_with("/adapt")).collect();
        assert_eq!(adapt.len(), 2);
        assert!(adapt.iter().all(|(_, r)| r.cfg.system.adapt.enabled));
        // The idle-heavy runs that pin the skip path.
        let lat: Vec<_> = runs.iter().filter(|(l, _)| l.ends_with("/lat1")).collect();
        assert_eq!(lat.len(), 3);
        for (label, req) in lat {
            assert_eq!(req.cfg.workload.threads, 1, "{label}");
            assert_eq!(req.cfg.system.soc.threads, 1, "{label}");
            assert_eq!(req.cfg.system.soc.max_outstanding_per_thread, 1, "{label}");
        }
    }

    #[test]
    fn analytic_experiments_execute_without_simulation() {
        for name in ["table1", "fig03", "fig16"] {
            let exp = crate::manifest::manifest()
                .into_iter()
                .find(|e| e.name == name)
                .unwrap();
            let a = analytic_artifact(exp.run);
            assert_eq!(a.name, name);
            assert!(!a.rows.is_empty(), "{name}");
        }
    }
}
