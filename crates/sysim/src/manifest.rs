//! The experiment manifest: every paper figure/table and repo ablation as
//! a declarative entry the engine can schedule.
//!
//! Each [`Experiment`] names the [`catalog`] builder that computes its
//! rows, and records the paper claim it reproduces, so `mac-bench --list`
//! and `EXPERIMENTS.md` stay in sync with the code. The engine and
//! `mac-serve` run an entry by calling that builder.
//!
//! ```
//! let all = mac_sim::manifest::manifest();
//! assert!(all.iter().any(|e| e.name == "fig10"));
//!
//! // Filters match names and tags, with `*` globbing:
//! let figs = mac_sim::manifest::select("fig1?");
//! assert!(figs.iter().all(|e| e.name.starts_with("fig1")));
//! let smoke = mac_sim::manifest::select("smoke");
//! assert_eq!(smoke.len(), 3); // engine smoke + net smoke + guest smoke
//! ```

use crate::catalog;
use crate::engine::{Artifact, ExpCtx};

/// One manifest entry: a named, tagged experiment plus the paper claim it
/// reproduces.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Unique name; also the output file stem and `--filter` subject.
    pub name: &'static str,
    /// Human-readable one-liner for `mac-bench --list`.
    pub title: &'static str,
    /// The paper claim this experiment checks (EXPERIMENTS.md quotes it).
    pub claim: &'static str,
    /// Filter tags (`figure`, `table`, `ablation`, `aux`, `smoke`,
    /// `paired`, `sim`, `analytic`).
    pub tags: &'static [&'static str],
    /// The catalog builder that runs this entry's simulations and
    /// formats its artifacts.
    pub run: fn(&ExpCtx) -> Vec<Artifact>,
    /// Whether the builder reads `--scale`. One that does not (the
    /// analytic entries and the fixed-scale smoke, pinned and
    /// cross-validation runs) runs and is cached at scale 1 whatever
    /// `--scale` says, so one artifact serves every scale.
    pub scaled: bool,
}

/// Every experiment the runner knows, in canonical (paper) order.
pub fn manifest() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            title: "Table 1: simulation environment",
            claim: "8 cores @ 3.3 GHz, 4-link 8 GB HMC, 32-entry 64 B ARQ",
            tags: &["table", "analytic"],
            run: catalog::table1,
            scaled: false,
        },
        Experiment {
            name: "fig01",
            title: "Figure 1: LLC miss rates + SG seq-vs-random sweep",
            claim: "mean LLC miss rate 49.09%; SG 2.36% seq vs 63.85% random at 32 GB",
            tags: &["figure", "sim"],
            run: catalog::fig01,
            scaled: true,
        },
        Experiment {
            name: "fig03",
            title: "Figure 3: analytic bandwidth efficiency per request size",
            claim: "16 B requests reach 33.33% efficiency, 256 B reach 88.89%",
            tags: &["figure", "analytic"],
            run: catalog::fig03,
            scaled: false,
        },
        Experiment {
            name: "fig09",
            title: "Figure 9: raw requests per cycle",
            claim: "paper mean 9.32 demand requests per cycle across the suite",
            tags: &["figure", "sim"],
            run: catalog::fig09,
            scaled: true,
        },
        Experiment {
            name: "fig10",
            title: "Figure 10: coalescing efficiency at 2/4/8 threads",
            claim: "paper means 48.37% / 50.51% / 52.86% at 2/4/8 threads",
            tags: &["figure", "sim"],
            run: catalog::fig10,
            scaled: true,
        },
        Experiment {
            name: "fig11",
            title: "Figure 11: efficiency vs ARQ entries",
            claim: "37.58% at 8 entries to 56.04% at 64, diminishing returns",
            tags: &["figure", "sim"],
            run: catalog::fig11,
            scaled: true,
        },
        Experiment {
            name: "fig12",
            title: "Figure 12: bank-conflict reduction",
            claim: "coalescing removes most raw-access bank conflicts",
            tags: &["figure", "sim", "paired"],
            run: catalog::fig12,
            scaled: true,
        },
        Experiment {
            name: "fig13",
            title: "Figure 13: measured bandwidth efficiency",
            claim: "70.35% coalesced vs 33.33% raw 16 B",
            tags: &["figure", "sim", "paired"],
            run: catalog::fig13,
            scaled: true,
        },
        Experiment {
            name: "fig14",
            title: "Figure 14: link bandwidth saved",
            claim: "mean 22.76 GB of link traffic avoided at full scale",
            tags: &["figure", "sim", "paired"],
            run: catalog::fig14,
            scaled: true,
        },
        Experiment {
            name: "fig15",
            title: "Figure 15: merged targets per ARQ entry",
            claim: "2.13 average / 3.14 max targets — 12-target entries never bind",
            tags: &["figure", "sim"],
            run: catalog::fig15,
            scaled: true,
        },
        Experiment {
            name: "fig16",
            title: "Figure 16: ARQ space overhead",
            claim: "512 B at 8 entries to 16 KB at 256; default MAC ~2062 B total",
            tags: &["figure", "analytic"],
            run: catalog::fig16,
            scaled: false,
        },
        Experiment {
            name: "fig17",
            title: "Figure 17: memory-system speedup",
            claim: "mean 60.73% speedup; MG/GRAPPOLO/SG/SPARSELU above 70%",
            tags: &["figure", "sim", "paired"],
            run: catalog::fig17,
            scaled: true,
        },
        Experiment {
            name: "ablate_flit_table",
            title: "Ablation: FLIT-table sizing policy",
            claim: "span-rounded sizing beats always-256B and per-chunk-64B strawmen",
            tags: &["ablation", "sim"],
            run: catalog::ablate_flit_table,
            scaled: true,
        },
        Experiment {
            name: "ablate_bypass",
            title: "Ablation: B-bit bypass path",
            claim: "bypassing lone FLITs avoids 48 B of wasted payload per packet",
            tags: &["ablation", "sim"],
            run: catalog::ablate_bypass,
            scaled: true,
        },
        Experiment {
            name: "ablate_latency_hiding",
            title: "Ablation: latency-hiding fill",
            claim: "comparator-skipping bulk fills keep the ARQ busy under backlog",
            tags: &["ablation", "sim"],
            run: catalog::ablate_latency_hiding,
            scaled: true,
        },
        Experiment {
            name: "ablate_pop_rate",
            title: "Ablation: ARQ pop interval",
            claim: "one pop per 2 cycles balances merge window vs queueing delay",
            tags: &["ablation", "sim"],
            run: catalog::ablate_pop_rate,
            scaled: true,
        },
        Experiment {
            name: "ablate_closed_loop",
            title: "Ablation: core concurrency model",
            claim: "open-loop replay vs stall-until-complete cores",
            tags: &["ablation", "sim"],
            run: catalog::ablate_closed_loop,
            scaled: true,
        },
        Experiment {
            name: "ablate_mshr_baseline",
            title: "Ablation: MAC vs MSHR coalescing",
            claim: "row-granular ARQ merging beats 64 B MSHR line merging",
            tags: &["ablation", "sim"],
            run: catalog::ablate_mshr_baseline,
            scaled: true,
        },
        Experiment {
            name: "ablate_accept_width",
            title: "Ablation: ARQ accept-port width",
            claim: "the 1/cycle accept port caps steady-state coalescing near 50%",
            tags: &["ablation", "sim"],
            run: catalog::ablate_accept_width,
            scaled: true,
        },
        Experiment {
            name: "ablate_smt",
            title: "Ablation: context-switch penalty (8 threads on 2 cores)",
            claim: "switch cost erodes the concurrency that feeds the MAC",
            tags: &["ablation", "sim"],
            run: catalog::ablate_smt,
            scaled: true,
        },
        Experiment {
            name: "ablate_link_errors",
            title: "Ablation: HMC link packet error rate",
            claim: "CRC retries add mean latency with the error rate; the p99 holds up to 5 %",
            tags: &["ablation", "sim"],
            run: catalog::ablate_link_errors,
            scaled: true,
        },
        Experiment {
            name: "adapt_ablation",
            title: "Ablation: static operating points vs the adaptive controller",
            claim: "evidence-driven retuning matches the best static point per workload",
            tags: &["ablation", "sim", "adapt"],
            run: catalog::adapt_ablation,
            scaled: true,
        },
        Experiment {
            name: "backend_hbm",
            title: "MAC on HMC vs HBM back ends",
            claim: "§4.3: the same coalescing logic transfers to HBM",
            tags: &["aux", "sim", "paired"],
            run: catalog::backend_hbm,
            scaled: true,
        },
        Experiment {
            name: "baseline_ddr",
            title: "Baseline: DDR4 vs raw HMC vs HMC+MAC",
            claim: "§2.2: DDR row hits coalesce but serialize; HMC+MAC wins both",
            tags: &["aux", "sim"],
            run: catalog::baseline_ddr,
            scaled: true,
        },
        Experiment {
            name: "extended_suite",
            title: "Extended suite: +GAP CC/SSSP/TC",
            claim: "coalescing gains generalize beyond the paper's 12 benchmarks",
            tags: &["aux", "sim", "paired"],
            run: catalog::extended_suite,
            scaled: true,
        },
        Experiment {
            name: "latency_tails",
            title: "Tail latency: p50/p99 with and without MAC",
            claim: "coalescing removes the conflict-queueing latency tail",
            tags: &["aux", "sim", "paired"],
            run: catalog::latency_tails,
            scaled: true,
        },
        Experiment {
            name: "pins",
            title: "Pinned runs: 9 exact counters of 18 smoke-scale runs",
            claim: "the simulator's behaviour, pinned for regeneration (not a paper figure)",
            tags: &["aux", "sim"],
            run: catalog::pins,
            scaled: false,
        },
        Experiment {
            name: "smoke",
            title: "CI smoke: stream+gups micro pairs, reduced cycle cap",
            claim: "the engine end-to-end in seconds (not a paper figure)",
            tags: &["smoke", "sim", "paired"],
            run: catalog::smoke,
            scaled: false,
        },
        Experiment {
            name: "net_chain_sweep",
            title: "mac-net: latency/efficiency vs chain length (1/2/4/8 cubes)",
            claim: "HMC §7 chaining: remote latency grows per hop; 1 cube = single device",
            tags: &["net", "aux", "sim"],
            run: catalog::net_chain_sweep,
            scaled: true,
        },
        Experiment {
            name: "net_placement",
            title: "mac-net: coalescer placement, host vs per-cube ingress",
            claim: "host-side MACs merge before the hop; per-cube MACs pay raw request traffic",
            tags: &["net", "aux", "sim"],
            run: catalog::net_placement,
            scaled: true,
        },
        Experiment {
            name: "net_topology",
            title: "mac-net: chain vs ring vs mesh at 4 cubes",
            claim: "fewer mean hops (ring, mesh) cut remote latency on the same traffic",
            tags: &["net", "aux", "sim"],
            run: catalog::net_topology,
            scaled: true,
        },
        Experiment {
            name: "net_smoke",
            title: "mac-net CI smoke: one chain-of-2 run, reduced cycle cap",
            claim: "the cube network end-to-end in seconds (not a paper figure)",
            tags: &["net", "smoke", "sim"],
            run: catalog::net_smoke,
            scaled: false,
        },
        Experiment {
            name: "guest_smoke",
            title: "mac-guest CI smoke: ELF guest binaries through the full engine",
            claim: "real rv64 binaries drive SystemSim like modeled traces (not a paper figure)",
            tags: &["guest", "smoke", "sim"],
            run: catalog::guest_smoke,
            scaled: false,
        },
        Experiment {
            name: "guest_xval",
            title: "mac-guest cross-validation: guest vs modeled address streams",
            claim:
                "guest binaries reproduce the modeled kernels' access statistics within tolerance",
            tags: &["guest", "xval", "sim"],
            run: catalog::guest_xval,
            scaled: false,
        },
    ]
}

/// Shell-style glob match supporting `*` (any run) and `?` (any one
/// character), case-sensitive, anchored at both ends.
fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    // Iterative backtracking matcher: track the most recent `*`.
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut star_ni) = (usize::MAX, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            star_ni = ni;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            star_ni += 1;
            ni = star_ni;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

impl Experiment {
    /// Does this entry match a single filter pattern (against its name or
    /// any of its tags)?
    pub fn matches(&self, pattern: &str) -> bool {
        glob_match(pattern, self.name) || self.tags.iter().any(|t| glob_match(pattern, t))
    }

    /// The scale this entry runs and is cached at under `--scale scale`:
    /// `scale` itself, or 1 for an entry that is not [`scaled`](Self::scaled).
    pub fn scale(&self, scale: u32) -> u32 {
        if self.scaled {
            scale
        } else {
            1
        }
    }
}

/// Manifest entries matching a comma-separated list of glob patterns
/// (each matched against names and tags). An empty filter selects
/// everything except the `smoke`-tagged entries, which must be asked for
/// by name or tag.
pub fn select(filter: &str) -> Vec<Experiment> {
    let pats: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect();
    manifest()
        .into_iter()
        .filter(|e| {
            if pats.is_empty() {
                !e.tags.contains(&"smoke")
            } else {
                pats.iter().any(|p| e.matches(p))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_are_unique() {
        let m = manifest();
        let names: std::collections::HashSet<_> = m.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), m.len());
        assert_eq!(m.len(), 34);
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("fig*", "fig10"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("fig1?", "fig12"));
        assert!(!glob_match("fig1?", "fig1"));
        assert!(!glob_match("fig*", "table1"));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b*c", "aXXbYY"));
        assert!(glob_match("smoke", "smoke"));
        assert!(!glob_match("smoke", "smokey"));
    }

    #[test]
    fn empty_filter_selects_all_but_smoke() {
        let sel = select("");
        assert_eq!(sel.len(), manifest().len() - 3);
        assert!(sel.iter().all(|e| !e.tags.contains(&"smoke")));
        assert!(sel.iter().any(|e| e.name == "net_chain_sweep"));
    }

    #[test]
    fn filters_match_tags_and_names() {
        assert!(select("ablation").len() >= 10);
        assert_eq!(select("adapt").len(), 1);
        assert!(select("paired").iter().any(|e| e.name == "fig17"));
        assert_eq!(select("smoke").len(), 3);
        assert_eq!(select("net_*").len(), 4);
        assert_eq!(select("net").len(), 4);
        assert_eq!(select("guest").len(), 2);
        let multi = select("table1,fig03");
        assert_eq!(multi.len(), 2);
        assert!(select("no-such-thing").is_empty());
    }
}
