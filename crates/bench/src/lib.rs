//! # mac-bench
//!
//! The benchmark harness: the `mac-bench` runner binary that regenerates
//! every table/figure/ablation of the paper through the manifest-driven
//! parallel engine in `mac-sim`, the `trace_tools` CLI for the §5.1
//! tracer/analyzer workflow, and Criterion micro-benchmarks of the MAC
//! hot paths (`cargo bench`).
//!
//! ```text
//! cargo run --release -p mac-bench -- --filter fig10 --jobs 8
//! ```
//!
//! Larger `--scale` values run bigger workloads (closer to the paper's
//! sizes, slower to simulate). The default (2) finishes every figure in
//! minutes on a laptop. See EXPERIMENTS.md for the full catalog.

#![warn(missing_docs)]

use mac_sim::experiment::ExperimentConfig;

// Formatting helpers shared with the experiment catalog (the canonical
// definitions moved to `mac_sim::catalog` with the engine refactor).
pub use mac_sim::catalog::{human_bytes, pct};

/// The standard experiment configuration for figure regeneration:
/// Table 1 system, 8 threads, given scale.
pub fn paper_config(scale: u32) -> ExperimentConfig {
    mac_sim::catalog::paper_config(scale)
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
}
