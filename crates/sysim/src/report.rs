//! Run reports: merged statistics plus the paper's derived metrics.

use hmc_model::HmcStats;
use mac_coalescer::MacStats;
use mac_net::NetStats;
use mac_types::SystemConfig;
use soc_sim::SocMetrics;

/// Everything measured in one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Cycles simulated until drain.
    pub cycles: u64,
    /// Core-side metrics (merged over nodes).
    pub soc: SocMetrics,
    /// MAC statistics (merged over nodes; zeroed in baseline runs).
    pub mac: MacStats,
    /// Device statistics (merged over nodes).
    pub hmc: HmcStats,
    /// Cube-network statistics (all-zero unless `config.net.enabled`).
    pub net: NetStats,
    /// The configuration that produced this report.
    pub config: SystemConfig,
    /// Tracing summary (disabled/zero unless a tracer was attached).
    pub trace: mac_telemetry::TraceSummary,
}

impl RunReport {
    /// Eq. 3 as used in Figures 10/11: fraction of raw requests
    /// eliminated. In baseline runs this is 0 by construction.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.config.mac_disabled {
            0.0
        } else {
            self.mac.coalescing_efficiency()
        }
    }

    /// Measured bandwidth efficiency (Figure 13): payload over total link
    /// bytes.
    pub fn bandwidth_efficiency(&self) -> f64 {
        self.hmc.bandwidth_efficiency()
    }

    /// Total link traffic in bytes.
    pub fn link_bytes(&self) -> u128 {
        self.hmc.link_bytes()
    }

    /// Bank conflicts observed at the device.
    pub fn bank_conflicts(&self) -> u64 {
        self.hmc.bank_conflicts
    }

    /// Mean device access latency in cycles (dispatch → response).
    pub fn mean_access_latency(&self) -> f64 {
        self.hmc.latency.mean()
    }

    /// Total memory-system latency: the sum over all device transactions
    /// of their access latency. Figure 17 reports the *reduction* of this
    /// quantity with MAC (it measures "the difference in execution latency
    /// of HMC memory transactions ... with and without MAC").
    pub fn total_access_latency(&self) -> u128 {
        self.hmc.latency.sum
    }

    /// Figure 17's memory-system speedup versus a baseline run:
    /// `1 − latency_with / latency_without`, in percent.
    pub fn memory_speedup_vs(&self, baseline: &RunReport) -> f64 {
        let with = self.total_access_latency() as f64;
        let without = baseline.total_access_latency() as f64;
        if without <= 0.0 {
            0.0
        } else {
            (1.0 - with / without) * 100.0
        }
    }

    /// Figure 14's bandwidth saving versus a baseline run: **control**
    /// bytes avoided by coalescing (the paper measures "overhead
    /// reduction due to request aggregation ... bandwidth for control").
    /// Always non-negative: fewer transactions means fewer 32 B headers.
    pub fn bandwidth_saved_vs(&self, baseline: &RunReport) -> i128 {
        baseline.hmc.control_bytes as i128 - self.hmc.control_bytes as i128
    }

    /// Net link-byte delta versus a baseline (control savings minus the
    /// overfetch cost of large packets) — the quantity the `ablate_*`
    /// benches trade off.
    pub fn net_link_bytes_saved_vs(&self, baseline: &RunReport) -> i128 {
        baseline.link_bytes() as i128 - self.link_bytes() as i128
    }

    /// Figure 9's demand requests per cycle (Eq. 2 with the unstalled
    /// IPC of an in-order core, IPC = 1): how many raw requests per cycle
    /// the node *wants* to produce — the paper's argument that there is
    /// enough concurrency to keep the ARQ busy.
    pub fn demand_rpc(&self) -> f64 {
        self.soc.rpi()
            * self.soc.cores as f64
            * self.soc.mem_access_rate()
            * self.soc.threads.max(1) as f64
            / self.soc.cores.max(1) as f64
    }

    /// Eq. 2 with measured IPC (sustained, includes stall cycles).
    pub fn sustained_rpc(&self) -> f64 {
        self.soc.rpc()
    }

    /// Tail access latency at quantile `q` (e.g. 0.99), in cycles.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        self.hmc.latency_hist.quantile(q)
    }

    /// Fraction of device accesses that crossed the cube fabric (0.0 in
    /// single-device runs).
    pub fn remote_fraction(&self) -> f64 {
        self.net.remote_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::ReqSize;

    fn with_latency(total: u64, accesses: u64) -> RunReport {
        let mut r = RunReport::default();
        for _ in 0..accesses {
            r.hmc
                .record_access(ReqSize::B16, 16, 1, false, total / accesses);
        }
        r
    }

    #[test]
    fn speedup_matches_latency_reduction() {
        let with = with_latency(4_000, 10);
        let without = with_latency(10_000, 10);
        let s = with.memory_speedup_vs(&without);
        assert!((s - 60.0).abs() < 1e-9, "{s}");
        assert_eq!(with.memory_speedup_vs(&with), 0.0);
    }

    #[test]
    fn speedup_against_empty_baseline_is_zero() {
        let r = with_latency(100, 1);
        assert_eq!(r.memory_speedup_vs(&RunReport::default()), 0.0);
    }

    #[test]
    fn bandwidth_saving_counts_control_bytes() {
        let with = with_latency(100, 2); // 2 x 32 B control
        let without = with_latency(100, 10); // 10 x 32 B control
        assert_eq!(with.bandwidth_saved_vs(&without), (8 * 32) as i128);
        // Net link delta also includes the payload difference.
        assert_eq!(with.net_link_bytes_saved_vs(&without), (8 * 48) as i128);
    }

    #[test]
    fn baseline_reports_zero_coalescing() {
        let mut r = RunReport::default();
        r.config.mac_disabled = true;
        r.mac.raw_loads = 100;
        assert_eq!(r.coalescing_efficiency(), 0.0);
    }
}
