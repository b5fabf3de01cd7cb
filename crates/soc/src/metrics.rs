//! Node-level metrics and the Eq. 2 requests-per-cycle model (Figure 9).
//!
//! ```text
//! RPC = IPC x RPI x #Cores x Mem_Access_Rate            (Eq. 2)
//! ```
//!
//! where IPC is instructions per cycle per core, RPI requests per
//! instruction, and the memory-access rate is the fraction of memory
//! operations that miss the scratchpads and reach the MAC.

/// Metrics accumulated by one node over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SocMetrics {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired across all threads (compute + memory + SPM).
    pub instructions: u64,
    /// Scratchpad accesses (node-local).
    pub spm_accesses: u64,
    /// Memory operations executed (SPM misses + fences + atomics).
    pub mem_ops: u64,
    /// Raw requests issued toward the MAC.
    pub raw_requests: u64,
    /// Completions delivered back to threads.
    pub completions: u64,
    /// Cores in the node.
    pub cores: usize,
    /// Hardware threads in the node.
    pub threads: usize,
}

impl SocMetrics {
    /// Instructions per cycle per core.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 || self.cores == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64 / self.cores as f64
        }
    }

    /// Memory requests per instruction.
    pub fn rpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.mem_ops + self.spm_accesses) as f64 / self.instructions as f64
        }
    }

    /// Fraction of memory operations that reach the MAC (SPM misses).
    pub fn mem_access_rate(&self) -> f64 {
        let total = self.mem_ops + self.spm_accesses;
        if total == 0 {
            0.0
        } else {
            self.mem_ops as f64 / total as f64
        }
    }

    /// Eq. 2's requests per cycle. Note this equals
    /// `raw_requests / cycles` by construction; the factored form is kept
    /// because Figure 9 reports the factors.
    pub fn rpc(&self) -> f64 {
        self.ipc() * self.rpi() * self.cores as f64 * self.mem_access_rate()
    }

    /// Directly measured requests per cycle (should agree with [`SocMetrics::rpc`]).
    pub fn measured_rpc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.raw_requests as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SocMetrics {
        SocMetrics {
            cycles: 1000,
            instructions: 6000,
            spm_accesses: 1000,
            mem_ops: 500,
            raw_requests: 500,
            completions: 500,
            cores: 8,
            threads: 8,
        }
    }

    #[test]
    fn eq2_factors() {
        let m = sample();
        assert!((m.ipc() - 0.75).abs() < 1e-9);
        assert!((m.rpi() - 0.25).abs() < 1e-9);
        assert!((m.mem_access_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn eq2_equals_direct_measurement() {
        let m = sample();
        assert!((m.rpc() - m.measured_rpc()).abs() < 1e-9);
        assert!((m.measured_rpc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = SocMetrics::default();
        assert_eq!(m.ipc(), 0.0);
        assert_eq!(m.rpi(), 0.0);
        assert_eq!(m.mem_access_rate(), 0.0);
        assert_eq!(m.rpc(), 0.0);
    }
}
