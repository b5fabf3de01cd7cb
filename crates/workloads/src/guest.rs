//! Guest-binary workloads: real RISC-V programs as trace sources.
//!
//! Each [`GuestKernel`] wraps a shipped [`mac_guest::ProgramSpec`] and
//! satisfies the [`Workload`] trait by assembling the checked-in `.s`
//! source, placing the object in the rv64 interpreter's memory, and
//! executing it once per simulated thread — the captured memory events become
//! the per-thread [`ThreadOp`] streams, exactly like a modeled
//! kernel's `generate`. Names are `guest_*` and disjoint from the
//! modeled suite, so cached fingerprints never collide.

use crate::{Workload, WorkloadParams};
use mac_guest::{capture_traces, shipped_programs, ProgramSpec};
use soc_sim::ThreadOp;

/// A shipped guest program adapted to the [`Workload`] trait.
pub struct GuestKernel(pub &'static ProgramSpec);

impl Workload for GuestKernel {
    fn name(&self) -> &'static str {
        self.0.name
    }

    fn generate(&self, params: &WorkloadParams) -> Vec<Vec<ThreadOp>> {
        capture_traces(self.0, params.threads, params.scale, params.seed)
            .unwrap_or_else(|e| panic!("guest workload {}: {e}", self.0.name))
    }
}

/// One [`GuestKernel`] per shipped guest program.
pub fn guest_workloads() -> Vec<Box<dyn Workload>> {
    shipped_programs()
        .iter()
        .map(|spec| Box::new(GuestKernel(spec)) as Box<dyn Workload>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, count_mem_ops, extended_workloads};

    #[test]
    fn guest_names_resolve_via_by_name_and_stay_disjoint() {
        let modeled: std::collections::HashSet<_> =
            extended_workloads().iter().map(|w| w.name()).collect();
        for w in guest_workloads() {
            assert!(w.name().starts_with("guest_"), "{}", w.name());
            assert!(!modeled.contains(w.name()), "{} collides", w.name());
            assert!(by_name(w.name()).is_some(), "{} not addressable", w.name());
        }
        assert_eq!(guest_workloads().len(), 4);
    }

    #[test]
    fn guest_kernel_generates_like_a_modeled_workload() {
        let p = WorkloadParams {
            threads: 2,
            scale: 1,
            seed: 9,
        };
        let w = by_name("guest_stream").expect("guest_stream registered");
        let a = w.generate(&p);
        assert_eq!(a.len(), 2, "one trace per thread");
        assert!(count_mem_ops(&a) > 1000);
        let b = w.generate(&p);
        assert_eq!(a, b, "guest traces are deterministic");
    }
}
