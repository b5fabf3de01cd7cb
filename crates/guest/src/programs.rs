//! The shipped guest programs and the workload-capture bridge.
//!
//! Each program is a checked-in `.s` source assembled at build/test
//! time (`include_str!`), with the memory/step budget formulas the
//! runtime needs and — for the kernels that reproduce a modeled
//! workload — the name of that counterpart for cross-validation.

use crate::runtime::{run_guest, GuestArgs, GuestConfig};
use rv64_sim::{assemble_object, Object};
use soc_sim::ThreadOp;

/// A shipped guest kernel: source plus runtime budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Workload name (`guest_*`, disjoint from the modeled suite).
    pub name: &'static str,
    /// Modeled counterpart for cross-validation, when one exists.
    pub modeled: Option<&'static str>,
    /// One-line description.
    pub title: &'static str,
    /// Assembly source text.
    pub source: &'static str,
    /// Guest memory: fixed part in bytes.
    pub mem_base: usize,
    /// Guest memory: additional bytes per unit of scale.
    pub mem_per_scale: usize,
    /// Guest memory: additional bytes per simulated thread.
    pub mem_per_thread: usize,
    /// Step budget: fixed part.
    pub steps_base: u64,
    /// Step budget: additional steps per unit of scale.
    pub steps_per_scale: u64,
}

impl ProgramSpec {
    /// Memory size for one guest execution.
    pub fn mem_bytes(&self, threads: usize, scale: u32) -> usize {
        self.mem_base + self.mem_per_scale * scale as usize + self.mem_per_thread * threads
    }

    /// Step budget for one guest execution.
    pub fn max_steps(&self, scale: u32) -> u64 {
        self.steps_base + self.steps_per_scale * scale as u64
    }

    /// Assemble the source into a placed object.
    pub fn object(&self) -> Result<Object, String> {
        assemble_object(self.source).map_err(|e| format!("{}: {e}", self.name))
    }
}

/// The shipped guest kernels.
pub fn shipped_programs() -> &'static [ProgramSpec] {
    &[
        ProgramSpec {
            name: "guest_stream",
            modeled: Some("stream"),
            title: "stream-triad a[i] = b[i] + k*c[i] (mirrors `stream`)",
            source: include_str!("../programs/stream_triad.s"),
            mem_base: 0x101_0000,
            mem_per_scale: 0x6_0000,
            mem_per_thread: 0,
            steps_base: 4_000_000,
            steps_per_scale: 4_000_000,
        },
        ProgramSpec {
            name: "guest_gups",
            modeled: Some("gups"),
            title: "random atomic table updates (mirrors `gups`)",
            source: include_str!("../programs/random_access.s"),
            mem_base: 0x201_0000,
            mem_per_scale: 0,
            mem_per_thread: 0,
            steps_base: 4_000_000,
            steps_per_scale: 4_000_000,
        },
        ProgramSpec {
            name: "guest_ptrchase",
            modeled: None,
            title: "serial pointer-chase over a per-thread random ring",
            source: include_str!("../programs/pointer_chase.s"),
            mem_base: 0x101_0000,
            mem_per_scale: 0,
            mem_per_thread: 0x1_0000,
            steps_base: 4_000_000,
            steps_per_scale: 4_000_000,
        },
        ProgramSpec {
            name: "guest_sg",
            modeled: Some("sg"),
            title: "random gather a[i] = b[c[i]] (mirrors `sg`)",
            source: include_str!("../programs/sg_gather.s"),
            mem_base: 0x301_0000,
            mem_per_scale: 0x1_0000,
            mem_per_thread: 0,
            steps_base: 4_000_000,
            steps_per_scale: 4_000_000,
        },
    ]
}

/// Look a shipped program up by its workload name.
pub fn program_by_name(name: &str) -> Option<&'static ProgramSpec> {
    shipped_programs().iter().find(|p| p.name == name)
}

/// Run a guest program once per simulated thread and capture the
/// per-thread [`ThreadOp`] traces — the guest-side equivalent of a
/// modeled workload's `generate`.
///
/// Assembles the source once and runs the object on every thread.
/// Fails unless every thread exits cleanly with status 0.
pub fn capture_traces(
    spec: &ProgramSpec,
    threads: usize,
    scale: u32,
    seed: u64,
) -> Result<Vec<Vec<ThreadOp>>, String> {
    let obj = spec.object()?;
    let cfg = GuestConfig {
        mem_bytes: spec.mem_bytes(threads, scale),
        max_steps: spec.max_steps(scale),
        ..GuestConfig::default()
    };
    let mut traces = Vec::with_capacity(threads);
    for tid in 0..threads {
        let args = GuestArgs {
            tid: tid as u64,
            nthreads: threads as u64,
            scale: scale as u64,
            seed,
        };
        let run = run_guest(&obj, &args, &cfg);
        if !run.exit.is_success() {
            return Err(format!(
                "{} thread {tid}: guest did not exit cleanly: {}",
                spec.name, run.exit
            ));
        }
        traces.push(run.ops);
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xval::{cross_validate, TraceProfile, XvalTolerances};

    #[test]
    fn every_shipped_program_fits_its_memory_budget() {
        for spec in shipped_programs() {
            let obj = spec.object().expect(spec.name);
            assert!(!obj.text.is_empty(), "{}: empty text", spec.name);
            for (base, bytes) in obj.sections() {
                assert!(
                    base + bytes.len() as u64 <= spec.mem_bytes(8, 1) as u64,
                    "{}: budget below section end",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_shipped_program_runs_clean_on_every_thread() {
        for spec in shipped_programs() {
            let traces = capture_traces(spec, 4, 1, 0xC0FFEE).expect(spec.name);
            assert_eq!(traces.len(), 4);
            let p = TraceProfile::of(&traces);
            assert!(p.mem_ops > 1000, "{}: {} mem ops", spec.name, p.mem_ops);
        }
    }

    #[test]
    fn captured_traces_are_deterministic() {
        let spec = program_by_name("guest_gups").unwrap();
        let a = capture_traces(spec, 2, 1, 7).unwrap();
        let b = capture_traces(spec, 2, 1, 7).unwrap();
        assert_eq!(a, b);
        let c = capture_traces(spec, 2, 1, 8).unwrap();
        assert_ne!(a, c, "seed reaches the guest RNG");
    }

    #[test]
    fn ptrchase_is_serially_dependent() {
        let spec = program_by_name("guest_ptrchase").unwrap();
        let traces = capture_traces(spec, 1, 1, 0).unwrap();
        let p = TraceProfile::of(&traces);
        // 8192 init stores + 16384 chase loads.
        assert_eq!(p.stores, 8192);
        assert_eq!(p.loads, 16384);
        // The chase revisits the ring: far fewer rows than loads.
        assert!(p.distinct_rows <= 0x10000 / 256 + 2);
    }

    #[test]
    fn guest_stream_profile_is_self_consistent() {
        let spec = program_by_name("guest_stream").unwrap();
        let traces = capture_traces(spec, 8, 1, 0xC0FFEE).unwrap();
        let p = TraceProfile::of(&traces);
        // 3 accesses per element + one k_mul load per thread.
        assert_eq!(p.mem_ops, 3 * 16384 + 8);
        // Consecutive accesses hop between the three arrays: two big
        // forward jumps (b->c, a->next b) per one big backward (c->a).
        assert!(p.stride[4] > p.stride[8], "{:?}", p.stride);
        assert!(p.stride[8] > 16000, "{:?}", p.stride);
        // Identical seeds cross-validate against itself trivially.
        let r = cross_validate(&p, &p, &XvalTolerances::default());
        assert!(r.pass);
    }
}
