//! Experiment runners: workload → system → report.
//!
//! These are the low-level building blocks; batch execution with caching
//! and work stealing lives in [`crate::engine`].

use mac_check::{ConformanceChecker, OracleReplay, Violation};
use mac_types::keys::{self, Form, Key, Value};
use mac_types::{bounds, Fingerprint, Fnv128, MacPlacement, SystemConfig};
use mac_workloads::{Workload, WorkloadParams};
use soc_sim::{ReplayProgram, ThreadOp, ThreadProgram};

pub use crate::driver::RunObservers;
use crate::driver::{Fabric, RunDriver};
use crate::netsystem::NetSystem;
use crate::report::RunReport;
use crate::system::SystemSim;

/// How to run one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Workload generation parameters.
    pub workload: WorkloadParams,
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            system: SystemConfig::default(),
            workload: WorkloadParams::default(),
            max_cycles: *bounds::MAX_CYCLES.range.end(),
        }
    }
}

impl ExperimentConfig {
    /// The paper's Table 1 system with `threads` hardware threads.
    pub fn paper(threads: usize) -> Self {
        ExperimentConfig {
            system: SystemConfig::paper(threads),
            workload: WorkloadParams {
                threads,
                ..WorkloadParams::default()
            },
            ..ExperimentConfig::default()
        }
    }

    /// The run's keys beside the system's ([`keys::SYSTEM`]): the cycle
    /// cap, then the workload's scale and seed. A fuzz reproducer replays
    /// explicit operations, so it takes the cycle cap alone (`KEYS[..1]`).
    #[rustfmt::skip]
    pub const KEYS: [Key<ExperimentConfig>; 3] = [
        Key::num(&bounds::MAX_CYCLES, |c| c.max_cycles, |c, v| c.max_cycles = v),
        Key::num(&bounds::SCALE, |c| c.workload.scale.into(), |c, v| c.workload.scale = v as u32),
        Key { name: "seed", form: Form::Num(None, |c| c.workload.seed, |c, v| c.workload.seed = v) },
    ];

    /// Parse `key=value` pairs into this config: the system's keys into
    /// `system`, `run_keys` into the rest, each table in its own order.
    /// A key given twice, or a pair that names neither table, is an
    /// error. The workload's threads follow `threads`.
    pub fn parse_keys(
        &mut self,
        run_keys: &[Key<Self>],
        pairs: &[(&str, &str)],
    ) -> Result<(), String> {
        keys::unique(pairs)?;
        let rest = keys::apply(&keys::SYSTEM, &mut self.system, pairs)?;
        if let Some((k, v)) = keys::apply(run_keys, self, &rest)?.first() {
            return Err(format!("{k}={v}: unknown key"));
        }
        self.workload.threads = self.system.soc.threads;
        Ok(())
    }

    /// Every system key and each of `run_keys`, with its value, in the
    /// order [`ExperimentConfig::parse_keys`] applies them.
    pub fn key_values<'a>(
        &'a self,
        run_keys: &'a [Key<Self>],
    ) -> impl Iterator<Item = (&'static str, Value)> + 'a {
        let system = keys::SYSTEM.iter().map(|k| (k.name, k.value(&self.system)));
        system.chain(run_keys.iter().map(move |k| (k.name, k.value(self))))
    }

    /// Check the configuration against the bounds table
    /// ([`mac_types::bounds`]): the system, the workload's threads and
    /// scale, and the cycle cap. A workload runs on one node, so
    /// `soc.nodes` must be 1. Every door that takes a configuration from
    /// outside calls this and rejects what fails.
    pub fn validate(&self) -> Result<(), String> {
        validate_run(&self.system, 1, self.max_cycles)?;
        bounds::THREADS.check(self.workload.threads as u64)?;
        bounds::SCALE.check(u64::from(self.workload.scale))?;
        Ok(())
    }
}

/// Check a run of `nodes` program sets under `sys` for at most
/// `max_cycles`: the system and the cycle cap against the bounds table,
/// and `sys.soc.nodes` against the node count the run builds.
pub(crate) fn validate_run(
    sys: &SystemConfig,
    nodes: usize,
    max_cycles: u64,
) -> Result<(), String> {
    sys.validate()?;
    bounds::MAX_CYCLES.check(max_cycles)?;
    if sys.soc.nodes != nodes {
        return Err(format!(
            "nodes={} but the run builds {nodes} node(s)",
            sys.soc.nodes
        ));
    }
    Ok(())
}

impl Fingerprint for ExperimentConfig {
    fn fingerprint(&self, h: &mut Fnv128) {
        self.system.fingerprint(h);
        self.workload.fingerprint(h);
        h.write_u64(self.max_cycles);
    }
}

/// Materialize a workload's traces as thread programs.
fn programs_for(w: &dyn Workload, params: &WorkloadParams) -> Vec<Box<dyn ThreadProgram>> {
    w.generate(params)
        .into_iter()
        .map(|ops| Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>)
        .collect()
}

/// Run one workload on one configuration.
pub fn run_workload(w: &dyn Workload, cfg: &ExperimentConfig) -> RunReport {
    run_workload_observed(w, cfg, RunObservers::default())
}

/// Run one workload with an observer bundle attached (tracer, metrics
/// hub, host-side profiler, live progress probe). This is the entry
/// point mac-serve and the profiled engine path use. Every observer is
/// observational, so the report is identical whatever is attached. A
/// checker in the bundle is fed and finished but its verdict is not
/// returned; [`run_workload_checked`] returns it.
pub fn run_workload_observed(
    w: &dyn Workload,
    cfg: &ExperimentConfig,
    obs: RunObservers,
) -> RunReport {
    let programs = vec![programs_for(w, &cfg.workload)];
    run_placed(&cfg.system, programs, cfg.max_cycles, obs, false).0
}

/// [`run_workload_observed`] forced onto the cycle-by-cycle reference
/// loop instead of the event-driven fast path. Both modes produce
/// byte-identical reports and observations (DESIGN.md §14); this entry
/// point exists so the golden equivalence tests can prove it.
pub fn run_workload_stepped(
    w: &dyn Workload,
    cfg: &ExperimentConfig,
    obs: RunObservers,
) -> RunReport {
    let programs = vec![programs_for(w, &cfg.workload)];
    run_placed(&cfg.system, programs, cfg.max_cycles, obs, true).0
}

/// Build the system loop `sys` selects for `programs[node][thread]`,
/// attach `obs`, and run it. Per-cube coalescer placement gets the
/// per-cube loop (single node only); everything else (single device,
/// multi-node, host-side coalescing over a network) runs `SystemSim`.
/// Returns the report and the checker, if one was attached.
///
/// Every workload and checked run starts here, so a debug build holds
/// every configuration the code builds to the bounds table, and to one
/// program set per node.
fn run_placed(
    sys: &SystemConfig,
    programs: Vec<Vec<Box<dyn ThreadProgram>>>,
    max_cycles: u64,
    obs: RunObservers,
    stepped: bool,
) -> (RunReport, Option<ConformanceChecker>) {
    fn drive<F: Fabric>(
        mut sim: RunDriver<F>,
        obs: RunObservers,
        stepped: bool,
        max_cycles: u64,
    ) -> (RunReport, Option<ConformanceChecker>) {
        if let Some(t) = obs.tracer {
            sim.set_tracer(t);
        }
        sim.set_metrics(obs.metrics);
        sim.set_profiler(obs.profiler);
        if let Some(p) = obs.progress {
            sim.set_progress(p);
        }
        if let Some(c) = obs.checker {
            sim.set_checker(c);
        }
        sim.set_stepped(stepped);
        let report = sim.run(max_cycles);
        (report, sim.take_checker())
    }
    debug_assert_eq!(validate_run(sys, programs.len(), max_cycles), Ok(()));
    if sys.net.enabled && sys.net.placement == MacPlacement::PerCube {
        let [node]: [_; 1] = programs
            .try_into()
            .unwrap_or_else(|_| panic!("per-cube placement models a single host node"));
        drive(NetSystem::new(sys, node), obs, stepped, max_cycles)
    } else {
        drive(
            SystemSim::new_multi(sys, programs),
            obs,
            stepped,
            max_cycles,
        )
    }
}

/// Outcome of a conformance-checked run: the ordinary report plus the
/// invariant checker's violations and the oracle diff.
#[derive(Debug)]
pub struct CheckedRun {
    /// The run's report, exactly as an unchecked run would produce it.
    pub report: RunReport,
    /// Invariant violations the checker recorded (I1–I10).
    pub violations: Vec<Violation>,
    /// Functional divergences between the simulator and the timing-free
    /// oracle replay of the same operation lists.
    pub divergences: Vec<String>,
}

impl CheckedRun {
    /// True when the run was both invariant-clean and oracle-faithful.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.divergences.is_empty()
    }
}

/// Run explicit per-node, per-thread operation lists under `sys` with
/// the conformance checker attached, then diff the observed behaviour
/// against the functional oracle. `ops_per_node[n][t]` is node `n`'s
/// thread `t` program; per-cube placement requires a single node.
pub fn run_ops_checked(
    sys: &SystemConfig,
    ops_per_node: &[Vec<Vec<ThreadOp>>],
    max_cycles: u64,
) -> CheckedRun {
    let oracle = OracleReplay::replay(ops_per_node);
    let programs: Vec<Vec<Box<dyn ThreadProgram>>> = ops_per_node
        .iter()
        .map(|threads| {
            threads
                .iter()
                .map(|ops| Box::new(ReplayProgram::new(ops.clone())) as Box<dyn ThreadProgram>)
                .collect()
        })
        .collect();
    let obs = RunObservers {
        checker: Some(ConformanceChecker::new(sys)),
        ..RunObservers::default()
    };
    let (report, checker) = run_placed(sys, programs, max_cycles, obs, false);
    let checker = checker.expect("attached above");
    let divergences = oracle.diff(&checker);
    CheckedRun {
        report,
        violations: checker.into_violations(),
        divergences,
    }
}

/// Run one workload on one configuration with the conformance checker
/// attached and the oracle diffed (the `mac-bench fuzz --smoke` path).
pub fn run_workload_checked(w: &dyn Workload, cfg: &ExperimentConfig) -> CheckedRun {
    let ops = vec![w.generate(&cfg.workload)];
    run_ops_checked(&cfg.system, &ops, cfg.max_cycles)
}

/// Run one workload with and without the MAC (same traces, same device).
/// Returns `(with_mac, without_mac)`.
pub fn run_pair(w: &dyn Workload, cfg: &ExperimentConfig) -> (RunReport, RunReport) {
    let with = run_workload(w, cfg);
    let mut base_cfg = cfg.clone();
    base_cfg.system.mac_disabled = true;
    let without = run_workload(w, &base_cfg);
    (with, without)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_workloads::sg::ScatterGather;

    fn small_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg
    }

    #[test]
    fn sg_runs_to_completion_with_and_without_mac() {
        let (with, without) = run_pair(&ScatterGather, &small_cfg());
        // All raw requests must complete in both modes.
        assert_eq!(with.soc.raw_requests, with.soc.completions);
        assert_eq!(without.soc.raw_requests, without.soc.completions);
        assert_eq!(
            with.soc.raw_requests, without.soc.raw_requests,
            "same trace"
        );
        // MAC reduces transactions.
        assert!(with.hmc.accesses() < without.hmc.accesses());
        assert!(with.coalescing_efficiency() > 0.05);
    }
}
