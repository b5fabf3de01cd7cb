//! The four workloads: which simulations one pass runs, and the set-up
//! that builds them.

use std::time::Instant;

use mac_check::ConformanceChecker;
use mac_sim::fuzz::FuzzCase;
use mac_sim::{CheckedRun, ExperimentConfig, NetSystem, RunReport, SimPool, SimRequest, SystemSim};
use mac_telemetry::Profiler;
use mac_types::{MacPlacement, SystemConfig};
use mac_workloads::{all_workloads, by_name, count_mem_ops};
use soc_sim::{ReplayProgram, ThreadOp, ThreadProgram};

use crate::mix;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_suite", "dense", "idle", "checked_mix"];

/// Inputs per `checked_mix` pass; each runs with and without the MAC.
const MIX_INPUTS: usize = 50;

/// Per-node, per-thread operation lists: one simulation's input.
pub type Ops = Vec<Vec<Vec<ThreadOp>>>;

/// How a simulation is executed.
#[derive(Debug, Clone)]
pub enum SimKind {
    /// Through a fresh cache-less `SimPool::new(1)`; the workload is
    /// regenerated inside the simulation, as every pooled run does.
    Pooled(SimRequest),
    /// Through `run_ops_checked`: conformance checker and oracle diff.
    Checked(FuzzCase),
}

/// One simulation of a workload's batch.
#[derive(Debug, Clone)]
pub struct Sim {
    /// `<input>/<mac|nomac>`.
    pub label: String,
    /// Index of this simulation's input in [`Setup::inputs`].
    pub input: usize,
    /// How to run it.
    pub kind: SimKind,
}

/// What one simulation produced.
#[derive(Debug)]
pub struct SimResult {
    /// The run's report.
    pub report: RunReport,
    /// Invariant violations plus oracle divergences (checked runs only).
    pub violations: usize,
}

impl Sim {
    /// The simulated system.
    pub fn system(&self) -> &SystemConfig {
        match &self.kind {
            SimKind::Pooled(req) => &req.cfg.system,
            SimKind::Checked(case) => &case.sys,
        }
    }

    /// The simulation's cycle cap.
    pub fn max_cycles(&self) -> u64 {
        match &self.kind {
            SimKind::Pooled(req) => req.cfg.max_cycles,
            SimKind::Checked(case) => case.max_cycles,
        }
    }

    /// Whether the MAC is in the path.
    pub fn with_mac(&self) -> bool {
        !self.system().mac_disabled
    }

    /// Run the simulation once with no observers, the way its users do:
    /// a pooled simulation through a fresh `SimPool` (which regenerates
    /// the input), a checked one through `run_ops_checked`. This is the
    /// timed path.
    pub fn run(&self) -> SimResult {
        match &self.kind {
            SimKind::Pooled(req) => {
                let report = SimPool::new(1)
                    .run_batch(std::slice::from_ref(req))
                    .pop()
                    .expect("one report per request");
                SimResult {
                    report,
                    violations: 0,
                }
            }
            SimKind::Checked(case) => {
                let run: CheckedRun = case.run();
                SimResult {
                    violations: run.violations.len() + run.divergences.len(),
                    report: run.report,
                }
            }
        }
    }
}

/// One simulation's thread programs, built from its operation lists
/// (`ops[node][thread]`).
pub(crate) fn programs(ops: &Ops) -> Vec<Vec<Box<dyn ThreadProgram>>> {
    ops.iter()
        .map(|threads| {
            threads
                .iter()
                .map(|ops| Box::new(ReplayProgram::new(ops.clone())) as Box<dyn ThreadProgram>)
                .collect()
        })
        .collect()
}

/// Run pre-built `programs` on the system loop `sys` selects, as the
/// pool and `run_ops_checked` do, with `profiler` attached and, when
/// `check` is set, the conformance checker (returned after the run).
/// Nothing else runs inside: no input generation, no pool, no oracle.
pub(crate) fn run_programs(
    sys: &SystemConfig,
    mut programs: Vec<Vec<Box<dyn ThreadProgram>>>,
    max_cycles: u64,
    profiler: &Profiler,
    check: bool,
) -> (RunReport, Option<ConformanceChecker>) {
    if sys.net.enabled && sys.net.placement == MacPlacement::PerCube {
        let mut sim = NetSystem::new(sys, programs.swap_remove(0));
        sim.set_profiler(profiler.clone());
        if check {
            sim.set_checker(ConformanceChecker::new(sys));
        }
        let report = sim.run(max_cycles);
        (report, sim.take_checker())
    } else {
        let mut sim = SystemSim::new_multi(sys, programs);
        sim.set_profiler(profiler.clone());
        if check {
            sim.set_checker(ConformanceChecker::new(sys));
        }
        let report = sim.run(max_cycles);
        (report, sim.take_checker())
    }
}

/// Why a finished simulation counts as failed, if it does: it hit its
/// cycle cap, it lost or invented completions, or a checked run was not
/// clean. (A report that differs between passes is the fourth failure;
/// the pass loop checks that.)
pub fn failure(result: &SimResult, max_cycles: u64) -> Option<&'static str> {
    let r = &result.report;
    if r.cycles >= max_cycles {
        Some("hit max_cycles")
    } else if r.soc.raw_requests != r.soc.completions {
        Some("raw_requests != completions")
    } else if result.violations > 0 {
        Some("conformance violation")
    } else {
        None
    }
}

/// A generated input and where it came from.
#[derive(Debug, Clone)]
pub struct Input {
    /// Workload or case name.
    pub name: String,
    /// The operation lists (empty unless set-up was asked to keep them).
    pub ops: Ops,
}

/// Everything a workload's passes need, plus what building it cost.
#[derive(Debug)]
pub struct Setup {
    /// The batch, in pass order.
    pub sims: Vec<Sim>,
    /// Each distinct input, generated once.
    pub inputs: Vec<Input>,
    /// Memory operations over every distinct input.
    pub mem_ops: usize,
    /// Host time generating modeled (`mac-workloads`) inputs and
    /// `checked_mix` cases.
    pub gen_modeled_s: f64,
    /// Host time capturing guest (`mac-guest`) traces.
    pub gen_guest_s: f64,
}

fn node_mem_ops(ops: &Ops) -> usize {
    ops.iter().map(|n| count_mem_ops(n)).sum()
}

/// The pooled configuration of a workload and the inputs it runs, or
/// `None` for `checked_mix`.
fn pooled_plan(workload: &str) -> Option<(ExperimentConfig, Vec<&'static str>)> {
    match workload {
        "paper_suite" => {
            let names = all_workloads().iter().map(|w| w.name()).collect();
            Some((ExperimentConfig::paper(8), names))
        }
        "dense" => Some((ExperimentConfig::paper(8), vec!["stream", "guest_stream"])),
        "idle" => {
            // The baseline `lat1` shape: one thread, one access in
            // flight, so almost every cycle is a stall the run loop
            // can skip.
            let mut cfg = ExperimentConfig::paper(1);
            cfg.system.soc.max_outstanding_per_thread = 1;
            cfg.workload.scale = 4;
            Some((cfg, vec!["stream", "gups", "sg", "guest_ptrchase"]))
        }
        _ => None,
    }
}

/// Inputs whose generators ignore `WorkloadParams::seed`: their traces
/// are fixed by thread count and scale, so `--seed` changes every other
/// input and none of these. `dense` is made of these alone. The tests
/// pin this list.
pub const SEED_INVARIANT: [&str; 6] = [
    "hpcg",
    "mg",
    "sp",
    "stream",
    "guest_stream",
    "guest_ptrchase",
];

/// Build a workload's batch from `seed`, generating each distinct input
/// once. Pooled simulations regenerate their input when they run, so the
/// timed passes drop the generated operations at once (`keep_ops`
/// false): holding every input of a batch at the same time would set
/// the process's peak memory, not the simulations. Errors name an
/// unknown workload.
pub fn setup(workload: &str, seed: u64, keep_ops: bool) -> Result<Setup, String> {
    let mut setup = Setup {
        sims: Vec::new(),
        inputs: Vec::new(),
        mem_ops: 0,
        gen_modeled_s: 0.0,
        gen_guest_s: 0.0,
    };
    let keep = |setup: &mut Setup, name: String, ops: Ops| {
        setup.mem_ops += node_mem_ops(&ops);
        setup.inputs.push(Input {
            name,
            ops: if keep_ops { ops } else { Vec::new() },
        });
        setup.inputs.len() - 1
    };
    if let Some((mut cfg, names)) = pooled_plan(workload) {
        cfg.workload.seed = seed;
        let mut nomac = cfg.clone();
        nomac.system.mac_disabled = true;
        for name in names {
            let w = by_name(name).expect("benchmark workloads are registered");
            let t0 = Instant::now();
            let ops = w.generate(&cfg.workload);
            let dt = t0.elapsed().as_secs_f64();
            if name.starts_with("guest_") {
                setup.gen_guest_s += dt;
            } else {
                setup.gen_modeled_s += dt;
            }
            let input = keep(&mut setup, name.to_string(), vec![ops]);
            for (tag, c) in [("mac", &cfg), ("nomac", &nomac)] {
                setup.sims.push(Sim {
                    label: format!("{name}/{tag}"),
                    input,
                    kind: SimKind::Pooled(SimRequest::new(name, c)),
                });
            }
        }
        return Ok(setup);
    }
    if workload != "checked_mix" {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let t0 = Instant::now();
    let cases = mix::generate(seed, MIX_INPUTS);
    setup.gen_modeled_s = t0.elapsed().as_secs_f64();
    for (i, case) in cases.into_iter().enumerate() {
        let input = keep(&mut setup, format!("case{i}"), case.ops.clone());
        let mut nomac = case.clone();
        nomac.sys.mac_disabled = true;
        for (tag, c) in [("mac", case), ("nomac", nomac)] {
            setup.sims.push(Sim {
                label: format!("case{i}/{tag}"),
                input,
                kind: SimKind::Checked(c),
            });
        }
    }
    Ok(setup)
}
