//! The traced run: per-layer metrics, measured from outside.
//!
//! One traced run makes, for every simulation of the batch, in order:
//!
//! 1. a plain run of the system loop alone, from thread programs built
//!    beforehand out of the input set-up generated: no input generation,
//!    pool or oracle is inside its time, so `sysim.*` moves only with
//!    `mac-sim` and the layers under it;
//! 2. the same run with an enabled [`Profiler`] and allocation counting,
//!    inside a `bench/sim` span — the report must match the plain one;
//! 3. for `checked_mix` cases, the oracle replay and a run with the
//!    conformance checker, timed apart;
//! 4. for single-node simulations, the [`crate::replay`] chain, one
//!    `bench/sim/<layer>` span per layer.
//!
//! The plain reports are the end-to-end run's reports (the pool and
//! `run_ops_checked` drive the same loops), so the printed digest
//! matches the end-to-end run's for the same seed.
//!
//! Every accumulator the profiler exports is reported as well, so
//! accumulators added to the run loops later appear without a change
//! here.

use std::path::Path;
use std::time::Instant;

use mac_check::OracleReplay;
use mac_telemetry::Profiler;
use mac_workloads::count_mem_ops;

use crate::alloc::count_allocs;
use crate::batch::{failure, programs, run_programs, setup, SimKind, SimResult};
use crate::json::{metrics_object, quote, Metric};
use crate::replay::{replay_sim, replayable, Phase, SimReplay};
use crate::run::digest;

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Every profiler aggregate: `(path, count, total_ns)`.
    pub accumulators: Vec<(String, u64, u64)>,
    /// Simulation runs made.
    pub attempted: u64,
    /// Runs (or replays) that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Digest of the plain reports, in batch order.
    pub digest: u128,
    /// The spans export (`mac-prof-v1` JSON).
    pub spans_json: String,
}

/// Per-layer totals across the batch.
#[derive(Debug, Default)]
struct Layers {
    soc: Phase,
    soc_allocs: u64,
    accept: Phase,
    tick: Phase,
    idle_ticks: u64,
    refused: u64,
    mac_wait: u64,
    mac_raws: u64,
    mac_txns: u64,
    mac_allocs: u64,
    fanout: Phase,
    hmc_submit: Phase,
    hmc_drain: Phase,
    hmc_refused: u64,
    hmc_wait: u64,
    hmc_conflicted: u64,
    hmc_allocs: u64,
    net_submit: Phase,
    sim_cycles: u64,
    sim_allocs: u64,
    plain_s: f64,
    profiled_s: f64,
    checked_s: f64,
    unchecked_s: f64,
    checked_raws: u64,
    oracle_s: f64,
    violations: u64,
}

impl Layers {
    fn add_replay(&mut self, r: &SimReplay) {
        self.soc.add(r.soc.time);
        self.soc_allocs += r.soc.allocs;
        if let Some(m) = &r.mac {
            self.accept.add(m.accept);
            self.tick.add(m.tick);
            self.idle_ticks += m.idle_ticks;
            self.refused += m.refused;
            self.mac_wait += m.wait_cycles;
            self.mac_raws += m.accept.calls - m.fences;
            self.mac_txns += r.dev.submit.calls;
            self.mac_allocs += m.allocs;
        }
        self.fanout.add(r.fanout);
        if r.net {
            self.net_submit.add(r.dev.submit);
        } else {
            self.hmc_submit.add(r.dev.submit);
            self.hmc_drain.add(r.dev.drain);
            self.hmc_refused += r.dev.refused;
            self.hmc_wait += r.dev.wait_cycles;
            self.hmc_conflicted += r.dev.conflicted;
            self.hmc_allocs += r.dev.allocs;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sum of the profiler aggregates whose path ends with `suffix`:
/// `(count, total_ns)` over both run loops.
fn accum(acc: &[(String, u64, u64)], suffix: &str) -> (u64, u64) {
    acc.iter()
        .filter(|(p, _, _)| p.ends_with(suffix))
        .fold((0, 0), |(c, n), (_, count, ns)| (c + count, n + ns))
}

/// Run `workload` traced and derive its per-layer metrics.
pub fn traced(workload: &str, seed: u64) -> Result<Traced, String> {
    let setup = setup(workload, seed, true)?;
    let profiler = Profiler::enabled();
    let mut l = Layers::default();
    let mut plain_reports = Vec::with_capacity(setup.sims.len());
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    for sim in &setup.sims {
        let (sys, max_cycles) = (sim.system(), sim.max_cycles());
        let ops = &setup.inputs[sim.input].ops;
        let progs = programs(ops);
        let t0 = Instant::now();
        let (report, _) = run_programs(sys, progs, max_cycles, &Profiler::disabled(), false);
        let plain_s = t0.elapsed().as_secs_f64();
        l.plain_s += plain_s;
        attempted += 1;
        let mut plain = SimResult {
            report,
            violations: 0,
        };

        let progs = programs(ops);
        let span = profiler.span("bench/sim");
        let t0 = Instant::now();
        let ((profiled, _), allocs) =
            count_allocs(|| run_programs(sys, progs, max_cycles, &profiler, false));
        l.profiled_s += t0.elapsed().as_secs_f64();
        attempted += 1;
        l.sim_allocs += allocs;
        l.sim_cycles += profiled.cycles;
        if profiled != plain.report {
            failures.push(format!("{} profiled: report differs from plain", sim.label));
        }

        if matches!(sim.kind, SimKind::Checked(_)) {
            let t0 = Instant::now();
            let oracle = OracleReplay::replay(ops);
            l.oracle_s += t0.elapsed().as_secs_f64();
            let progs = programs(ops);
            let t0 = Instant::now();
            let (checked, checker) =
                run_programs(sys, progs, max_cycles, &Profiler::disabled(), true);
            l.checked_s += t0.elapsed().as_secs_f64();
            l.unchecked_s += plain_s;
            attempted += 1;
            let checker = checker.expect("checker attached");
            plain.violations = oracle.diff(&checker).len() + checker.into_violations().len();
            l.checked_raws += checked.soc.raw_requests;
            l.violations += plain.violations as u64;
            if checked != plain.report {
                failures.push(format!("{} checked: report differs from plain", sim.label));
            }
        }
        if let Some(why) = failure(&plain, max_cycles) {
            failures.push(format!("{} plain: {why}", sim.label));
        }
        if replayable(sim.system(), ops.len()) {
            let r = replay_sim(sim.system(), &ops[0], &profiler);
            if let Some(why) = r.conservation_error(count_mem_ops(&ops[0])) {
                failures.push(format!("{} replay: {why}", sim.label));
            }
            l.add_replay(&r);
        }
        drop(span);
        plain_reports.push(plain.report);
    }
    let snap = profiler.snapshot().expect("profiler enabled");
    let (steps, step_ns) = accum(&snap.phases, "/run/step");
    let (scans, scan_ns) = accum(&snap.phases, "/run/event_scan");
    let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit);
    let metrics = vec![
        m("workloads.gen_ms", setup.gen_modeled_s * 1e3, "ms"),
        m("workloads.ops", setup.mem_ops as f64, "count"),
        m("guest.gen_ms", setup.gen_guest_s * 1e3, "ms"),
        m("soc.tick_ns_per_raw", l.soc.per_call(), "ns"),
        m("soc.raw_issued", l.soc.calls as f64, "count"),
        m(
            "soc.allocs_per_raw",
            ratio(l.soc_allocs as f64, l.soc.calls as f64),
            "allocs",
        ),
        m("mac.accept_ns_per_raw", l.accept.per_call(), "ns"),
        m("mac.tick_ns_per_call", l.tick.per_call(), "ns"),
        m("mac.tick_calls", l.tick.calls as f64, "count"),
        m(
            "mac.idle_tick_frac",
            ratio(l.idle_ticks as f64, l.tick.calls as f64),
            "fraction",
        ),
        m(
            "mac.accept_refused_frac",
            ratio(l.refused as f64, (l.refused + l.accept.calls) as f64),
            "fraction",
        ),
        m("mac.router_wait_cycles", l.mac_wait as f64, "cycles"),
        m(
            "mac.raw_per_txn",
            ratio(l.mac_raws as f64, l.mac_txns as f64),
            "ratio",
        ),
        m("mac.fanout_ns_per_raw", l.fanout.per_call(), "ns"),
        m(
            "mac.allocs_per_tick",
            ratio(l.mac_allocs as f64, l.tick.calls as f64),
            "allocs",
        ),
        m("hmc.submit_ns_per_txn", l.hmc_submit.per_call(), "ns"),
        m("hmc.drain_ns_per_call", l.hmc_drain.per_call(), "ns"),
        m("hmc.drain_calls", l.hmc_drain.calls as f64, "count"),
        m("hmc.txns", l.hmc_submit.calls as f64, "count"),
        m(
            "hmc.refused_frac",
            ratio(
                l.hmc_refused as f64,
                (l.hmc_refused + l.hmc_submit.calls) as f64,
            ),
            "fraction",
        ),
        m("hmc.wait_cycles", l.hmc_wait as f64, "cycles"),
        m(
            "hmc.conflict_frac",
            ratio(l.hmc_conflicted as f64, l.hmc_submit.calls as f64),
            "fraction",
        ),
        m(
            "hmc.allocs_per_txn",
            ratio(l.hmc_allocs as f64, l.hmc_submit.calls as f64),
            "allocs",
        ),
        m("net.submit_ns_per_txn", l.net_submit.per_call(), "ns"),
        m("net.txns", l.net_submit.calls as f64, "count"),
        m(
            "sysim.step_ns_per_cycle",
            ratio(step_ns as f64, steps as f64),
            "ns",
        ),
        m("sysim.steps", steps as f64, "count"),
        m(
            "sysim.skip_frac",
            1.0 - ratio(steps as f64, l.sim_cycles as f64),
            "fraction",
        ),
        m(
            "sysim.scan_ns_per_scan",
            ratio(scan_ns as f64, scans as f64),
            "ns",
        ),
        m("sysim.scans", scans as f64, "count"),
        m("sysim.run_ms", l.profiled_s * 1e3, "ms"),
        m(
            "sysim.allocs_per_cycle",
            ratio(l.sim_allocs as f64, l.sim_cycles as f64),
            "allocs",
        ),
        m(
            "sysim.trace_overhead_pct",
            100.0 * ratio(l.profiled_s - l.plain_s, l.plain_s),
            "%",
        ),
        m(
            "check.ns_per_raw",
            ratio((l.checked_s - l.unchecked_s) * 1e9, l.checked_raws as f64),
            "ns",
        ),
        m("check.oracle_ms", l.oracle_s * 1e3, "ms"),
        m("check.violations", l.violations as f64, "count"),
    ];
    Ok(Traced {
        metrics,
        attempted,
        failed: failures.len() as u64,
        failures,
        digest: digest(&plain_reports),
        spans_json: profiler.export_json().expect("profiler enabled"),
        accumulators: snap.phases,
    })
}

impl Traced {
    /// The `<workload>-layers.json` document: the per-layer metrics and
    /// every profiler aggregate.
    fn layers_json(&self, workload: &str, seed: u64) -> String {
        let acc: Vec<String> = self
            .accumulators
            .iter()
            .map(|(path, count, ns)| {
                format!(
                    "{{\"path\": {}, \"count\": {count}, \"total_ns\": {ns}}}",
                    quote(path)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"metrics\": {}, \"accumulators\": [{}]}}\n",
            quote(workload),
            metrics_object(&self.metrics),
            acc.join(", ")
        )
    }

    /// Write `<dir>/<workload>-spans.json` and `<dir>/<workload>-layers.json`.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{workload}-spans.json")), &self.spans_json)?;
        std::fs::write(
            dir.join(format!("{workload}-layers.json")),
            self.layers_json(workload, seed),
        )
    }
}
