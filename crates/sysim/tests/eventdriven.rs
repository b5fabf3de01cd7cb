//! Golden equivalence tests for the event-driven fast path (DESIGN.md
//! §14): the idle-span-skipping run loop must produce results
//! byte-identical to the cycle-stepped reference — same `RunReport`,
//! same metrics time-series, same conformance-checker observations —
//! on every configuration the manifest exercises.
//!
//! The manifest's entries all dispatch through the same two run loops
//! (`SystemSim` / `NetSystem`), so coverage here is by configuration
//! axis: the full pinned set (calibration pairs, the 2-cube HostOnly
//! net run, and the idle-heavy latency entries), per-cube MAC
//! placement, multi-node interconnects, disabled MAC, the HBM/DDR
//! backends, runs with metrics sampling attached, and backpressure-heavy
//! configs whose dispatch queues sit blocked on full device queues.
//! Runs with no observer at all, in full and cut off mid-run, cover the
//! responses the skip delivers itself (profiled step counts pin that
//! uncapped runs never wake for a response and that capped ones wake
//! once, on the cycle after it). Two-node systems are built with
//! `SystemSim::new_multi` and swept over outstanding caps, interconnect
//! latencies and random cut-off cycles. Capped single-node, two-node and
//! per-cube runs are compared record for record with a tracer, a
//! checker and a 1-cycle metrics hub attached. A
//! seeded mac-check fuzz mini-campaign (50 iterations, checker + oracle
//! attached) rides on top, exercising the fast path under adversarial
//! configs and address streams.

use mac_check::{ConformanceChecker, Violation};
use mac_metrics::MetricsHub;
use mac_sim::catalog::pinned_requests;
use mac_sim::driver::{Fabric, RunDriver};
use mac_sim::experiment::{
    run_workload_observed, run_workload_stepped, ExperimentConfig, RunObservers,
};
use mac_sim::fuzz::{run_fuzz, FuzzOptions};
use mac_sim::report::RunReport;
use mac_sim::{NetSystem, SystemSim};
use mac_telemetry::{Profiler, RingSink, TraceRecord, Tracer};
use mac_types::{MacPlacement, MemBackend, NetTopology};
use mac_workloads::by_name;
use proptest::Strategy;
use soc_sim::{ReplayProgram, ThreadProgram};

/// Observers with only `hub` attached.
fn sampled_by(hub: &MetricsHub) -> RunObservers {
    RunObservers {
        metrics: hub.clone(),
        ..RunObservers::default()
    }
}

/// Run `workload` under `cfg` in both modes, with a metrics hub
/// sampling every `interval` cycles in each, and assert the reports and
/// exported CSV time-series are identical.
fn assert_modes_identical(workload: &str, cfg: &ExperimentConfig, interval: u64) -> RunReport {
    let w = by_name(workload).expect("workload registered");

    let stepped_hub = MetricsHub::new(interval);
    let stepped = run_workload_stepped(w.as_ref(), cfg, sampled_by(&stepped_hub));

    let event_hub = MetricsHub::new(interval);
    let event = run_workload_observed(w.as_ref(), cfg, sampled_by(&event_hub));

    assert_eq!(
        stepped, event,
        "{workload}: event-driven report diverged from stepped reference"
    );
    let stepped_csv = stepped_hub.snapshot().expect("sampled").to_csv();
    let event_csv = event_hub.snapshot().expect("sampled").to_csv();
    assert_eq!(
        stepped_csv, event_csv,
        "{workload}: metrics time-series diverged between modes"
    );
    event
}

#[test]
fn baseline_set_is_mode_identical() {
    // The full pinned set: calibration pairs at 4 threads, the
    // 2-cube HostOnly scatter/gather run, and the three idle-heavy
    // latency entries where the fast path actually skips (the sampler
    // clamp is what this asserts: interval boundaries inside skipped
    // spans must still be visited).
    for (label, req) in pinned_requests() {
        let report = assert_modes_identical(&req.workload, &req.cfg, 10_000);
        assert!(report.cycles > 0, "{label}: empty run proves nothing");
        assert_eq!(
            report.soc.raw_requests, report.soc.completions,
            "{label}: run must drain"
        );
    }
}

#[test]
fn per_cube_placement_is_mode_identical() {
    // NetSystem has its own tick and next-event bound; cover both mapped
    // placements over a 4-cube chain and a 2-cube degenerate network.
    for cubes in [2usize, 4] {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg.system = cfg
            .system
            .with_net(cubes, NetTopology::DaisyChain, MacPlacement::PerCube);
        let report = assert_modes_identical("sg", &cfg, 5_000);
        assert!(report.cycles > 0);
    }
}

/// The first `len` operations of each of `workload`'s threads under
/// `cfg`, as one node's programs.
fn node_programs(
    workload: &str,
    cfg: &ExperimentConfig,
    len: usize,
) -> Vec<Box<dyn ThreadProgram>> {
    by_name(workload)
        .expect("workload registered")
        .generate(&cfg.workload)
        .into_iter()
        .map(|mut ops| {
            ops.truncate(len);
            Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>
        })
        .collect()
}

/// Two nodes under `cfg`, each running the first `len` operations of
/// `workload`'s threads. Rows are homed alternately on node 0 and node
/// 1, so each node sends its requests for the other's rows over the
/// interconnect. (`run_workload_*` builds one node whatever `soc.nodes`
/// says.)
fn two_nodes(workload: &str, cfg: &ExperimentConfig, len: usize) -> SystemSim {
    let node = || node_programs(workload, cfg, len);
    SystemSim::new_multi(&cfg.system, vec![node(), node()])
}

/// Run the system `build` makes in both modes, with a metrics hub
/// sampling every `interval` cycles in each, and assert the reports and
/// exported CSV time-series are identical.
fn assert_built_modes_identical<F: Fabric>(
    label: &str,
    build: impl Fn() -> RunDriver<F>,
    max_cycles: u64,
    interval: u64,
) -> RunReport {
    let run = |stepped: bool| {
        let hub = MetricsHub::new(interval);
        let mut sim = build();
        sim.set_metrics(hub.clone());
        sim.set_stepped(stepped);
        let report = sim.run(max_cycles);
        (report, hub.snapshot().expect("sampled").to_csv())
    };
    let (stepped, stepped_csv) = run(true);
    let (event, event_csv) = run(false);
    assert_eq!(
        stepped, event,
        "{label}: event-driven report diverged from stepped reference"
    );
    assert_eq!(
        stepped_csv, event_csv,
        "{label}: metrics time-series diverged between modes"
    );
    event
}

#[test]
fn multi_node_interconnect_is_mode_identical() {
    // Two SoC nodes share one device through the interconnect queues;
    // their in-flight messages are one of the next_event sources.
    let cfg = small(4);
    let report = assert_built_modes_identical(
        "stream, 2 nodes",
        || two_nodes("stream", &cfg, usize::MAX),
        cfg.max_cycles,
        10_000,
    );
    assert_eq!(report.soc.raw_requests, report.soc.completions);
    assert_eq!(report.config.soc.nodes, 2);
}

#[test]
fn disabled_mac_and_alt_backends_are_mode_identical() {
    // The baseline (MAC-bypassed) path and the HBM/DDR memory models
    // take different dispatch and completion code; the skip must bound
    // all of them.
    let mut nomac = ExperimentConfig::paper(2);
    nomac.workload.scale = 1;
    nomac.max_cycles = 50_000_000;
    nomac.system.mac_disabled = true;
    assert_modes_identical("gups", &nomac, 10_000);

    for backend in [MemBackend::Hbm, MemBackend::Ddr] {
        let mut cfg = ExperimentConfig::paper(2);
        cfg.workload.scale = 1;
        cfg.max_cycles = 50_000_000;
        cfg.system.backend = backend;
        assert_modes_identical("stream", &cfg, 10_000);
    }
}

/// The paper system at `threads` threads, scale 1, with a cap no run
/// here reaches.
fn small(threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(threads);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg
}

#[test]
fn shallow_device_queues_are_mode_identical() {
    // One- and two-entry command queues keep the dispatch queue's head
    // blocked for most of the run; the fast path wakes it at the
    // device's admission cycle instead of probing every cycle.
    for depth in [1usize, 2] {
        for mac_disabled in [false, true] {
            let mut cfg = small(4);
            cfg.system.hmc.vault_queue_depth = depth;
            cfg.system.mac_disabled = mac_disabled;
            assert_modes_identical("stream", &cfg, 10_000);
        }
    }

    let mut hbm = small(4);
    hbm.system.backend = MemBackend::Hbm;
    hbm.system.hbm.channel_queue_depth = 1;
    assert_modes_identical("stream", &hbm, 10_000);

    let mut ddr = small(4);
    ddr.system.backend = MemBackend::Ddr;
    ddr.system.ddr.queue_depth = 1;
    assert_modes_identical("stream", &ddr, 10_000);
}

#[test]
fn backpressured_networks_and_nodes_are_mode_identical() {
    // Per-cube dispatch queues (NetSystem) and the host-side queue in
    // front of a NetDevice, each behind one-entry vault queues.
    for placement in [MacPlacement::PerCube, MacPlacement::HostOnly] {
        let mut cfg = small(4);
        cfg.system = cfg.system.with_net(4, NetTopology::DaisyChain, placement);
        cfg.system.hmc.vault_queue_depth = 1;
        assert_modes_identical("sg", &cfg, 5_000);
    }

    let mut nodes = small(4);
    nodes.system.hmc.vault_queue_depth = 1;
    let report = assert_built_modes_identical(
        "stream, 2 nodes",
        || two_nodes("stream", &nodes, usize::MAX),
        nodes.max_cycles,
        10_000,
    );
    assert_eq!(report.config.soc.nodes, 2);
}

#[test]
fn blocked_dispatch_queue_does_not_pin_the_clock() {
    // stream at 8 threads keeps the vault queues full; nearly every
    // cycle has a transaction waiting at the head of the dispatch queue.
    // If that head forced `next_event` to `now` again, the loop would
    // tick almost every cycle.
    let cfg = small(8);
    let w = by_name("stream").expect("workload registered");
    let profiler = Profiler::enabled();
    let obs = RunObservers {
        profiler: profiler.clone(),
        ..RunObservers::default()
    };
    let report = run_workload_observed(w.as_ref(), &cfg, obs);
    assert_eq!(report.soc.raw_requests, report.soc.completions);
    let snap = profiler.snapshot().expect("enabled");
    let steps = snap
        .phases
        .iter()
        .find(|(path, _, _)| path == "system/run/step")
        .map(|&(_, count, _)| count)
        .expect("run loop records its steps");
    assert!(
        steps * 4 <= report.cycles,
        "{steps} ticks over {} cycles: blocked cycles are being stepped",
        report.cycles
    );
}

#[test]
fn idle_heavy_entry_is_cycle_exact_under_fine_sampling() {
    // A 1-cycle metrics interval forces the skip loop to visit every
    // single cycle boundary inside skipped spans — the strongest form
    // of the sampler-clamp contract. Use a tiny run to keep it fast.
    let mut cfg = ExperimentConfig::paper(1);
    cfg.workload.scale = 1;
    cfg.max_cycles = 200_000;
    cfg.system.soc.max_outstanding_per_thread = 1;
    let w = by_name("gups").expect("workload");

    let stepped_hub = MetricsHub::new(1);
    let stepped = run_workload_stepped(w.as_ref(), &cfg, sampled_by(&stepped_hub));
    let event_hub = MetricsHub::new(1);
    let event = run_workload_observed(w.as_ref(), &cfg, sampled_by(&event_hub));
    assert_eq!(stepped, event);
    assert_eq!(
        stepped_hub.snapshot().expect("sampled").to_csv(),
        event_hub.snapshot().expect("sampled").to_csv()
    );
}

#[test]
fn fuzz_mini_campaign_is_clean_on_event_driven_loop() {
    // 50 seeded adversarial cases, each simulated by the (default)
    // event-driven loop with the mac-check invariant checker attached
    // and diffed against the functional oracle. The checker's I7 stats
    // batches land on CHECK_BATCH boundaries, which the skip loop must
    // visit at the same cycles as stepped mode — a violation or
    // divergence here would catch a clamp bug the report comparison
    // can't see.
    let dir = std::env::temp_dir().join("mac-eventdriven-fuzz");
    let opts = FuzzOptions {
        iters: 50,
        seed: 0xED,
        out_dir: dir,
        max_cycles: 2_000_000,
        adaptive: false,
    };
    let report = run_fuzz(&opts).expect("fuzz campaign runs");
    assert!(
        report.is_clean(),
        "event-driven fuzz campaign found failures: {:?}",
        report.failures
    );
    assert_eq!(report.iters, 50);
}

/// Run `workload` under `cfg` in both modes with no observer attached
/// and assert the reports are identical; then cut both modes off at half
/// the full run's cycles and assert that again. A cut-off run can end
/// inside a skipped span, where only the responses the skip delivered
/// itself separate the two modes.
fn assert_unobserved_identical(workload: &str, cfg: &ExperimentConfig) {
    let w = by_name(workload).expect("workload registered");
    let full = run_workload_observed(w.as_ref(), cfg, RunObservers::default());
    assert_eq!(
        run_workload_stepped(w.as_ref(), cfg, RunObservers::default()),
        full,
        "{workload}: unobserved run diverged from stepped reference"
    );
    assert_eq!(full.soc.raw_requests, full.soc.completions, "{workload}");
    let mut cut = cfg.clone();
    cut.max_cycles = full.cycles / 2;
    let event = run_workload_observed(w.as_ref(), &cut, RunObservers::default());
    assert_eq!(
        run_workload_stepped(w.as_ref(), &cut, RunObservers::default()),
        event,
        "{workload}: run cut off at cycle {} diverged from stepped reference",
        cut.max_cycles
    );
    assert!(event.soc.completions < full.soc.completions, "{workload}");
}

#[test]
fn unobserved_runs_are_mode_identical() {
    // Table 1's uncapped cores: device responses are delivered by the
    // idle-span skip itself rather than waking the loop.
    for mac_disabled in [false, true] {
        for backend in [MemBackend::Hmc, MemBackend::Hbm, MemBackend::Ddr] {
            let mut cfg = small(8);
            cfg.system.mac_disabled = mac_disabled;
            cfg.system.backend = backend;
            assert_unobserved_identical("stream", &cfg);
        }
    }
    for placement in [MacPlacement::HostOnly, MacPlacement::PerCube] {
        let mut cfg = small(8);
        cfg.system = cfg.system.with_net(2, NetTopology::DaisyChain, placement);
        assert_unobserved_identical("sg", &cfg);
    }
    // Capped threads: every completion wakes the loop.
    let mut capped = small(8);
    capped.system.soc.max_outstanding_per_thread = 4;
    assert_unobserved_identical("gups", &capped);
}

#[test]
fn unobserved_two_node_run_is_mode_identical() {
    // Remote completions enter the interconnect in cycle order, so two
    // nodes wake for every completion. `run_workload_*` builds a single
    // node, so this drives `SystemSim::new_multi` directly.
    let cfg = small(4);
    let mut sys = cfg.system.clone();
    sys.soc.nodes = 2;
    let w = by_name("sg").expect("workload registered");
    let run = |stepped: bool, max_cycles: u64| {
        let node = || -> Vec<Box<dyn ThreadProgram>> {
            w.generate(&cfg.workload)
                .into_iter()
                .map(|ops| Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>)
                .collect()
        };
        let mut sim = SystemSim::new_multi(&sys, vec![node(), node()]);
        sim.set_stepped(stepped);
        sim.run(max_cycles)
    };
    let full = run(false, cfg.max_cycles);
    assert_eq!(run(true, cfg.max_cycles), full);
    assert_eq!(full.soc.raw_requests, full.soc.completions);
    let half = full.cycles / 2;
    assert_eq!(run(true, half), run(false, half));
}

/// Steps the event-driven loop took to run `workload` under `cfg`.
fn profiled_steps(workload: &str, cfg: &ExperimentConfig) -> (RunReport, u64) {
    let w = by_name(workload).expect("workload registered");
    let profiler = Profiler::enabled();
    let obs = RunObservers {
        profiler: profiler.clone(),
        ..RunObservers::default()
    };
    let report = run_workload_observed(w.as_ref(), cfg, obs);
    let snap = profiler.snapshot().expect("enabled");
    let steps = snap
        .phases
        .iter()
        .find(|(path, _, _)| path == "system/run/step")
        .map(|&(_, count, _)| count)
        .expect("run loop records its steps");
    (report, steps)
}

#[test]
fn responses_alone_do_not_wake_uncapped_runs() {
    // If every response cycle were a step, a run would take at least
    // one step per device transaction on top of the ones that issue its
    // raw requests.
    for (workload, mac_disabled) in [("stream", false), ("stream", true), ("hpcg", false)] {
        let mut cfg = small(8);
        cfg.system.mac_disabled = mac_disabled;
        let (report, steps) = profiled_steps(workload, &cfg);
        let work = report.soc.raw_requests + report.hmc.accesses();
        assert!(
            steps < work,
            "{workload} (mac_disabled={mac_disabled}): {steps} steps for {} raw requests \
             and {} device transactions",
            report.soc.raw_requests,
            report.hmc.accesses()
        );
    }
}

/// The `*/lat1` shape: one thread with one access in flight.
fn lat1() -> ExperimentConfig {
    let mut cfg = small(1);
    cfg.system.soc.max_outstanding_per_thread = 1;
    cfg
}

#[test]
fn capped_runs_wake_once_per_completion() {
    // A completion at `c` wakes the loop at `c + 1`, where the thread
    // can issue its next access. Waking at `c` too adds a step to
    // deliver it, a scan that fails because the thread can issue next
    // cycle, and two cooldown steps: 4 steps per raw request.
    for workload in ["stream", "gups", "sg"] {
        for mac_disabled in [false, true] {
            let mut cfg = lat1();
            cfg.system.mac_disabled = mac_disabled;
            let (report, steps) = profiled_steps(workload, &cfg);
            let per_raw = steps as f64 / report.soc.raw_requests as f64;
            assert!(
                per_raw < 2.5,
                "{workload} (mac_disabled={mac_disabled}): {steps} steps for {} raw requests",
                report.soc.raw_requests
            );
        }
    }
}

#[test]
fn two_node_runs_are_mode_identical_at_any_cut() {
    // Remote completions enter the interconnect FIFO in cycle order, so
    // every completion wakes a two-node run, on the cycle after it. At
    // latency 0 a remote completion is due on the cycle it completes.
    // Each configuration runs in full and cut off at a random cycle,
    // where a response the skip delivered late or early would show.
    let mut rng = proptest::test_rng("two_node_runs_are_mode_identical_at_any_cut");
    for workload in ["sg", "gups", "stream"] {
        for cap in [1, 4, usize::MAX] {
            for latency in [0, 1, 100] {
                let mut cfg = small(2);
                cfg.system.soc.max_outstanding_per_thread = cap;
                cfg.system.soc.interconnect_latency = latency;
                let run = |stepped: bool, max_cycles: u64| {
                    let mut sim = two_nodes(workload, &cfg, usize::MAX);
                    sim.set_stepped(stepped);
                    sim.run(max_cycles)
                };
                let label = format!("{workload}, cap {cap}, latency {latency}");
                let full = run(false, cfg.max_cycles);
                assert_eq!(run(true, cfg.max_cycles), full, "{label}");
                assert_eq!(full.soc.raw_requests, full.soc.completions, "{label}");
                let cut = (1..=full.cycles).new_value(&mut rng);
                assert_eq!(
                    run(true, cut),
                    run(false, cut),
                    "{label}: cut off at cycle {cut}"
                );
            }
        }
    }
}

/// Operations per thread in observed runs: a hub sampling every cycle
/// keeps one point per gauge per cycle, so these runs stay short.
const OBSERVED_OPS: usize = 64;

/// Trace records one observed run may emit; the ring must hold them all.
const RING_RECORDS: usize = 1 << 18;

/// Everything a run showed its observers.
struct Observed {
    report: RunReport,
    /// The CSV of a metrics hub sampling every cycle.
    csv: String,
    /// Every trace record, in emission order.
    trace: Vec<TraceRecord>,
    violations: Vec<Violation>,
}

/// Run `sim`, built for `cfg`, with a ring tracer, a conformance checker
/// and a 1-cycle metrics hub attached.
fn observe<F: Fabric>(mut sim: RunDriver<F>, cfg: &ExperimentConfig, stepped: bool) -> Observed {
    let hub = MetricsHub::new(1);
    let sink = RingSink::new(RING_RECORDS);
    let ring = sink.handle();
    sim.set_tracer(Tracer::new(sink));
    sim.set_metrics(hub.clone());
    sim.set_checker(ConformanceChecker::new(&cfg.system));
    sim.set_stepped(stepped);
    let report = sim.run(cfg.max_cycles);
    assert_eq!(ring.dropped(), 0, "trace ring evicted records; grow it");
    Observed {
        report,
        csv: hub.snapshot().expect("sampled").to_csv(),
        trace: ring.snapshot(),
        violations: sim.take_checker().expect("attached").into_violations(),
    }
}

/// Observe what `build` makes for `cfg` in both modes and assert that
/// every observer saw the same thing, and that the run drained cleanly.
fn assert_observed_identical<F: Fabric>(
    label: &str,
    cfg: &ExperimentConfig,
    build: impl Fn() -> RunDriver<F>,
) -> RunReport {
    let stepped = observe(build(), cfg, true);
    let event = observe(build(), cfg, false);
    assert_eq!(stepped.report, event.report, "{label}: reports differ");
    assert!(
        stepped.csv == event.csv,
        "{label}: metrics time-series differ"
    );
    let longest = stepped.trace.len().max(event.trace.len());
    if let Some(i) = (0..longest).find(|&i| stepped.trace.get(i) != event.trace.get(i)) {
        panic!(
            "{label}: trace record {i} differs: stepped {:?}, skipping {:?}",
            stepped.trace.get(i),
            event.trace.get(i)
        );
    }
    assert_eq!(
        stepped.violations, event.violations,
        "{label}: checker differs"
    );
    assert!(
        event.violations.is_empty(),
        "{label}: {:?}",
        event.violations
    );
    assert_eq!(
        event.report.soc.raw_requests, event.report.soc.completions,
        "{label}: run must drain"
    );
    event.report
}

#[test]
fn capped_runs_are_identical_to_every_observer() {
    // Capped threads wake the loop on the cycle after each completion;
    // the tracer, the checker and a sampler that visits every cycle
    // must not tell the modes apart, on one node, two nodes, or a
    // per-cube network.
    let cfg = lat1();
    assert_observed_identical("gups lat1", &cfg, || {
        SystemSim::new(&cfg.system, node_programs("gups", &cfg, OBSERVED_OPS))
    });

    let mut two = small(2);
    two.system.soc.max_outstanding_per_thread = 4;
    let report = assert_observed_identical("sg, 2 nodes, cap 4", &two, || {
        two_nodes("sg", &two, OBSERVED_OPS)
    });
    assert_eq!(report.config.soc.nodes, 2);

    let mut cube = small(2);
    cube.system.soc.max_outstanding_per_thread = 4;
    cube.system = cube
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
    assert_observed_identical("sg, per-cube, cap 4", &cube, || {
        NetSystem::new(&cube.system, node_programs("sg", &cube, OBSERVED_OPS))
    });
}
