//! Golden equivalence tests for the event-driven fast path (DESIGN.md
//! §14): the idle-span-skipping run loop must produce results
//! byte-identical to the cycle-stepped reference — same `RunReport`,
//! same metrics time-series, same conformance-checker observations —
//! on every configuration the manifest exercises.
//!
//! The manifest's entries all dispatch through the same two run loops
//! (`SystemSim` / `NetSystem`), so coverage here is by configuration
//! axis: the full smoke baseline set (calibration pairs, the 2-cube
//! HostOnly net run, and the idle-heavy latency entries), per-cube MAC
//! placement, multi-node interconnects, disabled MAC, the HBM/DDR
//! backends, runs with metrics sampling attached, and backpressure-heavy
//! configs whose dispatch queues sit blocked on full device queues.
//! Runs with no observer at all, in full and cut off mid-run, cover the
//! responses the skip delivers itself when threads are uncapped (a
//! profiled step count pins that it does). A
//! seeded mac-check fuzz mini-campaign (50 iterations, checker + oracle
//! attached) rides on top, exercising the fast path under adversarial
//! configs and address streams.

use mac_metrics::MetricsHub;
use mac_sim::baseline::baseline_requests;
use mac_sim::experiment::{
    run_workload_observed, run_workload_stepped, ExperimentConfig, RunObservers,
};
use mac_sim::fuzz::{run_fuzz, FuzzOptions};
use mac_sim::report::RunReport;
use mac_sim::SystemSim;
use mac_telemetry::Profiler;
use mac_types::{MacPlacement, MemBackend, NetTopology};
use mac_workloads::by_name;
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
    // The full smoke baseline set: calibration pairs at 4 threads, the
    // 2-cube HostOnly scatter/gather run, and the three idle-heavy
    // latency entries where the fast path actually skips (the sampler
    // clamp is what this asserts: interval boundaries inside skipped
    // spans must still be visited).
    for (label, req) in baseline_requests() {
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

#[test]
fn multi_node_interconnect_is_mode_identical() {
    // Multiple SoC nodes share one device through the interconnect
    // queues; their in-flight messages are one of the next_event
    // sources.
    let mut cfg = ExperimentConfig::paper(4);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg.system.soc.nodes = 2;
    let report = assert_modes_identical("stream", &cfg, 10_000);
    assert!(report.cycles > 0);
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
    nodes.system.soc.nodes = 2;
    nodes.system.hmc.vault_queue_depth = 1;
    assert_modes_identical("stream", &nodes, 10_000);
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
