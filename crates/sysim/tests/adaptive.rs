//! Proof wall for the adaptive controller (DESIGN.md §17).
//!
//! Four obligations, in increasing strength:
//!
//! 1. **Off means off** — `AdaptConfig::disabled()` is the default, so
//!    every pre-controller request keeps its fingerprint (and therefore
//!    its cache identity), and an *enabled* controller whose bounds pin
//!    the static operating point is behavior-neutral: same report,
//!    field for field, modulo the config it carries.
//! 2. **Mode identity** — adaptive runs produce byte-identical reports,
//!    metrics time-series, and retune-decision streams under the
//!    cycle-stepped reference loop and the event-driven fast path, on
//!    both run loops (`SystemSim` and per-cube `NetSystem`). Decisions
//!    land on interval boundaries the skip loop must visit.
//! 3. **Scheduling invariance** — a batch of adaptive requests through
//!    `SimPool` returns identical reports at `--jobs 1` and `--jobs 4`.
//! 4. **The controller actually controls** — a golden phase-shift
//!    scenario (dense row-disjoint burst, then a sparse trickle) makes
//!    it retune toward draining and then back toward merging, with
//!    every decision on a boundary and inside the declared bounds.
//!
//! A seeded adaptive mac-check fuzz campaign rides on top: random
//! enabled `AdaptConfig`s over adversarial configs and address streams,
//! invariant checker attached, diffed against the functional oracle.

use mac_metrics::MetricsHub;
use mac_sim::catalog::pinned_requests;
use mac_sim::engine::{SimPool, SimRequest};
use mac_sim::experiment::{
    run_workload, run_workload_observed, run_workload_stepped, ExperimentConfig, RunObservers,
};
use mac_sim::fuzz::{run_fuzz, FuzzOptions};
use mac_sim::report::RunReport;
use mac_sim::system::SystemSim;
use mac_telemetry::{RingSink, TraceEvent, TraceRecord, Tracer};
use mac_types::{AdaptConfig, MacPlacement, MemOpKind, NetTopology, PhysAddr};
use mac_workloads::by_name;
use soc_sim::{ReplayProgram, ThreadOp, ThreadProgram};

/// An adaptive config that retunes eagerly: short intervals, a
/// one-interval evidence bar, no hold. Used where the test wants many
/// decisions, not a realistic cadence.
fn eager() -> AdaptConfig {
    AdaptConfig {
        enabled: true,
        interval: 512,
        min_pop_interval: 1,
        max_pop_interval: 8,
        min_accepts: 1,
        max_accepts: 4,
        evidence_threshold: 1,
        hold_intervals: 0,
    }
}

#[test]
fn disabled_adapt_keeps_pre_controller_fingerprints() {
    // `AdaptConfig::disabled()` IS the default, so a request that never
    // heard of the controller and one that explicitly disables it are
    // the same cache entry. This is what lets the cache format bump be
    // the only invalidation this feature causes.
    assert_eq!(AdaptConfig::disabled(), AdaptConfig::default());
    for (label, req) in pinned_requests() {
        if req.cfg.system.adapt.enabled {
            continue; // the /adapt entries are the feature, not the pin
        }
        let mut explicit = req.clone();
        explicit.cfg.system.adapt = AdaptConfig::disabled();
        assert_eq!(
            req.fingerprint(),
            explicit.fingerprint(),
            "{label}: explicit disabled() must not shift the fingerprint"
        );
    }
}

#[test]
fn identity_bounds_adaptation_is_behavior_neutral() {
    // An enabled controller whose bounds equal the static operating
    // point can never move anything; the run must match the disabled
    // run field for field (modulo the config the report carries).
    // Covers both run loops: SystemSim (plain + 2-cube HostOnly) and
    // NetSystem (2-cube PerCube).
    let mut base = ExperimentConfig::paper(4);
    base.workload.scale = 1;
    base.max_cycles = 50_000_000;
    let mut net_host = base.clone();
    net_host.system = net_host
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
    let mut net_cube = base.clone();
    net_cube.system = net_cube
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
    for (label, cfg) in [
        ("stream", base.clone()),
        ("sg", base),
        ("sg/net-host", net_host),
        ("sg/net-cube", net_cube),
    ] {
        let workload = label.split('/').next().unwrap();
        let w = by_name(workload).expect("workload registered");
        let mut pinned = cfg.clone();
        pinned.system.adapt = AdaptConfig {
            enabled: true,
            interval: 512,
            min_pop_interval: cfg.system.mac.pop_interval,
            max_pop_interval: cfg.system.mac.pop_interval,
            min_accepts: cfg.system.mac.accepts_per_cycle,
            max_accepts: cfg.system.mac.accepts_per_cycle,
            evidence_threshold: 1,
            hold_intervals: 0,
        };
        let disabled = run_workload(w.as_ref(), &cfg);
        let mut adaptive = run_workload(w.as_ref(), &pinned);
        assert_ne!(
            disabled.config, adaptive.config,
            "{label}: the configs must genuinely differ"
        );
        adaptive.config = disabled.config.clone();
        assert_eq!(
            disabled, adaptive,
            "{label}: identity-bounds adaptation changed behavior"
        );
    }
}

/// Trace records the mode-identity rings hold: the largest run below
/// (`stream`, 4 threads, scale 1) emits about 285k.
const RING_RECORDS: usize = 1 << 19;

/// Run `workload` under `cfg` in both loop modes with metrics sampling
/// and a ring tracer attached to each, assert report + time-series +
/// retune-decision identity, and return the decisions. The rings hold
/// every record: retunes cluster early in a run, and an evicted one
/// would drop out of the comparison.
fn assert_adaptive_modes_identical(
    workload: &str,
    cfg: &ExperimentConfig,
    interval: u64,
) -> (RunReport, Vec<TraceRecord>) {
    let w = by_name(workload).expect("workload registered");

    let decisions_of = |records: Vec<TraceRecord>| -> Vec<TraceRecord> {
        records
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::AdaptDecision { .. }))
            .collect()
    };

    let stepped_hub = MetricsHub::new(interval);
    let stepped_sink = RingSink::new(RING_RECORDS);
    let stepped_ring = stepped_sink.handle();
    let stepped = run_workload_stepped(
        w.as_ref(),
        cfg,
        RunObservers {
            tracer: Some(Tracer::new(stepped_sink)),
            metrics: stepped_hub.clone(),
            ..RunObservers::default()
        },
    );

    let event_hub = MetricsHub::new(interval);
    let event_sink = RingSink::new(RING_RECORDS);
    let event_ring = event_sink.handle();
    let event = run_workload_observed(
        w.as_ref(),
        cfg,
        RunObservers {
            tracer: Some(Tracer::new(event_sink)),
            metrics: event_hub.clone(),
            ..RunObservers::default()
        },
    );

    assert_eq!(
        stepped, event,
        "{workload}: adaptive event-driven report diverged from stepped reference"
    );
    for ring in [&stepped_ring, &event_ring] {
        assert_eq!(ring.dropped(), 0, "{workload}: trace ring evicted records");
    }
    let stepped_csv = stepped_hub.snapshot().expect("sampled").to_csv();
    let event_csv = event_hub.snapshot().expect("sampled").to_csv();
    assert_eq!(
        stepped_csv, event_csv,
        "{workload}: adaptive metrics time-series diverged between modes"
    );
    let stepped_dec = decisions_of(stepped_ring.snapshot());
    let event_dec = decisions_of(event_ring.snapshot());
    assert_eq!(
        stepped_dec, event_dec,
        "{workload}: retune decisions diverged between modes"
    );
    for d in &event_dec {
        assert!(
            d.cycle > 0 && d.cycle % cfg.system.adapt.interval == 0,
            "{workload}: decision at cycle {} is off the interval grid",
            d.cycle
        );
        let TraceEvent::AdaptDecision {
            pop_interval,
            accepts,
        } = d.event
        else {
            unreachable!()
        };
        let a = &cfg.system.adapt;
        assert!(
            (a.min_pop_interval..=a.max_pop_interval).contains(&pop_interval),
            "{workload}: pop_interval {pop_interval} escaped bounds"
        );
        assert!(
            (a.min_accepts..=a.max_accepts).contains(&(accepts as usize)),
            "{workload}: accepts {accepts} escaped bounds"
        );
    }
    (event, event_dec)
}

#[test]
fn adaptive_runs_are_mode_identical() {
    // Eager adaptation over both run loops. The controller fires often
    // at this setting, so the skip loop's boundary clamp is genuinely
    // load-bearing here: a missed boundary shifts every later decision.
    let mut base = ExperimentConfig::paper(4);
    base.workload.scale = 1;
    base.max_cycles = 50_000_000;
    base.system.adapt = eager();
    let mut total_decisions = 0usize;
    for wl in ["stream", "gups", "sg"] {
        let (report, decisions) = assert_adaptive_modes_identical(wl, &base, 5_000);
        assert!(report.cycles > 0);
        assert_eq!(report.soc.raw_requests, report.soc.completions);
        total_decisions += decisions.len();
    }
    // NetSystem: per-cube placement has its own run loop and skip path.
    for cubes in [2usize, 4] {
        let mut cfg = base.clone();
        cfg.system = cfg
            .system
            .with_net(cubes, NetTopology::DaisyChain, MacPlacement::PerCube);
        let (report, decisions) = assert_adaptive_modes_identical("sg", &cfg, 5_000);
        assert!(report.cycles > 0);
        total_decisions += decisions.len();
    }
    // And HostOnly over a net device (SystemSim + NetDevice backend).
    let mut cfg = base.clone();
    cfg.system = cfg
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
    let (_, decisions) = assert_adaptive_modes_identical("sg", &cfg, 5_000);
    total_decisions += decisions.len();
    assert!(
        total_decisions > 0,
        "eager adaptation never fired anywhere; the suite proves nothing"
    );
}

#[test]
fn idle_heavy_adaptive_run_is_mode_identical() {
    // One thread, one outstanding access: the configuration where the
    // event loop actually skips long spans, so decision boundaries fall
    // strictly inside spans the fast path would otherwise jump over.
    let mut cfg = ExperimentConfig::paper(1);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg.system.soc.max_outstanding_per_thread = 1;
    cfg.system.adapt = eager();
    cfg.system.adapt.interval = 257; // prime: never aligns with device events
    let (report, _) = assert_adaptive_modes_identical("gups", &cfg, 1_000);
    assert!(report.cycles > 0);
}

#[test]
fn adaptive_results_are_jobs_invariant() {
    // The engine contract: outputs are byte-identical regardless of the
    // worker count. Adaptive entries must not break it.
    let mut cfg = ExperimentConfig::paper(4);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg.system.adapt = AdaptConfig::tuned();
    let mut eager_cfg = cfg.clone();
    eager_cfg.system.adapt = eager();
    let reqs = vec![
        SimRequest::new("stream", &cfg),
        SimRequest::new("sg", &cfg),
        SimRequest::new("stream", &eager_cfg),
        SimRequest::new("sg", &eager_cfg),
    ];
    let one = SimPool::new(1).run_batch(&reqs);
    let four = SimPool::new(4).run_batch(&reqs);
    assert_eq!(one, four, "adaptive runs diverged across --jobs counts");
}

/// Build the golden phase-shift program set. Phase 1: `threads` threads
/// stream consecutive 16 B words through their own address ranges
/// back to back — the device piles up a deep transaction backlog while
/// rows fill with neighbouring FLITs during their ARQ residency, so the
/// controller should raise the pop interval (merge). Phase 2: the same
/// threads switch to compute-gapped loads of *distinct* 256 B rows — a
/// trickle the device absorbs easily, but one the (now slow) pop
/// discipline backs up behind, so the controller should bring the pop
/// interval back down (drain).
fn phase_shift_programs(threads: usize) -> Vec<Box<dyn ThreadProgram>> {
    let stream_per_thread = 3_000u64;
    let sparse_per_thread = 2_000u64;
    // Phase 2 lives far above every phase-1 row so the phases share no
    // ARQ entries.
    let sparse_base = 1u64 << 22;
    (0..threads as u64)
        .map(|t| {
            let mut ops: Vec<ThreadOp> = (0..stream_per_thread)
                .map(|i| ThreadOp::Mem {
                    addr: PhysAddr::new((t * stream_per_thread + i) * 16),
                    kind: MemOpKind::Load,
                })
                .collect();
            for i in 0..sparse_per_thread {
                ops.push(ThreadOp::Compute(32));
                ops.push(ThreadOp::Mem {
                    addr: PhysAddr::new(sparse_base + ((i * threads as u64 + t) * 256)),
                    kind: MemOpKind::Load,
                });
            }
            Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>
        })
        .collect()
}

fn phase_shift_config() -> mac_types::SystemConfig {
    // One thread per ARQ entry so both phases exercise the full queue.
    // The MAC keeps the paper defaults: arq_entries 32, pop_interval 2,
    // accepts_per_cycle 1. The controller may raise the pop interval
    // over the mergeable device-bound phase and bring it back down when
    // the pop discipline itself becomes the bottleneck.
    let mut sys = mac_types::SystemConfig::paper(32);
    sys.adapt = AdaptConfig {
        enabled: true,
        interval: 1_024,
        min_pop_interval: 1,
        max_pop_interval: 8,
        min_accepts: 1,
        max_accepts: 4,
        evidence_threshold: 2,
        hold_intervals: 1,
    };
    sys
}

fn run_phase_shift(stepped: bool) -> (RunReport, Vec<(u64, u64, u16)>) {
    let sys = phase_shift_config();
    // The ring must hold the FULL event stream: MAC and device events
    // flood it, and an evicted early decision would make the assertions
    // below read the trajectory wrong.
    let sink = RingSink::new(1 << 22);
    let ring = sink.handle();
    let mut sim = SystemSim::new(&sys, phase_shift_programs(32));
    sim.set_stepped(stepped);
    sim.set_tracer(Tracer::new(sink));
    let report = sim.run(5_000_000);
    assert_eq!(ring.dropped(), 0, "trace ring evicted records; grow it");
    let decisions = ring
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::AdaptDecision {
                pop_interval,
                accepts,
                ..
            } => Some((r.cycle, pop_interval, accepts)),
            _ => None,
        })
        .collect();
    (report, decisions)
}

#[test]
fn phase_shift_scenario_retunes_and_recovers() {
    let (report, decisions) = run_phase_shift(false);
    assert_eq!(
        report.soc.raw_requests, report.soc.completions,
        "phase-shift run must drain"
    );
    assert!(
        decisions.len() >= 2,
        "expected a regime switch, got {decisions:?}"
    );
    for (cycle, pop, accepts) in &decisions {
        assert!(
            cycle % 1_024 == 0 && *cycle > 0,
            "decision off the interval grid: {decisions:?}"
        );
        assert!((1..=8).contains(pop), "pop escaped bounds: {decisions:?}");
        assert!(
            (1..=4).contains(accepts),
            "accepts escaped bounds: {decisions:?}"
        );
    }
    // Phase 1: a mergeable device-bound backlog drives the operating
    // point toward merging (pop interval above the static 2).
    let (_, first_pop, _) = decisions[0];
    assert!(
        first_pop > 2,
        "first retune should slow pops over the mergeable backlog: {decisions:?}"
    );
    // Phase 2: the sparse trickle backs up behind the slowed pop
    // discipline while the device idles, so the controller brings the
    // pop interval back down off its ceiling.
    let peak = decisions.iter().map(|&(_, p, _)| p).max().unwrap();
    let recovered = decisions.iter().any(|&(_, pop, _)| pop < peak);
    assert!(
        recovered,
        "controller never lowered the pop interval after the streaming phase: {decisions:?}"
    );
    // And the whole scenario is mode-identical, decisions included.
    let (stepped_report, stepped_decisions) = run_phase_shift(true);
    assert_eq!(report, stepped_report, "phase-shift reports diverged");
    assert_eq!(
        decisions, stepped_decisions,
        "phase-shift decisions diverged"
    );
}

#[test]
fn adaptive_fuzz_campaign_is_clean() {
    // Random enabled AdaptConfigs over adversarial configs and address
    // streams, each with the mac-check invariant checker attached and
    // diffed against the functional oracle. Retuning must never violate
    // an invariant or change what completes.
    let opts = FuzzOptions {
        iters: 60,
        seed: 0xADA,
        out_dir: std::env::temp_dir().join("mac-adaptive-fuzz"),
        max_cycles: 2_000_000,
        adaptive: true,
    };
    let report = run_fuzz(&opts).expect("fuzz campaign runs");
    assert!(
        report.is_clean(),
        "adaptive fuzz campaign found failures: {:?}",
        report.failures
    );
    assert_eq!(report.iters, 60);
}
