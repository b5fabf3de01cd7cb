//! Observability contracts (`mac-obs`): host-side profiling and the
//! live progress probe never perturb simulation results, and the
//! profile's *structure* (span paths, counts, counters) is
//! deterministic across worker counts even though the wall-clock
//! values inside it are not.

use std::sync::Arc;

use mac_metrics::MetricsHub;
use mac_sim::engine::{SimPool, SimRequest};
use mac_sim::{
    phase_name, run_workload, run_workload_observed, ExperimentConfig, ProgressProbe, RunObservers,
    PHASE_DONE,
};
use mac_telemetry::Profiler;
use mac_types::{MacPlacement, NetTopology};
use mac_workloads::sg::ScatterGather;

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(4);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg
}

#[test]
fn profiling_never_changes_the_report() {
    // Both loop instantiations: host-side coalescing (`SystemSim`) and a
    // 2-cube per-cube placement (`NetSystem`), each with its own
    // profiler path scope.
    let mut per_cube = small_cfg();
    per_cube.system = per_cube
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
    for (scope, cfg) in [("system", small_cfg()), ("netsystem", per_cube)] {
        let plain = run_workload(&ScatterGather, &cfg);

        let profiler = Profiler::enabled();
        let probe = Arc::new(ProgressProbe::new());
        let obs = RunObservers {
            tracer: None,
            metrics: MetricsHub::new(10_000),
            profiler: profiler.clone(),
            progress: Some(Arc::clone(&probe)),
            checker: None,
        };
        let observed = run_workload_observed(&ScatterGather, &cfg, obs);

        assert_eq!(
            plain, observed,
            "{scope}: observers must be purely observational"
        );

        // The profiler actually recorded the run-loop phases.
        let text = profiler.export_text().expect("enabled profiler exports");
        assert!(text.contains(&format!(" {scope}/run/step ")), "{text}");
        assert!(
            text.contains(&format!(" {scope}/run/event_scan ")),
            "{text}"
        );

        // The probe ended in `done` with the report's final numbers.
        let (cycles, retired, phase) = probe.read();
        assert_eq!(phase_name(phase), "done");
        assert_eq!(phase, PHASE_DONE);
        assert_eq!(cycles, observed.cycles, "{scope}");
        assert_eq!(retired, observed.soc.completions, "{scope}");
    }
}

#[test]
fn profile_structure_is_identical_across_worker_counts() {
    let cfg = small_cfg();
    let mut base = cfg.clone();
    base.system.mac_disabled = true;
    let reqs = vec![
        SimRequest::new("sg", &cfg),
        SimRequest::new("sg", &base),
        SimRequest::new("stream", &cfg),
    ];

    let run_with_jobs = |jobs: usize| {
        let profiler = Profiler::enabled();
        let pool = SimPool::new(jobs).with_profiler(profiler.clone());
        let reports = pool.run_batch(&reqs);
        (reports, profiler.export_text().expect("enabled"))
    };

    let (reports1, text1) = run_with_jobs(1);
    let (reports8, text8) = run_with_jobs(8);

    assert_eq!(reports1, reports8, "results independent of worker count");
    assert_eq!(
        text1, text8,
        "span structure (paths, counts, counters) must not depend on --jobs"
    );
    assert!(text1.contains("span pool/execute count=3"), "{text1}");
    assert!(text1.contains("span pool/run_batch count=1"), "{text1}");
}

#[test]
fn disabled_profiler_exports_nothing() {
    let p = Profiler::disabled();
    assert!(!p.is_enabled());
    assert!(p.export_text().is_none());
    assert!(p.export_json().is_none());
    assert!(p.snapshot().is_none());
}
