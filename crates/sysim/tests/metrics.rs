//! Integration tests for the metrics subsystem's two contracts:
//! sampling is *observational* (attaching an enabled hub changes no
//! simulated outcome) and *deterministic* (metrics files are
//! byte-identical across `--jobs` settings).

use std::path::PathBuf;

use mac_metrics::{MetricsHub, MetricsSnapshot};
use mac_sim::engine::{SimPool, SimRequest};
use mac_sim::experiment::{run_workload, run_workload_observed, ExperimentConfig, RunObservers};
use mac_types::{MacPlacement, NetTopology};
use mac_workloads::by_name;

/// A unique scratch directory per test (removed on entry so reruns start
/// cold).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mac-metrics-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(4);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    cfg
}

fn metrics_files(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("metrics dir exists")
        .filter_map(|e| {
            let e = e.ok()?;
            Some((
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).ok()?,
            ))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn metrics_files_are_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    let mut net_cfg = small_cfg();
    net_cfg.system = net_cfg
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::PerCube);
    // Both system loops: the classic single-device path and the per-cube
    // NetSystem path.
    let reqs = vec![
        SimRequest::new("stream", &cfg),
        SimRequest::new("gups", &cfg),
        SimRequest::new("sg", &net_cfg),
    ];

    let dir1 = scratch("jobs1");
    let dir8 = scratch("jobs8");
    let pool1 = SimPool::new(1).with_metrics(&dir1, 10_000);
    let pool8 = SimPool::new(8).with_metrics(&dir8, 10_000);
    pool1.run_batch(&reqs);
    pool8.run_batch(&reqs);
    assert_eq!(pool1.sims_executed(), 3);
    assert_eq!(pool8.sims_executed(), 3);

    let a = metrics_files(&dir1);
    let b = metrics_files(&dir8);
    assert_eq!(a.len(), 6, "3 sims x (csv + json)");
    assert_eq!(a.len(), b.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "{name_a} differs between --jobs 1 and --jobs 8"
        );
    }

    // And the CSVs parse back into non-trivial snapshots.
    for (name, bytes) in &a {
        if name.ends_with(".csv") {
            let snap = MetricsSnapshot::from_csv(std::str::from_utf8(bytes).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(snap.interval, 10_000);
            assert!(!snap.series.is_empty(), "{name} has no series");
            assert!(
                snap.series.iter().all(|s| !s.points.is_empty()),
                "{name} has an empty series"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
}

/// Observers with only `hub` attached.
fn sampled_by(hub: &MetricsHub) -> RunObservers {
    RunObservers {
        metrics: hub.clone(),
        ..RunObservers::default()
    }
}

#[test]
fn enabled_metrics_do_not_perturb_the_simulation() {
    let cfg = small_cfg();
    let w = by_name("sg").expect("sg workload exists");
    let plain = run_workload(w.as_ref(), &cfg);
    let hub = MetricsHub::new(10_000);
    let sampled = run_workload_observed(w.as_ref(), &cfg, sampled_by(&hub));
    assert_eq!(plain, sampled, "sampling must be purely observational");
    let snap = hub.snapshot().expect("enabled hub snapshots");
    assert!(!snap.series.is_empty());
    // The tail sample lands on the final cycle, so end-of-run counters
    // in the series agree with the report totals.
    let raw = snap
        .series
        .iter()
        .find(|s| s.name == "node0/raw_requests")
        .expect("router metrics present");
    assert_eq!(raw.last(), plain.soc.raw_requests);
}

#[test]
fn disabled_hub_matches_the_uninstrumented_path() {
    let cfg = small_cfg();
    let w = by_name("stream").expect("stream workload exists");
    let plain = run_workload(w.as_ref(), &cfg);
    let hub = MetricsHub::disabled();
    let report = run_workload_observed(w.as_ref(), &cfg, sampled_by(&hub));
    assert_eq!(plain, report);
    assert!(hub.snapshot().is_none(), "disabled hub records nothing");
}
