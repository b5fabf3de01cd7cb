//! Integration tests for the parallel experiment engine: the two
//! acceptance properties of the engine design — parallel runs are
//! byte-identical to serial runs, and a warm cache re-run executes zero
//! simulations — plus sim-level cache round-tripping across pools, with
//! pooled, disk-restored and direct runs producing the same report, and
//! a corrupt entry counted, recomputed and replaced.

use std::path::PathBuf;

use mac_sim::cachefmt;
use mac_sim::engine::{run_experiments, EngineOptions, SimPool, SimRequest};
use mac_sim::experiment::{run_workload, ExperimentConfig};
use mac_sim::manifest::select;
use mac_types::{MacPlacement, NetTopology};

/// A unique scratch directory per test (removed on entry so reruns start
/// cold).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mac-engine-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(out: PathBuf, jobs: usize, use_cache: bool) -> EngineOptions {
    EngineOptions {
        jobs,
        scale: 1,
        out_dir: out,
        use_cache,
        ..EngineOptions::default()
    }
}

fn artifact_bytes(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("out dir exists")
        .filter_map(|e| {
            let e = e.ok()?;
            if e.path().is_file() {
                Some((
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).ok()?,
                ))
            } else {
                None
            }
        })
        .collect();
    files.sort();
    files
}

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    let exps = select("smoke");
    assert_eq!(exps.len(), 3, "engine smoke + net smoke + guest smoke");

    let serial_dir = scratch("serial");
    let parallel_dir = scratch("parallel");
    // No disk cache: force both runs to actually simulate.
    let serial = run_experiments(&exps, &opts(serial_dir.clone(), 1, false)).unwrap();
    let parallel = run_experiments(&exps, &opts(parallel_dir.clone(), 8, false)).unwrap();
    assert!(serial.sims_executed > 0);
    assert!(parallel.sims_executed > 0);

    let a = artifact_bytes(&serial_dir);
    let b = artifact_bytes(&parallel_dir);
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "{name_a} differs between --jobs 1 and --jobs 8"
        );
    }

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn warm_cache_rerun_executes_zero_simulations() {
    let exps = select("smoke");
    let dir = scratch("warm");

    let cold = run_experiments(&exps, &opts(dir.clone(), 4, true)).unwrap();
    assert!(cold.sims_executed > 0, "cold run must simulate");
    assert!(!cold.outcomes[0].from_artifact_cache);
    let cold_files = artifact_bytes(&dir);

    let warm = run_experiments(&exps, &opts(dir.clone(), 4, true)).unwrap();
    assert_eq!(warm.sims_executed, 0, "warm run must simulate nothing");
    assert_eq!(warm.sims_from_disk, 0, "artifact cache short-circuits sims");
    assert!(warm.outcomes.iter().all(|o| o.from_artifact_cache));
    assert_eq!(artifact_bytes(&dir), cold_files, "warm outputs identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_cache_round_trips_across_pools() {
    let dir = scratch("simcache");
    let mut cfg = ExperimentConfig::paper(2);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    let mut net = cfg.clone();
    net.system = net
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
    let reqs = vec![
        SimRequest::new("stream", &cfg),
        SimRequest::new("gups", &cfg),
        SimRequest::new("sg", &net),
    ];

    let pool1 = SimPool::new(2).with_cache(&dir);
    let fresh = pool1.run_batch(&reqs);
    assert_eq!(pool1.sims_executed(), 3);

    // A brand-new pool (empty memo) must serve all from disk. The cold
    // pool, the disk-restored reports and a direct run outside any pool
    // must agree on the whole report.
    let pool2 = SimPool::new(2).with_cache(&dir);
    let cached = pool2.run_batch(&reqs);
    assert_eq!(pool2.sims_executed(), 0);
    assert_eq!(pool2.disk_cache_hits(), 3);
    for ((req, cold), warm) in reqs.iter().zip(&fresh).zip(&cached) {
        let w = mac_workloads::by_name(&req.workload).expect("registered workload");
        let direct = run_workload(w.as_ref(), &req.cfg);
        assert_eq!(
            &direct, cold,
            "{}: pooled run differs from direct",
            req.workload
        );
        assert_eq!(
            cold, warm,
            "{}: disk round trip changed the report",
            req.workload
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_entry_is_counted_recomputed_and_replaced() {
    let dir = scratch("corrupt");
    let mut cfg = ExperimentConfig::paper(2);
    cfg.workload.scale = 1;
    let req = SimRequest::new("gups", &cfg);
    let cold = SimPool::new(1)
        .with_cache(&dir)
        .run_batch(std::slice::from_ref(&req));
    let path = dir.join(cachefmt::sim_entry(req.fingerprint()));
    let text = std::fs::read_to_string(&path).expect("entry written");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

    let pool = SimPool::new(1).with_cache(&dir);
    let warm = pool.run_batch(&[req]);
    assert_eq!(
        (
            pool.sims_executed(),
            pool.corrupt_entries(),
            pool.disk_cache_hits()
        ),
        (1, 1, 0)
    );
    assert_eq!(warm, cold);
    let replaced = std::fs::read_to_string(&path).expect("entry rewritten");
    assert!(cachefmt::decode_run(&replaced).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_requests_simulate_once() {
    let mut cfg = ExperimentConfig::paper(2);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    let reqs = vec![
        SimRequest::new("gups", &cfg),
        SimRequest::new("gups", &cfg),
        SimRequest::new("gups", &cfg),
    ];
    let pool = SimPool::new(4);
    let out = pool.run_batch(&reqs);
    assert_eq!(pool.sims_executed(), 1, "identical requests dedup");
    assert_eq!(out[0].cycles, out[1].cycles);
    assert_eq!(out[1].hmc, out[2].hmc);
}
