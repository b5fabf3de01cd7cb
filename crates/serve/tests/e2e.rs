//! End-to-end acceptance tests for the job server, exercising the full
//! stack over real TCP: concurrent clients, in-flight dedup, warm
//! replay from the shared store, queue-overflow backpressure,
//! drain-then-exit shutdown, and a corrupt stored result that is
//! counted and recomputed.

use std::path::PathBuf;

use mac_serve::{
    serve, AdmissionConfig, ArtifactStore, JobSpec, JobState, Response, ServeClient, ServerConfig,
};
use mac_sim::experiment::ExperimentConfig;

/// A unique scratch directory per test (removed on entry so reruns start
/// cold).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mac-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(2);
    cfg.workload.scale = 1;
    cfg.workload.seed = seed;
    cfg.max_cycles = 50_000_000;
    cfg
}

fn server_config(out: PathBuf) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        sim_jobs: 2,
        out_dir: out,
        ..ServerConfig::default()
    }
}

/// Pull one counter/gauge value out of a mac-metrics v1 CSV.
fn metric(csv: &str, name: &str) -> u64 {
    let needle = format!(",{name},");
    csv.lines()
        .rev()
        .find(|l| l.contains(&needle))
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .unwrap_or_else(|| panic!("series {name} missing from:\n{csv}"))
}

/// Acceptance: ≥4 concurrent clients with a mix of duplicate and
/// distinct configs all get correct results, duplicates are deduped
/// (simulations executed < jobs submitted), and a warm resubmission of
/// the full set executes zero simulations.
#[test]
fn concurrent_clients_dedup_and_replay_warm() {
    let out = scratch("dedup");
    let handle = serve(server_config(out.clone())).expect("server starts");
    let addr = handle.addr().to_string();

    // 4 clients: everyone submits the same shared sim, plus one sim of
    // their own. 8 submissions, 5 distinct jobs.
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(&addr, &format!("client-{i}")).expect("connects");
                let shared = JobSpec::sim("stream", fast_cfg(7));
                let own = JobSpec::sim("gups", fast_cfg(100 + i));
                let mut payloads = Vec::new();
                for spec in [shared, own] {
                    let job = match c.submit(&spec).expect("submits") {
                        Response::Accepted { job, .. } => job,
                        other => panic!("client {i}: submission not admitted: {other:?}"),
                    };
                    assert_eq!(job, spec.job_id(), "server agrees on the job id");
                    let state = c.wait(job, 60_000).expect("waits");
                    assert_eq!(state, JobState::Done, "client {i}: job {job}");
                    payloads.push(c.fetch(job).expect("fetches"));
                }
                payloads
            })
        })
        .collect();
    let results: Vec<Vec<String>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Every client got a real payload, and the shared job's bytes agree.
    for payloads in &results {
        assert_eq!(payloads.len(), 2);
        assert!(payloads.iter().all(|p| !p.is_empty()));
    }
    for other in &results[1..] {
        assert_eq!(results[0][0], other[0], "shared sim payloads identical");
    }

    let mut admin = ServeClient::connect(&addr, "admin").expect("connects");
    let stats = admin.stats().expect("stats");
    assert_eq!(metric(&stats, "serve/jobs_submitted"), 8);
    let executed = metric(&stats, "serve/sims_executed");
    assert_eq!(executed, 5, "5 distinct jobs, duplicates never simulate");
    assert!(
        metric(&stats, "serve/jobs_deduped") + metric(&stats, "serve/jobs_cached") == 3,
        "3 duplicate submissions resolved without execution:\n{stats}"
    );

    // Warm resubmission of the full distinct set: everything answers
    // cached, and the simulation counter does not move.
    let mut specs = vec![JobSpec::sim("stream", fast_cfg(7))];
    specs.extend((0..4).map(|i| JobSpec::sim("gups", fast_cfg(100 + i))));
    for spec in &specs {
        match admin.submit(spec).expect("resubmits") {
            Response::Accepted { state, cached, .. } => {
                assert_eq!(state, JobState::Done);
                assert!(cached, "{} must be a warm hit", spec.label());
            }
            other => panic!("warm resubmission rejected: {other:?}"),
        }
    }
    let stats = admin.stats().expect("stats");
    assert_eq!(
        metric(&stats, "serve/sims_executed"),
        executed,
        "warm resubmission executed zero simulations"
    );

    // Graceful shutdown: drain, join, and export the counters.
    admin.shutdown().expect("shutdown acked");
    let csv = handle.wait().expect("drains and exits");
    assert_eq!(metric(&csv, "serve/queue_depth"), 0, "queue drained");
    let metrics_file = out.join("serve").join("server-metrics.csv");
    assert_eq!(
        std::fs::read_to_string(&metrics_file).expect("metrics exported"),
        csv
    );
    let _ = std::fs::remove_dir_all(&out);
}

/// Acceptance: overflowing the bounded queue yields an explicit
/// backpressure rejection with a retry delay — never a hang or panic —
/// and the queue recovers once drained.
#[test]
fn queue_overflow_rejects_with_backpressure() {
    let out = scratch("overflow");
    let mut cfg = server_config(out.clone());
    cfg.workers = 1;
    cfg.admission = AdmissionConfig::for_capacity(3);
    // Dispatch starts paused so the queue fills deterministically.
    cfg.start_paused = true;
    let handle = serve(cfg).expect("server starts");
    let addr = handle.addr().to_string();

    let mut c = ServeClient::connect(&addr, "pressure").expect("connects");
    let specs: Vec<_> = (0..4)
        .map(|i| JobSpec::sim("gups", fast_cfg(500 + i)))
        .collect();
    let mut jobs = Vec::new();
    for spec in &specs[..3] {
        match c.submit(spec).expect("submits") {
            Response::Accepted {
                job,
                state: JobState::Queued,
                ..
            } => jobs.push(job),
            other => panic!("fill submission not queued: {other:?}"),
        }
    }
    // The queue is at capacity: the next distinct job is shed with an
    // explicit reason and a positive retry suggestion.
    match c.submit(&specs[3]).expect("overflow submit answers") {
        Response::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert_eq!(reason, "queue-full");
            assert!(retry_after_ms > 0, "retry-after must be positive");
        }
        other => panic!("overflow must reject explicitly, got {other:?}"),
    }

    // Resume dispatch, drain the queue, and verify the shed job is
    // admitted once pressure is gone.
    c.resume().expect("resumes");
    for job in jobs {
        assert_eq!(c.wait(job, 60_000).expect("waits"), JobState::Done);
    }
    let retry = match c.submit(&specs[3]).expect("retries") {
        Response::Accepted { job, .. } => job,
        other => panic!("post-drain retry rejected: {other:?}"),
    };
    assert_eq!(c.wait(retry, 60_000).expect("waits"), JobState::Done);

    let stats = c.stats().expect("stats");
    assert_eq!(metric(&stats, "serve/jobs_rejected"), 1);
    assert_eq!(metric(&stats, "serve/jobs_rejected_queue_full"), 1);
    assert_eq!(metric(&stats, "serve/queue_peak"), 3);

    c.shutdown().expect("shutdown acked");
    handle.wait().expect("drains and exits");
    let _ = std::fs::remove_dir_all(&out);
}

/// Checked jobs run under the conformance harness and store a verdict
/// envelope; entry jobs render manifest artifacts. Both payloads are
/// fetchable, and a draining server sheds new submissions explicitly.
#[test]
fn checked_and_entry_jobs_round_trip_and_drain_rejects() {
    let out = scratch("kinds");
    let handle = serve(server_config(out.clone())).expect("server starts");
    let addr = handle.addr().to_string();
    let mut c = ServeClient::connect(&addr, "kinds").expect("connects");

    let mut checked = JobSpec::sim("sg", fast_cfg(3));
    checked.checked = true;
    let entry = JobSpec::entry("smoke", 1);
    for (spec, marker) in [(&checked, "# mac-serve checked result v1"), (&entry, "")] {
        let job = match c.submit(spec).expect("submits") {
            Response::Accepted { job, .. } => job,
            other => panic!("{}: not admitted: {other:?}", spec.label()),
        };
        assert_eq!(
            c.wait(job, 120_000).expect("waits"),
            JobState::Done,
            "{}",
            spec.label()
        );
        let payload = c.fetch(job).expect("fetches");
        assert!(payload.starts_with(marker), "{}", spec.label());
    }

    c.shutdown().expect("shutdown acked");
    // While draining (or after), new submissions are shed explicitly.
    match c.submit(&JobSpec::sim("gups", fast_cfg(9))) {
        Ok(Response::Rejected { reason, .. }) => assert_eq!(reason, "draining"),
        Ok(other) => panic!("draining server must shed, got {other:?}"),
        Err(_) => {} // server already exited and closed the socket: also fine
    }
    handle.wait().expect("drains and exits");
    let _ = std::fs::remove_dir_all(&out);
}

/// A stored result that exists but does not decode is counted in
/// `serve/cache_corrupt` and recomputed, once: the rerun replaces it,
/// so the next resubmission is a warm hit.
#[test]
fn corrupt_stored_result_is_counted_and_rerun() {
    let out = scratch("corrupt");
    let spec = JobSpec::sim("sg", fast_cfg(5));
    let submit = |c: &mut ServeClient| match c.submit(&spec).expect("submits") {
        Response::Accepted { job, cached, .. } => (job, cached),
        other => panic!("not admitted: {other:?}"),
    };

    let handle = serve(server_config(out.clone())).expect("server starts");
    let mut c = ServeClient::connect(&handle.addr().to_string(), "corrupt").expect("connects");
    let (job, _) = submit(&mut c);
    assert_eq!(c.wait(job, 60_000).expect("waits"), JobState::Done);
    c.shutdown().expect("shutdown acked");
    handle.wait().expect("drains and exits");

    let path = ArtifactStore::new(&out).path_for(&spec);
    assert!(path.to_string_lossy().contains("cache/sim-"), "{path:?}");
    let text = std::fs::read(&path).expect("result stored");
    std::fs::write(&path, &text[..100]).expect("cuts the result");

    let handle = serve(server_config(out.clone())).expect("fresh server starts");
    let mut c = ServeClient::connect(&handle.addr().to_string(), "corrupt").expect("connects");
    let (job, cached) = submit(&mut c);
    assert!(!cached, "a cut result is not a warm hit");
    assert_eq!(c.wait(job, 60_000).expect("waits"), JobState::Done);
    let stats = c.stats().expect("stats");
    assert_eq!(metric(&stats, "serve/sims_executed"), 1, "{stats}");
    assert_eq!(metric(&stats, "serve/cache_corrupt"), 1, "{stats}");

    let (_, cached) = submit(&mut c);
    assert!(cached, "the rerun replaced the cut result");
    assert_eq!(metric(&c.stats().expect("stats"), "serve/cache_corrupt"), 1);
    c.shutdown().expect("shutdown acked");
    let csv = handle.wait().expect("drains and exits");
    assert_eq!(metric(&csv, "serve/cache_corrupt"), 1);
    let _ = std::fs::remove_dir_all(&out);
}
