//! The end-to-end measurement: interleaved timed passes with set-up
//! samples among them, result checks, and the metrics a user of the
//! simulator sees.

use std::time::{Duration, Instant};

use mac_sim::cachefmt::encode_run;
use mac_sim::RunReport;
use mac_types::Fnv128;

use crate::alloc::peak_heap;
use crate::batch::{failure, setup, Sim};
use crate::calib;
use crate::json::Metric;
use crate::stats::{quartiles, summed_p25, Quartiles};

/// Least host time between two set-up samples. Set-up takes 1–25 ms,
/// so back-to-back samples all land in the same burst of machine noise;
/// spread over the run like the simulations, about 25 of them cost 1–2%
/// of it.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// A run's length in seconds when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, which is appended to its command
/// as `--seconds`. A test keeps the two equal.
pub const RUN_SECONDS: u64 = 25;

/// The part of a run's seconds left for `cargo run` to start the binary
/// and for the process to exit; the binary's own work ends before it.
pub const START_MARGIN: Duration = Duration::from_millis(1500);

/// Fewest timed passes, even past the deadline: a report must repeat
/// to be checked. `paper_suite` takes 4.5–6 s a pass, about 11 s in the
/// worst slow spell seen, so two passes still fit in 25 s.
const MIN_PASSES: usize = 2;

/// Least host time between two calibration samples, so the yardstick
/// costs a few percent of a run however short the simulations are.
const CALIB_EVERY: Duration = Duration::from_millis(100);

/// Everything one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Timed passes over the batch.
    pub passes: usize,
    /// Simulations attempted (batch size × passes).
    pub attempted: u64,
    /// Simulations that failed (see [`crate::batch::failure`]).
    pub failed: u64,
    /// One line per failure: `<label> pass <p>: <reason>`.
    pub failures: Vec<String>,
    /// Raw memory requests in one pass.
    pub raws_per_pass: u64,
    /// Σ over the batch of each simulation's 25th-percentile time across
    /// passes, in reference seconds.
    pub p25_sum_s: f64,
    /// The same sum in host seconds, unscaled.
    pub host_p25_sum_s: f64,
    /// Quartiles of whole-pass host time.
    pub pass_s: Quartiles,
    /// Median time of one set-up, each sample in the reference seconds
    /// of the pass it was taken in.
    pub setup_s: f64,
    /// The same median in host seconds, unscaled.
    pub host_setup_s: f64,
    /// Set-up samples taken.
    pub setup_samples: usize,
    /// Host seconds → reference seconds over the whole run (see
    /// [`crate::calib`]); each pass is scaled by its own.
    pub speed: f64,
    /// Calibration samples taken.
    pub calib_samples: usize,
    /// The most heap one simulation of the batch held at once.
    pub peak_heap_mb: f64,
    /// `VmHWM` after the last pass (host resident set, for reference).
    pub peak_rss_mb: f64,
    /// Eq. 3 as written, pooled over the with-MAC runs: Σ transactions
    /// emitted ÷ Σ raw memory requests.
    pub request_ratio: f64,
    /// Fig. 17's ratio pooled over pairs: Σ device latency with the MAC ÷
    /// Σ device latency without it.
    pub mem_latency_ratio: f64,
    /// Fnv128 over `encode_run` of every report of one pass, in order.
    pub digest: u128,
    /// Wall time of the first set-up, which builds the batch.
    pub setup_wall_s: f64,
    /// Wall time of all timed passes.
    pub timed_wall_s: f64,
}

impl E2e {
    /// `raw_req_per_s`: raw requests per pass over the summed p25 time,
    /// in reference seconds.
    pub fn raw_req_per_s(&self) -> f64 {
        self.raws_per_pass as f64 / self.p25_sum_s
    }

    /// The same throughput in host seconds, unscaled.
    pub fn host_raw_req_per_s(&self) -> f64 {
        self.raws_per_pass as f64 / self.host_p25_sum_s
    }

    /// Failed over attempted simulations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("raw_req_per_s", self.raw_req_per_s(), "req/s"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_heap_mb", self.peak_heap_mb, "MB"),
            Metric::new("request_ratio", self.request_ratio, "ratio"),
            Metric::new("mem_latency_ratio", self.mem_latency_ratio, "ratio"),
        ]
    }
}

/// Fnv128 over the cache encoding of `reports`, in order.
pub(crate) fn digest(reports: &[RunReport]) -> u128 {
    let mut h = Fnv128::new();
    for r in reports {
        h.write_str(&encode_run(r));
    }
    h.finish()
}

/// Simulated results pooled over one pass: `(request_ratio,
/// mem_latency_ratio)`. Ratios, not the percentages the paper plots,
/// because both percentages are exactly 0 on `idle` (one access in
/// flight leaves nothing to merge).
fn simulated_metrics(sims: &[Sim], reports: &[RunReport]) -> (f64, f64) {
    let (mut raw, mut emitted) = (0u64, 0u64);
    let (mut lat_with, mut lat_without) = (0u128, 0u128);
    for (sim, r) in sims.iter().zip(reports) {
        if sim.with_mac() {
            raw += r.mac.raw_memory_requests();
            emitted += r.mac.emitted_total();
            lat_with += r.total_access_latency();
        } else {
            lat_without += r.total_access_latency();
        }
    }
    (
        emitted as f64 / raw.max(1) as f64,
        lat_with as f64 / lat_without.max(1) as f64,
    )
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// When a run that started at `started` with `seconds` to spend must
/// have finished measuring: [`START_MARGIN`] before its last second.
pub fn deadline(started: Instant, seconds: u64) -> Instant {
    started + Duration::from_secs(seconds).saturating_sub(START_MARGIN)
}

/// Host seconds one set-up of `workload` takes.
fn time_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    std::hint::black_box(setup(workload, seed, false)?);
    Ok(t0.elapsed().as_secs_f64())
}

/// Measure `workload` until `deadline`.
///
/// A first set-up builds the batch. Each pass then runs the whole batch
/// in order, so a burst of machine noise lands on one simulation of one
/// pass and the per-simulation low quartile discards it. Every pass
/// starts with a calibration sample and a set-up sample, takes another
/// calibration sample before a simulation whenever [`CALIB_EVERY`] has
/// passed since the last, and another set-up sample whenever
/// [`SETUP_EVERY`] has. The pass's simulation and set-up times are
/// scaled by that pass's speed, so a slow spell of seconds is taken out
/// where it happened. A pass starts only if it would end by `deadline`
/// at the pace of the slowest pass so far, or if fewer than
/// [`MIN_PASSES`] have run.
pub fn measure(workload: &str, seed: u64, deadline: Instant) -> Result<E2e, String> {
    let start = Instant::now();
    let sims = setup(workload, seed, false)?.sims;
    let setup_wall_s = start.elapsed().as_secs_f64();

    // Host and reference seconds of every set-up sample.
    let (mut host_setups, mut ref_setups) = (Vec::new(), Vec::new());
    // times[s][p]: simulation s's host time in pass p.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); sims.len()];
    let mut pass_speeds = Vec::new();
    let mut all_calib = Vec::new();
    let mut pass_totals = Vec::new();
    let mut first: Vec<RunReport> = Vec::new();
    let mut first_enc: Vec<String> = Vec::new();
    let mut peak_heap_bytes = 0u64;
    let mut failures = Vec::new();
    let mut slowest_pass = Duration::ZERO;
    let start = Instant::now();
    while pass_totals.len() < MIN_PASSES || Instant::now() + slowest_pass <= deadline {
        let pass = pass_totals.len();
        let pass_start = Instant::now();
        let mut calib_samples = vec![calib::sample()];
        let mut last_calib = Instant::now();
        let mut setup_samples = vec![time_setup(workload, seed)?];
        let mut last_setup = Instant::now();
        let mut total = 0.0;
        for (i, sim) in sims.iter().enumerate() {
            if last_calib.elapsed() >= CALIB_EVERY {
                calib_samples.push(calib::sample());
                last_calib = Instant::now();
            }
            if last_setup.elapsed() >= SETUP_EVERY {
                setup_samples.push(time_setup(workload, seed)?);
                last_setup = Instant::now();
            }
            let t0 = Instant::now();
            let (result, heap) = peak_heap(|| sim.run());
            let dt = t0.elapsed().as_secs_f64();
            times[i].push(dt);
            total += dt;
            let mut why = failure(&result, sim.max_cycles());
            if pass == 0 {
                peak_heap_bytes = peak_heap_bytes.max(heap);
                first_enc.push(encode_run(&result.report));
                first.push(result.report);
            } else if encode_run(&result.report) != first_enc[i] {
                why = why.or(Some("report differs from pass 0"));
            }
            if let Some(why) = why {
                failures.push(format!("{} pass {pass}: {why}", sim.label));
            }
        }
        pass_totals.push(total);
        let speed = calib::speed(&calib_samples);
        pass_speeds.push(speed);
        all_calib.extend(calib_samples);
        ref_setups.extend(setup_samples.iter().map(|s| s * speed));
        host_setups.extend(setup_samples);
        slowest_pass = slowest_pass.max(pass_start.elapsed());
    }
    let timed_wall_s = start.elapsed().as_secs_f64();
    let reference: Vec<Vec<f64>> = times
        .iter()
        .map(|t| t.iter().zip(&pass_speeds).map(|(dt, s)| dt * s).collect())
        .collect();
    let (request_ratio, mem_latency_ratio) = simulated_metrics(&sims, &first);
    Ok(E2e {
        passes: pass_totals.len(),
        attempted: (sims.len() * pass_totals.len()) as u64,
        failed: failures.len() as u64,
        failures,
        raws_per_pass: first.iter().map(|r| r.soc.raw_requests).sum(),
        p25_sum_s: summed_p25(&reference),
        host_p25_sum_s: summed_p25(&times),
        pass_s: quartiles(&pass_totals),
        setup_s: quartiles(&ref_setups).median,
        host_setup_s: quartiles(&host_setups).median,
        setup_samples: host_setups.len(),
        speed: calib::speed(&all_calib),
        calib_samples: all_calib.len(),
        peak_heap_mb: peak_heap_bytes as f64 / (1024.0 * 1024.0),
        peak_rss_mb: peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        request_ratio,
        mem_latency_ratio,
        digest: digest(&first),
        setup_wall_s,
        timed_wall_s,
    })
}
