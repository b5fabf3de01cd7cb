//! `mac-perf`: run one benchmark workload, or compare two sets of runs.
//! See the crate's `README.md` for the protocol.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mac_perf::alloc::CountingAlloc;
use mac_perf::calib::REFERENCE_KERNEL_MS;
use mac_perf::compare::{
    bounds_from, compare, runs_from, with_host_rule, Verdict, HOST_RAW_REQ_PER_S,
};
use mac_perf::json::{metrics_object, quote, result_line, Metric};
use mac_perf::run::{deadline, measure, RUN_SECONDS};
use mac_perf::trace::traced;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  mac-perf --workload <paper_suite|dense|idle|checked_mix> [--seed N] [--seconds N]
           [--trace 0|1|DIR] [--record FILE]
  mac-perf compare <base.jsonl> <change.jsonl> [--bounds BENCHMARK.json]";

/// Why the command stopped: a usage error (exit 2), a failure (exit 1),
/// or a comparison that found a regression (exit 3).
enum Stop {
    Usage(String),
    Fail(String),
    Regressed,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        _ => run_cmd(&args, started),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Usage(msg)) => {
            eprintln!("mac-perf: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Stop::Fail(msg)) => {
            eprintln!("mac-perf: {msg}");
            ExitCode::from(1)
        }
        Err(Stop::Regressed) => ExitCode::from(3),
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, Stop> {
    let usage = |m: String| Stop::Usage(m);
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| usage(format!("{flag} takes a whole number, not `{value}`")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            // The whole run's length, from process start: set-ups and
            // passes end in time for the process to exit within it.
            "--seconds" => opts.seconds = number()?.max(1),
            // `0` and `1` switch tracing; anything else names the
            // directory the traced run writes its spans to.
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(default_trace_dir()),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--record" => opts.record = Some(PathBuf::from(value)),
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    if opts.workload.is_empty() {
        return Err(usage("--workload is required".to_string()));
    }
    Ok(opts)
}

/// `$CARGO_TARGET_DIR/mac-perf`, else `target/mac-perf`.
fn default_trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("mac-perf")
}

fn run_cmd(args: &[String], started: Instant) -> Result<(), Stop> {
    let opts = parse_opts(args)?;
    let (w, seed) = (opts.workload.as_str(), opts.seed);
    // `recorded`: metrics `--record` keeps beside the result line's.
    let (correct, attempted, failed, metrics, recorded, digest) = match &opts.trace {
        Some(dir) => {
            let t = traced(w, seed).map_err(Stop::Usage)?;
            println!("mac-perf traced workload={w} seed={seed}");
            for m in &t.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            for (path, count, ns) in &t.accumulators {
                println!("prof {path} count={count} total_ms={}", *ns as f64 / 1e6);
            }
            for f in &t.failures {
                println!("FAILED {f}");
            }
            t.write(dir, w, seed)
                .map_err(|e| Stop::Fail(format!("writing {}: {e}", dir.display())))?;
            println!("spans {}", dir.join(format!("{w}-spans.json")).display());
            println!("layers {}", dir.join(format!("{w}-layers.json")).display());
            (t.failed == 0, t.attempted, t.failed, t.metrics, vec![], t.digest)
        }
        None => {
            let e = measure(w, seed, deadline(started, opts.seconds)).map_err(Stop::Usage)?;
            let q = e.pass_s;
            println!(
                "mac-perf workload={w} seed={seed} seconds={} passes={} sims_per_pass={}",
                opts.seconds,
                e.passes,
                e.attempted / e.passes as u64
            );
            println!(
                "raw_req_per_s {} req/s = {} raws per pass / {} reference s (summed \
                 per-simulation p25)",
                e.raw_req_per_s(),
                e.raws_per_pass,
                e.p25_sum_s
            );
            println!(
                "{HOST_RAW_REQ_PER_S} {} req/s unscaled; speed {} = {REFERENCE_KERNEL_MS} ms / \
                 kernel p25 over {} calibration samples",
                e.host_raw_req_per_s(),
                e.speed,
                e.calib_samples
            );
            println!(
                "pass_total_s median {} q1 {} q3 {} over {} passes (host)",
                q.median, q.q1, q.q3, e.passes
            );
            println!(
                "setup_s {} s (reference; host median of {}: {} s)",
                e.setup_s, e.setup_samples, e.host_setup_s
            );
            println!("peak_heap_mb {} MB (largest simulation)", e.peak_heap_mb);
            println!(
                "peak_rss_mb {} MB (process VmHWM, not a metric)",
                e.peak_rss_mb
            );
            println!(
                "request_ratio {} ratio (coalescing_pct {} %)",
                e.request_ratio,
                100.0 * (1.0 - e.request_ratio)
            );
            println!(
                "mem_latency_ratio {} ratio (mem_latency_cut_pct {} %)",
                e.mem_latency_ratio,
                100.0 * (1.0 - e.mem_latency_ratio)
            );
            println!(
                "failed_frac {} fraction ({} of {})",
                e.failed_frac(),
                e.failed,
                e.attempted
            );
            for f in &e.failures {
                println!("FAILED {f}");
            }
            println!(
                "setup_wall_s {} timed_wall_s {}",
                e.setup_wall_s, e.timed_wall_s
            );
            let host = Metric::new(HOST_RAW_REQ_PER_S, e.host_raw_req_per_s(), "req/s");
            (e.failed == 0, e.attempted, e.failed, e.metrics(), vec![host], e.digest)
        }
    };
    println!("report_digest {digest:032x}");
    println!("total_wall_s {}", started.elapsed().as_secs_f64());
    if let Some(path) = &opts.record {
        let all = [metrics.as_slice(), &recorded].concat();
        record(path, &opts, correct, attempted, failed, &all, digest)?;
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

/// Append one run to a `--record` file, for `mac-perf compare`.
fn record(
    path: &Path,
    opts: &Opts,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    digest: u128,
) -> Result<(), Stop> {
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"report_digest\": \"{digest:032x}\", \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}\n",
        quote(&opts.workload),
        opts.seed,
        opts.trace.is_some(),
        metrics_object(metrics)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| Stop::Fail(format!("recording to {}: {e}", path.display())))
}

fn compare_cmd(args: &[String]) -> Result<(), Stop> {
    let (files, bounds_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, p] if flag == "--bounds" => ([a, b], p.as_str()),
        _ => return Err(Stop::Usage("compare takes two record files".to_string())),
    };
    let read =
        |p: &str| std::fs::read_to_string(p).map_err(|e| Stop::Fail(format!("reading {p}: {e}")));
    let rules = with_host_rule(bounds_from(&read(bounds_path)?).map_err(Stop::Fail)?);
    let base = runs_from(&read(files[0])?).map_err(Stop::Fail)?;
    let change = runs_from(&read(files[1])?).map_err(Stop::Fail)?;
    let rows = compare(&rules, &base, &change);
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "change", "worse_by", "bound", "spread_a", "spread_b"
    );
    for r in &rows {
        println!(
            "{:<12} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
            r.workload,
            r.rule.name,
            r.base.median,
            r.change.median,
            100.0 * r.worse_by,
            100.0 * r.rule.bound,
            100.0 * r.base.spread(),
            100.0 * r.change.spread(),
            r.verdict.label()
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
        return Err(Stop::Regressed);
    }
    Ok(())
}
