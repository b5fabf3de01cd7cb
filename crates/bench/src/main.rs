//! `mac-bench` — the parallel experiment runner.
//!
//! One binary drives every table, figure, and ablation through the
//! manifest-driven engine in `mac-sim`:
//!
//! ```text
//! mac-bench [run] [--filter GLOB[,GLOB...]] [--jobs N] [--scale N]
//!           [--out DIR] [--no-cache] [--trace]
//!           [--metrics] [--metrics-interval N] [--profile] [--list]
//! mac-bench fuzz [--iters N] [--seed S] [--out DIR] [--max-cycles N]
//!           [--smoke] [--adaptive] [--replay FILE]
//! mac-bench serve [--addr A] [--workers N] [--sim-jobs N] [--out DIR]
//!           [--queue N] [--per-client N] [--paused] [--flush-every N]
//!           [--metrics-interval N] [--watch-poll-ms N] [--profile]
//! mac-bench client [--addr A] [--name NAME] VERB ...
//! mac-bench guest list | assemble NAME [--out FILE] | disasm NAME
//!           | run NAME [--threads N] [--scale N] [--seed S]
//!           | xval [NAME] [--vs MODELED] [--threads N] [--scale N] [--seed S]
//! ```
//!
//! The `run` subcommand name is optional — `mac-bench --filter smoke`
//! keeps working — so existing scripts and CI invocations are
//! unaffected.
//!
//! * `--filter` selects manifest entries by name or tag with `*`/`?`
//!   globbing (`fig1*`, `ablation`, `table1,fig03`). No filter runs the
//!   full catalog (everything except the CI `smoke` entry).
//! * `--jobs` sets worker threads (default: one per core). Outputs are
//!   byte-identical regardless of the job count.
//! * `--no-cache` ignores and skips the content-addressed result cache
//!   under `<out>/cache` (in-process memoization stays on, so paired
//!   sweeps still share runs within the invocation).
//! * `--trace` writes one `.mctr` telemetry trace per executed
//!   simulation under `<out>/traces` — the same directory `trace_tools
//!   run --trace` resolves bare file names into.
//! * `--metrics` samples component state every `--metrics-interval`
//!   cycles (default 10000) in each *executed* simulation and writes the
//!   time-series as `<out>/metrics/<workload>-<fp>.{csv,json}` — the
//!   directory `metrics_tools` resolves bare file names into. Cached
//!   sims emit nothing; combine with `--no-cache` for full coverage.
//! * `--profile` records host-side wall-clock spans and counters
//!   through the pool and run loops, writes `profile.txt` (deterministic
//!   structure) and `profile.json` (wall-clock figures) under
//!   `<out>/profile/`, and merges host spans with any `--trace` records
//!   and `--metrics` series into one Perfetto timeline at
//!   `<out>/profile/merged-trace.json` (DESIGN.md §16). Profiling never
//!   changes simulated results or cache fingerprints.
//! * A `run` whose simulations all drain exits 0; any simulation that
//!   hits its cycle cap marks its entry `[FAILED]` in the per-entry
//!   summary and the run exits non-zero — truncated measurements must
//!   not pass silently in CI.
//! * `fuzz` runs the differential conformance fuzzer: seeded random
//!   configs × adversarial address streams, each simulated with the
//!   `mac-check` invariant checker attached and diffed against the
//!   functional oracle. Failing cases shrink to reproducers under
//!   `results/fuzz/`; `--replay FILE` re-runs one, `--smoke` adds the
//!   deterministic checked workload set CI uses, and `--adaptive` draws
//!   a random enabled adaptive-controller config per case so the
//!   checker and oracle run against a system that retunes itself
//!   mid-flight (DESIGN.md §17).
//! * `serve` starts the `mac-serve` job server (MACS-1 over TCP) on
//!   `--addr`, sharing its artifact store with plain runs under the same
//!   `--out`; it serves until a client sends `shutdown`, then drains and
//!   writes its counters to `<out>/serve/server-metrics.csv`.
//! * `client` speaks to a running server: `submit key=value...` (the
//!   MACS-1 submit fields as text, e.g. `entry=smoke scale=1` or
//!   `workload=sg threads=4 checked=true`; add `--wait` to block until
//!   the job finishes and `--fetch` to print its artifact), plus
//!   `poll JOB`, `wait JOB`, `fetch JOB`, `stats`, `pause`, `resume`,
//!   and `shutdown`. A shed submission prints the server's explicit
//!   `retry_after_ms` backpressure answer and exits 3.
//!
//! * `guest` drives the mac-guest toolchain directly: `list` the
//!   shipped guest programs, `assemble` one to an ELF file, `disasm`
//!   its assembled text, `run` it once per simulated thread on the rv64
//!   interpreter (non-zero exit if any thread fails), and `xval` its
//!   captured address stream against the modeled counterpart (`--vs`
//!   overrides the counterpart; any tolerance breach exits 1). The
//!   `guest_smoke`/`guest_xval` manifest entries run the same pipeline
//!   through the engine.
//!
//! Artifacts land in `<out>/<name>.{txt,csv,json}`; see EXPERIMENTS.md
//! for the entry → paper-claim → output-file catalog and DESIGN.md §13
//! for the serving protocol.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use mac_metrics::MetricsSnapshot;
use mac_serve::{
    serve, AdmissionConfig, Frame, JobSpec, JobState, Response, ServeClient, ServerConfig,
};
use mac_sim::engine::{run_experiments, EngineOptions};
use mac_sim::fuzz::{self, FuzzOptions};
use mac_sim::manifest::{manifest, select};
use mac_telemetry::{export_merged, read_trace_file, CounterTrack, ProfSnapshot};
use mac_types::{bounds, keys, Bound, JobId};

const USAGE: &str = "\
usage: mac-bench [run] [options]
       mac-bench fuzz [--iters N] [--seed S] [--out DIR] [--max-cycles N]
                      [--smoke] [--adaptive] [--replay FILE]
       mac-bench serve [--addr A] [--workers N] [--sim-jobs N] [--out DIR]
                       [--queue N] [--per-client N] [--paused] [--flush-every N]
                       [--metrics-interval N] [--watch-poll-ms N] [--profile]
       mac-bench client [--addr A] [--name NAME] VERB ...
       mac-bench guest list | assemble NAME [--out FILE] | disasm NAME
                 | run NAME [--threads N] [--scale N] [--seed S]
                 | xval [NAME] [--vs MODELED] [--threads N] [--scale N] [--seed S]

run options:
  --filter GLOB[,GLOB]   run entries matching name or tag (default: all but `smoke`)
  --jobs N               worker threads (0 or absent: one per core)
  --scale N              workload scale factor (default 2)
  --out DIR              output directory (default `results`)
  --no-cache             bypass the on-disk result cache
  --trace                write .mctr telemetry traces for executed sims
  --metrics              write per-sim metrics time-series (CSV+JSON) for executed sims
  --metrics-interval N   metrics sampling interval in cycles (default 10000)
  --profile              record host-side spans/counters under <out>/profile/
                         and write the merged Perfetto timeline
  --list                 list manifest entries and exit

fuzz options:
  --iters N              random cases to run (default 100)
  --seed S               campaign seed (default 1)
  --out DIR              reproducer directory (default `results/fuzz`)
  --max-cycles N         cycle cap per case, 1..=200000000 (default 2000000)
  --smoke                also run the deterministic checked smoke set
  --adaptive             draw a random enabled AdaptConfig per case
  --replay FILE          re-run one reproducer file instead of fuzzing

serve options:
  --addr A               listen address (default 127.0.0.1:4650; port 0 = any free port)
  --workers N            concurrent jobs (default: up to 4)
  --sim-jobs N           sim threads per job (default: one per core)
  --out DIR              artifact store root (default `results`, shared with runs)
  --queue N              queue capacity; watermarks derived (default 64)
  --per-client N         per-client in-flight fairness cap (default 16)
  --paused               start with dispatch paused (resume via client)
  --flush-every N        flush server counters to disk every N finished jobs
                         (default 8; 0 = only at shutdown)
  --metrics-interval N   per-job metrics sampling interval in cycles (default 10000)
  --watch-poll-ms N      watch-stream poll period in milliseconds (default 100)
  --profile              record host-side spans; exports land next to the counters

client verbs (after global --addr A and --name NAME):
  submit key=value...    submit a job: `entry=smoke scale=1`, or `workload=sg`
                         plus checked=true|false and the keys of DESIGN.md
                         §12's table: threads nodes maxout arq pop accepts
                         bypass hiding table router vaultq nomac cubes
                         topology placement mapping net interval minpop
                         maxpop minacc maxacc evidence hold adapt scale seed
                         maxcycles; --wait blocks until it finishes, --fetch
                         prints the artifact; a shed submission prints
                         retry_after_ms and exits 3
  poll JOB               print a job's current state
  wait JOB               wait for the job without busy-polling: chunked server-side
                         waits with client-side backoff honoring the server's
                         serve/retry_after_ms hint (--timeout-ms N, default 60000)
  watch JOB              stream the job live: progress frames (cycles/retired/phase)
                         and metrics sample chunks until it finishes
  fetch JOB              print a finished job's artifact to stdout
  stats                  print the server counters (mac-metrics v1 CSV)
  pause | resume         stop/restart dispatching queued jobs
  shutdown               drain the queue, then stop the server

guest actions:
  list                   list the shipped guest programs
  assemble NAME          assemble to ELF; --out FILE writes it (default NAME.elf)
  disasm NAME            print the assembled text's labelled disassembly
  run NAME               execute once per thread on the rv64 interpreter;
                         exits non-zero if any thread fails
  xval [NAME]            cross-validate captured vs modeled address streams
                         (default: every guest with a modeled counterpart);
                         --vs MODELED overrides the counterpart; any
                         tolerance breach exits 1
  --threads/--scale/--seed set the workload parameters (default 8/1/0xC0FFEE)

  --help                 this text";

fn usage_error(msg: &str) -> ! {
    eprintln!("mac-bench: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

struct Cli {
    filter: String,
    list: bool,
    opts: EngineOptions,
}

fn value(args: &[String], i: usize, flag: &str) -> String {
    args.get(i + 1)
        .cloned()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// The value of `flag` at `args[i]`, read through its row of the bounds
/// table: a non-number or a value out of range is a usage error naming
/// the field and its range.
fn bounded_value(args: &[String], i: usize, flag: &str, bound: &Bound) -> u64 {
    bound
        .parse(&value(args, i, flag))
        .unwrap_or_else(|e| usage_error(&e))
}

fn parse_run_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        filter: String::new(),
        list: false,
        opts: EngineOptions::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--filter" => {
                cli.filter = value(args, i, "--filter");
                i += 1;
            }
            "--jobs" => {
                cli.opts.jobs = value(args, i, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--jobs needs an integer"));
                i += 1;
            }
            "--scale" => {
                cli.opts.scale = bounded_value(args, i, "--scale", &bounds::SCALE) as u32;
                i += 1;
            }
            "--out" => {
                cli.opts.out_dir = PathBuf::from(value(args, i, "--out"));
                i += 1;
            }
            "--no-cache" => cli.opts.use_cache = false,
            "--trace" => cli.opts.trace = true,
            "--metrics" => cli.opts.metrics = true,
            "--metrics-interval" => {
                cli.opts.metrics_interval = value(args, i, "--metrics-interval")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--metrics-interval needs an integer"));
                if cli.opts.metrics_interval == 0 {
                    usage_error("--metrics-interval must be at least 1");
                }
                cli.opts.metrics = true;
                i += 1;
            }
            "--profile" => cli.opts.profile = true,
            "--list" => cli.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    cli
}

fn run_main(args: &[String]) {
    let cli = parse_run_args(args);

    if cli.list {
        println!("{:<22} {:<10} title", "name", "tags");
        for e in manifest() {
            println!("{:<22} {:<10} {}", e.name, e.tags.join(","), e.title);
            println!("{:<22} {:<10}   claim: {}", "", "", e.claim);
        }
        return;
    }

    let exps = select(&cli.filter);
    if exps.is_empty() {
        usage_error(&format!("no manifest entry matches `{}`", cli.filter));
    }
    eprintln!(
        "mac-bench: {} experiment(s), scale {}, cache {}, out {}",
        exps.len(),
        cli.opts.scale,
        if cli.opts.use_cache { "on" } else { "off" },
        cli.opts.out_dir.display()
    );

    let t0 = Instant::now();
    let run = match run_experiments(&exps, &cli.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mac-bench: engine failed: {e}");
            exit(1);
        }
    };
    for o in &run.outcomes {
        let files: Vec<String> = o.written.iter().map(|p| p.display().to_string()).collect();
        println!(
            "{:<22} {} {}",
            o.name,
            if !o.passed() {
                "[FAILED]"
            } else if o.from_artifact_cache {
                "[cached]"
            } else {
                "[ran]   "
            },
            files.join(" ")
        );
    }
    if cli.opts.metrics {
        eprintln!(
            "mac-bench: metrics time-series under {} (executed sims only)",
            cli.opts.metrics_dir().display()
        );
    }
    if let Some(prof) = &run.prof {
        write_merged_trace(&cli.opts, prof);
    }
    eprintln!(
        "mac-bench: {} simulated, {} from disk cache, {} memoized, {} corrupt, {:.1}s",
        run.sims_executed,
        run.sims_from_disk,
        run.sims_from_memo,
        run.cache_corrupt,
        t0.elapsed().as_secs_f64()
    );
    // A simulation that hit its cycle cap produced a truncated
    // measurement; the run must fail loudly, not exit 0.
    if !run.passed() {
        for o in run.outcomes.iter().filter(|o| !o.passed()) {
            eprintln!(
                "mac-bench: {}: {} simulation(s) hit the cycle cap: {}",
                o.name,
                o.sims_timed_out,
                o.timeout_labels.join(" ")
            );
        }
        let failed = run.outcomes.iter().filter(|o| !o.passed()).count();
        eprintln!(
            "mac-bench: FAILED ({failed}/{} entries with truncated simulations)",
            run.outcomes.len()
        );
        exit(1);
    }
}

/// Collect files with `ext` under `dir` in sorted (deterministic) order.
fn files_with_ext(dir: &std::path::Path, ext: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    paths
}

/// Merge the three observability domains of one profiled run — `.mctr`
/// telemetry records, `mac-metrics` CSV series, and the host-side span
/// snapshot — into `<out>/profile/merged-trace.json`. Trace and metrics
/// inputs are whatever this invocation's `--trace`/`--metrics` wrote;
/// either (or both) may be absent, the host spans always render.
fn write_merged_trace(opts: &EngineOptions, prof: &ProfSnapshot) {
    let mut records = Vec::new();
    for p in files_with_ext(&opts.traces_dir(), "mctr") {
        match read_trace_file(&p) {
            Ok(mut r) => records.append(&mut r),
            Err(e) => eprintln!("mac-bench: merged trace skips {}: {e}", p.display()),
        }
    }
    let mut tracks = Vec::new();
    for p in files_with_ext(&opts.metrics_dir(), "csv") {
        let Ok(text) = std::fs::read_to_string(&p) else {
            continue;
        };
        match MetricsSnapshot::from_csv(&text) {
            Ok(snap) => {
                let stem = p
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                for s in snap.series {
                    tracks.push(CounterTrack {
                        name: format!("{stem}/{}", s.name),
                        points: s.points,
                    });
                }
            }
            Err(e) => eprintln!("mac-bench: merged trace skips {}: {e}", p.display()),
        }
    }
    let path = opts.profile_dir().join("merged-trace.json");
    let json = export_merged(&records, &tracks, prof);
    if let Err(e) =
        std::fs::create_dir_all(opts.profile_dir()).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("mac-bench: cannot write {}: {e}", path.display());
        return;
    }
    eprintln!(
        "mac-bench: profile under {} ({} host spans, {} trace records, {} counter tracks)",
        opts.profile_dir().display(),
        prof.spans.len(),
        records.len(),
        tracks.len()
    );
}

fn fuzz_main(args: &[String]) {
    let mut opts = FuzzOptions::default();
    let mut smoke = false;
    let mut replay: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                opts.iters = value(args, i, "--iters")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--iters needs an integer"));
                i += 1;
            }
            "--seed" => {
                opts.seed = value(args, i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an integer"));
                i += 1;
            }
            "--out" => {
                opts.out_dir = PathBuf::from(value(args, i, "--out"));
                i += 1;
            }
            "--max-cycles" => {
                opts.max_cycles = bounded_value(args, i, "--max-cycles", &bounds::MAX_CYCLES);
                i += 1;
            }
            "--smoke" => smoke = true,
            "--adaptive" => opts.adaptive = true,
            "--replay" => {
                replay = Some(PathBuf::from(value(args, i, "--replay")));
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown fuzz argument `{other}`")),
        }
        i += 1;
    }

    let mut failed = false;

    if let Some(path) = replay {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mac-bench: cannot read {}: {e}", path.display());
                exit(1);
            }
        };
        let case = match fuzz::decode_reproducer(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("mac-bench: malformed reproducer {}: {e}", path.display());
                exit(1);
            }
        };
        let run = case.run();
        for v in &run.violations {
            eprintln!("mac-bench: violation: {v}");
        }
        for d in &run.divergences {
            eprintln!("mac-bench: divergence: {d}");
        }
        if run.is_clean() {
            eprintln!("mac-bench: replay clean ({} cycles)", run.report.cycles);
            return;
        }
        eprintln!(
            "mac-bench: replay FAILED ({} violation(s), {} divergence(s))",
            run.violations.len(),
            run.divergences.len()
        );
        exit(1);
    }

    if smoke {
        eprintln!("mac-bench: checked smoke set (calibration + sg over a 2-cube net)");
        for (label, run) in fuzz::run_checked_smoke() {
            for v in &run.violations {
                eprintln!("mac-bench: {label}: violation: {v}");
            }
            for d in &run.divergences {
                eprintln!("mac-bench: {label}: divergence: {d}");
            }
            let ok = run.is_clean();
            failed |= !ok;
            println!(
                "smoke {:<18} {}",
                label,
                if ok { "[clean]" } else { "[FAILED]" }
            );
        }
    }

    if opts.iters > 0 {
        eprintln!(
            "mac-bench: fuzzing {} case(s), seed {}, reproducers under {}",
            opts.iters,
            opts.seed,
            opts.out_dir.display()
        );
        let t0 = Instant::now();
        let report = match fuzz::run_fuzz(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mac-bench: fuzzer failed: {e}");
                exit(1);
            }
        };
        for (iter, path) in &report.failures {
            eprintln!(
                "mac-bench: case {iter} FAILED, reproducer at {}",
                path.display()
            );
        }
        eprintln!(
            "mac-bench: fuzz {} case(s) ({} single-device, {} multi-cube), {} failure(s), {:.1}s",
            report.iters,
            report.single_device,
            report.multi_cube,
            report.failures.len(),
            t0.elapsed().as_secs_f64()
        );
        failed |= !report.is_clean();
    }

    if failed {
        exit(1);
    }
}

fn serve_main(args: &[String]) {
    let mut cfg = ServerConfig::default();
    let mut queue: Option<usize> = None;
    let mut per_client: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                cfg.addr = value(args, i, "--addr");
                i += 1;
            }
            "--workers" => {
                cfg.workers = value(args, i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--workers needs an integer"));
                i += 1;
            }
            "--sim-jobs" => {
                cfg.sim_jobs = value(args, i, "--sim-jobs")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--sim-jobs needs an integer"));
                i += 1;
            }
            "--out" => {
                cfg.out_dir = PathBuf::from(value(args, i, "--out"));
                i += 1;
            }
            "--queue" => {
                let n: usize = value(args, i, "--queue")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--queue needs an integer"));
                if n == 0 {
                    usage_error("--queue must be at least 1");
                }
                queue = Some(n);
                i += 1;
            }
            "--per-client" => {
                per_client = Some(
                    value(args, i, "--per-client")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--per-client needs an integer")),
                );
                i += 1;
            }
            "--paused" => cfg.start_paused = true,
            "--flush-every" => {
                cfg.flush_every = value(args, i, "--flush-every")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--flush-every needs an integer"));
                i += 1;
            }
            "--metrics-interval" => {
                cfg.metrics_interval = value(args, i, "--metrics-interval")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--metrics-interval needs an integer"));
                if cfg.metrics_interval == 0 {
                    usage_error("--metrics-interval must be at least 1");
                }
                i += 1;
            }
            "--watch-poll-ms" => {
                cfg.watch_poll_ms = value(args, i, "--watch-poll-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--watch-poll-ms needs an integer"));
                i += 1;
            }
            "--profile" => cfg.profile = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown serve argument `{other}`")),
        }
        i += 1;
    }
    if let Some(n) = queue {
        cfg.admission = AdmissionConfig::for_capacity(n);
    }
    if let Some(n) = per_client {
        cfg.admission.per_client_inflight = n;
    }

    let out = cfg.out_dir.clone();
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mac-bench: serve failed to start: {e}");
            exit(1);
        }
    };
    eprintln!(
        "mac-bench: serving on {} (store {}); stop with `mac-bench client shutdown`",
        handle.addr(),
        out.display()
    );
    match handle.wait() {
        Ok(_) => eprintln!(
            "mac-bench: server drained; counters at {}",
            out.join("serve").join("server-metrics.csv").display()
        ),
        Err(e) => {
            eprintln!("mac-bench: server exited with error: {e}");
            exit(1);
        }
    }
}

fn parse_job_arg(arg: Option<&String>) -> JobId {
    arg.unwrap_or_else(|| usage_error("this verb needs a JOB id (32 hex digits)"))
        .parse()
        .unwrap_or_else(|e| usage_error(&format!("bad job id: {e}")))
}

fn print_state(job: JobId, state: &JobState) {
    match state {
        JobState::Failed { reason } => println!("job={job} state=failed reason={reason}"),
        s => println!("job={job} state={}", s.as_str()),
    }
}

/// Last value of a named gauge/counter in a mac-metrics v1 CSV — how the
/// client reads the server's published `serve/retry_after_ms` backoff
/// hint out of a `stats` answer.
fn stats_value(csv: &str, name: &str) -> Option<u64> {
    csv.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split(',');
            let _cycle = f.next()?;
            (f.next()? == name).then(|| f.nth(1)?.parse().ok())?
        })
        .next_back()
}

/// One `client` verb with its arguments. It is parsed before the client
/// connects, so a malformed command is a usage error (exit 2) whether
/// or not a server is listening.
enum ClientCmd {
    Submit {
        spec: JobSpec,
        wait: bool,
        fetch: bool,
        timeout_ms: u64,
    },
    Poll(JobId),
    Wait {
        job: JobId,
        timeout_ms: u64,
    },
    Watch(JobId),
    Fetch(JobId),
    Stats,
    Pause,
    Resume,
    Shutdown,
}

fn parse_client_cmd(verb: &str, rest: &[String]) -> ClientCmd {
    match verb {
        "submit" => {
            let mut wait = false;
            let mut fetch = false;
            let mut timeout_ms: u64 = 60_000;
            let mut tokens = Vec::new();
            let mut j = 0;
            while j < rest.len() {
                match rest[j].as_str() {
                    "--wait" => wait = true,
                    "--fetch" => {
                        wait = true;
                        fetch = true;
                    }
                    "--timeout-ms" => {
                        timeout_ms = value(rest, j, "--timeout-ms")
                            .parse()
                            .unwrap_or_else(|_| usage_error("--timeout-ms needs an integer"));
                        j += 1;
                    }
                    tok => tokens.push(tok),
                }
                j += 1;
            }
            let spec = keys::pairs(tokens)
                .and_then(|pairs| JobSpec::from_pairs(&pairs))
                .unwrap_or_else(|e| usage_error(&format!("bad submit spec: {e}")));
            ClientCmd::Submit {
                spec,
                wait,
                fetch,
                timeout_ms,
            }
        }
        "poll" => ClientCmd::Poll(parse_job_arg(rest.first())),
        "wait" => ClientCmd::Wait {
            job: parse_job_arg(rest.first()),
            timeout_ms: match rest.get(1).map(String::as_str) {
                Some("--timeout-ms") => value(rest, 1, "--timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--timeout-ms needs an integer")),
                _ => 60_000,
            },
        },
        "watch" => ClientCmd::Watch(parse_job_arg(rest.first())),
        "fetch" => ClientCmd::Fetch(parse_job_arg(rest.first())),
        "stats" => ClientCmd::Stats,
        "pause" => ClientCmd::Pause,
        "resume" => ClientCmd::Resume,
        "shutdown" => ClientCmd::Shutdown,
        other => usage_error(&format!("unknown client verb `{other}`")),
    }
}

fn client_main(args: &[String]) {
    let mut addr = "127.0.0.1:4650".to_string();
    let mut name = "mac-bench".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = value(args, i, "--addr");
                i += 2;
            }
            "--name" => {
                name = value(args, i, "--name");
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            _ => break,
        }
    }
    let Some(verb) = args.get(i) else {
        usage_error(
            "client needs a verb (submit/poll/wait/watch/fetch/stats/pause/resume/shutdown)",
        );
    };
    let cmd = parse_client_cmd(verb, &args[i + 1..]);

    let mut c = match ServeClient::connect(&addr, &name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mac-bench: cannot connect to {addr}: {e}");
            exit(1);
        }
    };
    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("mac-bench: {what} failed: {e}");
        exit(1);
    };

    match cmd {
        ClientCmd::Submit {
            spec,
            wait,
            fetch,
            timeout_ms,
        } => match c.submit(&spec) {
            Ok(Response::Accepted {
                job,
                state,
                dedup,
                cached,
                queue_pos,
            }) => {
                print!(
                    "accepted job={job} state={} dedup={dedup} cached={cached}",
                    state.as_str()
                );
                match queue_pos {
                    Some(p) => println!(" queue_pos={p}"),
                    None => println!(),
                }
                if wait {
                    let (final_state, _round_trips) = c
                        .wait_backoff(job, timeout_ms, None)
                        .unwrap_or_else(|e| fail("wait", e));
                    print_state(job, &final_state);
                    match final_state {
                        JobState::Done => {
                            if fetch {
                                let payload = c.fetch(job).unwrap_or_else(|e| fail("fetch", e));
                                print!("{payload}");
                            }
                        }
                        JobState::Failed { .. } => exit(1),
                        _ => exit(4), // still queued/running at timeout
                    }
                }
            }
            Ok(Response::Rejected {
                reason,
                retry_after_ms,
            }) => {
                eprintln!("mac-bench: shed: reason={reason} retry_after_ms={retry_after_ms}");
                exit(3);
            }
            Ok(other) => fail(
                "submit",
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected answer {other:?}"),
                ),
            ),
            Err(e) => fail("submit", e),
        },
        ClientCmd::Poll(job) => {
            let state = c.poll(job).unwrap_or_else(|e| fail("poll", e));
            print_state(job, &state);
        }
        ClientCmd::Wait { job, timeout_ms } => {
            // Honor the server's published backpressure hint when it has
            // one; wait_backoff falls back to capped exponential backoff.
            let hint = c
                .stats()
                .ok()
                .and_then(|csv| stats_value(&csv, "serve/retry_after_ms"))
                .filter(|&ms| ms > 0);
            let (state, round_trips) = c
                .wait_backoff(job, timeout_ms, hint)
                .unwrap_or_else(|e| fail("wait", e));
            eprintln!(
                "mac-bench: wait: {round_trips} round trip(s), backoff {}",
                match hint {
                    Some(ms) => format!("hinted {ms}ms"),
                    None => "exponential".to_string(),
                }
            );
            print_state(job, &state);
            match state {
                JobState::Done => {}
                JobState::Failed { .. } => exit(1),
                _ => exit(4),
            }
        }
        ClientCmd::Watch(job) => {
            let state = c
                .watch(job, |frame, body| match frame {
                    Frame::Progress {
                        cycles,
                        retired,
                        phase,
                        ..
                    } => println!(
                        "progress job={job} cycles={cycles} retired={retired} phase={phase}"
                    ),
                    Frame::Sample { lines, .. } => {
                        println!("sample job={job} lines={lines}");
                        if let Some(chunk) = body {
                            print!("{chunk}");
                        }
                    }
                    Frame::End { .. } => {}
                })
                .unwrap_or_else(|e| fail("watch", e));
            print_state(job, &state);
            if matches!(state, JobState::Failed { .. }) {
                exit(1);
            }
        }
        ClientCmd::Fetch(job) => {
            let payload = c.fetch(job).unwrap_or_else(|e| fail("fetch", e));
            print!("{payload}");
        }
        ClientCmd::Stats => {
            let csv = c.stats().unwrap_or_else(|e| fail("stats", e));
            print!("{csv}");
        }
        ClientCmd::Pause => c.pause().unwrap_or_else(|e| fail("pause", e)),
        ClientCmd::Resume => c.resume().unwrap_or_else(|e| fail("resume", e)),
        ClientCmd::Shutdown => c.shutdown().unwrap_or_else(|e| fail("shutdown", e)),
    }
}

/// Workload parameters shared by the `guest` actions.
struct GuestCli {
    params: mac_workloads::WorkloadParams,
    out: Option<PathBuf>,
    vs: Option<String>,
    names: Vec<String>,
}

fn parse_guest_args(args: &[String]) -> GuestCli {
    let mut cli = GuestCli {
        params: mac_workloads::WorkloadParams::default(),
        out: None,
        vs: None,
        names: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                cli.params.threads = bounded_value(args, i, "--threads", &bounds::THREADS) as usize;
                i += 1;
            }
            "--scale" => {
                cli.params.scale = bounded_value(args, i, "--scale", &bounds::SCALE) as u32;
                i += 1;
            }
            "--seed" => {
                cli.params.seed = value(args, i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an integer"));
                i += 1;
            }
            "--out" => {
                cli.out = Some(PathBuf::from(value(args, i, "--out")));
                i += 1;
            }
            "--vs" => {
                cli.vs = Some(value(args, i, "--vs"));
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown guest argument `{flag}`"))
            }
            name => cli.names.push(name.to_string()),
        }
        i += 1;
    }
    cli
}

fn guest_spec(name: &str) -> &'static mac_guest::ProgramSpec {
    mac_guest::program_by_name(name).unwrap_or_else(|| {
        let known: Vec<&str> = mac_guest::shipped_programs()
            .iter()
            .map(|p| p.name)
            .collect();
        usage_error(&format!(
            "unknown guest program `{name}` (shipped: {})",
            known.join(", ")
        ));
    })
}

fn guest_main(args: &[String]) {
    let Some(action) = args.first() else {
        usage_error("guest needs an action (list/assemble/disasm/run/xval)");
    };
    let cli = parse_guest_args(&args[1..]);
    let one_name = || -> &String {
        cli.names
            .first()
            .unwrap_or_else(|| usage_error("this guest action needs a program NAME"))
    };
    let guest_object = |spec: &mac_guest::ProgramSpec| {
        spec.object().unwrap_or_else(|e| {
            eprintln!("mac-bench: assemble failed: {e}");
            exit(1);
        })
    };

    match action.as_str() {
        "list" => {
            println!("{:<16} {:<10} title", "name", "modeled");
            for p in mac_guest::shipped_programs() {
                println!(
                    "{:<16} {:<10} {}",
                    p.name,
                    p.modeled.unwrap_or("-"),
                    p.title
                );
            }
        }
        "assemble" => {
            let spec = guest_spec(one_name());
            let obj = guest_object(spec);
            let bytes = mac_guest::write_elf(&obj);
            let path = cli
                .out
                .unwrap_or_else(|| PathBuf::from(format!("{}.elf", spec.name)));
            if let Err(e) = std::fs::write(&path, &bytes) {
                eprintln!("mac-bench: cannot write {}: {e}", path.display());
                exit(1);
            }
            eprintln!(
                "mac-bench: wrote {} ({} bytes, entry {:#x})",
                path.display(),
                bytes.len(),
                obj.entry
            );
        }
        "disasm" => {
            for line in guest_object(guest_spec(one_name())).listing() {
                println!("{line}");
            }
        }
        "run" => {
            let spec = guest_spec(one_name());
            let obj = guest_object(spec);
            let cfg = mac_guest::GuestConfig {
                mem_bytes: spec.mem_bytes(cli.params.threads, cli.params.scale),
                max_steps: spec.max_steps(cli.params.scale),
                ..mac_guest::GuestConfig::default()
            };
            let mut failed = false;
            for tid in 0..cli.params.threads {
                let ga = mac_guest::GuestArgs {
                    tid: tid as u64,
                    nthreads: cli.params.threads as u64,
                    scale: cli.params.scale as u64,
                    seed: cli.params.seed,
                };
                let run = mac_guest::run_guest(&obj, &ga, &cfg);
                let ok = run.exit.is_success();
                failed |= !ok;
                println!(
                    "thread {tid}: {} steps={} mem_ops={} markers={:?}{}",
                    run.exit,
                    run.steps,
                    run.ops
                        .iter()
                        .filter(|op| matches!(op, soc_sim::ThreadOp::Mem { .. }))
                        .count(),
                    run.markers,
                    if run.stdout.is_empty() {
                        String::new()
                    } else {
                        format!(" stdout={:?}", run.stdout)
                    }
                );
            }
            if failed {
                eprintln!("mac-bench: guest run FAILED");
                exit(1);
            }
        }
        "xval" => {
            let tol = mac_guest::XvalTolerances::default();
            let mut failed = false;
            let mut compared = 0;
            let specs: Vec<&'static mac_guest::ProgramSpec> = if cli.names.is_empty() {
                mac_guest::shipped_programs().iter().collect()
            } else {
                cli.names.iter().map(|n| guest_spec(n)).collect()
            };
            for spec in specs {
                let report = match &cli.vs {
                    // Explicit counterpart: pair the captured stream with
                    // any modeled workload (the CI mismatch gate).
                    Some(modeled) => {
                        let guest = mac_guest::capture_traces(
                            spec,
                            cli.params.threads,
                            cli.params.scale,
                            cli.params.seed,
                        )
                        .unwrap_or_else(|e| {
                            eprintln!("mac-bench: {e}");
                            exit(1);
                        });
                        let w = mac_workloads::by_name(modeled).unwrap_or_else(|| {
                            usage_error(&format!("--vs: unknown workload `{modeled}`"))
                        });
                        let model = w.generate(&cli.params);
                        Some(mac_guest::cross_validate(
                            &mac_guest::TraceProfile::of(&guest),
                            &mac_guest::TraceProfile::of(&model),
                            &tol,
                        ))
                    }
                    None => mac_sim::catalog::guest_xval_pair(spec, &cli.params, &tol)
                        .unwrap_or_else(|e| {
                            eprintln!("mac-bench: {e}");
                            exit(1);
                        }),
                };
                let Some(report) = report else {
                    eprintln!(
                        "mac-bench: {}: no modeled counterpart, skipped (use --vs)",
                        spec.name
                    );
                    continue;
                };
                compared += 1;
                let against = cli.vs.as_deref().or(spec.modeled).unwrap_or("-");
                println!("{} vs {}:", spec.name, against);
                println!("{report}");
                failed |= !report.pass;
            }
            if compared == 0 {
                usage_error("xval compared nothing (no guest has a modeled counterpart?)");
            }
            if failed {
                eprintln!("mac-bench: xval FAILED");
                exit(1);
            }
            eprintln!("mac-bench: xval OK ({compared} pair(s))");
        }
        other => usage_error(&format!("unknown guest action `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommand dispatch with back-compat: a leading flag (or nothing)
    // means `run`.
    match args.first().map(String::as_str) {
        Some("run") => run_main(&args[1..]),
        Some("fuzz") => fuzz_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some("client") => client_main(&args[1..]),
        Some("guest") => guest_main(&args[1..]),
        _ => run_main(&args),
    }
}
