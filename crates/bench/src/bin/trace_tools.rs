//! Trace pipeline CLI — the paper's §5.1 tracer/analyzer workflow plus
//! the telemetry pipeline:
//!
//! ```text
//! trace_tools gen <workload> <file> [threads] [scale]   # workload tracer
//! trace_tools analyze <file>                            # workload analyzer
//! trace_tools run <file> [--no-mac] [--trace <out.mctr>]# timed simulator
//! trace_tools events <trace.mctr>                       # telemetry analyzers
//! trace_tools perfetto <trace.mctr> <out.json>          # Perfetto export
//! trace_tools help
//! ```
//!
//! `.mctr` paths follow the same convention as the `mac-bench` runner:
//! a bare file name (no directory separator) given to `run --trace` is
//! written under `results/traces/`, and `events`/`perfetto` look there
//! when the name doesn't resolve relative to the working directory — so
//! traces recorded by either CLI are addressable from the other.

use std::path::{Path, PathBuf};
use std::process::exit;

use mac_sim::SystemSim;
use mac_telemetry::{BinarySink, Tracer};
use mac_types::{bounds, Bound, SystemConfig};
use mac_workloads::{by_name, extended_workloads, WorkloadParams};
use soc_sim::{read_trace_file, write_trace_file, ReplayProgram, ThreadProgram};

const USAGE: &str = "\
usage: trace_tools gen <workload> <file> [threads] [scale]
       trace_tools analyze <file>
       trace_tools run <file> [--no-mac] [--trace <out.mctr>]
       trace_tools events <trace.mctr>
       trace_tools perfetto <trace.mctr> <out.json>
       trace_tools help";

/// Missing/invalid arguments: complain and exit 2 (usage error).
fn usage_error(msg: &str) -> ! {
    eprintln!("trace_tools: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

/// Runtime failure (I/O, bad file): complain and exit 1.
fn fail(msg: String) -> ! {
    eprintln!("trace_tools: {msg}");
    exit(1);
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> &'a str {
    args.get(i)
        .map(String::as_str)
        .unwrap_or_else(|| usage_error(&format!("missing {what}")))
}

/// The shared telemetry trace directory (`<out>/traces` with the
/// runner's default `--out results`).
fn traces_dir() -> PathBuf {
    mac_sim::engine::EngineOptions::default().traces_dir()
}

/// Resolve a `.mctr` path for WRITING: bare file names land in the
/// shared `results/traces/` directory (created on demand), matching
/// where `mac-bench --trace` writes.
fn resolve_trace_out(name: &str) -> PathBuf {
    let p = Path::new(name);
    if p.components().count() > 1 {
        return p.to_path_buf();
    }
    let dir = traces_dir();
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// Resolve a `.mctr` path for READING: try the path as given, then fall
/// back to the shared `results/traces/` directory.
fn resolve_trace_in(name: &str) -> PathBuf {
    let p = Path::new(name);
    if p.exists() || p.components().count() > 1 {
        return p.to_path_buf();
    }
    let shared = traces_dir().join(name);
    if shared.exists() {
        shared
    } else {
        p.to_path_buf()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("gen") => cmd_gen(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("run") => cmd_run(&args),
        Some("events") => cmd_events(&args),
        Some("perfetto") => cmd_perfetto(&args),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            println!("\nworkloads:");
            for w in extended_workloads() {
                println!("  {}", w.name());
            }
        }
        Some(other) => usage_error(&format!("unknown subcommand `{other}`")),
        None => usage_error("missing subcommand"),
    }
}

fn cmd_gen(args: &[String]) {
    let name = arg(args, 2, "workload name");
    let path = Path::new(arg(args, 3, "output path"));
    let bounded = |i: usize, bound: &Bound, default: u64| {
        args.get(i)
            .map_or(Ok(default), |s| bound.parse(s))
            .unwrap_or_else(|e| usage_error(&e))
    };
    let threads = bounded(4, &bounds::THREADS, 8) as usize;
    let scale = bounded(5, &bounds::SCALE, 2) as u32;
    let w = by_name(name)
        .unwrap_or_else(|| usage_error(&format!("unknown workload `{name}` (see `help`)")));
    let trace = w.generate(&WorkloadParams {
        threads,
        scale,
        seed: 0xC0FFEE,
    });
    write_trace_file(path, &trace).unwrap_or_else(|e| fail(format!("write trace: {e}")));
    println!(
        "wrote {} ({} threads, {} memory ops)",
        path.display(),
        trace.len(),
        mac_workloads::count_mem_ops(&trace)
    );
}

fn cmd_analyze(args: &[String]) {
    let path = Path::new(arg(args, 2, "trace path"));
    let trace = read_trace_file(path).unwrap_or_else(|e| fail(format!("read trace: {e}")));
    let a = mac_sim::analyzer::analyze(&trace);
    println!("memory ops        : {}", a.mem_ops);
    println!("loads/stores      : {} / {}", a.loads, a.stores);
    println!("atomics/fences    : {} / {}", a.atomics, a.fences);
    println!("distinct rows     : {}", a.distinct_rows);
    println!("accesses per row  : {:.2}", a.accesses_per_row);
    println!("shared rows       : {}", a.shared_rows);
    println!(
        "same-row run mean : {:.2} (max {})",
        a.run_length.mean(),
        a.run_length.max
    );
    println!("oracle efficiency : {:.2}%", a.oracle_efficiency() * 100.0);
}

fn cmd_run(args: &[String]) {
    let path = Path::new(arg(args, 2, "trace path"));
    let no_mac = args.iter().any(|a| a == "--no-mac");
    let trace_out = args.iter().position(|a| a == "--trace").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error("--trace needs a path"))
    });
    let trace = read_trace_file(path).unwrap_or_else(|e| fail(format!("read trace: {e}")));
    let mut cfg = SystemConfig::paper(trace.len());
    cfg.validate()
        .unwrap_or_else(|e| fail(format!("trace cannot run: {e}")));
    cfg.mac_disabled = no_mac;
    let programs: Vec<Box<dyn ThreadProgram>> = trace
        .into_iter()
        .map(|ops| Box::new(ReplayProgram::new(ops)) as Box<dyn ThreadProgram>)
        .collect();
    let trace_out = trace_out.map(|o| resolve_trace_out(&o));
    let mut sim = SystemSim::new(&cfg, programs);
    if let Some(out) = &trace_out {
        let sink = BinarySink::create(out)
            .unwrap_or_else(|e| fail(format!("create {}: {e}", out.display())));
        sim.set_tracer(Tracer::new(sink));
    }
    let cap = *bounds::MAX_CYCLES.range.end();
    let r = sim.run(cap);
    println!(
        "mac               : {}",
        if no_mac { "disabled" } else { "enabled" }
    );
    println!("cycles            : {}", r.cycles);
    println!("raw requests      : {}", r.soc.raw_requests);
    println!("transactions      : {}", r.hmc.accesses());
    println!(
        "coalescing        : {:.2}%",
        r.coalescing_efficiency() * 100.0
    );
    println!(
        "bandwidth eff     : {:.2}%",
        r.bandwidth_efficiency() * 100.0
    );
    println!("bank conflicts    : {}", r.bank_conflicts());
    println!("mean latency      : {:.1} cycles", r.mean_access_latency());
    if let Some(out) = trace_out {
        println!(
            "trace             : {} ({} events)",
            out.display(),
            r.trace.events
        );
    }
    // A run cut at the cap printed a truncated measurement.
    if r.cycles >= cap || r.soc.raw_requests != r.soc.completions {
        fail(format!(
            "[FAILED] stopped at cycle {} under the maxcycles={cap} cap with {} of {} raw \
             requests complete",
            r.cycles, r.soc.completions, r.soc.raw_requests
        ));
    }
}

fn cmd_events(args: &[String]) {
    let path = resolve_trace_in(arg(args, 2, "telemetry trace path (.mctr)"));
    let records =
        mac_telemetry::read_trace_file(&path).unwrap_or_else(|e| fail(format!("read trace: {e}")));
    let a = mac_telemetry::analyze(&records);
    print!("{}", a.render_report());
}

fn cmd_perfetto(args: &[String]) {
    let path = resolve_trace_in(arg(args, 2, "telemetry trace path (.mctr)"));
    let out = arg(args, 3, "output JSON path");
    let records =
        mac_telemetry::read_trace_file(&path).unwrap_or_else(|e| fail(format!("read trace: {e}")));
    let json = mac_telemetry::export_json(&records);
    std::fs::write(out, &json).unwrap_or_else(|e| fail(format!("write {out}: {e}")));
    println!(
        "wrote {out} ({} records, {} bytes) — open at https://ui.perfetto.dev or chrome://tracing",
        records.len(),
        json.len()
    );
}
