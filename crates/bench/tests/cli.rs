//! Command-line validation: a thread count, workload scale or fuzz cycle
//! cap outside its row of the bounds table, or not a number, is a usage
//! error (exit 2) naming the field and its range before any work
//! starts, not a panic inside a generator that takes the scale's log2, a
//! silent default or a reproducer that cannot be replayed; a corrupt
//! trace file is
//! a runtime failure (exit 1), not a panic (exit 101); and a well-formed
//! trace with extreme field values renders (exit 0), its conflict
//! heatmap one row per vault that has a conflict. A trace run that
//! reaches the cycle cap fails (exit 1) instead of printing a truncated
//! result. A malformed `client` command is a usage error whether or not
//! a server is running.

use std::process::Command;

/// Exit code of `bin` run with `args`.
fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
}

#[test]
fn zero_scale_is_a_usage_error() {
    let bench = env!("CARGO_BIN_EXE_mac-bench");
    assert_eq!(exit_code(bench, &["--scale", "0", "--list"]), Some(2));
    assert_eq!(
        exit_code(bench, &["guest", "run", "guest_stream", "--scale", "0"]),
        Some(2)
    );
    let out = std::env::temp_dir().join(format!("mac-cli-{}.trace", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let tools = env!("CARGO_BIN_EXE_trace_tools");
    assert_eq!(exit_code(tools, &["gen", "bfs", out, "2", "0"]), Some(2));
    assert!(!std::path::Path::new(out).exists(), "no trace is written");
}

/// Standard error of `bin` run with `args`, which must exit 2.
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn sweep_values_outside_the_table_are_usage_errors() {
    let out = std::env::temp_dir().join(format!("mac-cli-{}-sweep.mact", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let tools = env!("CARGO_BIN_EXE_trace_tools");
    for (args, message) in [
        // 0 threads divide by zero in the generator.
        (["gups", out, "0", "1"], "threads=0 outside 1..=64"),
        // A non-number must not fall back to the default 8 threads.
        (
            ["stream", out, "eight", "1"],
            "threads=eight outside 1..=64",
        ),
        // Scale 65 would write a 3,194,880-op trace.
        (["stream", out, "2", "65"], "scale=65 outside 1..=64"),
    ] {
        let args = [&["gen"][..], &args].concat();
        let err = usage_error(tools, &args);
        assert!(err.contains(message), "{args:?}: {err}");
    }
    assert!(!std::path::Path::new(out).exists(), "no trace is written");
    let bench = env!("CARGO_BIN_EXE_mac-bench");
    let err = usage_error(bench, &["--scale", "65", "--list"]);
    assert!(err.contains("scale=65 outside 1..=64"), "{err}");
}

/// A malformed `client` command is a usage error before the client
/// connects: against an address nothing listens on, each exits 2
/// naming the problem, not 1 with "cannot connect".
#[test]
fn client_commands_are_checked_before_connecting() {
    // A port that was free a moment ago: bind it, read it, let it go.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind a local port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let bench = env!("CARGO_BIN_EXE_mac-bench");
    for (args, message) in [
        (
            &["submit", "workload=bfs", "scale=0"][..],
            "scale=0 outside 1..=64",
        ),
        (
            &["submit", "workload=sg", "nomac=1"][..],
            "nomac=1: expected true|false",
        ),
        (
            &["submit", "workload=sg", "arqq=16"][..],
            "arqq=16: unknown key",
        ),
        (
            &["submit", "workload=sg", "arq=16", "arq=32"][..],
            "arq=32: key given twice",
        ),
        (&["poll", "nothex"][..], "bad job id"),
        (&["frobnicate"][..], "unknown client verb `frobnicate`"),
    ] {
        let args = [&["client", "--addr", addr.as_str()][..], args].concat();
        let err = usage_error(bench, &args);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}

/// An entry that ignores `--scale` has one cached artifact for every
/// scale: `table1` at scale 2 and then 3 into one directory runs once.
#[test]
fn scale_free_entry_is_cached_once_across_scales() {
    let bench = env!("CARGO_BIN_EXE_mac-bench");
    let dir = std::env::temp_dir().join(format!("mac-cli-{}-scalefree", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.to_str().expect("utf-8 temp path");
    // mac-bench prints one `<entry> [ran]` or `<entry> [cached]` line.
    let status = |scale: &str| {
        let out = Command::new(bench)
            .args(["--filter", "table1", "--scale", scale, "--out", out_dir])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "scale {scale}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.starts_with("table1 "));
        line.and_then(|l| l.split_whitespace().nth(1))
            .map(str::to_string)
    };
    assert_eq!(status("2").as_deref(), Some("[ran]"));
    assert_eq!(status("3").as_deref(), Some("[cached]"));
    let arts = std::fs::read_dir(dir.join("cache"))
        .expect("cache directory")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("exp-") && name.ends_with(".art")
        })
        .count();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(arts, 1);
}

#[test]
fn trace_thread_count_outside_the_table_is_a_runtime_failure() {
    // A `.mact` whose header names 0 or 65 threads, each with no
    // records.
    let tools = env!("CARGO_BIN_EXE_trace_tools");
    for threads in [0u16, 65] {
        let mut raw = b"MACT".to_vec();
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(&threads.to_le_bytes());
        for _ in 0..threads {
            raw.extend_from_slice(&0u64.to_le_bytes());
        }
        let path = std::env::temp_dir().join(format!(
            "mac-cli-{}-threads{threads}.mact",
            std::process::id()
        ));
        std::fs::write(&path, &raw).expect("write crafted trace");
        let out = Command::new(tools)
            .args(["run", path.to_str().expect("utf-8 temp path")])
            .output()
            .expect("binary runs");
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{threads} threads");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("threads={threads} outside 1..=64")),
            "{err}"
        );
    }
}

#[test]
fn trace_run_stops_at_the_cycle_cap_and_fails() {
    // One thread computes 2.5e8 cycles, past the 2e8 cap, then loads:
    // 3,814 full gap records and the load carrying the rest of the gap.
    let gap = 250_000_000u64;
    let full = gap / u64::from(u16::MAX);
    let mut raw = b"MACT".to_vec();
    raw.extend_from_slice(&1u16.to_le_bytes());
    raw.extend_from_slice(&1u16.to_le_bytes());
    raw.extend_from_slice(&(full + 1).to_le_bytes());
    for _ in 0..full {
        raw.extend_from_slice(&[255, 0]);
        raw.extend_from_slice(&u16::MAX.to_le_bytes());
        raw.extend_from_slice(&0u64.to_le_bytes());
    }
    raw.extend_from_slice(&[0, 0]);
    raw.extend_from_slice(&((gap % u64::from(u16::MAX)) as u16).to_le_bytes());
    raw.extend_from_slice(&0x1000u64.to_le_bytes());
    let path = std::env::temp_dir().join(format!("mac-cli-{}-overcap.mact", std::process::id()));
    std::fs::write(&path, &raw).expect("write crafted trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tools"))
        .args(["run", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("[FAILED]") && err.contains("maxcycles=200000000"),
        "{err}"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles            : 200000000"), "{text}");
}

#[test]
fn out_of_range_fuzz_cycle_cap_is_a_usage_error() {
    // A campaign must not write reproducers its own decoder rejects.
    let bench = env!("CARGO_BIN_EXE_mac-bench");
    let out = std::env::temp_dir().join(format!("mac-cli-{}-fuzz", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    for cap in ["0", "200000001", "18446744073709551615"] {
        let args = ["fuzz", "--iters", "1", "--out", out, "--max-cycles", cap];
        assert_eq!(exit_code(bench, &args), Some(2), "--max-cycles {cap}");
    }
    assert!(!std::path::Path::new(out).exists(), "no campaign ran");
}

#[test]
fn oversized_record_count_is_a_runtime_failure() {
    // A `.mact` header for one thread claiming u64::MAX / 12 + 1
    // records, followed by 16 bytes: the count times the 12-byte record
    // size overflows u64.
    let mut raw = Vec::new();
    raw.extend_from_slice(b"MACT");
    raw.extend_from_slice(&1u16.to_le_bytes());
    raw.extend_from_slice(&1u16.to_le_bytes());
    raw.extend_from_slice(&(u64::MAX / 12 + 1).to_le_bytes());
    raw.extend_from_slice(&[0; 16]);
    let path = std::env::temp_dir().join(format!("mac-cli-{}-huge.mact", std::process::id()));
    std::fs::write(&path, &raw).expect("write crafted trace");
    let tools = env!("CARGO_BIN_EXE_trace_tools");
    let code = exit_code(tools, &["analyze", path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1));
}

/// A 29-byte trace: a v4 `.mctr` header and one `BankConflict` record
/// naming vault and bank 255 (1 tag byte, node, cycle, vault, bank,
/// waited), written under a name unique to this process and `tag`.
fn vault_255_trace(tag: &str) -> std::path::PathBuf {
    let mut raw = Vec::new();
    raw.extend_from_slice(b"MCTR");
    raw.extend_from_slice(&4u16.to_le_bytes());
    raw.extend_from_slice(&0u16.to_le_bytes());
    raw.push(14);
    raw.extend_from_slice(&0u16.to_le_bytes());
    raw.extend_from_slice(&7u64.to_le_bytes());
    raw.extend_from_slice(&[255, 255]);
    raw.extend_from_slice(&3u64.to_le_bytes());
    assert_eq!(raw.len(), 29);
    let name = format!("mac-cli-{}-{tag}.mctr", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, &raw).expect("write crafted trace");
    path
}

#[test]
fn conflict_in_vault_255_renders() {
    let path = vault_255_trace("v255");
    let json = path.with_extension("json");
    let tools = env!("CARGO_BIN_EXE_trace_tools");
    let trace = path.to_str().expect("utf-8 temp path");
    let events = exit_code(tools, &["events", trace]);
    let perfetto = exit_code(tools, &["perfetto", trace, json.to_str().expect("utf-8")]);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&json).ok();
    assert_eq!(events, Some(0), "events");
    assert_eq!(perfetto, Some(0), "perfetto");
}

#[test]
fn conflict_heatmap_prints_only_conflicting_vaults() {
    // One conflict gets one heatmap row, not a row for every vault up to
    // the one it names.
    let path = vault_255_trace("v255-size");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tools"))
        .args(["events", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("v255 "),
        "vault 255 has a heatmap row:\n{text}"
    );
    assert!(
        out.stdout.len() < 2048,
        "{} bytes for one conflict:\n{text}",
        out.stdout.len()
    );
}
