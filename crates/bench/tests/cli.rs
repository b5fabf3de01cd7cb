//! Command-line validation: a workload scale of 0 is a usage error
//! (exit 2) before any work starts, not a panic inside a generator that
//! takes the scale's log2.

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
