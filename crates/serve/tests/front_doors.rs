//! The two doors that take a whole configuration from outside, a fuzz
//! reproducer (`mac-bench fuzz --replay`) and a MACS-1 `submit`
//! (`JobSpec::from_fields`), accept exactly the same values for every
//! field both of them know, because both check the one bounds table
//! (`mac_types::bounds`). A value out of range is rejected by both, with
//! the same error naming the field, the value and the range; none is
//! clamped.

use mac_serve::proto::decode_fields;
use mac_serve::{JobKind, JobSpec};
use mac_sim::fuzz::{decode_reproducer, FuzzCase};
use mac_types::{bounds, Bound, SystemConfig};

/// `value` through a reproducer that sets only `field`.
fn reproducer(field: &str, value: u64) -> Result<FuzzCase, String> {
    let mut text = String::from("# mac-check fuzz reproducer v1\n");
    match field {
        "maxcycles" => text.push_str(&format!("maxcycles {value}\nconfig threads=1\n")),
        "cubes" => text.push_str(&format!("config threads=1\nnet enabled=1 cubes={value}\n")),
        _ => text.push_str(&format!("config {field}={value}\n")),
    }
    decode_reproducer(&text)
}

/// `value` through a submit line that sets only `field`.
fn submit(field: &str, value: u64) -> Result<(SystemConfig, u64), String> {
    let line = format!(
        "{{\"proto\":\"macs-1\",\"type\":\"submit\",\"workload\":\"sg\",\"{field}\":{value}}}"
    );
    let spec = JobSpec::from_fields(&decode_fields(&line)?)?;
    let JobKind::Sim { cfg, .. } = spec.kind else {
        panic!("not a sim job: {spec:?}");
    };
    Ok((cfg.system, cfg.max_cycles))
}

/// Zero, both ends of the range, one past its end and `u64::MAX`.
fn edges(bound: &Bound) -> [u64; 5] {
    let (lo, hi) = (*bound.range.start(), *bound.range.end());
    [0, lo, hi, hi.saturating_add(1), u64::MAX]
}

#[test]
fn both_doors_accept_the_same_values() {
    for bound in [
        bounds::THREADS,
        bounds::MAX_CYCLES,
        bounds::ARQ,
        bounds::POP,
        bounds::ACCEPTS,
    ] {
        for value in edges(&bound) {
            let field = bound.name;
            match (reproducer(field, value), submit(field, value)) {
                (Ok(case), Ok((sys, max_cycles))) => {
                    assert!(bound.range.contains(&value), "{field}={value} accepted");
                    let picked = |s: &SystemConfig, m: u64| match field {
                        "threads" => s.soc.threads as u64,
                        "maxcycles" => m,
                        "arq" => s.mac.arq_entries as u64,
                        "pop" => s.mac.pop_interval,
                        _ => s.mac.accepts_per_cycle as u64,
                    };
                    assert_eq!(picked(&case.sys, case.max_cycles), value, "{field}");
                    assert_eq!(picked(&sys, max_cycles), value, "{field}");
                }
                (Err(a), Err(b)) => {
                    let want = format!("{field}={value} outside {:?}", bound.range);
                    assert_eq!(a, want, "reproducer");
                    assert_eq!(b, want, "submit");
                }
                (a, b) => panic!(
                    "{field}={value}: reproducer {:?}, submit {:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }
}

#[test]
fn both_doors_wire_the_same_networks() {
    for cubes in [0, 1, 2, 3, 4, 8, 9, u64::MAX] {
        match (reproducer("cubes", cubes), submit("cubes", cubes)) {
            (Ok(case), Ok((sys, _))) => assert_eq!(case.sys.net.cubes, sys.net.cubes),
            (Err(a), Err(b)) => assert_eq!(a, b, "cubes={cubes}"),
            (a, b) => panic!("cubes={cubes}: {:?} vs {:?}", a.map(|_| ()), b.map(|_| ())),
        }
    }
}
